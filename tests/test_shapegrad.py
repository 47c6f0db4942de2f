import dataclasses

import numpy as np
import pytest

from metascreen import capacitance as cap, geometry as geo, layerpot as lp, rom, shapegrad as sg
from metascreen.optimizer import objective_ref, objective_res, uniform_targets

L = 20.0
MATS = rom.MaterialParams()
BAND = (0.01, 0.1)
N_PTS = 64
N_QUAD = 64


@pytest.fixture(scope="module")
def design(two_res_shapes):
    grid = geo.discretize(two_res_shapes, N_PTS, L)
    ctx = lp.AssemblyContext(grid)
    data = cap.capacitance_pipeline(grid, context=ctx)
    model = rom.build_rom(data, MATS)
    grads = sg.gradient_densities(data, MATS, kstar=ctx.adjoint_double_layer_laplace())
    vel = sg.normal_velocities(grid)
    return grid, data, model, grads, vel


@pytest.fixture(scope="module")
def three_design():
    """Asymmetric three-resonator design: two off-diagonal terms in every g^u_j."""
    shapes = (
        geo.ShapeParams((-3.0, 1.2), 0.6, (0.15, -0.1), (0.05, 0.2)),
        geo.ShapeParams((0.5, 1.0), 0.45, (-0.2, 0.1), (0.1, -0.15)),
        geo.ShapeParams((4.0, 1.6), 0.5, (0.05, 0.1), (-0.1, 0.05)),
    )
    grid = geo.discretize(shapes, N_PTS, L)
    ctx = lp.AssemblyContext(grid)
    data = cap.capacitance_pipeline(grid, context=ctx)
    model = rom.build_rom(data, MATS)
    grads = sg.gradient_densities(data, MATS, kstar=ctx.adjoint_double_layer_laplace())
    return grid, data, model, grads, sg.normal_velocities(grid)


def rebuild(params, order=2):
    shapes = geo.params_to_shapes(params, order)
    grid = geo.discretize(shapes, N_PTS, L)
    data = cap.capacitance_pipeline(grid)
    return data, rom.build_rom(data, MATS)


class TestDensityStructure:
    def test_gC_pointwise_symmetry(self, design):
        _, _, _, grads, _ = design
        assert np.array_equal(grads.gC, np.swapaxes(grads.gC, 1, 2))

    def test_translation_pairings_vanish(self, design):
        grid, _, model, grads, _ = design
        theta_nu = grid.normals[:, 0]  # global lattice shift e_l
        for dens in (
            grads.gC,
            grads.gm,
            grads.glam0,
            grads.glam1,
            sg.grad_objective_ref(model, grads, BAND, N_QUAD),
            sg.grad_objective_res(model, grads, uniform_targets(BAND, 2)),
        ):
            pair = sg.parametric_gradient(dens, grid, theta_nu[None])[0]
            assert np.abs(pair).max() < 1e-8

    def test_mirror_symmetric_gm(self):
        shapes = [geo.ShapeParams((-2.0, 1.0), 0.5), geo.ShapeParams((2.0, 1.0), 0.5)]
        grid = geo.discretize(shapes, 48, L)
        data = cap.capacitance_pipeline(grid)
        grads = sg.gradient_densities(data, MATS)
        n = grid.n_pts
        # x_l -> -x_l maps resonator 1 onto 2 with t -> pi - t
        perm = (n // 2 - np.arange(n)) % n
        g1 = grads.gm[grid.block(0), 0]
        g2 = grads.gm[grid.block(1), 1][perm]
        assert np.abs(g1 - g2).max() < 1e-10

    def test_dark_mode_width_density_vanishes(self):
        shapes = [geo.ShapeParams((-2.0, 1.0), 0.5), geo.ShapeParams((2.0, 1.0), 0.5)]
        grid = geo.discretize(shapes, 48, L)
        data = cap.capacitance_pipeline(grid)
        grads = sg.gradient_densities(data, MATS)
        dark = np.argmin(np.abs(data.m @ data.u))
        assert np.abs(data.m @ data.u[:, dark]) < 1e-10
        assert np.abs(grads.glam1[:, dark]).max() < 1e-8

    def test_single_mode_reduction(self, circle_half):
        grid = geo.discretize([circle_half], N_PTS, L)
        data = cap.capacitance_pipeline(grid)
        grads = sg.gradient_densities(data, MATS)
        # one resonator: g^V_00 = 1 at every node
        expect = (grads.gC[:, 0, 0] - data.lam[0]) / data.areas[0]
        assert np.abs(grads.glam0[:, 0] - expect).max() < 1e-12

    @pytest.mark.parametrize("fixture", ["design", "three_design"])
    def test_orthonormality_derivative_identity(self, fixture, request):
        # d/dt (u_i^T V u_j) = 0: D + D^T + U^T P[g^V] U = 0, D_ij = u_i^T V P[g^u_j]
        grid, data, _, grads, _ = request.getfixturevalue(fixture)
        rng = np.random.default_rng(5)
        vn = rng.standard_normal(grid.n_total)
        w = grid.weights * vn
        pu = np.tensordot(w, grads.gu, axes=(0, 0))  # (modes, comps)
        pV = np.diag(np.bincount(grid.block_index(), weights=w))
        D = data.u.T @ np.diag(data.areas) @ pu.T
        resid = D + D.T + data.u.T @ pV @ data.u
        assert np.abs(resid).max() < 1e-8

    @pytest.mark.parametrize("fixture", ["design", "three_design"])
    def test_grad_eigs_matches_mode_loop(self, fixture, request):
        # reference: the per-mode double loop; the arithmetic is the same
        _, data, _, grads, _ = request.getfixturevalue(fixture)
        lam, u = data.lam, data.u
        nres, n = len(lam), grads.gC.shape[0]
        ub = u[data.grid.block_index()]
        uq = np.einsum("ai,xaj->xij", u, np.einsum("xab,bj->xaj", grads.gC, u))
        uv = ub[:, :, None] * ub[:, None, :]
        glam0 = np.stack([uq[:, j, j] - lam[j] * uv[:, j, j] for j in range(nres)], axis=1)
        gu = np.zeros((n, nres, nres))
        for j in range(nres):
            coef = np.zeros((n, nres))
            for i in range(nres):
                if i != j:
                    coef[:, i] = (uq[:, i, j] - lam[j] * uv[:, i, j]) / (lam[j] - lam[i])
            gu[:, j, :] = coef @ u.T - 0.5 * uv[:, j, j][:, None] * u[:, j]
        assert np.array_equal(grads.glam0, glam0)
        assert np.array_equal(grads.gu, gu)

    def test_gauge_invariance(self, design):
        grid, data, _, grads, _ = design
        flipped = dataclasses.replace(data, u=-data.u)
        g2 = sg.gradient_densities(flipped, MATS)
        assert np.abs(g2.glam0 - grads.glam0).max() < 1e-12
        assert np.abs(g2.glam1 - grads.glam1).max() < 1e-12
        assert np.abs(g2.gu + grads.gu).max() < 1e-12  # g^u flips with u

    def test_degenerate_spectrum_refused(self, design):
        grid, data, _, _, _ = design
        with pytest.warns(UserWarning, match="degenerate"):
            lam, u = cap.eigendecompose(np.eye(2), np.ones(2))
        fake = dataclasses.replace(
            data, C=np.eye(2), areas=np.ones(2), asymmetry=0.0, m=np.ones(2), lam=lam, u=u
        )
        with pytest.raises(sg.DegenerateSpectrumError):
            sg.grad_eigs(fake, np.zeros((grid.n_total, 2, 2)))


class TestReflectionDensity:
    def test_zero_frequency(self, design):
        _, _, model, grads, _ = design
        assert np.abs(sg.grad_reflection(model, grads, 0.0)).max() == 0.0

    def test_dark_single_mode_density_vanishes(self):
        # lam1 = 0 and g^lam1 = 0 leave no reflection sensitivity
        model = rom.RomModel(lam=[2.0], lam1=[0.0], materials=MATS)
        fake = type("G", (), {})()
        fake.glam0 = np.random.default_rng(0).standard_normal((10, 1))
        fake.glam1 = np.zeros((10, 1))
        gr = sg.grad_reflection(model, fake, 0.05)
        assert np.abs(gr).max() == 0.0

    def test_res_density_vanishes_at_perfect_matching(self, design):
        grid, data, _, grads, _ = design
        omega_star = 0.05
        vb2 = omega_star**2 / (0.001 * (data.lam[0] + 1j * omega_star))
        v_b = np.sqrt(vb2)
        v_b = -v_b if v_b.imag > 0 else v_b
        mats = rom.MaterialParams(v_b=complex(v_b), delta=0.001)
        lam_w = rom.lambda_of_omega(mats, omega_star)
        lam1_needed = lam_w.imag / omega_star
        model = rom.RomModel(
            lam=[data.lam[0]], lam1=[lam1_needed], materials=mats
        )
        dens = sg.grad_objective_res(model, grads, [omega_star])
        assert np.abs(dens).max() < 1e-10

    @pytest.mark.parametrize("fixture", ["design", "three_design"])
    def test_objective_densities_match_loops(self, fixture, request):
        # reference: the defining sums, one frequency node or target at a
        # time; the library contracts each eigenvalue density once, which
        # only reorders the sums
        _, _, model, grads, _ = request.getfixturevalue(fixture)
        nodes, weights = rom.band_quadrature(BAND, N_QUAD)
        ref = np.zeros(grads.glam0.shape[0])
        for om, wq in zip(nodes, weights):
            lam_w = rom.lambda_of_omega(model.materials, om)
            den = model.lam - 1j * om * model.lam1 - lam_w
            num = (model.lam - lam_w) * grads.glam1 - model.lam1 * grads.glam0
            gr = -np.sum(2j * om * num / den**2, axis=1)
            r = rom.reflection_rom(model, om)
            ref += wq * np.real(np.conj(r) * gr)
        ref *= 2.0 / (BAND[1] - BAND[0])
        got = sg.grad_objective_ref(model, grads, BAND, N_QUAD)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

        targets = uniform_targets(BAND, 2)
        lam_w = rom.lambda_of_omega(model.materials, targets)
        ref = np.zeros(grads.glam0.shape[0])
        for j, t in enumerate(targets):
            re_l, im_l = lam_w[j].real, lam_w[j].imag
            ref += (model.lam[j] / re_l - 1.0) * grads.glam0[:, j] / re_l
            ref += (t * model.lam1[j] / im_l - 1.0) * t * grads.glam1[:, j] / im_l
        ref *= 2.0 / len(targets)
        got = sg.grad_objective_res(model, grads, targets)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_res_lossless_rejected(self, design):
        _, _, _, grads, _ = design
        model = rom.RomModel(
            lam=[2.0, 5.0], lam1=[0.5, 0.2], materials=rom.MaterialParams(v_b=1.0)
        )
        with pytest.raises(ValueError, match="lossless"):
            sg.grad_objective_res(model, grads, uniform_targets(BAND, 2))


class TestParametricGradient:
    def test_tangential_field_pairs_to_zero(self, design):
        grid, _, _, grads, _ = design
        # synthetic tangential deformation: theta . nu = 0 exactly
        zero = sg.parametric_gradient(grads.glam0, grid, np.zeros((1, grid.n_total)))[0]
        assert np.abs(zero).max() == 0.0

    def test_center_x_equals_per_resonator_translation(self, design):
        grid, _, _, grads, vel = design
        dC = sg.parametric_gradient(grads.gC, grid, vel)
        npp = geo.params_per_shape(2)
        trace_center_x = dC[0].trace() + dC[npp].trace()
        assert abs(trace_center_x) < 1e-8  # summed over resonators -> 0

    def test_finite_difference_battery(self, design, two_res_shapes):
        grid, data, model, grads, vel = design
        targets = uniform_targets(BAND, 2)
        dC = sg.parametric_gradient(grads.gC, grid, vel)
        dm = sg.parametric_gradient(grads.gm, grid, vel)
        dlam = sg.parametric_gradient(grads.glam0, grid, vel)
        dlam1 = sg.parametric_gradient(grads.glam1, grid, vel)
        dr = sg.parametric_gradient(sg.grad_reflection(model, grads, 0.05), grid, vel)
        dref = sg.parametric_gradient(
            sg.grad_objective_ref(model, grads, BAND, N_QUAD), grid, vel
        )
        dres = sg.parametric_gradient(sg.grad_objective_res(model, grads, targets), grid, vel)

        p0 = geo.shapes_to_params(two_res_shapes)
        h = 1e-5
        rng = np.random.default_rng(2)
        for ip in rng.choice(len(p0), size=5, replace=False):
            pp, pm = p0.copy(), p0.copy()
            pp[ip] += h
            pm[ip] -= h
            dp, modp = rebuild(pp)
            dmn, modm = rebuild(pm)
            checks = [
                (dC[ip], (dp.C - dmn.C) / (2 * h)),
                (dm[ip], (dp.m - dmn.m) / (2 * h)),
                (dlam[ip], (dp.lam - dmn.lam) / (2 * h)),
                (dlam1[ip], (modp.lam1 - modm.lam1) / (2 * h)),
                (
                    dr[ip],
                    (rom.reflection_rom(modp, 0.05) - rom.reflection_rom(modm, 0.05)) / (2 * h),
                ),
                (
                    dref[ip],
                    (objective_ref(modp, BAND, N_QUAD) - objective_ref(modm, BAND, N_QUAD))
                    / (2 * h),
                ),
                (
                    dres[ip],
                    (objective_res(modp, targets) - objective_res(modm, targets)) / (2 * h),
                ),
            ]
            for an, fd in checks:
                an, fd = np.atleast_1d(an), np.atleast_1d(fd)
                scale = max(np.abs(fd).max(), 1e-10)
                assert np.abs(an - fd).max() / scale < 1e-4
