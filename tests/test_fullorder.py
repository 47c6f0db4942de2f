from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from metascreen import capacitance as cap, fullorder as fo, geometry as geo, layerpot as lp, rom

L = 20.0
MATS = rom.MaterialParams()
MATS_LOSSLESS = rom.MaterialParams(v_b=1.0)


@pytest.fixture(scope="module")
def circle_setup(circle_half):
    grid = geo.discretize([circle_half], 96, L)
    ctx = lp.AssemblyContext(grid)
    return grid, ctx


class TestIncidentTrace:
    def test_wall_trace(self, circle_setup):
        grid, _ = circle_setup
        u, _ = fo.incident_trace(grid, 0.05, MATS)
        # synthesize a wall point through the formula directly
        assert abs(-2j * np.sin(0.05 * MATS.tau_m * 0.0)) == 0.0
        assert np.allclose(u, -2j * np.sin(0.05 * grid.nodes[:, 1]))

    def test_low_frequency_limit(self, circle_setup):
        grid, _ = circle_setup
        u1, _ = fo.incident_trace(grid, 1e-6, MATS)
        ratio = u1 / 1e-6
        assert np.abs(ratio - (-2j * MATS.tau_m * grid.nodes[:, 1])).max() < 1e-9

    def test_normal_derivative_value(self):
        # k_m = 0.1, x_d = 1, nu = (0, 1): du/dnu = -2i * 0.1 * cos(0.1)
        grid = geo.discretize([geo.ShapeParams((0.0, 1.5), 0.5)], 16, L)
        _, dudn = fo.incident_trace(grid, 0.1, MATS)
        node = 12  # t = 3 pi / 2 sits at (0, 1), normal (0, -1)
        assert np.allclose(grid.nodes[node], [0.0, 1.0])
        expect = -2j * 0.1 * np.cos(0.1) * grid.normals[node, 1]
        assert abs(dudn[node] - expect) < 1e-14
        assert abs(abs(dudn[node].imag) - 0.1990008) < 1e-7

    def test_oblique_rejected(self, circle_setup):
        grid, _ = circle_setup
        with pytest.raises(ValueError, match="oblique"):
            fo.incident_trace(grid, 0.05, rom.MaterialParams(theta_d=0.5))


class TestSolveScattering:
    def test_residual(self, circle_setup, monkeypatch):
        # the scattering solve is solve_density at its own tolerance, 1e-9: a
        # relative residual of 5e-10 passes it, where the default 1e-10 refuses it
        grid, ctx = circle_setup
        exact = fo.solve_scattering(grid, 0.05, MATS, context=ctx)
        solve = np.linalg.solve
        systems = []

        def perturbed(scale):
            def fake(a, b):
                systems.append((a, b))
                return solve(a, b) * scale

            return fake

        monkeypatch.setattr(np.linalg, "solve", perturbed(1 + 5e-10))
        sol = fo.solve_scattering(grid, 0.05, MATS, context=ctx)
        assert np.allclose(sol.phi_ext, exact.phi_ext, rtol=1e-8, atol=0)
        with pytest.raises(lp.SingularOperatorError, match=r"exceeds 1\.0e-10"):
            lp.solve_density(*systems[-1])
        monkeypatch.setattr(np.linalg, "solve", perturbed(1 + 5e-9))
        with pytest.raises(lp.SingularOperatorError, match=r"exceeds 1\.0e-09"):
            fo.solve_scattering(grid, 0.05, MATS, context=ctx)

    def test_lossless_energy_conservation(self, circle_setup):
        grid, ctx = circle_setup
        for om in (0.02, 0.05, 0.0776, 0.095):
            sol = fo.solve_scattering(grid, om, MATS_LOSSLESS, context=ctx)
            assert abs(abs(sol.r) - 1.0) < 1e-6

    def test_small_contrast_limit(self, circle_setup):
        # delta -> 0: phi_ext -> -S_m^{-1}[u_tilde], so r approaches the
        # reflection of that limiting density (bare wall plus the O(omega)
        # non-resonant correction), with the gap shrinking like delta
        grid, ctx = circle_setup
        om = 0.05
        mats = rom.MaterialParams(v_b=1.0 - 0.05j, delta=1e-6)
        sol = fo.solve_scattering(grid, om, mats, context=ctx)
        S_m = ctx.single_layer_helmholtz(om / mats.v_m)
        u, _ = fo.incident_trace(grid, om, mats)
        limit = -lp.solve_density(S_m, u)
        r_lim = fo._reflection_from_density(grid, om, mats, limit)
        assert np.abs(sol.phi_ext - limit).max() / np.abs(limit).max() < 3e-3
        assert abs(sol.r - r_lim) < 1e-4
        assert abs(r_lim + 1.0) < 0.05  # bare Dirichlet wall to leading order
        coarse = fo.solve_scattering(
            grid, om, rom.MaterialParams(v_b=1.0 - 0.05j, delta=1e-4), context=ctx
        )
        assert abs(sol.r - r_lim) < 0.05 * abs(coarse.r - r_lim)  # O(delta) decay

    def test_nonfinite_solve_rejected(self, circle_setup, monkeypatch):
        # NaN > tol is False: solve_density refuses a non-finite solution outright
        grid, ctx = circle_setup
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
        with pytest.raises(lp.SingularOperatorError, match="dense solve produced non-finite values"):
            fo.solve_scattering(grid, 0.05, MATS, context=ctx)

    def test_multi_mode_rejected(self, circle_setup):
        grid, ctx = circle_setup
        with pytest.raises(ValueError):
            fo.solve_scattering(grid, 0.4, MATS, context=ctx)

    def test_convergence_in_nodes(self, circle_half):
        rs = []
        for n in (64, 128):
            grid = geo.discretize([circle_half], n, L)
            rs.append(fo.solve_scattering(grid, 0.07, MATS).r)
        assert abs(rs[0] - rs[1]) < 1e-7


class TestInvariance:
    # the physics fixes r under a common lateral shift of every resonator and
    # under relabelling them; both reorder the assembled pair sums
    OMEGA = 0.06

    @pytest.fixture(scope="class")
    def r_ref(self, two_res_shapes):
        return fo.solve_scattering(geo.discretize(two_res_shapes, 32, L), self.OMEGA, MATS).r

    @pytest.mark.parametrize("shift", [1.7, -3.3])
    def test_lateral_shift(self, two_res_shapes, r_ref, shift):
        moved = [replace(p, center=(p.center[0] + shift, p.center[1])) for p in two_res_shapes]
        r = fo.solve_scattering(geo.discretize(moved, 32, L), self.OMEGA, MATS).r
        assert abs(r - r_ref) < 1e-10

    def test_resonator_order(self, two_res_shapes, r_ref):
        grid = geo.discretize(two_res_shapes[::-1], 32, L)
        assert abs(fo.solve_scattering(grid, self.OMEGA, MATS).r - r_ref) < 1e-10


class TestReflectionExact:
    def test_zero_density_gives_bare_wall(self, circle_setup):
        grid, _ = circle_setup
        phi_ext = np.zeros(grid.n_total, complex)
        assert fo._reflection_from_density(grid, 0.05, MATS, phi_ext) == -1.0

    def test_far_field_probe_oracle(self, circle_setup):
        # independent route: read r off the total field high above the
        # structure, where only u^i + r e^{i k x_d} survives
        grid, ctx = circle_setup
        om = 0.06
        sol = fo.solve_scattering(grid, om, MATS, context=ctx)
        x = np.array([2.0, 3 * L])
        u = fo.total_field(sol, grid, x, MATS)
        k = om / MATS.v_m
        r_probe = (u - np.exp(-1j * k * x[1])) / np.exp(1j * k * x[1])
        assert abs(r_probe - sol.r) < 1e-7


@pytest.fixture(scope="module")
def solved(circle_setup):
    grid, ctx = circle_setup
    return grid, fo.solve_scattering(grid, 0.0776, MATS, context=ctx)


class TestTotalField:

    def test_wall_trace(self, solved):
        grid, sol = solved
        u = fo.total_field(sol, grid, np.array([2.5, 0.0]), MATS)
        assert abs(u) < 1e-8

    def test_evanescent_decay_at_height(self, solved):
        grid, sol = solved
        om = sol.omega
        x = np.array([1.3, 3 * L])
        u = fo.total_field(sol, grid, x, MATS)
        u_i = np.exp(-1j * om * x[1])
        u_p = sol.r * np.exp(1j * om * x[1])
        assert abs(u - (u_i + u_p)) / abs(u_p) < 1e-6

    def test_interior_amplification_at_resonance(self, circle_setup):
        # lossless resonance: the interior field dwarfs the local driving
        # trace u_tilde (the incident-plus-bare-wall field at that height)
        grid, ctx = circle_setup
        om = 0.0776
        sol = fo.solve_scattering(grid, om, MATS_LOSSLESS, context=ctx)
        x = np.array([0.0, 1.0])
        u = fo.total_field(sol, grid, x, MATS_LOSSLESS)
        drive = abs(-2j * np.sin(om * MATS_LOSSLESS.tau_m * x[1]))
        assert abs(u) / drive > 10.0

    def test_on_boundary_rejected(self, solved):
        grid, sol = solved
        with pytest.raises(ValueError, match="boundary"):
            fo.total_field(sol, grid, grid.nodes[3], MATS)

    def test_transmission_continuity(self, circle_half, solved):
        # the trace jump across the boundary vanishes (extrapolated to 0)
        from conftest import trig_upsample

        grid, sol = solved
        fine = geo.discretize([circle_half], 4096, L)
        phi_f = trig_upsample(sol.phi, 4096)
        ext_f = trig_upsample(sol.phi_ext, 4096)
        om = sol.omega
        kb = om / MATS.v_b
        km = om / MATS.v_m
        pick = slice(0, grid.n_total, 8)

        def outer(delta):
            x = grid.nodes[pick] + delta * grid.normals[pick]
            ut = -2j * np.sin(om * MATS.tau_m * x[:, 1])
            return lp.evaluate_single_layer(fine, ext_f, x, k=km) + ut

        def inner(delta):
            x = grid.nodes[pick] - delta * grid.normals[pick]
            return lp.evaluate_single_layer(fine, phi_f, x, k=kb)

        # normal derivatives jump across the interface, so each side is
        # extrapolated to the boundary (3-point Richardson) before comparing
        def to_boundary(f, d0):
            return (8.0 * f(d0) - 6.0 * f(2 * d0) + f(4 * d0)) / 3.0

        trace_out = to_boundary(outer, 2.5e-3)
        trace_in = to_boundary(inner, 2.5e-3)
        scale = np.abs(trace_in).max()
        assert np.abs(trace_out - trace_in).max() / scale < 1e-4


class TestAgainstRom:
    def test_single_circle_band_sample(self, circle_setup):
        grid, ctx = circle_setup
        data = cap.capacitance_pipeline(grid, context=ctx)
        model = rom.build_rom(data, MATS)
        for om in (0.03, 0.0776, 0.095):
            r_ex = fo.solve_scattering(grid, om, MATS, context=ctx).r
            r_ro = rom.reflection_rom(model, om)
            assert abs(r_ex - r_ro) < 0.15


class TestSweep:
    # |r_sweep - r_direct| allowed where the rational fit gives r: the
    # certificate's own bound (the perfbench reference check is 1e-9)
    TOL = fo.SWEEP_TOL

    @pytest.mark.parametrize(
        "preset", ["sweep_single", "sweep_three", "sweep_nine"], ids=["single", "three", "nine"]
    )
    def test_matches_direct_sweep(self, request, preset):
        direct = request.getfixturevalue(preset)  # the acceptance presets' direct sweeps
        grid, omegas, r_direct = direct["grid"], direct["omegas"], direct["r_exact"]
        out = fo.sweep(grid, omegas, MATS, lp.AssemblyContext(grid))
        assert out.check is not None and max(out.check, out.spread) <= fo.SWEEP_TOL
        assert out.solved.sum() <= len(omegas) // 2
        assert np.array_equal(out.r[out.solved], r_direct[out.solved])  # bit for bit
        assert np.abs(out.r - r_direct).max() <= self.TOL

    def test_clustered_in_band_poles(self, monkeypatch):
        # a graded row: nine circles at height 3, x = -8..8, a0 geometric from
        # 1.0 down to 0.15, has six of its ROM resonances in the band (Re omega
        # 0.026 to 0.098); at 48 nodes a direct solve costs what one of the nine
        # preset's does.  The sweep's own solves are the direct values at the
        # samples it solved.
        shapes = tuple(geo.ShapeParams((-8.0 + 2 * i, 3.0), 0.15 ** (i / 8)) for i in range(9))
        grid = geo.discretize(shapes, 48, L)
        ctx = lp.AssemblyContext(grid)
        omegas = np.linspace(0.01, 0.1, 100)[::2]
        direct = fo.solve_scattering
        solves = {}

        def recorded(grid, om, mats, context=None):
            sol = direct(grid, om, mats, context=context)
            solves[om] = sol.r
            return sol

        monkeypatch.setattr(fo, "solve_scattering", recorded)
        out = fo.sweep(grid, omegas, MATS, ctx)
        assert out.check is not None and len(solves) == out.solved.sum() < len(omegas)
        assert np.array_equal(out.r[out.solved], [solves[om] for om in omegas[out.solved]])
        r_fit = [direct(grid, om, MATS, context=ctx).r for om in omegas[~out.solved]]
        assert np.abs(out.r[~out.solved] - r_fit).max() <= self.TOL

    @pytest.mark.parametrize(
        "omegas, reason",
        [
            (np.linspace(0.01, 0.1, 6), "too few to fit (at most 8)"),  # sweep-nine's sample count
            (np.full(12, 0.05), "repeated frequencies"),  # a library caller may pass them
        ],
        ids=["few", "repeated"],
    )
    def test_unfittable_samples_are_the_direct_loop(self, circle_setup, omegas, reason):
        grid, ctx = circle_setup
        out = fo.sweep(grid, omegas, MATS, ctx)
        direct = [fo.solve_scattering(grid, om, MATS, context=ctx).r for om in omegas]
        assert out.solved.all() and out.check is None
        assert np.array_equal(out.r, direct)
        assert out.describe() == f"{len(omegas)} of {len(omegas)} frequencies solved: {reason}"

    def test_noise_falls_back_to_every_sample(self, circle_setup, monkeypatch):
        grid, ctx = circle_setup
        omegas = np.linspace(0.01, 0.1, 24)
        rng = np.random.default_rng(5)
        noise = dict(zip(omegas, 0.5 * (rng.standard_normal(24) + 1j * rng.standard_normal(24))))
        monkeypatch.setattr(
            fo, "solve_scattering", lambda grid, om, mats, context=None: SimpleNamespace(r=noise[om])
        )
        out = fo.sweep(grid, omegas, MATS, ctx)
        direct = [fo.solve_scattering(grid, om, MATS, context=ctx).r for om in omegas]
        assert out.solved.all() and out.check is None
        assert np.array_equal(out.r, direct)
        assert out.describe() == "24 of 24 frequencies solved: the rational fit did not certify to 3e-11"
