import numpy as np
import pytest
from scipy import linalg as sla

from metascreen import capacitance as cap, cli, geometry as geo, layerpot, optimizer as opt, rom

L = 20.0


@pytest.fixture(scope="module")
def single_data(circle_half):
    grid = geo.discretize([circle_half], 128, L)
    return cap.capacitance_pipeline(grid)


@pytest.fixture(scope="module")
def mirrored_pair_data():
    shapes = [geo.ShapeParams((-2.0, 1.0), 0.5), geo.ShapeParams((2.0, 1.0), 0.5)]
    grid = geo.discretize(shapes, 64, L)
    return cap.capacitance_pipeline(grid)


class TestComputeCapacitance:
    def test_mirror_pair_symmetries(self, mirrored_pair_data):
        C = mirrored_pair_data.C
        assert abs(C[0, 0] - C[1, 1]) < 1e-10
        assert abs(C[0, 1] - C[1, 0]) < 1e-10

    def test_lattice_translation_invariance(self):
        base = [geo.ShapeParams((-2.0, 1.0), 0.5), geo.ShapeParams((2.0, 1.0), 0.5)]
        moved = [
            geo.ShapeParams((-2.0 + 3.0, 1.0), 0.5),
            geo.ShapeParams((2.0 + 3.0, 1.0), 0.5),
        ]
        g1, g2 = geo.discretize(base, 64, L), geo.discretize(moved, 64, L)
        c1 = cap.compute_capacitance(g1, layerpot.AssemblyContext(g1))[0]
        c2 = cap.compute_capacitance(g2, layerpot.AssemblyContext(g2))[0]
        assert np.abs(c1 - c2).max() < 1e-10

    def test_symmetry_defect(self, single_data, mirrored_pair_data):
        assert single_data.asymmetry < 1e-8
        assert mirrored_pair_data.asymmetry < 1e-8

    def test_self_convergence(self, circle_half, single_data):
        grid = geo.discretize([circle_half], 256, L)
        fine = cap.compute_capacitance(grid, layerpot.AssemblyContext(grid))[0]
        rel = abs(single_data.C[0, 0] - fine[0, 0]) / abs(fine[0, 0])
        assert rel < 1e-8

    def test_positive_definite(self, mirrored_pair_data):
        assert np.all(np.linalg.eigvalsh(mirrored_pair_data.C) > 0)

    def test_areas_match_geometry(self, mirrored_pair_data):
        assert np.allclose(mirrored_pair_data.areas, np.pi * 0.25, atol=1e-12)


class TestMoments:
    def test_positive_moments(self, single_data, mirrored_pair_data):
        assert np.all(single_data.m > 0)
        assert np.all(mirrored_pair_data.m > 0)

    def test_reciprocity_identity(self, mirrored_pair_data):
        # self-adjointness of S: oint_{dD_i} psi_tilde = -m_i
        d = mirrored_pair_data
        grid = d.grid
        for i in range(d.n_res):
            b = grid.block(i)
            lhs = np.sum(d.psi_tilde[b] * grid.weights[b])
            assert abs(lhs + d.m[i]) < 1e-10


class TestEigendecompose:
    def test_single_mode(self):
        lam, u = cap.eigendecompose(np.array([[2.0]]), np.array([0.5]))
        assert abs(lam[0] - 4.0) < 1e-14
        assert abs(u[0, 0] - np.sqrt(2.0)) < 1e-14

    def test_diagonal_case(self):
        lam, u = cap.eigendecompose(np.diag([1.0, 2.0]), np.ones(2))
        assert np.allclose(lam, [1.0, 2.0])
        assert np.allclose(u, np.eye(2))

    def test_random_spd_against_qz_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        C = a @ a.T + 5 * np.eye(5)
        V = np.diag(rng.uniform(0.5, 2.0, 5))
        lam, u = cap.eigendecompose(C, np.diag(V))
        # independent oracle: generalized nonsymmetric QZ eigenvalues
        ref = np.sort(np.real(sla.eig(C, V, right=False)))
        assert np.abs(lam - ref).max() < 1e-10
        assert np.abs(u.T @ V @ u - np.eye(5)).max() < 1e-10

    def test_sign_convention(self):
        lam, u = cap.eigendecompose(np.array([[2.0]]), np.array([0.5]))
        assert u[0, 0] > 0
        # flipping C's construction cannot produce a negative leading component
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        C = a @ a.T + 4 * np.eye(4)
        _, u = cap.eigendecompose(C, np.ones(4))
        for j in range(4):
            assert u[np.argmax(np.abs(u[:, j])), j] > 0

    def test_nonpositive_volume_rejected(self):
        with pytest.raises(ValueError):
            cap.eigendecompose(np.eye(2), np.array([1.0, -1.0]))

    def test_degenerate_warned(self):
        with pytest.warns(UserWarning, match="degenerate"):
            cap.eigendecompose(np.eye(2), np.ones(2))

    def test_pipeline_orthonormality(self, mirrored_pair_data):
        d = mirrored_pair_data
        gram = d.u.T @ np.diag(d.areas) @ d.u
        assert np.abs(gram - np.eye(d.n_res)).max() < 1e-10
        assert np.all(d.lam > 0)

    def test_eigenvalue_self_convergence(self, circle_half, single_data):
        fine = cap.capacitance_pipeline(geo.discretize([circle_half], 256, L))
        assert abs(single_data.lam[0] - fine.lam[0]) / fine.lam[0] < 1e-8


class TestResonatorOrder:
    """Relabelling the resonators permutes every per-resonator quantity and nothing else."""

    SHAPES = (
        geo.ShapeParams((-3.0, 1.2), 0.6, (0.15, -0.1), (0.05, 0.2)),
        geo.ShapeParams((0.5, 1.0), 0.45, (-0.2, 0.1), (0.1, -0.15)),
        geo.ShapeParams((4.0, 1.6), 0.5, (0.05, 0.1), (-0.1, 0.05)),
    )

    @pytest.mark.parametrize("perm", [(2, 0, 1), (1, 0, 2)])
    def test_permutation(self, perm):
        perm = list(perm)
        a = cap.capacitance_pipeline(geo.discretize(self.SHAPES, 64, L))
        b = cap.capacitance_pipeline(geo.discretize([self.SHAPES[k] for k in perm], 64, L))
        tol = 1e-12
        assert np.abs(b.C - a.C[np.ix_(perm, perm)]).max() < tol
        assert np.abs(b.m - a.m[perm]).max() < tol
        assert np.abs(b.areas - a.areas[perm]).max() < tol
        assert np.abs(b.u - a.u[perm]).max() < tol
        assert np.abs(b.lam - a.lam).max() < tol
        mats = rom.MaterialParams()
        omega = np.linspace(0.01, 0.1, 37)
        ra = rom.reflection_rom(rom.build_rom(a, mats), omega)
        rb = rom.reflection_rom(rom.build_rom(b, mats), omega)
        assert np.abs(rb - ra).max() < tol


class TestLaplaceOnlyPipeline:
    def test_pipeline_skips_helmholtz_cache(self, two_res_shapes, no_helmholtz_cache):
        data = cap.capacitance_pipeline(geo.discretize(two_res_shapes, 32, L))
        assert np.all(np.isfinite(data.psi_tilde)) and np.all(np.isfinite(data.lam))

    def test_optimizer_skips_helmholtz_cache(self, no_helmholtz_cache):
        shapes = geo.grid_layout(1, 1, radius=0.5, spacing=2.0, base_height=1.0, order=2)
        cfg = opt.OptConfig(objective="ref", max_iters=1, n_pts=32)
        state = opt.run(cfg, shapes, rom.MaterialParams(), L)
        assert len(state.history) == 2

    def test_cli_optimize_skips_helmholtz_cache(self, no_helmholtz_cache, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("solver.n_pts = 32\noptimizer.max_iters = 1\n")
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg_file), "--output-dir", str(out), "optimize"]) == 0
        assert (out / "spectrum_best.csv").exists()

    def test_cli_check_grad_skips_helmholtz_cache(self, tmp_path, monkeypatch):
        def forbidden(ctx):
            raise AssertionError("check-grad built the Helmholtz cache")

        monkeypatch.setattr(layerpot.AssemblyContext, "helmholtz_cache", forbidden)
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("solver.n_pts = 32\n")
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg_file), "--output-dir", str(out), "check-grad"]) == 0
        assert (out / "check_grad.csv").exists()

    def test_cli_setup_builds_whole_context(self, tmp_path, monkeypatch):
        built = []
        build = layerpot.AssemblyContext.helmholtz_cache

        def counting(ctx):
            built.append(ctx)
            return build(ctx)

        monkeypatch.setattr(layerpot.AssemblyContext, "helmholtz_cache", counting)
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("solver.n_pts = 32\n")
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg_file), "--output-dir", str(out), "capmat"]) == 0
        assert len(built) == 1

    def test_one_factorization_per_pipeline(self, two_res_shapes, monkeypatch):
        # np.linalg.solve factors its matrix once for all stacked columns
        calls = []
        solve = np.linalg.solve

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting)
        cap.capacitance_pipeline(geo.discretize(two_res_shapes, 32, L))
        assert calls == [(64, 64)]


class TestFarField:
    def test_constant_at_two_periods(self, single_data):
        v = cap.farfield_constant(single_data, 0, 2 * L)
        assert abs(v - single_data.m[0] / L) < 1e-5

    def test_mode_decay_rate(self, single_data):
        # residual shrinks by at least e^{-2 pi} per extra period of height
        r2 = abs(cap.farfield_constant(single_data, 0, 2 * L) - single_data.m[0] / L)
        r3 = abs(cap.farfield_constant(single_data, 0, 3 * L) - single_data.m[0] / L)
        assert r3 <= r2 * np.exp(-2 * np.pi) * 1.5

    def test_lateral_uniformity(self, single_data):
        va = cap.farfield_constant(single_data, 0, 3 * L, probe_lateral=0.0)
        vb = cap.farfield_constant(single_data, 0, 3 * L, probe_lateral=7.3)
        assert abs(va - vb) < 1e-8

    def test_probe_must_be_above(self, single_data):
        with pytest.raises(ValueError):
            cap.farfield_constant(single_data, 0, 0.5)
