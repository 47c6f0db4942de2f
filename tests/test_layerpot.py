import numpy as np
import pytest

from conftest import trig_upsample
from metascreen import geometry as geo, greens, layerpot as lp

L = 20.0
KB = 0.1 / (1 - 0.05j)


@pytest.fixture(scope="module")
def circle_grid(circle_half):
    return geo.discretize([circle_half], 64, L)


@pytest.fixture(scope="module")
def circle_ctx(circle_grid):
    return lp.AssemblyContext(circle_grid)


def smooth_density(grid):
    return np.cos(grid.t) + 0.3 * np.sin(2 * grid.t) + 0.7


class TestKressWeights:
    def test_fourier_identity(self):
        # int ln(4 sin^2((t-s)/2)) cos(m s) ds = -(2 pi / m) cos(m t)
        n = 64
        R = lp.kress_log_weights(n)
        t = 2 * np.pi * np.arange(n) / n
        for m in (1, 5, 17, 31):
            assert np.abs(R @ np.cos(m * t) + (2 * np.pi / m) * np.cos(m * t)).max() < 1e-13
        assert np.abs(R @ np.ones(n)).max() < 1e-13

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            lp.kress_log_weights(33)


class TestSingleLayerLaplace:
    def test_round_trip_constant(self, circle_grid, circle_ctx):
        S = lp.assemble_single_layer(circle_grid, context=circle_ctx)
        psi = lp.solve_density(S, np.ones(circle_grid.n_total))
        assert np.abs(S.matrix @ psi - 1.0).max() < 1e-10

    def test_self_convergence(self, circle_half):
        # spectral convergence: doubling the node count changes values <= 1e-10
        vals = {}
        for n in (64, 128):
            grid = geo.discretize([circle_half], n, L)
            S = lp.assemble_single_layer(grid)
            dens = smooth_density(grid)
            vals[n] = (S.matrix @ dens)[:: n // 64]
        assert np.abs(vals[64] - vals[128]).max() < 1e-10

    def test_spectral_convergence_tripling(self, circle_half):
        vals = {}
        for n in (32, 96):
            grid = geo.discretize([circle_half], n, L)
            S = lp.assemble_single_layer(grid)
            dens = smooth_density(grid)
            vals[n] = (S.matrix @ dens)[:: n // 32]
        assert np.abs(vals[32] - vals[96]).max() < 1e-10

    def test_mirror_symmetry(self, circle_grid, circle_ctx):
        # circle centered on x_l = 0: the lateral reflection x_l -> -x_l is a
        # symmetry of the half-space cell and permutes nodes by t -> pi - t
        S = lp.assemble_single_layer(circle_grid, context=circle_ctx).matrix
        n = circle_grid.n_pts
        perm = (n // 2 - np.arange(n)) % n
        assert np.abs(S[np.ix_(perm, perm)] - S).max() < 1e-13

    def test_oracle_row(self, circle_half):
        # independent row oracle: split off the log factor analytically,
        # integrate the smooth remainder with a fine trapezoid and the log
        # part exactly through the Fourier coefficients of the density
        grid = geo.discretize([circle_half], 32, L)
        S = lp.assemble_single_layer(grid)
        i = 5
        dens = lambda s: np.cos(s) + 0.3 * np.sin(2 * s) + 1.5
        nf = 16384
        s = 2 * np.pi * np.arange(nf) / nf
        xs, _, sp, _, _ = geo.boundary_frame(circle_half, s)
        xi = grid.nodes[i]
        gl = dens(s) * sp
        dd = grid.t[i] - s
        near = np.abs(np.sin(dd / 2)) < 1e-14
        gsv = np.zeros(nf)
        gsv[~near] = greens._closed_laplace(
            xi[0] - xs[~near, 0], xi[1] - xs[~near, 1], L
        ) - greens._closed_laplace(xi[0] - xs[~near, 0], xi[1] + xs[~near, 1], L)
        lnsin = np.zeros(nf)
        lnsin[~near] = np.log(4 * np.sin(dd[~near] / 2) ** 2)
        smooth = gsv - lnsin / (4 * np.pi)
        _, _, spi, _, _ = geo.boundary_frame(circle_half, np.array([grid.t[i]]))
        smooth[near] = np.log(np.pi * spi[0] / L) / (2 * np.pi) - greens._closed_laplace(
            0.0, 2 * xi[1], L
        )
        part1 = (2 * np.pi / nf) * np.sum(smooth * gl)
        coeffs = np.fft.rfft(gl) / nf
        part2 = sum(
            -(2 * np.pi / m) * 2 * np.real(coeffs[m] * np.exp(1j * m * grid.t[i])) / (4 * np.pi)
            for m in range(1, 2000)
        )
        mine = (S.matrix @ dens(grid.t))[i]
        assert abs(mine - (part1 + part2)) < 1e-10


class TestAdjointDoubleLayer:
    def test_row_sum_identity(self, circle_grid, circle_ctx):
        # integral of (-1/2 I + K*)[psi] over each boundary vanishes
        K = lp.assemble_adjoint_double_layer(circle_grid, context=circle_ctx)
        rng = np.random.default_rng(0)
        psi = rng.standard_normal(circle_grid.n_total)
        val = -0.5 * psi + K.matrix @ psi
        assert abs(np.sum(val * circle_grid.weights)) < 1e-10

    def test_row_sum_identity_two_resonators(self, two_res_shapes):
        grid = geo.discretize(two_res_shapes, 48, L)
        K = lp.assemble_adjoint_double_layer(grid)
        rng = np.random.default_rng(1)
        psi = rng.standard_normal(grid.n_total)
        val = -0.5 * psi + K.matrix @ psi
        for j in range(2):
            b = grid.block(j)
            assert abs(np.sum(val[b] * grid.weights[b])) < 1e-10

    def test_free_space_curvature_diagonal(self, circle_half):
        # the direct-kernel limit along the boundary is kappa/(4 pi) = 1/(4 pi a0);
        # checked by linear extrapolation of the closed-form kernel
        t0 = 0.7
        vals = []
        for eps in (2e-3, 1e-3):
            x1 = geo.parametrize(circle_half, t0)
            x2 = geo.parametrize(circle_half, t0 - eps)
            _, _, _, nu, _ = geo.boundary_frame(circle_half, np.array([t0]))
            g = greens._closed_laplace_grad(x1[0] - x2[0], x1[1] - x2[1], L)
            vals.append(float(g[0] * nu[0, 0] + g[1] * nu[0, 1]))
        extrap = 2 * vals[1] - vals[0]
        assert abs(extrap - 1.0 / (4 * np.pi * 0.5)) < 1e-6

    def test_green_identity_interior(self, circle_grid, circle_ctx):
        # oint (-1/2 + K*)[psi] g = oint S[psi] dg/dnu for harmonic g
        S = lp.assemble_single_layer(circle_grid, context=circle_ctx)
        K = lp.assemble_adjoint_double_layer(circle_grid, context=circle_ctx)
        dens = smooth_density(circle_grid)
        u = S.matrix @ dens
        dn = -0.5 * dens + K.matrix @ dens
        w = circle_grid.weights
        g = circle_grid.nodes[:, 0] * circle_grid.nodes[:, 1]
        dg = np.stack([circle_grid.nodes[:, 1], circle_grid.nodes[:, 0]], axis=-1)
        lhs = np.sum(dn * g * w)
        rhs = np.sum(u * np.einsum("ki,ki->k", dg, circle_grid.normals) * w)
        assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("kernel", ["laplace", 0.1, KB])
    def test_jump_relation_oracle(self, circle_half, kernel):
        # K*[psi] equals the Richardson-extrapolated central difference of the
        # single-layer potential straddling the boundary
        grid = geo.discretize([circle_half], 64, L)
        ctx = lp.AssemblyContext(grid)
        S = lp.assemble_single_layer(grid, kernel, context=ctx)
        K = lp.assemble_adjoint_double_layer(grid, kernel, context=ctx)
        dens = smooth_density(grid)
        fine = geo.discretize([circle_half], 8192, L)
        df = trig_upsample(dens, 8192)

        def straddle(delta):
            xp = grid.nodes + delta * grid.normals
            xm = grid.nodes - delta * grid.normals
            pp = lp.evaluate_single_layer(fine, df, xp, kernel=kernel)
            pm = lp.evaluate_single_layer(fine, df, xm, kernel=kernel)
            return (pp - pm) / (2 * delta)

        g1 = straddle(1e-3)
        g2 = straddle(2e-3)
        target = K.matrix @ dens
        err = np.abs(2 * g1 - g2 - target).max() / np.abs(target).max()
        assert err < 1e-5

    def test_jump_difference_gives_density(self, circle_half):
        # one-sided normal derivatives of S[psi] differ by the density itself
        grid = geo.discretize([circle_half], 64, L)
        ctx = lp.AssemblyContext(grid)
        S = lp.assemble_single_layer(grid, KB, context=ctx)
        dens = smooth_density(grid)
        p_on = S.matrix @ dens
        fine = geo.discretize([circle_half], 8192, L)
        df = trig_upsample(dens, 8192)

        def jump_estimate(delta):
            xp = grid.nodes + delta * grid.normals
            xm = grid.nodes - delta * grid.normals
            pp = lp.evaluate_single_layer(fine, df, xp, kernel=KB)
            pm = lp.evaluate_single_layer(fine, df, xm, kernel=KB)
            return (pp + pm - 2 * p_on) / delta

        jump = 2 * jump_estimate(1e-3) - jump_estimate(2e-3)  # Richardson
        assert np.abs(jump - dens).max() / np.abs(dens).max() < 1e-5


class TestHelmholtzOperators:
    def test_green_identity(self, circle_grid, circle_ctx):
        # oint (-1/2 + K*)[psi] g = oint S[psi] dg/dnu for g = exp(i k x_d)
        for k in (0.1, KB):
            S = lp.assemble_single_layer(circle_grid, k, context=circle_ctx)
            K = lp.assemble_adjoint_double_layer(circle_grid, k, context=circle_ctx)
            dens = smooth_density(circle_grid)
            g = np.exp(1j * k * circle_grid.nodes[:, 1])
            dg = 1j * k * g * circle_grid.normals[:, 1]
            w = circle_grid.weights
            lhs = np.sum((-0.5 * dens + K.matrix @ dens) * g * w)
            rhs = np.sum((S.matrix @ dens) * dg * w)
            assert abs(lhs - rhs) < 1e-12

    def test_self_convergence(self, circle_half):
        vals = {}
        for n in (64, 128):
            grid = geo.discretize([circle_half], n, L)
            S = lp.assemble_single_layer(grid, KB)
            dens = smooth_density(grid)
            vals[n] = (S.matrix @ dens)[:: n // 64]
        assert np.abs(vals[64] - vals[128]).max() < 1e-10

    def test_multi_mode_rejected(self, circle_grid):
        with pytest.raises(ValueError, match="multiple propagating"):
            lp.assemble_single_layer(circle_grid, 0.5)


class TestSolveDensity:
    def test_identity(self):
        op = lp.DenseOperator(np.eye(8), "single_layer", None, "x")
        rhs = np.arange(8.0)
        assert np.array_equal(lp.solve_density(op, rhs), rhs)

    def test_capacitance_cross_check(self, circle_grid, circle_ctx):
        # the density solving S[psi] = 1 integrates to -Cap(D)
        from metascreen import capacitance as cap

        S = lp.assemble_single_layer(circle_grid, context=circle_ctx)
        psi = lp.solve_density(S, np.ones(circle_grid.n_total))
        data = cap.compute_capacitance(circle_grid, context=circle_ctx)
        assert abs(-np.sum(psi * circle_grid.weights) - data.C[0, 0]) < 1e-12

    def test_block_permutation(self, two_res_shapes):
        gab = geo.discretize(two_res_shapes, 32, L)
        gba = geo.discretize(two_res_shapes[::-1], 32, L)
        Sab = lp.assemble_single_layer(gab)
        Sba = lp.assemble_single_layer(gba)
        rhs = np.zeros(gab.n_total)
        rhs[gab.block(0)] = 1.0
        rhs_swapped = np.zeros(gab.n_total)
        rhs_swapped[gba.block(1)] = 1.0
        xa = lp.solve_density(Sab, rhs)
        xb = lp.solve_density(Sba, rhs_swapped)
        assert np.abs(xa[gab.block(0)] - xb[gba.block(1)]).max() < 1e-12
        assert np.abs(xa[gab.block(1)] - xb[gba.block(0)]).max() < 1e-12

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_residual_guard_per_column(self):
        # an ill-conditioned S: the column along the smallest singular
        # direction leaves a residual of ~1e-4 of its own size; stacked next
        # to a column 1e10 times larger it must still be checked on its own
        n = 20
        rng = np.random.default_rng(4)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        op = lp.DenseOperator((u * np.logspace(0, -13, n)) @ v.T, "single_layer", None, "x")
        big, weak = 1e10 * u[:, 0], u[:, -1]
        lp.solve_density(op, big)
        with pytest.raises(lp.SingularOperatorError):
            lp.solve_density(op, weak)
        with pytest.raises(lp.SingularOperatorError):
            lp.solve_density(op, np.column_stack([big, weak]))

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_rejected(self):
        op = lp.DenseOperator(np.zeros((4, 4)), "single_layer", None, "x")
        with pytest.raises(lp.SingularOperatorError):
            lp.solve_density(op, np.ones(4))

    def test_nonfinite_matrix_rejected(self):
        mat = np.eye(3)
        mat[0, 0] = np.nan
        with pytest.raises(ValueError):
            lp.DenseOperator(mat, "single_layer", None, "x")


class TestLazyHelmholtzCache:
    def test_laplace_operators_skip_helmholtz_cache(self, circle_grid, no_helmholtz_cache):
        ctx = lp.AssemblyContext(circle_grid)
        lp.assemble_single_layer(circle_grid, context=ctx)
        K = lp.assemble_adjoint_double_layer(circle_grid, context=ctx)
        assert K.k is None

    def test_helmholtz_operators_independent_of_laplace_work(self, two_res_shapes):
        from metascreen import capacitance as cap

        grid = geo.discretize(two_res_shapes, 32, L)
        used = lp.AssemblyContext(grid)
        cap.capacitance_pipeline(grid, context=used)
        used.adjoint_double_layer_laplace()
        fresh = lp.AssemblyContext(grid)
        for k in (0.1, KB):
            assert np.array_equal(
                used.single_layer_helmholtz(k).matrix, fresh.single_layer_helmholtz(k).matrix
            )
            assert np.array_equal(
                used.adjoint_double_layer_helmholtz(k).matrix,
                fresh.adjoint_double_layer_helmholtz(k).matrix,
            )


class TestOperatorDump:
    def test_round_trip(self, circle_grid, circle_ctx, tmp_path):
        op = lp.assemble_single_layer(circle_grid, KB, context=circle_ctx)
        path = tmp_path / "op.bin"
        lp.dump_operator(op, path)
        back = lp.load_operator(path)
        assert np.array_equal(back, op.matrix)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError):
            lp.load_operator(path)
