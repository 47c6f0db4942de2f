import tracemalloc

import numpy as np
import pytest

from conftest import trig_upsample
from metascreen import capacitance as cap, geometry as geo, greens, layerpot as lp

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

    @pytest.mark.parametrize("n", [32, 48, 64, 128])
    def test_exactly_symmetric(self, n):
        # R depends on |t_i - t_j| only, so R[i, j] and R[j, i] must be the
        # same double, not two roundings of one cos sum
        R = lp.kress_log_weights(n)
        assert np.array_equal(R, R.T)


def bessel_series_15(w):
    """J_0(w) and J_1(w)/w summed over all 15 terms of their power series."""
    z = -(w * w) / 4.0
    t0, j0 = np.ones_like(z), np.ones_like(z)
    t1, j1c = np.full_like(z, 0.5), np.full_like(z, 0.5)
    for m in range(1, 16):
        t0 = t0 * z / (m * m)
        t1 = t1 * z / (m * (m + 1))
        j0 = j0 + t0
        j1c = j1c + t1
    return j0, j1c


class TestBesselSeries:
    @pytest.fixture(scope="class")
    def w(self):
        rng = np.random.default_rng(11)
        w = 2.5 * np.sqrt(rng.random(400)) * np.exp(2j * np.pi * rng.random(400))
        return np.concatenate([w, [2.5, 2.404825557695773, 2.5j, 1e-3 + 1e-4j, 0.0]])

    def test_matches_scipy(self, w):
        # rounding in the sum scales with the sum of the term moduli,
        # I_0(|w|) for J_0 and 2 I_1(|w|)/|w| for J_1/w: 1 at w = 0, 3.3 at |w| = 2.5
        from scipy import special

        w = w[w != 0]
        j0, j1c = lp._bessel_j0_j1c(w)
        a = np.abs(w)
        assert np.all(np.abs(j0 - special.jv(0, w)) <= 1e-15 * special.i0(a))
        assert np.all(np.abs(j1c - special.jv(1, w) / w) <= 1e-15 * 2.0 * special.i1(a) / a)

    def test_zero_argument(self):
        j0, j1c = lp._bessel_j0_j1c(0.0)
        assert j0 == 1.0 and j1c == 0.5

    @pytest.mark.parametrize("kind", ["complex", "near-real", "real", "real-valued complex"])
    def test_early_stop_keeps_full_series_bits(self, w, kind):
        # near-real: the phase of k_b = omega / v_b, where Im J_0 << |J_0|
        w = {
            "complex": w,
            "near-real": np.abs(w) / (1 - 0.05j),
            "real": np.abs(w),
            "real-valued complex": np.abs(w) + 0j,
        }[kind]
        # the largest |w| sets the term count, so each scale is its own call
        for scale in (1.0, 0.1, 0.013):
            for got, ref in zip(lp._bessel_j0_j1c(scale * w), bessel_series_15(scale * w)):
                assert np.array_equal(got, ref)


class TestSingleLayerLaplace:
    def test_round_trip_constant(self, circle_grid, circle_ctx):
        S = circle_ctx.single_layer_laplace()
        psi = lp.solve_density(S, np.ones(circle_grid.n_total))
        assert np.abs(S @ psi - 1.0).max() < 1e-10

    def test_self_convergence(self, circle_half):
        # spectral convergence: doubling the node count changes values <= 1e-10
        vals = {}
        for n in (64, 128):
            grid = geo.discretize([circle_half], n, L)
            S = lp.AssemblyContext(grid).single_layer_laplace()
            dens = smooth_density(grid)
            vals[n] = (S @ dens)[:: n // 64]
        assert np.abs(vals[64] - vals[128]).max() < 1e-10

    def test_spectral_convergence_tripling(self, circle_half):
        vals = {}
        for n in (32, 96):
            grid = geo.discretize([circle_half], n, L)
            S = lp.AssemblyContext(grid).single_layer_laplace()
            dens = smooth_density(grid)
            vals[n] = (S @ dens)[:: n // 32]
        assert np.abs(vals[32] - vals[96]).max() < 1e-10

    def test_mirror_symmetry(self, circle_grid, circle_ctx):
        # circle centered on x_l = 0: the lateral reflection x_l -> -x_l is a
        # symmetry of the half-space cell and permutes nodes by t -> pi - t
        S = circle_ctx.single_layer_laplace()
        n = circle_grid.n_pts
        perm = (n // 2 - np.arange(n)) % n
        assert np.abs(S[np.ix_(perm, perm)] - S).max() < 1e-13

    def test_oracle_row(self, circle_half):
        # independent row oracle: split off the log factor analytically,
        # integrate the smooth remainder with a fine trapezoid and the log
        # part exactly through the Fourier coefficients of the density
        grid = geo.discretize([circle_half], 32, L)
        S = lp.AssemblyContext(grid).single_layer_laplace()
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
        mine = (S @ dens(grid.t))[i]
        assert abs(mine - (part1 + part2)) < 1e-10


class TestAdjointDoubleLayer:
    def test_row_sum_identity(self, circle_grid, circle_ctx):
        # integral of (-1/2 I + K*)[psi] over each boundary vanishes
        K = circle_ctx.adjoint_double_layer_laplace()
        rng = np.random.default_rng(0)
        psi = rng.standard_normal(circle_grid.n_total)
        val = -0.5 * psi + K @ psi
        assert abs(np.sum(val * circle_grid.weights)) < 1e-10

    def test_row_sum_identity_two_resonators(self, two_res_shapes):
        grid = geo.discretize(two_res_shapes, 48, L)
        K = lp.AssemblyContext(grid).adjoint_double_layer_laplace()
        rng = np.random.default_rng(1)
        psi = rng.standard_normal(grid.n_total)
        val = -0.5 * psi + K @ psi
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
            _, *g = greens._closed_laplace(x1[0] - x2[0], x1[1] - x2[1], L, want_grad=True)
            vals.append(float(g[0] * nu[0, 0] + g[1] * nu[0, 1]))
        extrap = 2 * vals[1] - vals[0]
        assert abs(extrap - 1.0 / (4 * np.pi * 0.5)) < 1e-6

    def test_green_identity_interior(self, circle_grid, circle_ctx):
        # oint (-1/2 + K*)[psi] g = oint S[psi] dg/dnu for harmonic g
        S = circle_ctx.single_layer_laplace()
        K = circle_ctx.adjoint_double_layer_laplace()
        dens = smooth_density(circle_grid)
        u = S @ dens
        dn = -0.5 * dens + K @ dens
        w = circle_grid.weights
        g = circle_grid.nodes[:, 0] * circle_grid.nodes[:, 1]
        dg = np.stack([circle_grid.nodes[:, 1], circle_grid.nodes[:, 0]], axis=-1)
        lhs = np.sum(dn * g * w)
        rhs = np.sum(u * np.einsum("ki,ki->k", dg, circle_grid.normals) * w)
        assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("k", [pytest.param(None, id="laplace"), 0.1, KB])
    def test_jump_relation_oracle(self, circle_half, k):
        # K*[psi] equals the Richardson-extrapolated central difference of the
        # single-layer potential straddling the boundary
        grid = geo.discretize([circle_half], 64, L)
        ctx = lp.AssemblyContext(grid)
        if k is None:
            K = ctx.adjoint_double_layer_laplace()
        else:
            K = ctx.adjoint_double_layer_helmholtz(k)
        dens = smooth_density(grid)
        fine = geo.discretize([circle_half], 8192, L)
        df = trig_upsample(dens, 8192)

        def straddle(delta):
            xp = grid.nodes + delta * grid.normals
            xm = grid.nodes - delta * grid.normals
            pp = lp.evaluate_single_layer(fine, df, xp, k=k)
            pm = lp.evaluate_single_layer(fine, df, xm, k=k)
            return (pp - pm) / (2 * delta)

        g1 = straddle(1e-3)
        g2 = straddle(2e-3)
        target = K @ dens
        err = np.abs(2 * g1 - g2 - target).max() / np.abs(target).max()
        assert err < 1e-5

    def test_jump_difference_gives_density(self, circle_half):
        # one-sided normal derivatives of S[psi] differ by the density itself
        grid = geo.discretize([circle_half], 64, L)
        ctx = lp.AssemblyContext(grid)
        S = ctx.single_layer_helmholtz(KB)
        dens = smooth_density(grid)
        p_on = S @ dens
        fine = geo.discretize([circle_half], 8192, L)
        df = trig_upsample(dens, 8192)

        def jump_estimate(delta):
            xp = grid.nodes + delta * grid.normals
            xm = grid.nodes - delta * grid.normals
            pp = lp.evaluate_single_layer(fine, df, xp, k=KB)
            pm = lp.evaluate_single_layer(fine, df, xm, k=KB)
            return (pp + pm - 2 * p_on) / delta

        jump = 2 * jump_estimate(1e-3) - jump_estimate(2e-3)  # Richardson
        assert np.abs(jump - dens).max() / np.abs(dens).max() < 1e-5


class TestHelmholtzOperators:
    def test_green_identity(self, circle_grid, circle_ctx):
        # oint (-1/2 + K*)[psi] g = oint S[psi] dg/dnu for g = exp(i k x_d)
        for k in (0.1, KB):
            S = circle_ctx.single_layer_helmholtz(k)
            K = circle_ctx.adjoint_double_layer_helmholtz(k)
            dens = smooth_density(circle_grid)
            g = np.exp(1j * k * circle_grid.nodes[:, 1])
            dg = 1j * k * g * circle_grid.normals[:, 1]
            w = circle_grid.weights
            lhs = np.sum((-0.5 * dens + K @ dens) * g * w)
            rhs = np.sum((S @ dens) * dg * w)
            assert abs(lhs - rhs) < 1e-12

    def test_self_convergence(self, circle_half):
        vals = {}
        for n in (64, 128):
            grid = geo.discretize([circle_half], n, L)
            S = lp.AssemblyContext(grid).single_layer_helmholtz(KB)
            dens = smooth_density(grid)
            vals[n] = (S @ dens)[:: n // 64]
        assert np.abs(vals[64] - vals[128]).max() < 1e-10

    @pytest.mark.parametrize("k", [0.1, KB])
    def test_off_block_entries_match_point_kernel(self, two_res_shapes, k):
        # blocks coupling different resonators are the plain trapezoid rule on
        # the point kernel, so they must agree with helmholtz_gs(_grad)
        grid = geo.discretize(two_res_shapes, 32, L)
        ctx = lp.AssemblyContext(grid)
        S = ctx.single_layer_helmholtz(k)
        K = ctx.adjoint_double_layer_helmholtz(k)
        wave = greens.WaveParams(k=k)
        cfg = greens.LatticeConfig(L=L)
        for i, j in ((0, 1), (1, 0)):
            bi, bj = grid.block(i), grid.block(j)
            x = grid.nodes[bi][:, None, :]
            y = grid.nodes[bj][None, :, :]
            s_ref = greens.helmholtz_gs(x, y, wave, cfg) * grid.weights[bj]
            g = greens.helmholtz_gs_grad(x, y, wave, cfg)
            k_ref = np.einsum("ijc,ic->ij", g, grid.normals[bi]) * grid.weights[bj]
            assert np.abs(S[bi, bj] - s_ref).max() <= 1e-13 * np.abs(s_ref).max()
            assert np.abs(K[bi, bj] - k_ref).max() <= 1e-13 * np.abs(k_ref).max()

    def test_multi_mode_rejected(self, circle_ctx):
        with pytest.raises(ValueError, match="multiple propagating"):
            circle_ctx.single_layer_helmholtz(0.5)

    @pytest.mark.parametrize("k", [0.31, 0.5])
    @pytest.mark.parametrize("op", ["single_layer_helmholtz", "adjoint_double_layer_helmholtz"])
    def test_single_mode_checked_before_cache(self, circle_grid, no_helmholtz_cache, op, k):
        # 2 pi / L = 0.314: k = 0.31 is within 5 % of the first diffraction
        # cutoff and k = 0.5 lies beyond it; both are refused before any
        # Helmholtz table is built
        ctx = lp.AssemblyContext(circle_grid)
        with pytest.raises(ValueError, match="multiple propagating|diffraction cutoff"):
            getattr(ctx, op)(k)


class TestReciprocity:
    @pytest.fixture(scope="class")
    def two_res_ctx(self, two_res_shapes):
        return lp.AssemblyContext(geo.discretize(two_res_shapes, 32, L))

    @pytest.mark.parametrize("k", [pytest.param(None, id="laplace"), 0.1, KB])
    def test_single_layer_symmetric(self, two_res_ctx, k):
        # G_s(x, y) = G_s(y, x) and the Kress weights are symmetric, so S is
        # symmetric once the speed of the source node is divided out, up to
        # the rounding of that weighting and division (~2e-16 of the largest
        # entry), which the operator 2-norm measures.
        ctx = two_res_ctx
        S = ctx.single_layer_laplace() if k is None else ctx.single_layer_helmholtz(k)
        a = S / ctx.grid.speed[None, :]
        assert np.linalg.norm(a - a.T, 2) <= 1e-15 * np.linalg.norm(a, 2)

    @pytest.mark.parametrize("k", [0.1, KB])
    def test_triangle_bundle_matches_full_tables(self, two_res_ctx, k):
        # the reference runs gper_helmholtz on all n x n node pairs; the
        # triangle bundle scattered with the parity of each table under
        # i <-> j must equal it bit for bit.  Swapping the nodes negates z_l
        # and the direct z_d and keeps the image z_d.
        parity = {"dir": (1, -1, -1), "img": (1, -1, 1)}
        ctx = two_res_ctx
        x = ctx.grid.nodes
        zl = x[:, 0, None] - x[None, :, 0]
        zl -= L * np.round(zl / L)
        seps = {"dir": x[:, 1, None] - x[None, :, 1], "img": x[:, 1, None] + x[None, :, 1]}
        full = {}
        for part, zd in seps.items():
            tables = greens.kummer_tables(zl, zd, L)
            if part == "dir":
                for arr in tables["laplace"]:
                    np.fill_diagonal(arr, 0.0)
            full[part] = greens.gper_helmholtz(k, L, tables, want_grad=True)
        bundle = ctx._kernel_bundle(k)
        upper = lp._triangle(ctx.grid.n_total)[0]
        for part, ref in full.items():
            for tri, p, table in zip(bundle[part], parity[part], ref):
                assert tri.ndim == 1
                scattered = np.empty_like(table)
                scattered.T[upper] = p * tri
                scattered[upper] = tri
                assert np.array_equal(scattered, table)

    def test_bundles_share_keys(self, two_res_ctx):
        ctx = two_res_ctx
        n_res, n_pts = ctx.grid.n_res, ctx.grid.n_pts
        bundle = ctx._kernel_bundle(KB)
        helm = ctx.helmholtz_cache()
        assert set(bundle) == {"dir", "img", "log"} and set(helm) == {"dir", "img", "r", "zdotnu"}
        for part in ("dir", "img"):
            laplace = helm[part]["laplace"]
            assert len(bundle[part]) == len(laplace) == 3
            for table, lap in zip(bundle[part], laplace):
                assert table.shape == lap.shape == (ctx._n_pairs,)
        for a in bundle["log"]:
            assert a.shape == (n_res, n_pts, n_pts)


def _flat_tables(tables, prefix=""):
    """The arrays of a nested dict / list / tuple of tables, keyed by their path."""
    if isinstance(tables, np.ndarray):
        return {prefix: tables}
    items = tables.items() if isinstance(tables, dict) else enumerate(tables)
    out = {}
    for key, value in items:
        out.update(_flat_tables(value, f"{prefix}/{key}" if prefix else str(key)))
    return out


class TestChunkedTables:
    """The kernels are formed and scattered in row chunks of the pair triangle."""

    @pytest.fixture(scope="class")
    def grid(self, two_res_shapes):
        return geo.discretize(two_res_shapes, 32, L)

    @pytest.fixture(scope="class")
    def default_ops(self, grid):
        ctx = lp.AssemblyContext(grid)
        return (
            ctx.single_layer_laplace(),
            ctx.adjoint_double_layer_laplace(),
            ctx.single_layer_helmholtz(KB),
            ctx.adjoint_double_layer_helmholtz(KB),
        )

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("chunk", [1, 37, 10**9])
    def test_row_chunks_tile_the_triangle(self, monkeypatch, n, chunk):
        monkeypatch.setattr(lp, "_CHUNK_PAIRS", chunk)
        i, _ = np.triu_indices(n)
        rows, stop = [], 0
        for i0, i1, pairs in lp._row_chunks(n):
            assert pairs.start == stop and (i1 - i0 == 1 or pairs.stop - pairs.start <= chunk)
            assert np.array_equal(i[pairs], np.repeat(np.arange(i0, i1), n - np.arange(i0, i1)))
            rows.extend(range(i0, i1))
            stop = pairs.stop
        assert rows == list(range(n)) and stop == i.size

    @pytest.mark.parametrize("chunk", [1, 37, 10**9])  # one row per chunk, odd, one chunk
    def test_tables_and_operators_independent_of_chunk(self, monkeypatch, grid, default_ops, chunk):
        monkeypatch.setattr(lp, "_CHUNK_PAIRS", chunk)
        ctx = lp.AssemblyContext(grid)
        i, j = np.triu_indices(grid.n_total)
        x = grid.nodes
        zl = x[i, 0] - x[j, 0]
        zl -= L * np.round(zl / L)
        ref = {part: greens.kummer_tables(zl, zd, L)
               for part, zd in (("dir", x[i, 1] - x[j, 1]), ("img", x[i, 1] + x[j, 1]))}
        for arr in ref["dir"]["laplace"]:
            arr[i == j] = 0.0
        # the Laplace operators read no table; the Helmholtz cache holds the
        # tables of greens.kummer_tables, the one builder, bit for bit
        assert np.array_equal(ctx.single_layer_laplace(), default_ops[0])
        assert np.array_equal(ctx.adjoint_double_layer_laplace(), default_ops[1])
        helm = ctx.helmholtz_cache()
        for part, tables in ref.items():
            got, want = _flat_tables(helm[part]), _flat_tables(tables)
            assert list(got) == list(want) and "laplace/2" in got
            for key, expect in want.items():
                assert got[key].dtype == expect.dtype and np.array_equal(got[key], expect), key
        assert np.array_equal(ctx.single_layer_helmholtz(KB), default_ops[2])
        assert np.array_equal(ctx.adjoint_double_layer_helmholtz(KB), default_ops[3])

    @pytest.mark.parametrize("k", [0.1, KB])
    def test_log_factors_match_full_blocks(self, grid, k):
        # the J_0 / J_1 series run on the block triangles and are mirrored;
        # the reference runs them on every pair of each block
        ctx = lp.AssemblyContext(grid)
        xb = grid.nodes.reshape(grid.n_res, grid.n_pts, 2)
        zl = xb[:, :, None, 0] - xb[:, None, :, 0]
        zl -= L * np.round(zl / L)
        zd = xb[:, :, None, 1] - xb[:, None, :, 1]
        nrm = grid.normals.reshape(grid.n_res, grid.n_pts, 1, 2)
        j0, j1c = lp._bessel_j0_j1c(k * np.hypot(zl, zd))
        np.multiply(lp._INV_4PI, j0, out=j0)
        np.multiply(-(k * k * lp._INV_4PI), j1c, out=j1c)
        j1c *= zl * nrm[..., 0] + zd * nrm[..., 1]
        log_s, log_k = ctx._kernel_bundle(k)["log"]
        assert np.array_equal(log_s, j0) and log_s.dtype == j0.dtype
        assert np.array_equal(log_k, j1c) and log_k.dtype == j1c.dtype


class TestLaplaceMemory:
    """tracemalloc accounting of Laplace-only work on the nine-resonator grid at 64 nodes."""

    # construction scratch: the log quadrature's temporaries, which grow with n_pts only
    QUADRATURE_BYTES = 128 * 1024

    @pytest.fixture(scope="class")
    def grid(self):
        shapes = geo.grid_layout(3, 3, radius=0.35, spacing=1.0, base_height=0.5)
        return geo.discretize(shapes, 64, L)

    def test_context_holds_no_pair_table(self, grid):
        # the shared n x n mask of the stored pairs, the log quadrature of one
        # block and the diagonal positions: no array over the node pairs
        n, n_pts = grid.n_total, grid.n_pts
        lp._triangle.cache_clear()  # the mask is made, and counted, here
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ctx = lp.AssemblyContext(grid)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held -= base
        small = 2 * 8 * n_pts**2 + 8 * n  # lnsin, the Kress weights, the diagonal positions
        assert n * n <= held <= n * n + small + 16 * 1024
        assert peak - base - held <= self.QUADRATURE_BYTES
        arrays = [v for v in vars(ctx).values() if isinstance(v, np.ndarray)]
        assert sum(a.size >= n * n for a in arrays) == 1 and ctx._upper.dtype == bool
        assert all(a.size <= n_pts**2 for a in arrays if a is not ctx._upper)
        assert ctx._helm is None and ctx._bundle is None

    def test_evaluation_peak(self, grid):
        # an optimizer evaluation's Laplace work: the capacitance pipeline (S,
        # its LU copy and the densities) and then K*.  It peaks at most 2.5
        # n x n float arrays above the grid, the context included; six pair
        # tables held in the context would add three more.
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ctx = lp.AssemblyContext(grid)
            cap.capacitance_pipeline(grid, context=ctx)
            kstar = ctx.adjoint_double_layer_laplace()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 2.5 * kstar.nbytes

    @pytest.mark.parametrize("op", ["single_layer_laplace", "adjoint_double_layer_laplace"])
    def test_operator_peak(self, grid, op):
        # each operator peaks at most 2.5 n x n float arrays above the
        # context, its result included
        ctx = lp.AssemblyContext(grid)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mat = getattr(ctx, op)()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mat.dtype == np.float64
        assert peak - base <= 2.5 * mat.nbytes


class TestSolveDensity:
    def test_identity(self):
        rhs = np.arange(8.0)
        assert np.array_equal(lp.solve_density(np.eye(8), rhs), rhs)

    def test_capacitance_cross_check(self, circle_grid, circle_ctx):
        # the density solving S[psi] = 1 integrates to -Cap(D)
        S = circle_ctx.single_layer_laplace()
        psi = lp.solve_density(S, np.ones(circle_grid.n_total))
        C = cap.compute_capacitance(circle_grid, circle_ctx)[0]
        assert abs(-np.sum(psi * circle_grid.weights) - C[0, 0]) < 1e-12

    def test_block_permutation(self, two_res_shapes):
        gab = geo.discretize(two_res_shapes, 32, L)
        gba = geo.discretize(two_res_shapes[::-1], 32, L)
        Sab = lp.AssemblyContext(gab).single_layer_laplace()
        Sba = lp.AssemblyContext(gba).single_layer_laplace()
        rhs = np.zeros(gab.n_total)
        rhs[gab.block(0)] = 1.0
        rhs_swapped = np.zeros(gab.n_total)
        rhs_swapped[gba.block(1)] = 1.0
        xa = lp.solve_density(Sab, rhs)
        xb = lp.solve_density(Sba, rhs_swapped)
        assert np.abs(xa[gab.block(0)] - xb[gba.block(1)]).max() < 1e-12
        assert np.abs(xa[gab.block(1)] - xb[gba.block(0)]).max() < 1e-12

    def test_residual_guard_per_column(self):
        # an ill-conditioned S: the column along the smallest singular
        # direction leaves a residual of ~1e-4 of its own size; stacked next
        # to a column 1e10 times larger it must still be checked on its own
        n = 20
        rng = np.random.default_rng(4)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        op = (u * np.logspace(0, -13, n)) @ v.T
        big, weak = 1e10 * u[:, 0], u[:, -1]
        lp.solve_density(op, big)
        with pytest.raises(lp.SingularOperatorError):
            lp.solve_density(op, weak)
        with pytest.raises(lp.SingularOperatorError):
            lp.solve_density(op, np.column_stack([big, weak]))

    def test_singular_rejected(self):
        with pytest.raises(lp.SingularOperatorError):
            lp.solve_density(np.zeros((4, 4)), np.ones(4))

    def test_nonfinite_operator_rejected(self):
        # a SingularOperatorError, not the LinAlgError of a condition
        # estimate (an SVD) of the non-finite matrix
        op = np.eye(4)
        op[1, 2] = np.nan
        with pytest.raises(lp.SingularOperatorError):
            lp.solve_density(op, np.ones(4))

    def test_nonfinite_matrix_rejected(self, circle_grid, monkeypatch):
        # the image value of the pair (0, 5), in the first chunk, poisoned
        source = lp.AssemblyContext._laplace_chunks

        def poisoned(self, grad):
            for i0, i1, pairs, direct, image in source(self, grad):
                if i0 == 0:
                    image[0][5] = np.nan
                yield i0, i1, pairs, direct, image

        monkeypatch.setattr(lp.AssemblyContext, "_laplace_chunks", poisoned)
        ctx = lp.AssemblyContext(circle_grid)
        with pytest.raises(ValueError, match="non-finite"):
            ctx.single_layer_laplace()


class TestLazyHelmholtzCache:
    def test_laplace_operators_skip_helmholtz_cache(self, circle_grid, no_helmholtz_cache):
        ctx = lp.AssemblyContext(circle_grid)
        S = ctx.single_layer_laplace()
        K = ctx.adjoint_double_layer_laplace()
        assert S.dtype == K.dtype == np.float64

    def test_helmholtz_operators_independent_of_laplace_work(self, two_res_shapes):
        grid = geo.discretize(two_res_shapes, 32, L)
        used = lp.AssemblyContext(grid)
        cap.capacitance_pipeline(grid, context=used)
        used.adjoint_double_layer_laplace()
        fresh = lp.AssemblyContext(grid)
        for k in (0.1, KB):
            assert np.array_equal(used.single_layer_helmholtz(k), fresh.single_layer_helmholtz(k))
            assert np.array_equal(
                used.adjoint_double_layer_helmholtz(k), fresh.adjoint_double_layer_helmholtz(k)
            )
