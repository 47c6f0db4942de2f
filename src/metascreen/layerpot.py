"""Dense Nystrom discretization of the periodic sound-soft layer operators.

Self-interaction blocks use the Kussmaul-Martensen log-split: the kernel is
written as A(t,s) ln(4 sin^2((t-s)/2)) + B(t,s) with analytic A, B, and the
log factor is integrated with the spectrally accurate Kress weights.  Blocks
coupling different resonators (and the wall-image contributions) are smooth
and use the plain trapezoid rule with the shared weights
(2 pi / n_pts) |x'(t_k)|.

Laplace and Helmholtz share one S body and one K* body, each fed by a
kernel source that yields the kernel one row chunk of the pair triangle at a
time, and one Nystrom body, which takes the scattered n x n kernel, its
diagonal and the log factor A of each diagonal block.  A source yields the
direct ("dir") and image ("img") parts on a chunk's pairs: the value for S,
d/dz_l and d/dz_d for K*.  The Laplace source (_laplace_chunks) computes them
in closed form from the chunk's separations; the Helmholtz source
(_bundle_chunks) slices the kernel bundle of the wavenumber.  For Laplace, A
is 1/(4 pi) for S and 0 for K*; for Helmholtz, A is J_0(kr)/(4 pi) for S and
-(k^2/(4 pi)) (J_1(kr)/(kr)) (z . nu) for K*, one table per block computed
once per wavenumber.  Operators are plain ndarrays.

A Laplace-only AssemblyContext holds no pair table: the mask of the stored
pairs and the log quadrature of one block.  Each Laplace operator forms the
separations of a chunk of at most _CHUNK_PAIRS pairs (_row_chunks) from the
nodes, its kernel from them (sin^2(pi z_l/L), and sin(2 pi z_l/L) for K*,
once for both parts; K* skips the log of the value) and writes it straight
into the n x n matrix, so the separations and the kernel never exist for the
whole triangle.  The Helmholtz half caches every wavenumber-independent pair
quantity, so frequency sweeps only pay for the k-dependent arithmetic:
greens.kummer_tables of the direct and image separations, which it forms
once and drops, and r and z . nu on each diagonal block.  kummer_tables is
the one builder of the tables greens.gper_helmholtz reads, the closed-form
Laplace part among them, and the point kernels call it too.  The cache is
built on the first Helmholtz operator or helmholtz_cache() call, so
Laplace-only work such as the optimizer loop and the shape gradients never
pays for it.  A Helmholtz operator checks the single-mode condition on k
before it builds anything, and the context holds the bundle of one k at a
time.  The Helmholtz bundle comes from greens.gper_helmholtz, the same
function the point kernels (greens.helmholtz_gs / helmholtz_gs_grad) call.

The sound-soft kernel is reciprocal, G_s(x, y) = G_s(y, x), so every pair
quantity is stored for the pairs i <= j only, as 1-D arrays in row-major
order (the order of np.triu_indices(n)), and the kernel bundles are computed
there.  Swapping i and j negates z_l and z_d and keeps the image z_d, so the
tables have a fixed parity: the values are symmetric (direct and image),
d/dz_l is antisymmetric (direct and image), and d/dz_d is antisymmetric for
the direct part and symmetric for the image part.  Each operator scatters its
kernel to n x n from two triangle halves, the (i, j) entries and the (j, i)
entries, with these signs: S the value difference v_dir - v_img to both
halves; K* the d/dz_l difference gl as (gl, -gl) and d/dz_d as (gd_dir -
gd_img, -(gd_dir + gd_img)).  Both operators form both halves chunk by chunk,
and the Nystrom body works in place in the scattered matrix, so an operator
needs little more memory than its result.
"""

from __future__ import annotations

import functools

import numpy as np

from . import greens
from .geometry import BoundaryGrid

__all__ = [
    "AssemblyContext",
    "SingularOperatorError",
    "solve_density",
    "evaluate_single_layer",
]

_INV_4PI = 1.0 / (4.0 * np.pi)
_HALF_ULP = 2.0**-54  # a term below this times a component of a sum leaves it unchanged
# largest relative residual solve_density accepts by default
RESIDUAL_TOL = 1e-10
_CHUNK_PAIRS = 16384  # most node pairs per row chunk of the triangle tables: its scratch stays in cache


class SingularOperatorError(np.linalg.LinAlgError):
    """Dense solve failed or produced an untrustworthy residual."""

    def __init__(self, message, cond=None):
        self.cond = cond
        if cond is not None:
            message = f"{message} (condition estimate {cond:.3e})"
        super().__init__(message)


def kress_log_weights(n_pts: int) -> np.ndarray:
    """Quadrature matrix R_ij for the 2pi-periodic ln(4 sin^2((t-s)/2)) factor.

    R is circulant with R[i, j] = r[(j - i) mod n_pts], exact for
    trigonometric polynomials of degree < n_pts/2 on the uniform grid
    t_j = 2 pi j / n_pts (n_pts even).  r is computed for the offsets
    0..n_pts/2 and mirrored, r[n_pts - m] = r[m], so R is exactly symmetric.
    """
    if n_pts % 2:
        raise ValueError("log-singular quadrature requires an even node count")
    half = n_pts // 2
    t = 2.0 * np.pi * np.arange(half + 1) / n_pts
    m = np.arange(1, half)
    r = -(4.0 * np.pi / n_pts) * np.cos(np.outer(t, m)) @ (1.0 / m)
    r -= (4.0 * np.pi / n_pts**2) * np.cos(half * t)
    r = np.concatenate([r, r[half - 1 : 0 : -1]])
    i = np.arange(n_pts)
    return r[(i[None, :] - i[:, None]) % n_pts]


def _negligible(t, acc, real, buf):
    """True when |t| is below half an ulp of each component of acc (only the real one if real).

    ``buf`` holds two real scratch arrays and one boolean scratch array of the shape of t.
    """
    scale, mag, flag = buf
    np.abs(acc.real, out=scale)
    if not real:
        np.minimum(scale, np.abs(acc.imag, out=mag), out=scale)
    scale *= _HALF_ULP
    return bool(np.less_equal(np.abs(t, out=mag), scale, out=flag).all())


def _bessel_j0_j1c(w):
    """J_0(w) and J_1(w)/w by their power series in z = -w^2/4; for |w| <= 2.5.

    A series stops once its next term is negligible in each component of its
    sum.  Every later term is smaller still (|z| < 4), so the values are bit
    for bit those of the full 15-term series.  Terms and sums are updated in
    place.
    """
    w = np.asarray(w)
    z = np.asarray(w * w)  # an array also for a scalar w, so it can be updated in place
    np.negative(z, out=z)
    z /= 4.0
    real = np.isrealobj(z) or np.all(z.imag == 0.0)  # then every term is real
    t0, j0 = np.ones_like(z), np.ones_like(z)
    t1, j1c = np.full_like(z, 0.5), np.full_like(z, 0.5)
    buf = (np.empty(z.shape), np.empty(z.shape), np.empty(z.shape, dtype=bool))
    for m in range(1, 16):
        t0 *= z
        t0 /= m * m
        t1 *= z
        t1 /= m * (m + 1)
        if _negligible(t0, j0, real, buf) and _negligible(t1, j1c, real, buf):
            break
        j0 += t0
        j1c += t1
    return j0, j1c


def _minimum_image(zl, L):
    """z_l reduced in place to its minimum image; the kernels are L-periodic."""
    shift = np.divide(zl, L)
    np.round(shift, out=shift)
    shift *= L
    zl -= shift
    return zl


@functools.lru_cache(maxsize=4)
def _triangle(n):
    """The stored pairs of an n x n matrix as a mask (i <= j), and the table positions of i == j.

    Read-only and shared by every context on n nodes; row i of the triangle
    starts at table position i n - i (i - 1) / 2.
    """
    i = np.arange(n)
    upper = i[:, None] <= i
    diag = i * n - i * (i - 1) // 2
    upper.flags.writeable = diag.flags.writeable = False
    return upper, diag


def _row_chunks(n):
    """(i0, i1, pairs): rows i0:i1 of the n x n upper triangle and the table slice of their pairs.

    A chunk holds the most rows whose pairs number at most _CHUNK_PAIRS, or
    one row where that row alone holds more.  Its pairs are the entries
    [i0:i1, i0:] of the mask.  The rows are found by bisection on the row
    starts, so a chunk costs the same whatever its row count.
    """
    starts = _triangle(n)[1]  # table position of the first pair of each row
    total = n * (n + 1) // 2
    i0 = 0
    while i0 < n:
        start = int(starts[i0])
        if total - start <= _CHUNK_PAIRS:
            i1, stop = n, total
        else:
            i1 = max(i0 + 1, int(np.searchsorted(starts, start + _CHUNK_PAIRS, side="right")) - 1)
            stop = int(starts[i1])
        yield i0, i1, slice(start, stop)
        i0 = i1


class AssemblyContext:
    """Cached pairwise geometry and kernel pieces for one BoundaryGrid.

    A Laplace-only context holds the shared n x n mask of the stored pairs
    (i <= j) of the n_total nodes and the log quadrature of one block, and no
    pair-sized array: the Laplace operators compute their closed-form kernel
    chunk by chunk from the nodes (_laplace_chunks).  The Helmholtz cache
    holds greens.kummer_tables of the direct and image pairs, every table
    gper_helmholtz reads, and on each diagonal block r (its triangle) and
    z . nu, which the log factors read.
    """

    def __init__(self, grid: BoundaryGrid, tol: float = 1e-12):
        self.grid = grid
        self.tol = tol
        n = grid.n_total
        self._upper, self._diag = _triangle(n)
        self._n_pairs = n * (n + 1) // 2

        # ln(4 sin^2((t_i - t_j)/2)) on one block (shared by all resonators)
        tpar = grid.t[: grid.n_pts]
        dt = tpar[:, None] - tpar[None, :]
        with np.errstate(divide="ignore"):
            lnsin = np.log(4.0 * np.sin(dt / 2.0) ** 2)
        np.fill_diagonal(lnsin, 0.0)
        self.lnsin = lnsin
        self.kress = kress_log_weights(grid.n_pts)
        self.w_t = 2.0 * np.pi / grid.n_pts
        self._helm: dict | None = None
        self._bundle: tuple | None = None  # (k, kernel bundle) of the last wavenumber

    def _separation_chunks(self):
        """(i0, i1, pairs, z_l, direct z_d, image z_d) of the stored pairs, one _row_chunks chunk at a time."""
        x = self.grid.nodes
        for i0, i1, pairs in _row_chunks(self.grid.n_total):
            m = self._upper[i0:i1, i0:]
            xi, xj = x[i0:i1, None], x[None, i0:]
            zl = _minimum_image((xi[..., 0] - xj[..., 0])[m], self.grid.L)
            yield i0, i1, pairs, zl, (xi[..., 1] - xj[..., 1])[m], (xi[..., 1] + xj[..., 1])[m]

    def _laplace_chunks(self, grad):
        """The Laplace kernel source: (i0, i1, pairs, direct, image) per _separation_chunks chunk.

        direct and image are tuples of the closed-form value, or of d/dz_l
        and d/dz_d when ``grad``, of each part on the chunk's pairs;
        sin^2(pi z_l/L), and sin(2 pi z_l/L) for the gradient, are formed once
        for both parts.  The direct part is singular on the diagonal and
        masked to 0 there.
        """
        L = self.grid.L
        for i0, i1, pairs, zl, dd, di in self._separation_chunks():
            factors = greens._zl_factors(zl, L, want_grad=grad)
            with np.errstate(divide="ignore", invalid="ignore"):
                direct = greens._laplace_from_factors(factors, dd, L, value=not grad)
            for arr in direct:
                arr[self._diag[i0:i1] - pairs.start] = 0.0
            yield i0, i1, pairs, direct, greens._laplace_from_factors(factors, di, L, value=not grad)

    def _bundle_chunks(self, bundle, grad):
        """The kernel source of a Helmholtz bundle: its value, or its gradient when ``grad``, sliced per chunk."""
        rows = (1, 2) if grad else (0,)
        for i0, i1, pairs in _row_chunks(self.grid.n_total):
            yield i0, i1, pairs, *([bundle[part][r][pairs] for r in rows] for part in ("dir", "img"))

    # -- kernel value/gradient tables ----------------------------------------

    def helmholtz_cache(self) -> dict:
        """Wavenumber-independent pieces only the Helmholtz operators read.

        Built on the first call and kept: greens.kummer_tables of the direct
        ("dir") and image ("img") separations, which are formed here once and
        dropped, with the direct closed-form Laplace tables zeroed on the
        diagonal; and on each diagonal block the distance r of its node pairs
        (i <= j, the block triangle) and z . nu (all pairs), which the log
        factors read.
        """
        if self._helm is None:
            grid = self.grid
            zl, dd, di = (np.empty(self._n_pairs) for _ in range(3))
            for _, _, pairs, *seps in self._separation_chunks():
                for table, sep in zip((zl, dd, di), seps):
                    table[pairs] = sep
            helm = {part: greens.kummer_tables(zl, zd, grid.L) for part, zd in (("dir", dd), ("img", di))}
            for table in helm["dir"]["laplace"]:
                table[self._diag] = 0.0
            xb = grid.nodes.reshape(grid.n_res, grid.n_pts, 2)
            zl_b = _minimum_image(xb[:, :, None, 0] - xb[:, None, :, 0], grid.L)
            dd_b = xb[:, :, None, 1] - xb[:, None, :, 1]
            nrm = grid.normals.reshape(grid.n_res, grid.n_pts, 1, 2)
            helm["r"] = np.hypot(zl_b, dd_b)[:, _triangle(grid.n_pts)[0]]
            helm["zdotnu"] = zl_b * nrm[..., 0] + dd_b * nrm[..., 1]
            self._helm = helm
        return self._helm

    def _kernel_bundle(self, k: complex):
        """Kernel bundle of G_per^k: "dir" and "img" tables and "log" factors.

        k must satisfy the single-mode condition; it is checked before any
        cache is built.  One greens.gper_helmholtz call per part ("dir",
        "img") and one Bessel pass for "log" serve both operators at this
        wavenumber; only the last k's bundle is kept, released before the
        next is built.  Nothing is masked: with the closed-form Laplace part
        zeroed on the direct diagonal, the direct value there is the smooth
        remainder 1/(2ikL) + ln(4)/(4 pi) + C(0) and the direct gradient is
        0.  r is symmetric on each block, so the J_0 and J_1 series run on the
        block triangles and are mirrored.
        """
        greens.WaveParams(k=k).check_single_mode(greens.LatticeConfig(L=self.grid.L))
        key = complex(k)
        if self._bundle is not None and self._bundle[0] == key:
            return self._bundle[1]
        self._bundle = None
        helm = self.helmholtz_cache()
        out = {
            part: greens.gper_helmholtz(k, self.grid.L, helm[part], tol=self.tol, want_grad=True)
            for part in ("dir", "img")
        }
        j0_tri, j1c_tri = _bessel_j0_j1c(k * helm["r"])
        # scaled in place, scalar first: the complex loops round x * s and s * x differently
        np.multiply(_INV_4PI, j0_tri, out=j0_tri)
        np.multiply(-(k * k * _INV_4PI), j1c_tri, out=j1c_tri)
        upper = _triangle(self.grid.n_pts)[0]
        j0, j1c = (np.empty(helm["zdotnu"].shape, dtype=t.dtype) for t in (j0_tri, j1c_tri))
        for full, tri in ((j0, j0_tri), (j1c, j1c_tri)):
            full.swapaxes(1, 2)[:, upper] = tri
            full[:, upper] = tri
        j1c *= helm["zdotnu"]
        out["log"] = (j0, j1c)
        self._bundle = (key, out)
        return out

    # -- the Nystrom body ----------------------------------------------------

    def _nystrom(self, ker, diag, log_a):
        """Operator matrix of an n x n kernel whose diagonal is diag, assembled in ker.

        The trapezoid rule everywhere, then on diagonal block j the
        Kussmaul-Martensen split with log factor log_a[j]: the Kress weights
        integrate log_a[j] ln(4 sin^2((t-s)/2)), the trapezoid rule the rest.
        Each block row takes its diagonal block from the kernel before the
        rest of the row is scaled.
        """
        grid = self.grid
        np.fill_diagonal(ker, diag)
        for j in range(grid.n_res):
            b = grid.block(j)
            block_val = ker[b, b] - log_a[j] * self.lnsin
            np.fill_diagonal(block_val, diag[b])
            for rest in (ker[b, : b.start], ker[b, b.stop :]):
                np.multiply(self.w_t, rest, out=rest)
            ker[b, b] = self.kress * log_a[j] + self.w_t * block_val
        return _finite(np.multiply(ker, grid.speed[None, :], out=ker))

    def _single_layer(self, source, log_a):
        """S from a kernel source (_laplace_chunks, _bundle_chunks) of the values and the log factors log_a.

        The value difference v_dir - v_img of each chunk goes to both
        halves of the matrix.
        """
        grid = self.grid
        n = grid.n_total
        ker = None
        for i0, i1, pairs, (v_dir,), (v_img,) in source:
            val = v_dir - v_img
            if ker is None:
                ker = np.empty((n, n), dtype=val.dtype)
            m = self._upper[i0:i1, i0:]
            ker[i0:i1, i0:][m] = val
            ker.T[i0:i1, i0:][m] = val
        # the kernel diagonal holds the smooth remainder of the direct part minus the image
        diag = np.log(np.pi * grid.speed / grid.L) / (2.0 * np.pi) + ker.diagonal()
        return self._nystrom(ker, diag, log_a)

    def _adjoint_double_layer(self, source, log_a):
        """K* from a kernel source of the gradients and the log factors log_a: nu_x . grad_x of the kernel.

        The kernel is nu_x times the d/dz_l difference gl, scattered as (gl,
        -gl), plus nu_y times d/dz_d, scattered as (gd_dir - gd_img, -(gd_dir
        + gd_img)).  Both halves of each chunk are formed on its pairs and
        written once; the scattered diagonal is not read, _nystrom replaces
        it.
        """
        grid = self.grid
        n = grid.n_total
        nrm = grid.normals.T
        ker = None
        img_diag = ([], [])  # gl_img and gd_img on the diagonal, chunk by chunk
        for i0, i1, pairs, (gl_dir, gd_dir), (gl_img, gd_img) in source:
            if ker is None:
                ker = np.empty((n, n), dtype=np.result_type(gl_dir, gd_dir))
            m = self._upper[i0:i1, i0:]
            # the normal at node i, and at node j, of each pair
            nu_i = [np.broadcast_to(c[i0:i1, None], m.shape)[m] for c in nrm]
            nu_j = [np.broadcast_to(c[None, i0:], m.shape)[m] for c in nrm]
            gl = gl_dir - gl_img
            ker[i0:i1, i0:][m] = nu_i[0] * gl + nu_i[1] * (gd_dir - gd_img)
            ker.T[i0:i1, i0:][m] = nu_j[0] * -gl + nu_j[1] * -(gd_dir + gd_img)
            on_diag = self._diag[i0:i1] - pairs.start
            for acc, table in zip(img_diag, (gl_img, gd_img)):
                acc.append(table[on_diag])
        gl_img, gd_img = (np.concatenate(acc) for acc in img_diag)
        # on the diagonal the direct part tends to curvature / (4 pi)
        diag = grid.curvature * _INV_4PI - (nrm[0] * gl_img + nrm[1] * gd_img)
        return self._nystrom(ker, diag, log_a)

    # -- the four operators ------------------------------------------------

    def single_layer_laplace(self) -> np.ndarray:
        log_a = np.full(self.grid.n_res, _INV_4PI)
        return self._single_layer(self._laplace_chunks(grad=False), log_a)

    def single_layer_helmholtz(self, k: complex) -> np.ndarray:
        bundle = self._kernel_bundle(k)
        return self._single_layer(self._bundle_chunks(bundle, grad=False), bundle["log"][0])

    def adjoint_double_layer_laplace(self) -> np.ndarray:
        log_a = np.zeros(self.grid.n_res)
        return self._adjoint_double_layer(self._laplace_chunks(grad=True), log_a)

    def adjoint_double_layer_helmholtz(self, k: complex) -> np.ndarray:
        bundle = self._kernel_bundle(k)
        return self._adjoint_double_layer(self._bundle_chunks(bundle, grad=True), bundle["log"][1])


def _finite(mat):
    if not np.all(np.isfinite(mat)):
        raise ValueError("operator matrix contains non-finite entries")
    return mat


def solve_density(a: np.ndarray, rhs, tol: float = RESIDUAL_TOL):
    """Direct dense solve a @ x = rhs with a residual guarantee.

    The one residual-checked dense solve of the package, shared by the
    capacitance and the full-order solves.  ``rhs`` may carry multiple
    right-hand sides as columns; they share the one pivoted LU factorization
    of np.linalg.solve (LAPACK gesv).  Raises SingularOperatorError when the
    solution is not finite, or when the infinity-norm residual of any column,
    relative to that column's own max|rhs|, exceeds tol.
    """
    rhs = np.asarray(rhs)
    try:
        x = np.linalg.solve(a, rhs)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SingularOperatorError(f"dense solve failed: {exc}") from None
    if not np.all(np.isfinite(x)):
        cond = np.linalg.cond(a) if np.all(np.isfinite(a)) else None  # the SVD of a non-finite a fails
        raise SingularOperatorError("dense solve produced non-finite values", cond=cond)
    resid = np.abs(a @ x - rhs).max(axis=0)
    scale = np.maximum(np.abs(rhs).max(axis=0), np.finfo(float).tiny)
    worst = np.max(resid / scale)
    if not np.isfinite(worst) or worst > tol:
        raise SingularOperatorError(f"solve residual {worst:.3e} exceeds {tol:.1e}", cond=np.linalg.cond(a))
    return x


def evaluate_single_layer(grid, density, targets, k=None):
    """Evaluate S[density] at off-boundary target points; k=None is Laplace."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    cfg = greens.LatticeConfig(L=grid.L)
    x = targets[:, None, :]
    y = grid.nodes[None, :, :]
    if k is None:
        g = greens.laplace_gs(x, y, cfg)
    else:
        g = greens.helmholtz_gs(x, y, greens.WaveParams(k=k), cfg)
    out = g @ (np.asarray(density) * grid.weights)
    return out if out.size > 1 else out[0]
