"""Dense Nystrom discretization of the layer operators: periodic sound-soft and free-space interior.

Self-interaction blocks use the Kussmaul-Martensen log-split: the kernel is
written as A(t,s) ln(4 sin^2((t-s)/2)) + B(t,s) with analytic A, B, and the
log factor is integrated with the spectrally accurate Kress weights.  Blocks
coupling different resonators (and the wall-image contributions) are smooth
and use the plain trapezoid rule with the shared weights
(2 pi / n_pts) |x'(t_k)|.

The interior field of each resonator needs no lattice and no wall: it is
the free-space single layer (free_space_kernel, G = -(i/4) H_0^(1)(k r) with
the package's sign) on that resonator's own boundary.  interior_helmholtz
assembles its S and K*, block diagonal, on the same Nystrom split: the
kernel and the log factors come from one Bessel series pass
(_bessel_j0_j1c, which also sums the harmonic-weighted parts of the Y_0 and
Y_1 series) on the block triangles of r, and read r and z . nu of
block_geometry, built from the true (not minimum-image) distances of each
resonator's own nodes.

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
once and drops (helmholtz_cache), and r and z . nu on each diagonal block
(block_geometry, which the interior operators read alone).  kummer_tables is
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
    "evaluate_interior_single_layer",
    "free_space_kernel",
]

_INV_4PI = 1.0 / (4.0 * np.pi)
_HALF_ULP = 2.0**-54  # a term below this times a component of a sum leaves it unchanged
_MIN_TERMS = 15  # fewest terms of the Bessel series: below 1e-21 left out for |w| <= 2.5
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


def _series_terms(zmax):
    """Most terms the series of _bessel_j0_j1c sum for arguments with |z| <= zmax.

    At least _MIN_TERMS, and more until the bound zmax^m / (m!)^2 of the
    first term left out is at most 2^-54, below the rounding of the sums
    (their leading terms are 1 and 1/2; the harmonic sums carry a further
    H_m < 4, below the rounding of the kernel they enter).  check_band
    admits |k| < 0.95 * 2 pi / L, so on a resonator of diameter below L,
    every circle the cell holds, |k r| < 0.95 * 2 pi (|z| < 8.91), which
    takes at most 19 terms; a larger argument takes more.
    """
    m, bound = 0, 1.0
    while m <= _MIN_TERMS or bound > _HALF_ULP:
        m += 1
        bound *= zmax / (m * m)
        if not np.isfinite(bound):  # a non-finite argument gives non-finite sums at any count
            return _MIN_TERMS
    return m - 1


def _bessel_j0_j1c(w, harmonic=False):
    """J_0(w) and J_1(w)/w by their power series in z = -w^2/4.

    With ``harmonic`` also h0 = sum_{m>=1} H_m z^m / (m!)^2 and h1 =
    sum_{m>=0} (H_m + H_{m+1}) z^m / (2 m! (m+1)!), H_m the harmonic
    numbers: the sums of the Y_0 and Y_1 series (free_space_kernel), from
    the same terms in the same pass.  The series take at most
    _series_terms(max |z|) terms.  They stop once the next term of each is
    negligible in each component of its sum; every later term is smaller
    still (a term that small comes after the largest one for |z| < 300), so
    the values are bit for bit those of the series summed to the cap.  The
    harmonic numbers come from greens.harmonic_numbers, their one builder.
    Rounding scales with the term moduli, I_0(|w|) for J_0: 62 at |w| = 5.9.
    Terms and sums are updated in place.
    """
    w = np.asarray(w)
    z = np.asarray(w * w)  # an array also for a scalar w, so it can be updated in place
    np.negative(z, out=z)
    z /= 4.0
    real = np.isrealobj(z) or np.all(z.imag == 0.0)  # then every term is real
    t0, j0 = np.ones_like(z), np.ones_like(z)
    t1, j1c = np.full_like(z, 0.5), np.full_like(z, 0.5)
    series = [(t0, j0), (t1, j1c)]
    if harmonic:
        ht0, h0 = np.empty_like(z), np.zeros_like(z)
        ht1, h1 = np.empty_like(z), np.full_like(z, 0.5)  # (H_0 + H_1) / 2 for m = 0
        series += [(ht0, h0), (ht1, h1)]
    buf = (np.empty(z.shape), np.empty(z.shape), np.empty(z.shape, dtype=bool))
    terms = _series_terms(float(np.abs(z).max(initial=0.0)))
    h = greens.harmonic_numbers(terms + 2) if harmonic else None
    for m in range(1, terms + 1):
        t0 *= z
        t0 /= m * m
        t1 *= z
        t1 /= m * (m + 1)
        if harmonic:
            np.multiply(t0, h[m], out=ht0)
            np.multiply(t1, h[m] + h[m + 1], out=ht1)
        if all(_negligible(t, acc, real, buf) for t, acc in series):
            break
        for t, acc in series:
            acc += t
    return (j0, j1c, h0, h1) if harmonic else (j0, j1c)


def _log_half_k(k):
    """ln(k / 2) + gamma, the constant of the free-space kernel's logarithm."""
    return np.log(complex(k) / 2.0) + np.euler_gamma


def free_space_kernel(k, r, series=None):
    """The free-space kernel G(r) = -(i/4) H_0^(1)(k r) and G'(r) / r, at distances r > 0.

    The sign is the package's: G ~ ln(r) / (2 pi) as r -> 0, like the
    Laplace kernel.  From the series of k r (_bessel_j0_j1c with
    ``harmonic``; pass ``series`` where it is already formed), with
    l = ln(k r / 2) + gamma (Euler's constant),

        G       = (l J_0 - h0) / (2 pi) - (i/4) J_0,
        G'(r)/r = 1 / (2 pi r^2) + k^2 ((i/4 - l / (2 pi)) J_1/(kr) + h1 / (4 pi)),

    so the gradient in x of G(|x - y|) is G'(r)/r (x - y).  Needs no lattice
    and no table: the interior field of a resonator is the single layer of
    this kernel on its own boundary.
    """
    j0, j1c, h0, h1 = _bessel_j0_j1c(k * r, harmonic=True) if series is None else series
    lnw = np.log(r) + _log_half_k(k)
    val = lnw * j0
    val -= h0
    val *= 0.5 / np.pi
    val -= 0.25j * j0
    grad = lnw * (-0.5 / np.pi)
    grad += 0.25j
    grad *= j1c
    grad += _INV_4PI * h1
    grad *= k * k
    grad += (0.5 / np.pi) / (r * r)
    return val, grad


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
    gper_helmholtz reads; block_geometry holds r (its triangle) and z . nu
    on each diagonal block, which the log factors read.
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
        self._blocks: tuple | None = None  # block_geometry
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
        """Wavenumber-independent tables only the periodic Helmholtz operators read.

        Built on the first call and kept: greens.kummer_tables of the direct
        ("dir") and image ("img") separations, which are formed here once and
        dropped, with the direct closed-form Laplace tables zeroed on the
        diagonal.
        """
        if self._helm is None:
            zl, dd, di = (np.empty(self._n_pairs) for _ in range(3))
            for _, _, pairs, *seps in self._separation_chunks():
                for table, sep in zip((zl, dd, di), seps):
                    table[pairs] = sep
            helm = {part: greens.kummer_tables(zl, zd, self.grid.L) for part, zd in (("dir", dd), ("img", di))}
            for table in helm["dir"]["laplace"]:
                table[self._diag] = 0.0
            self._helm = helm
        return self._helm

    def block_geometry(self):
        """(r, z . nu) of the node pairs on each diagonal block, which the log factors read.

        Built on the first call and kept.  r is the distance of the pairs
        i <= j of each block (its triangle), z . nu = (x_i - x_j) . nu_j of
        all its pairs.  The lateral differences are not reduced to their
        minimum image: a resonator is one curve, so the free-space kernel and
        the coefficient of the logarithm read its true distances, also for a
        resonator wider than L / 2.
        """
        if self._blocks is None:
            grid = self.grid
            xb = grid.nodes.reshape(grid.n_res, grid.n_pts, 2)
            zl = xb[:, :, None, 0] - xb[:, None, :, 0]
            zd = xb[:, :, None, 1] - xb[:, None, :, 1]
            nrm = grid.normals.reshape(grid.n_res, grid.n_pts, 1, 2)
            self._blocks = (np.hypot(zl, zd)[:, _triangle(grid.n_pts)[0]], zl * nrm[..., 0] + zd * nrm[..., 1])
        return self._blocks

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
        r, zdotnu = self.block_geometry()
        out["log"] = _log_factors(k, _bessel_j0_j1c(k * r), zdotnu)
        self._bundle = (key, out)
        return out

    def interior_helmholtz(self, k: complex):
        """S and K* of the free-space kernel at k, each resonator on its own boundary alone.

        Both are n x n and block diagonal: the interior field of resonator j
        is the single layer of free_space_kernel on its boundary, so no
        lattice, wall image, kernel bundle or Kummer table enters.  One
        series pass on the block triangles of r (block_geometry) gives the
        kernel and the log factors of both operators, the same J_0 and J_1
        factors as the periodic ones.  The smooth remainders on the diagonal are
        (ln(speed) + ln(k/2) + gamma) / (2 pi) - i/4 for S and
        curvature / (4 pi) for K*.
        """
        grid = self.grid
        r, zdotnu = self.block_geometry()
        series = _bessel_j0_j1c(k * r, harmonic=True)
        with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 on the block diagonals
            val, grad = free_space_kernel(k, r, series)
        on_diag = _triangle(grid.n_pts)[1]
        val[:, on_diag] = grad[:, on_diag] = 0.0  # replaced by the smooth remainders
        val, grad = _unfold(val, grid.n_pts), _unfold(grad, grid.n_pts)
        grad *= zdotnu
        log_s, log_k = _log_factors(k, series, zdotnu)
        diag_s = (np.log(grid.speed) + _log_half_k(k)) * (0.5 / np.pi) - 0.25j
        diag_k = grid.curvature * _INV_4PI
        return (
            self._block_diagonal(val, diag_s, log_s),
            self._block_diagonal(grad, diag_k, log_k),
        )

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
            block = self._log_split(ker[b, b], diag[b], log_a[j])
            for rest in (ker[b, : b.start], ker[b, b.stop :]):
                np.multiply(self.w_t, rest, out=rest)
            ker[b, b] = block
        return _finite(np.multiply(ker, grid.speed[None, :], out=ker))

    def _log_split(self, block, diag, log_a):
        """One diagonal block of kernel values integrated with the Kussmaul-Martensen split.

        The Kress weights integrate log_a ln(4 sin^2((t-s)/2)), the trapezoid
        rule the rest, whose diagonal is diag; the column speeds are not
        applied.
        """
        smooth = block - log_a * self.lnsin
        np.fill_diagonal(smooth, diag)
        return self.kress * log_a + self.w_t * smooth

    def _block_diagonal(self, ker, diag, log_a):
        """Operator matrix of a kernel that vanishes between resonators, from its (n_res, n_pts, n_pts) blocks ker."""
        grid = self.grid
        out = np.zeros((grid.n_total, grid.n_total), dtype=complex)
        for j in range(grid.n_res):
            b = grid.block(j)
            out[b, b] = self._log_split(ker[j], diag[b], log_a[j]) * grid.speed[None, b]
        return _finite(out)

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


def _unfold(tri, n_pts):
    """(n_res, n_pts, n_pts) blocks from their triangles (i <= j, _triangle order), mirrored."""
    upper = _triangle(n_pts)[0]
    full = np.empty((tri.shape[0], n_pts, n_pts), dtype=tri.dtype)
    full.swapaxes(1, 2)[:, upper] = tri
    full[:, upper] = tri
    return full


def _log_factors(k, series, zdotnu):
    """Log factors of S and K* on each diagonal block at k, from the series of k r on the block triangles.

    J_0(kr) / (4 pi) and -(k^2 / (4 pi)) (J_1(kr) / (kr)) (z . nu), the
    series' J_0 and J_1/w scaled in place and mirrored.
    """
    j0, j1c = series[:2]
    # scaled in place, scalar first: the complex loops round x * s and s * x differently
    np.multiply(_INV_4PI, j0, out=j0)
    np.multiply(-(k * k * _INV_4PI), j1c, out=j1c)
    n_pts = zdotnu.shape[-1]
    log_s, log_k = _unfold(j0, n_pts), _unfold(j1c, n_pts)
    log_k *= zdotnu
    return log_s, log_k


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


def evaluate_interior_single_layer(grid, j, density, targets, k):
    """Evaluate the free-space single layer at k of density on resonator j's boundary, at points inside it."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    b = grid.block(j)
    r = np.hypot(*np.moveaxis(targets[:, None, :] - grid.nodes[None, b, :], -1, 0))
    out = free_space_kernel(k, r)[0] @ (np.asarray(density)[b] * grid.weights[b])
    return out if out.size > 1 else out[0]
