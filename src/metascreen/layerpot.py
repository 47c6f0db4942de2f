"""Dense Nystrom discretization of the periodic sound-soft layer operators.

Self-interaction blocks use the Kussmaul-Martensen log-split: the kernel is
written as A(t,s) ln(4 sin^2((t-s)/2)) + B(t,s) with analytic A, B, and the
log factor is integrated with the spectrally accurate Kress weights.  Blocks
coupling different resonators (and the wall-image contributions) are smooth
and use the plain trapezoid rule with the shared weights
(2 pi / n_pts) |x'(t_k)|.

Laplace and Helmholtz share the rule: one body assembles S and one assembles
K*, each from a kernel bundle {"dir", "img"} -> (value, d/dz_l, d/dz_d) on the
node pairs and the log factor A on each diagonal block.  For Laplace, A is
1/(4 pi) for S and 0 for K*; for Helmholtz, A is J_0(kr)/(4 pi) for S and
-(k^2/(4 pi)) (J_1(kr)/(kr)) (z . nu) for K*.  Operators are plain ndarrays.

An AssemblyContext caches every wavenumber-independent pair quantity, so
frequency sweeps only pay for the k-dependent arithmetic.  The Laplace half
(minimum-image separations, the closed-form Laplace bundle, the log
quadrature) is built with the context; the Helmholtz half (greens.kummer_tables
of the direct and image separations) is built on the first Helmholtz operator
or helmholtz_cache() call, so Laplace-only work such as the optimizer loop and
the shape gradients never pays for it.  A Helmholtz operator checks the
single-mode condition on k before it builds anything.  The Helmholtz bundle
comes from greens.gper_helmholtz, the same function the point kernels
(greens.helmholtz_gs / helmholtz_gs_grad) call.

The sound-soft kernel is reciprocal, G_s(x, y) = G_s(y, x), so every pair
quantity is stored for the np.triu_indices(n) pairs (i <= j) only, as 1-D
arrays, and the kernel bundles are computed there.  Swapping i and j negates
z_l and z_d and keeps the image z_d, so the tables have a fixed parity:
the values are symmetric (direct and image), d/dz_l is antisymmetric (direct
and image), and d/dz_d is antisymmetric for the direct part and symmetric for
the image part.  The two Nystrom bodies expand to n x n only the tables they
read, on the direct - image difference where the parities agree; the
separations the log factor needs on a diagonal block come from that block's
own nodes.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla

from . import greens
from .geometry import BoundaryGrid

__all__ = [
    "AssemblyContext",
    "SingularOperatorError",
    "solve_density",
    "evaluate_single_layer",
]

_INV_4PI = 1.0 / (4.0 * np.pi)


class SingularOperatorError(np.linalg.LinAlgError):
    """Dense solve failed or produced an untrustworthy residual."""

    def __init__(self, message, cond=None):
        self.cond = cond
        if cond is not None:
            message = f"{message} (condition estimate {cond:.3e})"
        super().__init__(message)


def kress_log_weights(n_pts: int) -> np.ndarray:
    """Quadrature matrix R_ij for the 2pi-periodic ln(4 sin^2((t-s)/2)) factor.

    R is circulant with R[i, j] = R((t_i - t_j)), exact for trigonometric
    polynomials of degree < n_pts/2 on the uniform grid t_j = 2 pi j / n_pts
    (n_pts even).
    """
    if n_pts % 2:
        raise ValueError("log-singular quadrature requires an even node count")
    half = n_pts // 2
    t = 2.0 * np.pi * np.arange(n_pts) / n_pts
    m = np.arange(1, half)
    r = -(4.0 * np.pi / n_pts) * np.cos(np.outer(t, m)) @ (1.0 / m)
    r -= (4.0 * np.pi / n_pts**2) * np.cos(half * t)
    return sla.circulant(r).T  # symmetric in |i - j|; transpose for clarity


def _j0_small(w):
    """J_0(w) by power series; accurate for |w| <= 2.5."""
    w = np.asarray(w)
    z = -(w * w) / 4.0
    term = np.ones_like(z)
    acc = np.ones_like(z)
    for m in range(1, 16):
        term = term * z / (m * m)
        acc = acc + term
    return acc


def _j1c_small(w):
    """J_1(w)/w by power series; accurate for |w| <= 2.5 (value 1/2 at 0)."""
    w = np.asarray(w)
    z = -(w * w) / 4.0
    term = np.full_like(z, 0.5)
    acc = np.full_like(z, 0.5)
    for m in range(1, 16):
        term = term * z / (m * (m + 1))
        acc = acc + term
    return acc


# Parity under i <-> j of the (value, d/dz_l, d/dz_d) tables of each part:
# swapping the nodes negates z_l and the direct z_d and keeps the image z_d.
_PARITY = {"dir": (1, -1, -1), "img": (1, -1, 1)}


def _pair_separations(x, i, j, L):
    """Minimum-image z_l, direct z_d and image z_d of the node pairs (x[i], x[j])."""
    zl = x[i, 0] - x[j, 0]
    zl -= L * np.round(zl / L)  # minimum image; kernels are L-periodic
    return zl, x[i, 1] - x[j, 1], x[i, 1] + x[j, 1]


class AssemblyContext:
    """Cached pairwise geometry and kernel pieces for one BoundaryGrid.

    Pair tables (zl, dd, di, laplace, the Helmholtz cache and the kernel
    bundles) are 1-D arrays over the np.triu_indices(n_total) pairs.
    """

    def __init__(self, grid: BoundaryGrid, tol: float = 1e-12):
        self.grid = grid
        self.tol = tol
        L = grid.L
        n = grid.n_total
        i, j = np.triu_indices(n)
        self._upper = np.triu(np.ones((n, n), dtype=bool))  # the stored pairs, row-major
        self._diag = np.flatnonzero(i == j)  # where the pairs i == j sit in a table
        self.zl, self.dd, self.di = _pair_separations(grid.nodes, i, j, L)

        # Laplace kernel bundle in closed form; the direct diagonal is
        # singular and masked to 0
        with np.errstate(divide="ignore", invalid="ignore"):
            direct = greens._closed_laplace(self.zl, self.dd, L, want_grad=True)
        for arr in direct:
            arr[self._diag] = 0.0
        self.laplace = {
            "dir": direct,
            "img": greens._closed_laplace(self.zl, self.di, L, want_grad=True),
        }

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
        self._bundles: dict = {}

    def _expand(self, tri, parity):
        """n x n matrix of a triangle table whose (j, i) entry is parity * (i, j)."""
        n = self.grid.n_total
        mat = np.empty((n, n), dtype=tri.dtype)
        mat.T[self._upper] = tri if parity > 0 else -tri
        mat[self._upper] = tri  # the diagonal keeps the table's own entries
        return mat

    def _difference(self, bundle, c):
        """n x n direct - image difference of table c of a bundle (0 value, 1 d/dz_l, 2 d/dz_d).

        Expanded once when the two parts share a parity, else part by part.
        """
        p_dir, p_img = _PARITY["dir"][c], _PARITY["img"][c]
        t_dir, t_img = bundle["dir"][c], bundle["img"][c]
        if p_dir == p_img:
            return self._expand(t_dir - t_img, p_dir)
        return self._expand(t_dir, p_dir) - self._expand(t_img, p_img)

    def _block_separations(self, b):
        """Minimum-image (z_l, z_d) of the node pairs of diagonal block b."""
        idx = np.arange(self.grid.n_total)[b]
        zl, dd, _ = _pair_separations(self.grid.nodes, idx[:, None], idx[None, :], self.grid.L)
        return zl, dd

    # -- kernel value/gradient tables ----------------------------------------

    def helmholtz_cache(self) -> dict:
        """Wavenumber-independent pieces only the Helmholtz operators read.

        Built on the first call and kept: greens.kummer_tables of the direct
        ("dir") and image ("img") separations.
        """
        if self._helm is None:
            L = self.grid.L
            self._helm = {
                "dir": greens.kummer_tables(self.zl, self.dd, L),
                "img": greens.kummer_tables(self.zl, self.di, L),
            }
        return self._helm

    def _kernel_bundle(self, k: complex):
        """(value, d/dz_l, d/dz_d) of G_per^k on the triangle pairs, cached per k.

        k must satisfy the single-mode condition; it is checked before any
        cache is built.  One greens.gper_helmholtz call per part ("dir",
        "img") serves both the single-layer and the adjoint-double-layer
        assembly at this wavenumber; the two most recent bundles are kept so
        sweeps alternating k_b / k_m stay cached.  Nothing is masked: with the
        closed-form Laplace part zeroed on the direct diagonal, the direct
        value there is the smooth remainder 1/(2ikL) + ln(4)/(4 pi) + C(0)
        and the direct gradient is 0.
        """
        greens.WaveParams(k=k).check_single_mode(greens.LatticeConfig(L=self.grid.L))
        key = complex(k)
        cached = self._bundles.get(key)
        if cached is not None:
            return cached
        helm = self.helmholtz_cache()
        out = {
            part: greens.gper_helmholtz(
                k, self.grid.L, self.laplace[part], helm[part], tol=self.tol, want_grad=True
            )
            for part in ("dir", "img")
        }
        if len(self._bundles) >= 2:
            self._bundles.pop(next(iter(self._bundles)))
        self._bundles[key] = out
        return out

    # -- the two Nystrom bodies ---------------------------------------------

    def _single_layer(self, bundle, log_coef):
        """S from a kernel bundle; log_coef(b) is the log factor A on block b."""
        grid = self.grid
        val = self._difference(bundle, 0)
        mat = self.w_t * val
        for j in range(grid.n_res):
            b = grid.block(j)
            a_blk = log_coef(b)
            block_val = val[b, b] - a_blk * self.lnsin
            # the kernel diagonal holds the smooth remainder of the direct part minus the image
            diag = np.log(np.pi * grid.speed[b] / grid.L) / (2.0 * np.pi) + np.diagonal(val[b, b])
            np.fill_diagonal(block_val, diag)
            mat[b, b] = self.kress * a_blk + self.w_t * block_val
        return _finite(mat * grid.speed[None, :])

    def _adjoint_double_layer(self, bundle, log_coef):
        """K* from a kernel bundle; log_coef(b) is the log factor A on block b."""
        grid = self.grid
        _, gl_img, gd_img = bundle["img"]
        nx = grid.normals[:, 0, None]
        ny = grid.normals[:, 1, None]
        ker = nx * self._difference(bundle, 1) + ny * self._difference(bundle, 2)
        # on the diagonal the direct part tends to curvature / (4 pi)
        diag = grid.curvature * _INV_4PI - (
            grid.normals[:, 0] * gl_img[self._diag] + grid.normals[:, 1] * gd_img[self._diag]
        )
        np.fill_diagonal(ker, diag)
        mat = self.w_t * ker
        for j in range(grid.n_res):
            b = grid.block(j)
            a_blk = log_coef(b)
            block_val = ker[b, b] - a_blk * self.lnsin
            np.fill_diagonal(block_val, diag[b])
            mat[b, b] = self.kress * a_blk + self.w_t * block_val
        return _finite(mat * grid.speed[None, :])

    # -- the four operators ------------------------------------------------

    def single_layer_laplace(self) -> np.ndarray:
        return self._single_layer(self.laplace, lambda b: _INV_4PI)

    def single_layer_helmholtz(self, k: complex) -> np.ndarray:
        def log_coef(b):
            return _INV_4PI * _j0_small(k * np.hypot(*self._block_separations(b)))

        return self._single_layer(self._kernel_bundle(k), log_coef)

    def adjoint_double_layer_laplace(self) -> np.ndarray:
        return self._adjoint_double_layer(self.laplace, lambda b: 0.0)

    def adjoint_double_layer_helmholtz(self, k: complex) -> np.ndarray:
        normals = self.grid.normals

        def log_coef(b):
            zl, dd = self._block_separations(b)
            zdotnu = zl * normals[b, 0, None] + dd * normals[b, 1, None]
            return -(k * k * _INV_4PI) * _j1c_small(k * np.hypot(zl, dd)) * zdotnu

        return self._adjoint_double_layer(self._kernel_bundle(k), log_coef)


def _finite(mat):
    if not np.all(np.isfinite(mat)):
        raise ValueError("operator matrix contains non-finite entries")
    return mat


def solve_density(a: np.ndarray, rhs, residual_tol: float = 1e-10):
    """Direct dense solve a @ x = rhs with a residual guarantee.

    ``rhs`` may carry multiple right-hand sides as columns; they share one
    pivoted LU factorization.  Raises SingularOperatorError when the
    infinity-norm residual of any column, relative to that column's own
    max|rhs|, exceeds ``residual_tol``.
    """
    rhs = np.asarray(rhs)
    try:
        lu, piv = sla.lu_factor(a)
        x = sla.lu_solve((lu, piv), rhs)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SingularOperatorError(f"dense solve failed: {exc}") from None
    if not np.all(np.isfinite(x)):
        raise SingularOperatorError(
            "dense solve produced non-finite values", cond=np.linalg.cond(a)
        )
    resid = np.abs(a @ x - rhs).max(axis=0)
    scale = np.maximum(np.abs(rhs).max(axis=0), np.finfo(float).tiny)
    worst = np.max(resid / scale)
    if not np.isfinite(worst) or worst > residual_tol:
        cond = np.linalg.cond(a)
        raise SingularOperatorError(
            f"solve residual {worst:.3e} exceeds {residual_tol:.1e}", cond=cond
        )
    return x


def evaluate_single_layer(grid, density, targets, k=None, tol: float = 1e-12):
    """Evaluate S[density] at off-boundary target points; k=None is Laplace."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    cfg = greens.LatticeConfig(L=grid.L, tol=tol)
    x = targets[:, None, :]
    y = grid.nodes[None, :, :]
    if k is None:
        g = greens.laplace_gs(x, y, cfg)
    else:
        g = greens.helmholtz_gs(x, y, greens.WaveParams(k=k), cfg)
    out = g @ (np.asarray(density) * grid.weights)
    return out if out.size > 1 else out[0]
