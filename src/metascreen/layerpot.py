"""Dense Nystrom discretization of the periodic sound-soft layer operators.

Self-interaction blocks use the Kussmaul-Martensen log-split: the kernel is
written as A(t,s) ln(4 sin^2((t-s)/2)) + B(t,s) with analytic A, B, and the
log factor is integrated with the spectrally accurate Kress weights.  Blocks
coupling different resonators (and the wall-image contributions) are smooth
and use the plain trapezoid rule with the shared weights
(2 pi / n_pts) |x'(t_k)|.

An AssemblyContext caches every wavenumber-independent pair quantity, so
frequency sweeps only pay for the k-dependent arithmetic.  The Laplace half
(minimum-image separations, closed-form kernel values and gradients, the log
quadrature) is built with the context; the Helmholtz half (the polylog
combinations and residual caches of the Kummer subtraction, distances and
z . nu) is built on the first Helmholtz operator or helmholtz_cache() call, so
Laplace-only work such as the optimizer loop and the shape gradients never
pays for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from . import greens
from .geometry import BoundaryGrid

__all__ = [
    "DenseOperator",
    "AssemblyContext",
    "SingularOperatorError",
    "assemble_single_layer",
    "assemble_adjoint_double_layer",
    "solve_density",
    "evaluate_single_layer",
    "dump_operator",
    "load_operator",
]

_INV_4PI = 1.0 / (4.0 * np.pi)
_LN4_4PI = math.log(4.0) / (4.0 * np.pi)


class SingularOperatorError(np.linalg.LinAlgError):
    """Dense solve failed or produced an untrustworthy residual."""

    def __init__(self, message, cond=None):
        self.cond = cond
        if cond is not None:
            message = f"{message} (condition estimate {cond:.3e})"
        super().__init__(message)


@dataclass(frozen=True)
class DenseOperator:
    """Nystrom matrix acting on node values of a boundary density."""

    matrix: np.ndarray
    kind: str  # "single_layer" or "adjoint_double_layer"
    k: complex | None  # None marks the Laplace kernel
    grid_id: str

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("operator matrix contains non-finite entries")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


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


class AssemblyContext:
    """Cached pairwise geometry and kernel pieces for one BoundaryGrid."""

    def __init__(self, grid: BoundaryGrid, tol: float = 1e-12):
        self.grid = grid
        self.tol = tol
        self.grid_id = grid.fingerprint()
        L = grid.L
        x = grid.nodes
        n = grid.n_total

        zl = x[:, 0, None] - x[None, :, 0]
        zl -= L * np.round(zl / L)  # minimum image; kernels are L-periodic
        dd = x[:, 1, None] - x[None, :, 1]
        di = x[:, 1, None] + x[None, :, 1]
        self.zl = zl
        self.dd = dd
        self.di = di

        eye = np.eye(n, dtype=bool)
        self.diag = eye

        # Laplace closed form; direct diagonal is singular and masked to 0
        with np.errstate(divide="ignore"):
            self.lap_dir = greens._closed_laplace(zl, dd, L)
        self.lap_dir[eye] = 0.0
        self.lap_img = greens._closed_laplace(zl, di, L)
        with np.errstate(divide="ignore", invalid="ignore"):
            gl, gd = greens._closed_laplace_grad(zl, dd, L)
        gl[eye] = 0.0
        gd[eye] = 0.0
        self.lapg_dir = (gl, gd)
        self.lapg_img = greens._closed_laplace_grad(zl, di, L)

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

    # -- kernel value/gradient matrices -----------------------------------

    def helmholtz_cache(self) -> dict:
        """Wavenumber-independent pieces only the Helmholtz operators read.

        Built on the first call and kept: the polylog combinations and
        residual caches of the Kummer subtraction for the direct and image
        kernels, |z|, sign z_d and z . nu(x_i) (the adjoint-double-layer log
        coefficient).
        """
        if self._helm is None:
            L = self.grid.L
            zl, dd, di = self.zl, self.dd, self.di
            normals = self.grid.normals
            self._helm = {
                "combos_dir": greens.subtracted_combos(zl, dd, L),
                "combos_img": greens.subtracted_combos(zl, di, L),
                "rescache_dir": greens.residual_cache(zl, dd, L),
                "rescache_img": greens.residual_cache(zl, di, L),
                "sgn_dd": np.sign(dd),
                "rr": np.hypot(zl, dd),
                "zdotnu": zl * normals[:, 0, None] + dd * normals[:, 1, None],
            }
        return self._helm

    def _kernel_bundle(self, k: complex):
        """Values and gradients of G_per^k on all node pairs, cached per k.

        One modal-residual pass serves both the single-layer and the
        adjoint-double-layer assembly at this wavenumber; the two most recent
        bundles are kept so sweeps alternating k_b / k_m stay cached.
        """
        key = complex(k)
        cached = self._bundles.get(key)
        if cached is not None:
            return cached
        L = self.grid.L
        tol = self.tol
        helm = self.helmholtz_cache()
        out = {}
        for part, zd in (("dir", self.dd), ("img", self.di)):
            combos = helm[f"combos_{part}"]
            rcache = helm[f"rescache_{part}"]
            cv, cl, cdd = greens.modal_closed_part(combos, k, L, want_grad=True)
            rv, rl, rdd = greens.modal_residual(
                self.zl, zd, k, L, tol=tol, want_grad=True, cache=rcache
            )
            d_abs = np.abs(zd)
            sgn = helm["sgn_dd"] if part == "dir" else 1.0
            e_ikd = np.exp(1j * k * d_abs)
            lap = self.lap_dir if part == "dir" else self.lap_img
            lgl, lgd = self.lapg_dir if part == "dir" else self.lapg_img
            val = e_ikd / (2j * k * L) - d_abs / (2.0 * L) + lap + _LN4_4PI + cv + rv
            gl = lgl + cl + rl
            gd = lgd + sgn * (cdd + rdd + (e_ikd - 1.0) / (2.0 * L))
            if part == "dir":
                out["diag_corr"] = np.diagonal(cv + rv).copy()
                val = val.astype(complex)
                val[self.diag] = 0.0
                gl = gl.astype(complex)
                gd = gd.astype(complex)
                gl[self.diag] = 0.0
                gd[self.diag] = 0.0
            out[f"val_{part}"] = val
            out[f"gl_{part}"] = gl
            out[f"gd_{part}"] = gd
        if len(self._bundles) >= 2:
            self._bundles.pop(next(iter(self._bundles)))
        self._bundles[key] = out
        return out

    # -- single layer -------------------------------------------------------

    def single_layer_laplace(self) -> DenseOperator:
        grid = self.grid
        val = self.lap_dir - self.lap_img
        mat = self.w_t * val
        a_const = _INV_4PI
        for j in range(grid.n_res):
            b = grid.block(j)
            block_val = val[b, b] - a_const * self.lnsin
            np.fill_diagonal(
                block_val,
                np.log(np.pi * grid.speed[b] / grid.L) / (2.0 * np.pi)
                - np.diagonal(self.lap_img[b, b]),
            )
            mat[b, b] = self.kress * a_const + self.w_t * block_val
        mat = mat * grid.speed[None, :]
        return DenseOperator(mat, "single_layer", None, self.grid_id)

    def single_layer_helmholtz(self, k: complex) -> DenseOperator:
        grid = self.grid
        L = grid.L
        bundle = self._kernel_bundle(k)
        rr = self.helmholtz_cache()["rr"]
        val = bundle["val_dir"] - bundle["val_img"]
        mat = self.w_t * val
        for j in range(grid.n_res):
            b = grid.block(j)
            a_blk = _INV_4PI * _j0_small(k * rr[b, b])
            block_val = val[b, b] - a_blk * self.lnsin
            diag = (
                1.0 / (2j * k * L)
                + np.log(np.pi * grid.speed[b] / L) / (2.0 * np.pi)
                + _LN4_4PI
                + bundle["diag_corr"][b]
                - np.diagonal(bundle["val_img"][b, b])
            )
            np.fill_diagonal(block_val, diag)
            mat[b, b] = self.kress * a_blk + self.w_t * block_val
        mat = mat * grid.speed[None, :]
        return DenseOperator(mat, "single_layer", complex(k), self.grid_id)

    # -- adjoint double layer ------------------------------------------------

    def adjoint_double_layer_laplace(self) -> DenseOperator:
        grid = self.grid
        nx = grid.normals[:, 0, None]
        ny = grid.normals[:, 1, None]
        ker = (
            nx * (self.lapg_dir[0] - self.lapg_img[0])
            + ny * (self.lapg_dir[1] - self.lapg_img[1])
        )
        diag = grid.curvature * _INV_4PI - (
            grid.normals[:, 0] * np.diagonal(self.lapg_img[0])
            + grid.normals[:, 1] * np.diagonal(self.lapg_img[1])
        )
        ker[self.diag] = diag
        mat = ker * (self.w_t * grid.speed[None, :])
        return DenseOperator(mat, "adjoint_double_layer", None, self.grid_id)

    def adjoint_double_layer_helmholtz(self, k: complex) -> DenseOperator:
        grid = self.grid
        bundle = self._kernel_bundle(k)
        helm = self.helmholtz_cache()
        rr, zdotnu = helm["rr"], helm["zdotnu"]
        nx = grid.normals[:, 0, None]
        ny = grid.normals[:, 1, None]
        ker = nx * (bundle["gl_dir"] - bundle["gl_img"]) + ny * (
            bundle["gd_dir"] - bundle["gd_img"]
        )
        diag = grid.curvature * _INV_4PI - (
            grid.normals[:, 0] * np.diagonal(bundle["gl_img"])
            + grid.normals[:, 1] * np.diagonal(bundle["gd_img"])
        )
        ker[self.diag] = diag
        mat = self.w_t * ker
        for j in range(grid.n_res):
            b = grid.block(j)
            a_blk = -(k * k * _INV_4PI) * _j1c_small(k * rr[b, b]) * zdotnu[b, b]
            block_val = ker[b, b] - a_blk * self.lnsin
            np.fill_diagonal(block_val, diag[b])
            mat[b, b] = self.kress * a_blk + self.w_t * block_val
        mat = mat * grid.speed[None, :]
        return DenseOperator(mat, "adjoint_double_layer", complex(k), self.grid_id)


def _as_wavenumber(kernel):
    if kernel is None or (isinstance(kernel, str) and kernel.lower() == "laplace"):
        return None
    if isinstance(kernel, greens.WaveParams):
        return kernel.k
    return complex(kernel)


def assemble_single_layer(grid, kernel="laplace", context: AssemblyContext | None = None):
    """Nystrom matrix of the sound-soft single-layer operator on the grid.

    ``kernel`` is "laplace", a complex wavenumber, or a WaveParams.
    """
    ctx = context if context is not None else AssemblyContext(grid)
    k = _as_wavenumber(kernel)
    if k is None:
        return ctx.single_layer_laplace()
    greens.WaveParams(k=k).check_single_mode(greens.LatticeConfig(L=grid.L))
    return ctx.single_layer_helmholtz(k)


def assemble_adjoint_double_layer(grid, kernel="laplace", context: AssemblyContext | None = None):
    """Nystrom matrix of the adjoint double-layer operator (K*) on the grid."""
    ctx = context if context is not None else AssemblyContext(grid)
    k = _as_wavenumber(kernel)
    if k is None:
        return ctx.adjoint_double_layer_laplace()
    greens.WaveParams(k=k).check_single_mode(greens.LatticeConfig(L=grid.L))
    return ctx.adjoint_double_layer_helmholtz(k)


def solve_density(op: DenseOperator, rhs, residual_tol: float = 1e-10):
    """Direct dense solve op @ x = rhs with a residual guarantee.

    ``rhs`` may carry multiple right-hand sides as columns; they share one
    pivoted LU factorization.  Raises SingularOperatorError when the
    infinity-norm residual of any column, relative to that column's own
    max|rhs|, exceeds ``residual_tol``.
    """
    rhs = np.asarray(rhs)
    a = op.matrix
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


def dump_operator(op: DenseOperator, path) -> None:
    """Debug dump; layout: b'MSOP', uint8 iscomplex, int64 n, row-major entries."""
    with open(path, "wb") as fh:
        fh.write(b"MSOP")
        fh.write(np.uint8(np.iscomplexobj(op.matrix)).tobytes())
        fh.write(np.int64(op.n).tobytes())
        fh.write(np.ascontiguousarray(op.matrix).tobytes())


def load_operator(path) -> np.ndarray:
    """Read back the matrix written by dump_operator."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"MSOP":
            raise ValueError("not an operator dump")
        is_complex = bool(np.frombuffer(fh.read(1), dtype=np.uint8)[0])
        n = int(np.frombuffer(fh.read(8), dtype=np.int64)[0])
        dtype = np.complex128 if is_complex else np.float64
        return np.frombuffer(fh.read(), dtype=dtype).reshape(n, n).copy()


def evaluate_single_layer(grid, density, targets, kernel="laplace", tol: float = 1e-12):
    """Evaluate S[density] at off-boundary target points."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    cfg = greens.LatticeConfig(L=grid.L, tol=tol)
    k = _as_wavenumber(kernel)
    x = targets[:, None, :]
    y = grid.nodes[None, :, :]
    if k is None:
        g = greens.laplace_gs(x, y, cfg)
    else:
        g = greens.helmholtz_gs(x, y, greens.WaveParams(k=k), cfg)
    out = g @ (np.asarray(density) * grid.weights)
    return out if out.size > 1 else out[0]
