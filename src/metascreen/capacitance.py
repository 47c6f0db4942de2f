"""Periodic capacitance matrix, moment vectors and the modal eigenproblem.

These are the frequency-independent quantities of the reduced-order model:
the N Laplace densities psi_j with S[psi_j] = indicator of boundary j give

    C_ij = - oint_{dD_i} psi_j dsigma,     m_i = - oint x_d psi_i dsigma,

and the generalized eigenproblem C u_j = lambda_j V u_j (V the diagonal area
matrix) is reduced symmetrically via V^(-1/2) C V^(-1/2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla

from . import layerpot
from .geometry import BoundaryGrid

__all__ = [
    "CapacitanceData",
    "compute_capacitance",
    "compute_moments",
    "eigendecompose",
    "farfield_constant",
]

# relative eigenvalue gap below which the spectrum is treated as degenerate
DEGENERATE_GAP_WARN = 1e-10


@dataclass
class CapacitanceData:
    """Capacitance matrix, moments and eigenpairs for one grid.

    psi holds the boundary densities column-wise (node x resonator); psi_tilde
    solves S[psi_tilde] = x_d and feeds the shape-derivative formulas.  The
    eigenvectors satisfy u_i^T V u_j = delta_ij with the sign gauge that the
    largest-magnitude component of each u_j is positive.
    """

    grid: BoundaryGrid
    C: np.ndarray
    areas: np.ndarray
    psi: np.ndarray
    asymmetry: float
    m: np.ndarray | None = None
    m_hat: np.ndarray | None = None
    psi_tilde: np.ndarray | None = None
    lam: np.ndarray | None = None
    u: np.ndarray | None = None
    degenerate: bool = field(default=False)

    @property
    def V(self) -> np.ndarray:
        return np.diag(self.areas)

    @property
    def n_res(self) -> int:
        return len(self.areas)

    @property
    def cell_measure(self) -> float:
        return self.grid.cell_measure

    def min_relative_gap(self) -> float:
        if self.lam is None or len(self.lam) < 2:
            return np.inf
        gaps = np.diff(np.sort(self.lam))
        return float(np.min(gaps) / np.max(np.abs(self.lam)))


def compute_capacitance(grid: BoundaryGrid, context=None) -> CapacitanceData:
    """Solve the single-layer problems and form C (symmetrized) and V.

    The N indicator right-hand sides (psi) and the height x_d (psi_tilde)
    share one factorization of S.
    """
    ctx = context if context is not None else layerpot.AssemblyContext(grid)
    S = ctx.single_layer_laplace()
    n_res = grid.n_res
    rhs = np.zeros((grid.n_total, n_res + 1))
    for j in range(n_res):
        rhs[grid.block(j), j] = 1.0
    rhs[:, n_res] = grid.nodes[:, 1]
    sol = layerpot.solve_density(S, rhs)
    psi, psi_tilde = sol[:, :n_res], sol[:, n_res]
    w = grid.weights
    C = np.empty((n_res, n_res))
    for i in range(n_res):
        b = grid.block(i)
        C[i, :] = -w[b] @ psi[b, :]
    asym = float(np.abs(C - C.T).max() / max(np.abs(C).max(), np.finfo(float).tiny))
    C = 0.5 * (C + C.T)
    areas = grid.areas()
    return CapacitanceData(
        grid=grid, C=C, areas=areas, psi=psi, asymmetry=asym, psi_tilde=psi_tilde
    )


def compute_moments(data: CapacitanceData) -> CapacitanceData:
    """Fill in m and m_hat = C^-1 m."""
    grid = data.grid
    data.m = -(grid.nodes[:, 1] * grid.weights) @ data.psi
    data.m_hat = np.linalg.solve(data.C, data.m)
    return data


def eigendecompose(data_or_C, V=None):
    """Eigenpairs of C u = lambda V u via the symmetric reduction.

    Accepts either a CapacitanceData (filled in place) or the pair (C, V).
    Eigenvalues are ascending; each eigenvector is scaled to u^T V u = 1 and
    signed so its largest-magnitude component is positive (ties: lowest
    index), which keeps the optimizer's gauge deterministic.
    """
    if isinstance(data_or_C, CapacitanceData):
        data = data_or_C
        C, vdiag = data.C, data.areas
    else:
        data = None
        C = np.asarray(data_or_C, dtype=float)
        V = np.asarray(V, dtype=float)
        vdiag = np.diag(V) if V.ndim == 2 else V
    if np.any(vdiag <= 0):
        raise ValueError("volume matrix must have positive diagonal entries")
    isq = 1.0 / np.sqrt(vdiag)
    Wm = isq[:, None] * C * isq[None, :]
    Wm = 0.5 * (Wm + Wm.T)
    lam, wvec = sla.eigh(Wm)
    u = isq[:, None] * wvec
    for j in range(u.shape[1]):
        lead = np.argmax(np.abs(u[:, j]))
        if u[lead, j] < 0:
            u[:, j] = -u[:, j]
    if np.any(lam <= 0):
        warnings.warn("capacitance matrix is not positive definite at this resolution")
    degenerate = False
    if len(lam) > 1:
        gap = np.min(np.diff(lam)) / np.max(np.abs(lam))
        if gap < DEGENERATE_GAP_WARN:
            warnings.warn(
                f"nearly degenerate capacitance eigenvalues (relative gap {gap:.2e}); "
                "eigenpair shape derivatives are unreliable"
            )
            degenerate = True
    if data is not None:
        data.lam = lam
        data.u = u
        data.degenerate = degenerate
        return data
    return lam, u


def capacitance_pipeline(grid: BoundaryGrid, context=None) -> CapacitanceData:
    """compute_capacitance + compute_moments + eigendecompose in one call."""
    data = compute_capacitance(grid, context=context)
    compute_moments(data)
    eigendecompose(data)
    return data


def farfield_constant(data: CapacitanceData, i: int, probe_height: float, probe_lateral: float = 0.0):
    """Potential v_i = S[psi_i] at a high probe; tends to m_i / |Y|.

    Above every source the Laplace kernel reduces to -y_d/|Y| plus modes that
    decay like exp(-2 pi x_d / L), so this cross-checks psi, m and the
    Green's function together.
    """
    grid = data.grid
    if probe_height <= np.max(grid.nodes[:, 1]):
        raise ValueError("probe must sit above every boundary point")
    return complex(
        layerpot.evaluate_single_layer(
            grid, data.psi[:, i], np.array([[probe_lateral, probe_height]])
        )
    ).real
