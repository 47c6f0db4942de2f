"""Periodic capacitance matrix, moment vectors and the modal eigenproblem.

These are the frequency-independent quantities of the reduced-order model:
the N Laplace densities psi_j with S[psi_j] = indicator of boundary j give

    C_ij = - oint_{dD_i} psi_j dsigma,     m_i = - oint x_d psi_i dsigma,

and the generalized eigenproblem C u_j = lambda_j V u_j (V the diagonal area
matrix) is reduced symmetrically via V^(-1/2) C V^(-1/2).  capacitance_pipeline
computes them all and is the only constructor of CapacitanceData; the three
stages it calls return plain arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import layerpot
from .geometry import BoundaryGrid

__all__ = [
    "CapacitanceData",
    "capacitance_pipeline",
    "compute_capacitance",
    "compute_moments",
    "eigendecompose",
    "farfield_constant",
    "relative_gap",
]

# relative eigenvalue gap below which the spectrum is treated as degenerate
DEGENERATE_GAP_WARN = 1e-10


@dataclass(frozen=True)
class CapacitanceData:
    """Capacitance matrix, moments and eigenpairs for one grid.

    capacitance_pipeline builds the whole object, and is the only place one
    is made.  psi holds the boundary densities column-wise (node x
    resonator); psi_tilde solves S[psi_tilde] = x_d and feeds the
    shape-derivative formulas.  The eigenvectors satisfy u_i^T V u_j =
    delta_ij with the sign gauge that the largest-magnitude component of each
    u_j is positive.
    """

    grid: BoundaryGrid
    C: np.ndarray
    areas: np.ndarray
    psi: np.ndarray
    psi_tilde: np.ndarray
    asymmetry: float
    m: np.ndarray
    lam: np.ndarray
    u: np.ndarray

    @property
    def n_res(self) -> int:
        return len(self.areas)


def relative_gap(lam) -> float:
    """Smallest spacing of the eigenvalues over the largest |lambda| (inf if N < 2)."""
    if len(lam) < 2:
        return np.inf
    return float(np.min(np.diff(np.sort(lam))) / np.max(np.abs(lam)))


def compute_capacitance(grid: BoundaryGrid, context: layerpot.AssemblyContext):
    """Solve the single-layer problems; returns (C, psi, psi_tilde, asymmetry).

    C is symmetrized and asymmetry is its relative defect before that.  The
    N indicator right-hand sides (psi) and the height x_d (psi_tilde) share
    one factorization of S.
    """
    S = context.single_layer_laplace()
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
    return 0.5 * (C + C.T), psi, psi_tilde, asym


def compute_moments(grid: BoundaryGrid, psi) -> np.ndarray:
    """Moment vector m_i = - oint x_d psi_i dsigma."""
    return -(grid.nodes[:, 1] * grid.weights) @ psi


def eigendecompose(C, areas):
    """Eigenpairs (lam, u) of C u = lambda V u, V = diag(areas), via the symmetric reduction.

    Eigenvalues are ascending; each eigenvector is scaled to u^T V u = 1 and
    signed so its largest-magnitude component is positive (ties: lowest
    index), which keeps the optimizer's gauge deterministic.
    """
    C = np.asarray(C, dtype=float)
    areas = np.asarray(areas, dtype=float)
    if np.any(areas <= 0):
        raise ValueError("volume matrix must have positive diagonal entries")
    isq = 1.0 / np.sqrt(areas)
    Wm = isq[:, None] * C * isq[None, :]
    Wm = 0.5 * (Wm + Wm.T)
    lam, wvec = np.linalg.eigh(Wm)
    u = isq[:, None] * wvec
    for j in range(u.shape[1]):
        lead = np.argmax(np.abs(u[:, j]))
        if u[lead, j] < 0:
            u[:, j] = -u[:, j]
    if np.any(lam <= 0):
        warnings.warn("capacitance matrix is not positive definite at this resolution")
    gap = relative_gap(lam)
    if gap < DEGENERATE_GAP_WARN:
        warnings.warn(
            f"nearly degenerate capacitance eigenvalues (relative gap {gap:.2e}); "
            "eigenpair shape derivatives are unreliable"
        )
    return lam, u


def capacitance_pipeline(grid: BoundaryGrid, context=None) -> CapacitanceData:
    """Build the whole CapacitanceData of a grid: C, areas, densities, m and eigenpairs.

    The context defaults to a fresh AssemblyContext of the grid.
    """
    ctx = context if context is not None else layerpot.AssemblyContext(grid)
    C, psi, psi_tilde, asymmetry = compute_capacitance(grid, ctx)
    m = compute_moments(grid, psi)
    areas = grid.areas()
    lam, u = eigendecompose(C, areas)
    return CapacitanceData(
        grid=grid, C=C, areas=areas, psi=psi, psi_tilde=psi_tilde,
        asymmetry=asymmetry, m=m, lam=lam, u=u,
    )


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
