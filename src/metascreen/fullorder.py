"""Full-order boundary-integral solver for the periodic scattering problem.

This is the validation oracle for the reduced-order model.  At normal
incidence the total field is represented by single-layer potentials with
interior wavenumber k_b = omega / v_b and exterior wavenumber k_m = omega /
v_m; imposing the transmission conditions yields the 2x2 block system

    [ S^{k_b}            -S^{k_m}          ] [phi    ]   [u_tilde          ]
    [ (-I/2 + K*^{k_b})  -delta (I/2 + K*^{k_m}) ] [phi_ext] = [delta du_tilde/dnu],

where u_tilde = -2i sin(omega tau_m x_d) already folds the bare-wall
reflection into the incident trace.  The reflection coefficient of the single
propagating mode follows from the exterior density by one quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layerpot
from .geometry import BoundaryGrid
from .rom import MaterialParams

__all__ = [
    "ScatteringSolution",
    "incident_trace",
    "solve_scattering",
    "total_field",
]

_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class ScatteringSolution:
    """Densities of one frequency solve plus the derived reflection."""

    omega: float
    phi: np.ndarray  # interior density
    phi_ext: np.ndarray  # exterior density
    r: complex
    residual: float


def _require_normal(materials: MaterialParams):
    if materials.theta_d != 1.0:
        raise ValueError("oblique incidence unsupported in the full-order solver")


def incident_trace(grid: BoundaryGrid, omega: float, materials: MaterialParams):
    """Boundary values and normal derivative of u_tilde = -2i sin(omega tau_m x_d)."""
    _require_normal(materials)
    km = omega * materials.tau_m
    xd = grid.nodes[:, 1]
    u = -2j * np.sin(km * xd)
    dudn = -2j * km * np.cos(km * xd) * grid.normals[:, 1]
    return u, dudn


def solve_scattering(
    grid: BoundaryGrid,
    omega: float,
    materials: MaterialParams,
    context: layerpot.AssemblyContext | None = None,
) -> ScatteringSolution:
    """Assemble and solve the coupled transmission system at one frequency."""
    _require_normal(materials)
    if omega <= 0:
        raise ValueError("frequency must be positive")
    km = omega / materials.v_m
    kb = omega / materials.v_b

    ctx = context if context is not None else layerpot.AssemblyContext(grid)
    S_b = ctx.single_layer_helmholtz(kb)
    S_m = ctx.single_layer_helmholtz(km)
    K_b = ctx.adjoint_double_layer_helmholtz(kb)
    K_m = ctx.adjoint_double_layer_helmholtz(km)

    n = grid.n_total
    eye = np.eye(n)
    delta = materials.delta
    A = np.empty((2 * n, 2 * n), dtype=complex)
    A[:n, :n] = S_b
    A[:n, n:] = -S_m
    A[n:, :n] = -0.5 * eye + K_b
    A[n:, n:] = -delta * (0.5 * eye + K_m)
    u, dudn = incident_trace(grid, omega, materials)
    b = np.concatenate([u, delta * dudn])

    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise layerpot.SingularOperatorError(f"scattering solve failed: {exc}") from None
    residual = float(np.abs(A @ x - b).max() / np.abs(b).max())
    if not np.isfinite(residual) or residual > _RESIDUAL_TOL:
        raise layerpot.SingularOperatorError(
            f"scattering residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e}",
            cond=np.linalg.cond(A),
        )
    phi, phi_ext = x[:n], x[n:]
    sol = ScatteringSolution(
        omega=omega,
        phi=phi,
        phi_ext=phi_ext,
        r=_reflection_from_density(grid, omega, materials, phi_ext),
        residual=residual,
    )
    return sol


def _reflection_from_density(grid, omega, materials, phi_ext):
    """r = -1 - oint sin(omega tau_m y_d) phi_ext / (omega tau_m |Y|) dsigma."""
    km = omega * materials.tau_m
    yd = grid.nodes[:, 1]
    integ = np.sum(np.sin(km * yd) * phi_ext * grid.weights)
    return complex(-1.0 - integ / (km * grid.L))


def _inside_which(grid: BoundaryGrid, x) -> int | None:
    """Index of the resonator containing x (star-shape test), or None."""
    for j, p in enumerate(grid.shapes):
        dx = x[0] - p.center[0]
        dy = x[1] - p.center[1]
        t = np.arctan2(dy, dx)
        r, _, _ = p.radius(np.array([t]))
        if np.hypot(dx, dy) < r[0]:
            return j
    return None


def total_field(
    sol: ScatteringSolution,
    grid: BoundaryGrid,
    x,
    materials: MaterialParams,
) -> complex:
    """Total field at one off-boundary point (inside or outside the resonators)."""
    x = np.asarray(x, dtype=float)
    if np.min(np.hypot(*(grid.nodes - x).T)) < 1e-9:
        raise ValueError("evaluation point lies on a resonator boundary")
    omega = sol.omega
    kb = omega / materials.v_b
    km = omega / materials.v_m
    if _inside_which(grid, x) is not None:
        return complex(
            layerpot.evaluate_single_layer(grid, sol.phi, x[None, :], k=kb)
        )
    u_t = -2j * np.sin(omega * materials.tau_m * x[1])
    return complex(
        layerpot.evaluate_single_layer(grid, sol.phi_ext, x[None, :], k=km) + u_t
    )
