"""Hadamard shape-derivative densities and parametric gradients.

Every derivative is carried as a density g on the boundary nodes; pairing it
with a deformation field theta gives

    J'(D; theta) = sum_k g(x_k) (theta(x_k) . nu(x_k)) w_k

with the shared trapezoid weights w_k.  The densities come from the boundary
density representations of the capacitance derivatives:

    g^C_ij = psi_i K*[psi_j] + psi_j K*[psi_i]
    g^V_ij = chi_i chi_j
    g^m_j  = psi_j K*[psi_tilde] + psi_tilde K*[psi_j] - nu_d psi_j

with the Laplace adjoint double layer K*, applied once to [psi | psi_tilde].
g^V is the indicator of the node's own resonator b, so it is never stored:
first-order eigenpair perturbation reads u_i^T g^V u_j as u_i[b] u_j[b].
The chain rule then maps each density onto the Fourier design parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layerpot, rom
from .capacitance import CapacitanceData, relative_gap
from .geometry import fourier_order, params_per_shape, velocity_field
from .rom import RomModel, band_quadrature, lambda_of_omega

__all__ = [
    "DegenerateSpectrumError",
    "ShapeGradients",
    "gradient_densities",
    "grad_reflection",
    "grad_objective_ref",
    "grad_objective_res",
    "parametric_gradient",
    "normal_velocities",
]

# relative eigenvalue gap below which eigenpair derivatives are refused
DEGENERATE_GAP_REFUSE = 1e-8


class DegenerateSpectrumError(ValueError):
    """Eigenpair shape derivatives are undefined for (nearly) repeated modes."""


@dataclass(frozen=True)
class ShapeGradients:
    """All modal densities for one geometry (node-indexed leading axis)."""

    gC: np.ndarray  # (n, N, N)
    gm: np.ndarray  # (n, N)
    glam0: np.ndarray  # (n, N)
    gu: np.ndarray  # (n, N_modes, N_components)
    glam1: np.ndarray  # (n, N)


def grad_eigs(cap: CapacitanceData, gC):
    """Densities of the eigenpairs: g^lam0_j and the eigenvector field g^u_j.

    g^lam0_j = u_j^T (g^C - lam_j g^V) u_j,
    g^u_j = sum_{i != j} [u_i^T (g^C - lam_j g^V) u_j / (lam_j - lam_i)] u_i
            - (1/2) (u_j^T g^V u_j) u_j,

    where u_i^T g^V(x) u_j = u_i[b] u_j[b] on the boundary of resonator b.
    Refuses nearly degenerate spectra (the formulas divide by lam_j - lam_i).
    """
    lam, u = cap.lam, cap.u
    gap = relative_gap(lam)
    if gap < DEGENERATE_GAP_REFUSE:
        raise DegenerateSpectrumError(
            f"degenerate spectrum (relative gap {gap:.2e} < {DEGENERATE_GAP_REFUSE:g})"
        )
    ub = u[cap.grid.block_index()]  # ub[x, i]: component of u_i on the node's resonator
    uv = ub[:, :, None] * ub[:, None, :]  # u_i^T g^V(x) u_j
    # uq[x, i, j] = u_i^T g^C(x) u_j
    uq = np.einsum("ai,xaj->xij", u, np.einsum("xab,bj->xaj", gC, u))
    glam0 = np.einsum("xjj->xj", uq) - lam * (ub * ub)
    den = lam[None, :] - lam[:, None]  # lam_j - lam_i
    np.fill_diagonal(den, np.inf)
    coef = np.swapaxes((uq - lam * uv) / den, 1, 2)  # coef[x, j, i]
    gu = coef @ u.T - 0.5 * (ub * ub)[:, :, None] * u.T
    return glam0, gu


def grad_radiative_widths(cap: CapacitanceData, gu, gm, materials):
    """g^lam1_j = (2 tau_m (m^T u_j) / |Y|) (m^T g^u_j + u_j^T g^m)."""
    mtu = cap.m @ cap.u
    m_gu = np.einsum("b,xjb->xj", cap.m, gu)
    u_gm = gm @ cap.u
    return (2.0 * materials.tau_m / cap.grid.L) * mtu[None, :] * (m_gu + u_gm)


def gradient_densities(cap: CapacitanceData, materials, kstar=None) -> ShapeGradients:
    """All modal Hadamard densities for one geometry in one pass.

    K* is applied once, to the stacked densities [psi | psi_tilde]; g^C and
    g^m are both read from that product.
    """
    grid = cap.grid
    if kstar is None:
        kstar = layerpot.AssemblyContext(grid).adjoint_double_layer_laplace()
    psi, psi_t = cap.psi, cap.psi_tilde
    kk = kstar @ np.column_stack([psi, psi_t])
    kp, kpt = kk[:, :-1], kk[:, -1]
    gC = psi[:, :, None] * kp[:, None, :] + psi[:, None, :] * kp[:, :, None]
    gm = psi * kpt[:, None] + psi_t[:, None] * kp - grid.normals[:, 1][:, None] * psi
    glam0, gu = grad_eigs(cap, gC)
    glam1 = grad_radiative_widths(cap, gu, gm, materials)
    return ShapeGradients(gC=gC, gm=gm, glam0=glam0, gu=gu, glam1=glam1)


def _reflection_weights(model: RomModel, omega):
    """Per-mode weights (c0, c1) with g^r = g^lam0 c0 + g^lam1 c1 at each omega.

    g^r is linear in the eigenvalue densities:

        g^r = - sum_j 2 i omega [(lam_j - lam(omega)) g^lam1_j - lam1_j g^lam0_j]
              / (lam_j - i omega lam1_j - lam(omega))^2,

    so c0_j = 2 i omega lam1_j / den_j^2 and c1_j = -2 i omega (lam_j - lam(omega)) / den_j^2.
    The weights carry the omega axes first and the mode axis last.
    """
    om = np.asarray(omega, dtype=float)[..., None]
    lam_w = lambda_of_omega(model.materials, om)
    scale = 2j * om / rom.modal_denominators(model, omega) ** 2
    return scale * model.lam1, -scale * (model.lam - lam_w)


def grad_reflection(model: RomModel, grads: ShapeGradients, omega):
    """Complex density of r(omega) at one frequency (see _reflection_weights)."""
    c0, c1 = _reflection_weights(model, float(omega))
    return grads.glam0 @ c0 + grads.glam1 @ c1


def grad_objective_ref(model: RomModel, grads: ShapeGradients, band, n_quad: int = 64):
    """Real density of the band-averaged reflectance J^ref.

    g^ref = (2 / (omega_max - omega_min)) int Re(conj(r) g^r) domega, on the
    same Gauss-Legendre nodes as the objective value.  g^r is linear in
    g^lam0 and g^lam1, so the quadrature is applied to the per-mode weights
    and each density is contracted once.
    """
    nodes, weights = band_quadrature(band, n_quad)
    r = rom.reflection_rom(model, nodes)
    c0, c1 = _reflection_weights(model, nodes)
    wr = weights * np.conj(r)
    out = grads.glam0 @ np.real(wr @ c0) + grads.glam1 @ np.real(wr @ c1)
    return 2.0 * out / (band[1] - band[0])


def grad_objective_res(model: RomModel, grads: ShapeGradients, targets):
    """Real density of the resonance-matching objective J^res.

    g^res = (2/M) sum_j [ (lam_j/Re lam(w_j*) - 1) g^lam0_j / Re lam(w_j*)
                        + (w_j* lam1_j/Im lam(w_j*) - 1) w_j* g^lam1_j / Im lam(w_j*) ].

    Targets are assigned to the M lowest modes in ascending order.
    """
    targets = np.asarray(targets, dtype=float)
    t1, t2, lam_w = rom.resonance_defects(model, targets)
    m_t = len(targets)
    c0 = t1 / np.real(lam_w)
    c1 = t2 * targets / np.imag(lam_w)
    out = grads.glam0[:, :m_t] @ c0 + grads.glam1[:, :m_t] @ c1
    return (2.0 / m_t) * out


def normal_velocities(grid) -> np.ndarray:
    """theta_p . nu at every node for every design parameter (params x nodes).

    Velocity fields vanish outside their own resonator, so the matrix is
    block sparse; rows follow the per-shape layout of shapes_to_params.
    """
    npp = params_per_shape(fourier_order(grid.shapes))
    out = np.zeros((grid.n_res, npp, grid.n_total))
    t = grid.t[: grid.n_pts]
    for j, p in enumerate(grid.shapes):
        b = grid.block(j)
        nu = grid.normals[b]
        for q in range(npp):
            theta = velocity_field(p, q, t)
            out[j, q, b] = np.einsum("ki,ki->k", theta, nu)
    return out.reshape(-1, grid.n_total)


def parametric_gradient(density, grid, velocities=None):
    """Chain rule onto the design vector: dJ/dp = sum_k g (theta_p . nu) w_k.

    ``density`` has the node axis first and may be scalar, vector or matrix
    valued (complex allowed); the result prepends the parameter axis.
    """
    vel = velocities if velocities is not None else normal_velocities(grid)
    return np.tensordot(vel * grid.weights[None, :], np.asarray(density), axes=(1, 0))
