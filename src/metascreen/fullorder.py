"""Full-order boundary-integral solver for the periodic scattering problem.

This is the validation oracle for the reduced-order model.  At normal
incidence the total field is represented by single-layer potentials.
Inside resonator j it is the free-space single layer at the interior
wavenumber k_b = omega / v_b on the boundary of resonator j alone
(layerpot.free_space_kernel): a bounded resonator needs no lattice and no
wall.  Outside, it is the periodic sound-soft single layer at the exterior
wavenumber k_m = omega / v_m on every boundary.  Imposing the transmission
conditions yields the 2x2 block system

    [ S_0^{k_b}            -S^{k_m}                ] [phi    ]   [u_tilde          ]
    [ (-I/2 + K*_0^{k_b})  -delta (I/2 + K*^{k_m}) ] [phi_ext] = [delta du_tilde/dnu],

where S_0 and K*_0 are block diagonal (AssemblyContext.interior_helmholtz)
and u_tilde = -2i sin(omega tau_m x_d) already folds the bare-wall
reflection into the incident trace.  The reflection coefficient of the single
propagating mode follows from the exterior density by one quadrature.

``sweep`` owns the frequency loop.  In the single-mode band r(omega) is
meromorphic (its poles are the complex resonances), so a rational fit of a few
direct solves reproduces it at the other samples.  The sweep fits AAA
(Nakatsukasa, Sete, Trefethen, SIAM J. Sci. Comput. 40, 2018) to the solved
samples, solves next where that fit and the _FOLDS fold fits disagree most
(fold j leaves out every _FOLDS-th solved sample, in omega order, from the
j-th on), and stops when that validation solve and every fold-fit
disagreement are within SWEEP_TOL; otherwise it solves every sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import greens, layerpot
from .geometry import BoundaryGrid
from .rom import MaterialParams

__all__ = [
    "SWEEP_TOL",
    "ScatteringSolution",
    "Sweep",
    "check_band",
    "incident_trace",
    "solve_scattering",
    "sweep",
    "total_field",
]

_RESIDUAL_TOL = 1e-9  # largest relative residual of the scattering solve
# A sweep certifies its rational fit when the fit is within SWEEP_TOL of a
# validation solve and of every fold fit at every unsolved sample; absolute,
# as |r| <= 1.
SWEEP_TOL = 3e-11
_SWEEP_START = 8  # direct solves before the first fit, spread like Chebyshev points
_FOLDS = 5  # fold fits per step; each leaves out every _FOLDS-th solved sample
_AAA_TOL = 1e-13  # AAA adds support points until its residual on the samples is this small


@dataclass(frozen=True)
class ScatteringSolution:
    """Densities of one frequency solve plus the derived reflection."""

    omega: float
    phi: np.ndarray  # interior density
    phi_ext: np.ndarray  # exterior density
    r: complex


def check_band(materials: MaterialParams, omega_min: float, omega_max: float, L: float) -> None:
    """ValueError unless the incidence is normal, omega_min > 0 and k_m, k_b at omega_max are single-mode.

    solve_scattering and incident_trace check their own omega; a sweep checks its band before any set-up.
    """
    if materials.theta_d != 1.0:
        raise ValueError("oblique incidence unsupported in the full-order solver")
    if not omega_min > 0:
        raise ValueError(f"frequency must be positive, got omega = {omega_min:g}")
    lattice = greens.LatticeConfig(L=L)
    for v in (materials.v_m, materials.v_b):
        greens.WaveParams(k=omega_max / v).check_single_mode(lattice)


def incident_trace(grid: BoundaryGrid, omega: float, materials: MaterialParams):
    """Boundary values and normal derivative of u_tilde = -2i sin(omega tau_m x_d)."""
    check_band(materials, omega, omega, grid.L)
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
    """Assemble and solve the coupled transmission system at one frequency.

    The solve is layerpot.solve_density at a relative residual tolerance of
    _RESIDUAL_TOL, so a singular system, a non-finite solution or a residual
    above it raises SingularOperatorError.
    """
    u, dudn = incident_trace(grid, omega, materials)  # checks omega before any set-up
    km = omega / materials.v_m
    kb = omega / materials.v_b

    ctx = context if context is not None else layerpot.AssemblyContext(grid)
    S_b, K_b = ctx.interior_helmholtz(kb)
    S_m = ctx.single_layer_helmholtz(km)
    K_m = ctx.adjoint_double_layer_helmholtz(km)

    n = grid.n_total
    eye = np.eye(n)
    delta = materials.delta
    A = np.empty((2 * n, 2 * n), dtype=complex)
    A[:n, :n] = S_b
    A[:n, n:] = -S_m
    A[n:, :n] = -0.5 * eye + K_b
    A[n:, n:] = -delta * (0.5 * eye + K_m)
    b = np.concatenate([u, delta * dudn])

    x = layerpot.solve_density(A, b, tol=_RESIDUAL_TOL)
    phi, phi_ext = x[:n], x[n:]
    r = _reflection_from_density(grid, omega, materials, phi_ext)
    return ScatteringSolution(omega=omega, phi=phi, phi_ext=phi_ext, r=r)


def _reflection_from_density(grid, omega, materials, phi_ext):
    """r = -1 - oint sin(omega tau_m y_d) phi_ext / (omega tau_m |Y|) dsigma."""
    km = omega * materials.tau_m
    yd = grid.nodes[:, 1]
    integ = np.sum(np.sin(km * yd) * phi_ext * grid.weights)
    return complex(-1.0 - integ / (km * grid.L))


@dataclass(frozen=True)
class Sweep:
    """Reflection over a frequency sweep and how it was obtained.

    ``r[solved]`` are direct solve_scattering values; the other entries come
    from the certified rational fit.  The certificate is ``check``, the
    fit's error at the last (validation) solve, and ``spread``, the largest
    gap between the fit and its fold fits at the samples the fit gives; both
    are at most SWEEP_TOL, and None when every frequency was solved, for the
    ``reason`` given.
    """

    r: np.ndarray
    solved: np.ndarray  # bool, one per frequency
    check: float | None = None
    spread: float | None = None
    reason: str = ""

    def describe(self) -> str:
        """One line: solve count and the certificate, or why every frequency was solved."""
        n = len(self.r)
        head = f"{int(self.solved.sum())} of {n} frequencies solved"
        if self.check is not None:
            return (
                f"{head}, rational fit certified to {SWEEP_TOL:.0e} "
                f"(validation solve {self.check:.1e}, fold fits within {self.spread:.1e})"
            )
        return f"{head}: {self.reason}"


def _aaa(z, f, at):
    """Values at ``at`` of the AAA rational fit of values f at real points z.

    Greedy support selection stops at an absolute residual of _AAA_TOL on the
    remaining points, or when they are no more than the support points (the
    weights are then no longer determined by least squares).
    """
    resid = f - f.mean()
    rest = np.ones(len(z), dtype=bool)
    support = []
    while True:
        j = int(np.argmax(np.where(rest, np.abs(resid), -1.0)))
        support.append(j)
        rest[j] = False
        cauchy = 1.0 / (z[rest, None] - z[support])
        loewner = (f[rest, None] - f[support]) * cauchy
        w = np.linalg.svd(loewner, full_matrices=False)[2][-1].conj()
        resid[rest] = f[rest] - (cauchy @ (w * f[support])) / (cauchy @ w)
        if np.abs(resid[rest]).max() <= _AAA_TOL or rest.sum() <= len(support):
            cauchy = 1.0 / (at[:, None] - z[support])
            return (cauchy @ (w * f[support])) / (cauchy @ w)


def sweep(
    grid: BoundaryGrid,
    omegas,
    materials: MaterialParams,
    context: layerpot.AssemblyContext,
) -> Sweep:
    """Reflection at every omega from direct solves and a certified rational fit.

    Solves _SWEEP_START samples spread like Chebyshev points, then repeats:
    fit AAA to the solved samples and to each of _FOLDS folds of them (fold
    j is the solved samples in omega order without every _FOLDS-th one from
    the j-th on), solve the unsolved sample where a fold fit strays furthest
    from the full fit, and stop when the full fit is within SWEEP_TOL of that
    solve and of every fold fit at every unsolved sample.
    The full fit then gives r at the unsolved samples.  A fit that never
    certifies ends with every sample solved.  Only r is kept per solve.
    """
    omegas = np.asarray(omegas, dtype=float)
    n = len(omegas)
    r = np.empty(n, dtype=complex)
    solved = np.zeros(n, dtype=bool)

    def solve(i):
        r[i] = solve_scattering(grid, omegas[i], materials, context=context).r
        solved[i] = True

    # sorts and differences rather than np.unique, whose first call imports numpy.ma
    order = np.argsort(omegas, kind="stable")
    if n <= _SWEEP_START or np.any(np.diff(omegas[order]) == 0):
        for i in range(n):
            solve(i)
        if n <= _SWEEP_START:
            return Sweep(r=r, solved=solved, reason=f"too few to fit (at most {_SWEEP_START})")
        return Sweep(r=r, solved=solved, reason="repeated frequencies")
    cheb = np.cos(np.pi * np.arange(_SWEEP_START) / (_SWEEP_START - 1))
    start = np.sort(np.rint((n - 1) * (1 - cheb) / 2).astype(int))
    for i in start[np.diff(start, prepend=-1) > 0]:
        solve(order[i])
    lo, hi = omegas[order[0]], omegas[order[-1]]
    x = (2 * omegas - lo - hi) / (hi - lo)

    while True:
        s, u = order[solved[order]], np.flatnonzero(~solved)
        pred = _aaa(x[s], r[s], x[u])
        folds = (np.delete(s, np.s_[j::_FOLDS]) for j in range(_FOLDS))
        gap = np.max([np.abs(_aaa(x[f], r[f], x[u]) - pred) for f in folds], axis=0)
        k = int(np.argmax(gap))
        solve(u[k])
        if len(u) == 1:
            reason = f"the rational fit did not certify to {SWEEP_TOL:.0e}"
            return Sweep(r=r, solved=solved, reason=reason)
        check = abs(pred[k] - r[u[k]])
        if max(check, gap[k]) <= SWEEP_TOL:
            rest = np.arange(len(u)) != k
            r[u[rest]] = pred[rest]
            return Sweep(r=r, solved=solved, check=float(check), spread=float(gap[rest].max()))


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
    """Total field at one off-boundary point (inside or outside the resonators).

    Inside resonator j it is the free-space single layer of phi on the
    boundary of j alone; outside, the periodic single layer of phi_ext plus
    u_tilde.  The field is L-periodic in x_l: x is first moved into the cell
    [-L/2, L/2], which holds every resonator (validate_geometry).
    """
    x = np.array(x, dtype=float)
    x[0] -= grid.L * np.round(x[0] / grid.L)
    if np.min(np.hypot(*(grid.nodes - x).T)) < 1e-9:
        raise ValueError("evaluation point lies on a resonator boundary")
    omega = sol.omega
    kb = omega / materials.v_b
    km = omega / materials.v_m
    j = _inside_which(grid, x)
    if j is not None:
        return complex(layerpot.evaluate_interior_single_layer(grid, j, sol.phi, x[None, :], kb))
    u_t = -2j * np.sin(omega * materials.tau_m * x[1])
    return complex(
        layerpot.evaluate_single_layer(grid, sol.phi_ext, x[None, :], k=km) + u_t
    )
