"""Periodic half-space Green's functions for the sound-soft wall.

The lattice is one-dimensional with period L, the wall sits at x_d = 0, and
only normal incidence (quasi-momentum alpha = 0) is supported.  The sound-soft
kernel is the image difference

    G_s(x, y) = G_per(x - y) - G_per(x - y*),      y* = (y_l, -y_d),

so any additive normalization constant of G_per cancels.  The Laplace kernel
has the closed form

    G_per(z) = (1/4pi) ln(sinh^2(pi z_d / L) + sin^2(pi z_l / L)) + ln(4)/(4pi),

where the constant makes it equal to the spectral mode sum.  The Helmholtz
kernel is evaluated by Kummer subtraction against the Laplace kernel: the
propagating mode is exact, and the evanescent mode differences are summed with
their large-mode expansion through order k^6 removed and restored in closed
form via polylogarithms Li_1..Li_7 (zeta-series evaluation, valid for
|z| < L).  The remaining modal series then decays like |eta|^-9 and a few
terms reach 1e-12 even on the boundary diagonal, where the plain |eta|^-3
Kummer tail would need ~1e5 modes.  Callers check the single-mode condition
(WaveParams.check_single_mode) before evaluating the Helmholtz kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "LatticeConfig",
    "WaveParams",
    "laplace_gs",
    "laplace_gs_grad",
    "helmholtz_gs",
    "helmholtz_gs_grad",
]

_LN4_4PI = math.log(4.0) / (4.0 * math.pi)
_EULER = float(np.euler_gamma)

_MAX_ZETA_J = 120


def _build_zeta_table(max_j: int):
    """Riemann zeta at integers 7, 6, ..., 7 - max_j (argument 1 excluded)."""
    table = {}
    bern = special.bernoulli(max_j + 2)
    for v in range(7, 6 - max_j, -1):
        if v == 1:
            continue
        if v >= 2:
            table[v] = float(special.zeta(v))
        elif v == 0:
            table[v] = -0.5
        else:
            m = -v
            table[v] = -float(bern[m + 1]) / (m + 1)  # zero for even m
    return table


_ZETA = _build_zeta_table(_MAX_ZETA_J)
_HARMONIC = [0.0, 1.0, 1.5, 11.0 / 6.0, 25.0 / 12.0, 137.0 / 60.0, 49.0 / 20.0]


@dataclass(frozen=True)
class LatticeConfig:
    """Period, quasi-momentum and truncation tolerance for the mode sums."""

    L: float
    alpha: float = 0.0
    tol: float = 1e-12

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("period L must be positive")
        if abs(self.alpha) >= 2.0 * np.pi / self.L:
            raise ValueError("quasi-momentum outside the first Brillouin zone")

    @property
    def cell_measure(self) -> float:
        return self.L


@dataclass(frozen=True)
class WaveParams:
    """Complex wavenumber plus the branch bookkeeping for the mode sums.

    Branch rule: the propagating eta = 0 mode uses beta_0 = k itself (Im k >= 0
    with Re k > 0), every other mode uses gamma_n = sqrt(eta_n^2 - k^2) with
    Re gamma_n >= 0 so the mode decays away from the sources.
    """

    k: complex

    def __post_init__(self):
        k = complex(self.k)
        if k.real <= 0 or k.imag < 0:
            raise ValueError("wavenumber must satisfy Re k > 0, Im k >= 0")
        object.__setattr__(self, "k", k)

    @classmethod
    def from_speed(cls, omega: float, speed: complex) -> "WaveParams":
        return cls(k=omega / speed)

    def check_single_mode(self, cfg: LatticeConfig) -> None:
        eta1 = 2.0 * np.pi / cfg.L - abs(cfg.alpha)
        if self.k.real >= eta1:
            raise ValueError(
                f"multiple propagating modes unsupported (Re k = {self.k.real:.6g} "
                f">= {eta1:.6g})"
            )
        if abs(self.k) >= 0.95 * eta1:
            raise ValueError("wavenumber too close to the first diffraction cutoff")


def _require_normal_incidence(cfg: LatticeConfig):
    if cfg.alpha != 0.0:
        raise ValueError("oblique incidence (alpha != 0) is not implemented")


# ---------------------------------------------------------------------------
# Laplace kernel, closed form


def _closed_laplace(zl, zd, L):
    a = np.pi * zd / L
    b = np.pi * zl / L
    return np.log(np.sinh(a) ** 2 + np.sin(b) ** 2) / (4.0 * np.pi)


def _closed_laplace_grad(zl, zd, L):
    a = np.pi * zd / L
    b = np.pi * zl / L
    s = np.sinh(a) ** 2 + np.sin(b) ** 2
    gl = np.sin(2.0 * b) / (4.0 * L * s)
    gd = np.sinh(2.0 * a) / (4.0 * L * s)
    return gl, gd


def gper_laplace(zl, zd, L):
    """Periodic Laplace Green's function, spectral normalization."""
    return _closed_laplace(zl, zd, L) + _LN4_4PI


def gper_laplace_grad(zl, zd, L):
    return _closed_laplace_grad(zl, zd, L)


# ---------------------------------------------------------------------------
# Polylogarithms Li_p(e^-mu) by the zeta expansion, |mu| < 2 pi


def _polylog_series(p: int, q):
    """Direct defining series of Li_p(q); intended for |q| <= 0.5."""
    q = np.asarray(q, dtype=complex)
    maxq = float(np.max(np.abs(q))) if q.size else 0.0
    if maxq == 0.0:
        return np.zeros_like(q)
    n_terms = int(np.ceil(np.log(1e-17) / np.log(min(maxq, 0.6))))
    ns = np.arange(1, n_terms + 1)
    acc = np.zeros_like(q)
    power = np.ones_like(q)
    for n in ns:
        power = power * q
        acc = acc + power / float(n) ** p
    return acc


def _polylog_zeta(p: int, mu):
    """Zeta expansion of Li_p(e^-mu); needs |mu| < 2 pi, mu not on (-inf, 0]."""
    mu = np.asarray(mu, dtype=complex)
    ratio = float(np.max(np.abs(mu))) / (2.0 * np.pi) if mu.size else 0.0
    if ratio >= 0.97:
        raise ValueError("polylog expansion needs |mu| < 2 pi (points too far apart)")
    if ratio < 1e-300:
        n_terms = p + 2
    else:
        n_terms = int(np.ceil(np.log(1e-17) / np.log(max(ratio, 1e-17))))
        n_terms = min(max(n_terms, p + 4), _MAX_ZETA_J)
    neg_mu = -mu
    term = np.ones_like(mu)
    acc = np.zeros_like(mu)
    for j in range(n_terms + 1):
        if j != p - 1:
            acc = acc + _ZETA[p - j] * term
        term = term * neg_mu / (j + 1)
    log_mu = np.log(mu)
    extra = neg_mu ** (p - 1) / math.factorial(p - 1) * (_HARMONIC[p - 1] - log_mu)
    return acc + extra


def _polylog_exp(p: int, mu):
    """Li_p(e^-mu) for complex mu with Re mu >= 0, |mu| < 2 pi off (-inf, 0].

    Distant points (Re mu > ln 2, so |q| < 1/2) use the defining series; the
    zeta expansion covers the slowly converging near-unit-circle regime.
    """
    mu = np.asarray(mu, dtype=complex)
    if p == 1:
        return -np.log(-np.expm1(-mu))
    near = mu.real <= math.log(2.0)
    if np.all(near):
        return _polylog_zeta(p, mu)
    if not np.any(near):
        return _polylog_series(p, np.exp(-mu))
    out = np.empty_like(mu)
    out[near] = _polylog_zeta(p, mu[near])
    out[~near] = _polylog_series(p, np.exp(-mu[~near]))
    return out


def _li_stack(zl, zd, L, orders=(1, 2, 3, 4, 5, 6, 7)):
    """Li_p(q) with q = exp(2 pi i (z_l + i |z_d|) / L) for the listed orders.

    Entries with z = 0 are returned as zeta(p) (p >= 2) or inf (p = 1); the
    caller is responsible for masking coincident points.
    """
    d = np.abs(zd)
    mu = 2.0 * np.pi * (d - 1j * zl) / L
    mu = np.asarray(mu, dtype=complex)
    zero = np.abs(mu) == 0.0
    any_zero = bool(np.any(zero))
    safe = np.where(zero, 1.0, mu) if any_zero else mu
    out = {}
    for p in orders:
        li = _polylog_exp(p, safe)
        if any_zero:
            li = np.where(zero, _ZETA[p] if p >= 2 else np.inf, li)
        out[p] = li
    return out


# ---------------------------------------------------------------------------
# Helmholtz kernel via Kummer subtraction


def subtracted_combos(zl, zd, L):
    """Wavenumber-independent polylog combinations for the Kummer subtraction.

    Returns the nine arrays pairing with the k^2/2, k^4/8 and k^6/48 groups of
    the correction value (Ca..Cc), its z_l gradient (Da..Dc) and its |z_d|
    gradient (Ea..Ec).  Entries at z = 0 carry the valid value combos and zero
    gradient combos, so diagonals may be consumed directly for the value path.
    """
    zl = np.asarray(zl, dtype=float)
    d = np.abs(np.asarray(zd, dtype=float))
    li = _li_stack(zl, zd, L)
    fac = [None] + [(L / (2.0 * np.pi)) ** p for p in range(1, 8)]
    sig = {p: fac[p] * np.real(li[p]) for p in range(1, 8)}
    sig_s = {p: fac[p] * np.imag(li[p]) for p in range(1, 7)}
    with np.errstate(invalid="ignore"):
        d_sig1 = np.where(d == 0.0, 0.0, d * sig[1])
    d2 = d * d
    d3 = d2 * d
    return {
        "d": d,
        "Ca": d * sig[2] + sig[3],
        "Cb": d2 * sig[3] + 3.0 * d * sig[4] + 3.0 * sig[5],
        "Cc": d3 * sig[4] + 6.0 * d2 * sig[5] + 15.0 * d * sig[6] + 15.0 * sig[7],
        "Da": d * sig_s[1] + sig_s[2],
        "Db": d2 * sig_s[2] + 3.0 * d * sig_s[3] + 3.0 * sig_s[4],
        "Dc": d3 * sig_s[3] + 6.0 * d2 * sig_s[4] + 15.0 * d * sig_s[5] + 15.0 * sig_s[6],
        "Ea": d_sig1,
        "Eb": d2 * sig[2] + d * sig[3],
        "Ec": d3 * sig[3] + 3.0 * d2 * sig[4] + 3.0 * d * sig[5],
    }


def modal_closed_part(combos, k, L, want_grad=False):
    """Closed-form (polylog) part of the modal correction for wavenumber k."""
    k2 = k * k
    k4 = k2 * k2
    k6 = k4 * k2
    c2, c4, c6 = k2 / 2.0, k4 / 8.0, k6 / 48.0
    val = -(1.0 / L) * (c2 * combos["Ca"] + c4 * combos["Cb"] + c6 * combos["Cc"])
    if not want_grad:
        return val
    gl = (1.0 / L) * (c2 * combos["Da"] + c4 * combos["Db"] + c6 * combos["Dc"])
    gdd = (1.0 / L) * (c2 * combos["Ea"] + c4 * combos["Eb"] + c6 * combos["Ec"])
    return val, gl, gdd  # gdd is d/d(d); caller applies sign(z_d)


def residual_cache(zl, zd, L):
    """Geometry-only arrays reused by modal_residual across wavenumbers."""
    zl = np.asarray(zl, dtype=float)
    d = np.abs(np.asarray(zd, dtype=float))
    theta = (2.0 * np.pi / L) * zl
    d_b = np.broadcast_to(d, np.broadcast(zl, d).shape).astype(float)
    return {
        "d": d_b,
        "d2": d_b * d_b,
        "d3": d_b * d_b * d_b,
        "e1": np.exp(-(2.0 * np.pi / L) * d_b),
        "cos1": np.cos(theta),
        "sin1": np.sin(theta),
    }


def modal_residual(zl, zd, k, L, tol=1e-12, want_grad=False, n_modes=None, cache=None):
    """Residual modal series after the k^2..k^6 subtraction; |eta|^-9 decay.

    One mode at a time with running powers e1^n and Chebyshev recurrences for
    cos/sin(n theta), keeping temporaries at the pair-array size.
    """
    if cache is None:
        cache = residual_cache(zl, zd, L)
    d, d2, d3 = cache["d"], cache["d2"], cache["d3"]
    e1, cos1, sin1 = cache["e1"], cache["cos1"], cache["sin1"]
    k2 = k * k
    k4 = k2 * k2
    k6 = k4 * k2
    two_pi_L = 2.0 * np.pi / L
    dtype = complex if np.iscomplexobj(np.asarray(k2)) else float
    val = np.zeros(d.shape, dtype=dtype)
    gl = np.zeros(d.shape, dtype=dtype) if want_grad else None
    gdd = np.zeros(d.shape, dtype=dtype) if want_grad else None
    cap = n_modes if n_modes is not None else 4000
    stop_tol = tol / 4.0
    inv_L = 1.0 / L
    E = np.ones_like(e1)
    cos_nm1 = np.ones_like(cos1)
    sin_nm1 = np.zeros_like(sin1)
    cos_n = None
    converged = False
    for n in range(1, cap + 1):
        eta = two_pi_L * n
        gam = np.sqrt(eta * eta - k2)  # principal branch, Re >= 0
        E = E * e1
        if n == 1:
            cos_n, sin_n = cos1, sin1
        else:
            cos_n, cos_nm1 = 2.0 * cos1 * cos_n - cos_nm1, cos_n
            sin_n, sin_nm1 = 2.0 * cos1 * sin_n - sin_nm1, sin_n
        e_gam = np.exp(-gam * d)
        # scalar polynomial coefficients of the subtracted groups at this mode
        c0 = k2 / (2 * eta**3) + 3 * k4 / (8 * eta**5) + 15 * k6 / (48 * eta**7)
        c1 = k2 / (2 * eta**2) + 3 * k4 / (8 * eta**4) + 15 * k6 / (48 * eta**6)
        c2 = k4 / (8 * eta**3) + 6 * k6 / (48 * eta**5)
        c3 = k6 / (48 * eta**4)
        res = e_gam / gam - E / eta - E * (c0 + c1 * d + c2 * d2 + c3 * d3)
        val -= inv_L * (cos_n * res)
        worst = float(np.max(np.abs(res))) if res.size else 0.0
        if want_grad:
            gl += (inv_L * eta) * (sin_n * res)
            b1 = k2 / (2 * eta) + k4 / (8 * eta**3) + 3 * k6 / (48 * eta**5)
            b2 = k4 / (8 * eta**2) + 3 * k6 / (48 * eta**4)
            b3 = k6 / (48 * eta**3)
            resp = E - e_gam + E * (b1 * d + b2 * d2 + b3 * d3)
            gdd -= inv_L * (cos_n * resp)
            if res.size:
                worst = max(worst, float(np.max(np.abs(resp))))
        if n_modes is None and worst < stop_tol and n >= 4:
            converged = True
            break
    if n_modes is None and not converged:
        import warnings

        warnings.warn("modal correction hit the mode cap before reaching tol")
    if want_grad:
        return val, gl, gdd
    return val


def modal_correction(zl, zd, k, L, tol=1e-12, want_grad=False, n_modes=None):
    """Evanescent-mode correction C(z) = G_per^k - propagating - G_per^0.

    C(z) = -(1/L) sum_{n>=1} cos(eta_n z_l) f_n(|z_d|),
    f_n(d) = e^{-gamma_n d}/gamma_n - e^{-eta_n d}/eta_n,

    with the order k^2, k^4 and k^6 parts of f_n removed term by term and
    restored through polylogarithm closed forms, leaving an |eta|^-9 residual
    series.  Returns C or (C, dC/dz_l, dC/dz_d).
    """
    combos = subtracted_combos(zl, zd, L)
    sgn = np.sign(np.asarray(zd, dtype=float))
    if want_grad:
        val, gl, gdd = modal_closed_part(combos, k, L, want_grad=True)
        rv, rgl, rgdd = modal_residual(zl, zd, k, L, tol=tol, want_grad=True, n_modes=n_modes)
        return val + rv, gl + rgl, sgn * (gdd + rgdd)
    return modal_closed_part(combos, k, L) + modal_residual(
        zl, zd, k, L, tol=tol, n_modes=n_modes
    )


def gper_helmholtz(zl, zd, k, L, tol=1e-12, n_modes=None):
    """Periodic Helmholtz Green's function G_per^{0,k}(z), spectral normalization."""
    zl = np.asarray(zl, dtype=float)
    zl = zl - L * np.round(zl / L)
    zd = np.asarray(zd, dtype=float)
    d = np.abs(zd)
    prop = np.exp(1j * k * d) / (2j * k * L) - d / (2.0 * L)
    corr = modal_correction(zl, zd, k, L, tol=tol, n_modes=n_modes)
    return prop + gper_laplace(zl, zd, L) + corr


def gper_helmholtz_grad(zl, zd, k, L, tol=1e-12, n_modes=None):
    """Gradient of gper_helmholtz with respect to z = (z_l, z_d)."""
    zl = np.asarray(zl, dtype=float)
    zl = zl - L * np.round(zl / L)
    zd = np.asarray(zd, dtype=float)
    d = np.abs(zd)
    sgn = np.sign(zd)
    gl0, gd0 = _closed_laplace_grad(zl, zd, L)
    _, cgl, cgd = modal_correction(zl, zd, k, L, tol=tol, want_grad=True, n_modes=n_modes)
    prop_d = sgn * (np.exp(1j * k * d) - 1.0) / (2.0 * L)
    return gl0 + cgl, gd0 + cgd + prop_d


# ---------------------------------------------------------------------------
# Public sound-soft kernels


def _split_points(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != 2 or y.shape[-1] != 2:
        raise ValueError("points must have a trailing dimension of size 2")
    if np.any(x[..., 1] < 0) or np.any(y[..., 1] < 0):
        raise ValueError("points must lie in the closed upper half-space")
    zl = x[..., 0] - y[..., 0]
    zd = x[..., 1] - y[..., 1]
    zs = x[..., 1] + y[..., 1]
    return zl, zd, zs


def _check_separated(zl, zd, L):
    rl = zl - L * np.round(zl / L)
    if np.any(np.hypot(rl, zd) < 1e-14):
        raise ValueError("coincident points: use the singular quadrature path")


def laplace_gs(x, y, cfg: LatticeConfig):
    """Sound-soft periodic Laplace Green's function G_s(x, y)."""
    _require_normal_incidence(cfg)
    zl, zd, zs = _split_points(x, y)
    _check_separated(zl, zd, cfg.L)
    return _closed_laplace(zl, zd, cfg.L) - _closed_laplace(zl, zs, cfg.L)


def laplace_gs_grad(x, y, cfg: LatticeConfig):
    """Gradient in x of laplace_gs; returns an array with trailing dim 2."""
    _require_normal_incidence(cfg)
    zl, zd, zs = _split_points(x, y)
    _check_separated(zl, zd, cfg.L)
    gl1, gd1 = _closed_laplace_grad(zl, zd, cfg.L)
    gl2, gd2 = _closed_laplace_grad(zl, zs, cfg.L)
    return np.stack([gl1 - gl2, gd1 - gd2], axis=-1)


def helmholtz_gs(x, y, wave: WaveParams, cfg: LatticeConfig, n_modes=None):
    """Sound-soft periodic Helmholtz Green's function G_s^{0,k}(x, y)."""
    _require_normal_incidence(cfg)
    wave.check_single_mode(cfg)
    zl, zd, zs = _split_points(x, y)
    _check_separated(zl, zd, cfg.L)
    k, L = wave.k, cfg.L
    return gper_helmholtz(zl, zd, k, L, tol=cfg.tol, n_modes=n_modes) - gper_helmholtz(
        zl, zs, k, L, tol=cfg.tol, n_modes=n_modes
    )


def helmholtz_gs_grad(x, y, wave: WaveParams, cfg: LatticeConfig, n_modes=None):
    """Gradient in x of helmholtz_gs; returns complex array with trailing dim 2."""
    _require_normal_incidence(cfg)
    wave.check_single_mode(cfg)
    zl, zd, zs = _split_points(x, y)
    _check_separated(zl, zd, cfg.L)
    k, L = wave.k, cfg.L
    gl1, gd1 = gper_helmholtz_grad(zl, zd, k, L, tol=cfg.tol, n_modes=n_modes)
    gl2, gd2 = gper_helmholtz_grad(zl, zs, k, L, tol=cfg.tol, n_modes=n_modes)
    return np.stack([gl1 - gl2, gd1 - gd2], axis=-1)
