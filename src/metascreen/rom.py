"""Reduced-order model: resonances, reflection coefficient, absorptance.

Everything frequency-dependent costs O(N) per frequency once the capacitance
quantities are known.  The modal reflection coefficient is

    r(omega) = -1 - sum_j 2 i omega lam1_j / (lam_j - i omega lam1_j - lam(omega)),

with lam(omega) = omega^2 / (delta v_b^2) and the radiative widths
lam1_j = tau_m (m^T u_j)^2 / |Y|.  The O(omega) corrections of the underlying
expansion are dropped; agreement with the full-order solver is the accuracy
contract.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .capacitance import CapacitanceData

__all__ = [
    "MaterialParams",
    "RomModel",
    "lambda_of_omega",
    "radiative_widths",
    "resonant_frequencies",
    "build_rom",
    "reflection_rom",
    "absorptance",
    "band_quadrature",
]


@dataclass(frozen=True)
class MaterialParams:
    """Wave speeds, contrast and incidence of the scattering problem.

    The time convention is e^{-i omega t}, so losses mean Im(v_b) <= 0.
    theta_d is the vertical component of the unit incidence direction
    (1 for normal incidence); tau_m = theta_d / v_m.
    """

    v_m: float = 1.0
    v_b: complex = 1.0 - 0.05j
    delta: float = 0.001
    theta_d: float = 1.0

    def __post_init__(self):
        # every failing field in one error, each message led by its field name;
        # each range is written so that NaN fails it
        v_b = complex(self.v_b)
        checks = (
            (self.v_m > 0, "v_m must be positive"),
            (v_b.real > 0, "v_b must have positive real part"),
            (v_b.imag <= 0, "v_b must have Im <= 0 (lossy convention)"),
            (0.0 < self.delta < 1.0, "delta: contrast must be in (0, 1)"),
            (0.0 < self.theta_d <= 1.0, "theta_d must be in (0, 1]"),
        )
        errors = [message for ok, message in checks if not ok]
        if errors:
            raise ValueError("; ".join(errors))
        if self.delta > 0.05:
            warnings.warn("contrast delta > 0.05: outside the asymptotic regime")
        object.__setattr__(self, "v_b", v_b)

    @property
    def tau_m(self) -> float:
        return self.theta_d / self.v_m


@dataclass(frozen=True)
class RomModel:
    """Frequency-independent modal quantities plus material constants."""

    lam: np.ndarray
    lam1: np.ndarray
    materials: MaterialParams

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        lam1 = np.asarray(self.lam1, dtype=float)
        if lam.shape != lam1.shape:
            raise ValueError("lam and lam1 must have matching shapes")
        if np.any(lam1 < -1e-15):
            raise ValueError("radiative widths must be nonnegative")
        lam.setflags(write=False)
        lam1.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "lam1", np.maximum(lam1, 0.0))

    @property
    def n_modes(self) -> int:
        return len(self.lam)


def lambda_of_omega(materials: MaterialParams, omega):
    """Material scaling lambda(omega) = omega^2 / (delta v_b^2); vectorized over omega.

    Callers holding a RomModel pass model.materials.
    """
    omega = np.asarray(omega, dtype=float)
    return omega * omega / (materials.delta * materials.v_b**2)


def radiative_widths(cap: CapacitanceData, materials: MaterialParams) -> np.ndarray:
    """lam1_j = tau_m (m^T u_j)^2 / |Y|; invariant under eigenvector sign flips."""
    mtu = cap.m @ cap.u
    return materials.tau_m * mtu**2 / cap.grid.L


def resonant_frequencies(cap: CapacitanceData, materials: MaterialParams) -> np.ndarray:
    """Leading-order complex resonances omega_j.

    omega_j = v_b sqrt(delta lam_j) - i tau_m v_b^2 (m^T u_j)^2 delta / (2 |Y|).
    For real v_b these sit in the (closed) lower half plane.
    """
    mats = materials
    mtu = cap.m @ cap.u
    lead = mats.v_b * np.sqrt(mats.delta * cap.lam.astype(complex))
    damp = 1j * mats.tau_m * mats.v_b**2 * mtu**2 * mats.delta / (2.0 * cap.grid.L)
    return lead - damp


def build_rom(cap: CapacitanceData, materials: MaterialParams) -> RomModel:
    return RomModel(lam=cap.lam.copy(), lam1=radiative_widths(cap, materials), materials=materials)


def reflection_rom(model: RomModel, omega):
    """Modal reflection coefficient r(omega); vectorized over omega.

    It does not check omega against the single-mode band: the full-order
    solver owns that rule (fullorder.check_band).
    """
    omega = np.asarray(omega, dtype=float)
    om = omega[..., None]
    den = model.lam - 1j * om * model.lam1 - lambda_of_omega(model.materials, om)
    if np.any(den == 0):
        raise ValueError("resonant singularity: modal denominator vanished")
    r = -1.0 - np.sum(2j * om * model.lam1 / den, axis=-1)
    return complex(r) if omega.ndim == 0 else r


def absorptance(r):
    """A = 1 - |r|^2 of a reflection coefficient, returned unclamped (may be slightly negative).

    Built-in abs: on a numpy scalar it is the modulus the CLI writes as abs_r,
    which can differ from np.abs in the last bit.
    """
    return 1.0 - abs(r) ** 2


def band_quadrature(band, n_quad: int):
    """Gauss-Legendre nodes and weights on [omega_min, omega_max].

    Shared by the band-averaged objective and its shape gradient so that
    finite-difference checks see one and the same discrete functional.
    Cached per (band, n_quad); the arrays are read-only.
    """
    lo, hi = band
    if not lo < hi:
        raise ValueError("band must satisfy omega_min < omega_max")
    return _band_quadrature(float(lo), float(hi), int(n_quad))


@functools.lru_cache(maxsize=16)
def _band_quadrature(lo: float, hi: float, n_quad: int):
    x, w = np.polynomial.legendre.leggauss(n_quad)
    nodes = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    weights = 0.5 * (hi - lo) * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights
