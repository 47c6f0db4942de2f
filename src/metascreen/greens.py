"""Periodic half-space Green's functions for the sound-soft wall.

The lattice is one-dimensional with period L and the wall sits at x_d = 0.
The kernels are those of normal incidence: they carry no quasi-momentum
(Bloch phase), and no option selects one.  The sound-soft kernel is the image
difference

    G_s(x, y) = G_per(x - y) - G_per(x - y*),      y* = (y_l, -y_d),

so any additive normalization constant of G_per cancels.  The Laplace kernel
has the closed form

    G_per(z) = (1/4pi) ln(sinh^2(pi z_d / L) + sin^2(pi z_l / L)) + ln(4)/(4pi),

where the constant makes it equal to the spectral mode sum.  The Helmholtz
kernel is evaluated by Kummer subtraction against the Laplace kernel: the
propagating mode is exact, and the evanescent mode differences are summed with
their large-mode expansion through order k^6 removed and restored in closed
form via polylogarithms Li_p(e^-mu), p = 1..7, mu = 2 pi (|z_d| - i z_l) / L.
The remaining modal series then decays like |eta|^-9 and a few terms reach
1e-12 even on the boundary diagonal, where the plain |eta|^-3 Kummer tail
would need ~1e5 modes.

All seven orders come from one pass (_polylog_stack) over running powers
with precomputed coefficients, each power formed once and shared by the
orders: the zeta expansion in mu (Crandall, "Note on fast polylogarithm
computation", 2006) or the defining series in e^-mu (Wood, "The computation
of polylogarithms", Kent CS report 15-92, 1992), whichever needs fewer terms;
near pairs (Re mu <= ln 2) always take the zeta expansion.  Each pair runs to
its own term count, and the pairs are summed in cache-sized blocks sorted by
that count, so a pair's value depends on its own mu alone.  Pair separations
are minimum-image, so |Im mu| <= pi and a near pair has |mu| <= hypot(ln 2,
pi) = 3.217, which bounds the zeta expansion at 59 terms; a larger |mu| is
refused.  The zeta coefficients need no special-function library: zeta(2) ..
zeta(7) are float literals, and zeta(-m) = -B_{m+1}/(m+1) comes from exact
Bernoulli numbers, each rounded once.

The single-mode condition (WaveParams.check_single_mode) is checked by the
point kernels and by layerpot.AssemblyContext before they build any table;
gper_helmholtz itself does not check it.

gper_helmholtz is the one place this kernel and its gradient are composed.
It reads only wavenumber-independent pair tables: the closed-form Laplace
part (_closed_laplace) and the Kummer tables (kummer_tables).  The point
kernels helmholtz_gs / helmholtz_gs_grad build the tables for their point
pairs; layerpot.AssemblyContext caches them for all node pairs of a grid and
calls the same function, so point evaluation and operator assembly share
one code path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "LatticeConfig",
    "WaveParams",
    "laplace_gs",
    "laplace_gs_grad",
    "helmholtz_gs",
    "helmholtz_gs_grad",
]

_LN4_4PI = math.log(4.0) / (4.0 * math.pi)
_LN2 = math.log(2.0)
_HARMONIC = [0.0, 1.0, 1.5, 11.0 / 6.0, 25.0 / 12.0, 137.0 / 60.0, 49.0 / 20.0]


def _series_terms(ratio):
    """Terms of a power series in ``ratio`` that bring ratio^n below 1e-17.

    Takes a float or an array.  Ratios are clipped to [1e-17, 0.9]; the 372
    terms of 0.9 are more than either polylog expansion ever runs, so a pair
    with a larger ratio never takes that expansion.
    """
    return np.ceil(np.log(1e-17) / np.log(np.clip(ratio, 1e-17, 0.9))).astype(int)


# Near pairs (Re mu <= ln 2) of a minimum-image table have |Im mu| <= pi, so
# |mu| <= hypot(ln 2, pi) = 3.217 and the zeta expansion needs at most 59 terms.
_MAX_ZETA_J = int(_series_terms(math.hypot(_LN2, math.pi) / (2.0 * math.pi)))
# Far pairs (Re mu > ln 2) have |e^-mu| < 1/2: at most 57 series terms.
_MAX_SERIES_N = int(_series_terms(0.5))


# zeta(2) .. zeta(7), each the double nearest the exact value.
_ZETA_POS = {
    2: 1.6449340668482264,
    3: 1.2020569031595942,
    4: 1.0823232337111381,
    5: 1.03692775514337,
    6: 1.0173430619844492,
    7: 1.008349277381923,
}


def _bernoulli(n: int) -> list[Fraction]:
    """Exact Bernoulli numbers B_0..B_n from sum_{k<=m} C(m+1, k) B_k = 0 (m >= 1)."""
    b = [Fraction(1)]
    for m in range(1, n + 1):  # B_k = 0 for odd k > 1: those terms are skipped
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m) if b[k]) / (m + 1))
    return b


def _build_zeta_table(orders, max_j: int):
    """Coefficients of (-mu)^j / j! in Li_p(e^-mu): a row per p in ``orders``, columns j = 0..max_j.

    The entry is zeta(p - j), except H_{p-1} at j = p - 1, where the term
    also carries -ln(mu).
    """
    bern = _bernoulli(max_j)
    table = np.empty((len(orders), max_j + 1))
    for row, p in enumerate(orders):
        for j in range(max_j + 1):
            v = p - j
            if v >= 2:
                table[row, j] = _ZETA_POS[v]
            elif v == 1:
                table[row, j] = _HARMONIC[p - 1]
            elif v == 0:
                table[row, j] = -0.5
            else:
                table[row, j] = float(-bern[1 - v] / (1 - v))  # zeta(-m), zero for even m
    return table


# Both expansions are sums of running powers x^j with a coefficient table of
# a row per order p = 1..7: zeta(p - j) / j! for x = -mu, j^-p for x = e^-mu.
_ZETA_ORDERS = (1, 2, 3, 4, 5, 6, 7)
_P = np.array(_ZETA_ORDERS)
_ZETA = _build_zeta_table(_ZETA_ORDERS, _MAX_ZETA_J)
_INV_FACT = np.array([1.0 / math.factorial(j) for j in range(_MAX_ZETA_J + 1)])
_ZETA_COEF = _ZETA * _INV_FACT
_SERIES_COEF = np.zeros((7, _MAX_SERIES_N + 1))
_SERIES_COEF[:, 1:] = np.arange(1.0, _MAX_SERIES_N + 1) ** -_P[:, None]
_BLOCK = 8192  # pairs per block of the polylog pass: its (7, _BLOCK) sums stay in cache


@dataclass(frozen=True)
class LatticeConfig:
    """Period and truncation tolerance for the mode sums."""

    L: float
    tol: float = 1e-12

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("period L must be positive")


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

    def check_single_mode(self, cfg: LatticeConfig) -> None:
        eta1 = 2.0 * np.pi / cfg.L
        if self.k.real >= eta1:
            raise ValueError(
                f"multiple propagating modes unsupported (Re k = {self.k.real:.6g} "
                f">= {eta1:.6g})"
            )
        if abs(self.k) >= 0.95 * eta1:
            raise ValueError("wavenumber too close to the first diffraction cutoff")


# ---------------------------------------------------------------------------
# Laplace kernel, closed form


def _closed_laplace(zl, zd, L, want_grad=False):
    """Closed-form Laplace kernel without the ln(4)/(4 pi) constant.

    Returns the value, or (value, d/dz_l, d/dz_d) when ``want_grad``.
    """
    a = np.pi * zd / L
    b = np.pi * zl / L
    s = np.sinh(a) ** 2 + np.sin(b) ** 2
    val = np.log(s) / (4.0 * np.pi)
    if not want_grad:
        return val
    return val, np.sin(2.0 * b) / (4.0 * L * s), np.sinh(2.0 * a) / (4.0 * L * s)


# ---------------------------------------------------------------------------
# Polylogarithms Li_1..Li_7(e^-mu), one pass over the powers


def _nonzero_terms(coef):
    """Per column j of ``coef``, the (row, coefficient) pairs whose coefficient is nonzero."""
    return [[(r, c) for r, c in enumerate(col) if c] for col in coef.T.tolist()]


def _blocks(idx, counts):
    """The pairs ``idx`` in blocks of at most _BLOCK, sorted (stably) by descending term count."""
    order = idx[np.argsort(-counts[idx].astype(np.int16), kind="stable")]  # a radix sort
    for start in range(0, order.size, _BLOCK):
        sel = order[start : start + _BLOCK]
        yield sel, counts[sel]


def _power_sums(out, sel, x, n, terms, log_mu=None, log_terms=()):
    """out[r, sel[i]] = sum_{j <= n_i} c_rj x_i^j for each pair i of a block.

    ``terms[j]`` lists the (r, c_rj) with c_rj != 0.  ``n`` is descending, so
    the pairs that take term j are a prefix of the block and every update is
    an axpy on a contiguous slice; the running power x^j is one in-place
    multiply per term.  ``log_terms[j]`` = (r, c) adds c x^j ln(mu) to row r.
    """
    acc = np.zeros((7, x.size), dtype=complex)
    acc_f = acc.view(float)  # axpys with real coefficients on (re, im) pairs
    power = np.ones_like(x)
    power_f = power.view(float)
    prod = np.empty_like(x)
    tmp = np.empty(2 * x.size)
    # active[j]: the pairs with n_i >= j (a prefix), as a count of floats
    active = (2 * np.searchsorted(-n, -np.arange(n[0] + 2), side="right")).tolist()

    def axpy(r, c, src, m):
        np.multiply(src[:m], c, out=tmp[:m])
        acc_f[r, :m] += tmp[:m]

    for j in range(n[0] + 1):
        m = active[j]
        for r, c in terms[j]:
            axpy(r, c, power_f, m)
        if j < len(log_terms):
            np.multiply(power[: m // 2], log_mu[: m // 2], out=prod[: m // 2])
            axpy(*log_terms[j], prod.view(float), m)
        k = active[j + 1] // 2
        np.multiply(power[:k], x[:k], out=power[:k])
    for r in range(7):  # row by row: one scatter of the (7, block) sums is slower
        out[r, sel] = acc[r]


def _polylog_stack(mu, scale=1.0):
    """scale^p Li_p(e^-mu) for p = 1..7, stacked on a new first axis.

    ``mu`` = 2 pi (|z_d| - i z_l) / L of minimum-image pairs, so Re mu >= 0
    and |Im mu| <= pi.  Two expansions, each a sum of running powers x^j:

      * zeta (Crandall 2006), x = -mu:
            Li_p(e^-mu) = sum_j zeta(p - j) x^j / j! - x^{p-1} / (p-1)! ln(mu),
        with H_{p-1} for zeta(1) (_build_zeta_table) and at least 11 terms,
        so every order runs past its ln(mu) term;
      * the defining series, x = e^-mu: Li_p(e^-mu) = sum_{j >= 1} x^j j^-p.

    Each pair runs to its own term count, by the 1e-17 rule of _series_terms
    on |mu| / 2 pi (zeta) or |e^-mu| (series), and takes the cheaper
    expansion: zeta for Re mu <= ln 2, where a minimum-image pair needs at
    most 59 terms (a larger |mu| is refused); for Re mu > ln 2 zeta when it
    needs no more terms than the series.  The coefficient tables carry 1/j!
    and scale^p, and the pairs of each expansion are summed in cache-sized
    blocks sorted by term count.  A pair's value depends only on its own mu,
    not on the other pairs in the array or their order.  mu = 0 gives
    scale^p zeta(p), and inf for p = 1.
    """
    mu = np.asarray(mu, dtype=complex)
    flat = mu.ravel()
    s = float(scale) ** _P
    li = np.empty((7, flat.size), dtype=complex)
    zero = flat == 0.0
    li[0, zero] = np.inf
    li[1:, zero] = (s * _ZETA[:, 0])[1:, None]
    n_zeta = np.maximum(_series_terms(np.abs(flat) / (2.0 * np.pi)), 11)
    n_series = _series_terms(np.exp(-flat.real))
    series = (flat.real > _LN2) & (n_series < n_zeta)
    zeta = ~(series | zero)
    if np.any(n_zeta[zeta] > _MAX_ZETA_J):
        raise ValueError(
            "polylog zeta expansion needs |mu| <= hypot(ln 2, pi) "
            "(pair separations must be minimum-image)"
        )
    zeta_terms = _nonzero_terms(_ZETA_COEF * s[:, None])
    log_terms = [(j, -s[j] * _INV_FACT[j]) for j in range(7)]
    for sel, n in _blocks(np.flatnonzero(zeta), n_zeta):
        z = flat[sel]
        log_z = np.empty_like(z)  # from real log and arctan2: complex log is 15x slower
        np.log(np.abs(z), out=log_z.real)
        np.arctan2(z.imag, z.real, out=log_z.imag)
        _power_sums(li, sel, -z, n, zeta_terms, log_z, log_terms)
    series_terms = _nonzero_terms(_SERIES_COEF * s[:, None])
    for sel, n in _blocks(np.flatnonzero(series), n_series):
        _power_sums(li, sel, np.exp(-flat[sel]), n, series_terms)
    return li.reshape((7,) + mu.shape)


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
    li = _polylog_stack(2.0 * np.pi * (d - 1j * zl) / L, scale=L / (2.0 * np.pi))
    sig = dict(enumerate(li.real, start=1))  # (L / 2 pi)^p Re Li_p, views of the stack
    sig_s = dict(enumerate(li.imag, start=1))
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


def _group_sum(coefs, tables):
    """sum_i coefs[i] * tables[i] in a new array, through one scratch buffer."""
    out = tables[0] * coefs[0]
    tmp = np.empty_like(out)
    for c, table in zip(coefs[1:], tables[1:]):
        out += np.multiply(table, c, out=tmp)
    return out


def modal_closed_part(combos, k, L, want_grad=False):
    """Closed-form (polylog) part of the modal correction for wavenumber k.

    The k^2/2, k^4/8 and k^6/48 group scalars carry the -1/L (value) and 1/L
    (gradient) factors, so each output is three scalar-times-table products
    summed in place.
    """
    k2 = k * k
    k4 = k2 * k2
    k6 = k4 * k2
    c = (k2 / (2.0 * L), k4 / (8.0 * L), k6 / (48.0 * L))
    val = _group_sum([-x for x in c], [combos[key] for key in ("Ca", "Cb", "Cc")])
    if not want_grad:
        return val
    gl = _group_sum(c, [combos[key] for key in ("Da", "Db", "Dc")])
    gdd = _group_sum(c, [combos[key] for key in ("Ea", "Eb", "Ec")])
    return val, gl, gdd  # gdd is d/d(d); caller applies sign(z_d)


def residual_cache(zl, zd, L):
    """Geometry-only arrays reused by modal_residual across wavenumbers.

    ``zd`` may be the |z_d| table of subtracted_combos: a nonnegative float
    array of the pair shape is kept as the "d" table, not copied.
    """
    zl = np.asarray(zl, dtype=float)
    zd = np.asarray(zd, dtype=float)
    shape = np.broadcast_shapes(zl.shape, zd.shape)
    if zd.shape == shape and not np.any(np.signbit(zd)):
        d = zd
    else:
        d = np.broadcast_to(np.abs(zd), shape).copy()
    theta = (2.0 * np.pi / L) * zl
    return {
        "d": d,
        "e1": np.exp(-(2.0 * np.pi / L) * d),
        "cos1": np.cos(theta),
        "sin1": np.sin(theta),
    }


def _horner(out, d, coefs):
    """out = coefs[0] + coefs[1] d + ... + coefs[-1] d^m, in place by Horner in d."""
    np.multiply(d, coefs[-1], out=out)
    for c in coefs[-2:0:-1]:
        out += c
        out *= d
    out += coefs[0]
    return out


_RES_BLOCK = 16384  # most pairs per block of the residual series: its scratch stays in cache
_SHORT_CIS = 0.03  # |theta| up to which cos/sin(theta) take their Taylor terms through theta^7


def _exp_scaled(out, d, a, d_max, buf):
    """out = e^{a d} for a complex scalar a and a nonnegative real table d, max d <= d_max.

    The modulus e^{Re(a) d} comes from the real exp, and cos / sin of
    theta = Im(a) d from their Taylor polynomials through theta^6 / theta^7
    when |theta| <= _SHORT_CIS (the first omitted terms are below 2e-17
    relative there), else from np.cos / np.sin.  The complex exp costs two to
    three times as much.  ``buf`` holds four real scratch arrays shaped like d.
    """
    mag, theta, c, s = buf
    np.multiply(d, a.imag, out=theta)
    if abs(a.imag) * d_max <= _SHORT_CIS:
        t2 = np.multiply(theta, theta, out=mag)
        _horner(c, t2, (1.0, -1.0 / 2, 1.0 / 24, -1.0 / 720))
        _horner(s, t2, (1.0, -1.0 / 6, 1.0 / 120, -1.0 / 5040))
        s *= theta
    else:
        np.cos(theta, out=c)
        np.sin(theta, out=s)
    np.exp(np.multiply(d, a.real, out=mag), out=mag)
    np.multiply(mag, c, out=out.real)
    np.multiply(mag, s, out=out.imag)
    return out


def _next_chebyshev(two_c1, cur, prev, tmp):
    """prev <- 2 cos(theta) cur - prev: the next term of a cos/sin(n theta) recurrence."""
    return np.subtract(np.multiply(two_c1, cur, out=tmp), prev, out=prev)


def modal_residual(cache, k, L, tol=1e-12, want_grad=False, n_modes=None):
    """Residual modal series after the k^2..k^6 subtraction; |eta|^-9 decay.

    Reads the pair tables of residual_cache and evaluates in place, in
    buffers allocated once per call: the running power E = e1^n and the
    Chebyshev recurrences for cos/sin(n theta) are updated, and at mode n

        res  = e^{-gamma_n d} / gamma_n - E (1/eta_n + c0 + c1 d + c2 d^2 + c3 d^3),
        resp = E (1 + b1 d + b2 d^2 + b3 d^3) - e^{-gamma_n d},

    each polynomial by Horner in d.  Each mode takes the pairs in blocks of
    at most _RES_BLOCK, so its scratch stays in cache.  The sums run without
    the -1/L and 1/L factors, applied once after the loop.  For a complex k
    the tables are cast to complex once, so no ufunc call mixes real and
    complex operands.  Without ``n_modes`` the loop runs at least 4 modes and
    stops at the first whose max |res| (and |resp|) over all pairs is below
    tol / 4.
    """
    k2 = k * k
    k4 = k2 * k2
    k6 = k4 * k2
    two_pi_L = 2.0 * np.pi / L
    dtype = complex if np.iscomplexobj(np.asarray(k2)) else float
    shape = np.shape(cache["d"])
    d_real = np.ravel(cache["d"])
    d, e1, cos1, sin1 = (
        np.ravel(np.asarray(cache[key], dtype=dtype)) for key in ("d", "e1", "cos1", "sin1")
    )
    size = d.size
    n_blocks = -(-size // _RES_BLOCK)
    blocks = [slice(i * size // n_blocks, (i + 1) * size // n_blocks) for i in range(n_blocks)]
    width = -(-size // max(n_blocks, 1))
    res_, e_gam_, tmp_, tmp2_, resp_ = (np.empty(width, dtype) for _ in range(5))
    buf_ = [np.empty(width) for _ in range(4)]  # real scratch; buf[0] also takes |res|
    d_max = float(d_real.max(initial=0.0))
    val, E = np.zeros(size, dtype), np.ones(size, dtype)
    two_cos1 = 2.0 * cos1
    cos_cur, cos_prev = np.array(cos1), np.ones(size, dtype)
    if want_grad:
        gl, gdd = np.zeros(size, dtype), np.zeros(size, dtype)
        sin_cur, sin_prev = np.array(sin1), np.zeros(size, dtype)
    cap = n_modes if n_modes is not None else 4000
    check = n_modes is None
    stop_tol = tol / 4.0
    converged = False
    for n in range(1, cap + 1):
        eta = two_pi_L * n
        gam = np.sqrt(eta * eta - k2)  # principal branch, Re >= 0
        # scalar polynomial coefficients of the subtracted groups at this mode
        c0 = 1.0 / eta + k2 / (2 * eta**3) + 3 * k4 / (8 * eta**5) + 15 * k6 / (48 * eta**7)
        c1 = k2 / (2 * eta**2) + 3 * k4 / (8 * eta**4) + 15 * k6 / (48 * eta**6)
        c2 = k4 / (8 * eta**3) + 6 * k6 / (48 * eta**5)
        c3 = k6 / (48 * eta**4)
        b1 = k2 / (2 * eta) + k4 / (8 * eta**3) + 3 * k6 / (48 * eta**5)
        b2 = k4 / (8 * eta**2) + 3 * k6 / (48 * eta**4)
        b3 = k6 / (48 * eta**3)
        worst = 0.0
        for sl in blocks:
            m = sl.stop - sl.start
            res, e_gam, tmp, tmp2, resp = res_[:m], e_gam_[:m], tmp_[:m], tmp2_[:m], resp_[:m]
            buf = [b[:m] for b in buf_]
            db, Eb, vb = d[sl], E[sl], val[sl]
            Eb *= e1[sl]
            cos_n = cos_cur[sl]
            if n > 1:
                cos_n = _next_chebyshev(two_cos1[sl], cos_n, cos_prev[sl], tmp)
            if dtype is complex:
                _exp_scaled(e_gam, d_real[sl], -gam, d_max, buf)
            else:
                np.exp(np.multiply(db, -gam, out=e_gam), out=e_gam)
            _horner(res, db, (c0, c1, c2, c3))
            res *= Eb
            np.subtract(np.multiply(e_gam, 1.0 / gam, out=tmp), res, out=res)
            vb += np.multiply(res, cos_n, out=tmp)
            if check:
                worst = np.maximum(worst, np.abs(res, out=buf[0]).max())  # NaN propagates
            if not want_grad:
                continue
            sin_n = sin_cur[sl]
            if n > 1:
                sin_n = _next_chebyshev(two_cos1[sl], sin_n, sin_prev[sl], tmp)
            glb, gddb = gl[sl], gdd[sl]
            glb += np.multiply(res, np.multiply(sin_n, eta, out=tmp2), out=tmp)
            _horner(resp, db, (1.0, b1, b2, b3))
            resp *= Eb
            resp -= e_gam
            gddb += np.multiply(resp, cos_n, out=tmp)
            if check:
                worst = np.maximum(worst, np.abs(resp, out=buf[0]).max())
        if n > 1:  # the new terms were written over the previous ones
            cos_cur, cos_prev = cos_prev, cos_cur
            if want_grad:
                sin_cur, sin_prev = sin_prev, sin_cur
        if check and worst < stop_tol and n >= 4:
            converged = True
            break
    if check and not converged:
        warnings.warn("modal correction hit the mode cap before reaching tol")
    val *= -1.0 / L
    if not want_grad:
        return val.reshape(shape)
    gl *= 1.0 / L
    gdd *= -1.0 / L
    return val.reshape(shape), gl.reshape(shape), gdd.reshape(shape)


def kummer_tables(zl, zd, L):
    """Wavenumber-independent Kummer tables of G_per^k on a pair array.

    The polylog combinations (subtracted_combos), the residual-series cache
    (residual_cache, sharing the |z_d| table of the combinations) and
    sign z_d; ``zl`` must be the minimum image.
    """
    combos = subtracted_combos(zl, zd, L)
    return {
        "combos": combos,
        "rescache": residual_cache(zl, combos["d"], L),
        "sgn": np.sign(np.asarray(zd, dtype=float)),
    }


def gper_helmholtz(k, L, lap, kummer, tol=1e-12, n_modes=None, want_grad=False):
    """Periodic Helmholtz Green's function G_per^{0,k}(z), spectral normalization.

    The one composition of the kernel, used by the point kernels below and by
    the operator assembly in layerpot, from pair tables that do not depend on
    k: ``lap`` is the closed-form Laplace part, _closed_laplace(z_l, z_d, L,
    want_grad), and ``kummer`` the kummer_tables of the same pairs.  Then

        G_per^k = e^{ik|z_d|}/(2ikL) - |z_d|/(2L) + G_per^0 + C(z),
        C(z) = -(1/L) sum_{n>=1} cos(eta_n z_l) f_n(|z_d|),
        f_n(d) = e^{-gamma_n d}/gamma_n - e^{-eta_n d}/eta_n,

    where the order k^2, k^4 and k^6 parts of f_n are removed term by term and
    restored through polylogarithm closed forms (modal_closed_part), leaving
    an |eta|^-9 residual series (modal_residual).  Returns G, or
    (G, dG/dz_l, dG/dz_d) when ``want_grad``.  The sums are formed in place
    in the arrays those two return, which the caller does not see.
    """
    combos = kummer["combos"]
    d = combos["d"]
    e_ikd = np.empty(np.shape(d), dtype=complex)
    buf = [np.empty(np.shape(d)) for _ in range(4)]
    _exp_scaled(e_ikd, d, 1j * k, float(d.max(initial=0.0)), buf)
    closed = modal_closed_part(combos, k, L, want_grad=want_grad)
    resid = modal_residual(
        kummer["rescache"], k, L, tol=tol, want_grad=want_grad, n_modes=n_modes
    )
    if want_grad:
        (lv, lgl, lgd), (cv, cl, cdd), (rv, rl, rdd) = lap, closed, resid
    else:
        lv, cv, rv = lap, closed, resid
    val = e_ikd * (1.0 / (2j * k * L))
    val -= d * (0.5 / L)
    val += lv
    val += _LN4_4PI
    val += cv
    val += rv
    if not want_grad:
        return val
    cl += rl
    cl += lgl
    # the |z_d|-dependent terms pick up d|z_d|/dz_d = sign z_d
    e_ikd -= 1.0
    e_ikd *= 0.5 / L
    e_ikd += cdd
    e_ikd += rdd
    e_ikd *= kummer["sgn"]
    e_ikd += lgd
    return val, cl, e_ikd


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
    zl, zd, zs = _split_points(x, y)
    _check_separated(zl, zd, cfg.L)
    return _closed_laplace(zl, zd, cfg.L) - _closed_laplace(zl, zs, cfg.L)


def laplace_gs_grad(x, y, cfg: LatticeConfig):
    """Gradient in x of laplace_gs; returns an array with trailing dim 2."""
    zl, zd, zs = _split_points(x, y)
    _check_separated(zl, zd, cfg.L)
    _, gl1, gd1 = _closed_laplace(zl, zd, cfg.L, want_grad=True)
    _, gl2, gd2 = _closed_laplace(zl, zs, cfg.L, want_grad=True)
    return np.stack([gl1 - gl2, gd1 - gd2], axis=-1)


def _helmholtz_pairs(x, y, wave: WaveParams, cfg: LatticeConfig, n_modes, want_grad):
    """gper_helmholtz on the direct and the image separations of point pairs."""
    wave.check_single_mode(cfg)
    zl, zd, zs = _split_points(x, y)
    _check_separated(zl, zd, cfg.L)
    L = cfg.L
    zl = zl - L * np.round(zl / L)
    return [
        gper_helmholtz(
            wave.k,
            L,
            _closed_laplace(zl, z, L, want_grad=want_grad),
            kummer_tables(zl, z, L),
            tol=cfg.tol,
            n_modes=n_modes,
            want_grad=want_grad,
        )
        for z in (zd, zs)
    ]


def helmholtz_gs(x, y, wave: WaveParams, cfg: LatticeConfig, n_modes=None):
    """Sound-soft periodic Helmholtz Green's function G_s^{0,k}(x, y)."""
    direct, image = _helmholtz_pairs(x, y, wave, cfg, n_modes, want_grad=False)
    return direct - image


def helmholtz_gs_grad(x, y, wave: WaveParams, cfg: LatticeConfig, n_modes=None):
    """Gradient in x of helmholtz_gs; returns complex array with trailing dim 2."""
    (_, gl1, gd1), (_, gl2, gd2) = _helmholtz_pairs(x, y, wave, cfg, n_modes, want_grad=True)
    return np.stack([gl1 - gl2, gd1 - gd2], axis=-1)
