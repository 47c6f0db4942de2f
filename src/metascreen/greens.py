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
propagating mode is exact, and each evanescent mode e^{-gamma_n d}/gamma_n,
gamma_n = sqrt(eta_n^2 - k^2), is expanded in k^2: its group of order k^2m
is e^{-eta_n d} k^2m / (2^m m!) sum_{j<=m} a_mj d^j eta_n^-(2m+1-j), with the
reverse Bessel coefficients a_mj = (2m-j)! / (j! (m-j)! 2^(m-j))
(_kummer_groups).  The groups m = 1..P, P = KUMMER_ORDER, are removed from
the mode sum and restored in closed form through the polylogarithms
Li_p(e^-mu), p = 1..2P+1, mu = 2 pi (|z_d| - i z_l) / L.  The remaining modal
series then decays like |eta|^-(2P+3) and a few terms reach 1e-12 even on the
boundary diagonal, where the plain |eta|^-3 Kummer tail would need ~1e5
modes.  KUMMER_ORDER is the one place the order is set: the group tables, the
polylog orders and the residual polynomials are all derived from it at
import.

All 2P+1 orders come from one pass (_polylog_stack) over running powers
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
zeta(7) are float literals, the harmonic numbers are exact fractions, and
zeta(-m) = -B_{m+1}/(m+1) comes from exact Bernoulli numbers, each rounded
once.

The single-mode condition (WaveParams.check_single_mode) is checked by the
point kernels and by layerpot.AssemblyContext before they build any table,
and by fullorder.check_band for a whole band before any set-up;
gper_helmholtz itself does not check it.

gper_helmholtz is the one place this kernel and its gradient are composed.
It reads only the wavenumber-independent pair tables of kummer_tables, their
one builder: the closed-form Laplace part (_closed_laplace), the polylog
combinations, the residual-series cache and sign z_d.  The point kernels
helmholtz_gs / helmholtz_gs_grad build them for their point pairs;
layerpot.AssemblyContext builds them once for all node pairs of a grid and
calls the same function, so point evaluation and operator assembly share
one code path.
"""

from __future__ import annotations

import functools
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

# The Kummer subtraction removes the groups k^2 .. k^(2 KUMMER_ORDER) of each
# evanescent mode; the closed part then reads Li_1 .. Li_(2 KUMMER_ORDER + 1).
KUMMER_ORDER = 3
_N_LI = 2 * KUMMER_ORDER + 1

_LN4_4PI = math.log(4.0) / (4.0 * math.pi)
_LN2 = math.log(2.0)


@functools.lru_cache(maxsize=8)
def harmonic_numbers(n: int) -> tuple[float, ...]:
    """H_0 .. H_(n - 1), each the double nearest the exact value; kept per n."""
    exact, out = Fraction(0), [0.0]
    for m in range(1, n):
        exact += Fraction(1, m)
        out.append(float(exact))
    return tuple(out[:n])


_HARMONIC = harmonic_numbers(_N_LI)


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


# zeta(2) .. zeta(7), each the double nearest the exact value: enough for
# KUMMER_ORDER <= 3 (a larger order fails at import, in _build_zeta_table).
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
# a row per order p = 1.._N_LI: zeta(p - j) / j! for x = -mu, j^-p for x = e^-mu.
_ZETA_ORDERS = tuple(range(1, _N_LI + 1))
_P = np.array(_ZETA_ORDERS)
_ZETA = _build_zeta_table(_ZETA_ORDERS, _MAX_ZETA_J)
_INV_FACT = np.array([1.0 / math.factorial(j) for j in range(_MAX_ZETA_J + 1)])
_ZETA_COEF = _ZETA * _INV_FACT
_SERIES_COEF = np.zeros((_N_LI, _MAX_SERIES_N + 1))
_SERIES_COEF[:, 1:] = np.arange(1.0, _MAX_SERIES_N + 1) ** -_P[:, None]
_BLOCK = 8192  # pairs per block of the polylog pass: its (_N_LI, _BLOCK) sums stay in cache
# Least zeta term count: 11 at KUMMER_ORDER = 3, always past the ln(mu) term
# (j = p - 1) of the top order, whatever |mu|.
_MIN_ZETA_J = _N_LI + 4


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
    out = _laplace_from_factors(_zl_factors(zl, L, want_grad), zd, L)
    return out if want_grad else out[0]


def _zl_factors(zl, L, want_grad=False):
    """The z_l half of _closed_laplace: sin^2(pi z_l / L), and sin(2 pi z_l / L) when ``want_grad``.

    The direct and the image kernel of a node pair share z_l, so one pair of
    factors serves both.  Formed with in-place operators, which also take scalars.
    """
    b = np.multiply(np.pi, zl)
    b /= L
    sin2_b = np.sin(b)
    sin2_b *= sin2_b
    if not want_grad:
        return sin2_b, None
    b *= 2.0
    return sin2_b, np.sin(b)


def _laplace_from_factors(factors, zd, L, value=True):
    """_closed_laplace of pairs whose z_l half is ``factors`` (_zl_factors), as a tuple.

    The tuple holds the value unless not ``value`` (a caller that reads only
    the gradient skips the log), then d/dz_l and d/dz_d when the factors
    carry the gradient.  Formed with in-place operators, which also take scalars.
    """
    sin2_b, sin_2b = factors
    a = np.multiply(np.pi, zd)
    a /= L
    s = np.sinh(a)
    s *= s
    s += sin2_b
    out = ()
    if value:
        val = np.log(s)
        val /= 4.0 * np.pi
        out = (val,)
    if sin_2b is None:
        return out
    s *= 4.0 * L
    a *= 2.0
    gd = np.sinh(a)
    gd /= s
    return out + (sin_2b / s, gd)


# ---------------------------------------------------------------------------
# Polylogarithms Li_1..Li_(2P+1)(e^-mu), one pass over the powers


def _nonzero_terms(coef):
    """Per column j of ``coef``, the (row, coefficient) pairs whose coefficient is nonzero."""
    return [[(r, c) for r, c in enumerate(col) if c] for col in coef.T.tolist()]


def _blocks(idx, counts):
    """The pairs ``idx`` in blocks of at most _BLOCK, sorted (stably) by descending term count."""
    order = idx[np.argsort(-counts[idx].astype(np.int16), kind="stable")]  # a radix sort
    for start in range(0, order.size, _BLOCK):
        sel = order[start : start + _BLOCK]
        yield sel, counts[sel]


def _power_sums(x, n, terms, log_mu=None, log_terms=()):
    """(_N_LI, block) sums: row r, pair i holds sum_{j <= n_i} c_rj x_i^j.

    ``terms[j]`` lists the (r, c_rj) with c_rj != 0.  ``n`` is descending, so
    the pairs that take term j are a prefix of the block and every update is
    an axpy on a contiguous slice; the running power x^j is one in-place
    multiply per term.  ``log_terms[j]`` = (r, c) adds c x^j ln(mu) to row r.
    """
    acc = np.zeros((_N_LI, x.size), dtype=complex)
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
    return acc


def _polylog_blocks(mu, scale=1.0):
    """scale^p Li_p(e^-mu) for p = 1.._N_LI, block by block: (sel, li) per block.

    ``mu`` is a flat complex array of minimum-image pairs, so Re mu >= 0 and
    |Im mu| <= pi; li is (_N_LI, sel.size), row p - 1 for order p, of the
    pairs mu[sel].  Every pair is in exactly one block.  Two expansions, each
    a sum of running powers x^j:

      * zeta (Crandall 2006), x = -mu:
            Li_p(e^-mu) = sum_j zeta(p - j) x^j / j! - x^{p-1} / (p-1)! ln(mu),
        with H_{p-1} for zeta(1) (_build_zeta_table) and at least
        _MIN_ZETA_J terms, so every order runs past its ln(mu) term;
      * the defining series, x = e^-mu: Li_p(e^-mu) = sum_{j >= 1} x^j j^-p.

    Each pair runs to its own term count, by the 1e-17 rule of _series_terms
    on |mu| / 2 pi (zeta) or |e^-mu| (series), and takes the cheaper
    expansion: zeta for Re mu <= ln 2, where a minimum-image pair needs at
    most 59 terms (a larger |mu| is refused); for Re mu > ln 2 zeta when it
    needs no more terms than the series.  The coefficient tables carry 1/j!
    and scale^p, and the pairs of each expansion are summed in cache-sized
    blocks sorted by term count.  A pair's value depends only on its own mu,
    not on the other pairs in the array or their order.  The pairs with mu =
    0 form one block of scale^p zeta(p), and inf for p = 1.
    """
    s = float(scale) ** _P
    zero = mu == 0.0
    n_zeta = np.maximum(_series_terms(np.abs(mu) / (2.0 * np.pi)), _MIN_ZETA_J)
    n_series = _series_terms(np.exp(-mu.real))
    series = (mu.real > _LN2) & (n_series < n_zeta)
    zeta = ~(series | zero)
    if np.any(n_zeta[zeta] > _MAX_ZETA_J):
        raise ValueError(
            "polylog zeta expansion needs |mu| <= hypot(ln 2, pi) "
            "(pair separations must be minimum-image)"
        )
    if zero.any():
        sel = np.flatnonzero(zero)
        li = np.empty((_N_LI, sel.size), dtype=complex)
        li[0] = np.inf
        li[1:] = (s * _ZETA[:, 0])[1:, None]
        yield sel, li
    zeta_terms = _nonzero_terms(_ZETA_COEF * s[:, None])
    log_terms = [(j, -s[j] * _INV_FACT[j]) for j in range(_N_LI)]
    for sel, n in _blocks(np.flatnonzero(zeta), n_zeta):
        z = mu[sel]
        log_z = np.empty_like(z)  # from real log and arctan2: complex log is 15x slower
        np.log(np.abs(z), out=log_z.real)
        np.arctan2(z.imag, z.real, out=log_z.imag)
        yield sel, _power_sums(-z, n, zeta_terms, log_z, log_terms)
    series_terms = _nonzero_terms(_SERIES_COEF * s[:, None])
    for sel, n in _blocks(np.flatnonzero(series), n_series):
        yield sel, _power_sums(np.exp(-mu[sel]), n, series_terms)


def _polylog_stack(mu, scale=1.0):
    """scale^p Li_p(e^-mu) for p = 1.._N_LI, stacked on a new first axis (_polylog_blocks)."""
    mu = np.asarray(mu, dtype=complex)
    li = np.empty((_N_LI, mu.size), dtype=complex)
    for sel, block in _polylog_blocks(mu.ravel(), scale):
        for r in range(_N_LI):  # row by row: one scatter of all rows is slower
            li[r, sel] = block[r]
    return li.reshape((_N_LI,) + mu.shape)


# ---------------------------------------------------------------------------
# Helmholtz kernel via Kummer subtraction


def _kummer_groups(order):
    """The groups m = 0..order of e^{-gamma d}/gamma and e^{-gamma d} in powers of k^2.

    Group m is (2^m m!, (a_m0 .. a_mm), (b_m0 .. b_mm)), exact integers: with
    gamma = sqrt(eta^2 - k^2),

        e^{-gamma d}/gamma = e^{-eta d} sum_m k^2m / (2^m m!) sum_{j<=m} a_mj d^j eta^-(2m+1-j),
        e^{-gamma d}       = e^{-eta d} sum_m k^2m / (2^m m!) sum_{j<=m} b_mj d^j eta^-(2m-j),

    where a_mj = (2m-j)! / (j! (m-j)! 2^(m-j)) are the reverse Bessel
    coefficients and b_mj = a_mj - (j+1) a_m,j+1 follows from e^{-gamma d} =
    -d/dd (e^{-gamma d}/gamma).  Group 0 is the Laplace mode (1/eta and 1).
    """
    f = math.factorial
    groups = []
    for m in range(order + 1):
        a = [f(2 * m - j) // (f(j) * f(m - j) * 2 ** (m - j)) for j in range(m + 1)]
        b = [a[j] - (j + 1) * a[j + 1] for j in range(m)] + [a[m]]
        groups.append((2**m * f(m), tuple(a), tuple(b)))
    return groups


_GROUPS = _kummer_groups(KUMMER_ORDER)


def _mode_coefs(k2m, eta):
    """The coefficients of d^0 .. d^KUMMER_ORDER of the subtracted groups at mode eta.

    c_j = sum_m a_mj k^2m / (2^m m! eta^(2m+1-j)) for e^{-gamma d}/gamma and
    b_j = sum_m b_mj k^2m / (2^m m! eta^(2m-j)) for e^{-gamma d}, each summed
    in ascending m over the groups m = 0..KUMMER_ORDER (zero b_mj skipped).
    """
    c = [0] * (KUMMER_ORDER + 1)
    b = [0] * (KUMMER_ORDER + 1)
    for m, (den, a_m, b_m) in enumerate(_GROUPS):
        for j in range(m + 1):
            c[j] += a_m[j] * k2m[m] / (den * eta ** (2 * m + 1 - j))
            if b_m[j]:
                b[j] += b_m[j] * k2m[m] / (den * eta ** (2 * m - j))
    return c, b


def _k2_powers(k):
    """[1, k^2, k^4, .., k^(2 KUMMER_ORDER)], each the product of the previous one and k^2."""
    k2 = k * k
    powers = [1.0]
    for _ in range(KUMMER_ORDER):
        powers.append(powers[-1] * k2)
    return powers


def subtracted_combos(zl, zd, L):
    """Wavenumber-independent polylog combinations for the Kummer subtraction.

    Summed over the modes, the group m = 1..KUMMER_ORDER of _kummer_groups
    gives sum_j a_mj d^j sigma_(2m+1-j) with sigma_p = (L / 2 pi)^p Re Li_p(e^-mu):
    the "val" table of the group.  Its z_l gradient reads Im Li one order
    lower ("gl"), and its |z_d| gradient is the e^{-gamma d} group,
    sum_j b_mj d^j sigma_(2m-j) ("gd").  Returns "d" = |z_d| and, under each
    key, a list of one table per group, pairing with k^2m / (2^m m! L).  The
    terms are summed from the highest power of d down.  Entries at z = 0 carry
    the valid value combos and zero gradient combos (d^j Li_1 is taken as its
    limit 0), so diagonals may be consumed directly for the value path.  The
    combinations are elementwise, so each is formed on the polylog blocks
    (_polylog_blocks) and scattered to its table; the polylogs of all pairs
    are never held at once.
    """
    zl = np.asarray(zl, dtype=float)
    d = np.abs(np.asarray(zd, dtype=float))
    mu = 2.0 * np.pi * (d - 1j * zl) / L
    groups = list(enumerate(_GROUPS))[1:]  # group 0, the Laplace mode, is not subtracted
    out = {key: [np.empty(d.size) for _ in groups] for key in ("val", "gl", "gd")}
    d_flat = d.ravel()
    for sel, li in _polylog_blocks(mu.ravel(), scale=L / (2.0 * np.pi)):
        db = d_flat[sel]
        sig = dict(enumerate(li.real, start=1))  # (L / 2 pi)^p Re Li_p, views of the block
        sig_s = dict(enumerate(li.imag, start=1))
        d_pow = [None, db]
        for _ in range(KUMMER_ORDER - 1):
            d_pow.append(d_pow[-1] * db)

        def table(coefs, sigma, top):
            """sum_j coefs[j] d^j sigma[top - j], the nonzero terms from the highest j down."""
            acc = None
            for j in reversed(range(len(coefs))):
                c, p = coefs[j], top - j
                if not c:
                    continue
                if j == 0:  # never the first term: a_mm = 1
                    acc += sigma[p] if c == 1 else c * sigma[p]
                    continue
                with np.errstate(invalid="ignore"):  # Re Li_1 is infinite at mu = 0
                    term = (d_pow[j] if c == 1 else c * d_pow[j]) * sigma[p]
                if p == 1 and sigma is sig:  # d^j Li_1 -> 0 as d -> 0
                    term = np.where(db == 0.0, 0.0, term)
                if acc is None:
                    acc = term
                else:
                    acc += term
            return acc

        for i, (m, (_, a, b)) in enumerate(groups):
            out["val"][i][sel] = table(a, sig, 2 * m + 1)
            out["gl"][i][sel] = table(a, sig_s, 2 * m)
            out["gd"][i][sel] = table(b, sig, 2 * m)
    return {"d": d, **{key: [t.reshape(d.shape) for t in tables] for key, tables in out.items()}}


def _group_sum(coefs, tables):
    """sum_i coefs[i] * tables[i] in a new array, through one scratch buffer."""
    out = tables[0] * coefs[0]
    tmp = np.empty_like(out)
    for c, table in zip(coefs[1:], tables[1:]):
        out += np.multiply(table, c, out=tmp)
    return out


def modal_closed_part(combos, k, L, want_grad=False):
    """Closed-form (polylog) part of the modal correction for wavenumber k.

    The group scalars k^2m / (2^m m! L), m = 1..KUMMER_ORDER, carry the -1/L
    (value) and 1/L (gradient) factors, so each output is one
    scalar-times-table product per group of subtracted_combos, summed in place.
    """
    c = [k2m / (den * L) for k2m, (den, _, _) in zip(_k2_powers(k)[1:], _GROUPS[1:])]
    val = _group_sum([-x for x in c], combos["val"])
    if not want_grad:
        return val
    gl = _group_sum(c, combos["gl"])
    gdd = _group_sum(c, combos["gd"])
    return val, gl, gdd  # gdd is d/d(d); caller applies sign(z_d)


def residual_cache(zl, d, L):
    """Geometry-only arrays reused by modal_residual across wavenumbers.

    ``d`` is the |z_d| table of the pairs (that of subtracted_combos), kept
    as the "d" table, not copied.
    """
    theta = (2.0 * np.pi / L) * np.asarray(zl, dtype=float)
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
    """Residual modal series after the k^2..k^(2 KUMMER_ORDER) subtraction.

    Its terms decay like |eta|^-(2 KUMMER_ORDER + 3).  Reads the pair tables
    of residual_cache and evaluates in place, in buffers allocated once per
    call: the running power E = e1^n and the Chebyshev recurrences for
    cos/sin(n theta) are updated, and at mode n

        res  = e^{-gamma_n d} / gamma_n - E (c_0 + c_1 d + .. + c_P d^P),
        resp = E (b_0 + b_1 d + .. + b_P d^P) - e^{-gamma_n d},

    each polynomial by Horner in d, with c_j and b_j from _mode_coefs (group
    0 gives c_0 its 1/eta_n and b_0 = 1).
    Each mode takes the pairs in blocks of at most _RES_BLOCK, so its scratch
    stays in cache.  The sums run without the -1/L and 1/L factors, applied
    once after the loop.  For a complex k the tables are cast to complex
    once, so no ufunc call mixes real and complex operands.  Without
    ``n_modes`` the loop runs at least 4 modes and stops at the first whose
    max |res| (and |resp|) over all pairs is below tol / 4.
    """
    k2 = k * k
    k2m = _k2_powers(k)
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
        val_coefs, grad_coefs = _mode_coefs(k2m, eta)
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
            _horner(res, db, val_coefs)
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
            _horner(resp, db, grad_coefs)
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
    """Wavenumber-independent tables of G_per^k on a pair array: all that gper_helmholtz reads.

    "laplace" is the closed-form Laplace value, d/dz_l and d/dz_d
    (_closed_laplace), "combos" the polylog combinations (subtracted_combos),
    "rescache" the residual-series cache (residual_cache, sharing the |z_d|
    table of the combinations) and "sgn" sign z_d; ``zl`` must be the minimum
    image.  At a coincident pair the closed form is infinite or NaN, with no
    warning: every caller refuses that pair or overwrites its entries.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # raised only at z = 0
        laplace = _closed_laplace(zl, zd, L, want_grad=True)
    combos = subtracted_combos(zl, zd, L)
    return {
        "laplace": laplace,
        "combos": combos,
        "rescache": residual_cache(zl, combos["d"], L),
        "sgn": np.sign(np.asarray(zd, dtype=float)),
    }


def gper_helmholtz(k, L, tables, tol=1e-12, n_modes=None, want_grad=False):
    """Periodic Helmholtz Green's function G_per^{0,k}(z), spectral normalization.

    The one composition of the kernel, used by the point kernels below and by
    the operator assembly in layerpot, from the pair tables of kummer_tables,
    which do not depend on k.  Then

        G_per^k = e^{ik|z_d|}/(2ikL) - |z_d|/(2L) + G_per^0 + C(z),
        C(z) = -(1/L) sum_{n>=1} cos(eta_n z_l) f_n(|z_d|),
        f_n(d) = e^{-gamma_n d}/gamma_n - e^{-eta_n d}/eta_n,

    where the groups k^2 .. k^(2 KUMMER_ORDER) of f_n are removed term by term
    and restored through polylogarithm closed forms (modal_closed_part),
    leaving an |eta|^-(2 KUMMER_ORDER + 3) residual series (modal_residual).
    Returns G, or (G, dG/dz_l, dG/dz_d) when ``want_grad``.  The sums are formed in place
    in the arrays those two return, which the caller does not see.
    """
    combos = tables["combos"]
    d = combos["d"]
    e_ikd = np.empty(np.shape(d), dtype=complex)
    buf = [np.empty(np.shape(d)) for _ in range(4)]
    _exp_scaled(e_ikd, d, 1j * k, float(d.max(initial=0.0)), buf)
    closed = modal_closed_part(combos, k, L, want_grad=want_grad)
    resid = modal_residual(tables["rescache"], k, L, tol=tol, want_grad=want_grad, n_modes=n_modes)
    lv, lgl, lgd = tables["laplace"]
    if want_grad:
        (cv, cl, cdd), (rv, rl, rdd) = closed, resid
    else:
        cv, rv = closed, resid
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
    e_ikd *= tables["sgn"]
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
        gper_helmholtz(wave.k, L, kummer_tables(zl, z, L), cfg.tol, n_modes, want_grad)
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
