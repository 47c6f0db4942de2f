import warnings

import numpy as np
import pytest

from metascreen import greens

L = 20.0
CFG = greens.LatticeConfig(L=L)
KB = 0.1 / (1 - 0.05j)


def spectral_laplace(x, y, n_modes):
    """Raw mode sum of the sound-soft Laplace kernel (image difference)."""

    def gper(zl, zd):
        ns = np.arange(1, n_modes + 1)
        eta = 2 * np.pi * ns / L
        out = np.abs(zd) / (2 * L)
        out -= np.sum(np.cos(eta * zl) * np.exp(-eta * np.abs(zd)) / (2 * np.pi * ns))
        return out

    return gper(x[0] - y[0], x[1] - y[1]) - gper(x[0] - y[0], x[1] + y[1])


def spectral_helmholtz(x, y, k, n_modes):
    """Raw mode sum of the sound-soft Helmholtz kernel (image difference)."""

    def gper(zl, zd):
        out = np.exp(1j * k * np.abs(zd)) / (2j * k * L)
        ns = np.arange(1, n_modes + 1)
        eta = 2 * np.pi * ns / L
        gam = np.sqrt(eta**2 - k**2 + 0j)
        out -= np.sum(np.cos(eta * zl) * np.exp(-gam * np.abs(zd)) / (L * gam))
        return out

    return gper(x[0] - y[0], x[1] - y[1]) - gper(x[0] - y[0], x[1] + y[1])


class TestLaplace:
    def test_wall_trace(self):
        x = np.array([1.0, 2.0])
        assert abs(greens.laplace_gs(x, np.array([5.0, 0.0]), CFG)) == 0.0

    def test_symmetry(self):
        x, y = np.array([1.0, 2.0]), np.array([3.0, 1.0])
        assert abs(greens.laplace_gs(x, y, CFG) - greens.laplace_gs(y, x, CFG)) < 1e-14

    def test_spectral_oracle(self):
        x, y = np.array([1.0, 2.0]), np.array([3.0, 1.0])
        assert abs(greens.laplace_gs(x, y, CFG) - spectral_laplace(x, y, 10_000)) < 1e-12

    def test_coincident_rejected(self):
        x = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="coincident"):
            greens.laplace_gs(x, x, CFG)

    def test_grad_parity(self):
        # lateral derivative flips sign under z_l -> -z_l at equal heights
        y = np.array([0.0, 1.0])
        gp = greens.laplace_gs_grad(np.array([2.0, 1.3]), y, CFG)
        gm = greens.laplace_gs_grad(np.array([-2.0, 1.3]), y, CFG)
        assert abs(gp[0] + gm[0]) == 0.0

    def test_grad_fd(self):
        x, y = np.array([1.0, 2.0]), np.array([3.0, 1.0])
        h = 1e-6
        g = greens.laplace_gs_grad(x, y, CFG)
        for axis in range(2):
            e = np.eye(2)[axis]
            fd = (greens.laplace_gs(x + h * e, y, CFG) - greens.laplace_gs(x - h * e, y, CFG)) / (2 * h)
            assert abs(g[axis] - fd) < 1e-8

    def test_wall_flux_linear_scaling(self):
        # G_s(x, (y_l, eps)) / eps converges: the value scales linearly in eps
        x = np.array([1.0, 2.0])
        vals = [greens.laplace_gs(x, np.array([3.0, eps]), CFG) for eps in (1e-2, 1e-3, 1e-4)]
        ratios = [vals[0] / vals[1], vals[1] / vals[2]]
        assert np.allclose(ratios, 10.0, rtol=5e-3)


class TestHelmholtz:
    def test_wall_trace(self):
        wave = greens.WaveParams(k=KB)
        x = np.array([1.0, 2.0])
        assert abs(greens.helmholtz_gs(x, np.array([5.0, 0.0]), wave, CFG)) < 1e-13

    def test_symmetry(self):
        wave = greens.WaveParams(k=KB)
        x, y = np.array([1.0, 2.0]), np.array([3.0, 1.0])
        v1 = greens.helmholtz_gs(x, y, wave, CFG)
        v2 = greens.helmholtz_gs(y, x, wave, CFG)
        assert abs(v1 - v2) / abs(v1) < 1e-12

    def test_periodicity(self):
        wave = greens.WaveParams(k=KB)
        x, y = np.array([1.0, 2.0]), np.array([3.0, 1.0])
        v1 = greens.helmholtz_gs(x, y, wave, CFG)
        v2 = greens.helmholtz_gs(x + np.array([L, 0.0]), y, wave, CFG)
        assert abs(v1 - v2) < 1e-12

    def test_spectral_oracle_separated_heights(self):
        # exponential mode decay at |x_d - y_d| = 4 makes 200 modes exact
        wave = greens.WaveParams(k=0.1)
        x, y = np.array([1.0, 5.0]), np.array([3.0, 1.0])
        ref = spectral_helmholtz(x, y, 0.1, 200)
        assert abs(greens.helmholtz_gs(x, y, wave, CFG) - ref) < 1e-12

    def test_small_k_reduces_to_laplace_plus_propagating(self):
        k = 1e-6
        wave = greens.WaveParams(k=k)
        x, y = np.array([1.0, 2.0]), np.array([3.0, 1.0])
        helm = greens.helmholtz_gs(x, y, wave, CFG)
        lap = greens.laplace_gs(x, y, CFG)

        def prop(zd):
            return np.exp(1j * k * abs(zd)) / (2j * k * L) - abs(zd) / (2 * L)

        corr = prop(x[1] - y[1]) - prop(x[1] + y[1])
        assert abs(helm - lap - corr) < 1e-10

    def test_multiple_propagating_modes_rejected(self):
        with pytest.raises(ValueError, match="multiple propagating modes"):
            greens.helmholtz_gs(
                np.array([1.0, 2.0]),
                np.array([3.0, 1.0]),
                greens.WaveParams(k=0.4),
                CFG,
            )

    def test_truncation_doubling(self):
        wave = greens.WaveParams(k=KB)
        x, y = np.array([1.0, 1.4]), np.array([1.5, 1.2])
        v1 = greens.helmholtz_gs(x, y, wave, CFG, n_modes=24)
        v2 = greens.helmholtz_gs(x, y, wave, CFG, n_modes=48)
        assert abs(v1 - v2) <= CFG.tol

    def test_helmholtz_residual_stencil(self):
        # (Delta + k^2) G_s = 0 away from sources, 5-point stencil h = 1e-3
        wave = greens.WaveParams(k=KB)
        y = np.array([3.0, 1.0])
        h = 1e-3
        for x in (np.array([1.0, 2.0]), np.array([-2.0, 0.7])):
            def f(p):
                return greens.helmholtz_gs(p, y, wave, CFG)

            lap = (
                f(x + [h, 0]) + f(x - [h, 0]) + f(x + [0, h]) + f(x - [0, h]) - 4 * f(x)
            ) / h**2
            assert abs(lap + KB**2 * f(x)) < 1e-5


class TestHelmholtzGrad:
    def test_fd(self):
        wave = greens.WaveParams(k=KB)
        x, y = np.array([1.0, 2.0]), np.array([3.0, 1.0])
        h = 1e-6
        g = greens.helmholtz_gs_grad(x, y, wave, CFG)
        for axis in range(2):
            e = np.eye(2)[axis]
            fd = (
                greens.helmholtz_gs(x + h * e, y, wave, CFG)
                - greens.helmholtz_gs(x - h * e, y, wave, CFG)
            ) / (2 * h)
            assert abs(g[axis] - fd) < 1e-7

    def test_small_k_reduces_to_laplace_grad(self):
        k = 1e-6
        wave = greens.WaveParams(k=k)
        x, y = np.array([1.0, 2.0]), np.array([3.0, 1.0])
        g = greens.helmholtz_gs_grad(x, y, wave, CFG)
        gl = greens.laplace_gs_grad(x, y, CFG)

        def dprop(zd):
            return np.sign(zd) * (np.exp(1j * k * abs(zd)) - 1.0) / (2 * L)

        corr = dprop(x[1] - y[1]) - dprop(x[1] + y[1])
        assert abs(g[0] - gl[0]) < 1e-9
        assert abs(g[1] - gl[1] - corr) < 1e-9

    def test_periodicity(self):
        wave = greens.WaveParams(k=KB)
        x, y = np.array([1.0, 2.0]), np.array([3.0, 1.0])
        g1 = greens.helmholtz_gs_grad(x, y, wave, CFG)
        g2 = greens.helmholtz_gs_grad(x + np.array([L, 0.0]), y, wave, CFG)
        assert np.abs(g1 - g2).max() < 1e-12


class TestConfigObjects:
    def test_lattice_validation(self):
        with pytest.raises(ValueError):
            greens.LatticeConfig(L=-1.0)

    def test_wave_branch_rule(self):
        with pytest.raises(ValueError):
            greens.WaveParams(k=-0.1)
        with pytest.raises(ValueError):
            greens.WaveParams(k=0.1 - 0.01j)
        w = greens.WaveParams(k=0.1 / (1.0 - 0.05j))
        assert w.k.imag > 0


class TestPolylog:
    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(1)
        for p in greens._ZETA_ORDERS:
            for _ in range(8):
                zl = rng.uniform(-9, 9)
                d = rng.uniform(0, 11)
                mu = 2 * np.pi * (d - 1j * zl) / L
                if abs(mu) >= 0.9 * 2 * np.pi:
                    continue
                mine = greens._polylog_stack(np.array([mu]))[p - 1, 0]
                ref = complex(mp.polylog(p, complex(np.exp(-mu))))
                assert abs(mine - ref) < 1e-12
        # regime edges, every order of one call: both sides of the
        # near/far split at the largest near |mu| (the pair that runs the
        # most zeta terms), a tiny |mu|, and one far point.  e^-mu is formed
        # in mpmath, since rounding it to double is 1e-8 off at |mu| = 1e-8.
        ln2 = np.log(2.0)
        mus = np.array(
            [ln2 + s * 1e-9 + t * 1j * np.pi for s in (-1, 1) for t in (-1, 1)]
            + [6e-9 - 8e-9j, 2.5 + 1.0j]
        )
        li = greens._polylog_stack(mus)
        with mp.workdps(30):
            for i, mu in enumerate(mus):
                q = mp.exp(-mp.mpc(mu.real, mu.imag))
                for p in greens._ZETA_ORDERS:
                    assert abs(li[p - 1, i] - complex(mp.polylog(p, q))) < 1e-12

    def test_zeta_table_against_mpmath(self):
        # every coefficient of the zeta expansion is the double nearest the
        # exact value: zeta(p - j), H_{p-1} at j = p - 1, -1/2 at j = p
        mp = pytest.importorskip("mpmath")
        ref = np.empty_like(greens._ZETA)
        with mp.workdps(50):
            for row, p in enumerate(greens._ZETA_ORDERS):
                for j in range(ref.shape[1]):
                    if j == p - 1:
                        ref[row, j] = float(mp.harmonic(p - 1))
                    elif j == p:
                        ref[row, j] = -0.5
                    else:
                        ref[row, j] = float(mp.zeta(p - j))
        assert np.array_equal(greens._ZETA, ref)

    def test_beyond_minimum_image_refused(self):
        with pytest.raises(ValueError, match="minimum-image"):
            greens._polylog_stack(np.array([0.5 + 4.8j]))

    def test_against_mpmath_at_branch_switch(self):
        # far pairs (Re mu > ln 2) run the zeta expansion when it needs no
        # more terms than the series: check far pairs it takes, both sides of
        # the switch on three lines Im mu = const, and a pair with q ~ 1e-10
        mp = pytest.importorskip("mpmath")

        def takes_zeta(mu):
            n_zeta = np.maximum(greens._series_terms(np.abs(mu) / (2 * np.pi)), greens._MIN_ZETA_J)
            return n_zeta <= greens._series_terms(np.exp(-mu.real))

        far_zeta = np.array([0.7 + 0.0j, 0.9 + 0.5j, 1.2 - 0.3j, 1.0 + 1.0j, 0.75 - 2.8j])
        assert np.all(far_zeta.real > np.log(2.0)) and np.all(takes_zeta(far_zeta))
        switch = []
        for im in (0.0, 1.5, -2.5):
            line = np.linspace(0.7, 2.0, 4001) + 1j * im
            zeta = takes_zeta(line)
            i = np.flatnonzero(zeta[:-1] != zeta[1:])[0]
            switch += [line[i], line[i + 1]]
        mus = np.concatenate([far_zeta, switch, [23.0 + 0.4j]])
        li = greens._polylog_stack(mus)
        with mp.workdps(30):
            for i, mu in enumerate(mus):
                q = mp.exp(-mp.mpc(mu.real, mu.imag))
                for p in greens._ZETA_ORDERS:
                    assert abs(li[p - 1, i] - complex(mp.polylog(p, q))) < 1e-12

    def test_pair_value_independent_of_layout(self):
        # a pair's polylogs depend on its own mu only, bit for bit: not on
        # its place in the array, its block or the term counts of the pairs
        # around it.  Zero, near, far-zeta and far-series pairs, and near
        # pairs on |1 - e^-mu| = 1, where Re Li_1 = 0 is what is left of
        # cancelling O(1) terms, so one term more moves its last bits.
        b = np.linspace(1.06, 1.31, 40)
        pairs = np.concatenate(
            [[0.0, 1e-9j, 0.3 + 2.0j, 0.9 + 0.2j, 1.2 - 0.5j, 2.5 + 1.0j, 40.0 + 0.5j],
             -np.log(2.0 * np.cos(b)) + 1j * b]
        )
        ref = greens._polylog_stack(pairs)
        n = pairs.size
        shifted = greens._polylog_stack(np.concatenate([[0.5 + 1.0j], pairs]))[:, 1:]
        assert np.array_equal(shifted, ref)
        reversed_ = greens._polylog_stack(pairs[::-1].copy())[:, ::-1]
        assert np.array_equal(reversed_, ref)
        # more than a block of pairs from every regime, up to 59 zeta terms
        rng = np.random.default_rng(5)
        others = rng.uniform(0.0, 3.0, 3 * greens._BLOCK) + 1j * rng.uniform(
            -np.pi, np.pi, 3 * greens._BLOCK
        )
        for at in (0, greens._BLOCK - n // 2, others.size):
            li = greens._polylog_stack(np.concatenate([others[:at], pairs, others[at:]]))
            assert np.array_equal(li[:, at : at + n], ref)

    def test_no_runtime_warnings(self):
        # mu = 0, |mu| = 1e-9 and Re mu = 40 in one array
        mus = np.array([0.0, 1e-9, 1e-9j, 40.0 + 0.5j, 0.5 - 1.0j])
        zl, zd = -mus.imag * L / (2 * np.pi), mus.real * L / (2 * np.pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            li = greens._polylog_stack(mus)
            combos = greens.subtracted_combos(zl, zd, L)
        assert np.isinf(li[0, 0])
        assert np.all(np.isfinite(li[1:])) and np.all(np.isfinite(li[:, 1:]))
        assert all(np.all(np.isfinite(v)) for v in combos.values())


def subtracted_combos_reference(zl, zd, L):
    """The k^2, k^4 and k^6 group tables as first written out by hand.

    Returns the (value, z_l gradient, |z_d| gradient) tables, three groups each.
    """
    zl = np.asarray(zl, dtype=float)
    d = np.abs(np.asarray(zd, dtype=float))
    li = greens._polylog_stack(2.0 * np.pi * (d - 1j * zl) / L, scale=L / (2.0 * np.pi))
    sig = dict(enumerate(li.real, start=1))
    sig_s = dict(enumerate(li.imag, start=1))
    with np.errstate(invalid="ignore"):
        d_sig1 = np.where(d == 0.0, 0.0, d * sig[1])
    d2 = d * d
    d3 = d2 * d
    val = [
        d * sig[2] + sig[3],
        d2 * sig[3] + 3.0 * d * sig[4] + 3.0 * sig[5],
        d3 * sig[4] + 6.0 * d2 * sig[5] + 15.0 * d * sig[6] + 15.0 * sig[7],
    ]
    gl = [
        d * sig_s[1] + sig_s[2],
        d2 * sig_s[2] + 3.0 * d * sig_s[3] + 3.0 * sig_s[4],
        d3 * sig_s[3] + 6.0 * d2 * sig_s[4] + 15.0 * d * sig_s[5] + 15.0 * sig_s[6],
    ]
    gd = [
        d_sig1,
        d2 * sig[2] + d * sig[3],
        d3 * sig[3] + 3.0 * d2 * sig[4] + 3.0 * d * sig[5],
    ]
    return val, gl, gd


class TestKummerGroups:
    def test_first_groups_exact(self):
        # 2^m m!, a_mj and b_mj of the k^0 .. k^6 groups
        groups = greens._kummer_groups(3)
        assert groups == [
            (1, (1,), (1,)),
            (2, (1, 1), (0, 1)),
            (8, (3, 3, 1), (0, 1, 1)),
            (48, (15, 15, 6, 1), (0, 3, 3, 1)),
        ]

    @pytest.mark.parametrize("order", range(1, 7))
    def test_against_mpmath_taylor(self, order):
        # group m is the k^2m Taylor coefficient of e^{(eta - gamma) d} / gamma
        # and of e^{(eta - gamma) d}, gamma = sqrt(eta^2 - k^2)
        mp = pytest.importorskip("mpmath")
        groups = greens._kummer_groups(order)
        assert len(groups) == order + 1
        with mp.workdps(40):
            for eta, d in ((mp.mpf("0.31"), mp.mpf(0)), (mp.mpf("0.7"), mp.mpf("1.3")),
                           (mp.mpf(2), mp.mpf("4.5"))):
                def gamma(t):
                    return mp.sqrt(eta * eta - t)

                val = mp.taylor(lambda t: mp.exp((eta - gamma(t)) * d) / gamma(t), 0, order)
                grad = mp.taylor(lambda t: mp.exp((eta - gamma(t)) * d), 0, order)
                for m, (den, a, b) in enumerate(groups):
                    assert len(a) == len(b) == m + 1
                    mine_val = sum(c * d**j * eta ** (j - 2 * m - 1) for j, c in enumerate(a))
                    mine_grad = sum(c * d**j * eta ** (j - 2 * m) for j, c in enumerate(b))
                    assert abs(mine_val / den - val[m]) <= 1e-30 * abs(val[m])
                    assert abs(mine_grad / den - grad[m]) <= 1e-30 * abs(grad[m])

    def test_first_three_tables_bit_for_bit(self):
        # the generated group tables equal the hand-written k^2 .. k^6 ones,
        # the d = 0 pairs and the mu = 0 pair included
        zl, zd = TestModalResidual.ZL, TestModalResidual.ZD
        assert np.any(zd == 0.0) and np.any((zd == 0.0) & (zl == 0.0))
        combos = greens.subtracted_combos(zl, zd, L)
        for key, tables in zip(("val", "gl", "gd"), subtracted_combos_reference(zl, zd, L)):
            assert len(combos[key]) == greens.KUMMER_ORDER
            for got, want in zip(combos[key][:3], tables):
                assert np.array_equal(got, want), key


def modal_residual_reference(zl, zd, k, L, n_modes):
    """The residual series as first written: one mode at a time, each term scaled on its own.

    Returns (value, d/dz_l, d/d|z_d|) summed over modes 1..n_modes.
    """
    d = np.abs(zd)
    theta = 2 * np.pi * zl / L
    e1 = np.exp(-(2 * np.pi / L) * d)
    k2 = k * k
    k4 = k2 * k2
    k6 = k4 * k2
    val = gl = gdd = 0.0
    for n in range(1, n_modes + 1):
        eta = 2 * np.pi * n / L
        gam = np.sqrt(eta * eta - k2)
        E = e1**n
        e_gam = np.exp(-gam * d)
        c0 = k2 / (2 * eta**3) + 3 * k4 / (8 * eta**5) + 15 * k6 / (48 * eta**7)
        c1 = k2 / (2 * eta**2) + 3 * k4 / (8 * eta**4) + 15 * k6 / (48 * eta**6)
        c2 = k4 / (8 * eta**3) + 6 * k6 / (48 * eta**5)
        c3 = k6 / (48 * eta**4)
        res = e_gam / gam - E / eta - E * (c0 + c1 * d + c2 * d**2 + c3 * d**3)
        b1 = k2 / (2 * eta) + k4 / (8 * eta**3) + 3 * k6 / (48 * eta**5)
        b2 = k4 / (8 * eta**2) + 3 * k6 / (48 * eta**4)
        b3 = k6 / (48 * eta**3)
        resp = E - e_gam + E * (b1 * d + b2 * d**2 + b3 * d**3)
        val = val - np.cos(n * theta) * res / L
        gl = gl + eta * np.sin(n * theta) * res / L
        gdd = gdd - np.cos(n * theta) * resp / L
    return val, gl, gdd


class TestModalResidual:
    # a fixed pair table: z_l across the cell, |z_d| from the diagonal (0) to 3
    ZL, ZD = (a.ravel() for a in np.meshgrid(np.linspace(-L / 2, L / 2, 21), np.linspace(0, 3, 16)))
    # the default band [0.01, 0.1] with v_b = 1 - 0.05i: k_m = omega (real), k_b complex
    WAVENUMBERS = {"bottom-real": 0.01, "bottom-complex": 0.01 / (1 - 0.05j),
                   "top-real": 0.1, "top-complex": KB}

    @pytest.mark.parametrize("name, modes", [("bottom-real", 4), ("bottom-complex", 4),
                                             ("top-real", 9), ("top-complex", 9)])
    def test_stop_rule_mode_count(self, name, modes):
        # the adaptive series equals the fixed-count one, bit for bit, at
        # exactly one count: the mode it stopped at
        k = self.WAVENUMBERS[name]
        cache = greens.residual_cache(self.ZL, self.ZD, L)
        adaptive = greens.modal_residual(cache, k, L, tol=CFG.tol, want_grad=True)
        for n in (modes - 1, modes, modes + 1):
            fixed = greens.modal_residual(cache, k, L, want_grad=True, n_modes=n)
            same = all(np.array_equal(a, f) for a, f in zip(adaptive, fixed))
            assert same == (n == modes), n

    @pytest.mark.parametrize("name", list(WAVENUMBERS))
    def test_matches_reference_formula(self, name):
        # to 1e-15 of the largest |G_per^k| on the table (the coincident pair
        # left out): the residual itself is what is left of O(1/(eta L)) terms
        k = self.WAVENUMBERS[name]
        far = np.hypot(self.ZL, self.ZD) > 0
        zl, zd = self.ZL[far], self.ZD[far]
        kernel = greens.gper_helmholtz(k, L, greens.kummer_tables(zl, zd, L))
        cache = greens.residual_cache(self.ZL, self.ZD, L)
        mine = greens.modal_residual(cache, k, L, want_grad=True, n_modes=9)
        ref = modal_residual_reference(self.ZL, self.ZD, k, L, 9)
        for got, want in zip(mine, ref):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(kernel).max()

    def test_cache_shares_d_table(self):
        kummer = greens.kummer_tables(self.ZL, self.ZD - 1.5, L)
        assert kummer["rescache"]["d"] is kummer["combos"]["d"]
        assert set(kummer["rescache"]) == {"d", "e1", "cos1", "sin1"}

    @pytest.mark.parametrize("phase", [0.0, 0.5, 1.0, 1.01, 30.0])
    def test_exp_scaled_matches_complex_exp(self, phase):
        # e^{a d} from the real exp and cos/sin of the phase Im(a) d: Taylor
        # polynomials up to a largest phase of _SHORT_CIS, np.cos/np.sin above
        d = np.linspace(0.0, 6.0, 601)
        a = -0.31 + 1j * phase * greens._SHORT_CIS / d.max()
        out = np.empty(d.shape, dtype=complex)
        greens._exp_scaled(out, d, a, d.max(), [np.empty(d.shape) for _ in range(4)])
        ref = np.exp(a * d)
        assert np.all(np.abs(out - ref) <= 4e-16 * np.abs(ref))
