import dataclasses

import numpy as np
import pytest

from metascreen import capacitance as cap, geometry as geo, rom

L = 20.0


def synthetic_cap(C, areas, m, L=20.0):
    """CapacitanceData with prescribed modal quantities on a stub grid."""
    grid = geo.discretize([geo.ShapeParams((0.0, 1.0), 0.5)], 16, L)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    areas = np.atleast_1d(np.asarray(areas, dtype=float))
    lam, u = cap.eigendecompose(C, areas)
    return cap.CapacitanceData(
        grid=grid, C=C, areas=areas, psi=np.zeros((grid.n_total, len(areas))),
        psi_tilde=np.zeros(grid.n_total), asymmetry=0.0,
        m=np.atleast_1d(np.asarray(m, dtype=float)), lam=lam, u=u,
    )


class TestMaterialParams:
    def test_defaults_match_reference_setup(self):
        mats = rom.MaterialParams()
        assert mats.v_m == 1.0 and mats.v_b == 1.0 - 0.05j and mats.delta == 0.001
        assert mats.tau_m == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            rom.MaterialParams(delta=0.0)
        with pytest.raises(ValueError):
            rom.MaterialParams(delta=1.5)
        with pytest.raises(ValueError):
            rom.MaterialParams(v_b=1.0 + 0.1j)
        with pytest.raises(ValueError):
            rom.MaterialParams(theta_d=0.0)

    def test_every_failing_field_named(self):
        with pytest.raises(ValueError) as info:
            rom.MaterialParams(v_m=-1, theta_d=2)
        assert "v_m" in str(info.value) and "theta_d" in str(info.value)

    def test_large_contrast_warns(self):
        with pytest.warns(UserWarning, match="contrast"):
            rom.MaterialParams(delta=0.1)


class TestLambdaOfOmega:
    def test_zero(self):
        assert rom.lambda_of_omega(rom.MaterialParams(), 0.0) == 0.0

    def test_reference_value(self):
        # frozen from hand complex arithmetic: v_b^2 = 0.9975 - 0.1i
        val = rom.lambda_of_omega(rom.MaterialParams(), 0.05)
        assert abs(val - (2.4813280 + 0.2487546j)) < 2e-6

    def test_lossless_is_real(self):
        mats = rom.MaterialParams(v_b=1.0)
        assert rom.lambda_of_omega(mats, 0.07).imag == 0.0


class TestRadiativeWidths:
    def test_single_mode_formula(self):
        # u_1 = 1/sqrt|D| so lam1 = tau_m m^2 / (|Y| |D|)
        data = synthetic_cap([[2.0]], [np.pi / 4], [1.2])
        mats = rom.MaterialParams(v_b=1.0)
        lam1 = rom.radiative_widths(data, mats)
        assert abs(lam1[0] - 1.2**2 / (L * np.pi / 4)) < 1e-14

    def test_dark_mode(self):
        # m orthogonal to the second eigenvector of a symmetric pair
        data = synthetic_cap([[2.0, 0.5], [0.5, 2.0]], [1.0, 1.0], [1.0, 1.0])
        lam1 = rom.radiative_widths(data, rom.MaterialParams())
        assert lam1.min() < 1e-25  # antisymmetric mode does not radiate
        assert lam1.max() > 0

    def test_cell_measure_scaling(self):
        d1 = synthetic_cap([[2.0]], [0.5], [1.0], L=20.0)
        d2 = synthetic_cap([[2.0]], [0.5], [1.0], L=40.0)
        mats = rom.MaterialParams()
        assert abs(rom.radiative_widths(d1, mats)[0] - 2 * rom.radiative_widths(d2, mats)[0]) < 1e-15

    def test_gauge_invariance(self):
        data = synthetic_cap([[2.0, 0.3], [0.3, 1.5]], [1.0, 0.8], [1.1, 0.7])
        mats = rom.MaterialParams()
        ref = rom.radiative_widths(data, mats)
        data = dataclasses.replace(data, u=-data.u)
        assert np.allclose(rom.radiative_widths(data, mats), ref, atol=1e-16)


class TestResonantFrequencies:
    def test_single_resonator_reference(self):
        # Cap = 2, |D| = pi/4, delta = 1e-3, v_b = 1, tau = 1, |Y| = 20, m = 1.2
        data = synthetic_cap([[2.0]], [np.pi / 4], [1.2])
        mats = rom.MaterialParams(v_b=1.0)
        om = rom.resonant_frequencies(data, mats)[0]
        assert abs(om.real - 0.0504627) < 1e-6
        assert abs(om.imag + 4.58366e-5) < 1e-9

    def test_sqrt_delta_scaling(self):
        data = synthetic_cap([[2.0]], [np.pi / 4], [1.2])
        ratios = []
        for delta in (1e-3, 1e-5):
            mats = rom.MaterialParams(v_b=1.0, delta=delta)
            om = rom.resonant_frequencies(data, mats)[0]
            ratios.append(om / np.sqrt(delta))
        lead = 1.0 * np.sqrt(data.lam[0])
        assert abs(ratios[1] - lead) < abs(ratios[0] - lead)
        assert abs(ratios[1].real - lead) < 1e-6

    def test_lossless_lower_half_plane(self):
        data = synthetic_cap([[2.0, 0.3], [0.3, 1.5]], [1.0, 0.8], [1.1, 0.7])
        om = rom.resonant_frequencies(data, rom.MaterialParams(v_b=1.0))
        assert np.all(om.imag <= 0)

    def test_complex_speed_arithmetic(self):
        data = synthetic_cap([[2.0]], [np.pi / 4], [1.2])
        mats = rom.MaterialParams()  # v_b = 1 - 0.05i
        om = rom.resonant_frequencies(data, mats)[0]
        mtu = data.m @ data.u
        expect = mats.v_b * np.sqrt(mats.delta * data.lam[0]) - 1j * (
            mats.tau_m * mats.v_b**2 * mtu[0] ** 2 * mats.delta / (2 * L)
        )
        assert abs(om - expect) < 1e-15


def critical_coupling_materials(lam1, lam11, omega_star, delta=0.001):
    """Materials with lambda(omega*) = lam1 + i omega* lam11 exactly."""
    vb2 = omega_star**2 / (delta * (lam1 + 1j * omega_star * lam11))
    v_b = np.sqrt(vb2)
    if v_b.imag > 0:
        v_b = -v_b
    return rom.MaterialParams(v_b=complex(v_b), delta=delta)


class TestReflection:
    def test_critical_coupling_zero(self):
        mats = critical_coupling_materials(1.0, 0.5, 0.05)
        model = rom.RomModel(lam=[1.0], lam1=[0.5], materials=mats)
        assert abs(rom.reflection_rom(model, 0.05)) < 1e-12

    def test_sound_hard_crossing(self):
        # lossless with lambda(omega*) = lambda_1 exactly gives r = +1
        omega = 0.05
        delta = 0.001
        lam1 = omega**2 / delta  # lambda(omega) == lam1 in floating point
        model = rom.RomModel(
            lam=[lam1], lam1=[0.4], materials=rom.MaterialParams(v_b=1.0, delta=delta),
        )
        assert abs(rom.reflection_rom(model, omega) - 1.0) < 1e-12

    def test_low_frequency_limit(self):
        model = rom.RomModel(
            lam=[2.0, 5.0], lam1=[0.5, 0.1], materials=rom.MaterialParams()
        )
        assert abs(rom.reflection_rom(model, 1e-9) + 1.0) < 1e-7

    def test_pole_raises(self):
        omega = 0.05
        delta = 0.001
        lam1 = omega**2 / delta
        model = rom.RomModel(
            lam=[lam1], lam1=[0.0], materials=rom.MaterialParams(v_b=1.0, delta=delta),
        )
        with pytest.raises(ValueError, match="resonant singularity"):
            rom.reflection_rom(model, omega)

    def test_finite_for_lossy_band(self):
        model = rom.RomModel(
            lam=[2.0, 5.0], lam1=[0.5, 0.1], materials=rom.MaterialParams()
        )
        r = rom.reflection_rom(model, np.linspace(0.001, 0.3, 500))
        assert np.all(np.isfinite(r))

    def test_gauge_invariance_via_widths(self):
        data = synthetic_cap([[2.0, 0.3], [0.3, 1.5]], [1.0, 0.8], [1.1, 0.7])
        mats = rom.MaterialParams()
        m1 = rom.build_rom(data, mats)
        data = dataclasses.replace(data, u=-data.u)
        m2 = rom.build_rom(data, mats)
        om = np.linspace(0.01, 0.1, 7)
        assert np.allclose(rom.reflection_rom(m1, om), rom.reflection_rom(m2, om), atol=1e-15)


class TestAbsorptanceImpedance:
    def test_absorptance_limits(self):
        mats = critical_coupling_materials(1.0, 0.5, 0.05)
        model = rom.RomModel(lam=[1.0], lam1=[0.5], materials=mats)
        assert abs(rom.absorptance(rom.reflection_rom(model, 0.05)) - 1.0) < 1e-12
        dark = rom.RomModel(lam=[2.0], lam1=[0.0], materials=rom.MaterialParams())
        assert abs(rom.absorptance(rom.reflection_rom(dark, 0.05))) < 1e-15  # r = -1 exactly


class TestBandQuadrature:
    def test_polynomial_exactness(self):
        nodes, weights = rom.band_quadrature((0.01, 0.1), 8)
        assert abs(np.sum(weights) - 0.09) < 1e-15
        exact = (0.1**4 - 0.01**4) / 4
        assert abs(np.sum(weights * nodes**3) - exact) < 1e-16

    def test_bad_band(self):
        with pytest.raises(ValueError):
            rom.band_quadrature((0.1, 0.1), 8)

    def test_cached_read_only(self):
        # one (nodes, weights) pair per (band, n_quad), shared by every caller
        nodes, weights = rom.band_quadrature((0.01, 0.1), 8)
        again = rom.band_quadrature([0.01, 0.1], 8)
        assert again[0] is nodes and again[1] is weights
        for arr in (nodes, weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
