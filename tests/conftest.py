import time

import numpy as np
import pytest

from metascreen import capacitance as cap, fullorder as fo, geometry as geo, layerpot as lp, rom

L_DEFAULT = 20.0
BAND = (0.01, 0.1)
MATS = rom.MaterialParams()

# The acceptance presets: one circle, three circles side by side, a compact
# 3x3 grid of nine resonators.
PRESET_SINGLE = (geo.ShapeParams((0.0, 1.0), 0.5),)
PRESET_THREE = geo.grid_layout(3, 1, radius=0.5, spacing=2.0, base_height=1.0)
PRESET_NINE = geo.grid_layout(3, 3, radius=0.35, spacing=1.0, base_height=0.5)


def run_sweep(shapes, n_pts, n_freq, materials):
    grid = geo.discretize(shapes, n_pts, L_DEFAULT)
    ctx = lp.AssemblyContext(grid)
    data = cap.capacitance_pipeline(grid, context=ctx)
    model = rom.build_rom(data, materials)
    omegas = np.linspace(BAND[0], BAND[1], n_freq)
    r_exact = np.array(
        [fo.solve_scattering(grid, om, materials, context=ctx).r for om in omegas]
    )
    r_rom = rom.reflection_rom(model, omegas)
    return {
        "grid": grid,
        "data": data,
        "model": model,
        "omegas": omegas,
        "r_exact": r_exact,
        "r_rom": r_rom,
    }


# Direct-solve sweeps of the acceptance presets, shared by the acceptance
# tests (the oracle of AC1 and AC4) and fullorder's sweep tests.
@pytest.fixture(scope="session")
def sweep_single():
    t0 = time.perf_counter()
    out = run_sweep(PRESET_SINGLE, 128, 200, MATS)
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def sweep_three():
    return run_sweep(PRESET_THREE, 64, 120, MATS)


@pytest.fixture(scope="session")
def sweep_nine():
    return run_sweep(PRESET_NINE, 48, 100, MATS)


@pytest.fixture(scope="session")
def circle_half():
    """Reference single resonator: circle a0 = 0.5 at height 1."""
    return geo.ShapeParams(center=(0.0, 1.0), a0=0.5)


@pytest.fixture(scope="session")
def wavy_shape():
    """Non-symmetric perturbed resonator exercising the full Fourier family."""
    return geo.ShapeParams(center=(0.3, 1.1), a0=0.5, cos_coeffs=(0.2, -0.1), sin_coeffs=(-0.15, 0.1))


@pytest.fixture(scope="session")
def two_res_shapes():
    """Asymmetric 2-resonator design with M = 2 used by the gradient checks."""
    return (
        geo.ShapeParams((-2.0, 1.2), 0.6, (0.15, -0.1), (0.05, 0.2)),
        geo.ShapeParams((2.2, 1.0), 0.45, (-0.2, 0.1), (0.1, -0.15)),
    )


@pytest.fixture
def no_helmholtz_cache(monkeypatch):
    """Make the Helmholtz cache builders and the modal series raise.

    Laplace-only work must neither build the Helmholtz cache nor evaluate the
    Helmholtz kernel.
    """
    from metascreen import greens

    def forbidden(*args, **kwargs):
        raise AssertionError("Helmholtz cache or kernel used by Laplace-only work")

    for name in ("subtracted_combos", "residual_cache", "modal_residual"):
        monkeypatch.setattr(greens, name, forbidden)


def trig_upsample(vals, n_fine):
    """Trigonometric interpolation of periodic nodal values to a finer grid."""
    vals = np.asarray(vals)
    n = len(vals)
    c = np.fft.fft(vals)
    cf = np.zeros(n_fine, complex)
    cf[: n // 2] = c[: n // 2]
    cf[-(n // 2) :] = c[-(n // 2) :]
    cf[n // 2] *= 0.5
    cf[-(n // 2)] *= 0.5
    out = np.fft.ifft(cf) * (n_fine / n)
    return out.real if np.isrealobj(vals) else out
