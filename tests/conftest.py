import numpy as np
import pytest

from metascreen import geometry as geo

L_DEFAULT = 20.0


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
    """Make the Helmholtz cache builders raise, so Laplace-only work must not call them."""
    from metascreen import greens

    def forbidden(*args, **kwargs):
        raise AssertionError("Helmholtz cache built by Laplace-only work")

    monkeypatch.setattr(greens, "subtracted_combos", forbidden)
    monkeypatch.setattr(greens, "residual_cache", forbidden)


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
