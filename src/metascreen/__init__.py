"""Periodic acoustic metascreen analysis and gradient-based shape design.

Subpackages:
    geometry     Fourier star-shaped resonators and their Nystrom grids
    greens       periodic half-space Green's functions (Laplace, Helmholtz)
    layerpot     dense layer-potential operators with log-singular quadrature
    capacitance  capacitance matrix, moments, modal eigenproblem
    rom          reduced-order reflection model over a frequency band
    fullorder    exact boundary-integral scattering solver (validation oracle)
    shapegrad    Hadamard shape-derivative densities and parametric gradients
    optimizer    broadband absorption design loop
    artifacts    the one CSV artifact writer
    cli          command-line entry point
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    capacitance,
    config,
    fullorder,
    geometry,
    greens,
    layerpot,
    optimizer,
    rom,
    shapegrad,
)
