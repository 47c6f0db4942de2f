"""Star-shaped resonator boundaries and their periodic-trapezoid discretization.

Each resonator is star-shaped about its center, with a radial profile given by
a truncated Fourier series

    r(t) = a0 * (1 + (1/2M) * sum_i (a_i cos(i t) + b_i sin(i t))),

so the boundary is x(t) = center + r(t) (cos t, sin t) for t in [0, 2pi).
With |a_i|, |b_i| <= 1 the perturbation sum is bounded by 1 in magnitude and
the radius stays positive.  All derived quantities (tangent, normal, curvature)
are computed analytically from the series; nothing is differentiated
numerically.
"""

from __future__ import annotations

import csv
import pathlib
from dataclasses import dataclass, field

import numpy as np

from .artifacts import fmt, write_csv

__all__ = [
    "ShapeParams",
    "BoundaryGrid",
    "GeometryError",
    "parametrize",
    "discretize",
    "velocity_field",
    "validate_geometry",
    "CENTER",
    "A0",
    "COEFFS",
    "fourier_order",
    "params_per_shape",
    "param_name",
    "shapes_to_params",
    "params_to_shapes",
    "grid_layout",
    "dump_geometry",
    "load_shape_params",
]


# boundary points per resonator at which validate_geometry checks every constraint
N_CHECK = 256

# rows of a resonator's design-vector block [center_x, center_y, a0, a_1..a_M, b_1..b_M]
CENTER = slice(0, 2)
A0 = 2
COEFFS = slice(3, None)


class GeometryError(ValueError):
    """Raised when a resonator configuration violates the cell constraints."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid geometry: " + "; ".join(self.violations))


@dataclass(frozen=True)
class ShapeParams:
    """Fourier description of one star-shaped resonator boundary.

    center: (x_lateral, x_height) of the star center, height must be > 0.
    a0: base radius, positive.
    cos_coeffs / sin_coeffs: Fourier perturbation coefficients a_1..a_M,
        b_1..b_M (equal length M; may be empty for a plain circle).
    """

    center: tuple[float, float]
    a0: float
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        # every failing field in one error, each message led by its field name;
        # each range is written so that NaN fails it
        checks = (
            (np.isfinite(self.center).all(), "center must be finite"),
            (0.0 < self.a0 < np.inf, "a0 must be positive and finite"),
            (np.isfinite(self.cos_coeffs).all(), "cos_coeffs must be finite"),
            (np.isfinite(self.sin_coeffs).all(), "sin_coeffs must be finite"),
            (len(self.sin_coeffs) == self.order, "sin_coeffs must have one entry per cos coefficient"),
        )
        errors = [message for ok, message in checks if not ok]
        if errors:
            raise ValueError("; ".join(errors))

    @property
    def order(self) -> int:
        return len(self.cos_coeffs)

    def radius(self, t):
        """Radial profile r(t) and its first two derivatives."""
        t = np.asarray(t, dtype=float)
        r = np.ones_like(t)
        dr = np.zeros_like(t)
        ddr = np.zeros_like(t)
        m = self.order
        if m:
            scale = 1.0 / (2.0 * m)
            for i, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), start=1):
                c, s = np.cos(i * t), np.sin(i * t)
                r += scale * (a * c + b * s)
                dr += scale * i * (-a * s + b * c)
                ddr += scale * i * i * (-a * c - b * s)
        return self.a0 * r, self.a0 * dr, self.a0 * ddr


def parametrize(p: ShapeParams, t):
    """Boundary point x(t) = center + r(t) (cos t, sin t); 2pi-periodic in t."""
    t = np.asarray(t, dtype=float)
    r, _, _ = p.radius(t)
    return _boundary_points(p, r, np.cos(t), np.sin(t))


def _boundary_points(p: ShapeParams, r, cos_t, sin_t):
    """center + r (cos t, sin t) from the radial profile r at the angles t."""
    return np.stack([p.center[0] + r * cos_t, p.center[1] + r * sin_t], axis=-1)


def boundary_frame(p: ShapeParams, t):
    """Nodes, speed |x'(t)|, outward unit normals and curvature along x(t).

    The parametrization is counterclockwise, so the outward normal is
    (x2', -x1') / |x'| and the curvature of a circle of radius a0 is +1/a0.
    """
    t = np.asarray(t, dtype=float)
    r, dr, ddr = p.radius(t)
    ct, st = np.cos(t), np.sin(t)
    x = _boundary_points(p, r, ct, st)
    dx = np.stack([dr * ct - r * st, dr * st + r * ct], axis=-1)
    speed = np.hypot(dx[..., 0], dx[..., 1])
    normal = np.stack([dx[..., 1], -dx[..., 0]], axis=-1) / speed[..., None]
    # kappa = (r^2 + 2 r'^2 - r r'') / (r^2 + r'^2)^(3/2) in polar form
    kappa = (r * r + 2.0 * dr * dr - r * ddr) / (r * r + dr * dr) ** 1.5
    return x, dx, speed, normal, kappa


@dataclass(frozen=True)
class BoundaryGrid:
    """Periodic-trapezoid Nystrom grid over all resonator boundaries.

    Nodes of resonator j occupy the contiguous slice ``block(j)``.  The
    trapezoid weights ``weights = (2pi/n_pts) * speed`` are the single source
    of truth for every boundary integral in the package.
    """

    shapes: tuple[ShapeParams, ...]
    n_pts: int
    L: float
    t: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    speed: np.ndarray = field(repr=False)
    normals: np.ndarray = field(repr=False)
    curvature: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("t", "nodes", "speed", "normals", "curvature"):
            getattr(self, name).setflags(write=False)

    @property
    def n_res(self) -> int:
        return len(self.shapes)

    @property
    def n_total(self) -> int:
        return self.n_res * self.n_pts

    def block(self, j: int) -> slice:
        return slice(j * self.n_pts, (j + 1) * self.n_pts)

    @property
    def weights(self) -> np.ndarray:
        return (2.0 * np.pi / self.n_pts) * self.speed

    def block_index(self) -> np.ndarray:
        """Resonator index of every node."""
        return np.repeat(np.arange(self.n_res), self.n_pts)

    def areas(self) -> np.ndarray:
        """Resonator areas |D_j| from the boundary integral (1/2) oint x.nu ds."""
        xn = np.einsum("ki,ki->k", self.nodes, self.normals)
        w = self.weights
        return np.array(
            [0.5 * np.sum(xn[self.block(j)] * w[self.block(j)]) for j in range(self.n_res)]
        )


def discretize(shapes, n_pts: int, L: float) -> BoundaryGrid:
    """Discretize all resonator boundaries with n_pts nodes each.

    n_pts must be even and >= 16 (required by the log-singular quadrature).
    Geometry violations are reported verbatim via GeometryError.
    """
    shapes = tuple(shapes)
    if n_pts < 16 or n_pts % 2:
        raise ValueError(f"n_pts must be even and >= 16, got {n_pts}")
    violations = validate_geometry(shapes, L)
    if violations:
        raise GeometryError(violations)
    t = 2.0 * np.pi * np.arange(n_pts) / n_pts
    xs, sp, nm, kp = [], [], [], []
    for p in shapes:
        x, _, speed, normal, kappa = boundary_frame(p, t)
        xs.append(x)
        sp.append(speed)
        nm.append(normal)
        kp.append(kappa)
    return BoundaryGrid(
        shapes=shapes,
        n_pts=n_pts,
        L=float(L),
        t=np.tile(t, len(shapes)),
        nodes=np.concatenate(xs),
        speed=np.concatenate(sp),
        normals=np.concatenate(nm),
        curvature=np.concatenate(kp),
    )


def fourier_order(shapes) -> int:
    """The one Fourier order M shared by all shapes of a design."""
    orders = {p.order for p in shapes}
    if len(orders) != 1:
        raise ValueError("all shapes must share one Fourier order")
    return orders.pop()


def params_per_shape(order: int) -> int:
    """Number of design parameters per resonator: cx, cy, a0, a_1..a_M, b_1..b_M."""
    return 3 + 2 * order


def param_name(order: int, index: int) -> str:
    names = ["center_x", "center_y", "a0"]
    names += [f"a{i}" for i in range(1, order + 1)]
    names += [f"b{i}" for i in range(1, order + 1)]
    return names[index]


def velocity_field(p: ShapeParams, param_index: int, t):
    """Exact derivative of parametrize(p, t) with respect to one design parameter.

    Parameter indices follow the per-shape layout
    [center_x, center_y, a0, a_1..a_M, b_1..b_M].
    """
    t = np.asarray(t, dtype=float)
    m = p.order
    n_par = params_per_shape(m)
    if not 0 <= param_index < n_par:
        raise ValueError(f"unknown parameter index {param_index} for order {m}")
    radial = np.stack([np.cos(t), np.sin(t)], axis=-1)
    if param_index == 0:
        return np.broadcast_to([1.0, 0.0], radial.shape).copy()
    if param_index == 1:
        return np.broadcast_to([0.0, 1.0], radial.shape).copy()
    if param_index == 2:
        r, _, _ = p.radius(t)
        return (r / p.a0)[..., None] * radial
    i = param_index - 2
    if i <= m:  # cosine coefficient a_i
        return (p.a0 * np.cos(i * t) / (2.0 * m))[..., None] * radial
    i -= m  # sine coefficient b_i
    return (p.a0 * np.sin(i * t) / (2.0 * m))[..., None] * radial


def shapes_to_params(shapes) -> np.ndarray:
    """Flatten shapes into the global design vector; they must share one Fourier order."""
    fourier_order(shapes)
    blocks = [(*p.center, p.a0, *p.cos_coeffs, *p.sin_coeffs) for p in shapes]
    return np.array(blocks, dtype=float).ravel()


def params_to_shapes(params, order: int) -> tuple[ShapeParams, ...]:
    params = np.asarray(params, dtype=float)
    npp = params_per_shape(order)
    if params.size % npp:
        raise ValueError("design vector length incompatible with Fourier order")
    return tuple(
        ShapeParams(block[CENTER], block[A0], block[COEFFS][:order], block[COEFFS][order:])
        for block in params.reshape(-1, npp)
    )


def validate_geometry(shapes, L: float, margin: float | None = None):
    """Check wall clearance, radius positivity, cell containment and overlaps.

    Returns a list of human-readable violations (empty when the configuration
    is valid).  Overlap checks include the lattice-shifted copies at
    x_lateral +- L; a bounding-circle prefilter skips far-apart pairs.  Each
    boundary is sampled at N_CHECK points.  The minimum admissible gap is a
    configurable safety margin (default 1e-3 * L).
    """
    shapes = tuple(shapes)
    if margin is None:
        margin = 1e-3 * L
    violations = []
    t = np.linspace(0.0, 2.0 * np.pi, N_CHECK, endpoint=False)
    cos_t, sin_t = np.cos(t), np.sin(t)
    boundaries = []
    rmax = []
    for idx, p in enumerate(shapes):
        r, _, _ = p.radius(t)
        if np.min(r) <= 0.0:
            violations.append(
                f"resonator {idx}: radius not positive (min r = {np.min(r):.6g})"
            )
            boundaries.append(None)
            rmax.append(0.0)
            continue
        x = _boundary_points(p, r, cos_t, sin_t)
        boundaries.append(x)
        rmax.append(float(np.max(r)))
        min_height = float(np.min(x[:, 1]))
        if min_height <= 0.0:
            violations.append(
                f"resonator {idx}: crosses the wall (min x_d = {min_height:.6g} <= 0)"
            )
        max_lat = float(np.max(np.abs(x[:, 0])))
        if max_lat >= L / 2.0:
            side = L if p.center[0] > 0 else -L
            violations.append(
                f"resonator {idx}: leaves the unit cell and overlaps its periodic "
                f"image at x_l = {p.center[0] - side:.6g} (max |x_l| = {max_lat:.6g} >= L/2)"
            )
    # pairwise separation, including +-L images; self only against own images
    for i in range(len(shapes)):
        if boundaries[i] is None:
            continue
        for j in range(i, len(shapes)):
            if boundaries[j] is None:
                continue
            shifts = (-L, L) if i == j else (0.0, -L, L)
            for shift in shifts:
                dc = np.hypot(
                    shapes[i].center[0] - shapes[j].center[0] - shift,
                    shapes[i].center[1] - shapes[j].center[1],
                )
                if dc > rmax[i] + rmax[j] + margin:  # bounding-circle prefilter
                    continue
                diff = boundaries[i][:, None, :] - boundaries[j][None, :, :]
                diff[..., 0] -= shift
                dmin = float(np.min(np.hypot(diff[..., 0], diff[..., 1])))
                if dmin < margin:
                    where = f"lattice image at shift {shift:+g}" if shift else "resonator"
                    violations.append(
                        f"resonators {i} and {j}: boundary distance {dmin:.6g} < "
                        f"margin {margin:.6g} against {where} {j}"
                    )
    return violations


def grid_layout(
    cols: int,
    rows: int,
    radius: float = 0.5,
    spacing: float = 2.0,
    base_height: float = 1.0,
    order: int = 2,
) -> tuple[ShapeParams, ...]:
    """Circles on a regular cols x rows grid, centered laterally in the cell.

    Rows stack upward from base_height with the same spacing; '3x1' is three
    resonators side by side, '1x3' a vertical stack.  Every failing range is
    named in one error, each message led by its parameter name.
    """
    checks = ((radius > 0, "radius must be positive"), (order >= 0, "order must be nonnegative"))
    errors = [message for ok, message in checks if not ok]
    if errors:
        raise ValueError("; ".join(errors))
    lat = (np.arange(cols) - (cols - 1) / 2.0) * spacing
    hgt = base_height + np.arange(rows) * spacing
    shapes = []
    for y in hgt:
        for x in lat:
            shapes.append(
                ShapeParams(
                    center=(float(x), float(y)),
                    a0=radius,
                    cos_coeffs=(0.0,) * order,
                    sin_coeffs=(0.0,) * order,
                )
            )
    return tuple(shapes)


def dump_geometry(grid: BoundaryGrid, path, meta: str) -> None:
    """Write the node table plus a sidecar file with all ShapeParams fields.

    Both files start with the comment line ``# <meta>``.  Node CSV columns:
    resonator_id, t, x, y, nx, ny.  The sidecar ``<path stem>.params.csv``
    lists center, a0 and the Fourier coefficients.
    """
    path = pathlib.Path(path)
    rid = grid.block_index()
    nodes = (
        [rid[k], *map(fmt, (grid.t[k], *grid.nodes[k], *grid.normals[k]))] for k in range(grid.n_total)
    )
    write_csv(path, ["resonator_id", "t", "x", "y", "nx", "ny"], nodes, meta)
    params = (
        [idx, fmt(p.center[0]), fmt(p.center[1]), fmt(p.a0), p.order,
         " ".join(map(fmt, (*p.cos_coeffs, *p.sin_coeffs)))]
        for idx, p in enumerate(grid.shapes)
    )
    header = ["resonator_id", "center_x", "center_y", "a0", "order", "coeffs"]
    write_csv(path.with_suffix(".params.csv"), header, params, meta)


def load_shape_params(path) -> tuple[ShapeParams, ...]:
    """Read shapes back from a sidecar file written by dump_geometry."""
    shapes = []
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    for row in rows[1:]:
        order = int(row[4])
        coeffs = [float(c) for c in row[5].split()] if row[5] else []
        shapes.append(
            ShapeParams(
                center=(float(row[1]), float(row[2])),
                a0=float(row[3]),
                cos_coeffs=tuple(coeffs[:order]),
                sin_coeffs=tuple(coeffs[order:]),
            )
        )
    return tuple(shapes)
