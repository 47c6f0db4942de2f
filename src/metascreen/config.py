"""Flat key-value run configuration with dotted sections.

The grammar is one ``section.key = value`` binding per line, ``#`` comments,
blank lines ignored.  Unknown keys are rejected; every numeric range is
validated at parse time.  The ranges of the ``materials`` and ``optimizer``
keys are those of MaterialParams and OptConfig, which check their own fields;
the parser reports their failures under the section name and checks the
remaining keys itself.  Omitted fields fall back to the reference setup:
L = 20, v_m = 1, v_b = 1 - 0.05i, delta = 0.001, band [0.01, 0.1], one circle
of radius 0.5 at height 1.

Geometry is either a layout preset (``geometry.layout = CxR`` with radius,
spacing, base_height, fourier_order) or explicit per-resonator blocks
(``shape.1.center = 0 1`` etc.); the two forms are mutually exclusive, so
any ``geometry.*`` key next to ``shape.*`` blocks is refused.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .geometry import ShapeParams, grid_layout, validate_geometry
from .optimizer import OptConfig
from .rom import MaterialParams

__all__ = ["RunConfig", "ConfigError", "parse_config", "parse_config_text"]


class ConfigError(ValueError):
    """Malformed or out-of-range configuration input."""


@dataclass(frozen=True)
class RunConfig:
    materials: MaterialParams
    L: float
    band: tuple[float, float]
    samples: int
    shapes: tuple[ShapeParams, ...]
    n_pts: int
    greens_tol: float
    optimizer: OptConfig
    output_dir: str
    greens_point: tuple[float, float, float, float]
    greens_omega: float | None
    config_hash: str = field(default="", compare=False)


_KNOWN_KEYS = {
    "materials.v_m",
    "materials.v_b",
    "materials.delta",
    "materials.theta_d",
    "lattice.L",
    "band.omega_min",
    "band.omega_max",
    "band.samples",
    "geometry.layout",
    "geometry.radius",
    "geometry.spacing",
    "geometry.base_height",
    "geometry.fourier_order",
    "solver.n_pts",
    "solver.greens_tol",
    "optimizer.objective",
    "optimizer.m_targets",
    "optimizer.n_quad",
    "optimizer.max_iters",
    "optimizer.lr",
    "optimizer.beta1",
    "optimizer.beta2",
    "optimizer.eps",
    "optimizer.a0_min",
    "optimizer.a0_max",
    "optimizer.coeff_bound",
    "optimizer.geometry_margin",
    "optimizer.freeze_centers",
    "optimizer.plateau_iters",
    "optimizer.snapshot_every",
    "optimizer.seed",
    "output.dir",
    "greens.x",
    "greens.y",
    "greens.omega",
}
# the keys of an explicit resonator block, shape.<index>.<field>
_SHAPE_FIELDS = ("center", "a0", "cos", "sin")


def _parse_lines(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _floats(value: str, key: str, n: int | None = None):
    try:
        parts = [float(p) for p in value.split()]
    except ValueError:
        raise ConfigError(f"{key}: expected numbers, got {value!r}") from None
    if not all(map(math.isfinite, parts)):
        raise ConfigError(f"{key}: expected finite numbers, got {value!r}")
    if n is not None and len(parts) != n:
        raise ConfigError(f"{key}: expected {n} number(s), got {len(parts)}")
    return parts


def _int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _float(value: str, key: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return x


def _bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def parse_config_text(text: str) -> RunConfig:
    pairs = _parse_lines(text)
    shape_keys = {k for k in pairs if k.startswith("shape.")}
    unknown = sorted(k for k in pairs if k not in _KNOWN_KEYS and k not in shape_keys)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")

    errors: list[str] = []

    def take(key, default=None):
        return pairs.get(key, default)

    vb_parts = _floats(take("materials.v_b", "1.0 -0.05"), "materials.v_b")
    if len(vb_parts) not in (1, 2):
        raise ConfigError("materials.v_b: expected 're' or 're im'")
    materials = _build(
        MaterialParams,
        "materials",
        errors,
        v_m=_float(take("materials.v_m", "1.0"), "materials.v_m"),
        v_b=complex(*vb_parts),
        delta=_float(take("materials.delta", "0.001"), "materials.delta"),
        theta_d=_float(take("materials.theta_d", "1.0"), "materials.theta_d"),
    )

    L = _float(take("lattice.L", "20.0"), "lattice.L")
    if L <= 0:
        errors.append("lattice.L must be positive")
    omega_min = _float(take("band.omega_min", "0.01"), "band.omega_min")
    omega_max = _float(take("band.omega_max", "0.1"), "band.omega_max")
    samples = _int(take("band.samples", "200"), "band.samples")
    if samples < 2:
        errors.append("band.samples must be at least 2")
    n_pts = _int(take("solver.n_pts", "128"), "solver.n_pts")
    greens_tol = _float(take("solver.greens_tol", "1e-12"), "solver.greens_tol")
    if not 0 < greens_tol <= 1e-6:
        errors.append("solver.greens_tol must be in (0, 1e-6]")

    if errors:
        raise ConfigError("; ".join(errors))

    shapes = _parse_shapes(pairs, shape_keys, L, errors)
    if errors:
        raise ConfigError("; ".join(errors))

    m_targets_raw = take("optimizer.m_targets")
    m_targets = _int(m_targets_raw, "optimizer.m_targets") if m_targets_raw else None
    if m_targets is not None and m_targets > len(shapes):
        errors.append(f"optimizer.m_targets must be in [1, {len(shapes)}] (the resonator count)")
    coeff_bound = _float(take("optimizer.coeff_bound", "1.0"), "optimizer.coeff_bound")
    margin_raw = take("optimizer.geometry_margin")
    opt = _build(
        OptConfig,
        "optimizer",
        errors,
        objective=take("optimizer.objective", "ref"),
        band=(omega_min, omega_max),
        m_targets=m_targets,
        n_quad=_int(take("optimizer.n_quad", "64"), "optimizer.n_quad"),
        max_iters=_int(take("optimizer.max_iters", "100"), "optimizer.max_iters"),
        lr=_float(take("optimizer.lr", "0.02"), "optimizer.lr"),
        beta1=_float(take("optimizer.beta1", "0.9"), "optimizer.beta1"),
        beta2=_float(take("optimizer.beta2", "0.999"), "optimizer.beta2"),
        eps=_float(take("optimizer.eps", "1e-8"), "optimizer.eps"),
        a0_bounds=(
            _float(take("optimizer.a0_min", "0.1"), "optimizer.a0_min"),
            _float(take("optimizer.a0_max", "1.0"), "optimizer.a0_max"),
        ),
        coeff_bounds=(-coeff_bound, coeff_bound),
        geometry_margin=_float(margin_raw, "optimizer.geometry_margin") if margin_raw else None,
        freeze_centers=_bool(take("optimizer.freeze_centers", "false"), "optimizer.freeze_centers"),
        plateau_iters=_int(take("optimizer.plateau_iters", "0"), "optimizer.plateau_iters"),
        snapshot_every=_int(take("optimizer.snapshot_every", "0"), "optimizer.snapshot_every"),
        seed=_int(take("optimizer.seed", "0"), "optimizer.seed"),
        n_pts=n_pts,
    )

    # greens-test point pair: both in the closed upper half-space, distinct
    # modulo the period (the rule of greens._check_separated)
    greens_x = _floats(take("greens.x", "1.0 2.0"), "greens.x", 2)
    greens_y = _floats(take("greens.y", "3.0 1.0"), "greens.y", 2)
    greens_omega_raw = take("greens.omega")
    greens_omega = _float(greens_omega_raw, "greens.omega") if greens_omega_raw else None
    if not min(greens_x[1], greens_y[1]) >= 0.0:
        errors.append("greens.x and greens.y must lie on or above the wall (x_d >= 0)")
    dl = greens_x[0] - greens_y[0]
    if math.hypot(dl - L * round(dl / L), greens_x[1] - greens_y[1]) < 1e-14:
        errors.append("greens.x and greens.y must be distinct points (modulo the period)")
    if greens_omega is not None and not greens_omega > 0.0:
        errors.append("greens.omega must be positive")
    if errors:
        raise ConfigError("; ".join(errors))

    canon = "\n".join(f"{k} = {pairs[k]}" for k in sorted(pairs))
    cfg_hash = hashlib.sha256(canon.encode()).hexdigest()[:12]
    return RunConfig(
        materials=materials,
        L=L,
        band=(omega_min, omega_max),
        samples=samples,
        shapes=shapes,
        n_pts=n_pts,
        greens_tol=greens_tol,
        optimizer=opt,
        output_dir=take("output.dir", "out"),
        greens_point=(greens_x[0], greens_x[1], greens_y[0], greens_y[1]),
        greens_omega=greens_omega,
        config_hash=cfg_hash,
    )


def _build(kind, section, errors, **fields):
    """kind(**fields), or None with its range failures added to errors as section.<message>.

    The types report every failing field in one ValueError, as "; "-joined
    messages that each start with the field name.
    """
    try:
        return kind(**fields)
    except ValueError as exc:
        errors.extend(f"{section}.{message}" for message in str(exc).split("; "))
        return None


def _parse_shapes(pairs, shape_keys, L, errors):
    explicit = bool(shape_keys)
    if explicit and any(k.startswith("geometry.") for k in pairs):
        raise ConfigError("give either explicit shape.* blocks or a geometry preset, not both")
    if explicit:
        indices = set()
        for key in shape_keys:
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in _SHAPE_FIELDS:
                raise ConfigError(f"unknown key: {key}")
            try:
                indices.add(int(parts[1]))
            except ValueError:
                raise ConfigError(f"{key}: shape index must be an integer") from None
        if indices != set(range(1, len(indices) + 1)):
            raise ConfigError("shape indices must be contiguous starting at 1")
        shapes = []
        for i in sorted(indices):
            center = _floats(pairs.get(f"shape.{i}.center", ""), f"shape.{i}.center", 2)
            a0 = _float(pairs.get(f"shape.{i}.a0", "0"), f"shape.{i}.a0")
            cos_c = _floats(pairs[f"shape.{i}.cos"], f"shape.{i}.cos") if f"shape.{i}.cos" in pairs else []
            sin_c = _floats(pairs[f"shape.{i}.sin"], f"shape.{i}.sin") if f"shape.{i}.sin" in pairs else []
            if len(cos_c) != len(sin_c):
                raise ConfigError(f"shape.{i}: cos and sin coefficient counts differ")
            if a0 <= 0:
                raise ConfigError(f"shape.{i}.a0 must be positive")
            shapes.append(
                ShapeParams(center=(center[0], center[1]), a0=a0,
                            cos_coeffs=tuple(cos_c), sin_coeffs=tuple(sin_c))
            )
        orders = {s.order for s in shapes}
        if len(orders) > 1:
            raise ConfigError("all shapes must share one Fourier order")
        shapes = tuple(shapes)
    else:
        layout = pairs.get("geometry.layout", "1x1")
        try:
            cols, rows = (int(p) for p in layout.lower().split("x"))
        except ValueError:
            raise ConfigError(f"geometry.layout: expected 'CxR', got {layout!r}") from None
        if cols < 1 or rows < 1:
            raise ConfigError("geometry.layout counts must be positive")
        radius = _float(pairs.get("geometry.radius", "0.5"), "geometry.radius")
        order = _int(pairs.get("geometry.fourier_order", "2"), "geometry.fourier_order")
        if not radius > 0:
            raise ConfigError("geometry.radius must be positive")
        if order < 0:
            raise ConfigError("geometry.fourier_order must be nonnegative")
        shapes = grid_layout(
            cols,
            rows,
            radius=radius,
            spacing=_float(pairs.get("geometry.spacing", "2.0"), "geometry.spacing"),
            base_height=_float(pairs.get("geometry.base_height", "1.0"), "geometry.base_height"),
            order=order,
        )
    violations = validate_geometry(shapes, L)
    errors.extend(violations)
    return shapes


def parse_config(path) -> RunConfig:
    """Parse and fully validate a configuration file."""
    with open(path) as fh:
        return parse_config_text(fh.read())
