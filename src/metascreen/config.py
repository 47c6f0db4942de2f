"""Flat key-value run configuration with dotted sections.

The grammar is one ``section.key = value`` binding per line, ``#`` comments,
blank lines ignored.  Unknown keys are rejected; every numeric range is
validated at parse time.  Each ``materials``, ``optimizer``, ``geometry``
preset and ``shape.<index>`` block key is declared once, in its section's
table, with its converter and the MaterialParams / OptConfig / ShapeParams
field (or grid_layout parameter) it sets.  An omitted key is not passed, so
that type's default applies; the types check their own ranges, and every
failure is reported under the key the user wrote.  The parser itself only
refuses a resonator block without a ``center`` or ``a0``.  The run-level
keys keep their defaults in _RUN_DEFAULTS.

Geometry is either a layout preset (``geometry.layout = CxR`` with radius,
spacing, base_height, fourier_order) or explicit per-resonator blocks
(``shape.1.center = 0 1`` etc.); the two forms are mutually exclusive, so
any ``geometry.*`` key next to ``shape.*`` blocks is refused.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .geometry import ShapeParams, fourier_order, grid_layout, validate_geometry
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


def _complex(value: str, key: str) -> complex:
    parts = _floats(value, key)
    if len(parts) not in (1, 2):
        raise ConfigError(f"{key}: expected 're' or 're im'")
    return complex(*parts)


def _symmetric(value: str, key: str) -> tuple[float, float]:
    c = _float(value, key)
    return (-c, c)


def _spec(table):
    """key -> (field, converter, end) for every entry of a section table."""
    return {
        name: entry if isinstance(entry, tuple) else (name, entry, None)
        for name, entry in table.items()
    }


# <section>.<key> -> its converter if it sets the field of its own name, else
# (field, converter, end), where end is None or the end (0 or 1) of the pair
# field it sets.  Keys are converted in table order, so the first malformed one
# is reported.
_SECTIONS = {
    "materials": _spec({"v_b": _complex, "v_m": _float, "delta": _float, "theta_d": _float}),
    "optimizer": _spec(
        {
            "m_targets": _int,
            "coeff_bound": ("coeff_bounds", _symmetric, None),
            "objective": lambda value, key: value,
            "n_quad": _int,
            "max_iters": _int,
            "lr": _float,
            "beta1": _float,
            "beta2": _float,
            "eps": _float,
            "a0_min": ("a0_bounds", _float, 0),
            "a0_max": ("a0_bounds", _float, 1),
            "geometry_margin": _float,
            "freeze_centers": _bool,
            "plateau_iters": _int,
            "snapshot_every": _int,
            "seed": _int,
        }
    ),
    "geometry": _spec(
        {"radius": _float, "fourier_order": ("order", _int, None), "spacing": _float, "base_height": _float}
    ),
    # an explicit resonator block, shape.<index>.<key>
    "shape": _spec({"center": lambda value, key: _floats(value, key, 2), "a0": _float,
                    "cos": ("cos_coeffs", _floats, None), "sin": ("sin_coeffs", _floats, None)}),
}
# the run-level keys, whose defaults and checks the parser alone owns
_RUN_DEFAULTS = {
    "lattice.L": "20.0", "band.omega_min": "0.01", "band.omega_max": "0.1", "band.samples": "200",
    "solver.n_pts": "128", "solver.greens_tol": "1e-12", "geometry.layout": "1x1", "output.dir": "out",
    "greens.x": "1.0 2.0", "greens.y": "3.0 1.0", "greens.omega": None,  # None: the band midpoint
}
# the keys of the OptConfig fields that the parser passes in from the run level
_RUN_FIELD_KEYS = {"band": "band.omega_min / band.omega_max", "n_pts": "solver.n_pts"}
_KNOWN_KEYS = set(_RUN_DEFAULTS) | {f"{s}.{n}" for s, t in _SECTIONS.items() if s != "shape" for n in t}


def _fields(pairs, section, kind) -> dict:
    """The fields of kind that the section's keys in pairs set; an omitted key sets none."""
    fields = {}
    for name, (target, convert, end) in _SECTIONS[section.split(".")[0]].items():
        key = f"{section}.{name}"
        if key in pairs:
            value = convert(pairs[key], key)
            if end is not None:  # the other end is set by its own key or is kind's default
                pair = fields.get(target, getattr(kind, target))
                value = (value, pair[1]) if end == 0 else (pair[0], value)
            fields[target] = value
    return fields


def _build(kind, section, errors, *args, **fields):
    """kind(*args, **fields), or None with its range failures added to errors.

    The types report every failing field in one ValueError, as "; "-joined
    messages that each start with the field name; each is reported under the
    key(s) that set that field.
    """
    try:
        return kind(*args, **fields)
    except ValueError as exc:
        keys = dict(_RUN_FIELD_KEYS)
        for name, (target, _, _) in _SECTIONS[section.split(".")[0]].items():
            keys[target] = f"{keys[target]} / {section}.{name}" if target in keys else f"{section}.{name}"
        for message in str(exc).split("; "):
            name = message.split()[0].rstrip(":")
            errors.append(keys[name] + message[len(name):])
        return None


def parse_config_text(text: str) -> RunConfig:
    pairs = _parse_lines(text)
    shape_keys = {k for k in pairs if k.startswith("shape.")}
    unknown = sorted(k for k in pairs if k not in _KNOWN_KEYS and k not in shape_keys)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    run = {**_RUN_DEFAULTS, **pairs}

    def take(key, convert, *args):
        return convert(run[key], key, *args)

    errors: list[str] = []
    materials = _build(MaterialParams, "materials", errors, **_fields(pairs, "materials", MaterialParams))

    L = take("lattice.L", _float)
    if L <= 0:
        errors.append("lattice.L must be positive")
    band = (take("band.omega_min", _float), take("band.omega_max", _float))
    samples = take("band.samples", _int)
    if samples < 2:
        errors.append("band.samples must be at least 2")
    n_pts = take("solver.n_pts", _int)
    greens_tol = take("solver.greens_tol", _float)
    if not 0 < greens_tol <= 1e-6:
        errors.append("solver.greens_tol must be in (0, 1e-6]")

    if errors:
        raise ConfigError("; ".join(errors))

    shapes = _parse_shapes(pairs, run["geometry.layout"], shape_keys, L, errors)
    if errors:
        raise ConfigError("; ".join(errors))

    opt_fields = _fields(pairs, "optimizer", OptConfig)
    m_targets = opt_fields.get("m_targets")
    if m_targets is not None and m_targets > len(shapes):
        errors.append(f"optimizer.m_targets must be in [1, {len(shapes)}] (the resonator count)")
    opt = _build(OptConfig, "optimizer", errors, band=band, n_pts=n_pts, **opt_fields)

    # greens-test point pair: both in the closed upper half-space, distinct
    # modulo the period (the rule of greens._check_separated)
    greens_x = take("greens.x", _floats, 2)
    greens_y = take("greens.y", _floats, 2)
    greens_omega = take("greens.omega", _float) if "greens.omega" in pairs else None
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
        band=band,
        samples=samples,
        shapes=shapes,
        n_pts=n_pts,
        greens_tol=greens_tol,
        optimizer=opt,
        output_dir=run["output.dir"],
        greens_point=(greens_x[0], greens_x[1], greens_y[0], greens_y[1]),
        greens_omega=greens_omega,
        config_hash=cfg_hash,
    )


def _parse_shapes(pairs, layout, shape_keys, L, errors):
    explicit = bool(shape_keys)
    if explicit and any(k.startswith("geometry.") for k in pairs):
        raise ConfigError("give either explicit shape.* blocks or a geometry preset, not both")
    if explicit:
        indices = set()
        for key in shape_keys:
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in _SECTIONS["shape"]:
                raise ConfigError(f"unknown key: {key}")
            try:
                indices.add(int(parts[1]))
            except ValueError:
                raise ConfigError(f"{key}: shape index must be an integer") from None
        if indices != set(range(1, len(indices) + 1)):
            raise ConfigError("shape indices must be contiguous starting at 1")
        shapes = []
        for i in sorted(indices):
            section = f"shape.{i}"  # ShapeParams has no default center or a0
            missing = [f"{section}.{k} is missing" for k in ("center", "a0") if f"{section}.{k}" not in pairs]
            errors.extend(missing)
            if not missing:
                shapes.append(_build(ShapeParams, section, errors, **_fields(pairs, section, ShapeParams)))
        if errors:
            raise ConfigError("; ".join(errors))
        try:
            fourier_order(shapes)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        shapes = tuple(shapes)
    else:
        try:
            cols, rows = (int(p) for p in layout.lower().split("x"))
        except ValueError:
            raise ConfigError(f"geometry.layout: expected 'CxR', got {layout!r}") from None
        if cols < 1 or rows < 1:
            raise ConfigError("geometry.layout counts must be positive")
        shapes = _build(grid_layout, "geometry", errors, cols, rows, **_fields(pairs, "geometry", grid_layout))
        if shapes is None:
            raise ConfigError("; ".join(errors))
    violations = validate_geometry(shapes, L)
    errors.extend(violations)
    return shapes


def parse_config(path) -> RunConfig:
    """Parse and fully validate a configuration file."""
    with open(path) as fh:
        return parse_config_text(fh.read())
