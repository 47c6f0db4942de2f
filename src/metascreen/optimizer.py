"""Gradient-based broadband design loop over the Fourier shape parameters.

OBJECTIVES is the one table of objectives: each name maps to the J of a
RomModel and its shape-gradient density.  ``evaluate`` gives J and dJ/dp
of any of them from one build of the design (``design``), K* and the
Hadamard densities.  Each iteration evaluates cfg.objective and takes an
adaptive-moment step.  The step normalizes the gradient per resonator block
by its max-abs before the moment update ("uniform" scaling of the shape
gradient density), applies the usual bias-corrected first/second moments, and
projects the iterate onto the design box (_bounds_mask), the one box ``run``
also checks the initial design against.  A step whose geometry is invalid is
halved up to ten times before the iteration is skipped.  The step, the box
and the jitter work on the (resonator, parameter) view of the design vector,
whose rows geometry names (CENTER, A0, COEFFS).

``run`` writes no files: the returned OptState carries the history, the best
design, the (grid, RomModel) of the first and best evaluations and the
snapshot grids, and the CLI writes them out.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import capacitance, geometry, layerpot, rom, shapegrad

__all__ = [
    "OBJECTIVES",
    "OptConfig",
    "OptState",
    "objective_ref",
    "objective_res",
    "uniform_targets",
    "design_targets",
    "step_uniform_adam",
    "design",
    "evaluate",
    "run",
]

log = logging.getLogger(__name__)

# an evaluation counts as an improvement for the plateau stop only when it
# beats the best J by more than this
PLATEAU_TOL = 1e-10


@dataclass(frozen=True)
class OptConfig:
    objective: str = "ref"  # a name in OBJECTIVES
    band: tuple[float, float] = (0.01, 0.1)
    m_targets: int | None = None  # res only; defaults to the mode count
    n_quad: int = 64  # ref only
    max_iters: int = 100
    lr: float = 0.02
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    a0_bounds: tuple[float, float] = (0.1, 1.0)
    coeff_bounds: tuple[float, float] = (-1.0, 1.0)
    freeze_centers: bool = False
    n_pts: int = 64
    seed: int = 0
    plateau_iters: int = 0  # 0 disables the plateau stop
    snapshot_every: int = 0

    def __post_init__(self):
        # every failing field in one error, each message led by its field name;
        # each range is written so that NaN fails it
        (a0_lo, a0_hi), (c_lo, c_hi) = self.a0_bounds, self.coeff_bounds
        checks = (
            (self.objective in OBJECTIVES, f"objective must be one of {tuple(OBJECTIVES)}"),
            (0.0 <= self.band[0] < self.band[1], "band must satisfy 0 <= omega_min < omega_max"),
            (self.m_targets is None or self.m_targets >= 1, "m_targets must be at least 1"),
            (self.n_quad >= 1, "n_quad must be at least 1"),
            (self.max_iters >= 0, "max_iters must be nonnegative"),
            (self.lr >= 0.0, "lr must be nonnegative"),
            (0.0 <= self.beta1 < 1.0, "beta1 must be in [0, 1)"),
            (0.0 <= self.beta2 < 1.0, "beta2 must be in [0, 1)"),
            (self.eps > 0.0, "eps must be positive"),
            (0.0 < a0_lo < a0_hi, "a0_bounds: a0 bounds must satisfy 0 < lower < upper"),
            (c_lo <= c_hi, "coeff_bounds must satisfy lower <= upper"),
            (self.n_pts >= 16 and self.n_pts % 2 == 0, "n_pts must be even and >= 16"),
            (self.plateau_iters >= 0, "plateau_iters must be nonnegative"),
            (self.snapshot_every >= 0, "snapshot_every must be nonnegative"),
        )
        errors = [message for ok, message in checks if not ok]
        if errors:
            raise ValueError("; ".join(errors))


@dataclass
class OptState:
    params: np.ndarray
    order: int
    moment1: np.ndarray
    moment2: np.ndarray
    iteration: int = 0
    history: list = field(default_factory=list)  # rows (iter, J, grad_inf, wall_ms)
    best_value: float = np.inf
    best_params: np.ndarray | None = None
    initial: tuple | None = None  # (grid, RomModel) of the first evaluation
    best: tuple | None = None  # (grid, RomModel) of the best evaluation
    snapshots: list = field(default_factory=list)  # (iteration, grid) every snapshot_every

    @classmethod
    def fresh(cls, shapes) -> "OptState":
        p = geometry.shapes_to_params(shapes)
        order = geometry.fourier_order(shapes)
        return cls(params=p, order=order, moment1=np.zeros_like(p), moment2=np.zeros_like(p))

    def shapes(self):
        return geometry.params_to_shapes(self.params, self.order)


def uniform_targets(band, m: int) -> np.ndarray:
    """Targets omega_j* = omega_min + j (omega_max - omega_min)/(M+1), j=1..M."""
    lo, hi = band
    j = np.arange(1, m + 1)
    return lo + j * (hi - lo) / (m + 1)


def design_targets(config: OptConfig, n_res: int) -> np.ndarray:
    """J^res targets of a design: m_targets of them (default n_res, one per mode) over the band."""
    return uniform_targets(config.band, config.m_targets if config.m_targets is not None else n_res)


def objective_ref(model: rom.RomModel, band, n_quad: int = 64) -> float:
    """Band-averaged reflectance J^ref = mean of |r|^2 over the band."""
    nodes, weights = rom.band_quadrature(band, n_quad)
    r = rom.reflection_rom(model, nodes)
    return float(np.sum(weights * np.abs(r) ** 2) / (band[1] - band[0]))


def objective_res(model: rom.RomModel, targets) -> float:
    """Resonance matching J^res; zero iff every critical-coupling condition holds."""
    t1, t2, _ = rom.resonance_defects(model, targets)
    return float(np.mean(t1 * t1 + t2 * t2))


# name -> (J of a RomModel, its density); looked up at call time, so module wrappers see the calls
OBJECTIVES = {
    "ref": (
        lambda model, cfg: objective_ref(model, cfg.band, cfg.n_quad),
        lambda model, grads, cfg: shapegrad.grad_objective_ref(model, grads, cfg.band, cfg.n_quad),
    ),
    "res": (
        lambda model, cfg: objective_res(model, design_targets(cfg, model.n_modes)),
        lambda model, grads, cfg: shapegrad.grad_objective_res(
            model, grads, design_targets(cfg, model.n_modes)
        ),
    ),
}


def _bounds_mask(n_res: int, order: int, cfg: OptConfig, L: float):
    """Per-parameter (lower, upper) arrays for the box projection."""
    shape = (n_res, geometry.params_per_shape(order))
    lo, hi = np.full(shape, -np.inf), np.full(shape, np.inf)
    # center_x stays in the cell, the center height above the wall
    lo[:, geometry.CENTER], hi[:, geometry.CENTER] = (-L / 2.0, 0.0), (L / 2.0, np.inf)
    lo[:, geometry.A0], hi[:, geometry.A0] = cfg.a0_bounds
    lo[:, geometry.COEFFS], hi[:, geometry.COEFFS] = cfg.coeff_bounds
    return lo.ravel(), hi.ravel()


def step_uniform_adam(state: OptState, grad, cfg: OptConfig, L: float):
    """One projected adaptive-moment step on the design vector.

    The gradient is normalized per resonator block by its max-abs entry (when
    nonzero) before the bias-corrected moment update; the trial point is
    projected onto the box and validated, halving the step up to ten times.
    Returns (new_state, accepted).
    """
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient passed to the optimizer step")
    g = grad.copy()
    blocks = g.reshape(-1, geometry.params_per_shape(state.order))  # a view: one row per resonator
    scale = np.abs(blocks).max(axis=1, keepdims=True)
    np.divide(blocks, scale, out=blocks, where=scale > 0)
    if cfg.freeze_centers:
        blocks[:, geometry.CENTER] = 0.0
    t = state.iteration + 1
    m1 = cfg.beta1 * state.moment1 + (1.0 - cfg.beta1) * g
    m2 = cfg.beta2 * state.moment2 + (1.0 - cfg.beta2) * g * g
    m1_hat = m1 / (1.0 - cfg.beta1**t)
    m2_hat = m2 / (1.0 - cfg.beta2**t)
    direction = m1_hat / (np.sqrt(m2_hat) + cfg.eps)
    lo, hi = _bounds_mask(len(blocks), state.order, cfg, L)
    step = cfg.lr
    for _ in range(11):
        trial = np.clip(state.params - step * direction, lo, hi)
        violations = geometry.validate_geometry(geometry.params_to_shapes(trial, state.order), L)
        if not violations:
            new = replace(
                state,
                params=trial,
                moment1=m1,
                moment2=m2,
                iteration=t,
            )
            return new, True
        step *= 0.5
    log.warning("iteration %d skipped: no valid step found after 10 halvings", t)
    new = replace(state, moment1=m1, moment2=m2, iteration=t)
    return new, False


def design(shapes, cfg: OptConfig, materials, L):
    """The (grid, AssemblyContext, CapacitanceData, RomModel) chain of one design."""
    grid = geometry.discretize(shapes, cfg.n_pts, L)
    ctx = layerpot.AssemblyContext(grid)
    data = capacitance.capacitance_pipeline(grid, context=ctx)
    return grid, ctx, data, rom.build_rom(data, materials)


def evaluate(shapes, cfg: OptConfig, materials, L, names=None):
    """J and dJ/dp at one design for each objective in names (default cfg.objective alone).

    Returns ({name: (J, dJ/dp)}, model, grid); the grid, K* and the
    ShapeGradients are built once for all the names.
    """
    grid, ctx, data, model = design(shapes, cfg, materials, L)
    grads = shapegrad.gradient_densities(data, materials, kstar=ctx.adjoint_double_layer_laplace())
    vel = shapegrad.normal_velocities(grid)
    jets = {}
    for name in names or (cfg.objective,):
        value, density = OBJECTIVES[name]
        jets[name] = value(model, cfg), shapegrad.parametric_gradient(density(model, grads, cfg), grid, vel)
    return jets, model, grid


def run(config: OptConfig, shapes, materials: rom.MaterialParams, L: float) -> OptState:
    """Execute the design loop; returns the final OptState and writes no files.

    The initial design must pass validate_geometry and lie in the box the
    steps are projected onto (_bounds_mask), or GeometryError names every
    breach.  A degenerate spectrum mid-run is retried with seeded 1e-4
    Fourier jitter (at most 3 times), then aborts.  An iteration whose step
    was skipped reuses the evaluation of the unchanged design, which is
    deterministic.
    The state keeps the (grid, RomModel) of the first and of the best
    evaluation and the snapshot grids, so callers can report them without
    evaluating again.
    """
    shapes = tuple(shapes)
    state = OptState.fresh(shapes)
    lo, hi = _bounds_mask(len(shapes), state.order, config, L)
    npp = geometry.params_per_shape(state.order)
    violations = [
        f"resonator {i // npp}: {geometry.param_name(state.order, i % npp)} = {state.params[i]:.6g} "
        f"outside the design box [{lo[i]:g}, {hi[i]:g}]"
        for i in np.flatnonzero((state.params < lo) | (state.params > hi))
    ]
    violations += geometry.validate_geometry(shapes, L)
    if violations:
        raise geometry.GeometryError(violations)
    rng = None  # the jitter generator, made on the first retry: most runs never import numpy.random

    def evaluate_with_retry(st: OptState):
        nonlocal rng
        params = st.params
        for attempt in range(4):
            try:
                return params, evaluate(geometry.params_to_shapes(params, st.order), config, materials, L)
            except shapegrad.DegenerateSpectrumError:
                if attempt == 3:
                    raise
                log.warning("degenerate spectrum; retrying with seeded Fourier jitter")
                if rng is None:
                    rng = np.random.default_rng(config.seed)
                jitter = np.zeros((len(shapes), npp))
                coeffs = jitter[:, geometry.COEFFS]
                coeffs[:] = 1e-4 * rng.standard_normal(coeffs.shape)
                params = params + jitter.ravel()
        raise AssertionError("unreachable")

    plateau = 0
    last = None  # (params, evaluation) of the last evaluation
    for it in range(config.max_iters + 1):
        t0 = time.perf_counter()
        if last is None or not np.array_equal(state.params, last[0]):
            last = evaluate_with_retry(state)  # a skipped step leaves the params, so reuse
        params, (jets, model, grid) = last
        value, gradient = jets[config.objective]
        if not np.array_equal(params, state.params):
            state = replace(state, params=params)
        grad_inf = float(np.abs(gradient).max()) if gradient.size else 0.0
        improved = value < state.best_value - PLATEAU_TOL
        if state.initial is None:
            state.initial = (grid, model)
        if value < state.best_value:
            state.best_value = value
            state.best_params = state.params.copy()
            state.best = (grid, model)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        state.history.append((state.iteration, value, grad_inf, wall_ms))
        if config.snapshot_every and it % config.snapshot_every == 0:
            state.snapshots.append((state.iteration, grid))
        if it == config.max_iters:
            break
        plateau = 0 if improved else plateau + 1
        if config.plateau_iters and plateau >= config.plateau_iters:
            log.info("plateau stop after %d stale iterations", plateau)
            break
        state, _ = step_uniform_adam(state, gradient, config, L)

    if state.best is None:  # no evaluation had a finite J
        state.best = (grid, model)
    return state
