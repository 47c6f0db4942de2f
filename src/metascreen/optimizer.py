"""Gradient-based broadband design loop over the Fourier shape parameters.

Each iteration rebuilds the grid, recomputes the capacitance quantities and
the Hadamard densities, chains them onto the design vector, and takes an
adaptive-moment step.  The step normalizes the gradient per resonator block
by its max-abs before the moment update ("uniform" scaling of the shape
gradient density), applies the usual bias-corrected first/second moments, and
projects the iterate onto the box constraints.  A step whose geometry is
invalid is halved up to ten times before the iteration is skipped.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import capacitance, geometry, layerpot, rom, shapegrad

__all__ = [
    "OptConfig",
    "OptState",
    "objective_ref",
    "objective_res",
    "uniform_targets",
    "step_uniform_adam",
    "run",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class OptConfig:
    objective: str = "ref"  # "ref" or "res"
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
    geometry_margin: float | None = None
    n_pts: int = 64
    seed: int = 0
    plateau_iters: int = 0  # 0 disables the plateau stop
    plateau_tol: float = 1e-10
    snapshot_every: int = 0

    def __post_init__(self):
        if self.objective not in ("ref", "res"):
            raise ValueError("objective must be 'ref' or 'res'")
        if not self.band[0] < self.band[1]:
            raise ValueError("band must satisfy omega_min < omega_max")
        if self.max_iters < 0 or self.lr < 0:
            raise ValueError("max_iters and lr must be nonnegative")


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

    @classmethod
    def fresh(cls, shapes) -> "OptState":
        orders = {p.order for p in shapes}
        if len(orders) != 1:
            raise ValueError("all shapes must share one Fourier order")
        p = geometry.shapes_to_params(shapes)
        return cls(
            params=p, order=orders.pop(), moment1=np.zeros_like(p), moment2=np.zeros_like(p)
        )

    def shapes(self):
        return geometry.params_to_shapes(self.params, self.order)


def uniform_targets(band, m: int) -> np.ndarray:
    """Targets omega_j* = omega_min + j (omega_max - omega_min)/(M+1), j=1..M."""
    lo, hi = band
    j = np.arange(1, m + 1)
    return lo + j * (hi - lo) / (m + 1)


def objective_ref(model: rom.RomModel, band, n_quad: int = 64) -> float:
    """Band-averaged reflectance J^ref = mean of |r|^2 over the band."""
    nodes, weights = rom.band_quadrature(band, n_quad)
    r = rom.reflection_rom(model, nodes, warn_band=False)
    return float(np.sum(weights * np.abs(r) ** 2) / (band[1] - band[0]))


def objective_res(model: rom.RomModel, targets) -> float:
    """Resonance matching J^res; zero iff every critical-coupling condition holds."""
    targets = np.asarray(targets, dtype=float)
    m_t = len(targets)
    if m_t > model.n_modes:
        raise ValueError("more targets than modes")
    lam_w = rom.lambda_of_omega(model, targets)
    if np.any(np.imag(lam_w) == 0):
        raise ValueError("J^res undefined: Im lambda(omega*) = 0 (lossless material)")
    t1 = model.lam[:m_t] / np.real(lam_w) - 1.0
    t2 = targets * model.lam1[:m_t] / np.imag(lam_w) - 1.0
    return float(np.mean(t1 * t1 + t2 * t2))


def _bounds_mask(n_res: int, order: int, cfg: OptConfig, L: float):
    """Per-parameter (lower, upper) arrays for the box projection."""
    npp = geometry.params_per_shape(order)
    lo = np.full(n_res * npp, -np.inf)
    hi = np.full(n_res * npp, np.inf)
    for j in range(n_res):
        base = j * npp
        lo[base], hi[base] = -L / 2.0, L / 2.0  # center_x stays in the cell
        lo[base + 1] = 0.0  # center height above the wall
        lo[base + 2], hi[base + 2] = cfg.a0_bounds
        lo[base + 3 :base + npp] = cfg.coeff_bounds[0]
        hi[base + 3 :base + npp] = cfg.coeff_bounds[1]
    return lo, hi


def step_uniform_adam(state: OptState, grad, cfg: OptConfig, L: float, margin=None):
    """One projected adaptive-moment step on the design vector.

    The gradient is normalized per resonator block by its max-abs entry (when
    nonzero) before the bias-corrected moment update; the trial point is
    projected onto the box and validated, halving the step up to ten times.
    Returns (new_state, accepted).
    """
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient passed to the optimizer step")
    shapes = state.shapes()
    npp = geometry.params_per_shape(state.order)
    g = grad.copy()
    for j in range(len(shapes)):
        blk = slice(j * npp, (j + 1) * npp)
        scale = np.abs(g[blk]).max()
        if scale > 0:
            g[blk] /= scale
    if cfg.freeze_centers:
        for j in range(len(shapes)):
            g[j * npp : j * npp + 2] = 0.0
    t = state.iteration + 1
    m1 = cfg.beta1 * state.moment1 + (1.0 - cfg.beta1) * g
    m2 = cfg.beta2 * state.moment2 + (1.0 - cfg.beta2) * g * g
    m1_hat = m1 / (1.0 - cfg.beta1**t)
    m2_hat = m2 / (1.0 - cfg.beta2**t)
    direction = m1_hat / (np.sqrt(m2_hat) + cfg.eps)
    lo, hi = _bounds_mask(len(shapes), state.order, cfg, L)
    step = cfg.lr
    for _ in range(11):
        trial = np.clip(state.params - step * direction, lo, hi)
        violations = geometry.validate_geometry(
            geometry.params_to_shapes(trial, state.order), L, margin=margin
        )
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


def _evaluate(shapes, cfg: OptConfig, materials, L, targets):
    """Objective value and parametric gradient at one design."""
    grid = geometry.discretize(shapes, cfg.n_pts, L)
    ctx = layerpot.AssemblyContext(grid)
    data = capacitance.capacitance_pipeline(grid, context=ctx)
    model = rom.build_rom(data, materials)
    kstar = ctx.adjoint_double_layer_laplace()
    grads = shapegrad.gradient_densities(data, materials, kstar=kstar)
    vel = shapegrad.normal_velocities(grid)
    if cfg.objective == "ref":
        value = objective_ref(model, cfg.band, cfg.n_quad)
        density = shapegrad.grad_objective_ref(model, grads, cfg.band, cfg.n_quad)
    else:
        value = objective_res(model, targets)
        density = shapegrad.grad_objective_res(model, grads, targets)
    gradient = shapegrad.parametric_gradient(density, grid, vel)
    return value, gradient, model, grid


def run(
    config: OptConfig,
    shapes,
    materials: rom.MaterialParams,
    L: float,
    artifacts_dir=None,
    meta: str = "",
):
    """Execute the design loop; returns the final OptState.

    A degenerate spectrum mid-run is retried with seeded 1e-4 Fourier jitter
    (at most 3 times), then aborts.  When ``artifacts_dir`` is given, the
    history CSV, the best geometry and the initial/best ROM spectra are
    written there.
    """
    shapes = tuple(shapes)
    violations = geometry.validate_geometry(
        shapes,
        L,
        margin=config.geometry_margin,
        design_box=(config.a0_bounds, config.coeff_bounds[1]),
    )
    if violations:
        raise geometry.GeometryError(violations)
    state = OptState.fresh(shapes)
    rng = np.random.default_rng(config.seed)
    targets = None
    if config.objective == "res":
        m_t = config.m_targets if config.m_targets is not None else len(shapes)
        targets = uniform_targets(config.band, m_t)

    def evaluate_with_retry(st: OptState):
        params = st.params
        for attempt in range(4):
            try:
                return params, _evaluate(
                    geometry.params_to_shapes(params, st.order), config, materials, L, targets
                )
            except shapegrad.DegenerateSpectrumError:
                if attempt == 3:
                    raise
                log.warning("degenerate spectrum; retrying with seeded Fourier jitter")
                npp = geometry.params_per_shape(st.order)
                jitter = np.zeros_like(params)
                for j in range(len(shapes)):
                    blk = slice(j * npp + 3, (j + 1) * npp)
                    jitter[blk] = 1e-4 * rng.standard_normal(blk.stop - blk.start)
                params = params + jitter
        raise AssertionError("unreachable")

    snapshots = []
    plateau = 0
    for it in range(config.max_iters + 1):
        t0 = time.perf_counter()
        params, (value, gradient, model, grid) = evaluate_with_retry(state)
        if not np.array_equal(params, state.params):
            state = replace(state, params=params)
        grad_inf = float(np.abs(gradient).max()) if gradient.size else 0.0
        improved = value < state.best_value - config.plateau_tol
        if value < state.best_value:
            state.best_value = value
            state.best_params = state.params.copy()
        wall_ms = (time.perf_counter() - t0) * 1000.0
        state.history.append((state.iteration, value, grad_inf, wall_ms))
        if config.snapshot_every and it % config.snapshot_every == 0:
            snapshots.append((state.iteration, grid))
        if it == config.max_iters:
            break
        plateau = 0 if improved else plateau + 1
        if config.plateau_iters and plateau >= config.plateau_iters:
            log.info("plateau stop after %d stale iterations", plateau)
            break
        state, _ = step_uniform_adam(state, gradient, config, L, margin=config.geometry_margin)

    if artifacts_dir is not None:
        _write_artifacts(config, state, shapes, materials, L, artifacts_dir, snapshots, meta)
    return state


def _write_artifacts(config, state, initial_shapes, materials, L, outdir, snapshots, meta):
    import csv
    import pathlib

    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "history.csv", "w", newline="") as fh:
        if meta:
            fh.write(f"# {meta}\n")
        writer = csv.writer(fh)
        writer.writerow(["iter", "J", "grad_inf_norm", "wall_ms"])
        for row in state.history:
            writer.writerow([row[0], f"{row[1]:.17g}", f"{row[2]:.17g}", f"{row[3]:.3f}"])
    best_shapes = geometry.params_to_shapes(
        state.best_params if state.best_params is not None else state.params, state.order
    )
    for tag, shp in (("initial", initial_shapes), ("best", best_shapes)):
        grid = geometry.discretize(shp, config.n_pts, L)
        geometry.dump_geometry(grid, outdir / f"geometry_{tag}.csv", meta=meta)
        data = capacitance.capacitance_pipeline(grid)
        model = rom.build_rom(data, materials)
        oms = np.linspace(config.band[0], config.band[1], 200)
        r = rom.reflection_rom(model, oms, warn_band=False)
        with open(outdir / f"spectrum_{tag}.csv", "w", newline="") as fh:
            if meta:
                fh.write(f"# {meta}\n")
            writer = csv.writer(fh)
            writer.writerow(["omega", "re_r", "im_r", "abs_r", "absorptance", "model"])
            for om, rv in zip(oms, r):
                writer.writerow(
                    [
                        f"{om:.17g}",
                        f"{rv.real:.17g}",
                        f"{rv.imag:.17g}",
                        f"{abs(rv):.17g}",
                        f"{1.0 - abs(rv) ** 2:.17g}",
                        "rom",
                    ]
                )
    for it, grid in snapshots:
        geometry.dump_geometry(grid, outdir / f"geometry_iter{it:05d}.csv", meta=meta)
