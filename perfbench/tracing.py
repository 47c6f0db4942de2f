"""Traced run: time calls into each metascreen layer from outside the library.

Run as a script, this wraps the public functions listed in ``TRACED`` in one
process, runs the ``metascreen`` CLI once with the remaining arguments, and
writes the spans to a JSON file when the CLI returns:

    python3 perfbench/tracing.py --spans spans.json -- --config c.cfg spectrum --model both

A span is ``[name, start_s, end_s, parent_index]``; the parent is the span
that was open when the call started (-1 at the top).  Every place a traced
function is bound is patched: the module attribute, names bound with
``from ... import`` in other metascreen modules, and methods on the
``AssemblyContext`` class.

Imported as a module (by run.py), it turns spans into the per-layer metrics
named in BENCHMARK.json.  That side does not import metascreen.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import time

# (module, attribute, span name).  "Class.method" attributes are patched on the class.
TRACED = (
    ("cli", "main", "cli.main"),
    ("config", "parse_config", "config.parse_config"),
    ("geometry", "discretize", "geometry.discretize"),
    ("geometry", "validate_geometry", "geometry.validate_geometry"),
    ("greens", "subtracted_combos", "greens.subtracted_combos"),
    ("greens", "residual_cache", "greens.residual_cache"),
    ("greens", "modal_residual", "greens.modal_residual"),
    ("greens", "modal_closed_part", "greens.modal_closed_part"),
    ("layerpot", "AssemblyContext.__init__", "layerpot.AssemblyContext"),
    ("layerpot", "AssemblyContext.single_layer_laplace", "layerpot.single_layer_laplace"),
    ("layerpot", "AssemblyContext.adjoint_double_layer_laplace", "layerpot.adjoint_double_layer_laplace"),
    ("layerpot", "AssemblyContext.single_layer_helmholtz", "layerpot.single_layer_helmholtz"),
    ("layerpot", "AssemblyContext.adjoint_double_layer_helmholtz", "layerpot.adjoint_double_layer_helmholtz"),
    ("layerpot", "solve_density", "layerpot.solve_density"),
    ("capacitance", "capacitance_pipeline", "capacitance.capacitance_pipeline"),
    ("capacitance", "compute_capacitance", "capacitance.compute_capacitance"),
    ("capacitance", "compute_moments", "capacitance.compute_moments"),
    ("capacitance", "eigendecompose", "capacitance.eigendecompose"),
    ("rom", "build_rom", "rom.build_rom"),
    ("rom", "reflection_rom", "rom.reflection_rom"),
    ("fullorder", "solve_scattering", "fullorder.solve_scattering"),
    ("shapegrad", "gradient_densities", "shapegrad.gradient_densities"),
    ("shapegrad", "grad_objective_ref", "shapegrad.grad_objective_ref"),
    ("shapegrad", "normal_velocities", "shapegrad.normal_velocities"),
    ("shapegrad", "parametric_gradient", "shapegrad.parametric_gradient"),
    ("optimizer", "run", "optimizer.run"),
    ("optimizer", "step_uniform_adam", "optimizer.step_uniform_adam"),
    ("optimizer", "objective_ref", "optimizer.objective_ref"),
)

# Per-layer metrics: (name, unit, better).  Order is the report order.
PER_LAYER = (
    ("geometry.discretize.calls", "count", "lower"),
    ("geometry.discretize.ms", "ms", "lower"),
    ("geometry.validate_geometry.calls", "count", "lower"),
    ("geometry.validate_geometry.ms", "ms", "lower"),
    ("greens.subtracted_combos.calls", "count", "lower"),
    ("greens.subtracted_combos.ms", "ms", "lower"),
    ("greens.residual_cache.calls", "count", "lower"),
    ("greens.residual_cache.ms", "ms", "lower"),
    ("greens.modal_residual.calls", "count", "lower"),
    ("greens.modal_residual.ms", "ms", "lower"),
    ("greens.modal_closed_part.calls", "count", "lower"),
    ("greens.modal_closed_part.ms", "ms", "lower"),
    ("layerpot.AssemblyContext.calls", "count", "lower"),
    ("layerpot.AssemblyContext.self_ms", "ms", "lower"),
    ("layerpot.single_layer_laplace.calls", "count", "lower"),
    ("layerpot.single_layer_laplace.ms", "ms", "lower"),
    ("layerpot.adjoint_double_layer_laplace.calls", "count", "lower"),
    ("layerpot.adjoint_double_layer_laplace.ms", "ms", "lower"),
    ("layerpot.solve_density.calls", "count", "lower"),
    ("layerpot.solve_density.ms", "ms", "lower"),
    ("layerpot.single_layer_helmholtz.calls", "count", "lower"),
    ("layerpot.single_layer_helmholtz.self_ms", "ms", "lower"),
    ("layerpot.adjoint_double_layer_helmholtz.calls", "count", "lower"),
    ("layerpot.adjoint_double_layer_helmholtz.self_ms", "ms", "lower"),
    ("layerpot.bundle_reuse", "ratio", "higher"),
    ("layerpot.context_mb", "MiB", "lower"),
    ("capacitance.capacitance_pipeline.calls", "count", "lower"),
    ("capacitance.compute_capacitance.calls", "count", "lower"),
    ("capacitance.compute_capacitance.ms", "ms", "lower"),
    ("capacitance.compute_moments.calls", "count", "lower"),
    ("capacitance.compute_moments.ms", "ms", "lower"),
    ("capacitance.eigendecompose.calls", "count", "lower"),
    ("capacitance.eigendecompose.ms", "ms", "lower"),
    ("capacitance.lu_per_pipeline", "ratio", "lower"),
    ("rom.build_rom.calls", "count", "lower"),
    ("rom.build_rom.ms", "ms", "lower"),
    ("rom.reflection_rom.calls", "count", "lower"),
    ("rom.reflection_rom.ms", "ms", "lower"),
    ("fullorder.solve_scattering.calls", "count", "lower"),
    ("fullorder.solve_scattering.self_ms", "ms", "lower"),
    ("fullorder.solve_scattering.p50_ms", "ms", "lower"),
    ("fullorder.solve_scattering.p90_ms", "ms", "lower"),
    ("fullorder.dense_gflops", "GFLOP/s", "higher"),
    ("shapegrad.gradient_densities.calls", "count", "lower"),
    ("shapegrad.gradient_densities.ms", "ms", "lower"),
    ("shapegrad.grad_objective_ref.calls", "count", "lower"),
    ("shapegrad.grad_objective_ref.ms", "ms", "lower"),
    ("shapegrad.normal_velocities.calls", "count", "lower"),
    ("shapegrad.normal_velocities.ms", "ms", "lower"),
    ("shapegrad.parametric_gradient.calls", "count", "lower"),
    ("shapegrad.parametric_gradient.ms", "ms", "lower"),
    ("optimizer.run.self_ms", "ms", "lower"),
    ("optimizer.evaluations", "count", "lower"),
    ("optimizer.step_uniform_adam.calls", "count", "lower"),
    ("optimizer.step_uniform_adam.ms", "ms", "lower"),
    ("optimizer.objective_ref.calls", "count", "lower"),
    ("optimizer.objective_ref.ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("config.parse_config.ms", "ms", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)


def _held_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds in its attributes (one level of containers deep)."""
    seen = set()
    total = 0
    stack = list(vars(obj).values())
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (tuple, list)):
            stack.extend(value)
        elif hasattr(value, "nbytes") and hasattr(value, "dtype") and id(value) not in seen:
            seen.add(id(value))
            total += int(value.nbytes)
    return total


class Tracer:
    """Span recorder; ``install`` wraps the functions in TRACED."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.context_bytes = 0
        self.bindings: list[str] = []

    def _wrap(self, name, fn, on_exit=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
                if on_exit is not None:
                    on_exit(args[0])

        return traced

    def _note_context(self, ctx):
        self.context_bytes = max(self.context_bytes, _held_bytes(ctx))

    def install(self):
        import metascreen.cli  # noqa: F401 - loads every metascreen module

        modules = {n: m for n, m in sys.modules.items() if n.startswith("metascreen")}
        for module, attr, name in TRACED:
            mod = modules[f"metascreen.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth], self._note_context))
                self.bindings.append(f"{module}.{attr}")
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig)
            for mod_name, other in modules.items():
                for key, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, key, wrapped)
                        self.bindings.append(f"{mod_name.removeprefix('metascreen.')}.{key}")


def summarize(spans):
    """Per span name: calls, total ms (outermost calls only), self ms, per-call ms."""
    n = len(spans)
    dur = [(s[2] - s[1]) * 1e3 for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    out: dict[str, dict] = {}
    for i, (name, _, _, parent) in enumerate(spans):
        st = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "durations": []})
        st["calls"] += 1
        st["self_ms"] += dur[i] - child[i]
        st["durations"].append(dur[i])
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:  # not nested inside a call of the same name
            st["ms"] += dur[i]
    return out


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, context_bytes: int, n_total: int, evaluations: int) -> dict:
    """Per-layer metrics of one traced run (all of PER_LAYER except trace_overhead_frac).

    ``n_total`` is the node count of the grid (the full-order system is
    2 n_total square); ``evaluations`` the optimizer's history rows.
    """
    summary = summarize(spans)

    def stat(name, key):
        st = summary.get(name)
        return float(st[key]) if st else 0.0

    out = {}
    for metric, _, _ in PER_LAYER:
        head, _, key = metric.rpartition(".")
        if key in ("calls", "ms", "self_ms"):
            out[metric] = stat(head, key)
    helm_ops = stat("layerpot.single_layer_helmholtz", "calls") + stat(
        "layerpot.adjoint_double_layer_helmholtz", "calls"
    )
    bundles = stat("greens.modal_residual", "calls") / 2.0  # one direct + one image pass per bundle
    out["layerpot.bundle_reuse"] = helm_ops / bundles if bundles else 0.0
    out["layerpot.context_mb"] = context_bytes / 2**20
    pipelines = stat("capacitance.capacitance_pipeline", "calls")
    out["capacitance.lu_per_pipeline"] = (
        stat("layerpot.solve_density", "calls") / pipelines if pipelines else 0.0
    )
    solves = summary.get("fullorder.solve_scattering", {"durations": []})["durations"]
    out["fullorder.solve_scattering.p50_ms"] = _percentile(solves, 50)
    out["fullorder.solve_scattering.p90_ms"] = _percentile(solves, 90)
    solve_self_s = stat("fullorder.solve_scattering", "self_ms") / 1e3
    flop = len(solves) * (8.0 / 3.0) * (2 * n_total) ** 3  # complex LU of the 2n x 2n system
    out["fullorder.dense_gflops"] = flop / solve_self_s / 1e9 if solve_self_s else 0.0
    out["optimizer.evaluations"] = float(evaluations)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file the spans are written to")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then metascreen CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    tracer.install()
    from metascreen import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(args.spans, "w") as fh:
            json.dump(
                {
                    "spans": tracer.spans,
                    "context_bytes": tracer.context_bytes,
                    "bindings": tracer.bindings,
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main())
