"""Tests of the benchmark's own parts: input generator, output checks, tracer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def spectrum_csv(rom, exact):
    lines = ["# metascreen 0.1.0 config_sha256=abc seed=0", "omega,re_r,im_r,abs_r,absorptance,model"]
    for tag, values in (("rom", rom), ("exact", exact)):
        for i, r in enumerate(values):
            lines.append(f"{0.01 * (i + 1)!r},{r.real!r},{r.imag!r},{abs(r)!r},{1 - abs(r) ** 2!r},{tag}")
    return "\n".join(lines) + "\n# summary max_abs_r_diff = 0\n"


def history_csv(js):
    lines = ["# meta", "iter,J,grad_inf_norm,wall_ms"]
    lines += [f"{i},{j!r},0.1,{100.0 + i:.3f}" for i, j in enumerate(js)]
    return "\n".join(lines) + "\n"


ROM = [complex(-0.9, 0.1), complex(-0.5, 0.2), complex(-0.8, -0.1)]
EXACT = [complex(-0.92, 0.11), complex(-0.55, 0.25), complex(-0.79, -0.12)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_config_text_is_seeded_and_valid(name):
    config = pytest.importorskip("metascreen.config")
    wl = workloads.WORKLOADS[name]
    assert workloads.config_text(wl, 3) == workloads.config_text(wl, 3)
    assert workloads.config_text(wl, 3) != workloads.config_text(wl, 4)
    for seed in range(10):
        cfg = config.parse_config_text(workloads.config_text(wl, seed))
        assert len(cfg.shapes) == len(wl.centers)
        assert cfg.n_pts == wl.n_pts
        if not wl.is_sweep:
            assert cfg.optimizer.seed == seed


def test_check_spectrum_accepts_good_output():
    text = spectrum_csv(ROM, EXACT)
    assert checks.check_spectrum(text, 3, 0.15) == []
    ref = [[z.real, z.imag] for z in EXACT]
    assert checks.check_spectrum(text, 3, 0.15, ref) == []


@pytest.mark.parametrize(
    "rom, exact, samples, reference, expected",
    [
        (ROM, [complex(-1.01, 0.0)] + EXACT[1:], 3, None, "> 1 in a lossy medium"),
        (ROM, EXACT[:2], 3, None, "exact: 2 rows"),
        (ROM, [complex(float("nan"), 0.0)] + EXACT[1:], 3, None, "non-finite"),
        ([complex(-0.2, 0.0)] + ROM[1:], EXACT, 3, None, "AC1 bound"),
        (ROM, EXACT, 3, [[-0.92, 0.11 + 1e-6], [-0.55, 0.25], [-0.79, -0.12]], "differs from the reference"),
    ],
)
def test_check_spectrum_rejects(rom, exact, samples, reference, expected):
    problems = checks.check_spectrum(spectrum_csv(rom, exact), samples, 0.15, reference)
    assert any(expected in p for p in problems), problems


def test_check_history():
    js = [0.905, 0.893]
    assert checks.check_history(history_csv(js), js) == []
    perturbed = [js[0], js[1] * (1 + 1e-9)]
    assert any("differs from the reference" in p for p in checks.check_history(history_csv(perturbed), js))
    assert any("not below J_0" in p for p in checks.check_history(history_csv([0.9, 0.91])))
    assert checks.check_history(history_csv([0.9, float("inf")])) == ["non-finite J in history.csv"]


def test_history_column_is_compared_as_written():
    a = checks.history_j(history_csv([0.905, 0.893]))
    b = checks.history_j(history_csv([0.905, 0.8930000000000001]))
    assert a != b


def test_failed_command_counts_as_failed(tmp_path):
    sweep, design = workloads.WORKLOADS["sweep-single"], workloads.WORKLOADS["design-nine"]
    (tmp_path / "spectrum.csv").write_text(spectrum_csv(ROM, EXACT))
    assert run.check_workload_output(sweep, tmp_path, 3, None)[0] == ["exit code 3"]
    (tmp_path / "history.csv").write_text(history_csv([0.9, 0.8]))
    problems = run.check_workload_output(design, tmp_path, 0, None)[0]
    assert problems == [f"missing artifacts {list(checks.DESIGN_ARTIFACTS)}"]


def test_check_capmat():
    rows = ["# meta", "kind,i,j,value"] + [f"C,{i},{j},1.5" for i in (1, 2) for j in (1, 2)]
    assert checks.check_capmat("\n".join(rows), 2) == []
    assert checks.check_capmat("\n".join(rows[:-1]), 2) != []


def test_compare_outputs_ignores_only_wall_ms(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "history.csv").write_text(history_csv([0.9, 0.8]))
    (b / "history.csv").write_text(history_csv([0.9, 0.8]).replace("100.000", "250.125"))
    assert checks.compare_outputs(a, b) == []
    (b / "history.csv").write_text(history_csv([0.9, 0.7]))
    assert checks.compare_outputs(a, b) != []
    (b / "spectrum_best.csv").write_text("x")
    assert checks.compare_outputs(a, b) != []


@pytest.mark.parametrize("setup_s, wall_s, remaining", [(0.7, 2.5, 39.0), (2.8, 9.7, 29.5), (2.0, 5.0, 35.0), (1.0, 1.0, 0.0)])
def test_schedule_spreads_capmat_runs(setup_s, wall_s, remaining):
    order = "sw" + run.schedule(setup_s, wall_s, remaining, 1, 1)
    assert order.count("s") >= run.MIN_SETUP and order.count("w") >= run.MIN_REPS
    assert "ss" not in order or order.count("s") == run.MIN_SETUP  # one per repeat unless the minimum needs more
    if order.count("w") > run.MIN_REPS:
        assert (order.count("w") - 1) * wall_s + (order.count("s") - 1) * setup_s <= remaining
    assert run.schedule(setup_s, wall_s, 0.0, run.MIN_SETUP, run.MIN_REPS) == ""


def test_summarize_self_time():
    spans = [
        ["outer", 0.0, 1.0, -1],
        ["inner", 0.1, 0.3, 0],
        ["inner", 0.5, 0.6, 0],
        ["leaf", 0.52, 0.55, 2],
    ]
    s = tracing.summarize(spans)
    assert s["outer"]["calls"] == 1
    assert s["outer"]["self_ms"] == pytest.approx(700.0)
    assert s["inner"]["ms"] == pytest.approx(300.0)
    assert s["inner"]["self_ms"] == pytest.approx(270.0)
    assert s["leaf"]["durations"] == [pytest.approx(30.0)]


def test_layer_metric_ratios():
    spans = [["capacitance.capacitance_pipeline", 0.0, 1.0, -1]]
    spans += [["layerpot.solve_density", 0.1, 0.2, 0]] * 2
    spans += [["greens.modal_residual", 2.0, 2.1, -1]] * 4
    spans += [["layerpot.single_layer_helmholtz", 3.0, 3.1, -1]] * 2
    spans += [["layerpot.adjoint_double_layer_helmholtz", 3.0, 3.1, -1]] * 2
    m = tracing.layer_metrics(spans, 2**20, 10, 0)
    assert m["capacitance.lu_per_pipeline"] == 2.0
    assert m["layerpot.bundle_reuse"] == 2.0
    assert m["layerpot.context_mb"] == 1.0
    assert {name for name, _, _ in tracing.PER_LAYER} == set(m) | {"trace_overhead_frac"}


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [n for n in workloads.WORKLOADS if n != "sweep-nine"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_tracer_wraps_imported_names(tmp_path):
    pytest.importorskip("metascreen")
    config = tmp_path / "c.cfg"
    config.write_text("solver.n_pts = 32\n")
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(run.SRC), **run.BLAS_ENV)
    subprocess.run(
        [sys.executable, str(HERE / "tracing.py"), "--spans", str(spans_path), "--",
         "--config", str(config), "--output-dir", str(tmp_path / "out"), "capmat"],
        env=env, check=True, capture_output=True, timeout=120,
    )
    data = json.loads(spans_path.read_text())
    assert {"config.validate_geometry", "cli.parse_config"} <= set(data["bindings"])
    spans = data["spans"]
    parents = {s[0]: spans[s[3]][0] for s in spans if s[3] >= 0}
    assert parents["config.parse_config"] == "cli.main"
    assert parents["capacitance.compute_capacitance"] == "capacitance.capacitance_pipeline"
    names = [s[0] for s in spans]
    assert names.count("geometry.validate_geometry") == 2  # config parsing and discretize
    assert names.count("greens.subtracted_combos") == 2
    assert data["context_bytes"] > 0
