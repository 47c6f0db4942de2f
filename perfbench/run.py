#!/usr/bin/env python3
"""metascreen benchmark: run the CLI on seeded workloads, check the outputs, report metrics.

    python3 perfbench/run.py --workload sweep-nine --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py          # every workload at the default seed

Load model: closed loop, one client.  One CLI command at a time, each in a
fresh process pinned to one BLAS thread.  With ``--trace 0`` the run reports
the end-to-end metrics (wall time, set-up time, peak RSS);
with ``--trace 1`` it alternates untraced and traced runs of the workload
command and reports the per-layer metrics of tracing.PER_LAYER.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".perfbench_runs"  # per-run working directories, removed after each run

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SETUP = 5  # capmat runs per benchmark run at least; setup_s is their median
MIN_REPS = 3  # workload commands per benchmark run at least, however short --seconds is
RUN_LIMIT_S = 170.0  # a benchmark run kills its children rather than exceed this

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

_VERSION_PROBE = """
import json, numpy, scipy
blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


def child_env() -> dict:
    """The child's environment: one BLAS thread, set before numpy is imported."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("METASCREEN_THREADS", None)
    return env


class Run:
    """State of one benchmark run: its scratch directory, clock and failure count."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, argv) -> tuple[int, float, float]:
        """Run one child process to completion: (exit code, wall s, peak RSS MiB).

        Peak RSS comes from os.wait4 on this child alone; RUSAGE_CHILDREN
        would be the maximum over every child reaped so far.
        """
        self.count += 1
        log = self.workdir / f"child{self.count}.log"
        with open(log, "w") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=child_env(), stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
            timer = threading.Timer(max(1.0, RUN_LIMIT_S - self.elapsed()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            tail = log.read_text().splitlines()[-5:]
            print(f"exit code {proc.returncode} from {' '.join(argv[-3:])}:", *tail, sep="\n    ")
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def cli(self, config: Path, command, outdir: Path, traced_spans: Path | None = None):
        prefix = [sys.executable, "-m", "metascreen.cli"]
        if traced_spans is not None:
            prefix = [sys.executable, str(HERE / "tracing.py"), "--spans", str(traced_spans), "--"]
        return self.child(prefix + ["--config", str(config), "--output-dir", str(outdir), *command])

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {what}: {p}")


def reference_for(wl: workloads.Workload, seed: int, config_text: str):
    """The recorded outputs to compare against, when ``seed`` is the recorded one."""
    ref = json.loads(REFERENCE.read_text()).get(wl.name)
    if ref is None or ref["seed"] != seed:
        return None
    if ref["config_sha256"] != workloads.config_sha256(config_text):
        raise SystemExit(f"{REFERENCE.name}: {wl.name} was recorded for another config; re-record it")
    return ref


def check_workload_output(wl, outdir: Path, rc: int, ref) -> tuple[list[str], list[str]]:
    """(problems, history J column) for one workload command; the column is empty for a sweep."""
    wanted = ("spectrum.csv",) if wl.is_sweep else ("history.csv", *checks.DESIGN_ARTIFACTS)
    missing = [n for n in wanted if not (outdir / n).is_file()]
    failed = ([f"exit code {rc}"] if rc else []) + ([f"missing artifacts {missing}"] if missing else [])
    if failed:
        return failed, []
    text = (outdir / wanted[0]).read_text()
    if wl.is_sweep:
        return checks.check_spectrum(text, wl.samples, wl.ac1_bound, ref and ref["r_exact"]), []
    return checks.check_history(text, ref and ref["J"]), checks.history_j(text)


def prepare(run: Run, wl, seed: int):
    text = workloads.config_text(wl, seed)
    config = run.workdir / "config.cfg"
    config.write_text(text)
    return config, reference_for(wl, seed, text)


def schedule(setup_s: float, wall_s: float, remaining: float, setups_done: int, reps_done: int) -> str:
    """Order of the commands still to run: "w" a workload repeat, "s" a capmat run.

    As many repeats as fit in ``remaining`` seconds next to one capmat each,
    but at least MIN_REPS repeats and MIN_SETUP capmat runs in the whole run.
    The capmat runs are spread evenly over the gaps before, between and after
    the repeats, so that set-up and workload samples see the same phases of
    the machine's speed.
    """
    reps = max(0, MIN_REPS - reps_done)
    while (reps + 1) * wall_s + max(MIN_SETUP - setups_done, reps + 1) * setup_s <= remaining:
        reps += 1
    setups = max(MIN_SETUP - setups_done, reps)
    order, placed = "", 0
    for gap in range(reps + 1):
        upto = -(-setups * (gap + 1) // (reps + 1))  # ceil: a capmat run comes first
        order += "s" * (upto - placed) + ("w" if gap < reps else "")
        placed = upto
    return order


def measure_end_to_end(run: Run, wl, seed: int, seconds: float) -> dict:
    config, ref = prepare(run, wl, seed)
    samples = {name: [] for name, _ in END_TO_END}
    js, first_column = [], None

    def setup_run():
        outdir = run.workdir / f"setup{len(samples['setup_s'])}"
        rc, wall, _ = run.cli(config, ["capmat"], outdir)
        capmat = outdir / "capmat.csv"
        problems = [f"exit code {rc}"] if rc or not capmat.is_file() else checks.check_capmat(
            capmat.read_text(), len(wl.centers)
        )
        run.record(f"{wl.name} capmat", problems)
        samples["setup_s"].append(wall)
        shutil.rmtree(outdir, ignore_errors=True)

    def workload_run():
        nonlocal first_column
        outdir = run.workdir / f"rep{len(samples['wall_s'])}"
        rc, wall, peak = run.cli(config, wl.command, outdir)
        problems, column = check_workload_output(wl, outdir, rc, ref)
        if first_column is None:
            first_column = column
        elif column != first_column:
            problems.append("history.csv J column differs between repeats of one seed (AC7)")
        run.record(f"{wl.name} {' '.join(wl.command)}", problems)
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(peak)
        if column and not problems:
            js.append(min(float(v) for v in column))
        shutil.rmtree(outdir, ignore_errors=True)

    setup_run()
    workload_run()
    while True:  # plan again after every repeat, from the median times so far
        order = schedule(
            statistics.median(samples["setup_s"]), statistics.median(samples["wall_s"]),
            seconds - run.elapsed(), len(samples["setup_s"]), len(samples["wall_s"]),
        )
        for step in order[: order.find("w") + 1] or order:
            if step == "s":
                setup_run()
            else:
                workload_run()
        if "w" not in order:
            break
    out = {}
    for name, unit in END_TO_END:
        s = samples[name]
        out[name] = {"value": statistics.median(s), "unit": unit}
        print(f"{wl.name} {name} = {out[name]['value']:.6g} {unit} "
              f"(median of {len(s)}; min {min(s):.6g}, max {max(s):.6g})")
    if js:  # the design outcome; printed, not gated (see README.md)
        print(f"{wl.name} J_best = {statistics.median(js)!r} 1 (median of {len(js)}; deterministic for a seed)")
    return out


def _report_call_graph(wl, m: dict) -> None:
    """Print which of the call-graph facts recorded in README.md hold on this commit."""
    facts = [("capacitance.lu_per_pipeline == 2", m["capacitance.lu_per_pipeline"] == 2.0)]
    if wl.is_sweep:
        facts += [
            (f"greens.modal_residual.calls == 4 x {wl.samples} frequencies",
             m["greens.modal_residual.calls"] == 4 * wl.samples),
            ("layerpot.bundle_reuse == 2.0", m["layerpot.bundle_reuse"] == 2.0),
        ]
    else:
        facts += [
            ("greens.modal_residual.calls == 0", m["greens.modal_residual.calls"] == 0),
            ("fullorder.solve_scattering.calls == 0", m["fullorder.solve_scattering.calls"] == 0),
        ]
    for text, holds in facts:
        print(f"{wl.name} call graph: {text}: {'holds' if holds else 'DOES NOT HOLD'}")


def measure_traced(run: Run, wl, seed: int, seconds: float) -> dict:
    config, ref = prepare(run, wl, seed)
    plain, traced, per_run = [], [], []
    while not traced or run.elapsed() + statistics.median(plain) + statistics.median(traced) <= seconds:
        i = len(traced)
        u_dir, t_dir, spans = run.workdir / f"u{i}", run.workdir / f"t{i}", run.workdir / f"spans{i}.json"
        rc, wall, _ = run.cli(config, wl.command, u_dir)
        problems, _ = check_workload_output(wl, u_dir, rc, ref)
        run.record(f"{wl.name} untraced", problems)
        plain.append(wall)
        rc, wall, _ = run.cli(config, wl.command, t_dir, traced_spans=spans)
        problems = [f"exit code {rc}"] if rc else checks.compare_outputs(u_dir, t_dir)
        run.record(f"{wl.name} traced", problems)
        traced.append(wall)
        if rc == 0:
            data = json.loads(spans.read_text())
            evaluations = 0
            if not wl.is_sweep:
                evaluations = len(checks.history_j((t_dir / "history.csv").read_text()))
            per_run.append(tracing.layer_metrics(data["spans"], data["context_bytes"], wl.n_total, evaluations))
        shutil.rmtree(u_dir, ignore_errors=True)
        shutil.rmtree(t_dir, ignore_errors=True)
    if not per_run:
        raise SystemExit(f"{wl.name}: no traced run completed")
    values = {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
    values["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    _report_call_graph(wl, values)
    out = {}
    for name, unit, _ in tracing.PER_LAYER:
        print(f"{wl.name} {name} = {values[name]:.6g} {unit} (median of {len(per_run)} traced runs)")
        out[name] = {"value": values[name], "unit": unit}
    return out


def tree_sha256(directory: Path) -> str:
    """Digest of the package sources; the checkout the benchmark runs in has no git metadata."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def describe_environment() -> dict:
    """Thread settings, library versions, source revision and CPU count, recorded with the results."""
    probe = subprocess.run(
        [sys.executable, "-c", _VERSION_PROBE], env=child_env(), capture_output=True, text=True, timeout=60
    )
    versions = json.loads(probe.stdout) if probe.returncode == 0 else {"error": probe.stderr.strip()}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),  # look no higher than ROOT
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "threads": BLAS_ENV,
        "python": sys.version.split()[0],
        **versions,
        "git_sha": sha,
        "src_sha256": tree_sha256(SRC / "metascreen"),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="metascreen benchmark")
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "metascreen" / "cli.py").is_file():
        print(f"error: no metascreen sources under {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print("env: " + json.dumps(describe_environment(), sort_keys=True))
    SCRATCH.mkdir(exist_ok=True)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        wl = workloads.WORKLOADS[name]
        run = Run(Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH)))
        try:
            measure = measure_traced if args.trace else measure_end_to_end
            result = measure(run, wl, args.seed, args.seconds)
        finally:
            shutil.rmtree(run.workdir, ignore_errors=True)
        attempted += run.attempted
        failed += run.failed
        print(f"{name}: {run.attempted} commands, {run.failed} failed, {run.elapsed():.1f} s")
        if len(names) == 1:
            metrics = result
        else:
            metrics.update({f"{name}/{k}": v for k, v in result.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
