#!/usr/bin/env python3
"""Record the outputs run.py compares against at the default seed.

    python3 perfbench/record_reference.py

Writes reference.json: r_exact of each sweep and the history J column of each
design run, keyed by the digest of the config text they came from.  Record
again only when a workload's definition changes, from a commit whose outputs
are trusted.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    seed = workloads.DEFAULT_SEED
    refs = {}
    run.SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=run.SCRATCH))
    try:
        for wl in workloads.WORKLOADS.values():
            text = workloads.config_text(wl, seed)
            config = scratch / f"{wl.name}.cfg"
            config.write_text(text)
            outdir = scratch / wl.name
            rc, _, _ = run.Run(scratch).cli(config, wl.command, outdir)
            problems, _ = run.check_workload_output(wl, outdir, rc, None)
            if problems:
                print(f"{wl.name}: {problems}", file=sys.stderr)
                return 1
            entry = {"seed": seed, "config_sha256": workloads.config_sha256(text)}
            if wl.is_sweep:
                exact = checks.spectrum_r((outdir / "spectrum.csv").read_text())["exact"]
                entry["r_exact"] = [[z.real, z.imag] for z in exact]
            else:
                entry["J"] = [float(v) for v in checks.history_j((outdir / "history.csv").read_text())]
            refs[wl.name] = entry
            print(f"recorded {wl.name}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
