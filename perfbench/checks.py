"""Output checks for the benchmark's CLI runs.

Each check takes the text of a CSV artifact and returns a list of problems
(empty when the output is correct), so the benchmark can count a failed run
and say why.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

# |r_exact - reference| allowed at the default seed.
R_EXACT_ABS_TOL = 1e-9
# |J - reference| / |reference| allowed at the default seed.
J_REL_TOL = 1e-10
# Files `optimize` writes besides history.csv.
DESIGN_ARTIFACTS = ("geometry_initial.csv", "geometry_best.csv", "spectrum_initial.csv", "spectrum_best.csv")


def _rows(text: str) -> list[list[str]]:
    """Data rows of a metascreen CSV (comment lines and the header dropped)."""
    return list(csv.reader(line for line in text.splitlines() if line and not line.startswith("#")))[1:]


def spectrum_r(text: str) -> dict[str, list[complex]]:
    """Reflection coefficients per model tag, in file order."""
    out: dict[str, list[complex]] = {}
    for row in _rows(text):
        out.setdefault(row[5], []).append(complex(float(row[1]), float(row[2])))
    return out


def check_spectrum(text: str, samples: int, ac1_bound: float, reference=None) -> list[str]:
    """Checks on a ``spectrum --model both`` CSV.

    Every band sample is present for both models, every r is finite,
    |r_exact| <= 1 (the medium is lossy), max |r_rom - r_exact| is within the
    preset's AC1 bound, and r_exact matches ``reference`` (a list of
    [re, im] pairs) within R_EXACT_ABS_TOL when one is given.
    """
    try:
        r = spectrum_r(text)
    except (IndexError, ValueError) as exc:
        return [f"unreadable spectrum.csv: {exc}"]
    problems = []
    for model in ("rom", "exact"):
        if len(r.get(model, [])) != samples:
            problems.append(f"{model}: {len(r.get(model, []))} rows, expected {samples}")
    if problems:
        return problems
    rom, exact = r["rom"], r["exact"]
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in rom + exact):
        return ["non-finite reflection coefficient"]
    worst = max(abs(z) for z in exact)
    if worst > 1.0:
        problems.append(f"|r_exact| = {worst!r} > 1 in a lossy medium")
    diff = max(abs(a - b) for a, b in zip(rom, exact))
    if diff > ac1_bound:
        problems.append(f"max |r_rom - r_exact| = {diff:.4f} > AC1 bound {ac1_bound}")
    if reference is not None:
        ref = [complex(re, im) for re, im in reference]
        if len(ref) != len(exact):
            problems.append(f"reference has {len(ref)} frequencies, run has {len(exact)}")
        else:
            dev = max(abs(a - b) for a, b in zip(exact, ref))
            if dev > R_EXACT_ABS_TOL:
                problems.append(f"r_exact differs from the reference by {dev:.3e} > {R_EXACT_ABS_TOL:g}")
    return problems


def history_j(text: str) -> list[str]:
    """The J column of history.csv, as written (so repeats compare bit for bit)."""
    return [row[1] for row in _rows(text)]


def check_history(text: str, reference=None) -> list[str]:
    """Checks on an optimizer history.csv.

    Every J is finite, the best J is below the initial one, and the J column
    matches ``reference`` (a list of floats) within J_REL_TOL when one is given.
    """
    try:
        js = [float(v) for v in history_j(text)]
    except (IndexError, ValueError) as exc:
        return [f"unreadable history.csv: {exc}"]
    if not js:
        return ["history.csv has no rows"]
    if not all(math.isfinite(j) for j in js):
        return ["non-finite J in history.csv"]
    problems = []
    if not min(js) < js[0]:
        problems.append(f"J_best = {min(js)!r} is not below J_0 = {js[0]!r}")
    if reference is not None:
        if len(reference) != len(js):
            problems.append(f"reference has {len(reference)} J values, run has {len(js)}")
        else:
            dev = max(abs(a - b) / abs(b) for a, b in zip(js, reference))
            if dev > J_REL_TOL:
                problems.append(f"J differs from the reference by {dev:.3e} relative > {J_REL_TOL:g}")
    return problems


def check_capmat(text: str, n_res: int) -> list[str]:
    """capmat.csv holds the full N x N capacitance matrix with finite entries."""
    try:
        c = [float(row[3]) for row in _rows(text) if row[0] == "C"]
    except (IndexError, ValueError) as exc:
        return [f"unreadable capmat.csv: {exc}"]
    if len(c) != n_res * n_res:
        return [f"capmat.csv has {len(c)} C entries, expected {n_res * n_res}"]
    if not all(math.isfinite(v) for v in c):
        return ["non-finite capacitance entry"]
    return []


def _without_wall_ms(text: str) -> list[str]:
    """history.csv lines with the measured wall_ms column removed."""
    return [line.rsplit(",", 1)[0] if not line.startswith("#") else line for line in text.splitlines()]


def compare_outputs(dir_a: Path, dir_b: Path) -> list[str]:
    """The two directories hold the same CSV files with the same bytes,
    apart from the wall_ms column of history.csv."""
    names_a = sorted(p.name for p in Path(dir_a).iterdir())
    names_b = sorted(p.name for p in Path(dir_b).iterdir())
    if names_a != names_b:
        return [f"different artifact sets: {names_a} vs {names_b}"]
    problems = []
    for name in names_a:
        a = (Path(dir_a) / name).read_text()
        b = (Path(dir_b) / name).read_text()
        if name == "history.csv":
            a, b = _without_wall_ms(a), _without_wall_ms(b)
        if a != b:
            problems.append(f"{name} differs between the traced and the untraced run")
    return problems
