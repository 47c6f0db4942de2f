"""Seeded workload definitions: config text and the CLI command for each workload.

The program sees only the generated config.  Each resonator gets an explicit
``shape.N.*`` block holding the preset's center and base radius plus a small
seeded Fourier jitter, so every seed is a slightly different, valid design.
The same (workload, seed) pair always produces byte-identical config text.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

DEFAULT_SEED = 0  # outputs at this seed are compared with reference.json

# Largest |cos/sin coefficient|.  The radial profile is
# a0 * (1 + sum(a_i cos + b_i sin) / (2 M)), so the boundary moves by at most
# JITTER * a0; on the nine preset that is 0.007 against a 0.3 gap.
JITTER = 0.02
FOURIER_ORDER = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # CLI subcommand and its options
    centers: tuple[tuple[float, float], ...]
    a0: float
    n_pts: int
    samples: int  # band.samples; frequencies of a sweep
    max_iters: int = 0  # optimizer budget (design only)
    ac1_bound: float = 0.0  # max |r_rom - r_exact| allowed (sweeps only)

    @property
    def is_sweep(self) -> bool:
        return self.command[0] == "spectrum"

    @property
    def n_total(self) -> int:
        return len(self.centers) * self.n_pts


def _nine_centers():
    # geometry.grid_layout(3, 3, radius=0.35, spacing=1.0, base_height=0.5)
    return tuple((x, y) for y in (0.5, 1.5, 2.5) for x in (-1.0, 0.0, 1.0))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-single",
            command=("spectrum", "--model", "both"),
            centers=((0.0, 1.0),),
            a0=0.5,
            n_pts=128,
            samples=48,
            ac1_bound=0.15,
        ),
        # Run by --workload all and on demand, but not listed in BENCHMARK.json:
        # a workload is gated only if the quartile spread of its wall_s over ten
        # seeded runs stayed within the 0.25 bound in every set measured, and on
        # the 2-vCPU virtual machine the benchmark was built on sweep-nine's
        # spread reached 0.38 while the other two stayed below 0.20 (README.md).
        Workload(
            name="sweep-nine",
            command=("spectrum", "--model", "both"),
            centers=_nine_centers(),
            a0=0.35,
            n_pts=48,
            samples=6,
            ac1_bound=0.25,
        ),
        Workload(
            name="design-nine",
            command=("optimize",),
            centers=_nine_centers(),
            a0=0.35,
            n_pts=64,
            samples=200,
            max_iters=1,
        ),
    )
}


def _coeffs(rng: random.Random) -> str:
    return " ".join(f"{rng.uniform(-JITTER, JITTER):.6f}" for _ in range(FOURIER_ORDER))


def config_text(workload: Workload, seed: int) -> str:
    """Config file text for one workload and seed (deterministic)."""
    rng = random.Random(f"{workload.name}/{seed}")
    lines = [
        f"# perfbench workload {workload.name}, seed {seed}",
        "lattice.L = 20",
        "materials.v_m = 1",
        "materials.v_b = 1 -0.05",
        "band.omega_min = 0.01",
        "band.omega_max = 0.1",
        f"band.samples = {workload.samples}",
        f"solver.n_pts = {workload.n_pts}",
    ]
    for i, (cx, cy) in enumerate(workload.centers, start=1):
        lines += [
            f"shape.{i}.center = {cx!r} {cy!r}",
            f"shape.{i}.a0 = {workload.a0!r}",
            f"shape.{i}.cos = {_coeffs(rng)}",
            f"shape.{i}.sin = {_coeffs(rng)}",
        ]
    if not workload.is_sweep:
        lines += [
            "optimizer.objective = ref",
            f"optimizer.max_iters = {workload.max_iters}",
            f"optimizer.seed = {seed}",
        ]
    return "\n".join(lines) + "\n"


def config_sha256(text: str) -> str:
    """Digest that ties a recorded reference to the config text it was recorded for."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]
