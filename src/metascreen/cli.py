"""Command-line interface: capmat, resonances, spectrum, optimize, check-grad, greens-test.

Every CSV artifact starts with a metadata comment line carrying the tool
version and the configuration hash, so identical config + seed reproduce
identical files.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from dataclasses import replace

import numpy as np

from . import __version__, capacitance, fullorder, geometry, greens, layerpot, optimizer, rom, shapegrad
from .artifacts import fmt, write_csv
from .config import ConfigError, RunConfig, parse_config, parse_config_text

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _meta(cfg: RunConfig) -> str:
    return (
        f"metascreen {__version__} config_sha256={cfg.config_hash} "
        f"seed={cfg.optimizer.seed}"
    )


def _load_config(args) -> RunConfig:
    if args.config:
        cfg = parse_config(args.config)
    else:
        cfg = parse_config_text("")
    if args.output_dir:
        cfg = replace(cfg, output_dir=args.output_dir)
    if args.seed is not None:
        cfg = replace(cfg, optimizer=replace(cfg.optimizer, seed=args.seed))
    return cfg


def _outdir(cfg: RunConfig) -> pathlib.Path:
    path = pathlib.Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _pipeline(cfg: RunConfig):
    """Set-up shared by capmat, resonances and spectrum: grid, the Helmholtz cache, C.

    The Helmholtz cache (the Kummer and closed-form Laplace pair tables, see
    AssemblyContext.helmholtz_cache) and the block geometry of the log
    factors (AssemblyContext.block_geometry) are built here, so a later
    frequency sweep only does k-dependent work.  The Laplace S of the
    capacitance pipeline reads neither, nor do optimize and check-grad
    (optimizer.evaluate).
    """
    grid = geometry.discretize(cfg.shapes, cfg.n_pts, cfg.L)
    ctx = layerpot.AssemblyContext(grid, tol=cfg.greens_tol)
    ctx.helmholtz_cache()
    ctx.block_geometry()
    data = capacitance.capacitance_pipeline(grid, context=ctx)
    return grid, ctx, data


def cmd_capmat(cfg: RunConfig) -> int:
    """C, V, m, lambda_j and u_j in long CSV form (kind, i, j, value)."""
    _, _, data = _pipeline(cfg)
    rows = []
    n = data.n_res
    for i in range(n):
        for j in range(n):
            rows.append(["C", i + 1, j + 1, fmt(data.C[i, j])])
    for i in range(n):
        rows.append(["V", i + 1, i + 1, fmt(data.areas[i])])
    for i in range(n):
        rows.append(["m", i + 1, "", fmt(data.m[i])])
    for j in range(n):
        rows.append(["lambda", "", j + 1, fmt(data.lam[j])])
    for i in range(n):
        for j in range(n):
            rows.append(["u", i + 1, j + 1, fmt(data.u[i, j])])
    path = _outdir(cfg) / "capmat.csv"
    write_csv(path, ["kind", "i", "j", "value"], rows, _meta(cfg))
    print(f"wrote {path} (N={n}, symmetry defect {data.asymmetry:.2e})")
    return EXIT_OK


def cmd_resonances(cfg: RunConfig) -> int:
    _, _, data = _pipeline(cfg)
    model = rom.build_rom(data, cfg.materials)
    omegas = rom.resonant_frequencies(data, cfg.materials)
    rows = [
        [j + 1, fmt(om.real), fmt(om.imag), fmt(data.lam[j]), fmt(model.lam1[j])]
        for j, om in enumerate(omegas)
    ]
    path = _outdir(cfg) / "resonances.csv"
    write_csv(path, ["j", "re_omega", "im_omega", "lambda_j", "lambda_j1"], rows, _meta(cfg))
    print(f"wrote {path} ({len(rows)} resonances)")
    return EXIT_OK


_SPECTRUM_HEADER = ["omega", "re_r", "im_r", "abs_r", "absorptance", "model"]


def _spectrum_rows(omegas, rvals, tag):
    return [
        [fmt(om), fmt(rv.real), fmt(rv.imag), fmt(abs(rv)), fmt(rom.absorptance(rv)), tag]
        for om, rv in zip(omegas, rvals)
    ]


def cmd_spectrum(cfg: RunConfig, model_choice: str) -> int:
    if model_choice in ("exact", "both"):
        fullorder.check_band(cfg.materials, *cfg.band, cfg.L)  # before any set-up
    grid, ctx, data = _pipeline(cfg)
    omegas = np.linspace(cfg.band[0], cfg.band[1], cfg.samples)
    rows = []
    summary = ""
    r_rom = None
    if model_choice in ("rom", "both"):
        model = rom.build_rom(data, cfg.materials)
        r_rom = rom.reflection_rom(model, omegas)
        rows += _spectrum_rows(omegas, r_rom, "rom")
    if model_choice in ("exact", "both"):
        exact = fullorder.sweep(grid, omegas, cfg.materials, ctx)
        print(f"exact: {exact.describe()}")
        rows += _spectrum_rows(omegas, exact.r, "exact")
        if model_choice == "both":
            summary = f"# summary max_abs_r_diff = {np.abs(r_rom - exact.r).max():.17g}"
    path = _outdir(cfg) / "spectrum.csv"
    write_csv(path, _SPECTRUM_HEADER, rows, _meta(cfg), trailer=summary)
    print(f"wrote {path} ({len(rows)} rows)")
    if summary:
        print(summary.lstrip("# "))
    return EXIT_OK


def cmd_optimize(cfg: RunConfig) -> int:
    """Run the design loop, then write its history, designs and ROM spectra."""
    outdir = _outdir(cfg)
    state = optimizer.run(cfg.optimizer, cfg.shapes, cfg.materials, cfg.L)
    meta = _meta(cfg)
    history = [[it, fmt(j), fmt(g), f"{ms:.3f}"] for it, j, g, ms in state.history]
    write_csv(outdir / "history.csv", ["iter", "J", "grad_inf_norm", "wall_ms"], history, meta)
    omegas = np.linspace(cfg.band[0], cfg.band[1], cfg.samples)
    for tag, (grid, model) in (("initial", state.initial), ("best", state.best)):
        geometry.dump_geometry(grid, outdir / f"geometry_{tag}.csv", meta=meta)
        rows = _spectrum_rows(omegas, rom.reflection_rom(model, omegas), "rom")
        write_csv(outdir / f"spectrum_{tag}.csv", _SPECTRUM_HEADER, rows, meta)
    for it, grid in state.snapshots:
        geometry.dump_geometry(grid, outdir / f"geometry_iter{it:05d}.csv", meta=meta)
    print(
        f"optimize: {len(state.history)} evaluations, "
        f"J {state.history[0][1]:.6g} -> best {state.best_value:.6g}"
    )
    print(f"artifacts in {outdir}")
    return EXIT_OK


REL_ERR_FLOOR = 1e-6  # rel_err's |fd| floor, as a share of the quantity's largest |fd| (README)


def cmd_check_grad(cfg: RunConfig) -> int:
    """The optimizer's parametric gradients (optimizer.evaluate) vs central differences."""
    opt = cfg.optimizer
    order = geometry.fourier_order(cfg.shapes)
    names = tuple(optimizer.OBJECTIVES)
    jets = optimizer.evaluate(cfg.shapes, opt, cfg.materials, cfg.L, names)[0]

    def values(params):
        model = optimizer.design(geometry.params_to_shapes(params, order), opt, cfg.materials, cfg.L)[3]
        return np.array([optimizer.OBJECTIVES[name][0](model, opt) for name in names])

    p0 = geometry.shapes_to_params(cfg.shapes)
    steps = np.diag(1e-5 * np.maximum(np.abs(p0), 1.0))
    fd = np.array([(values(p0 + s) - values(p0 - s)) / (2.0 * s[ip]) for ip, s in enumerate(steps)])
    ana = np.array([jets[name][1] for name in names]).T
    floor = np.maximum(REL_ERR_FLOOR * np.abs(fd).max(axis=0), 1e-12)
    rel = np.abs(ana - fd) / np.maximum(np.abs(fd), floor)
    table = np.stack([ana, fd, rel], axis=-1)  # (parameter, objective, column)
    npp = geometry.params_per_shape(order)
    rows = [
        [ip // npp + 1, geometry.param_name(order, ip % npp), f"J_{name}", *map(fmt, table[ip, iq])]
        for ip in range(len(p0))
        for iq, name in enumerate(names)
    ]
    path = _outdir(cfg) / "check_grad.csv"
    write_csv(path, ["resonator", "param", "quantity", "analytic", "fd", "rel_err"], rows, _meta(cfg))
    print(f"wrote {path} (worst rel_err {rel.max():.2e})")
    return EXIT_OK


def cmd_greens_test(cfg: RunConfig) -> int:
    """Convergence table of helmholtz_gs versus forced mode truncation."""
    xl, xd, yl, yd = cfg.greens_point
    omega = cfg.greens_omega if cfg.greens_omega is not None else 0.5 * sum(cfg.band)
    wave = greens.WaveParams(k=omega / cfg.materials.v_m)
    lat = greens.LatticeConfig(L=cfg.L, tol=cfg.greens_tol)
    x = np.array([xl, xd])
    y = np.array([yl, yd])
    rows = []
    prev = None
    for n_modes in (2, 4, 8, 16, 32, 64, 128, 256):
        val = complex(greens.helmholtz_gs(x, y, wave, lat, n_modes=n_modes))
        delta = abs(val - prev) if prev is not None else np.nan
        rows.append([n_modes, fmt(val.real), fmt(val.imag), fmt(delta)])
        prev = val
    path = _outdir(cfg) / "greens_test.csv"
    write_csv(path, ["n_modes", "re_gs", "im_gs", "delta_from_prev"], rows, _meta(cfg))
    for row in rows:
        print(",".join(str(c) for c in row))
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metascreen",
        description="Periodic acoustic metascreen analysis and shape design",
    )
    parser.add_argument("--config", help="path to a key = value configuration file")
    parser.add_argument("--output-dir", help="directory for CSV artifacts (default from config)")
    parser.add_argument("--seed", type=int, help="random seed override for the optimizer")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("capmat", help="capacitance matrix, volumes, moments, eigenpairs")
    sub.add_parser("resonances", help="leading-order complex resonant frequencies")
    sp = sub.add_parser("spectrum", help="reflection/absorptance over the band")
    sp.add_argument("--model", choices=("rom", "exact", "both"), default="rom")
    sub.add_parser("optimize", help="run the broadband design loop")
    sub.add_parser("check-grad", help="analytic vs finite-difference gradients")
    sub.add_parser("greens-test", help="Green's function truncation audit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "capmat":
            return cmd_capmat(cfg)
        if args.command == "resonances":
            return cmd_resonances(cfg)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, args.model)
        if args.command == "optimize":
            return cmd_optimize(cfg)
        if args.command == "check-grad":
            return cmd_check_grad(cfg)
        if args.command == "greens-test":
            return cmd_greens_test(cfg)
        raise AssertionError("unreachable")
    except (geometry.GeometryError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        layerpot.SingularOperatorError,
        shapegrad.DegenerateSpectrumError,
        np.linalg.LinAlgError,
        ValueError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
