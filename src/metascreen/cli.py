"""Command-line interface: capmat, resonances, spectrum, optimize, check-grad, greens-test.

Every CSV artifact starts with a metadata comment line carrying the tool
version and the configuration hash, so identical config + seed reproduce
identical files.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import pathlib
import sys
from dataclasses import replace

import numpy as np

from . import __version__, capacitance, fullorder, geometry, greens, layerpot, optimizer, rom, shapegrad
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


def _apply_threads(args):
    n = args.threads
    if n is None:
        env = os.environ.get("METASCREEN_THREADS")
        n = int(env) if env else None
    if n is None:
        return None
    try:
        import threadpoolctl

        return threadpoolctl.threadpool_limits(limits=n)
    except ImportError:  # pragma: no cover - depends on environment
        print("warning: threadpoolctl unavailable, --threads ignored", file=sys.stderr)
        return None


def _outdir(cfg: RunConfig) -> pathlib.Path:
    path = pathlib.Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path, header, rows, meta):
    with open(path, "w", newline="") as fh:
        fh.write(f"# {meta}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return f"{x:.17g}"


def _pipeline(cfg: RunConfig):
    """Set-up shared by the commands: grid, the whole k-independent cache, C.

    Both halves of the AssemblyContext are built here, so every command pays
    the same set-up and a later frequency sweep only does k-dependent work.
    """
    grid = geometry.discretize(cfg.shapes, cfg.n_pts, cfg.L)
    ctx = layerpot.AssemblyContext(grid, tol=cfg.greens_tol)
    ctx.helmholtz_cache()
    data = capacitance.capacitance_pipeline(grid, context=ctx)
    return grid, ctx, data


def cmd_capmat(cfg: RunConfig) -> int:
    """C, V, m, lambda_j and u_j in long CSV form (kind, i, j, value)."""
    _, _, data = _pipeline(cfg)
    rows = []
    n = data.n_res
    for i in range(n):
        for j in range(n):
            rows.append(["C", i + 1, j + 1, _fmt(data.C[i, j])])
    for i in range(n):
        rows.append(["V", i + 1, i + 1, _fmt(data.areas[i])])
    for i in range(n):
        rows.append(["m", i + 1, "", _fmt(data.m[i])])
    for j in range(n):
        rows.append(["lambda", "", j + 1, _fmt(data.lam[j])])
    for i in range(n):
        for j in range(n):
            rows.append(["u", i + 1, j + 1, _fmt(data.u[i, j])])
    path = _outdir(cfg) / "capmat.csv"
    _write_csv(path, ["kind", "i", "j", "value"], rows, _meta(cfg))
    print(f"wrote {path} (N={n}, symmetry defect {data.asymmetry:.2e})")
    return EXIT_OK


def cmd_resonances(cfg: RunConfig) -> int:
    _, _, data = _pipeline(cfg)
    model = rom.build_rom(data, cfg.materials)
    omegas = rom.resonant_frequencies(data, cfg.materials)
    rows = [
        [j + 1, _fmt(om.real), _fmt(om.imag), _fmt(data.lam[j]), _fmt(model.lam1[j])]
        for j, om in enumerate(omegas)
    ]
    path = _outdir(cfg) / "resonances.csv"
    _write_csv(path, ["j", "re_omega", "im_omega", "lambda_j", "lambda_j1"], rows, _meta(cfg))
    print(f"wrote {path} ({len(rows)} resonances)")
    return EXIT_OK


def _spectrum_rows(omegas, rvals, tag):
    return [
        [_fmt(om), _fmt(rv.real), _fmt(rv.imag), _fmt(abs(rv)), _fmt(1.0 - abs(rv) ** 2), tag]
        for om, rv in zip(omegas, rvals)
    ]


def cmd_spectrum(cfg: RunConfig, model_choice: str) -> int:
    grid, ctx, data = _pipeline(cfg)
    omegas = np.linspace(cfg.band[0], cfg.band[1], cfg.samples)
    rows = []
    summary = ""
    r_rom = None
    if model_choice in ("rom", "both"):
        model = rom.build_rom(data, cfg.materials)
        r_rom = rom.reflection_rom(model, omegas, warn_band=False)
        rows += _spectrum_rows(omegas, r_rom, "rom")
    if model_choice in ("exact", "both"):
        km_max = cfg.band[1] / cfg.materials.v_m
        if km_max >= 2.0 * np.pi / cfg.L:
            raise ValueError("exact solver requested outside the single-mode band")
        r_exact = np.array(
            [fullorder.solve_scattering(grid, om, cfg.materials, context=ctx).r for om in omegas]
        )
        rows += _spectrum_rows(omegas, r_exact, "exact")
        if model_choice == "both":
            summary = f"# summary max_abs_r_diff = {np.abs(r_rom - r_exact).max():.17g}"
    path = _outdir(cfg) / "spectrum.csv"
    with open(path, "w", newline="") as fh:
        fh.write(f"# {_meta(cfg)}\n")
        writer = csv.writer(fh)
        writer.writerow(["omega", "re_r", "im_r", "abs_r", "absorptance", "model"])
        writer.writerows(rows)
        if summary:
            fh.write(summary + "\n")
    print(f"wrote {path} ({len(rows)} rows)")
    if summary:
        print(summary.lstrip("# "))
    return EXIT_OK


def cmd_optimize(cfg: RunConfig) -> int:
    outdir = _outdir(cfg)
    state = optimizer.run(
        cfg.optimizer,
        cfg.shapes,
        cfg.materials,
        cfg.L,
        artifacts_dir=outdir,
        meta=_meta(cfg),
    )
    print(
        f"optimize: {len(state.history)} evaluations, "
        f"J {state.history[0][1]:.6g} -> best {state.best_value:.6g}"
    )
    print(f"artifacts in {outdir}")
    return EXIT_OK


_CHECK_QUANTITIES = ("J_ref", "J_res")


def cmd_check_grad(cfg: RunConfig) -> int:
    """Analytic vs central-difference parametric gradients of the objectives."""
    grid, ctx, data = _pipeline(cfg)
    mats = cfg.materials
    model = rom.build_rom(data, mats)
    opt = cfg.optimizer
    m_t = opt.m_targets if opt.m_targets is not None else data.n_res
    targets = optimizer.uniform_targets(cfg.band, m_t)
    grads = shapegrad.gradient_densities(data, mats, kstar=ctx.adjoint_double_layer_laplace())
    vel = shapegrad.normal_velocities(grid)
    ana = {
        "J_ref": shapegrad.parametric_gradient(
            shapegrad.grad_objective_ref(model, grads, cfg.band, opt.n_quad), grid, vel
        ),
        "J_res": shapegrad.parametric_gradient(
            shapegrad.grad_objective_res(model, grads, targets), grid, vel
        ),
    }

    def values(params):
        shp = geometry.params_to_shapes(params, cfg.shapes[0].order)
        g = geometry.discretize(shp, cfg.n_pts, cfg.L)
        d = capacitance.capacitance_pipeline(g)
        mdl = rom.build_rom(d, mats)
        return {
            "J_ref": optimizer.objective_ref(mdl, cfg.band, opt.n_quad),
            "J_res": optimizer.objective_res(mdl, targets),
        }

    p0 = geometry.shapes_to_params(cfg.shapes)
    order = cfg.shapes[0].order
    npp = geometry.params_per_shape(order)
    rows = []
    worst = 0.0
    for ip in range(len(p0)):
        h = 1e-5 * max(abs(p0[ip]), 1.0)
        pp, pm = p0.copy(), p0.copy()
        pp[ip] += h
        pm[ip] -= h
        fp, fm = values(pp), values(pm)
        for q in _CHECK_QUANTITIES:
            fd = (fp[q] - fm[q]) / (2.0 * h)
            an = float(ana[q][ip])
            rel = abs(an - fd) / max(abs(fd), 1e-12)
            worst = max(worst, rel)
            rows.append(
                [
                    ip // npp + 1,
                    geometry.param_name(order, ip % npp),
                    q,
                    _fmt(an),
                    _fmt(fd),
                    _fmt(rel),
                ]
            )
    path = _outdir(cfg) / "check_grad.csv"
    _write_csv(path, ["resonator", "param", "quantity", "analytic", "fd", "rel_err"], rows, _meta(cfg))
    print(f"wrote {path} (worst rel_err {worst:.2e})")
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
        rows.append([n_modes, _fmt(val.real), _fmt(val.imag), _fmt(delta)])
        prev = val
    path = _outdir(cfg) / "greens_test.csv"
    _write_csv(path, ["n_modes", "re_gs", "im_gs", "delta_from_prev"], rows, _meta(cfg))
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
    parser.add_argument("--threads", type=int, help="BLAS thread count (overrides METASCREEN_THREADS)")
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
    limits = _apply_threads(args)  # noqa: F841 - keeps the thread limit alive
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
