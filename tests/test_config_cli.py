import csv
import re

import numpy as np
import pytest

from metascreen import capacitance, cli, layerpot, shapegrad
from metascreen.config import ConfigError, parse_config_text
from metascreen.geometry import load_shape_params, validate_geometry
from metascreen.optimizer import OptConfig
from metascreen.rom import MaterialParams


class TestParseConfig:
    def test_empty_gives_reference_defaults(self):
        cfg = parse_config_text("")
        assert cfg.L == 20.0
        assert cfg.materials.v_m == 1.0
        assert cfg.materials.v_b == 1.0 - 0.05j
        assert cfg.materials.delta == 0.001
        assert cfg.band == (0.01, 0.1)
        assert cfg.samples == 200
        assert len(cfg.shapes) == 1 and cfg.shapes[0].a0 == 0.5
        # the parser keeps no defaults of its own for the fields of these types
        assert cfg.materials == MaterialParams()
        assert cfg.optimizer == OptConfig(band=cfg.band, n_pts=cfg.n_pts)

    def test_negative_contrast_rejected(self):
        with pytest.raises(ConfigError, match=r"contrast must be in \(0, 1\)"):
            parse_config_text("materials.delta = -1")

    def test_layout_preset(self):
        cfg = parse_config_text(
            "geometry.layout = 3x3\ngeometry.radius = 0.5\ngeometry.spacing = 2\n"
        )
        assert len(cfg.shapes) == 9
        from metascreen.geometry import validate_geometry

        assert validate_geometry(cfg.shapes, cfg.L) == []

    def test_unknown_key_rejected(self):
        # a misspelt key, a gap margin (the gap rule is fixed) and an unknown key of a shape block
        for text, message in (
            ("solver.npts = 64", r"^unknown keys: solver\.npts$"),
            ("optimizer.geometry_margin = -0.1", r"^unknown keys: optimizer\.geometry_margin$"),
            ("shape.1.center = 0 1\nshape.1.a0 = 0.5\nshape.1.color = red", r"^unknown key: shape\.1\.color$"),
        ):
            with pytest.raises(ConfigError, match=message):
                parse_config_text(text)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("lattice.L = 20\nlattice.L = 30")

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("lattice.L = 20\nnot a binding\n")

    def test_explicit_shapes(self):
        text = (
            "shape.1.center = -2 1\nshape.1.a0 = 0.5\nshape.1.cos = 0.1 0\nshape.1.sin = 0 0.2\n"
            "shape.2.center = 2 1\nshape.2.a0 = 0.4\nshape.2.cos = 0 0\nshape.2.sin = 0 0\n"
        )
        cfg = parse_config_text(text)
        assert len(cfg.shapes) == 2
        assert cfg.shapes[0].cos_coeffs == (0.1, 0.0)

    @pytest.mark.parametrize(
        "line",
        [
            "geometry.layout = 1x1",
            "geometry.radius = 0.5",
            "geometry.spacing = 2",
            "geometry.base_height = 4",
            "geometry.fourier_order = 3",
        ],
    )
    def test_shapes_and_preset_conflict(self, line):
        # any preset key next to explicit shapes, not only the ones that pick the circles
        with pytest.raises(ConfigError, match="not both"):
            parse_config_text(f"{line}\nshape.1.center = 0 1\nshape.1.a0 = 0.5\n")

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError, match="wall"):
            parse_config_text("shape.1.center = 0 0.2\nshape.1.a0 = 0.5\n")

    def test_real_vb_accepted(self):
        cfg = parse_config_text("materials.v_b = 1.0")
        assert cfg.materials.v_b == 1.0 + 0.0j

    def test_band_validation(self):
        with pytest.raises(ConfigError, match="band"):
            parse_config_text("band.omega_min = 0.2\nband.omega_max = 0.1")

    @pytest.mark.parametrize(
        "line",
        [
            "lattice.L = abc",
            "optimizer.lr = fast",
            "materials.delta = tiny",
            "geometry.radius = big",
            "solver.n_pts = many",
        ],
    )
    def test_non_numeric_values_rejected(self, line):
        with pytest.raises(ConfigError):
            parse_config_text(line)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("optimizer.objective = foo", "optimizer.objective"),
            ("optimizer.objective = res\noptimizer.m_targets = 0", "optimizer.m_targets"),
            ("optimizer.m_targets = 2", "optimizer.m_targets"),  # one resonator
            ("optimizer.n_quad = 0", "optimizer.n_quad"),
            ("optimizer.max_iters = -1", "optimizer.max_iters"),
            ("optimizer.lr = -1", "optimizer.lr"),
            ("optimizer.lr = nan", "optimizer.lr"),
            ("optimizer.beta1 = 2", "optimizer.beta1"),
            ("optimizer.beta2 = 1", "optimizer.beta2"),
            ("optimizer.eps = 0", "optimizer.eps"),
            ("optimizer.a0_min = 0.5\noptimizer.a0_max = 0.4", "a0 bounds"),
            ("optimizer.coeff_bound = -1", "optimizer.coeff_bound"),
            ("optimizer.snapshot_every = -1", "optimizer.snapshot_every"),
            # the gap rule is fixed: a margin key is refused, and the error names it
            ("optimizer.geometry_margin = -0.1", "optimizer.geometry_margin"),
            ("greens.y = 3 -1", "wall"),
            ("greens.x = 3 1", "distinct"),
            ("greens.x = 23 1", "distinct"),  # the periodic image of greens.y
            ("greens.omega = -0.05", "greens.omega"),
            ("greens.omega = 0", "greens.omega"),
            ("geometry.radius = -0.5", "geometry.radius"),
            ("geometry.radius = 0", "geometry.radius"),
            ("geometry.fourier_order = -3", "geometry.fourier_order"),
            # a range error of a type is reported under the key the user wrote
            ("solver.n_pts = 63", r"^solver\.n_pts"),
            ("band.omega_min = 0.2\nband.omega_max = 0.1", r"^band\.omega_m"),
            ("optimizer.a0_min = 0.5\noptimizer.a0_max = 0.4", r"^optimizer\.a0_m"),
            ("optimizer.coeff_bound = -1", r"^optimizer\.coeff_bound\b"),
            # malformed and out-of-range input refused by the parser itself
            ("= 3", r"^line 1: empty key or value"),
            ("materials.v_b = 1 2 3", r"^materials\.v_b: expected 're' or 're im'$"),
            ("shape.1.center = 0\nshape.1.a0 = 0.5", r"^shape\.1\.center: expected 2 number\(s\), got 1$"),
            ("shape.1.center = 0 x\nshape.1.a0 = 0.5", r"^shape\.1\.center: expected numbers"),
            ("optimizer.freeze_centers = maybe", r"^optimizer\.freeze_centers: expected a boolean"),
            ("lattice.L = 0", r"^lattice\.L must be positive$"),
            ("band.samples = 1", r"^band\.samples must be at least 2$"),
            ("solver.greens_tol = 1e-3", r"^solver\.greens_tol must be in"),
            ("shape.x.a0 = 0.5\nshape.x.center = 0 1", r"^shape\.x\.a0: shape index must be an integer$"),
            ("shape.2.center = 0 1\nshape.2.a0 = 0.5", r"^shape indices must be contiguous starting at 1$"),
            ("geometry.layout = 3by3", r"^geometry\.layout: expected 'CxR'"),
            ("geometry.layout = 0x1", r"^geometry\.layout counts must be positive$"),
        ],
    )
    def test_out_of_range_rejected(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("lattice.L = nan", "lattice.L"),
            ("lattice.L = inf", "lattice.L"),
            ("geometry.radius = nan", "geometry.radius"),
            ("materials.delta = -inf", "materials.delta"),
            ("materials.v_b = 1 nan", "materials.v_b"),
            ("shape.1.center = 0 nan\nshape.1.a0 = 0.5", "shape.1.center"),
            ("shape.1.center = 0 1\nshape.1.a0 = nan", "shape.1.a0"),
            ("shape.1.center = 0 1\nshape.1.a0 = 0.5\nshape.1.cos = inf\nshape.1.sin = 0", "shape.1.cos"),
        ],
    )
    def test_non_finite_numbers_rejected(self, text, key):
        with pytest.raises(ConfigError, match=rf"^{key}: expected (a )?finite"):
            parse_config_text(text)

    def test_shape_block_names_every_failing_key(self):
        # ShapeParams owns the ranges of a block and reports them all at once
        text = "shape.1.center = 0 2\nshape.1.a0 = -1\nshape.1.cos = 0.1\n"
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert str(info.value) == (
            "shape.1.a0 must be positive and finite; shape.1.sin must have one entry per cos coefficient"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("shape.1.center = 0 2\n", "shape.1.a0 is missing"),
            ("shape.1.a0 = 0.5\n", "shape.1.center is missing"),
            ("shape.1.center = 0 2\nshape.1.a0 = 0.5\nshape.2.cos = 0\n",
             "shape.2.center is missing; shape.2.a0 is missing"),
        ],
    )
    def test_shape_block_missing_key(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert str(info.value) == message

    def test_hash_stable(self):
        a = parse_config_text("lattice.L = 20\n# comment\n")
        b = parse_config_text("lattice.L = 20\n")
        assert a.config_hash == b.config_hash


BASE = "geometry.layout = 1x1\nsolver.n_pts = 48\nband.samples = 24\n"


def run_cli(tmp_path, text, *args):
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(text)
    return cli.main(["--config", str(cfg_file), "--output-dir", str(tmp_path / "out"), *args])


class TestCli:
    def test_capmat_symmetric_output(self, tmp_path):
        text = "geometry.layout = 2x1\ngeometry.spacing = 4\nsolver.n_pts = 48\nband.samples = 8\n"
        assert run_cli(tmp_path, text, "capmat") == 0
        rows = list(csv.reader((tmp_path / "out" / "capmat.csv").open()))
        vals = {(r[0], r[1], r[2]): r[3] for r in rows[2:]}
        assert vals[("C", "1", "2")] == vals[("C", "2", "1")]

    def test_resonances_lossless_lower_half_plane(self, tmp_path):
        text = BASE + "materials.v_b = 1.0\n"
        assert run_cli(tmp_path, text, "resonances") == 0
        rows = list(csv.reader((tmp_path / "out" / "resonances.csv").open()))
        assert len(rows) == 3  # meta comment, header, one resonance
        assert float(rows[2][2]) <= 0.0

    def test_spectrum_rom(self, tmp_path):
        assert run_cli(tmp_path, BASE, "spectrum", "--model", "rom") == 0
        rows = list(csv.reader((tmp_path / "out" / "spectrum.csv").open()))
        data = rows[2:]
        assert len(data) == 24
        omegas = [float(r[0]) for r in data]
        assert omegas == sorted(omegas)
        for r in data:
            re_r, im_r, abs_r, a = (float(v) for v in r[1:5])
            assert abs(a - (1.0 - abs_r**2)) < 1e-15
            assert abs(abs_r - np.hypot(re_r, im_r)) < 1e-15

    def test_spectrum_both_summary(self, tmp_path):
        assert run_cli(tmp_path, BASE, "spectrum", "--model", "both") == 0
        lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
        assert lines[-1].startswith("# summary max_abs_r_diff")
        assert float(lines[-1].split("=")[1]) < 0.15
        assert len(lines) == 2 + 48 + 1

    def test_spectrum_exact_reports_solves(self, tmp_path, capsys):
        # one stdout line: 48 samples certify the rational fit, 16 do not and are all solved
        def exact_lines(samples):
            text = BASE.replace("band.samples = 24", f"band.samples = {samples}")
            assert run_cli(tmp_path, text, "spectrum", "--model", "exact") == 0
            return [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("exact:")]

        [line] = exact_lines(48)
        match = re.fullmatch(
            r"exact: (\d+) of 48 frequencies solved, rational fit certified to 3e-11 "
            r"\(validation solve \S+, fold fits within \S+\)",
            line,
        )
        assert match and int(match.group(1)) < 48, line
        assert exact_lines(16) == [
            "exact: 16 of 16 frequencies solved: the rational fit did not certify to 3e-11"
        ]

    def test_spectrum_deterministic_bytes(self, tmp_path):
        run_cli(tmp_path, BASE, "spectrum", "--model", "rom")
        first = (tmp_path / "out" / "spectrum.csv").read_bytes()
        run_cli(tmp_path, BASE, "spectrum", "--model", "rom")
        assert (tmp_path / "out" / "spectrum.csv").read_bytes() == first

    def test_exact_outside_single_mode_band_fails(self, tmp_path):
        text = BASE + "band.omega_max = 0.5\n"
        assert run_cli(tmp_path, text, "spectrum", "--model", "exact") == cli.EXIT_NUMERICAL

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("band.omega_max = 0.3\n", "diffraction cutoff"),
            ("materials.v_b = 0.5\nband.omega_max = 0.16\n", "multiple propagating"),
            ("materials.theta_d = 0.8\n", "oblique incidence unsupported"),
            ("band.omega_min = 0\n", "frequency must be positive"),
        ],
        ids=["near-cutoff", "interior-k", "oblique", "zero-omega"],
    )
    def test_exact_band_checked_before_solving(self, tmp_path, monkeypatch, capsys, extra, message):
        # the band and the incidence are refused up front with the solver's own
        # rules (fullorder.check_band), before any set-up
        def unreachable(name):
            def reached(*args, **kwargs):
                raise AssertionError(f"{name} reached")

            return reached

        monkeypatch.setattr(cli, "_pipeline", unreachable("_pipeline"))
        monkeypatch.setattr(cli.fullorder, "solve_scattering", unreachable("solve_scattering"))
        code = run_cli(tmp_path, BASE + extra, "spectrum", "--model", "exact")
        assert code == cli.EXIT_NUMERICAL
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "spectrum.csv").exists()

    def test_optimize_artifacts(self, tmp_path):
        text = BASE + "optimizer.objective = ref\noptimizer.max_iters = 3\n"
        assert run_cli(tmp_path, text, "optimize") == 0
        out = tmp_path / "out"
        for name in (
            "history.csv",
            "geometry_initial.csv",
            "geometry_best.csv",
            "spectrum_initial.csv",
            "spectrum_best.csv",
        ):
            assert (out / name).exists()
        rows = (out / "history.csv").read_text().splitlines()
        assert rows[1] == "iter,J,grad_inf_norm,wall_ms"
        assert len(rows) == 2 + 4

        def band_absorptance(name):
            data = list(csv.reader((out / name).open()))[2:]
            return np.mean([float(r[4]) for r in data])

        assert band_absorptance("spectrum_best.csv") >= band_absorptance("spectrum_initial.csv")

    def test_optimize_snapshots(self, tmp_path):
        text = (
            "geometry.layout = 2x1\ngeometry.spacing = 4\nsolver.n_pts = 32\nband.samples = 8\n"
            "optimizer.max_iters = 4\noptimizer.snapshot_every = 2\noptimizer.freeze_centers = yes\n"
        )
        assert run_cli(tmp_path, text, "optimize") == 0
        out = tmp_path / "out"
        cfg = parse_config_text(text)
        meta = (out / "history.csv").read_text().splitlines()[0]
        iters = ("00000", "00002", "00004")
        names = [f"geometry_iter{it}{ext}" for it in iters for ext in (".csv", ".params.csv")]
        assert sorted(p.name for p in out.glob("geometry_iter*")) == sorted(names)
        for name in names:
            assert (out / name).read_text().splitlines()[0] == meta
        assert load_shape_params(out / "geometry_iter00000.params.csv") == cfg.shapes
        for it in iters:
            shapes = load_shape_params(out / f"geometry_iter{it}.params.csv")
            assert validate_geometry(shapes, cfg.L) == []
            # freeze_centers = yes holds the centers
            assert [p.center for p in shapes] == [p.center for p in cfg.shapes]

    def test_optimize_spectra_follow_band_samples(self, tmp_path):
        text = "solver.n_pts = 32\noptimizer.max_iters = 0\nband.samples = 50\n"
        assert run_cli(tmp_path, text, "spectrum", "--model", "rom") == 0
        assert run_cli(tmp_path, text, "optimize") == 0
        out = tmp_path / "out"
        swept = list(csv.reader((out / "spectrum.csv").open()))[2:]
        initial = list(csv.reader((out / "spectrum_initial.csv").open()))[2:]
        assert len(swept) == 50
        assert initial == swept

    def test_check_grad_small(self, tmp_path):
        text = (
            "geometry.layout = 2x1\ngeometry.spacing = 4.5\ngeometry.fourier_order = 1\n"
            "solver.n_pts = 48\noptimizer.n_quad = 32\n"
        )
        assert run_cli(tmp_path, text, "check-grad") == 0
        rows = list(csv.reader((tmp_path / "out" / "check_grad.csv").open()))
        assert rows[1] == ["resonator", "param", "quantity", "analytic", "fd", "rel_err"]
        rels = [float(r[5]) for r in rows[2:]]
        assert max(rels) <= 1e-4

    def test_check_grad_default_no_false_alarm(self, tmp_path):
        # the centred circle's center_x and b2 derivatives vanish by symmetry; their
        # round-off is measured against the quantity's largest |fd| (cli.REL_ERR_FLOOR)
        assert run_cli(tmp_path, "", "check-grad") == 0
        rows = list(csv.reader((tmp_path / "out" / "check_grad.csv").open()))[2:]
        assert min(abs(float(r[4])) for r in rows) < 1e-9
        assert max(float(r[5]) for r in rows) <= 1e-4

    def test_check_grad_builds_each_design_once(self, tmp_path, monkeypatch):
        # one evaluation serves the analytic column of every objective; each
        # finite-difference design is built once for every objective
        counts = {}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(capacitance, "capacitance_pipeline")
        counted(shapegrad, "gradient_densities")
        counted(layerpot.AssemblyContext, "adjoint_double_layer_laplace")
        text = "geometry.layout = 2x1\ngeometry.spacing = 4.5\ngeometry.fourier_order = 1\nsolver.n_pts = 32\n"
        assert run_cli(tmp_path, text, "check-grad") == 0
        n_params = 2 * 5  # two resonators of order 1: center, a0, a1, b1
        assert counts == {
            "gradient_densities": 1,
            "adjoint_double_layer_laplace": 1,
            "capacitance_pipeline": 2 * n_params + 1,
        }

    def test_greens_test_converges(self, tmp_path):
        assert run_cli(tmp_path, BASE, "greens-test") == 0
        rows = list(csv.reader((tmp_path / "out" / "greens_test.csv").open()))
        deltas = [float(r[3]) for r in rows[3:]]
        assert deltas[-1] < 1e-12

    @pytest.mark.parametrize(
        "extra, command",
        [
            ("optimizer.objective = foo\n", "optimize"),
            ("optimizer.lr = -1\n", "optimize"),
            ("optimizer.objective = res\noptimizer.m_targets = 0\n", "optimize"),
            ("optimizer.n_quad = 0\n", "check-grad"),
            ("optimizer.beta1 = 2\n", "optimize"),
            ("greens.y = 3 -1\n", "greens-test"),
            ("greens.x = 3 1\n", "greens-test"),
            ("greens.omega = -0.05\n", "greens-test"),
            ("geometry.radius = -0.5\n", "capmat"),
            ("optimizer.geometry_margin = 0\n", "optimize"),  # the gap rule is not a knob
        ],
    )
    def test_config_mistakes_exit_config(self, tmp_path, capsys, extra, command):
        # refused at parse time, before any numerical work
        assert run_cli(tmp_path, BASE + extra, command) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "out").exists()

    def test_greens_test_beyond_single_mode_is_numerical(self, tmp_path, capsys):
        # a wavenumber past the cutoff is a numerical limit, as for spectrum --model exact
        assert run_cli(tmp_path, BASE + "greens.omega = 0.4\n", "greens-test") == cli.EXIT_NUMERICAL
        assert "multiple propagating modes" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["lattice.L = nan", "lattice.L = inf", "geometry.radius = nan"])
    def test_non_finite_number_exits_config(self, tmp_path, capsys, line):
        # a config error, not a traceback (nan L) or a numerical failure (inf L, nan radius)
        assert run_cli(tmp_path, line + "\n", "capmat") == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path):
        assert run_cli(tmp_path, "materials.delta = 2\n", "capmat") == cli.EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "nope.txt"), "capmat"]) == cli.EXIT_CONFIG

    def test_metadata_line(self, tmp_path):
        run_cli(tmp_path, BASE, "capmat")
        first = (tmp_path / "out" / "capmat.csv").read_text().splitlines()[0]
        assert first.startswith("# metascreen") and "config_sha256=" in first
