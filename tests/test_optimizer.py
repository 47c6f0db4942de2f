import os
import subprocess
import sys

import numpy as np
import pytest

from metascreen import capacitance as cap, cli, geometry as geo, optimizer as opt, rom, shapegrad as sg

L = 20.0
MATS = rom.MaterialParams()
BAND = (0.01, 0.1)


@pytest.fixture(scope="module")
def one_circle():
    return geo.grid_layout(1, 1, radius=0.5, spacing=2.0, base_height=1.0, order=2)


class TestTargets:
    def test_two_targets(self):
        assert np.allclose(opt.uniform_targets(BAND, 2), [0.04, 0.07])

    def test_one_target(self):
        assert np.allclose(opt.uniform_targets(BAND, 1), [0.055])

    def test_endpoints_excluded(self):
        for m in (1, 2, 5, 9):
            t = opt.uniform_targets(BAND, m)
            assert t.min() > BAND[0] and t.max() < BAND[1]


class TestObjectives:
    def test_ref_bare_wall(self):
        model = rom.RomModel(lam=[2.0], lam1=[0.0], materials=MATS)
        assert abs(opt.objective_ref(model, BAND) - 1.0) < 1e-14  # r = -1 exactly

    def test_ref_quadrature_self_convergence(self, one_circle):
        # frozen at first green build: the resonance peak leaves 1.8e-8
        # between 64 and 128 Gauss nodes, and 1.4e-11 between 128 and 256
        grid = geo.discretize(one_circle, 64, L)
        model = rom.build_rom(cap.capacitance_pipeline(grid), MATS)
        j64 = opt.objective_ref(model, BAND, 64)
        j128 = opt.objective_ref(model, BAND, 128)
        j256 = opt.objective_ref(model, BAND, 256)
        assert abs(j64 - j128) < 5e-8
        assert abs(j128 - j256) < 1e-10

    def test_res_perfect_matching(self):
        omega_star = 0.05
        lam_w = rom.lambda_of_omega(MATS, omega_star)
        model = rom.RomModel(
            lam=[lam_w.real], lam1=[lam_w.imag / omega_star], materials=MATS
        )
        assert opt.objective_res(model, [omega_star]) < 1e-28

    def test_res_single_mismatch(self):
        omega_star = 0.05
        lam_w = rom.lambda_of_omega(MATS, omega_star)
        model = rom.RomModel(
            lam=[2.0 * lam_w.real], lam1=[lam_w.imag / omega_star], materials=MATS
        )
        assert abs(opt.objective_res(model, [omega_star]) - 1.0) < 1e-12

    def test_res_lossless_rejected(self):
        model = rom.RomModel(
            lam=[2.0], lam1=[0.5], materials=rom.MaterialParams(v_b=1.0)
        )
        with pytest.raises(ValueError, match="lossless"):
            opt.objective_res(model, [0.05])

    def test_res_too_many_targets(self):
        model = rom.RomModel(lam=[2.0], lam1=[0.5], materials=MATS)
        with pytest.raises(ValueError, match="targets"):
            opt.objective_res(model, [0.04, 0.07])


class TestOptConfig:
    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"objective": "foo"}, "objective"),
            ({"band": (-0.01, 0.1)}, "band"),
            ({"objective": "res", "m_targets": 0}, "m_targets"),
            ({"n_quad": 0}, "n_quad"),
            ({"lr": float("nan")}, "lr"),
            ({"beta1": 2.0}, "beta1"),
            ({"beta2": 1.0}, "beta2"),
            ({"eps": 0.0}, "eps"),
            ({"a0_bounds": (0.5, 0.4)}, "a0_bounds"),
            ({"coeff_bounds": (1.0, -1.0)}, "coeff_bounds"),
            ({"geometry_margin": -0.1}, "geometry_margin"),
            ({"n_pts": 15}, "n_pts"),
            ({"plateau_iters": -1}, "plateau_iters"),
            ({"snapshot_every": -1}, "snapshot_every"),
        ],
    )
    def test_bad_field_fails_at_construction(self, fields, name):
        # refused when built, before a run divides by 1 - beta2^t = 0 or by
        # m_targets = 0, or asks for a zero-point quadrature
        with pytest.raises(ValueError, match=name):
            opt.OptConfig(**fields)

    def test_every_failing_field_named(self):
        with pytest.raises(ValueError) as info:
            opt.OptConfig(beta2=1.0, n_quad=0, m_targets=0, eps=0.0)
        for name in ("beta2", "n_quad", "m_targets", "eps"):
            assert name in str(info.value)


class TestStep:
    def cfg(self, **kw):
        return opt.OptConfig(objective="ref", max_iters=1, **kw)

    def test_zero_gradient_no_move(self, one_circle):
        state = opt.OptState.fresh(one_circle)
        new, ok = opt.step_uniform_adam(state, np.zeros_like(state.params), self.cfg(), L)
        assert ok and np.array_equal(new.params, state.params)

    def test_bound_projection(self):
        shapes = geo.grid_layout(1, 1, radius=0.5, base_height=1.5, order=2)
        state = opt.OptState.fresh(shapes)
        state.params[2] = 1.0  # a0 at its upper bound, still wall-clear
        g = np.zeros_like(state.params)
        g[2] = -5.0  # pushes a0 upward (step is -lr * direction)
        new, ok = opt.step_uniform_adam(state, g, self.cfg(), L)
        assert ok and new.params[2] == 1.0

    def test_freeze_centers(self, one_circle):
        state = opt.OptState.fresh(one_circle)
        g = np.ones_like(state.params)
        new, _ = opt.step_uniform_adam(state, g, self.cfg(freeze_centers=True), L)
        assert np.array_equal(new.params[:2], state.params[:2])
        assert not np.array_equal(new.params[2:], state.params[2:])

    def test_nonfinite_gradient_rejected(self, one_circle):
        state = opt.OptState.fresh(one_circle)
        g = np.full_like(state.params, np.nan)
        with pytest.raises(ValueError):
            opt.step_uniform_adam(state, g, self.cfg(), L)

    def test_tiny_learning_rate(self, one_circle):
        state = opt.OptState.fresh(one_circle)
        g = np.ones_like(state.params)
        new, _ = opt.step_uniform_adam(state, g, self.cfg(lr=1e-12), L)
        assert np.abs(new.params - state.params).max() <= 1e-10

    def test_invalid_step_halved_or_skipped(self):
        # resonator close to the wall, gradient pushing it through: the step
        # is halved until valid, keeping every accepted iterate feasible
        shapes = (geo.ShapeParams((0.0, 0.62), 0.5),)
        state = opt.OptState.fresh(shapes)
        g = np.zeros_like(state.params)
        g[1] = 1.0  # direction lowers the center toward the wall
        cfg = self.cfg(lr=0.5)
        new, ok = opt.step_uniform_adam(state, g, cfg, L)
        if ok:
            assert not geo.validate_geometry(new.shapes(), L)
        else:
            assert np.array_equal(new.params, state.params)


class TestRun:
    def test_zero_iterations(self, tmp_path):
        # the default config geometry is one_circle; the CLI writes the artifacts
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(
            "solver.n_pts = 32\noptimizer.objective = ref\noptimizer.max_iters = 0\n"
        )
        assert cli.main(["--config", str(cfg_file), "--output-dir", str(tmp_path), "optimize"]) == 0
        assert len((tmp_path / "history.csv").read_text().splitlines()) == 2 + 1
        init = (tmp_path / "spectrum_initial.csv").read_bytes()
        best = (tmp_path / "spectrum_best.csv").read_bytes()
        assert init == best
        gi = (tmp_path / "geometry_initial.csv").read_text().splitlines()[1:]
        gb = (tmp_path / "geometry_best.csv").read_text().splitlines()[1:]
        assert gi == gb

    def test_best_round_trip(self, one_circle):
        cfg = opt.OptConfig(objective="res", m_targets=1, max_iters=10, n_pts=32)
        state = opt.run(cfg, one_circle, MATS, L)
        shapes = geo.params_to_shapes(state.best_params, 2)
        grid = geo.discretize(shapes, cfg.n_pts, L)
        model = rom.build_rom(cap.capacitance_pipeline(grid), MATS)
        value = opt.objective_res(model, opt.uniform_targets(BAND, 1))
        assert abs(value - state.best_value) < 1e-12

    def test_best_monotone_and_history_finite(self, one_circle):
        cfg = opt.OptConfig(objective="res", m_targets=1, max_iters=25, n_pts=32)
        state = opt.run(cfg, one_circle, MATS, L)
        js = np.array([row[1] for row in state.history])
        assert np.all(np.isfinite(js))
        assert np.all(np.diff(np.minimum.accumulate(js)) <= 0)
        iters = [row[0] for row in state.history]
        assert iters == sorted(iters)

    def test_determinism(self, one_circle):
        cfg = opt.OptConfig(objective="res", m_targets=1, max_iters=15, n_pts=32, seed=3)
        s1 = opt.run(cfg, one_circle, MATS, L)
        s2 = opt.run(cfg, one_circle, MATS, L)
        for r1, r2 in zip(s1.history, s2.history):
            assert r1[:3] == r2[:3]  # iter, J, grad norm bit-identical
        assert np.array_equal(s1.best_params, s2.best_params)

    def test_every_iterate_valid(self, one_circle):
        cfg = opt.OptConfig(objective="ref", max_iters=15, n_pts=32)
        state = opt.run(cfg, one_circle, MATS, L)
        assert not geo.validate_geometry(state.shapes(), L)

    def test_degenerate_retry_with_jitter(self, one_circle, monkeypatch):
        calls = {"n": 0}
        real = opt._evaluate

        def flaky(shapes, cfg, materials, L_, targets):
            if calls["n"] == 0:
                calls["n"] += 1
                raise sg.DegenerateSpectrumError("synthetic")
            return real(shapes, cfg, materials, L_, targets)

        monkeypatch.setattr(opt, "_evaluate", flaky)
        cfg = opt.OptConfig(objective="ref", max_iters=1, n_pts=32)
        state = opt.run(cfg, one_circle, MATS, L)
        assert calls["n"] == 1 and len(state.history) == 2

    def test_run_without_retry_skips_numpy_random(self, tmp_path):
        # the jitter generator is made on the first degenerate-spectrum retry,
        # so an optimize run that needs none never imports numpy.random
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("solver.n_pts = 32\noptimizer.objective = ref\noptimizer.max_iters = 1\n")
        probe = (
            "import sys; from metascreen import cli; "
            f"code = cli.main(['--config', {str(cfg_file)!r}, '--output-dir', {str(tmp_path)!r}, 'optimize']); "
            "print(code, 'numpy.random' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(opt.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        assert out.stdout.split()[-2:] == ["0", "False"]
        assert len((tmp_path / "history.csv").read_text().splitlines()) == 2 + 2

    def test_skipped_step_reuses_evaluation(self, one_circle, monkeypatch):
        # every step after the first evaluation is refused, so the design
        # never moves: one evaluation serves every iteration, and the history
        # and the plateau stop are those of evaluating each time
        evaluations = []
        real_evaluate = opt._evaluate

        def counted(*args):
            evaluations.append(1)
            return real_evaluate(*args)

        class StepsRefused:
            """The geometry module as the optimizer sees it, with every trial step invalid."""

            def __getattr__(self, name):
                return getattr(geo, name)

            @staticmethod
            def validate_geometry(shapes, L_, margin=None):
                if tuple(shapes) != tuple(one_circle):  # a trial step moves the design
                    return ["synthetic violation"]
                return geo.validate_geometry(shapes, L_, margin=margin)

        def history(skip_steps, plateau_iters=0):
            evaluations.clear()
            with monkeypatch.context() as m:
                m.setattr(opt, "_evaluate", counted)
                if skip_steps:
                    m.setattr(opt, "geometry", StepsRefused())
                cfg = opt.OptConfig(
                    objective="ref", max_iters=4, n_pts=32, plateau_iters=plateau_iters
                )
                state = opt.run(cfg, one_circle, MATS, L)
            return state, len(evaluations)

        state, n_eval = history(skip_steps=True)
        assert n_eval == 1
        assert [row[0] for row in state.history] == [0, 1, 2, 3, 4]
        assert np.array_equal(state.params, opt.OptState.fresh(one_circle).params)
        # the J column: the first evaluation's value on every row, as evaluating
        # the unchanged design again gives
        first, _ = history(skip_steps=False)
        assert [row[1] for row in state.history] == [first.history[0][1]] * 5
        assert state.history[0][1:3] == first.history[0][1:3]
        assert state.best_value == first.history[0][1]
        # J does not improve on a skipped step, so the plateau stop counts them
        plateau, n_eval = history(skip_steps=True, plateau_iters=2)
        assert n_eval == 1 and [row[0] for row in plateau.history] == [0, 1, 2]

    def test_invalid_initial_geometry_rejected(self):
        bad = (geo.ShapeParams((0.0, 0.3), 0.5),)
        with pytest.raises(geo.GeometryError):
            opt.run(opt.OptConfig(), bad, MATS, L)

    def test_out_of_box_initial_design_rejected(self):
        huge = (geo.ShapeParams((0.0, 3.0), 1.5),)
        with pytest.raises(geo.GeometryError, match="design box"):
            opt.run(opt.OptConfig(), huge, MATS, L)

    def test_design_box_reporting(self):
        # the box of the initial check is the box each step is projected onto:
        # every parameter outside it is named, with the bounds
        def refusal(shapes):
            with pytest.raises(geo.GeometryError) as info:
                opt.run(opt.OptConfig(max_iters=0, n_pts=32), shapes, MATS, L)
            return info.value.violations

        huge = geo.ShapeParams((0, 3), 1.5)
        assert refusal([huge]) == ["resonator 0: a0 = 1.5 outside the design box [0.1, 1]"]
        wavy = geo.ShapeParams((0, 3), 0.8, cos_coeffs=(1.2,), sin_coeffs=(-1.1,))
        assert refusal([wavy]) == [
            "resonator 0: a1 = 1.2 outside the design box [-1, 1]",
            "resonator 0: b1 = -1.1 outside the design box [-1, 1]",
        ]
        ok = geo.ShapeParams((0, 3), 0.8, cos_coeffs=(0.9,), sin_coeffs=(0.0,))
        assert opt.run(opt.OptConfig(max_iters=0, n_pts=32), [ok], MATS, L).history

    def test_asymmetric_box_checked_at_its_lower_bound(self):
        # under coeff_bounds = (0, 1) the first step would snap a1 = -0.3 to 0
        shapes = [geo.ShapeParams((0, 3), 0.8, cos_coeffs=(-0.3,), sin_coeffs=(0.5,))]
        with pytest.raises(geo.GeometryError, match=r"a1 = -0\.3 outside the design box \[0, 1\]"):
            opt.run(opt.OptConfig(coeff_bounds=(0.0, 1.0)), shapes, MATS, L)
        state = opt.run(opt.OptConfig(coeff_bounds=(-1.0, 1.0), max_iters=0, n_pts=32), shapes, MATS, L)
        assert len(state.history) == 1

    def test_mixed_fourier_order_rejected(self):
        mixed = (
            geo.ShapeParams((-3.0, 1.0), 0.5, (0.1,), (0.0,)),
            geo.ShapeParams((3.0, 1.0), 0.5),
        )
        with pytest.raises(ValueError, match="Fourier order"):
            opt.OptState.fresh(mixed)
