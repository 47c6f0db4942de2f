import os
import subprocess
import sys

import numpy as np
import pytest

from metascreen import capacitance as cap, cli, config, geometry as geo, optimizer as opt, rom, shapegrad as sg

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

    def test_design_targets_default_one_per_resonator(self):
        cfg = opt.OptConfig(band=BAND)
        assert np.array_equal(opt.design_targets(cfg, 3), opt.uniform_targets(BAND, 3))
        cfg = opt.OptConfig(band=BAND, m_targets=2)
        assert np.array_equal(opt.design_targets(cfg, 3), opt.uniform_targets(BAND, 2))


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

    def test_freeze_centers_every_resonator(self, two_res_shapes):
        state = opt.OptState.fresh(two_res_shapes)
        g = np.random.default_rng(0).standard_normal(state.params.shape)
        cfg = self.cfg(freeze_centers=True)
        new, ok = opt.step_uniform_adam(state, g, cfg, L)
        old_blocks, new_blocks = (p.reshape(2, -1) for p in (state.params, new.params))
        assert ok and np.array_equal(new_blocks[:, geo.CENTER], old_blocks[:, geo.CENTER])
        assert np.all(new_blocks[:, geo.A0] != old_blocks[:, geo.A0])
        assert np.all(new_blocks[:, geo.COEFFS] != old_blocks[:, geo.COEFFS])
        # the normalized, frozen gradient equals the per-resonator loop's
        npp = geo.params_per_shape(2)
        ref = g.copy()
        for j in range(2):
            ref[j * npp : (j + 1) * npp] /= np.abs(ref[j * npp : (j + 1) * npp]).max()
            ref[j * npp : j * npp + 2] = 0.0
        assert np.array_equal(new.moment1, (1.0 - cfg.beta1) * ref)

    def test_zero_gradient_block_stays(self, two_res_shapes):
        # the per-block max-abs normalization leaves an all-zero block at zero
        state = opt.OptState.fresh(two_res_shapes)
        g = np.zeros((2, geo.params_per_shape(2)))
        g[1] = np.linspace(-3.0, 2.0, g.shape[1])
        new, ok = opt.step_uniform_adam(state, g.ravel(), self.cfg(), L)
        old_blocks, new_blocks = (p.reshape(2, -1) for p in (state.params, new.params))
        assert ok and np.array_equal(new_blocks[0], old_blocks[0])
        assert np.all(new_blocks[1] != old_blocks[1])
        assert not new.moment1.reshape(2, -1)[0].any() and not new.moment2.reshape(2, -1)[0].any()

    def test_box_follows_the_block_layout(self):
        cfg = self.cfg(a0_bounds=(0.1, 2.0), coeff_bounds=(-0.3, 0.4))
        lo, hi = opt._bounds_mask(3, 2, cfg, L)
        npp = geo.params_per_shape(2)
        for j in range(3):
            b = j * npp
            assert (lo[b], hi[b], lo[b + 1], hi[b + 1]) == (-L / 2.0, L / 2.0, 0.0, np.inf)
            assert (lo[b + 2], hi[b + 2]) == cfg.a0_bounds
            assert np.all(lo[b + 3 : b + npp] == -0.3) and np.all(hi[b + 3 : b + npp] == 0.4)

    def test_order_zero_design_steps(self):
        # no Fourier coefficients: the coefficient rows of every block are empty
        shapes = (geo.ShapeParams((-3.0, 1.0), 0.5), geo.ShapeParams((3.0, 1.0), 0.4))
        state = opt.OptState.fresh(shapes)
        new, ok = opt.step_uniform_adam(state, np.ones_like(state.params), self.cfg(freeze_centers=True), L)
        old_blocks, new_blocks = (p.reshape(2, -1) for p in (state.params, new.params))
        assert ok and new_blocks.shape == (2, 3)
        assert np.array_equal(new_blocks[:, geo.CENTER], old_blocks[:, geo.CENTER])
        assert np.all(new_blocks[:, geo.A0] < old_blocks[:, geo.A0])

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

    def test_degenerate_retry_with_jitter(self, one_circle, two_res_shapes, monkeypatch):
        calls = {"n": 0}
        designs = []
        real = opt.evaluate

        def flaky(shapes, cfg, materials, L_):
            designs.append(geo.shapes_to_params(shapes).reshape(len(shapes), -1))
            if calls["n"] == 0:
                calls["n"] += 1
                raise sg.DegenerateSpectrumError("synthetic")
            return real(shapes, cfg, materials, L_)

        monkeypatch.setattr(opt, "evaluate", flaky)
        cfg = opt.OptConfig(objective="ref", max_iters=1, n_pts=32)
        for shapes in (one_circle, two_res_shapes):
            calls["n"] = 0
            designs.clear()
            state = opt.run(cfg, shapes, MATS, L)
            assert calls["n"] == 1 and len(state.history) == 2
            # the retry jitters only the Fourier coefficients of each resonator
            refused, retried = designs[:2]
            assert np.array_equal(retried[:, geo.CENTER], refused[:, geo.CENTER])
            assert np.array_equal(retried[:, geo.A0], refused[:, geo.A0])
            # one draw per resonator, in order, from the seeded generator
            rng = np.random.default_rng(cfg.seed)
            npp = refused.shape[1]
            ref = refused.ravel().copy()
            for j in range(len(shapes)):
                ref[j * npp + 3 : (j + 1) * npp] += 1e-4 * rng.standard_normal(npp - 3)
            assert np.array_equal(retried.ravel(), ref)

    def test_order_zero_design_retries(self, monkeypatch):
        # the jitter of an order-0 design draws nothing and leaves it unchanged
        shapes = (geo.ShapeParams((-3.0, 1.0), 0.5), geo.ShapeParams((3.0, 1.0), 0.4))
        designs = []
        real = opt.evaluate

        def flaky(shapes_, *args):
            designs.append(geo.shapes_to_params(shapes_))
            if len(designs) == 1:
                raise sg.DegenerateSpectrumError("synthetic")
            return real(shapes_, *args)

        monkeypatch.setattr(opt, "evaluate", flaky)
        state = opt.run(opt.OptConfig(objective="ref", max_iters=1, n_pts=32), shapes, MATS, L)
        assert len(state.history) == 2 and np.array_equal(designs[0], designs[1])

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
        real_evaluate = opt.evaluate

        def counted(*args):
            evaluations.append(1)
            return real_evaluate(*args)

        class StepsRefused:
            """The geometry module as the optimizer sees it, with every trial step invalid."""

            def __getattr__(self, name):
                return getattr(geo, name)

            @staticmethod
            def validate_geometry(shapes, L_):
                if tuple(shapes) != tuple(one_circle):  # a trial step moves the design
                    return ["synthetic violation"]
                return geo.validate_geometry(shapes, L_)

        def history(skip_steps, plateau_iters=0):
            evaluations.clear()
            with monkeypatch.context() as m:
                m.setattr(opt, "evaluate", counted)
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

    @pytest.mark.parametrize(
        "entry, error",
        [
            pytest.param(geo.shapes_to_params, ValueError, id="shapes_to_params"),
            pytest.param(opt.OptState.fresh, ValueError, id="OptState.fresh"),
            pytest.param(
                lambda shapes: sg.normal_velocities(geo.discretize(shapes, 32, L)),
                ValueError,
                id="normal_velocities",
            ),
            pytest.param(  # the same two resonators as shape blocks
                lambda shapes: config.parse_config_text(
                    "shape.1.center = -3 1\nshape.1.a0 = 0.5\nshape.1.cos = 0.1\nshape.1.sin = 0\n"
                    "shape.2.center = 3 1\nshape.2.a0 = 0.5\n"
                ),
                config.ConfigError,
                id="parse_config_text",
            ),
        ],
    )
    def test_mixed_fourier_order_rejected(self, entry, error):
        mixed = (
            geo.ShapeParams((-3.0, 1.0), 0.5, (0.1,), (0.0,)),
            geo.ShapeParams((3.0, 1.0), 0.5),
        )
        with pytest.raises(error, match="^all shapes must share one Fourier order$"):
            entry(mixed)

    @pytest.mark.parametrize("entry", [geo.fourier_order, geo.shapes_to_params, opt.OptState.fresh])
    def test_empty_design_rejected(self, entry):
        # the empty design is refused under its own rule, not the shared-order one
        with pytest.raises(ValueError, match="^a design must have at least one resonator$"):
            entry(())
