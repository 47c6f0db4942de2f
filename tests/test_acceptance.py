"""Acceptance criteria, one test per criterion, each printing a PASS line.

The reflection sweeps compare the reduced-order model against the full-order
boundary-integral solver on three reference configurations: one circle
(radius 0.5, height 1), three circles side by side, and a compact 3x3 grid of
nine resonators.  Node counts are converged for every configuration (doubling
them moves the reflection coefficient at the 1e-13 level).
"""

import csv

import numpy as np
import pytest
from conftest import BAND, PRESET_NINE, PRESET_SINGLE, PRESET_THREE

from metascreen import (
    capacitance as cap,
    cli,
    fullorder as fo,
    geometry as geo,
    greens,
    layerpot as lp,
    optimizer as opt,
    rom,
    shapegrad as sg,
)

L = 20.0
MATS = rom.MaterialParams()
MATS_LOSSLESS = rom.MaterialParams(v_b=1.0)

PRESET_SINGLE_ORDER2 = geo.grid_layout(1, 1, radius=0.5, spacing=2.0, base_height=1.0, order=2)


def absorptance_peak(omegas, r):
    return omegas[np.argmax(rom.absorptance(r))]


class TestAC1RomAgreement:
    def test_single_circle(self, sweep_single):
        s = sweep_single
        diff = np.abs(s["r_rom"] - s["r_exact"]).max()
        assert diff <= 0.15, f"max |r_rom - r_exact| = {diff:.3f}"
        pk_ex = absorptance_peak(s["omegas"], s["r_exact"])
        pk_ro = absorptance_peak(s["omegas"], s["r_rom"])
        rel = abs(pk_ex - pk_ro) / pk_ex
        assert rel <= 0.05, f"peak mismatch {rel:.3%}"
        assert s["elapsed"] <= 60.0, f"sweep took {s['elapsed']:.0f}s"
        print(
            f"\nAC-1 single circle: PASS (max diff {diff:.3f}, peak shift {rel:.2%}, "
            f"{s['elapsed']:.0f}s)"
        )

    def test_three_resonators(self, sweep_three):
        diff = np.abs(sweep_three["r_rom"] - sweep_three["r_exact"]).max()
        assert diff <= 0.25, f"max |r_rom - r_exact| = {diff:.3f}"
        print(f"\nAC-1 three resonators: PASS (max diff {diff:.3f})")

    def test_nine_resonators(self, sweep_nine):
        diff = np.abs(sweep_nine["r_rom"] - sweep_nine["r_exact"]).max()
        assert diff <= 0.25, f"max |r_rom - r_exact| = {diff:.3f}"
        print(f"\nAC-1 nine resonators: PASS (max diff {diff:.3f})")


class TestAC2EnergyConservation:
    @pytest.mark.parametrize(
        "shapes,n_pts,n_freq,label",
        [
            (PRESET_SINGLE, 128, 200, "single"),
            (PRESET_THREE, 64, 120, "three"),
            (PRESET_NINE, 48, 100, "nine"),
        ],
        ids=["single", "three", "nine"],
    )
    def test_lossless_modulus(self, shapes, n_pts, n_freq, label):
        grid = geo.discretize(shapes, n_pts, L)
        ctx = lp.AssemblyContext(grid)
        omegas = np.linspace(BAND[0], BAND[1], n_freq)
        worst = max(
            abs(abs(fo.solve_scattering(grid, om, MATS_LOSSLESS, context=ctx).r) - 1.0)
            for om in omegas
        )
        assert worst <= 1e-6, f"max ||r|-1| = {worst:.2e}"
        print(f"\nAC-2 energy conservation ({label}): PASS (max ||r|-1| {worst:.1e})")


class TestAC3CapacitanceQuality:
    def test_quality(self):
        coarse = cap.capacitance_pipeline(geo.discretize(PRESET_THREE, 128, L))
        fine = cap.capacitance_pipeline(geo.discretize(PRESET_THREE, 256, L))
        assert coarse.asymmetry <= 1e-8
        assert np.all(coarse.lam > 0)
        rel_c = np.abs(coarse.C - fine.C).max() / np.abs(fine.C).max()
        rel_l = np.abs(coarse.lam - fine.lam).max() / np.abs(fine.lam).max()
        assert rel_c <= 1e-8 and rel_l <= 1e-8
        ff = max(
            abs(cap.farfield_constant(coarse, i, 2 * L) - coarse.m[i] / L)
            for i in range(coarse.n_res)
        )
        assert ff <= 1e-5
        print(
            f"\nAC-3 capacitance quality: PASS (asym {coarse.asymmetry:.1e}, "
            f"refine dC {rel_c:.1e}, dlam {rel_l:.1e}, far-field {ff:.1e})"
        )


class TestAC4ResonanceStructure:
    def test_counts_and_half_plane(self):
        for shapes, n_pts in ((PRESET_SINGLE, 64), (PRESET_THREE, 48), (PRESET_NINE, 48)):
            data = cap.capacitance_pipeline(geo.discretize(shapes, n_pts, L))
            om = rom.resonant_frequencies(data, MATS_LOSSLESS)
            assert len(om) == len(shapes)
            assert np.all(om.imag <= 0)
        print("\nAC-4 resonance count & lower half plane: PASS")

    def test_single_circle_dip_location(self, sweep_single):
        s = sweep_single
        om_res = rom.resonant_frequencies(s["data"], MATS)[0].real
        a_exact = rom.absorptance(s["r_exact"])
        interior = (a_exact[1:-1] > a_exact[:-2]) & (a_exact[1:-1] > a_exact[2:])
        peaks = s["omegas"][1:-1][interior]
        assert peaks.size, "no absorptance dip found"
        nearest = peaks[np.argmin(np.abs(peaks - om_res))]
        rel = abs(nearest - om_res) / om_res
        assert rel <= 0.05, f"dip at {nearest:.4f} vs Re omega_1 {om_res:.4f}"
        print(f"\nAC-4 dip location: PASS (|shift| {rel:.2%})")


class TestAC5GradientCorrectness:
    def test_full_battery(self, two_res_shapes):
        n_pts = 64
        n_quad = 64
        targets = opt.uniform_targets(BAND, 2)
        grid = geo.discretize(two_res_shapes, n_pts, L)
        ctx = lp.AssemblyContext(grid)
        data = cap.capacitance_pipeline(grid, context=ctx)
        model = rom.build_rom(data, MATS)
        grads = sg.gradient_densities(data, MATS, kstar=ctx.adjoint_double_layer_laplace())
        vel = sg.normal_velocities(grid)
        analytic = {
            "C": sg.parametric_gradient(grads.gC, grid, vel),
            "m": sg.parametric_gradient(grads.gm, grid, vel),
            "lam": sg.parametric_gradient(grads.glam0, grid, vel),
            "lam1": sg.parametric_gradient(grads.glam1, grid, vel),
            "r": sg.parametric_gradient(sg.grad_reflection(model, grads, 0.05), grid, vel),
            "Jref": sg.parametric_gradient(
                sg.grad_objective_ref(model, grads, BAND, n_quad), grid, vel
            ),
            "Jres": sg.parametric_gradient(
                sg.grad_objective_res(model, grads, targets), grid, vel
            ),
        }

        def quantities(params):
            shapes = geo.params_to_shapes(params, 2)
            d = cap.capacitance_pipeline(geo.discretize(shapes, n_pts, L))
            mdl = rom.build_rom(d, MATS)
            return {
                "C": d.C,
                "m": d.m,
                "lam": d.lam,
                "lam1": mdl.lam1,
                "r": rom.reflection_rom(mdl, 0.05),
                "Jref": opt.objective_ref(mdl, BAND, n_quad),
                "Jres": opt.objective_res(mdl, targets),
            }

        p0 = geo.shapes_to_params(two_res_shapes)
        norms = {q: max(np.abs(np.asarray(a)).max(), 1e-300) for q, a in analytic.items()}
        worst = 0.0
        for ip in range(len(p0)):
            h = 1e-5 * max(abs(p0[ip]), 1.0)
            pp, pm = p0.copy(), p0.copy()
            pp[ip] += h
            pm[ip] -= h
            fp, fm = quantities(pp), quantities(pm)
            for q in analytic:
                an = np.atleast_1d(np.asarray(analytic[q][ip]))
                fd = np.atleast_1d((np.asarray(fp[q]) - np.asarray(fm[q])) / (2 * h))
                small = np.abs(fd) < 1e-8 * norms[q]
                if np.any(small):
                    assert np.abs(an - fd)[small].max() <= 1e-8 * norms[q]
                if np.any(~small):
                    rel = (np.abs(an - fd)[~small] / np.abs(fd)[~small]).max()
                    worst = max(worst, float(rel))
                    assert rel <= 1e-4, f"{q} param {ip}: rel err {rel:.2e}"
        # lattice-translation pairings vanish
        theta_nu = grid.normals[:, 0]
        for dens in (grads.gC, grads.gm, grads.glam0, grads.glam1):
            pair = sg.parametric_gradient(dens, grid, theta_nu[None])[0]
            assert np.abs(pair).max() <= 1e-8
        print(f"\nAC-5 gradient correctness: PASS (worst FD rel err {worst:.1e})")


class TestAC6CriticalCoupling:
    def test_superabsorption_zero(self):
        omega_star, lam1, lam11, delta = 0.05, 2.5, 0.5, 0.001
        vb2 = omega_star**2 / (delta * (lam1 + 1j * omega_star * lam11))
        v_b = np.sqrt(vb2)
        v_b = -v_b if v_b.imag > 0 else v_b
        mats = rom.MaterialParams(v_b=complex(v_b), delta=delta)
        model = rom.RomModel(lam=[lam1], lam1=[lam11], materials=mats)
        mag = abs(rom.reflection_rom(model, omega_star))
        assert mag <= 1e-12, f"|r| = {mag:.2e}"
        print(f"\nAC-6 critical coupling r=0: PASS (|r| {mag:.1e})")

    def test_sound_hard_crossing(self):
        omega_star, delta = 0.05, 0.001
        lam1 = omega_star**2 / delta  # lambda(omega*) == lam1 bit-exactly
        mats = rom.MaterialParams(v_b=1.0, delta=delta)
        model = rom.RomModel(lam=[lam1], lam1=[0.4], materials=mats)
        r = rom.reflection_rom(model, omega_star)
        assert abs(r - 1.0) <= 1e-12, f"r = {r}"
        print(f"\nAC-6 sound-hard crossing r=+1: PASS (|r-1| {abs(r - 1.0):.1e})")


class TestAC7Optimization:
    def test_res_objective_halves(self):
        cfg = opt.OptConfig(objective="res", m_targets=1, max_iters=100, n_pts=64, seed=0)
        state = opt.run(cfg, PRESET_SINGLE_ORDER2, MATS, L)
        j0 = state.history[0][1]
        ratio = state.best_value / j0
        js = np.array([row[1] for row in state.history])
        assert np.all(np.diff(np.minimum.accumulate(js)) <= 0)
        assert ratio <= 0.5, f"J ratio {ratio:.3f}"
        print(f"\nAC-7 res objective: PASS (J {j0:.3f} -> {state.best_value:.3f})")

    def test_ref_objective_improves_absorptance(self):
        cfg = opt.OptConfig(objective="ref", max_iters=100, n_pts=64, seed=0)
        state = opt.run(cfg, PRESET_SINGLE_ORDER2, MATS, L)
        j0 = state.history[0][1]
        assert state.best_value < j0  # band absorptance = 1 - J^ref strictly rises
        js = np.array([row[1] for row in state.history])
        assert np.all(np.diff(np.minimum.accumulate(js)) <= 0)
        print(
            f"\nAC-7 ref objective: PASS (band absorptance {1 - j0:.3f} -> "
            f"{1 - state.best_value:.3f})"
        )

    def test_history_determinism(self, tmp_path):
        text = (
            "geometry.layout = 1x1\nsolver.n_pts = 48\nband.samples = 16\n"
            "optimizer.objective = res\noptimizer.m_targets = 1\noptimizer.max_iters = 8\n"
        )
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(text)
        contents = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert (
                cli.main(
                    ["--config", str(cfg_file), "--output-dir", str(out), "--seed", "7", "optimize"]
                )
                == 0
            )
            rows = list(csv.reader((out / "history.csv").open()))
            # wall_ms carries measured time and is the single nondeterministic
            # column; everything else must be bit-identical
            contents.append([row[:3] for row in rows])
        assert contents[0] == contents[1]
        print("\nAC-7 determinism: PASS (history identical up to wall_ms)")


class TestAC8GreensPrecision:
    def test_spectral_match_separated(self):
        cfg = greens.LatticeConfig(L=L)
        wave = greens.WaveParams(k=0.1)
        x, y = np.array([1.0, 5.0]), np.array([3.0, 1.0])  # |dx_d| = 4 = 0.2 L

        def spectral(zl, zd):
            out = np.exp(1j * 0.1 * abs(zd)) / (2j * 0.1 * L)
            ns = np.arange(1, 400)
            eta = 2 * np.pi * ns / L
            gam = np.sqrt(eta**2 - 0.01 + 0j)
            return out - np.sum(np.cos(eta * zl) * np.exp(-gam * abs(zd)) / (L * gam))

        ref = spectral(x[0] - y[0], x[1] - y[1]) - spectral(x[0] - y[0], x[1] + y[1])
        err = abs(greens.helmholtz_gs(x, y, wave, cfg) - ref)
        assert err <= 1e-12

        trace = abs(greens.helmholtz_gs(x, np.array([2.0, 0.0]), wave, cfg))
        assert trace <= 1e-13

        v1 = greens.helmholtz_gs(x, y, wave, cfg, n_modes=16)
        v2 = greens.helmholtz_gs(x, y, wave, cfg, n_modes=32)
        assert abs(v1 - v2) <= cfg.tol
        print(
            f"\nAC-8 Green's precision: PASS (spectral err {err:.1e}, trace {trace:.1e})"
        )
