import numpy as np
import pytest

from metascreen import geometry as geo

L = 20.0


class TestShapeParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a0": float("nan")},
            {"a0": float("inf")},
            {"a0": 0.0},
            {"center": (float("nan"), 1.0)},
            {"center": (0.0, float("-inf"))},
            {"cos_coeffs": (float("nan"),), "sin_coeffs": (0.0,)},
            {"cos_coeffs": (0.1,), "sin_coeffs": (float("inf"),)},
        ],
    )
    def test_non_finite_or_nonpositive_refused(self, kwargs):
        # refused at construction, for callers that build shapes without the config parser
        fields = {"center": (0.0, 1.0), "a0": 0.5, **kwargs}
        with pytest.raises(ValueError):
            geo.ShapeParams(**fields)


class TestParametrize:
    def test_circle_axis_points(self, circle_half):
        assert np.allclose(geo.parametrize(circle_half, 0.0), [0.5, 1.0])
        assert np.allclose(geo.parametrize(circle_half, np.pi / 2), [0.0, 1.5])

    def test_first_cos_coefficient(self):
        p = geo.ShapeParams(center=(0.0, 1.0), a0=0.5, cos_coeffs=(1.0,), sin_coeffs=(0.0,))
        # r(0) = 0.5 * (1 + 1/2) = 0.75
        assert np.allclose(geo.parametrize(p, 0.0), [0.75, 1.0])

    def test_periodicity(self, wavy_shape):
        t = np.linspace(0.0, 2.0 * np.pi, 17)
        a = geo.parametrize(wavy_shape, t)
        b = geo.parametrize(wavy_shape, t + 2.0 * np.pi)
        assert np.abs(a - b).max() < 1e-13


class TestDiscretize:
    def test_circle_nodes_and_speed(self, circle_half):
        grid = geo.discretize([circle_half], 16, L)
        assert np.allclose(grid.t[:16], 2.0 * np.pi * np.arange(16) / 16)
        assert np.allclose(grid.speed, 0.5)
        # node at angle pi/2 sits on top of the circle
        assert np.allclose(grid.nodes[4], [0.0, 1.5])

    def test_circle_curvature_constant(self, circle_half):
        grid = geo.discretize([circle_half], 32, L)
        assert np.abs(grid.curvature - 2.0).max() < 1e-13

    def test_curvature_matches_tangent_angle_derivative(self, wavy_shape):
        # independent oracle: kappa = d(phi)/ds with phi the tangent angle
        t = 2.0 * np.pi * np.arange(64) / 64
        _, _, speed, _, kappa = geo.boundary_frame(wavy_shape, t)
        h = 1e-5

        def tangent_angle(tv):
            _, dx, _, _, _ = geo.boundary_frame(wavy_shape, tv)
            return np.arctan2(dx[..., 1], dx[..., 0])

        dphi = np.angle(np.exp(1j * (tangent_angle(t + h) - tangent_angle(t - h))))
        kappa_fd = dphi / (2.0 * h) / speed
        assert np.abs(kappa - kappa_fd).max() < 1e-8

    def test_even_minimum_node_count(self, circle_half):
        with pytest.raises(ValueError):
            geo.discretize([circle_half], 15, L)
        with pytest.raises(ValueError):
            geo.discretize([circle_half], 8, L)

    def test_normals_point_outward(self, wavy_shape):
        grid = geo.discretize([wavy_shape], 64, L)
        rel = grid.nodes - np.asarray(wavy_shape.center)
        assert np.all(np.einsum("ki,ki->k", rel, grid.normals) > 0)

    def test_deterministic(self, wavy_shape):
        g1 = geo.discretize([wavy_shape], 64, L)
        g2 = geo.discretize([wavy_shape], 64, L)
        assert np.array_equal(g1.nodes, g2.nodes)
        assert np.array_equal(g1.curvature, g2.curvature)

    def test_invalid_geometry_reported(self):
        bad = geo.ShapeParams(center=(0.0, 0.3), a0=0.5)
        with pytest.raises(geo.GeometryError, match="wall"):
            geo.discretize([bad], 32, L)


class TestArea:
    def test_disk_areas(self):
        small = geo.discretize([geo.ShapeParams((0, 1), 0.5)], 64, L).areas()[0]
        unit = geo.discretize([geo.ShapeParams((0, 2), 1.0)], 64, L).areas()[0]
        assert abs(small - np.pi / 4) < 1e-12
        assert abs(unit - np.pi) < 1e-12

    def test_area_spectral_accuracy(self, circle_half):
        assert abs(geo.discretize([circle_half], 16, L).areas()[0] - np.pi * 0.25**2 * 4) < 1e-12

    def test_polygon_oracle(self):
        # shoelace area of the 1e6-gon inscribed in the perturbed boundary
        p = geo.ShapeParams(center=(0.0, 1.0), a0=0.5, cos_coeffs=(0.5,), sin_coeffs=(0.0,))
        t = 2.0 * np.pi * np.arange(1_000_000) / 1_000_000
        x = geo.parametrize(p, t)
        xs, ys = x[:, 0], x[:, 1]
        shoelace = 0.5 * np.abs(
            np.sum(xs * np.roll(ys, -1) - np.roll(xs, -1) * ys)
        )
        assert abs(geo.discretize([p], 64, L).areas()[0] - shoelace) < 1e-10


class TestVelocityField:
    def test_translation_fields(self, wavy_shape):
        t = np.linspace(0.0, 2 * np.pi, 9)
        assert np.allclose(geo.velocity_field(wavy_shape, 0, t), [1.0, 0.0])
        assert np.allclose(geo.velocity_field(wavy_shape, 1, t), [0.0, 1.0])

    def test_radius_field_on_circle(self, circle_half):
        v = geo.velocity_field(circle_half, 2, 0.0)
        assert np.allclose(v, [1.0, 0.0])

    def test_first_cos_field(self):
        p = geo.ShapeParams(center=(0.0, 1.0), a0=0.5, cos_coeffs=(0.0,), sin_coeffs=(0.0,))
        v = geo.velocity_field(p, 3, 0.0)  # a_1 direction, M = 1
        assert np.allclose(v, [0.25, 0.0])

    def test_unknown_index(self, wavy_shape):
        with pytest.raises(ValueError):
            geo.velocity_field(wavy_shape, 99, 0.0)

    def test_matches_finite_differences(self, wavy_shape):
        t = np.linspace(0.0, 2 * np.pi, 23)
        p0 = geo.shapes_to_params([wavy_shape])
        h = 1e-6
        for q in range(geo.params_per_shape(wavy_shape.order)):
            pp, pm = p0.copy(), p0.copy()
            pp[q] += h
            pm[q] -= h
            xp = geo.parametrize(geo.params_to_shapes(pp, 2)[0], t)
            xm = geo.parametrize(geo.params_to_shapes(pm, 2)[0], t)
            fd = (xp - xm) / (2.0 * h)
            v = geo.velocity_field(wavy_shape, q, t)
            scale = max(np.abs(fd).max(), 1.0)
            assert np.abs(v - fd).max() / scale < 1e-7


class TestValidateGeometry:
    def test_two_separated_circles_ok(self):
        shapes = [geo.ShapeParams((-3, 1), 0.5), geo.ShapeParams((3, 1), 0.5)]
        assert geo.validate_geometry(shapes, L) == []

    def test_wall_crossing(self):
        out = geo.validate_geometry([geo.ShapeParams((0, 0.3), 0.5)], L)
        assert len(out) == 1 and "wall" in out[0] and "-0.2" in out[0]

    def test_periodic_image_overlap(self):
        out = geo.validate_geometry([geo.ShapeParams((9.8, 1.0), 0.5)], L)
        assert len(out) == 1 and "periodic image" in out[0] and "-10.2" in out[0]

    def test_touching_pair_flagged(self):
        shapes = [geo.ShapeParams((-0.5, 1), 0.5), geo.ShapeParams((0.51, 1), 0.5)]
        out = geo.validate_geometry(shapes, L)
        assert out and "distance" in out[0]

    def test_cross_cell_pair(self):
        # resonators near opposite cell edges collide through the lattice shift
        shapes = [geo.ShapeParams((-9.5, 1), 0.5), geo.ShapeParams((9.6, 1), 0.5)]
        out = geo.validate_geometry(shapes, L)
        assert any("shift" in v for v in out)

    def test_negative_radius(self):
        # perturbation below -1 makes the radius dip negative
        p = geo.ShapeParams((0, 2), 0.5, cos_coeffs=(-2.5,), sin_coeffs=(0.0,))
        out = geo.validate_geometry([p], L)
        assert any("radius" in v for v in out)


class TestParamsRoundTrip:
    def test_round_trip(self, two_res_shapes):
        p = geo.shapes_to_params(two_res_shapes)
        back = geo.params_to_shapes(p, 2)
        assert back == tuple(two_res_shapes)

    def test_param_names(self):
        names = [geo.param_name(2, q) for q in range(geo.params_per_shape(2))]
        assert names == ["center_x", "center_y", "a0", "a1", "a2", "b1", "b2"]


class TestLayoutAndDump:
    def test_grid_layout_counts(self):
        assert len(geo.grid_layout(3, 1)) == 3
        assert len(geo.grid_layout(3, 3)) == 9
        shapes = geo.grid_layout(3, 1, radius=0.5, spacing=2.0)
        assert [s.center[0] for s in shapes] == [-2.0, 0.0, 2.0]
        assert geo.validate_geometry(shapes, L) == []

    def test_dump_and_reload(self, tmp_path, two_res_shapes):
        grid = geo.discretize(two_res_shapes, 32, L)
        path = tmp_path / "geom.csv"
        geo.dump_geometry(grid, path, meta="test")
        lines = path.read_text().splitlines()
        assert lines[1].split(",") == ["resonator_id", "t", "x", "y", "nx", "ny"]
        assert len(lines) == 2 + grid.n_total
        back = geo.load_shape_params(tmp_path / "geom.params.csv")
        assert back == tuple(two_res_shapes)
