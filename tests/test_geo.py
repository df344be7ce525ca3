"""Geometry, obstacle, and terrain-grid tests.

Expected values are either exact by construction or frozen from the
independent hand evaluation named next to each assertion.
"""

import json
import math

import numpy as np
import pytest

from flocksim import (
    DemFormatError,
    DemGrid,
    Obstacle,
    OutOfBoundsError,
    Point3,
    dem_elevation,
    distance3,
    lateral_distance,
    load_dem,
    save_dem,
    segment_above_terrain,
    segment_obstructed,
)


class TestDistances:
    def test_lateral_345_triangle_ignores_height(self):
        assert lateral_distance(Point3(0, 0, 0), Point3(3, 4, 100)) == 5.0

    def test_lateral_identity(self):
        p = Point3(7.0, -2.0, 13.0)
        assert lateral_distance(p, p) == 0.0

    def test_lateral_pure_vertical(self):
        assert lateral_distance(Point3(1, 1, 0), Point3(1, 1, 50)) == 0.0

    def test_distance3_pure_vertical(self):
        assert distance3(Point3(0, 0, 0), Point3(0, 0, 7)) == 7.0

    def test_distance3_122_triple(self):
        assert distance3(Point3(1, 2, 2), Point3(0, 0, 0)) == 3.0

    def test_distance3_identity(self):
        p = Point3(-4.0, 9.0, 2.5)
        assert distance3(p, p) == 0.0


class TestPoint3IsATriple:
    # The loader builds a path's (m, 3) array from its Point3 rows and the
    # export writes a replan's Point3s through json.dumps, both unconverted.
    def test_numpy_reads_points_as_float_rows(self):
        rows = np.array([Point3(1.0, 2.0, 3.0), Point3(-4.5, 0.0, 1e3)])
        assert rows.dtype == np.float64
        assert rows.tolist() == [[1.0, 2.0, 3.0], [-4.5, 0.0, 1000.0]]

    def test_json_writes_a_point_as_a_list(self):
        assert json.dumps(Point3(1.0, 2.0, 3.0)) == "[1.0, 2.0, 3.0]"
        assert json.loads(json.dumps((Point3(0.5, -1.0, math.inf),))) == [[0.5, -1.0, math.inf]]

    def test_repr_names_the_fields(self):
        # loader error messages embed it
        assert repr(Point3(1.0, -2.5, 30.0)) == "Point3(north=1.0, east=-2.5, height=30.0)"

    def test_immutable_and_hashed_as_its_triple(self):
        p = Point3(1.0, 2.0, 3.0)
        with pytest.raises(AttributeError):
            p.north = 0.0
        assert p == (1.0, 2.0, 3.0) and hash(p) == hash((1.0, 2.0, 3.0))

    @pytest.mark.parametrize(
        "a, b",
        [((-60.0, 0.0, 100.0), (60.0, 0.0, 100.0)), ((-100.0, 60.0, 100.0), (100.0, 60.0, 100.0)),
         ((0.0, 0.0, 300.0), (0.0, 0.0, 50.0)), ((-50.0, 30.0, 100.0), (50.0, 30.0, 100.0))],
    )
    def test_geo_reads_a_point_as_its_plain_tuple(self, a, b):
        ob = Obstacle(0.0, 0.0, 30.0, 0.0, 200.0)
        pa, pb = Point3(*a), Point3(*b)
        assert segment_obstructed(pa, pb, ob, now=0.0) == segment_obstructed(a, b, ob, now=0.0)
        assert distance3(pa, pb) == distance3(a, b)
        assert lateral_distance(pa, pb) == lateral_distance(a, b)


class TestObstacle:
    def test_validation(self):
        with pytest.raises(ValueError):
            Obstacle(0, 0, lateral_radius=0.0, base_height=0, top_height=10)
        with pytest.raises(ValueError):
            Obstacle(0, 0, lateral_radius=5.0, base_height=10, top_height=10)

    def test_activation_boundary(self):
        ob = Obstacle(0, 0, 10.0, 0.0, 100.0, activation_time=75.0)
        assert not ob.is_active(74.999)
        assert ob.is_active(75.0)
        assert ob.is_active(100.0)


class TestSegmentObstructed:
    OB = Obstacle(0.0, 0.0, 30.0, 0.0, 200.0)

    def test_clear_by_lateral_margin(self):
        # Parallel segment two radii away from the axis.
        a = Point3(-100.0, 60.0, 100.0)
        b = Point3(100.0, 60.0, 100.0)
        assert segment_obstructed(a, b, self.OB, now=0.0) is False

    def test_diametral_crossing(self):
        a = Point3(-60.0, 0.0, 100.0)
        b = Point3(60.0, 0.0, 100.0)
        assert segment_obstructed(a, b, self.OB, now=0.0) is True

    def test_tangent_counts_as_obstructed(self):
        # Closest approach is exactly lateral_radius; boundary is inclusive.
        a = Point3(-50.0, 30.0, 100.0)
        b = Point3(50.0, 30.0, 100.0)
        assert segment_obstructed(a, b, self.OB, now=0.0) is True

    def test_inactive_obstacle_never_obstructs(self):
        ob = Obstacle(0.0, 0.0, 30.0, 0.0, 200.0, activation_time=75.0)
        a = Point3(-60.0, 0.0, 100.0)
        b = Point3(60.0, 0.0, 100.0)
        assert segment_obstructed(a, b, ob, now=74.0) is False
        assert segment_obstructed(a, b, ob, now=75.0) is True

    def test_above_the_top_is_clear(self):
        a = Point3(-60.0, 0.0, 250.0)
        b = Point3(60.0, 0.0, 250.0)
        assert segment_obstructed(a, b, self.OB, now=0.0) is False

    def test_descending_through_the_cap(self):
        # Crosses into the height band directly over the disc.
        a = Point3(0.0, 0.0, 300.0)
        b = Point3(0.0, 0.0, 50.0)
        assert segment_obstructed(a, b, self.OB, now=0.0) is True

    def test_vertical_band_boundary_inclusive(self):
        a = Point3(-60.0, 0.0, 200.0)
        b = Point3(60.0, 0.0, 200.0)
        assert segment_obstructed(a, b, self.OB, now=0.0) is True


class TestDemGrid:
    def make_grid(self) -> DemGrid:
        # 3x3 nodes, cell 10 m, origin (0, 0).
        z = np.array([[120.0, 4.0, 7.0], [8.0, 12.0, 3.0], [5.0, 9.0, 11.0]])
        return DemGrid(origin_north=0.0, origin_east=0.0, cell_size=10.0, elevation=z)

    def test_node_identity(self):
        grid = self.make_grid()
        assert dem_elevation(grid, 0.0, 0.0) == 120.0
        assert dem_elevation(grid, 20.0, 20.0) == 11.0

    def test_edge_midpoint_symmetry(self):
        # Corners 0, 0 (north edge) and 10, 10: midpoint of the cell = 5.
        z = np.array([[0.0, 0.0], [10.0, 10.0]])
        grid = DemGrid(0.0, 0.0, 10.0, z)
        assert dem_elevation(grid, 5.0, 5.0) == 5.0

    def test_fractional_bilinear_hand_value(self):
        # Corners z00=0, z01=4, z10=8, z11=12 at offsets (0.25, 0.75).
        # Oracle: interpolate each axis separately by hand:
        #   north low edge: 0 + 0.25*(8-0) = 2; high edge: 4 + 0.25*(12-4) = 6
        #   east blend: 2 + 0.75*(6-2) = 5.0
        z = np.array([[0.0, 4.0], [8.0, 12.0]])
        grid = DemGrid(0.0, 0.0, 10.0, z)
        assert dem_elevation(grid, 2.5, 7.5) == pytest.approx(5.0, rel=1e-9)

    def test_out_of_bounds_raises(self):
        grid = self.make_grid()
        with pytest.raises(OutOfBoundsError):
            dem_elevation(grid, -0.001, 0.0)
        with pytest.raises(OutOfBoundsError):
            dem_elevation(grid, 0.0, 20.001)

    def test_contains(self):
        grid = self.make_grid()
        assert grid.contains(0.0, 0.0)
        assert grid.contains(20.0, 20.0)
        assert not grid.contains(20.1, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DemGrid(0.0, 0.0, 10.0, np.zeros((1, 5)))
        with pytest.raises(ValueError):
            DemGrid(0.0, 0.0, 0.0, np.zeros((3, 3)))
        bad = np.zeros((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            DemGrid(0.0, 0.0, 10.0, bad)


class TestSegmentAboveTerrain:
    def test_flat_dem_high_segment(self, flat_dem):
        a = Point3(-500.0, 0.0, 100.0)
        b = Point3(500.0, 0.0, 100.0)
        assert segment_above_terrain(flat_dem, a, b, clearance=10.0, step=25.0) is True

    def test_flat_dem_dipping_segment(self, flat_dem):
        a = Point3(-500.0, 0.0, 100.0)
        b = Point3(500.0, 0.0, 5.0)
        assert segment_above_terrain(flat_dem, a, b, clearance=10.0, step=25.0) is False

    def test_ridge_matches_finer_sampling(self):
        # Single sharp ridge between the endpoints; oracle = 10x denser
        # sampling of the same predicate.
        axis = np.arange(9) * 50.0
        nn, _ = np.meshgrid(axis, axis, indexing="ij")
        z = 80.0 * np.exp(-((nn - 200.0) ** 2) / (2 * 30.0**2))
        grid = DemGrid(0.0, 0.0, 50.0, z)
        a = Point3(0.0, 200.0, 95.0)
        b = Point3(400.0, 200.0, 95.0)

        def oracle(step: float) -> bool:
            n = max(2, int(math.ceil(distance3(a, b) / step)) + 1)
            ts = np.linspace(0.0, 1.0, n)
            for t in ts:
                p_n = a.north + t * (b.north - a.north)
                p_e = a.east + t * (b.east - a.east)
                p_h = a.height + t * (b.height - a.height)
                if p_h < dem_elevation(grid, p_n, p_e) + 10.0:
                    return False
            return True

        got = segment_above_terrain(grid, a, b, clearance=10.0, step=25.0)
        assert got == oracle(2.5)

    def test_out_of_bounds_sample_raises(self, flat_dem):
        a = Point3(0.0, 0.0, 100.0)
        b = Point3(5000.0, 0.0, 100.0)
        with pytest.raises(OutOfBoundsError):
            segment_above_terrain(flat_dem, a, b, clearance=10.0, step=25.0)


class TestDemIo:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = DemGrid(-120.5, 33.25, 12.5, rng.uniform(0.0, 500.0, size=(6, 4)))
        path = tmp_path / "t.dem"
        save_dem(grid, path)
        back = load_dem(path)
        assert back.origin_north == grid.origin_north
        assert back.origin_east == grid.origin_east
        assert back.cell_size == grid.cell_size
        assert np.array_equal(back.elevation, grid.elevation)

    def test_wrong_value_count_rejected(self, tmp_path):
        path = tmp_path / "bad.dem"
        path.write_text(
            "nrows 2\nncols 2\norigin_north_m 0.0\norigin_east_m 0.0\ncell_size_m 10.0\n1 2 3\n"
        )
        with pytest.raises(DemFormatError):
            load_dem(path)

    def test_wrong_header_order_rejected(self, tmp_path):
        path = tmp_path / "bad.dem"
        path.write_text(
            "ncols 2\nnrows 2\norigin_north_m 0.0\norigin_east_m 0.0\ncell_size_m 10.0\n1 2 3 4\n"
        )
        with pytest.raises(DemFormatError):
            load_dem(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "bad.dem"
        path.write_text(
            "nrows 2\nncols 2\norigin_north_m 0.0\norigin_east_m 0.0\ncell_size_m 10.0\n1 2 nan 4\n"
        )
        with pytest.raises(DemFormatError, match="elevation token 2 is not finite: 'nan'"):
            load_dem(path)

    def test_non_number_value_rejected(self, tmp_path):
        path = tmp_path / "bad.dem"
        path.write_text(
            "nrows 2\nncols 2\norigin_north_m 0.0\norigin_east_m 0.0\ncell_size_m 10.0\n1 2 3 4x\n"
        )
        with pytest.raises(DemFormatError, match="elevation token 3 is not a number: '4x'"):
            load_dem(path)

    def test_first_bad_token_in_file_order_names_the_error(self, tmp_path):
        path = tmp_path / "bad.dem"
        path.write_text(
            "nrows 2\nncols 2\norigin_north_m 0.0\norigin_east_m 0.0\ncell_size_m 10.0\n1 -inf\nx 4\n"
        )
        with pytest.raises(DemFormatError, match="elevation token 1 is not finite: '-inf'"):
            load_dem(path)

    def test_underscore_token_reads_as_float_reads_it(self, tmp_path):
        path = tmp_path / "t.dem"
        path.write_text(
            "nrows 2\nncols 2\norigin_north_m 0.0\norigin_east_m 0.0\ncell_size_m 10.0\n1_0 2 3 4\n"
        )
        assert load_dem(path).elevation.tolist() == [[10.0, 2.0], [3.0, 4.0]]
