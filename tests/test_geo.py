"""Geometry, obstacle, and terrain-grid tests.

Expected values are either exact by construction or frozen from the
independent hand evaluation named next to each assertion.
"""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocksim import (
    DemFormatError,
    DemGrid,
    Obstacle,
    OutOfBoundsError,
    Point3,
    ScenarioError,
    dem_elevation,
    distance3,
    lateral_distance,
    load_dem,
    load_scenario,
    save_dem,
    segment_above_terrain,
    segment_obstructed,
)
from flocksim.geo import (
    _interpolate_many,
    _legs_above_terrain,
    _legs_obstructed,
    _path_length,
    _read_dem,
    _unit_steps,
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

    def test_path_length_adds_legs_left_to_right(self):
        # Legs 1, 1e16 and 1: each 1 added to 1e16 is a tie that rounds back
        # to 1e16, where a compensated sum (math.fsum, Python 3.12's sum)
        # gives 1e16 + 2.
        points = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1e16, 0.0), (1.0, 1e16, 1.0)]
        assert _path_length(points) == 1e16
        assert math.fsum(map(distance3, points, points[1:])) == 1e16 + 2.0
        assert _path_length(points[:1]) == 0.0


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


# Coordinates where the scalar test changes branch around OB_BAND: the
# axis, the wall (18, 24 and 30 lie on it), and the band's base and top.
LATERAL = st.one_of(st.sampled_from((-60.0, -30.0, -24.0, -18.0, 0.0, 18.0, 24.0, 30.0, 60.0)),
                    st.floats(-80.0, 80.0))
HEIGHT = st.one_of(st.sampled_from((-10.0, 0.0, 100.0, 200.0, 250.0)), st.floats(-50.0, 300.0))
POINT = st.tuples(LATERAL, LATERAL, HEIGHT)


@st.composite
def leg_blocks(draw):
    """(a, b): an (m, 3) block of leg starts and one of leg ends, or a single point shared by all legs."""
    legs = draw(st.lists(st.one_of(
        st.tuples(POINT, POINT),
        # level legs: dh == 0
        POINT.flatmap(lambda a: st.tuples(st.just(a), st.tuples(LATERAL, LATERAL, st.just(a[2])))),
        # vertical legs: no lateral length
        POINT.flatmap(lambda a: st.tuples(st.just(a), st.tuples(st.just(a[0]), st.just(a[1]), HEIGHT))),
    ), min_size=1, max_size=30))
    a, b = np.array([leg[0] for leg in legs]), np.array([leg[1] for leg in legs])
    shared = draw(st.sampled_from(("none", "start", "end")))
    if shared == "start":
        a = a[0]
    elif shared == "end":
        b = b[0]
    return a, b


class TestLegsObstructed:
    # The replanner's one-pass screen: the scalar test's decision on every leg.
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(legs=leg_blocks(), now=st.sampled_from((0.0, 1.0)))
    def test_equals_segment_obstructed_leg_by_leg(self, legs, now):
        a, b = legs
        ob = Obstacle(0.0, 0.0, 30.0, 0.0, 200.0, activation_time=0.5)
        a_rows, b_rows = np.broadcast_arrays(a, b)
        want = [segment_obstructed(p, q, ob, now) for p, q in zip(a_rows.tolist(), b_rows.tolist())]
        assert _legs_obstructed(a, b, ob, now).tolist() == want

    def test_branches_reached(self):
        ob = Obstacle(0.0, 0.0, 30.0, 0.0, 200.0)
        a = np.array([
            (-60.0, 30.0, 100.0),  # level, tangent to the wall
            (-60.0, 0.0, 250.0),   # level, above the top
            (0.0, 0.0, 300.0),     # vertical through the cap
            (40.0, 0.0, 300.0),    # vertical beside the wall
            (-60.0, 0.0, 200.0),   # level at the top height
        ])
        b = np.array([(60.0, 30.0, 100.0), (60.0, 0.0, 250.0), (0.0, 0.0, 50.0), (40.0, 0.0, 50.0),
                      (60.0, 0.0, 200.0)])
        assert _legs_obstructed(a, b, ob, 0.0).tolist() == [True, False, True, False, True]


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

    @pytest.mark.parametrize("north, east", [(37.5, 474.99999999999994), (0.0, 512.5), (37.5, 512.5)])
    def test_contains_agrees_with_terrain_queries_at_far_edges(self, north, east):
        # east_max rounds to 512.5, whose fractional column rounds above 1:
        # off the footprint, although north_max and east_max bound it.
        grid = DemGrid(0.0, 474.99999999999994, 37.5, np.zeros((2, 2)))
        assert grid.east_max == 512.5
        inside = grid.contains(north, east)
        assert inside == (east != 512.5)
        if inside:
            assert dem_elevation(grid, north, east) == _interpolate_many(grid, np.array([north]), np.array([east]))[0]
            return
        with pytest.raises(OutOfBoundsError):
            dem_elevation(grid, north, east)
        with pytest.raises(OutOfBoundsError):
            _interpolate_many(grid, np.array([north]), np.array([east]))

    def test_validation(self):
        with pytest.raises(ValueError):
            DemGrid(0.0, 0.0, 10.0, np.zeros((1, 5)))
        with pytest.raises(ValueError):
            DemGrid(0.0, 0.0, 0.0, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="cell_size must be positive and finite"):
            DemGrid(0.0, 0.0, math.inf, np.zeros((3, 3)))
        for origin in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)):
            with pytest.raises(ValueError, match="origin must be finite"):
                DemGrid(*origin, 10.0, np.zeros((3, 3)))
        bad = np.zeros((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            DemGrid(0.0, 0.0, 10.0, bad)


NON_FINITE = (math.nan, math.inf, -math.inf)


class TestNonFiniteTerrainQueries:
    # A NaN or infinite north or east is off the footprint, like any
    # other query outside it.
    GRID = DemGrid(0.0, 0.0, 10.0, np.arange(9.0).reshape(3, 3))

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    @pytest.mark.parametrize("axis", ("north", "east"))
    def test_dem_elevation_raises(self, value, axis):
        query = {"north": 5.0, "east": 5.0, axis: value}
        with pytest.raises(OutOfBoundsError, match=f"{axis}={value}"):
            dem_elevation(self.GRID, query["north"], query["east"])
        with pytest.raises(OutOfBoundsError, match=f"{axis}={value}"):
            _interpolate_many(self.GRID, np.array([5.0, query["north"]]), np.array([5.0, query["east"]]))

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    @pytest.mark.parametrize("axis", (0, 1), ids=("north", "east"))
    @pytest.mark.parametrize("end", ("a", "b"))
    def test_segment_above_terrain_raises(self, value, axis, end):
        bad = [5.0, 5.0, 50.0]
        bad[axis] = value
        a, b = (bad, (15.0, 15.0, 50.0)) if end == "a" else ((15.0, 15.0, 50.0), bad)
        with pytest.raises(OutOfBoundsError, match=f"{('north', 'east')[axis]}={value}"):
            segment_above_terrain(self.GRID, a, b, clearance=1.0, step=5.0)

    def test_non_finite_height_has_no_sample_spacing(self):
        with pytest.raises(ValueError, match="no finite length"):
            segment_above_terrain(self.GRID, (5.0, 5.0, math.nan), (15.0, 15.0, 50.0), clearance=1.0, step=5.0)


@st.composite
def grids(draw):
    rows, cols = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    cell = draw(st.sampled_from((1.0, 10.0, 37.5, 100.0)))
    origin = (draw(st.floats(-500.0, 500.0)), draw(st.floats(-500.0, 500.0)))
    elevation = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-20.0, 120.0, (rows, cols))
    return DemGrid(origin[0], origin[1], cell, elevation)


class TestBatchedTerrainQueries:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(grid=grids(), fractions=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 0.5, 1.0))),
                                            min_size=2, max_size=40))
    def test_scalar_query_equals_array_query(self, grid, fractions):
        # dem_elevation on Python floats against _interpolate_many's arrays,
        # and contains against both, at interior points, nodes and the far
        # edges, which rounding may put just off the footprint for all three.
        def query(fn, north, east):
            try:
                return fn(north, east)
            except OutOfBoundsError as exc:
                return str(exc)

        for f_north, f_east in zip(fractions[::2], fractions[1::2]):
            north = grid.origin_north + f_north * (grid.north_max - grid.origin_north)
            east = grid.origin_east + f_east * (grid.east_max - grid.origin_east)
            got = query(lambda n, e: dem_elevation(grid, n, e), north, east)
            want = query(lambda n, e: float(_interpolate_many(grid, np.array([n]), np.array([e]))[0]), north, east)
            assert got == want
            assert grid.contains(north, east) == isinstance(got, float)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(grid=grids(), seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
           step=st.sampled_from((0.7, 5.0, 25.0)), clearance=st.sampled_from((0.0, 10.0)))
    def test_legs_equal_segment_above_terrain(self, grid, seed, m, step, clearance):
        # Ends spread a little past the footprint, so some legs leave it.
        rng = np.random.default_rng(seed)
        span = np.array([grid.north_max - grid.origin_north, grid.east_max - grid.origin_east])
        lo = np.array([grid.origin_north, grid.origin_east]) - 0.1 * span
        a, b = (np.column_stack((lo + rng.uniform(0.0, 1.2, (m, 2)) * span, rng.uniform(-20.0, 140.0, m)))
                for _ in range(2))
        # A leg off the footprint, where the scalar test raises, is not clear.
        clear = _legs_above_terrain(grid, a, b, clearance, step)
        for i, (p, q) in enumerate(zip(a.tolist(), b.tolist())):
            try:
                want = segment_above_terrain(grid, p, q, clearance, step)
            except OutOfBoundsError:
                want = False
            assert clear[i] == want

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(counts=st.lists(st.integers(2, 3000), min_size=1, max_size=8))
    def test_unit_steps_are_linspace(self, counts):
        counts = np.array(counts)
        ends = np.cumsum(counts)
        want = np.concatenate([np.linspace(0.0, 1.0, n) for n in counts])
        assert _unit_steps(counts, ends - counts, ends).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("line", range(1, 6))
    def test_non_finite_header_value_rejected(self, tmp_path, line, value):
        header = ["nrows 2", "ncols 2", "origin_north_m 0.0", "origin_east_m 0.0", "cell_size_m 10.0"]
        key = header[line - 1].split()[0]
        header[line - 1] = f"{key} {value}"
        path = tmp_path / "bad.dem"
        path.write_text("\n".join(header) + "\n1 2 3 4\n")
        with pytest.raises(DemFormatError, match=f"bad.dem: header line {line}: '{key}' must be finite, got '{value}'"):
            load_dem(path)

    @pytest.mark.parametrize("line, text, message", [
        (3, None, "truncated file, expected header plus elevation rows"),
        (5, "cell_size_m ten", "bad value for header 'cell_size_m': 'ten'"),
        (1, "nrows 2.5", "nrows/ncols must be integers >= 2, got 2.5, 2.0"),
        (2, "ncols 1", "nrows/ncols must be integers >= 2, got 2.0, 1.0"),
        (5, "cell_size_m 0", "cell_size must be positive and finite, got 0.0"),
    ], ids=["truncated", "header_not_a_number", "nrows_not_an_integer", "ncols_below_2", "grid_rejects_cell"])
    def test_malformed_header_names_the_file_in_both_loaders(self, make_scenario_file, line, text, message):
        # Header line ``line`` becomes ``text``, or the file ends after it.
        scenario = make_scenario_file()
        path = scenario.parent / "flat.dem"
        lines = ["nrows 2", "ncols 2", "origin_north_m 0.0", "origin_east_m 0.0", "cell_size_m 10.0", "1 2 3 4"]
        if text is None:
            del lines[line:]
        else:
            lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DemFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_dem(path)
        with pytest.raises(ScenarioError, match=f"^{re.escape(f'scenario.dem_file: {path}: {message}')}$"):
            load_scenario(scenario)

    def test_read_dem_hashes_the_bytes_it_parsed(self, tmp_path):
        path = tmp_path / "t.dem"
        path.write_bytes(b"nrows 2\r\nncols 2\r\norigin_north_m 0.0\r\norigin_east_m 0.0\r\n"
                         b"cell_size_m 10.0\r\n1 2 3 4\r\n")
        copy = tmp_path / "copy.dem"
        copy.write_bytes(path.read_bytes())
        grid, digest = _read_dem(path)
        assert grid.elevation.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        # Identical bytes, at the same path or another, are not parsed again.
        assert _read_dem(path) == (grid, digest)
        assert _read_dem(copy)[0] is grid
        assert load_dem(copy) is grid
        with pytest.raises(ValueError, match="read-only"):
            grid.elevation[0, 0] = 9.0

    def test_dem_rewritten_in_place_is_parsed_again(self, tmp_path):
        path = tmp_path / "t.dem"
        save_dem(DemGrid(0.0, 0.0, 10.0, [[1.0, 2.0], [3.0, 4.0]]), path)
        first = load_dem(path)
        save_dem(DemGrid(0.0, 0.0, 10.0, [[1.0, 2.0], [3.0, 5.0]]), path)
        second, digest = _read_dem(path)
        assert second is not first
        assert second.elevation.tolist() == [[1.0, 2.0], [3.0, 5.0]]
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_malformed_dem_raises_on_every_load_naming_its_own_path(self, tmp_path):
        bad = "nrows 2\nncols 2\norigin_north_m 0.0\norigin_east_m 0.0\ncell_size_m 10.0\n1 2 3\n"
        first, second = tmp_path / "first.dem", tmp_path / "second.dem"
        first.write_text(bad)
        second.write_text(bad)
        for path in (first, second, first):
            with pytest.raises(DemFormatError, match=f"^{re.escape(str(path))}: expected 4 elevation values, found 3$"):
                load_dem(path)
        second.write_text(bad.replace("1 2 3", "1 2 3 4"))
        assert load_dem(second).elevation.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_underscore_token_reads_as_float_reads_it(self, tmp_path):
        path = tmp_path / "t.dem"
        path.write_text(
            "nrows 2\nncols 2\norigin_north_m 0.0\norigin_east_m 0.0\ncell_size_m 10.0\n1_0 2 3 4\n"
        )
        assert load_dem(path).elevation.tolist() == [[10.0, 2.0], [3.0, 4.0]]
