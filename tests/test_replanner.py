"""Detour sampling, transit cost, and replan-loop postcondition tests.

The statistical checks run at the 1% level with fixed seeds; the
chi-squared critical value for 7 degrees of freedom is 18.4753.
"""

import contextlib
import dataclasses
import logging
import math
import re
from fractions import Fraction

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    best_detour_oracle,
    grid_cost_oracle,
    reference_angles_oracle,
    region_contains,
    two_leg_cost,
    two_leg_turns,
)

from flocksim import (
    DemGrid,
    Obstacle,
    OutOfBoundsError,
    Point3,
    ReplanError,
    ReplanParams,
    UavState,
    best_detour,
    candidate_cost,
    dem_elevation,
    distance3,
    look_ahead_angles,
    replan,
    sample_region,
    segment_above_terrain,
    segment_obstructed,
    wrap_angle,
)
from flocksim import replanner
from flocksim.replanner import _norms

CHI2_7DOF_1PCT = 18.4753

# The candidate region of make_uav() around RING over flat terrain:
# ring 100..200 m around (400, 0), heights 0..150 m, cone pi/3 about north.
RING = Obstacle(400.0, 0.0, 100.0, 0.0, 200.0)


def make_uav(north=0.0, east=0.0, height=100.0, chi=0.0, gamma=0.0, v_g=13.5):
    return UavState(
        position=Point3(north, east, height),
        chi=chi,
        gamma=gamma,
        psi=chi,
        v_g=v_g,
    )


def region_params(k_samples=10_000, delta_angle=math.pi / 3):
    return ReplanParams(k_samples=k_samples, delta_r=100.0, delta_h=150.0, delta_angle=delta_angle)


def cost_of(uav, candidate, target):
    """candidate_cost of one point."""
    return candidate_cost(uav, np.array([candidate]), target)[0]


class TestRegionContains:
    # region_contains is the oracle that sampled and chosen points are
    # checked against; these pin its boundaries by hand.
    @staticmethod
    def contains(grid, p):
        return region_contains(make_uav(), RING, grid, region_params(), p)

    def test_interior_point_by_construction(self, flat_dem):
        # along the velocity axis, mid-ring, mid-band
        assert self.contains(flat_dem, Point3(250.0, 0.0, 75.0))

    def test_point_behind_vehicle(self, flat_dem):
        assert not self.contains(flat_dem, Point3(-250.0, 0.0, 75.0))

    def test_point_inside_inner_ring(self, flat_dem):
        assert not self.contains(flat_dem, Point3(301.0, 0.0, 75.0))

    def test_ring_boundaries_inclusive(self, flat_dem):
        assert self.contains(flat_dem, Point3(300.0, 0.0, 75.0))
        assert self.contains(flat_dem, Point3(200.0, 0.0, 75.0))

    def test_height_band(self, flat_dem):
        assert not self.contains(flat_dem, Point3(250.0, 0.0, 160.0))
        assert not self.contains(flat_dem, Point3(250.0, 0.0, -5.0))
        assert self.contains(flat_dem, Point3(250.0, 0.0, 0.0))
        assert self.contains(flat_dem, Point3(250.0, 0.0, 150.0))

    def test_vehicle_position_itself_excluded(self, flat_dem):
        assert not self.contains(flat_dem, Point3(0.0, 0.0, 100.0))


class TestSampleRegion:
    def test_all_samples_satisfy_membership(self, flat_dem):
        uav, params = make_uav(), region_params()
        pts = sample_region(uav, RING, flat_dem, params, np.random.default_rng(2))
        assert pts.shape[0] > 0
        for row in pts[:: max(1, pts.shape[0] // 500)]:
            assert region_contains(uav, RING, flat_dem, params, Point3(*row))

    def test_angular_uniformity_chi_squared(self, flat_dem):
        # full cone so nothing is rejected; angles around the center must be
        # uniform over the circle
        params = region_params(delta_angle=math.pi)
        pts = sample_region(make_uav(), RING, flat_dem, params, np.random.default_rng(3))
        assert pts.shape[0] == 10_000
        angles = np.arctan2(pts[:, 1] - RING.center_east, pts[:, 0] - RING.center_north)
        counts, _ = np.histogram(angles, bins=8, range=(-math.pi, math.pi))
        expected = pts.shape[0] / 8.0
        chi2 = float(np.sum((counts - expected) ** 2) / expected)
        assert chi2 < CHI2_7DOF_1PCT

    def test_radial_density_is_area_correct(self, flat_dem):
        # edges chosen so each shell has equal area; counts must be uniform
        params = region_params(delta_angle=math.pi)
        pts = sample_region(make_uav(), RING, flat_dem, params, np.random.default_rng(4))
        lateral = np.hypot(pts[:, 0] - RING.center_north, pts[:, 1] - RING.center_east)
        r_in2 = RING.lateral_radius**2
        r_out2 = (RING.lateral_radius + params.delta_r) ** 2
        edges = np.sqrt(r_in2 + np.linspace(0.0, 1.0, 9) * (r_out2 - r_in2))
        counts, _ = np.histogram(lateral, bins=edges)
        expected = pts.shape[0] / 8.0
        chi2 = float(np.sum((counts - expected) ** 2) / expected)
        assert chi2 < CHI2_7DOF_1PCT

    def test_cone_rejection_discards_backward_points(self, flat_dem):
        params = region_params(k_samples=2000, delta_angle=0.01)
        pts = sample_region(make_uav(chi=math.pi), RING, flat_dem, params, np.random.default_rng(5))
        assert pts.shape[0] == 0

    def test_height_band_anchored_at_vehicle_cell(self):
        # terrain rises 10 m per km northward: 20 m under the vehicle, about
        # 23-26 m under the ring.  The band starts at the vehicle's 20 m, so
        # some draws sit below the terrain under their own position.
        sloped = DemGrid(-2000.0, -2000.0, 1000.0, np.repeat(10.0 * np.arange(5.0)[:, None], 5, axis=1))
        uav, params = make_uav(), region_params()
        floor = dem_elevation(sloped, 0.0, 0.0)
        assert floor == 20.0
        pts = sample_region(uav, RING, sloped, params, np.random.default_rng(6))
        assert np.all((pts[:, 2] >= floor) & (pts[:, 2] <= floor + params.delta_h))
        under = np.array([dem_elevation(sloped, n, e) for n, e in pts[:, :2].tolist()])
        assert np.all(under > floor)
        assert np.any(pts[:, 2] < under)

    @pytest.mark.parametrize("north, east", [(2000.5, 0.0), (0.0, -2001.0), (math.nan, 0.0)])
    def test_vehicle_off_the_terrain_raises_replan_error(self, flat_dem, north, east):
        # The footprint spans +-2000 m: off it there is no floor for the height band.
        message = f"vehicle at (north={north}, east={east}) is off the terrain footprint"
        with pytest.raises(ReplanError, match=f"^{re.escape(message)}$"):
            sample_region(make_uav(north, east), RING, flat_dem, region_params(), np.random.default_rng(0))
        # A vehicle on the footprint's corner still draws.
        assert sample_region(make_uav(-2000.0, -2000.0), RING, flat_dem, region_params(), np.random.default_rng(0)).size

    @pytest.mark.parametrize("chi, gamma", [(1.0, -0.7), (-2.9, 0.5)])
    @pytest.mark.parametrize("t", [1.0, 64.0, 1024.0])
    def test_full_cone_keeps_a_draw_straight_behind(self, flat_dem, chi, gamma, t):
        # Every draw lands on (0, 0, 0), and the vehicle sits t velocity
        # units ahead of it, so each offset is exactly -t times the rounded
        # unit velocity.  That vector is longer than 1, so its dot product
        # with the offset falls below -|offset|: a cone test at
        # cos(pi) = -1 would drop the draw.
        velocity = make_uav(chi=chi, gamma=gamma).velocity_unit().tolist()
        assert sum(Fraction(c) ** 2 for c in velocity) > 1
        uav = make_uav(*(t * c for c in velocity), chi=chi, gamma=gamma)
        params = region_params(k_samples=50, delta_angle=math.pi)
        pts = sample_region(uav, Obstacle(-100.0, 0.0, 100.0, 0.0, 200.0), flat_dem, params, _LowestDraws())
        assert pts.tolist() == [[0.0, 0.0, 0.0]] * 50

    @pytest.mark.parametrize("delta_angle", [0.5, math.pi / 3, math.pi])
    def test_draw_on_the_vehicle_is_dropped(self, flat_dem, delta_angle):
        params = region_params(k_samples=50, delta_angle=delta_angle)
        obstacle = Obstacle(-100.0, 0.0, 100.0, 0.0, 200.0)
        pts = sample_region(make_uav(height=0.0), obstacle, flat_dem, params, _LowestDraws())
        assert pts.shape == (0, 3)

    @pytest.mark.parametrize("delta_angle", [0.3, math.pi / 3, math.pi / 2, 2.5])
    @pytest.mark.parametrize("chi, gamma", [(0.0, 0.0), (0.8, 0.2), (-2.0, -0.3)])
    def test_cone_keeps_exactly_the_draws_in_the_region(self, flat_dem, delta_angle, chi, gamma):
        # From the ring's centre the draws lie all around the vehicle.  The
        # full cone keeps all 2000; a narrower one must keep, in order,
        # exactly those that region_contains admits.
        uav = make_uav(north=RING.center_north, height=75.0, chi=chi, gamma=gamma)
        draws = sample_region(uav, RING, flat_dem, region_params(2000, math.pi), np.random.default_rng(7))
        assert draws.shape == (2000, 3)
        params = region_params(2000, delta_angle)
        kept = sample_region(uav, RING, flat_dem, params, np.random.default_rng(7))
        inside = [row for row in draws.tolist() if region_contains(uav, RING, flat_dem, params, Point3(*row))]
        assert 0 < len(inside) < 2000
        assert kept.tolist() == inside


class _LowestDraws:
    """An rng stand-in whose every draw is the low end of its range."""

    @staticmethod
    def uniform(low, high, size):
        return np.full(size, float(low))


class TestRowNorms:
    # sample_region and candidate_cost take offset lengths from three rows
    # at once; they must be np.linalg.norm's bits.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 2000), scale=st.sampled_from((1e-3, 1.0, 300.0, 1e4)))
    def test_equal_linalg_norm(self, seed, k, scale):
        block = np.random.default_rng(seed).normal(0.0, scale, (k, 3))
        x, y, z = (block[:, i].copy() for i in range(3))
        assert _norms(x, y, z).tobytes() == np.linalg.norm(block, axis=1).tobytes()


class TestTransitAngles:
    def test_leg1_straight_ahead(self):
        uav = make_uav(chi=0.0)
        chi_c, gamma_c = reference_angles_oracle(uav.position, Point3(300.0, 0.0, 100.0))
        eta_lat, eta_lon = look_ahead_angles(uav.chi, uav.gamma, chi_c, gamma_c)
        assert eta_lat == pytest.approx(0.0, abs=1e-15)
        assert eta_lon == pytest.approx(0.0, abs=1e-15)

    def test_leg1_right_angle(self):
        uav = make_uav(chi=0.0)
        chi_c, gamma_c = reference_angles_oracle(uav.position, Point3(0.0, 300.0, 100.0))
        eta_lat, _ = look_ahead_angles(uav.chi, uav.gamma, chi_c, gamma_c)
        assert eta_lat == pytest.approx(math.pi / 2, abs=1e-15)

    def test_leg1_matches_reference_angles(self):
        uav = make_uav(chi=0.4, gamma=0.1)
        candidate = Point3(210.0, -140.0, 160.0)
        chi_c, gamma_c = reference_angles_oracle(uav.position, candidate)
        eta_lat, eta_lon = look_ahead_angles(uav.chi, uav.gamma, chi_c, gamma_c)
        assert eta_lat == pytest.approx(wrap_angle(chi_c - 0.4), abs=1e-12)
        assert eta_lon == pytest.approx(gamma_c - 0.1, abs=1e-12)

    # The leg-2 turn enters candidate_cost only: with leg 1 straight along
    # the vehicle's heading, the cost is d1 + d2 / (cos eta2_lon cos eta2_lat).
    def test_leg2_collinear_is_zero(self):
        uav = make_uav(chi=0.3, gamma=0.1)
        heading = uav.velocity_unit()
        candidate = Point3(*np.add(uav.position, 300.0 * heading))
        target = Point3(*np.add(uav.position, 700.0 * heading))
        assert cost_of(uav, candidate, target) == pytest.approx(700.0, abs=1e-9)

    def test_leg2_right_angle_dogleg(self):
        uav = make_uav()
        candidate = Point3(300.0, 0.0, 100.0)
        assert cost_of(uav, candidate, Point3(300.0, 400.0, 100.0)) == math.inf
        bend = math.radians(89.0)
        target = Point3(300.0 + 400.0 * math.cos(bend), 400.0 * math.sin(bend), 100.0)
        assert cost_of(uav, candidate, target) == pytest.approx(300.0 + 400.0 / math.cos(bend), rel=1e-9)

    def test_leg2_is_difference_of_bearings(self):
        uav = make_uav(chi=0.9)
        candidate = Point3(150.0 * math.cos(0.9), 150.0 * math.sin(0.9), 100.0)
        target = Point3(500.0, -60.0, 90.0)
        first = reference_angles_oracle(uav.position, candidate)
        second = reference_angles_oracle(candidate, target)
        eta_lat, eta_lon = wrap_angle(second[0] - first[0]), second[1] - first[1]
        expected = 150.0 + distance3(candidate, target) / (math.cos(eta_lon) * math.cos(eta_lat))
        assert cost_of(uav, candidate, target) == pytest.approx(expected, rel=1e-12)


_NEAR_PI = (math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0), math.pi - 1e-9)


@st.composite
def cost_problems(draw):
    """A vehicle, a target and candidate rows whose legs are level, climbing or vertical.

    The vehicle sits at (0, 0, 100) with its course at or near +-pi or
    anywhere, and its climb near +-1.5 rad or anywhere between.  The
    target lies within 1 rad of its course, and each row within 2.5 rad,
    at a lateral distance of at least 1 m, so no square of an offset
    underflows.  A row may instead sit at the vehicle's or the target's
    lateral position (a vertical first or second leg), and at the
    vehicle's or the target's height (a level first or second leg).
    """
    chi = draw(st.one_of(st.sampled_from(_NEAR_PI), st.floats(-math.pi, math.pi)))
    gamma = draw(st.one_of(st.sampled_from((1.5, -1.5, 1.4999, -1.4999)), st.floats(-1.5, 1.5)))

    def lateral(max_bearing, min_distance):
        bearing = chi + draw(st.floats(-max_bearing, max_bearing))
        distance = draw(st.floats(min_distance, 1000.0))
        return distance * math.cos(bearing), distance * math.sin(bearing)

    target = Point3(*lateral(1.0, 200.0), draw(st.floats(0.0, 300.0)))
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(("free",) * 4 + ("vertical 1", "vertical 2")))
        if kind == "free":
            north, east = lateral(2.5, 1.0)
        else:
            north, east = (0.0, 0.0) if kind == "vertical 1" else target[:2]
        height = draw(st.one_of(st.floats(0.0, 300.0), st.sampled_from((100.0, target.height))))
        rows.append((north, east, height))
    return make_uav(chi=chi, gamma=gamma), target, rows


class TestCandidateCost:
    def test_collinear_sum_of_lengths(self):
        uav = make_uav()
        cost = cost_of(uav, Point3(300.0, 0.0, 100.0), Point3(700.0, 0.0, 100.0))
        assert cost == 700.0

    def test_right_angle_dogleg_is_infeasible(self):
        uav = make_uav()
        cost = cost_of(uav, Point3(300.0, 0.0, 100.0), Point3(300.0, 400.0, 100.0))
        assert cost == math.inf

    def test_hand_evaluated_two_leg_chain(self):
        # leg1: 100 m requiring a 0.3 rad lateral turn; leg2: 200 m bending a
        # further (0.2, 0.1).  Cost = 100/cos 0.3 + 200/(cos 0.2 cos 0.1),
        # which is 309.7674 m.
        uav = make_uav(chi=0.0, gamma=0.0)
        candidate = Point3(100.0 * math.cos(0.3), 100.0 * math.sin(0.3), 100.0)
        target = Point3(
            candidate.north + 200.0 * math.cos(0.1) * math.cos(0.5),
            candidate.east + 200.0 * math.cos(0.1) * math.sin(0.5),
            candidate.height + 200.0 * math.sin(0.1),
        )
        cost = cost_of(uav, candidate, target)
        expected = 100.0 / math.cos(0.3) + 200.0 / (math.cos(0.2) * math.cos(0.1))
        assert cost == pytest.approx(expected, abs=1e-9)
        assert cost == pytest.approx(309.7674, abs=1e-3)

    def test_cost_dominates_path_length(self):
        rng = np.random.default_rng(8)
        uav = make_uav()
        target = Point3(800.0, 50.0, 120.0)
        pts = rng.uniform((50.0, -300.0, 60.0), (700.0, 300.0, 160.0), (200, 3))
        costs = candidate_cost(uav, pts, target)
        finite = np.isfinite(costs)
        low = np.linalg.norm(pts - uav.position, axis=1) + np.linalg.norm(target - pts, axis=1)
        assert np.all(costs[finite] >= low[finite] - 1e-9)
        assert np.count_nonzero(finite) > 50

    def test_matches_scalar_oracle(self):
        # every row's cost is the independently written scalar cost, inf
        # exactly where the oracle's is
        rng = np.random.default_rng(9)
        uav = make_uav(chi=0.4, gamma=-0.05)
        target = Point3(600.0, 250.0, 140.0)
        pts = rng.uniform((-400.0, -400.0, 40.0), (800.0, 800.0, 200.0), (500, 3))
        costs = candidate_cost(uav, pts, target)
        want = [two_leg_cost(uav, Point3(*row), target) for row in pts.tolist()]
        assert np.isinf(costs).tolist() == [math.isinf(c) for c in want]
        assert 100 < np.count_nonzero(np.isfinite(costs)) < 500
        for got, expected in zip(costs.tolist(), want):
            assert got == pytest.approx(expected, rel=1e-12)

    def test_candidate_on_vehicle_or_target_is_infeasible(self):
        uav = make_uav()
        target = Point3(700.0, 0.0, 100.0)
        pts = np.array([uav.position, target, (300.0, 0.0, 100.0)])
        assert candidate_cost(uav, pts, target).tolist() == [math.inf, math.inf, 700.0]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(problem=cost_problems())
    def test_matches_oracle_at_every_attitude(self, problem):
        uav, target, rows = problem
        costs = candidate_cost(uav, np.array(rows), target).tolist()
        for row, got in zip(rows, costs):
            point = Point3(*row)
            if (point.north, point.east) in ((uav.position.north, uav.position.east), (target.north, target.east)):
                assert got == math.inf, "a vertical leg has no course"
                continue
            # Each formula's turn cosine is off by about 1e-15, a relative
            # error of 1e-15 / margin in it and in the cost, where the
            # margin is the turn's distance from pi/2.  The two round
            # apart past rel=1e-12 only below a margin of 1e-3 rad
            # (measured on 600,000 random rows: at most 5e-13 for margins
            # of 1e-3 to 1e-2 rad, 5e-12 for 1e-4 to 1e-3).
            if min(abs(abs(eta) - math.pi / 2) for eta in two_leg_turns(uav, point, target)) < 1e-3:
                continue
            want = two_leg_cost(uav, point, target)
            if math.isinf(want):
                assert got == math.inf
            else:
                assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("gamma, climb", [(1.5, 300.0), (-1.5, -80.0)])
    def test_vertical_leg_is_infeasible(self, gamma, climb):
        # Climbing at 1.5 rad, a vertical first leg is a turn of 0.07 rad
        # by its bearing (atan2(0, 0) = 0), but it has no course to turn to.
        uav = make_uav(gamma=gamma)
        candidate = Point3(0.0, 0.0, 100.0 + climb)
        target = Point3(100.0, 0.0, candidate.height + math.copysign(300.0, climb))
        assert math.isfinite(two_leg_cost(uav, candidate, target))
        assert cost_of(uav, candidate, target) == math.inf
        assert cost_of(make_uav(), Point3(300.0, 0.0, 100.0), Point3(300.0, 0.0, 100.0 + climb)) == math.inf

    @pytest.mark.parametrize("uav, candidate, target", [
        (make_uav(gamma=1.5), Point3(1e-170, 0.0, 400.0), Point3(100.0, 0.0, 700.0)),
        (make_uav(north=-100.0), Point3(-1e-170, 0.0, 150.0), Point3(0.0, 0.0, 400.0)),
    ])
    def test_lateral_length_that_underflows_is_infeasible(self, uav, candidate, target):
        # 1e-170 squared is 0: the leg's lateral length reads 0, its
        # cosines divide by it, and the leg must not then cost nothing.
        assert cost_of(uav, candidate, target) == math.inf


class TestBestDetour:
    def test_skips_cheaper_candidates_with_obstructed_leg(self, flat_dem):
        # near-axial candidates behind the disc are the cost minimizers but
        # their straight inbound leg crosses the obstacle; the winner must
        # have a clear leg while at least one cheaper draw did not
        uav = make_uav(height=50.0)
        target = Point3(900.0, 0.0, 50.0)
        obstacle = Obstacle(450.0, 0.0, 80.0, 0.0, 200.0)
        params = ReplanParams(k_samples=2000, delta_r=250.0, delta_h=100.0, delta_angle=math.pi / 2,
                              clearance=10.0, terrain_step=25.0)
        point, cost = best_detour(uav, target, np.random.default_rng(12345), flat_dem, obstacle, 0.0, params)
        assert not segment_obstructed(uav.position, point, obstacle, 0.0)
        assert region_contains(uav, obstacle, flat_dem, params, point)
        assert cost == pytest.approx(two_leg_cost(uav, point, target), rel=1e-12)

        # replay the identical draw stream and locate the raw cost minimizer
        pts = sample_region(uav, obstacle, flat_dem, params, np.random.default_rng(12345))
        costs = candidate_cost(uav, pts, target)
        cheapest = Point3(*pts[int(np.argmin(costs))])
        assert float(np.min(costs)) < cost
        assert segment_obstructed(uav.position, cheapest, obstacle, 0.0)
        # the reported cost is the one the candidate was ranked by
        assert cost in costs.tolist()

    def test_no_feasible_samples_raises(self, flat_dem):
        # heading south with a narrow cone: every draw around the obstacle
        # to the north is behind the vehicle
        uav = make_uav(height=50.0, chi=math.pi)
        target = Point3(900.0, 0.0, 50.0)
        obstacle = Obstacle(450.0, 0.0, 80.0, 0.0, 200.0)
        with pytest.raises(ReplanError, match="no feasible samples"):
            best_detour(
                uav, target, np.random.default_rng(9), flat_dem, obstacle, 0.0,
                ReplanParams(k_samples=500, delta_angle=0.01),
            )


@contextlib.contextmanager
def replanner_log():
    """The messages that flocksim.replanner logs at INFO inside the block."""
    records: list[str] = []
    handler = logging.Handler(logging.INFO)
    handler.emit = lambda record: records.append(record.getMessage())
    logger = logging.getLogger("flocksim.replanner")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def detour_outcome(uav, target, seed, grid, obstacle, now, params):
    """best_detour's answer, or the error it raised, with what it logged."""
    with replanner_log() as records:
        try:
            point, cost = best_detour(uav, target, np.random.default_rng(seed), grid, obstacle, now, params)
            answer = (tuple(point), cost)
        except (ReplanError, OutOfBoundsError) as exc:
            answer = (type(exc), str(exc))
    return answer, records


def oracle_outcome(uav, target, seed, grid, obstacle, now, params):
    """best_detour_oracle's answer in detour_outcome's form, with the log line best_detour owes."""
    try:
        point, cost, obstructed, terrain = best_detour_oracle(
            uav, target, np.random.default_rng(seed), grid, obstacle, now, params
        )
    except (ReplanError, OutOfBoundsError) as exc:
        return (type(exc), str(exc)), []
    records = []
    if obstructed or terrain:
        records.append(
            f"replan: rejected {obstructed + terrain} cheaper candidates "
            f"({obstructed} obstructed leg, {terrain} terrain clearance)"
        )
    return (tuple(point), cost), records


@st.composite
def detour_problems(draw):
    """A vehicle south of a cylinder, a target north of it, and rough terrain that may not cover the ring.

    The terrain spans north -550..550 m at least, so it covers the vehicle.
    """
    cell = draw(st.sampled_from((100.0, 250.0, 400.0)))
    rows = math.ceil(2.0 * draw(st.floats(550.0, 1500.0)) / cell) + 1
    cols = math.ceil(2.0 * draw(st.floats(150.0, 1500.0)) / cell) + 1
    relief = draw(st.sampled_from((0.0, 60.0, 120.0)))
    elevation = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, relief, (rows, cols))
    grid = DemGrid(-cell * (rows - 1) / 2, -cell * (cols - 1) / 2, cell, elevation)
    base = draw(st.floats(0.0, 50.0))
    obstacle = Obstacle(
        draw(st.floats(-100.0, 300.0)), draw(st.floats(-200.0, 200.0)), draw(st.floats(40.0, 200.0)),
        base, base + draw(st.floats(50.0, 250.0)), activation_time=draw(st.sampled_from((0.0, 5.0))),
    )
    uav = make_uav(draw(st.floats(-500.0, -100.0)), draw(st.floats(-200.0, 200.0)), draw(st.floats(20.0, 200.0)),
                   chi=draw(st.floats(-1.0, 1.0)), gamma=draw(st.floats(-0.2, 0.2)))
    target = Point3(draw(st.floats(300.0, 900.0)), draw(st.floats(-400.0, 400.0)), draw(st.floats(20.0, 200.0)))
    params = ReplanParams(
        k_samples=draw(st.integers(1, 400)), delta_r=draw(st.floats(50.0, 400.0)),
        delta_h=draw(st.floats(10.0, 150.0)), delta_angle=draw(st.floats(0.3, math.pi)),
        clearance=draw(st.floats(0.0, 40.0)), terrain_step=draw(st.floats(10.0, 60.0)),
    )
    return uav, target, draw(st.integers(0, 2**32 - 1)), grid, obstacle, 0.0, params


class TestBestDetourMatchesSequentialWalk:
    # best_detour screens all inbound legs in one pass and checks terrain in
    # chunks; best_detour_oracle walks the candidates one at a time.  The
    # chosen point and cost, the log line's counts and the failure message's
    # counts must all be the same, and neither raises for a leg off the
    # terrain.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(problem=detour_problems())
    def test_same_answer_log_and_error(self, problem):
        assert detour_outcome(*problem) == oracle_outcome(*problem)

    def test_equal_costs_keep_draw_order(self, flat_dem, monkeypatch):
        # A draw and its mirror image across the vehicle's axis cost the same
        # to the bit.  The first drawn, whose leg crosses the cylinder, is a
        # cheaper rejected candidate; the second wins.
        pts = np.array([(300.0, -150.0, 100.0), (300.0, 150.0, 100.0)])
        monkeypatch.setattr(replanner, "sample_region", lambda *args: pts)
        monkeypatch.setattr(oracles, "sample_region", lambda *args: pts)
        uav, target = make_uav(), Point3(900.0, 0.0, 100.0)
        problem = (uav, target, 0, flat_dem, Obstacle(150.0, -75.0, 30.0, 0.0, 200.0), 0.0, ReplanParams())
        costs = candidate_cost(uav, pts, target)
        assert costs[0] == costs[1]
        outcome = detour_outcome(*problem)
        assert outcome == (
            ((300.0, 150.0, 100.0), costs[1]),
            ["replan: rejected 1 cheaper candidates (1 obstructed leg, 0 terrain clearance)"],
        )
        assert outcome == oracle_outcome(*problem)

    def test_all_candidates_rejected(self, flat_dem):
        # A clearance above the height band fails every terrain check; the
        # cheaper candidates behind the cylinder fail the obstacle first.
        uav, target = make_uav(height=50.0), Point3(900.0, 0.0, 50.0)
        params = ReplanParams(k_samples=600, delta_r=250.0, delta_h=100.0, delta_angle=math.pi / 2, clearance=500.0)
        problem = (uav, target, 3, flat_dem, Obstacle(450.0, 0.0, 80.0, 0.0, 200.0), 0.0, params)
        outcome = detour_outcome(*problem)
        (kind, message), records = outcome
        assert kind is ReplanError and records == []
        found = re.fullmatch(
            r"no acceptable candidate among (\d+) feasible samples "
            r"\((\d+) rejected for obstructed leg, (\d+) for terrain clearance\)",
            message,
        )
        feasible, obstructed, terrain = map(int, found.groups())
        assert obstructed > 0 and terrain > 100 and obstructed + terrain <= feasible
        assert outcome == oracle_outcome(*problem)

    def test_off_footprint_leg_is_a_terrain_rejection(self):
        # The footprint ends at east 0 m, on the vehicle's track, so the two
        # cheapest clear candidates lie off it: the first fails the scalar
        # check of the cheapest, the second its chunk's terrain query, and
        # the third is chosen.
        grid = DemGrid(-1000.0, -300.0, 100.0, np.zeros((21, 4)))
        uav, target = make_uav(height=70.0), Point3(900.0, 0.0, 70.0)
        obstacle = Obstacle(450.0, 0.0, 80.0, 0.0, 200.0)
        params = ReplanParams(k_samples=2000, delta_r=250.0, delta_h=100.0, delta_angle=math.pi / 2)
        problem = (uav, target, 0, grid, obstacle, 0.0, params)
        outcome = detour_outcome(*problem)
        assert outcome == oracle_outcome(*problem)
        (point, _), records = outcome
        assert grid.contains(point[0], point[1])
        assert records == ["replan: rejected 8 cheaper candidates (6 obstructed leg, 2 terrain clearance)"]

        pts = sample_region(uav, obstacle, grid, params, np.random.default_rng(0))
        ranked = pts[np.argsort(candidate_cost(uav, pts, target), kind="stable")].tolist()
        clear = [p for p in ranked if not segment_obstructed(uav.position, p, obstacle, 0.0)]
        assert clear[2] == list(point)
        for off in clear[:2]:
            assert not grid.contains(off[0], off[1])
            with pytest.raises(OutOfBoundsError):
                segment_above_terrain(grid, uav.position, off, params.clearance, params.terrain_step)

    def test_off_footprint_legs_count_when_all_are_rejected(self):
        # The footprint spans east -220..80 m, so the ring around the
        # cylinder reaches off it.  A 120 m ridge across north -100..200 m
        # rejects every candidate on it; the message counts the ones off it
        # as terrain rejections too.
        north = np.arange(21) * 100.0 - 1000.0
        ridge = np.where((north >= -100.0) & (north <= 200.0), 120.0, 0.0)
        grid = DemGrid(-1000.0, -220.0, 100.0, np.repeat(ridge[:, None], 4, axis=1))
        uav, target = make_uav(height=50.0), Point3(900.0, 0.0, 50.0)
        obstacle = Obstacle(450.0, 0.0, 80.0, 0.0, 200.0)
        params = ReplanParams(k_samples=2000, delta_r=250.0, delta_h=100.0, delta_angle=math.pi / 2)
        problem = (uav, target, 0, grid, obstacle, 0.0, params)
        outcome = detour_outcome(*problem)
        assert outcome == oracle_outcome(*problem)
        assert outcome == (
            (ReplanError, "no acceptable candidate among 2000 feasible samples "
                          "(379 rejected for obstructed leg, 1621 for terrain clearance)"),
            [],
        )
        pts = sample_region(uav, obstacle, grid, params, np.random.default_rng(0)).tolist()
        clear = [p for p in pts if not segment_obstructed(uav.position, p, obstacle, 0.0)]
        assert any(not grid.contains(n, e) for n, e, _ in clear)


class TestReplan:
    OBSTACLE = Obstacle(450.0, 20.0, 60.0, 0.0, 200.0)

    PARAMS = ReplanParams(k_samples=2000, delta_r=300.0, delta_h=100.0, delta_angle=math.pi / 2)

    def run_replan(self, grid, seed=77, target=Point3(900.0, 0.0, 50.0), **overrides):
        params = dataclasses.replace(self.PARAMS, **overrides)
        return replan(make_uav(height=50.0), target, self.OBSTACLE, grid, params, seed, 80.0)

    def test_postconditions_on_clipping_scenario(self, flat_dem):
        uav = make_uav(height=50.0)
        target = Point3(900.0, 0.0, 50.0)
        assert segment_obstructed(uav.position, target, self.OBSTACLE, 80.0)

        detour = self.run_replan(grid=flat_dem)
        assert detour.shape[0] >= 1 and detour.shape[1:] == (3,)
        waypoints = [Point3(*row) for row in detour.tolist()]

        # every leg, including the final one to the target, must be clear
        legs = [uav.position, *waypoints, target]
        for a, b in zip(legs, legs[1:]):
            assert not segment_obstructed(a, b, self.OBSTACLE, 80.0)

        # each waypoint must lie inside the region in force at its iteration,
        # from a virtual vehicle heading along the leg just planned
        virtual = uav
        for wp in waypoints:
            assert region_contains(virtual, self.OBSTACLE, flat_dem, self.PARAMS, wp)
            chi, gamma = reference_angles_oracle(virtual.position, wp)
            virtual = dataclasses.replace(virtual, position=wp, chi=chi, gamma=gamma)

    def test_deterministic_for_fixed_seed(self, flat_dem):
        first = self.run_replan(grid=flat_dem)
        second = self.run_replan(grid=flat_dem)
        assert first.tolist() == second.tolist()

    def test_seed_changes_output(self, flat_dem):
        assert self.run_replan(grid=flat_dem).tolist() != self.run_replan(seed=78, grid=flat_dem).tolist()

    def test_iteration_cap_raises(self, flat_dem):
        # target buried inside the obstacle's lateral disc: no hop count can
        # ever produce a clear final leg, so the cap must fire
        with pytest.raises(ReplanError, match="still obstructed after 3 iterations"):
            self.run_replan(
                grid=flat_dem,
                target=Point3(460.0, 0.0, 50.0),
                k_samples=200,
                max_iterations=3,
            )

    def test_prefix_property_of_sample_minimum(self, flat_dem):
        # draw order is preserved, so the minimum over all rows can never
        # exceed the minimum over the first 200 rows of the same draw
        uav = make_uav()
        params = region_params(k_samples=2000, delta_angle=math.pi)
        pts = sample_region(uav, RING, flat_dem, params, np.random.default_rng(10))
        costs = candidate_cost(uav, pts, Point3(900.0, 0.0, 100.0))
        assert costs.min() <= costs[:200].min()


class TestMinimizerQuality:
    def test_sampled_minimum_tracks_grid_oracle(self, flat_dem):
        uav = make_uav(height=50.0)
        target = Point3(900.0, 0.0, 50.0)
        obstacle, params = TestReplan.OBSTACLE, TestReplan.PARAMS
        _, cost = best_detour(uav, target, np.random.default_rng(77), flat_dem, obstacle, 80.0, params)
        oracle = grid_cost_oracle(uav, target, obstacle, flat_dem, 80.0, params)
        assert abs(cost - oracle) <= 0.02 * oracle


class TestReplanParams:
    # replan, best_detour and sample_region trust these checks
    def test_rejects_bad_extents(self):
        with pytest.raises(ValueError, match="delta_r"):
            ReplanParams(delta_r=0.0)
        with pytest.raises(ValueError, match="delta_h"):
            ReplanParams(delta_h=-5.0)
        with pytest.raises(ValueError, match="delta_angle"):
            ReplanParams(delta_angle=4.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="k_samples"):
            ReplanParams(k_samples=0)
        with pytest.raises(ValueError, match="max_iterations"):
            ReplanParams(max_iterations=0)
