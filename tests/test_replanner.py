"""Detour sampling, transit cost, and replan-loop postcondition tests.

The statistical checks run at the 1% level with fixed seeds; the
chi-squared critical value for 7 degrees of freedom is 18.4753.
"""

import dataclasses
import math

import numpy as np
import pytest
from oracles import grid_cost_oracle, reference_angles_oracle, region_contains, two_leg_cost

from flocksim import (
    DemGrid,
    Obstacle,
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
    segment_obstructed,
    wrap_angle,
)

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
        with pytest.raises(ReplanError, match="still obstructed"):
            self.run_replan(
                grid=flat_dem,
                target=Point3(460.0, 0.0, 50.0),
                k_samples=200,
                max_iterations=3,
            )
        try:
            self.run_replan(
                grid=flat_dem,
                target=Point3(460.0, 0.0, 50.0),
                k_samples=200,
                max_iterations=3,
            )
        except ReplanError as exc:
            assert exc.iteration == 2

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
