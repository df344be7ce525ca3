"""Detour sampling, transit cost, and replan-loop postcondition tests.

The statistical checks run at the 1% level with fixed seeds; the
chi-squared critical value for 7 degrees of freedom is 18.4753.
"""

import dataclasses
import math

import numpy as np
import pytest
from oracles import grid_cost_oracle

from flocksim import (
    DemGrid,
    FeasibleRegion,
    Obstacle,
    Point3,
    ReplanError,
    ReplanParams,
    UavState,
    best_detour,
    candidate_cost,
    distance3,
    feasible_region,
    look_ahead_angles,
    reference_angles,
    region_contains,
    replan,
    sample_region,
    segment_obstructed,
    transit_angles_leg2,
    wrap_angle,
)

CHI2_7DOF_1PCT = 18.4753

NORTH = np.array([1.0, 0.0, 0.0])


def make_uav(north=0.0, east=0.0, height=100.0, chi=0.0, gamma=0.0, v_g=13.5):
    return UavState(
        position=Point3(north, east, height),
        chi=chi,
        gamma=gamma,
        psi=chi,
        v_g=v_g,
    )


def make_region(
    uav_north=0.0,
    uav_east=0.0,
    uav_height=100.0,
    center_north=400.0,
    center_east=0.0,
    r_bar=100.0,
    delta_r=100.0,
    dem_floor=0.0,
    delta_h=150.0,
    delta_angle=math.pi / 3,
    mu=NORTH,
):
    return FeasibleRegion(
        uav_position=Point3(uav_north, uav_east, uav_height),
        velocity_unit=np.asarray(mu, dtype=float),
        center_north=center_north,
        center_east=center_east,
        r_bar=r_bar,
        delta_r=delta_r,
        dem_floor=dem_floor,
        delta_h=delta_h,
        delta_angle=delta_angle,
    )


class TestFeasibleRegion:
    def test_rejects_non_unit_velocity(self):
        with pytest.raises(ValueError, match="unit norm"):
            make_region(mu=np.array([1.0, 1.0, 0.0]))

    def test_rejects_bad_extents(self):
        with pytest.raises(ValueError, match="delta_r"):
            make_region(delta_r=0.0)
        with pytest.raises(ValueError, match="delta_h"):
            make_region(delta_h=-5.0)
        with pytest.raises(ValueError, match="delta_angle"):
            make_region(delta_angle=4.0)
        with pytest.raises(ValueError, match="r_bar"):
            make_region(r_bar=0.0)

    def test_builder_anchors_floor_at_vehicle_cell(self, flat_dem):
        obstacle = Obstacle(400.0, 0.0, 100.0, 0.0, 200.0)
        region = feasible_region(
            Point3(0.0, 0.0, 100.0), NORTH, obstacle, flat_dem, 100.0, 150.0, math.pi / 3
        )
        assert region.dem_floor == 0.0
        assert region.r_bar == 100.0
        assert region.center_north == 400.0


class TestRegionContains:
    def test_interior_point_by_construction(self):
        # along the velocity axis, mid-ring, mid-band
        region = make_region()
        assert region_contains(region, Point3(250.0, 0.0, 75.0))

    def test_point_behind_vehicle(self):
        region = make_region()
        assert not region_contains(region, Point3(-250.0, 0.0, 75.0))

    def test_point_inside_inner_ring(self):
        region = make_region()
        assert not region_contains(region, Point3(301.0, 0.0, 75.0))

    def test_ring_boundaries_inclusive(self):
        region = make_region()
        assert region_contains(region, Point3(300.0, 0.0, 75.0))
        assert region_contains(region, Point3(200.0, 0.0, 75.0))

    def test_height_band(self):
        region = make_region()
        assert not region_contains(region, Point3(250.0, 0.0, 160.0))
        assert not region_contains(region, Point3(250.0, 0.0, -5.0))
        assert region_contains(region, Point3(250.0, 0.0, 0.0))
        assert region_contains(region, Point3(250.0, 0.0, 150.0))

    def test_vehicle_position_itself_excluded(self):
        region = make_region()
        assert not region_contains(region, Point3(0.0, 0.0, 100.0))


class TestSampleRegion:
    def test_all_samples_satisfy_membership(self):
        region = make_region()
        pts = sample_region(region, 10_000, np.random.default_rng(2))
        assert pts.shape[0] > 0
        for row in pts[:: max(1, pts.shape[0] // 500)]:
            assert region_contains(region, Point3(*row))

    def test_angular_uniformity_chi_squared(self):
        # full cone so nothing is rejected; angles around the center must be
        # uniform over the circle
        region = make_region(delta_angle=math.pi)
        pts = sample_region(region, 10_000, np.random.default_rng(3))
        assert pts.shape[0] == 10_000
        angles = np.arctan2(pts[:, 1] - region.center_east, pts[:, 0] - region.center_north)
        counts, _ = np.histogram(angles, bins=8, range=(-math.pi, math.pi))
        expected = pts.shape[0] / 8.0
        chi2 = float(np.sum((counts - expected) ** 2) / expected)
        assert chi2 < CHI2_7DOF_1PCT

    def test_radial_density_is_area_correct(self):
        # edges chosen so each shell has equal area; counts must be uniform
        region = make_region(delta_angle=math.pi)
        pts = sample_region(region, 10_000, np.random.default_rng(4))
        lateral = np.hypot(pts[:, 0] - region.center_north, pts[:, 1] - region.center_east)
        r_in2 = region.r_bar**2
        r_out2 = (region.r_bar + region.delta_r) ** 2
        edges = np.sqrt(r_in2 + np.linspace(0.0, 1.0, 9) * (r_out2 - r_in2))
        counts, _ = np.histogram(lateral, bins=edges)
        expected = pts.shape[0] / 8.0
        chi2 = float(np.sum((counts - expected) ** 2) / expected)
        assert chi2 < CHI2_7DOF_1PCT

    def test_cone_rejection_discards_backward_points(self):
        region = make_region(delta_angle=0.01, mu=np.array([-1.0, 0.0, 0.0]))
        pts = sample_region(region, 2000, np.random.default_rng(5))
        assert pts.shape[0] == 0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k"):
            sample_region(make_region(), 0, np.random.default_rng(6))


class TestTransitAngles:
    def test_leg1_straight_ahead(self):
        uav = make_uav(chi=0.0)
        angles = look_ahead_angles(uav, *reference_angles(uav, Point3(300.0, 0.0, 100.0)))
        assert angles.eta_lat == pytest.approx(0.0, abs=1e-15)
        assert angles.eta_lon == pytest.approx(0.0, abs=1e-15)

    def test_leg1_right_angle(self):
        uav = make_uav(chi=0.0)
        angles = look_ahead_angles(uav, *reference_angles(uav, Point3(0.0, 300.0, 100.0)))
        assert angles.eta_lat == pytest.approx(math.pi / 2, abs=1e-15)

    def test_leg1_matches_reference_angles(self):
        uav = make_uav(chi=0.4, gamma=0.1)
        candidate = Point3(210.0, -140.0, 160.0)
        chi_c, gamma_c = reference_angles(uav, candidate)
        angles = look_ahead_angles(uav, *reference_angles(uav, candidate))
        assert angles.eta_lat == pytest.approx(wrap_angle(chi_c - 0.4), abs=1e-12)
        assert angles.eta_lon == pytest.approx(gamma_c - 0.1, abs=1e-12)

    def test_leg2_collinear_is_zero(self):
        uav = make_uav()
        angles = transit_angles_leg2(uav, Point3(300.0, 0.0, 100.0), Point3(700.0, 0.0, 100.0))
        assert angles.eta_lat == pytest.approx(0.0, abs=1e-15)
        assert angles.eta_lon == pytest.approx(0.0, abs=1e-15)

    def test_leg2_right_angle_dogleg(self):
        uav = make_uav()
        angles = transit_angles_leg2(uav, Point3(300.0, 0.0, 100.0), Point3(300.0, 400.0, 100.0))
        assert abs(angles.eta_lat) == pytest.approx(math.pi / 2, abs=1e-15)
        assert angles.eta_lon == pytest.approx(0.0, abs=1e-15)

    def test_leg2_is_difference_of_bearings(self):
        uav = make_uav(chi=0.9)
        candidate = Point3(150.0, 90.0, 130.0)
        target = Point3(500.0, -60.0, 90.0)
        first = reference_angles(uav, candidate)
        second = reference_angles(
            UavState(position=candidate, chi=0.0, gamma=0.0, psi=0.0, v_g=13.5), target
        )
        angles = transit_angles_leg2(uav, candidate, target)
        assert angles.eta_lat == pytest.approx(wrap_angle(second[0] - first[0]), abs=1e-12)
        assert angles.eta_lon == pytest.approx(second[1] - first[1], abs=1e-12)


class TestCandidateCost:
    def test_collinear_sum_of_lengths(self):
        uav = make_uav()
        cost = candidate_cost(uav, Point3(300.0, 0.0, 100.0), Point3(700.0, 0.0, 100.0))
        assert cost == 700.0

    def test_right_angle_dogleg_is_infeasible(self):
        uav = make_uav()
        cost = candidate_cost(uav, Point3(300.0, 0.0, 100.0), Point3(300.0, 400.0, 100.0))
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
        cost = candidate_cost(uav, candidate, target)
        expected = 100.0 / math.cos(0.3) + 200.0 / (math.cos(0.2) * math.cos(0.1))
        assert cost == pytest.approx(expected, abs=1e-9)
        assert cost == pytest.approx(309.7674, abs=1e-3)

    def test_cost_dominates_path_length(self):
        rng = np.random.default_rng(8)
        uav = make_uav()
        target = Point3(800.0, 50.0, 120.0)
        checked = 0
        for _ in range(200):
            candidate = Point3(
                float(rng.uniform(50.0, 700.0)),
                float(rng.uniform(-300.0, 300.0)),
                float(rng.uniform(60.0, 160.0)),
            )
            cost = candidate_cost(uav, candidate, target)
            if math.isfinite(cost):
                low = distance3(uav.position, candidate) + distance3(candidate, target)
                assert cost >= low - 1e-9
                checked += 1
        assert checked > 50


class TestBestDetour:
    def test_skips_cheaper_candidates_with_obstructed_leg(self, flat_dem):
        # near-axial candidates behind the disc are the cost minimizers but
        # their straight inbound leg crosses the obstacle; the winner must
        # have a clear leg while at least one cheaper draw did not
        uav = make_uav(height=50.0)
        target = Point3(900.0, 0.0, 50.0)
        obstacle = Obstacle(450.0, 0.0, 80.0, 0.0, 200.0)
        region = feasible_region(
            uav.position, uav.velocity_unit(), obstacle, flat_dem, 250.0, 100.0, math.pi / 2
        )
        best = best_detour(
            uav, target, region, np.random.default_rng(12345), flat_dem, obstacle, 0.0,
            ReplanParams(k_samples=2000, clearance=10.0, terrain_step=25.0),
        )
        assert not segment_obstructed(uav.position, best.point, obstacle, 0.0)
        assert region_contains(region, best.point)

        # replay the identical draw stream and locate the raw cost minimizer
        pts = sample_region(region, 2000, np.random.default_rng(12345))
        costs = np.array([candidate_cost(uav, Point3(*row), target) for row in pts])
        cheapest = Point3(*pts[int(np.argmin(costs))])
        assert float(np.min(costs)) < best.cost
        assert segment_obstructed(uav.position, cheapest, obstacle, 0.0)

    def test_no_feasible_samples_raises(self, flat_dem):
        uav = make_uav(height=50.0)
        target = Point3(900.0, 0.0, 50.0)
        region = make_region(
            uav_height=50.0, delta_angle=0.01, mu=np.array([-1.0, 0.0, 0.0]),
            center_north=450.0, dem_floor=0.0,
        )
        obstacle = Obstacle(450.0, 0.0, 80.0, 0.0, 200.0)
        with pytest.raises(ReplanError, match="no feasible samples"):
            best_detour(
                uav, target, region, np.random.default_rng(9), flat_dem, obstacle, 0.0,
                ReplanParams(k_samples=500),
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

        waypoints = self.run_replan(grid=flat_dem)
        assert len(waypoints) >= 1

        # every leg, including the final one to the target, must be clear
        legs = [uav.position, *waypoints, target]
        for a, b in zip(legs, legs[1:]):
            assert not segment_obstructed(a, b, self.OBSTACLE, 80.0)

        # each waypoint must lie inside the region in force at its iteration
        virtual_pos = uav.position
        virtual_mu = uav.velocity_unit()
        for wp in waypoints:
            region = feasible_region(
                virtual_pos, virtual_mu, self.OBSTACLE, flat_dem, 300.0, 100.0, math.pi / 2
            )
            assert region_contains(region, wp)
            dn = wp.north - virtual_pos.north
            de = wp.east - virtual_pos.east
            dh = wp.height - virtual_pos.height
            lat = math.hypot(dn, de)
            chi = math.atan2(de, dn)
            gamma = math.atan2(dh, lat)
            virtual_pos = wp
            virtual_mu = np.array(
                [
                    math.cos(gamma) * math.cos(chi),
                    math.cos(gamma) * math.sin(chi),
                    math.sin(gamma),
                ]
            )

    def test_deterministic_for_fixed_seed(self, flat_dem):
        first = self.run_replan(grid=flat_dem)
        second = self.run_replan(grid=flat_dem)
        assert first == second

    def test_seed_changes_output(self, flat_dem):
        assert self.run_replan(grid=flat_dem) != self.run_replan(seed=78, grid=flat_dem)

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

    def test_prefix_property_of_sample_minimum(self):
        # draw order is preserved, so the minimum over all rows can never
        # exceed the minimum over the first 200 rows of the same draw
        region = make_region(delta_angle=math.pi)
        uav = make_uav()
        target = Point3(900.0, 0.0, 100.0)
        pts = sample_region(region, 2000, np.random.default_rng(10))
        costs = [candidate_cost(uav, Point3(*row), target) for row in pts]
        assert min(costs) <= min(costs[:200])


class TestMinimizerQuality:
    def test_sampled_minimum_tracks_grid_oracle(self, flat_dem):
        uav = make_uav(height=50.0)
        target = Point3(900.0, 0.0, 50.0)
        obstacle = TestReplan.OBSTACLE
        region = feasible_region(
            uav.position, uav.velocity_unit(), obstacle, flat_dem, 300.0, 100.0, math.pi / 2
        )
        chosen = best_detour(
            uav, target, region, np.random.default_rng(77), flat_dem, obstacle, 80.0,
            ReplanParams(k_samples=2000),
        )
        oracle = grid_cost_oracle(uav, target, region, obstacle, flat_dem, now=80.0)
        assert abs(chosen.cost - oracle) <= 0.02 * oracle


class TestReplanParams:
    # replan and best_detour trust these checks
    def test_validation(self):
        with pytest.raises(ValueError, match="k_samples"):
            ReplanParams(k_samples=0)
        with pytest.raises(ValueError, match="max_iterations"):
            ReplanParams(max_iterations=0)
