"""Virtual-target bookkeeping and look-ahead steering-law tests."""

import math

import numpy as np
import pytest

from flocksim import (
    AutopilotParams,
    DegenerateGeometryError,
    FleetPaths,
    GuidanceParams,
    Point3,
    UavLimits,
    UavState,
    actuator_bounds,
    advance_virtual_target,
    convergence_conditions,
    fleet_arrays,
    guidance_commands,
    look_ahead_angles,
    reference_angles,
    steering_rates,
    step_kinematics,
)

GRAVITY = 9.81
GP = GuidanceParams()
AP = AutopilotParams()


def make_state(
    north=0.0, east=0.0, height=100.0, chi=0.0, gamma=0.0, v_g=12.0, phi=0.0, n_lf=1.0
):
    return UavState(
        position=Point3(north, east, height),
        chi=chi,
        gamma=gamma,
        psi=chi,
        v_g=v_g,
        phi=phi,
        n_lf=n_lf,
    )


def commands(state, eta_lat, eta_lon, gp, limits):
    """One vehicle's (phi_c, n_lf_c) from guidance_commands."""
    y, act = fleet_arrays([state])
    lo, hi = actuator_bounds([limits])
    phi_c, n_lf_c = guidance_commands(np.array([eta_lat]), np.array([eta_lon]), y, act, gp, lo, hi)
    return phi_c[0], n_lf_c[0]


def conditions(eta_lat, eta_lon, state, target, gp):
    """One vehicle's (lat_ok, lon_ok, sign_ok, all_ok) from convergence_conditions."""
    y, _ = fleet_arrays([state])
    premises = convergence_conditions(np.array([eta_lat]), np.array([eta_lon]), y, np.array([target.height]), gp)
    lat_ok, lon_ok, sign_ok = (p[0] for p in premises)
    return lat_ok, lon_ok, sign_ok, bool(lat_ok and lon_ok and sign_ok)


def advance(paths, state, acceptance_radius):
    """One vehicle's ``paths`` after the fleet advance that ``run`` makes each tick."""
    advance_virtual_target(paths, fleet_arrays([state])[0], GuidanceParams(acceptance_radius=acceptance_radius))
    return paths


def remaining_loop(rows):
    """Length of the polyline ``rows``, summed left to right one ``math.hypot`` leg at a time."""
    total = 0.0
    for (an, ae, ah), (bn, be, bh) in zip(rows, rows[1:]):
        total += math.hypot(bn - an, be - ae, bh - ah)
    return total


class TestWaypointPath:
    """One vehicle's waypoint path, a row of a ``FleetPaths`` table."""

    def test_rejects_bad_cursor(self):
        with pytest.raises(ValueError, match="cursor"):
            FleetPaths([[(0, 0, 100), (10, 0, 100)]], cursor=[2])

    def test_active_and_terminus(self):
        paths = FleetPaths([[(0, 0, 100), (10, 0, 100), (20, 0, 100)]], cursor=[1])
        assert paths.active[:, 0].tolist() == [10, 0, 100]
        assert paths.waypoints[0][-1].tolist() == [20, 0, 100]
        assert paths.movable.tolist() == [True]

    def test_remaining_length_sums_from_cursor(self):
        pts = [(0, 0, 100), (30, 0, 100), (30, 40, 100), (30, 40, 110)]
        paths = FleetPaths([pts] * 3, cursor=[0, 1, 3])
        assert paths.remaining[0] == pytest.approx(80.0)
        assert paths.remaining[1] == pytest.approx(50.0)
        assert paths.remaining[2] == 0.0
        assert paths.movable.tolist() == [True, True, False]

    def test_remaining_length_of_every_cursor_of_a_spliced_path(self):
        # the remaining length equals a fresh left-to-right loop from the
        # cursor; from 8 legs on, np.sum adds pairwise and differs, as does
        # a difference of cumulative sums, so the long path has 15 legs
        short = [(0, 0, 100), (100.3, 0, 100), (200, 17.1, 96.2), (301, 9, 100)]
        rng = np.random.default_rng(3)
        long = (np.cumsum(rng.uniform(-97.3, 211.9, (14, 3)), axis=0) + (0.1, 0.2, 100.3)).tolist()
        detour = [(80.7, 30.1, 99), (120.2, 33.3, 101)]
        for pts in (short, long):
            # vehicle i splices the detour at cursor i
            paths = FleetPaths([pts] * len(pts), cursor=range(len(pts)))
            for i in range(len(pts)):
                paths.splice(i, detour)
                rows = paths.waypoints[i].tolist()
                assert rows == [list(p) for p in [*pts[:i], *detour, *pts[i:]]]
                assert paths.remaining[i] == remaining_loop(rows[i:])
            # every cursor of one spliced path
            spliced = paths.waypoints[0].tolist()
            every = FleetPaths([spliced] * len(spliced), cursor=range(len(spliced)))
            for cursor in range(len(spliced)):
                assert every.remaining[cursor] == remaining_loop(spliced[cursor:])

    def test_splice_preserves_terminus_and_tail(self):
        paths = FleetPaths([[(0, 0, 100), (100, 0, 100), (200, 0, 100)]], cursor=[1])
        paths.splice(0, np.array([(80, 30, 100), (120, 30, 100)]))
        assert paths.waypoints[0].tolist() == [
            [0, 0, 100],
            [80, 30, 100],
            [120, 30, 100],
            [100, 0, 100],
            [200, 0, 100],
        ]
        assert paths.cursor.tolist() == [1]
        assert paths.active[:, 0].tolist() == [80, 30, 100]
        assert paths.waypoints[0][-1].tolist() == [200, 0, 100]

    def test_splice_empty_is_identity(self):
        paths = FleetPaths([[(0, 0, 100), (100, 0, 100)]])
        before = (paths.waypoints[0].tolist(), paths.cursor.tolist(), paths.active.tolist(),
                  paths.remaining.tolist(), paths.movable.tolist())
        paths.splice(0, np.empty((0, 3)))
        assert (paths.waypoints[0].tolist(), paths.cursor.tolist(), paths.active.tolist(),
                paths.remaining.tolist(), paths.movable.tolist()) == before


class TestAdvanceVirtualTarget:
    PTS = ((0, 0, 100), (100, 0, 100), (200, 0, 100))

    def test_far_behind_stays(self):
        paths = FleetPaths([self.PTS])
        state = make_state(north=-500.0)
        assert advance(paths, state, 40.0).cursor.tolist() == [0]

    def test_acceptance_hit_advances(self):
        paths = FleetPaths([self.PTS])
        state = make_state(north=0.0)
        out = advance(paths, state, 40.0)
        assert out.cursor.tolist() == [1]

    def test_overflown_waypoints_are_skipped(self):
        # vehicle sits 10 m past waypoint 1 heading north: both waypoint 0
        # (at -110 m) and waypoint 1 (at -10 m) fail the forward dot test
        paths = FleetPaths([self.PTS])
        state = make_state(north=110.0, chi=0.0)
        out = advance(paths, state, 5.0)
        assert out.cursor.tolist() == [2]

    def test_terminus_is_never_dropped(self):
        paths = FleetPaths([self.PTS])
        state = make_state(north=450.0)
        out = advance(paths, state, 5.0)
        assert out.cursor.tolist() == [2]
        assert out.active[:, 0].tolist() == list(self.PTS[-1])

    def test_idempotent(self):
        paths = FleetPaths([self.PTS])
        state = make_state(north=95.0)
        once = advance(paths, state, 40.0).cursor.tolist()
        twice = advance(paths, state, 40.0).cursor.tolist()
        assert once == twice

    def test_flags_reached_or_behind_movable_waypoints(self):
        # flying north, 30 m short of the waypoint (reached), 50 m past it
        # (behind), 50 m short (kept), and 30 m short of a last waypoint;
        # the waypoint after each flagged one lies far ahead
        y, _ = fleet_arrays([make_state(north=n) for n in (70.0, 150.0, 50.0, 70.0)])
        ahead = (900.0, 0.0, 100.0)
        paths = FleetPaths([[(100.0, 0.0, 100.0), ahead]] * 3 + [[(0.0, 0.0, 100.0), (100.0, 0.0, 100.0)]],
                           cursor=[0, 0, 0, 1])
        active = np.array([[100.0] * 4, [0.0] * 4, [100.0] * 4])
        assert paths.active.tolist() == active.tolist()
        offset, distance = paths.offsets(y)
        assert offset.tolist() == (active - y[:3]).tolist()
        assert distance.tolist() == [30.0, 50.0, 50.0, 30.0]
        before = paths.cursor.copy()
        offset, distance = advance_virtual_target(paths, y, GP)
        assert (paths.cursor != before).tolist() == [True, True, False, False]
        assert paths.movable.tolist() == [False, False, True, False]
        assert offset.tolist() == (paths.active - y[:3]).tolist()
        assert distance.tolist() == [830.0, 750.0, 50.0, 30.0]


def one_reference(position, target):
    """reference_angles over the one-column offset from ``position`` to ``target``."""
    offset = np.subtract(target, position)[:, None]
    chi_c, gamma_c = reference_angles(offset)
    return chi_c.item(), gamma_c.item()


class TestReferenceAngles:
    def test_due_north_level(self):
        chi_c, gamma_c = one_reference(make_state().position, Point3(500, 0, 100))
        assert chi_c == pytest.approx(0.0, abs=1e-15)
        assert gamma_c == pytest.approx(0.0, abs=1e-15)

    def test_due_east_level(self):
        chi_c, gamma_c = one_reference(make_state().position, Point3(0, 500, 100))
        assert chi_c == pytest.approx(math.pi / 2, abs=1e-15)
        assert gamma_c == pytest.approx(0.0, abs=1e-15)

    def test_forty_five_degree_climb(self):
        chi_c, gamma_c = one_reference(make_state().position, Point3(100, 0, 200))
        assert chi_c == pytest.approx(0.0, abs=1e-15)
        assert gamma_c == pytest.approx(math.pi / 4, abs=1e-15)

    def test_target_behind_yields_obtuse_course(self):
        # full-quadrant bearing: a plain arctangent would fold this to 0
        chi_c, _ = one_reference(make_state().position, Point3(-500, 0, 100))
        assert chi_c == pytest.approx(math.pi, abs=1e-15)

    def test_coincident_target_raises(self):
        state = make_state()
        with pytest.raises(DegenerateGeometryError):
            one_reference(state.position, state.position)


class TestLookAheadAngles:
    def test_aligned_is_zero(self):
        eta_lat, eta_lon = look_ahead_angles(0.7, 0.1, 0.7, 0.1)
        assert eta_lat == 0.0
        assert eta_lon == pytest.approx(0.0, abs=1e-15)

    def test_lateral_difference_wraps(self):
        # chi_c - chi = 6.2 rad, which wraps to the short way around
        eta_lat, _ = look_ahead_angles(-3.1, 0.0, 3.1, 0.0)
        assert eta_lat == pytest.approx(6.2 - 2.0 * math.pi, abs=1e-12)

    def test_longitudinal_difference_is_plain(self):
        _, eta_lon = look_ahead_angles(0.0, -0.1, 0.0, 0.2)
        assert eta_lon == pytest.approx(0.3, abs=1e-15)


class TestSteeringRates:
    def test_zero_at_zero(self):
        assert steering_rates(0.0, 0.0, 8.8844, 8.8844) == (-0.0, -0.0)

    def test_sine_feedback_values_and_signs(self):
        f_chi, f_gamma = steering_rates(0.1, -0.2, 2.0, 3.0)
        assert f_chi == pytest.approx(-2.0 * math.sin(0.1), abs=1e-15)
        assert f_gamma == pytest.approx(3.0 * math.sin(0.2), abs=1e-15)
        assert f_chi < 0.0
        assert f_gamma > 0.0


class TestGuidanceCommands:
    def test_trimmed_level_fixed_point(self):
        phi_c, n_lf_c = commands(make_state(), 0.0, 0.0, GP, UavLimits())
        assert phi_c == 0.0
        assert n_lf_c == 1.0

    def test_lateral_saturation_at_working_gain(self):
        # f_chi = -8.8844 sin(0.1) = -0.8870 rad/s; asin argument
        # 15*(-0.8870)/9.81 = -1.356 saturates to -1, so phi_c hits +pi/2
        # and the envelope clip brings it to phi_max exactly
        state = make_state(v_g=15.0)
        phi_c, _ = commands(state, 0.1, 0.0, GP, UavLimits())
        assert phi_c == 0.6

    def test_longitudinal_chain_hand_value(self):
        # f_gamma = -8.8844 sin(0.05); n_lf_c = (g - 12 f_gamma) / g with
        # phi_c = 0: evaluates to 1.5431620 (within the 2.1 ceiling)
        state = make_state(v_g=12.0)
        phi_c, n_lf_c = commands(state, 0.0, 0.05, GP, UavLimits())
        f_gamma = -8.8844 * math.sin(0.05)
        expected = (GRAVITY - 12.0 * f_gamma) / GRAVITY
        assert phi_c == 0.0
        assert n_lf_c == pytest.approx(expected, abs=1e-9)
        assert n_lf_c == pytest.approx(1.5431620, abs=1e-6)

    def test_outputs_always_within_limits(self):
        limits = UavLimits()
        rng = np.random.default_rng(17)
        for _ in range(300):
            state = make_state(
                chi=float(rng.uniform(-math.pi, math.pi)),
                gamma=float(rng.uniform(-1.4, 1.4)),
                v_g=float(rng.uniform(9.0, 18.0)),
                phi=float(rng.uniform(-0.6, 0.6)),
            )
            eta_lat = float(rng.uniform(-math.pi, math.pi))
            eta_lon = float(rng.uniform(-1.5, 1.5))
            phi_c, n_lf_c = commands(state, eta_lat, eta_lon, GP, limits)
            assert limits.phi_min <= phi_c <= limits.phi_max
            assert limits.n_lf_min <= n_lf_c <= limits.n_lf_max

    def test_small_angle_commands_reduce_look_ahead_error(self):
        # closed-loop sign check: apply the commanded actuators directly and
        # verify one kinematic step shrinks each angular error
        unit_gains = GuidanceParams(k_chi=1.0, k_gamma=1.0)
        for eta_lat, eta_lon in ((0.04, 0.0), (-0.04, 0.0), (0.0, 0.04), (0.0, -0.04)):
            state = make_state(v_g=12.0)
            phi_c, n_lf_c = commands(state, eta_lat, eta_lon, unit_gains, UavLimits())
            y, act = fleet_arrays([state])
            act[:2, 0] = (phi_c, n_lf_c)
            stepped = step_kinematics(y, act, np.zeros((2, 1)), dt=0.2, ap=AP)
            chi_c = state.chi + eta_lat
            gamma_c = state.gamma + eta_lon
            after_lat, after_lon = look_ahead_angles(stepped[3, 0], stepped[4, 0], chi_c, gamma_c)
            assert abs(after_lat) < abs(eta_lat) or eta_lat == 0.0
            assert abs(after_lon) < abs(eta_lon) or eta_lon == 0.0


class TestConvergenceConditions:
    def test_all_premises_true_with_margin(self):
        lat_ok, lon_ok, sign_ok, all_ok = conditions(
            0.0, 0.0, make_state(v_g=12.0), Point3(500, 0, 100),
            GuidanceParams(delta_lat=0.5, delta_lon=0.5),
        )
        assert lat_ok and lon_ok and sign_ok
        assert all_ok

    def test_lateral_premise_fails_outside_trust_bound(self):
        lat_ok, *_, all_ok = conditions(
            0.6, 0.0, make_state(), Point3(500, 0, 100), GuidanceParams(delta_lat=0.5)
        )
        assert not lat_ok
        assert not all_ok

    def test_longitudinal_premise_boundary_inclusive(self):
        _, lon_ok, *_ = conditions(
            0.0, 0.5, make_state(), Point3(500, 0, 100), GuidanceParams(delta_lon=0.5)
        )
        assert lon_ok

    def test_sign_premise(self):
        # climbing while below the target height converges (product <= 0)
        below = conditions(0.0, 0.0, make_state(height=80.0, gamma=0.1), Point3(500, 0, 100), GP)
        assert below[2]
        # climbing while already above it diverges
        above = conditions(0.0, 0.0, make_state(height=120.0, gamma=0.1), Point3(500, 0, 100), GP)
        assert not above[2]


class TestGuidanceParams:
    # guidance_commands and convergence_conditions trust these checks
    def test_rejects_non_positive_gains(self):
        with pytest.raises(ValueError, match="gains"):
            GuidanceParams(k_chi=0.0, k_gamma=1.0)

    def test_rejects_bad_trust_bounds(self):
        with pytest.raises(ValueError, match="delta"):
            GuidanceParams(delta_lat=math.pi / 2)

    def test_rejects_negative_acceptance_radius(self):
        # advance_virtual_target trusts this check
        with pytest.raises(ValueError, match="acceptance_radius"):
            GuidanceParams(acceptance_radius=-1.0)
