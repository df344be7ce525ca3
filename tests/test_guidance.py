"""Virtual-target bookkeeping and look-ahead steering-law tests."""

import math

import numpy as np
import pytest

from flocksim import (
    AutopilotParams,
    Commands,
    ConditionReport,
    DegenerateGeometryError,
    GuidanceParams,
    LookAheadAngles,
    NO_DISTURBANCE,
    Point3,
    UavLimits,
    UavState,
    WaypointPath,
    advance_virtual_target,
    convergence_conditions,
    guidance_commands,
    look_ahead_angles,
    path_errors,
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


class TestWaypointPath:
    def test_needs_two_waypoints(self):
        with pytest.raises(ValueError, match="at least 2"):
            WaypointPath((Point3(0, 0, 100),))

    def test_rejects_coincident_consecutive(self):
        with pytest.raises(ValueError, match="coincide"):
            WaypointPath((Point3(0, 0, 100), Point3(0, 0, 100), Point3(5, 0, 100)))

    def test_rejects_bad_cursor(self):
        pts = (Point3(0, 0, 100), Point3(10, 0, 100))
        with pytest.raises(ValueError, match="cursor"):
            WaypointPath(pts, cursor=2)

    def test_rejects_negative_acceptance_radius(self):
        pts = (Point3(0, 0, 100), Point3(10, 0, 100))
        with pytest.raises(ValueError, match="acceptance_radius"):
            WaypointPath(pts, acceptance_radius=-1.0)

    def test_active_and_terminus(self):
        pts = (Point3(0, 0, 100), Point3(10, 0, 100), Point3(20, 0, 100))
        path = WaypointPath(pts, cursor=1)
        assert path.active == Point3(10, 0, 100)
        assert path.terminus == Point3(20, 0, 100)

    def test_remaining_length_sums_from_cursor(self):
        pts = (
            Point3(0, 0, 100),
            Point3(30, 0, 100),
            Point3(30, 40, 100),
            Point3(30, 40, 110),
        )
        assert WaypointPath(pts, cursor=0).remaining_length() == pytest.approx(80.0)
        assert WaypointPath(pts, cursor=1).remaining_length() == pytest.approx(50.0)
        assert WaypointPath(pts, cursor=3).remaining_length() == 0.0

    def test_splice_preserves_terminus_and_tail(self):
        pts = (Point3(0, 0, 100), Point3(100, 0, 100), Point3(200, 0, 100))
        path = WaypointPath(pts, cursor=1)
        detour = (Point3(80, 30, 100), Point3(120, 30, 100))
        out = path.splice(detour)
        assert out.waypoints == (
            Point3(0, 0, 100),
            Point3(80, 30, 100),
            Point3(120, 30, 100),
            Point3(100, 0, 100),
            Point3(200, 0, 100),
        )
        assert out.cursor == 1
        assert out.active == Point3(80, 30, 100)
        assert out.terminus == path.terminus

    def test_splice_empty_is_identity(self):
        pts = (Point3(0, 0, 100), Point3(100, 0, 100))
        path = WaypointPath(pts)
        assert path.splice(()) is path


class TestAdvanceVirtualTarget:
    PTS = (Point3(0, 0, 100), Point3(100, 0, 100), Point3(200, 0, 100))

    def test_far_behind_stays(self):
        path = WaypointPath(self.PTS, acceptance_radius=40.0)
        state = make_state(north=-500.0)
        assert advance_virtual_target(path, state).cursor == 0

    def test_acceptance_hit_advances(self):
        path = WaypointPath(self.PTS, acceptance_radius=40.0)
        state = make_state(north=0.0)
        out = advance_virtual_target(path, state)
        assert out.cursor == 1

    def test_overflown_waypoints_are_skipped(self):
        # vehicle sits 10 m past waypoint 1 heading north: both waypoint 0
        # (at -110 m) and waypoint 1 (at -10 m) fail the forward dot test
        path = WaypointPath(self.PTS, acceptance_radius=5.0)
        state = make_state(north=110.0, chi=0.0)
        out = advance_virtual_target(path, state)
        assert out.cursor == 2

    def test_terminus_is_never_dropped(self):
        path = WaypointPath(self.PTS, acceptance_radius=5.0)
        state = make_state(north=450.0)
        out = advance_virtual_target(path, state)
        assert out.cursor == 2
        assert out.active == path.terminus

    def test_idempotent(self):
        path = WaypointPath(self.PTS, acceptance_radius=40.0)
        state = make_state(north=95.0)
        once = advance_virtual_target(path, state)
        twice = advance_virtual_target(once, state)
        assert once.cursor == twice.cursor


class TestReferenceAngles:
    def test_due_north_level(self):
        chi_c, gamma_c = reference_angles(make_state(), Point3(500, 0, 100))
        assert chi_c == pytest.approx(0.0, abs=1e-15)
        assert gamma_c == pytest.approx(0.0, abs=1e-15)

    def test_due_east_level(self):
        chi_c, gamma_c = reference_angles(make_state(), Point3(0, 500, 100))
        assert chi_c == pytest.approx(math.pi / 2, abs=1e-15)
        assert gamma_c == pytest.approx(0.0, abs=1e-15)

    def test_forty_five_degree_climb(self):
        chi_c, gamma_c = reference_angles(make_state(), Point3(100, 0, 200))
        assert chi_c == pytest.approx(0.0, abs=1e-15)
        assert gamma_c == pytest.approx(math.pi / 4, abs=1e-15)

    def test_target_behind_yields_obtuse_course(self):
        # full-quadrant bearing: a plain arctangent would fold this to 0
        chi_c, _ = reference_angles(make_state(), Point3(-500, 0, 100))
        assert chi_c == pytest.approx(math.pi, abs=1e-15)

    def test_coincident_target_raises(self):
        state = make_state()
        with pytest.raises(DegenerateGeometryError):
            reference_angles(state, state.position)


class TestLookAheadAngles:
    def test_aligned_is_zero(self):
        angles = look_ahead_angles(make_state(chi=0.7, gamma=0.1), 0.7, 0.1)
        assert angles.eta_lat == 0.0
        assert angles.eta_lon == pytest.approx(0.0, abs=1e-15)

    def test_lateral_difference_wraps(self):
        # chi_c - chi = 6.2 rad, which wraps to the short way around
        angles = look_ahead_angles(make_state(chi=-3.1), 3.1, 0.0)
        assert angles.eta_lat == pytest.approx(6.2 - 2.0 * math.pi, abs=1e-12)

    def test_longitudinal_difference_is_plain(self):
        angles = look_ahead_angles(make_state(gamma=-0.1), 0.0, 0.2)
        assert angles.eta_lon == pytest.approx(0.3, abs=1e-15)


class TestSteeringRates:
    def test_zero_at_zero(self):
        assert steering_rates(LookAheadAngles(0.0, 0.0), 8.8844, 8.8844) == (-0.0, -0.0)

    def test_sine_feedback_values_and_signs(self):
        f_chi, f_gamma = steering_rates(LookAheadAngles(0.1, -0.2), 2.0, 3.0)
        assert f_chi == pytest.approx(-2.0 * math.sin(0.1), abs=1e-15)
        assert f_gamma == pytest.approx(3.0 * math.sin(0.2), abs=1e-15)
        assert f_chi < 0.0
        assert f_gamma > 0.0


class TestGuidanceCommands:
    def test_trimmed_level_fixed_point(self):
        phi_c, n_lf_c = guidance_commands(make_state(), LookAheadAngles(0.0, 0.0), GP, UavLimits())
        assert phi_c == 0.0
        assert n_lf_c == 1.0

    def test_lateral_saturation_at_working_gain(self):
        # f_chi = -8.8844 sin(0.1) = -0.8870 rad/s; asin argument
        # 15*(-0.8870)/9.81 = -1.356 saturates to -1, so phi_c hits +pi/2
        # and the envelope clip brings it to phi_max exactly
        state = make_state(v_g=15.0)
        phi_c, _ = guidance_commands(state, LookAheadAngles(0.1, 0.0), GP, UavLimits())
        assert phi_c == 0.6

    def test_longitudinal_chain_hand_value(self):
        # f_gamma = -8.8844 sin(0.05); n_lf_c = (g - 12 f_gamma) / g with
        # phi_c = 0: evaluates to 1.5431620 (within the 2.1 ceiling)
        state = make_state(v_g=12.0)
        phi_c, n_lf_c = guidance_commands(state, LookAheadAngles(0.0, 0.05), GP, UavLimits())
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
            angles = LookAheadAngles(
                float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(-1.5, 1.5))
            )
            phi_c, n_lf_c = guidance_commands(state, angles, GP, limits)
            assert limits.phi_min <= phi_c <= limits.phi_max
            assert limits.n_lf_min <= n_lf_c <= limits.n_lf_max

    def test_small_angle_commands_reduce_look_ahead_error(self):
        # closed-loop sign check: apply the commanded actuators directly and
        # verify one kinematic step shrinks each angular error
        unit_gains = GuidanceParams(k_chi=1.0, k_gamma=1.0)
        for eta_lat, eta_lon in ((0.04, 0.0), (-0.04, 0.0), (0.0, 0.04), (0.0, -0.04)):
            state = make_state(v_g=12.0)
            phi_c, n_lf_c = guidance_commands(
                state, LookAheadAngles(eta_lat, eta_lon), unit_gains, UavLimits()
            )
            driven = UavState(
                position=state.position,
                chi=state.chi,
                gamma=state.gamma,
                psi=state.chi,
                v_g=state.v_g,
                phi=phi_c,
                n_lf=n_lf_c,
            )
            stepped = step_kinematics(driven, NO_DISTURBANCE, dt=0.2, ap=AP)
            chi_c = state.chi + eta_lat
            gamma_c = state.gamma + eta_lon
            after = look_ahead_angles(stepped, chi_c, gamma_c)
            assert abs(after.eta_lat) < abs(eta_lat) or eta_lat == 0.0
            assert abs(after.eta_lon) < abs(eta_lon) or eta_lon == 0.0


class TestConvergenceConditions:
    def test_all_premises_true_with_margin(self):
        report = convergence_conditions(
            LookAheadAngles(0.0, 0.0),
            make_state(v_g=12.0),
            Point3(500, 0, 100),
            GuidanceParams(delta_lat=0.5, delta_lon=0.5),
        )
        assert report.lat_ok and report.lon_ok and report.sign_ok
        assert report.margin == pytest.approx(12.0 * math.cos(0.5) ** 2, abs=1e-12)
        assert report.all_ok

    def test_lateral_premise_fails_outside_trust_bound(self):
        report = convergence_conditions(
            LookAheadAngles(0.6, 0.0), make_state(), Point3(500, 0, 100),
            GuidanceParams(delta_lat=0.5),
        )
        assert not report.lat_ok
        assert not report.all_ok

    def test_longitudinal_premise_boundary_inclusive(self):
        report = convergence_conditions(
            LookAheadAngles(0.0, 0.5), make_state(), Point3(500, 0, 100),
            GuidanceParams(delta_lon=0.5),
        )
        assert report.lon_ok

    def test_sign_premise(self):
        # climbing while below the target height converges (product <= 0)
        below = convergence_conditions(
            LookAheadAngles(0.0, 0.0),
            make_state(height=80.0, gamma=0.1),
            Point3(500, 0, 100),
            GP,
        )
        assert below.sign_ok
        # climbing while already above it diverges
        above = convergence_conditions(
            LookAheadAngles(0.0, 0.0),
            make_state(height=120.0, gamma=0.1),
            Point3(500, 0, 100),
            GP,
        )
        assert not above.sign_ok


class TestGuidanceParams:
    # guidance_commands and convergence_conditions trust these checks
    def test_rejects_non_positive_gains(self):
        with pytest.raises(ValueError, match="gains"):
            GuidanceParams(k_chi=0.0, k_gamma=1.0)

    def test_rejects_bad_trust_bounds(self):
        with pytest.raises(ValueError, match="delta"):
            GuidanceParams(delta_lat=math.pi / 2)


class TestPathErrors:
    def test_coincident_is_zero(self):
        state = make_state()
        err = path_errors(state, state.position)
        assert (err.e_north, err.e_east, err.e_height) == (0.0, 0.0, 0.0)

    def test_component_signs(self):
        err = path_errors(make_state(north=0, east=0, height=0), Point3(100, 0, 50))
        assert (err.e_north, err.e_east, err.e_height) == (100.0, 0.0, 50.0)

    def test_antisymmetry(self):
        a = make_state(north=3.0, east=-7.0, height=90.0)
        b = Point3(-2.0, 11.0, 140.0)
        ab = path_errors(a, b)
        ba = path_errors(
            UavState(position=b, chi=0.0, gamma=0.0, psi=0.0, v_g=12.0), a.position
        )
        assert (ab.e_north, ab.e_east, ab.e_height) == (
            -ba.e_north,
            -ba.e_east,
            -ba.e_height,
        )
