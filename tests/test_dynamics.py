"""Actuator lag, RK4 kinematics, and gust model tests.

The banked-turn case is checked against an independent fine-step Euler
integration of the same ODE statement, written out locally so the test
does not share code with the implementation.
"""

import math

import numpy as np
import pytest

from flocksim import (
    AutopilotParams,
    Commands,
    Disturbance,
    NO_DISTURBANCE,
    Point3,
    UavLimits,
    UavState,
    WindModel,
    WindParams,
    step_autopilot,
    step_kinematics,
    wrap_angle,
)

GRAVITY = 9.81
AP = AutopilotParams()


def level_state(chi: float = 0.0, v_g: float = 10.0, phi: float = 0.0, n_lf: float = 1.0):
    return UavState(
        position=Point3(0.0, 0.0, 100.0),
        chi=chi,
        gamma=0.0,
        psi=chi,
        v_g=v_g,
        phi=phi,
        n_lf=n_lf,
    )


class TestWrapAngle:
    def test_zero(self):
        assert wrap_angle(0.0) == 0.0

    def test_half_turn_maps_to_positive_boundary(self):
        # range is (-pi, pi], so both pi and -pi land on +pi
        assert wrap_angle(math.pi) == pytest.approx(math.pi, abs=1e-12)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi, abs=1e-12)

    def test_just_past_full_turn(self):
        # 6.2 rad is 2*pi - 0.0832, so it wraps to the small negative angle
        assert wrap_angle(6.2) == pytest.approx(6.2 - 2.0 * math.pi, abs=1e-12)

    def test_full_turn(self):
        assert wrap_angle(2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_many_turns(self):
        assert wrap_angle(7.0 * math.pi + 0.25) == pytest.approx(
            -math.pi + 0.25, abs=1e-12
        )

    def test_preserves_direction_and_range(self):
        rng = np.random.default_rng(3)
        for x in rng.uniform(-50.0, 50.0, size=200):
            w = wrap_angle(float(x))
            assert -math.pi < w <= math.pi
            assert math.sin(w) == pytest.approx(math.sin(x), abs=1e-9)
            assert math.cos(w) == pytest.approx(math.cos(x), abs=1e-9)


class TestUavLimits:
    def test_defaults_valid(self):
        lim = UavLimits()
        assert lim.v_g_min == 9.0
        assert lim.v_g_max == 18.0

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError, match="v_g"):
            UavLimits(v_g_min=15.0, v_g_max=12.0)

    def test_zero_speed_floor_rejected(self):
        # kinematics divides by v_g, so the floor must stay positive
        with pytest.raises(ValueError, match="positive"):
            UavLimits(v_g_min=0.0)

    def test_look_ahead_bounds_must_leave_cosine_positive(self):
        with pytest.raises(ValueError, match="eta_lat"):
            UavLimits(eta_lat_min=-math.pi / 2, eta_lat_max=1.0)
        with pytest.raises(ValueError, match="eta_lon_max"):
            UavLimits(eta_lon_max=2.0)


class TestStepAutopilot:
    def test_fixed_point(self):
        state = level_state(v_g=13.0, phi=0.2, n_lf=1.1)
        cmd = Commands(phi=0.2, n_lf=1.1, v_g=13.0)
        out = step_autopilot(state, cmd, UavLimits(), dt=0.25, ap=AP)
        assert out == state

    def test_unit_lag_reaches_command_in_one_step(self):
        state = level_state(phi=0.0)
        cmd = Commands(phi=0.4, n_lf=1.0, v_g=10.0)
        out = step_autopilot(state, cmd, UavLimits(), dt=0.5, ap=AutopilotParams(tau_phi=0.5))
        assert out.phi == pytest.approx(0.4, abs=1e-15)

    def test_single_step_hand_value(self):
        # phi <- 0 + (0.1 / 0.5) * (0.6 - 0) = 0.12
        state = level_state(phi=0.0)
        cmd = Commands(phi=0.6, n_lf=1.0, v_g=10.0)
        out = step_autopilot(state, cmd, UavLimits(), dt=0.1, ap=AutopilotParams(tau_phi=0.5))
        assert out.phi == pytest.approx(0.12, abs=1e-15)

    def test_long_step_is_deadbeat_not_overshoot(self):
        # dt > tau clamps the update factor at 1 instead of extrapolating past
        # the setpoint
        state = level_state(phi=0.0)
        cmd = Commands(phi=0.3, n_lf=1.0, v_g=10.0)
        out = step_autopilot(state, cmd, UavLimits(), dt=5.0, ap=AutopilotParams(tau_phi=0.5))
        assert out.phi == pytest.approx(0.3, abs=1e-15)

    def test_clip_applies_after_lag(self):
        state = level_state(phi=0.55)
        cmd = Commands(phi=5.0, n_lf=1.0, v_g=10.0)
        out = step_autopilot(state, cmd, UavLimits(), dt=0.5, ap=AutopilotParams(tau_phi=0.5))
        assert out.phi == 0.6

    def test_states_never_leave_limits(self):
        limits = UavLimits()
        rng = np.random.default_rng(11)
        state = level_state(v_g=13.0)
        for _ in range(200):
            cmd = Commands(
                phi=float(rng.uniform(-4.0, 4.0)),
                n_lf=float(rng.uniform(-3.0, 6.0)),
                v_g=float(rng.uniform(-5.0, 40.0)),
            )
            state = step_autopilot(state, cmd, limits, dt=float(rng.uniform(0.05, 3.0)), ap=AP)
            assert limits.phi_min <= state.phi <= limits.phi_max
            assert limits.n_lf_min <= state.n_lf <= limits.n_lf_max
            assert limits.v_g_min <= state.v_g <= limits.v_g_max

    def test_only_actuator_channels_change(self):
        state = level_state(chi=0.3)
        cmd = Commands(phi=0.2, n_lf=1.2, v_g=12.0)
        out = step_autopilot(state, cmd, UavLimits(), dt=0.1, ap=AP)
        assert out.position == state.position
        assert out.chi == state.chi
        assert out.gamma == state.gamma
        assert out.psi == state.psi


class TestAutopilotParams:
    def test_validation(self):
        # step_autopilot and step_kinematics trust these; dt is checked by the
        # loader (TestLoadScenario::test_non_positive_dt) and by step_kinematics
        with pytest.raises(ValueError, match="tau_v"):
            AutopilotParams(tau_v=-1.0)
        with pytest.raises(ValueError, match="tau_psi"):
            AutopilotParams(tau_psi=0.0)


class TestStepKinematics:
    def test_level_trimmed_flight_advances_north_exactly(self):
        # all derivatives are constant here, so RK4 integrates exactly
        out = step_kinematics(level_state(v_g=10.0), NO_DISTURBANCE, dt=1.0, ap=AP)
        assert out.position.north == pytest.approx(10.0, abs=1e-9)
        assert out.position.east == pytest.approx(0.0, abs=1e-9)
        assert out.position.height == pytest.approx(100.0, abs=1e-9)
        assert out.gamma == pytest.approx(0.0, abs=1e-12)

    def test_east_axis_symmetry(self):
        out = step_kinematics(
            level_state(chi=math.pi / 2, v_g=10.0), NO_DISTURBANCE, dt=1.0, ap=AP
        )
        assert out.position.east == pytest.approx(10.0, abs=1e-9)
        assert out.position.north == pytest.approx(0.0, abs=1e-9)

    def test_trimmed_climb_is_an_exact_line(self):
        # gamma != 0 with n_lf = cos(gamma) zeroes every angular rate, so the
        # path must stay on the analytic 3D line
        gamma = 0.2
        chi = 0.7
        state = UavState(
            position=Point3(0.0, 0.0, 100.0),
            chi=chi,
            gamma=gamma,
            psi=chi,
            v_g=13.5,
            phi=0.0,
            n_lf=math.cos(gamma),
        )
        for _ in range(100):
            state = step_kinematics(state, NO_DISTURBANCE, dt=1.0, ap=AP)
        dist = 13.5 * 100.0
        expect = (
            dist * math.cos(gamma) * math.cos(chi),
            dist * math.cos(gamma) * math.sin(chi),
            100.0 + dist * math.sin(gamma),
        )
        assert state.position.north == pytest.approx(expect[0], abs=1e-6)
        assert state.position.east == pytest.approx(expect[1], abs=1e-6)
        assert state.position.height == pytest.approx(expect[2], abs=1e-6)
        assert state.chi == pytest.approx(chi, abs=1e-12)
        assert state.gamma == pytest.approx(gamma, abs=1e-12)

    @staticmethod
    def _euler_banked_turn(n_lf: float, dt: float, steps: int):
        """Independent reference: forward-Euler integration of the angular
        subsystem (position decouples from the course solution)."""
        chi = gamma = psi = 0.0
        v_g = 15.0
        for _ in range(steps):
            d_chi = (GRAVITY / v_g) * math.tan(0.3) * math.cos(chi - psi)
            d_gamma = (GRAVITY / v_g) * (n_lf * math.cos(0.3) - math.cos(gamma))
            d_psi = math.atan2(math.sin(chi - psi), math.cos(chi - psi))
            chi += dt * d_chi
            gamma += dt * d_gamma
            psi += dt * d_psi
        return chi

    def _rk4_banked_turn_chi(self, dt: float) -> float:
        n_lf = 1.0 / math.cos(0.3)
        state = level_state(v_g=15.0, phi=0.3, n_lf=n_lf)
        for _ in range(round(10.0 / dt)):
            state = step_kinematics(state, NO_DISTURBANCE, dt=dt, ap=AP)
        return state.chi

    def test_banked_turn_matches_fine_step_reference(self):
        n_lf = 1.0 / math.cos(0.3)
        reference = self._euler_banked_turn(n_lf, dt=1e-4, steps=100_000)
        assert self._rk4_banked_turn_chi(dt=0.5) == pytest.approx(reference, abs=1e-5)

    def test_halving_dt_cuts_error_by_at_least_eight(self):
        n_lf = 1.0 / math.cos(0.3)
        reference = self._euler_banked_turn(n_lf, dt=1e-4, steps=100_000)
        err_coarse = abs(self._rk4_banked_turn_chi(dt=1.0) - reference)
        err_fine = abs(self._rk4_banked_turn_chi(dt=0.5) - reference)
        assert err_coarse >= 8.0 * err_fine

    def test_course_stays_wrapped(self):
        state = level_state(chi=math.pi - 0.05, phi=0.3, n_lf=1.0 / math.cos(0.3))
        state = UavState(
            position=state.position,
            chi=state.chi,
            gamma=0.0,
            psi=state.chi,
            v_g=15.0,
            phi=0.3,
            n_lf=state.n_lf,
        )
        for _ in range(10):
            state = step_kinematics(state, NO_DISTURBANCE, dt=1.0, ap=AP)
            assert -math.pi < state.chi <= math.pi
            assert -math.pi < state.psi <= math.pi

    def test_climb_angle_stays_below_vertical(self):
        state = UavState(
            position=Point3(0.0, 0.0, 100.0),
            chi=0.0,
            gamma=1.5,
            psi=0.0,
            v_g=12.0,
            phi=0.0,
            n_lf=2.1,
        )
        for _ in range(50):
            state = step_kinematics(state, NO_DISTURBANCE, dt=1.0, ap=AP)
            assert abs(state.gamma) < math.pi / 2
            assert math.isfinite(state.position.height)

    def test_disturbance_shifts_course_rate(self):
        base = step_kinematics(level_state(v_g=10.0), NO_DISTURBANCE, dt=1.0, ap=AP)
        pushed = step_kinematics(
            level_state(v_g=10.0), Disturbance(d_chi=0.05, d_gamma=0.0), dt=1.0, ap=AP
        )
        assert base.chi == pytest.approx(0.0, abs=1e-12)
        assert pushed.chi == pytest.approx(0.05, abs=1e-12)

    def test_deterministic(self):
        a = step_kinematics(level_state(phi=0.1), Disturbance(0.01, -0.02), dt=0.7, ap=AP)
        b = step_kinematics(level_state(phi=0.1), Disturbance(0.01, -0.02), dt=0.7, ap=AP)
        assert a == b

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            step_kinematics(level_state(), NO_DISTURBANCE, dt=-1.0, ap=AP)


class TestVelocityUnit:
    def test_cardinal_directions(self):
        north = level_state(chi=0.0).velocity_unit()
        east = level_state(chi=math.pi / 2).velocity_unit()
        np.testing.assert_allclose(north, [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(east, [0.0, 1.0, 0.0], atol=1e-12)

    def test_unit_norm(self):
        state = UavState(
            position=Point3(0.0, 0.0, 100.0),
            chi=1.1,
            gamma=0.4,
            psi=1.1,
            v_g=12.0,
        )
        assert np.linalg.norm(state.velocity_unit()) == pytest.approx(1.0, abs=1e-12)


REFERENCE_TURBULENCE = dict(
    sigma_u=2.12,
    sigma_v=2.12,
    sigma_w=1.4,
    length_u=200.0,
    length_v=200.0,
    length_w=50.0,
    airspeed_nominal=13.5,
)


class TestWindModel:
    def test_no_turbulence_no_ambient_is_silent(self):
        wind = WindModel(WindParams(), seed=1)
        for _ in range(100):
            d = wind.sample(1.0)
            assert d.d_chi == 0.0
            assert d.d_gamma == 0.0

    def test_ambient_maps_lateral_and_vertical_components(self):
        # north component is along-track and does not disturb the angle rates
        wind = WindModel(
            WindParams(ambient=(9.0, 2.7, -1.35), airspeed_nominal=13.5, d_max=1.0), seed=1
        )
        for _ in range(10):
            d = wind.sample(1.0)
            assert d.d_chi == pytest.approx(2.7 / 13.5, abs=1e-15)
            assert d.d_gamma == pytest.approx(-1.35 / 13.5, abs=1e-15)

    def test_pure_headwind_ambient_is_silent(self):
        wind = WindModel(WindParams(ambient=(2.5, 0.0, 0.0)), seed=7)
        d = wind.sample(1.0)
        assert d.d_chi == 0.0
        assert d.d_gamma == 0.0

    def test_pinned_regression_seed_42(self):
        # recorded once from this implementation; the claim under test is
        # that the stream never changes, not that these numbers are special.
        # d_chi rides the -0.1 clip on ticks 2-4 (sigma_v/V ~ 0.157 > d_max).
        wind = WindModel(WindParams(ambient=(2.5, 0.0, 0.0), **REFERENCE_TURBULENCE), seed=42)
        expected = [
            (-0.0580367535863033, 0.050270800783386686),
            (-0.1, -0.04885396673745444),
            (-0.1, -0.03841958287250303),
            (-0.1, 0.022773565058902854),
            (-0.03986482311422045, 0.04870212430701301),
        ]
        got = []
        for _ in range(5):
            d = wind.sample(1.0)
            got.append((d.d_chi, d.d_gamma))
        assert got == expected

    def test_stationary_variance_matches_filter_analysis(self):
        # wide d_max so the clip never engages and the Gauss-Markov filter's
        # stationary variance (sigma_v / V_nom)^2 shows through
        wind = WindModel(WindParams(d_max=10.0, **REFERENCE_TURBULENCE), seed=5)
        samples = np.array([wind.sample(1.0).d_chi for _ in range(100_000)])
        target = (2.12 / 13.5) ** 2
        assert abs(np.var(samples) - target) <= 0.2 * target

    def test_disturbance_bounded_by_d_max(self):
        wind = WindModel(WindParams(d_max=0.02, **REFERENCE_TURBULENCE), seed=9)
        for _ in range(1000):
            d = wind.sample(1.0)
            assert abs(d.d_chi) <= 0.02
            assert abs(d.d_gamma) <= 0.02

    def test_same_seed_same_stream(self):
        a = WindModel(WindParams(**REFERENCE_TURBULENCE), seed=123)
        b = WindModel(WindParams(**REFERENCE_TURBULENCE), seed=123)
        stream_a = [(d.d_chi, d.d_gamma) for d in (a.sample(1.0) for _ in range(20))]
        stream_b = [(d.d_chi, d.d_gamma) for d in (b.sample(1.0) for _ in range(20))]
        assert stream_a == stream_b

    def test_different_seed_different_stream(self):
        a = WindModel(WindParams(**REFERENCE_TURBULENCE), seed=123)
        b = WindModel(WindParams(**REFERENCE_TURBULENCE), seed=124)
        stream_a = [a.sample(1.0).d_chi for _ in range(20)]
        stream_b = [b.sample(1.0).d_chi for _ in range(20)]
        assert stream_a != stream_b


class TestWindParams:
    def test_validation(self):
        # WindModel and WindModel.sample trust these; dt is checked by the
        # loader (TestLoadScenario::test_non_positive_dt)
        with pytest.raises(ValueError, match="sigma"):
            WindParams(sigma_v=-1.0)
        with pytest.raises(ValueError, match="length"):
            WindParams(length_w=0.0)
        with pytest.raises(ValueError, match="ambient"):
            WindParams(ambient=(1.0, 2.0))
        with pytest.raises(ValueError, match="d_max"):
            WindParams(d_max=0.0)
        with pytest.raises(ValueError, match="airspeed"):
            WindParams(airspeed_nominal=0.0)
