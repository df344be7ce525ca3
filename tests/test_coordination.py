"""Time-index consensus and speed-command tests.

The line-topology convergence horizon (45 s) was pinned from a dt=0.01
reference integration that crossed the 1 s gap threshold at t = 40.0 s.
"""

import math

import numpy as np
import pytest

from flocksim import (
    CoordinationGains,
    Point3,
    UavLimits,
    UavState,
    WaypointPath,
    consensus_rate,
    speed_command,
    time_index,
)


def make_state(north=0.0, east=0.0, height=100.0, v_g=10.0):
    return UavState(
        position=Point3(north, east, height), chi=0.0, gamma=0.0, psi=0.0, v_g=v_g
    )


class TestCoordinationGains:
    def test_defaults(self):
        gains = CoordinationGains()
        assert gains.k_theta == 1.0
        assert gains.gamma_d == 1.0
        assert gains.k_vg == 0.001
        assert gains.dt == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="k_theta"):
            CoordinationGains(k_theta=0.0)
        with pytest.raises(ValueError, match="k_vg"):
            CoordinationGains(k_vg=-0.1)
        with pytest.raises(ValueError, match="dt"):
            CoordinationGains(dt=0.0)


class TestTimeIndex:
    def test_at_terminus_is_zero(self):
        target = Point3(100.0, 0.0, 100.0)
        path = WaypointPath((Point3(0.0, 0.0, 100.0), target), cursor=1)
        state = make_state(north=100.0, v_g=13.0)
        assert time_index(state, path) == 0.0

    def test_single_remaining_leg(self):
        target = Point3(100.0, 0.0, 100.0)
        path = WaypointPath((Point3(-500.0, 0.0, 100.0), target), cursor=1)
        state = make_state(north=0.0, v_g=10.0)
        assert time_index(state, path) == 10.0

    def test_hand_summed_polyline(self):
        # 50 m to the active waypoint, then segments of 100 m and 200 m,
        # all at 10 m/s: (50 + 100 + 200) / 10 = 35 s
        target = Point3(100.0, 200.0, 100.0)
        path = WaypointPath(
            (Point3(0.0, 0.0, 100.0), Point3(100.0, 0.0, 100.0), target), cursor=0
        )
        state = make_state(north=-50.0, v_g=10.0)
        assert time_index(state, path) == 35.0


class TestConsensusRate:
    def test_empty_inbox_drifts_at_nominal_rate(self):
        gains = CoordinationGains(gamma_d=1.0)
        assert consensus_rate(42.0, [], gains) == 1.0

    def test_agreeing_neighbor_is_fixed_point(self):
        gains = CoordinationGains(gamma_d=1.0)
        assert consensus_rate(42.0, [(0.5, 42.0)], gains) == 1.0

    def test_hand_evaluated_disagreement(self):
        # 1 - 0.5 tanh(2) = 0.51799
        gains = CoordinationGains(k_theta=1.0, gamma_d=1.0)
        rate = consensus_rate(10.0, [(0.5, 8.0)], gains)
        assert rate == pytest.approx(1.0 - 0.5 * math.tanh(2.0), abs=1e-12)
        assert rate == pytest.approx(0.51799, abs=1e-5)

    def test_pairwise_coupling_is_antisymmetric(self):
        gains = CoordinationGains(gamma_d=1.0)
        beta = 0.37
        r1 = consensus_rate(30.0, [(beta, 18.0)], gains)
        r2 = consensus_rate(18.0, [(beta, 30.0)], gains)
        assert r1 + r2 == pytest.approx(2.0 * gains.gamma_d, abs=1e-12)

    def test_rate_bounded_by_total_strength(self):
        gains = CoordinationGains(gamma_d=1.0, k_theta=3.0)
        rng = np.random.default_rng(13)
        for _ in range(100):
            inbox = [
                (float(rng.uniform(0.01, 2.0)), float(rng.uniform(0.0, 300.0)))
                for _ in range(int(rng.integers(1, 6)))
            ]
            rate = consensus_rate(float(rng.uniform(0.0, 300.0)), inbox, gains)
            assert abs(rate - gains.gamma_d) <= sum(b for b, _ in inbox) + 1e-12


class TestSpeedCommand:
    LIMITS = UavLimits(v_g_min=9.0, v_g_max=18.0)

    def test_zero_rate_keeps_speed(self):
        gains = CoordinationGains()
        assert speed_command(100.0, 0.0, 13.5, gains, self.LIMITS) == 13.5

    def test_upper_clip(self):
        # 18 + 0.001*10 = 18.01 exceeds the envelope
        gains = CoordinationGains(k_vg=0.001, dt=1.0)
        assert speed_command(100.0, -10.0, 18.0, gains, self.LIMITS) == 18.0

    def test_lower_clip(self):
        gains = CoordinationGains(k_vg=0.001, dt=1.0)
        assert speed_command(100.0, 5000.0, 9.0, gains, self.LIMITS) == 9.0

    def test_hand_evaluated_decrement(self):
        # 12 - 0.001*500*1 = 11.5
        gains = CoordinationGains(k_vg=0.001, dt=1.0)
        assert speed_command(100.0, 500.0, 12.0, gains, self.LIMITS) == 11.5

    def test_consensus_fixed_point_drift_is_exact(self):
        # all peers agreeing leaves theta_dot = gamma_d, so the command is
        # exactly v_g - k_vg * gamma_d * dt, not v_g itself
        gains = CoordinationGains(k_theta=1.0, gamma_d=1.0, k_vg=0.001, dt=1.0)
        rate = consensus_rate(50.0, [(0.8, 50.0), (0.3, 50.0)], gains)
        cmd = speed_command(50.0, rate, 13.5, gains, self.LIMITS)
        assert cmd == 13.5 - 0.001 * 1.0 * 1.0

    def test_always_within_envelope(self):
        gains = CoordinationGains(k_vg=0.5, dt=1.0)
        rng = np.random.default_rng(19)
        for _ in range(200):
            cmd = speed_command(
                float(rng.uniform(0.0, 400.0)),
                float(rng.uniform(-100.0, 100.0)),
                float(rng.uniform(9.0, 18.0)),
                gains,
                self.LIMITS,
            )
            assert 9.0 <= cmd <= 18.0


class TestLineTopologyConvergence:
    def test_spread_collapses_below_one_second(self):
        # static line 0-1-2-3 with unit link strengths; initial spread 60 s;
        # forward integration of the rate law at dt=0.01 must close the gap
        # within the pinned 45 s horizon
        gains = CoordinationGains(k_theta=1.0, gamma_d=1.0)
        links = {0: (1,), 1: (0, 2), 2: (1, 3), 3: (2,)}
        theta = [0.0, 20.0, 40.0, 60.0]
        assert max(theta) - min(theta) == 60.0
        dt = 0.01
        for _ in range(4500):
            rates = [
                consensus_rate(theta[i], [(1.0, theta[j]) for j in links[i]], gains)
                for i in range(4)
            ]
            theta = [x + dt * r for x, r in zip(theta, rates)]
        assert max(theta) - min(theta) < 1.0
