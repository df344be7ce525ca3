"""The fleet step equals the scalar oracles bit for bit.

``run`` steps guidance, the premise monitor, the autopilot and the RK4
kinematics once per tick over (N,) arrays.  These tests draw whole
fleets, including the edge values of every clip and wrap, and require
each vehicle's column to equal the one-vehicle oracle in
``tests/oracles.py`` with ``==``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    WindOracle,
    autopilot_oracle,
    conditions_oracle,
    guidance_oracle,
    kinematics_oracle,
    look_ahead_oracle,
    wrap_oracle,
)

from flocksim import (
    AutopilotParams,
    GuidanceParams,
    Point3,
    UavLimits,
    UavState,
    WindModel,
    WindParams,
    actuator_bounds,
    convergence_conditions,
    fleet_arrays,
    guidance_commands,
    look_ahead_angles,
    step_autopilot,
    step_kinematics,
    wrap_angle,
)

FLEET_SIZES = (1, 2, 4, 13, 104)
PI = math.pi
GAMMA_CAP = PI / 2 - 1e-9

LIMITS = (
    UavLimits(),
    UavLimits(v_g_min=12.0, v_g_max=14.0, phi_min=-0.3, phi_max=0.45, n_lf_min=0.5, n_lf_max=1.5),
)
GUIDANCE = (
    GuidanceParams(),
    GuidanceParams(k_chi=0.5, k_gamma=0.7, delta_lat=0.1, delta_lon=1.2),
)
AUTOPILOT = (AutopilotParams(), AutopilotParams(tau_phi=0.2, tau_n=3.0, tau_v=0.7, tau_psi=0.3))

EDGE_ANGLES = (PI, -PI, PI / 2, -PI / 2, 0.0, -0.0, math.nextafter(PI, 0.0),
               math.nextafter(-PI, 0.0))
DTS = (0.05, 0.2, 1.0, 5.0)

FLEET_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class Draws:
    """Per-vehicle values from one seeded generator, with edge values mixed in.

    Hypothesis picks the fleet size, the seed and the share of edge values;
    numpy fills the fleet, so a 104-vehicle fleet costs one draw and generic
    floats (where numpy's tan and arcsin would differ from math's) meet
    the clip and wrap boundaries in the same example.
    """

    def __init__(self, n, seed, edge_share):
        self.n = n
        self.rng = np.random.default_rng(seed)
        self.edge_share = edge_share

    def values(self, lo, hi, edges=()):
        """(n,) floats uniform in [lo, hi], each replaced with probability
        ``edge_share`` by one of ``edges`` (by default lo or hi)."""
        lo, hi = np.broadcast_to(lo, self.n), np.broadcast_to(hi, self.n)
        out = self.rng.uniform(lo, hi)
        edge = self.rng.random(self.n) < self.edge_share
        if edges:
            out[edge] = self.rng.choice(edges, self.n)[edge]
        else:
            out[edge] = np.where(self.rng.random(self.n) < 0.5, lo, hi)[edge]
        return out


@st.composite
def fleets(draw):
    n = draw(st.sampled_from(FLEET_SIZES), label="n")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    d = Draws(n, seed, draw(st.sampled_from((0.0, 0.1, 0.5)), label="edge_share"))
    limits = [LIMITS[k] for k in d.rng.integers(0, len(LIMITS), n)]
    lo, hi = actuator_bounds(limits)
    states = [
        UavState(Point3(north, east, height), chi, gamma, psi, v_g=v_g, phi=phi, n_lf=n_lf)
        for north, east, height, chi, gamma, psi, phi, n_lf, v_g in zip(
            d.values(-5000.0, 5000.0).tolist(),
            d.values(-5000.0, 5000.0).tolist(),
            d.values(0.0, 500.0).tolist(),
            d.values(-PI, PI, EDGE_ANGLES).tolist(),
            d.values(-GAMMA_CAP, GAMMA_CAP, (GAMMA_CAP, -GAMMA_CAP, 0.0)).tolist(),
            d.values(-PI, PI, EDGE_ANGLES).tolist(),
            *(d.values(lo[k], hi[k]).tolist() for k in range(3)),
        )
    ]
    y, act = fleet_arrays(states)
    return d, states, limits, y, act, lo, hi


def column(a, i):
    return a[:, i].tolist()


class TestFleetMatchesOracle:
    @FLEET_SETTINGS
    @given(fleet=fleets(), gp=st.sampled_from(GUIDANCE))
    def test_guidance_and_premises(self, fleet, gp):
        # chi_c = chi +- pi puts chi_c - chi on the wrap boundary; the k_chi
        # of GuidanceParams() drives the asin argument beyond +-1, the other
        # keeps it inside
        d, states, limits, y, act, lo, hi = fleet
        chi_c = d.values(-PI, PI, EDGE_ANGLES)
        flip = d.rng.random(d.n) < d.edge_share
        chi_c[flip] = (y[3] + d.rng.choice((-PI, PI), d.n))[flip]
        gamma_c = d.values(-PI / 2, PI / 2)
        target_h = d.values(0.0, 500.0)

        eta_lat, eta_lon = look_ahead_angles(y[3], y[4], chi_c, gamma_c)
        phi_c, n_lf_c = guidance_commands(eta_lat, eta_lon, y, act, gp, lo, hi)
        premises = convergence_conditions(eta_lat, eta_lon, y, act, target_h, gp)
        premises = [p.tolist() for p in premises]
        for i, (state, lim) in enumerate(zip(states, limits)):
            lat, lon = look_ahead_oracle(state, chi_c[i].item(), gamma_c[i].item())
            assert (eta_lat[i], eta_lon[i]) == (lat, lon)
            assert (phi_c[i], n_lf_c[i]) == guidance_oracle(state, lat, lon, gp, lim)
            want = conditions_oracle(state, lat, lon, target_h[i].item(), gp)
            assert tuple(p[i] for p in premises) == want

    @FLEET_SETTINGS
    @given(fleet=fleets(), dt=st.sampled_from(DTS), ap=st.sampled_from(AUTOPILOT))
    def test_autopilot(self, fleet, dt, ap):
        # commands reach beyond every limit, so each clip engages
        d, states, limits, _, act, lo, hi = fleet
        cmd = np.array([d.values(-1.0, 1.0), d.values(-0.5, 3.0), d.values(5.0, 25.0)])
        out = step_autopilot(act, cmd, lo, hi, dt, ap)
        for i, (state, lim) in enumerate(zip(states, limits)):
            want = autopilot_oracle(state, column(cmd, i), lim, dt, ap)
            assert column(out, i) == [want.phi, want.n_lf, want.v_g]

    @FLEET_SETTINGS
    @given(fleet=fleets(), dt=st.sampled_from(DTS), ap=st.sampled_from(AUTOPILOT))
    def test_kinematics(self, fleet, dt, ap):
        # gammas at the cap with a full load factor push past it, so the
        # climb clip engages; the edge angles put chi - psi at +-pi and +-2 pi;
        # gusts sit at +-d_max, the wind model's clip
        d, states, _, y, act, _, _ = fleet
        gusts = np.array([d.values(-0.1, 0.1), d.values(-0.1, 0.1)])
        out = step_kinematics(y, act, gusts, dt, ap)
        for i, state in enumerate(states):
            want = kinematics_oracle(state, gusts[0, i].item(), gusts[1, i].item(), dt, ap)
            p = want.position
            assert column(out, i) == [p.north, p.east, p.height, want.chi, want.gamma, want.psi]

    def test_clip_and_wrap_boundaries(self):
        # the climb cap, a saturated asin clipped to phi_max, and the wrap of -pi
        state = UavState(Point3(0.0, 0.0, 100.0), PI, GAMMA_CAP, -PI, v_g=18.0, phi=0.0, n_lf=2.1)
        y, act = fleet_arrays([state])
        out = step_kinematics(y, act, np.zeros((2, 1)), 1.0, AutopilotParams())
        want = kinematics_oracle(state, 0.0, 0.0, 1.0, AutopilotParams())
        assert out[4, 0] == want.gamma == GAMMA_CAP
        lo, hi = actuator_bounds([UavLimits()])
        gp = GuidanceParams()
        phi_c, _ = guidance_commands(np.array([1.0]), np.array([0.0]), y, act, gp, lo, hi)
        assert phi_c[0] == guidance_oracle(state, 1.0, 0.0, gp, UavLimits())[0] == 0.6
        assert wrap_angle(-PI) == wrap_oracle(-PI) == PI


class TestWindMatchesOracle:
    @pytest.mark.parametrize("d_max", [0.02, 10.0])
    def test_samples_equal_per_call_draws(self, d_max):
        # d_max 0.02 holds the disturbances on the clip for long runs
        params = WindParams(ambient=(2.5, 1.0, -0.5), sigma_u=2.12, sigma_v=2.12, sigma_w=1.4,
                            length_w=50.0, airspeed_nominal=13.5, d_max=d_max)
        model, oracle = WindModel(params, seed=17), WindOracle(params, seed=17)
        got = [model.sample(dt) for dt in [1.0] * 150 + [0.2] * 150]
        want = [oracle.sample(dt) for dt in [1.0] * 150 + [0.2] * 150]
        assert got == want
        assert model.gust.tolist() == oracle.gust.tolist()
        if d_max == 0.02:
            assert sum(abs(v) == d_max for pair in got for v in pair) > 50

    def test_block_draw_equals_per_call_draws(self):
        per_call = np.random.default_rng(5)
        block = np.random.default_rng(5).standard_normal(3 * 500)
        draws = [per_call.standard_normal(3) for _ in range(500)]
        assert block.tolist() == np.concatenate(draws).tolist()


def test_numpy_trig_and_wrap_match_math():
    # The fleet step uses numpy's sin, cos, fmod and mod only because they
    # give the bits of math's on this platform; tan and asin stay per element.
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.uniform(-7.0, 7.0, 20_000), rng.normal(0.0, 1.0, 20_000), EDGE_ANGLES,
                        np.arange(-20, 21) * PI])
    for v in (x, x[::3]):
        assert np.sin(v).tolist() == [math.sin(a) for a in v.tolist()]
        assert np.cos(v).tolist() == [math.cos(a) for a in v.tolist()]
        assert wrap_angle(v).tolist() == [wrap_oracle(a) for a in v.tolist()]
