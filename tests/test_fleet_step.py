"""The fleet step equals the scalar oracles bit for bit.

``run`` walks the virtual targets, then makes one ``comm_step`` (time
index, reference angles, consensus rate and speed command) and one
``control_step`` (guidance, the premise monitor, the autopilot, wind and
the RK4 kinematics) per tick over (N,) arrays.  These tests draw whole
fleets, including the edge values of every clip, wrap and acceptance
test, and require each vehicle's column to equal the one-vehicle oracle
in ``tests/oracles.py`` with ``==``.
"""

import contextlib
import math
import shutil
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    COINCIDENT_EPS,
    WindOracle,
    advance_oracle,
    autopilot_oracle,
    conditions_oracle,
    consensus_oracle,
    guidance_oracle,
    kinematics_oracle,
    look_ahead_oracle,
    reference_angles_oracle,
    speed_oracle,
    time_index_oracle,
    wrap_oracle,
)

from flocksim import (
    AutopilotParams,
    CoordinationGains,
    FleetPaths,
    GuidanceParams,
    Point3,
    UavLimits,
    UavState,
    WindModel,
    WindParams,
    actuator_bounds,
    advance_virtual_target,
    comm_step,
    consensus_rate,
    control_step,
    convergence_conditions,
    export,
    fleet_arrays,
    guidance_commands,
    load_scenario,
    look_ahead_angles,
    run,
    step_autopilot,
    step_kinematics,
    wrap_angle,
)
from flocksim import dynamics, guidance, presets
from flocksim.dynamics import _ARRAY_MIN_N, GRAVITY, _FleetWind, _rk4_arrays, _rk4_floats
from flocksim.harness import WALL_CLOCK_FILES

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
WINDS = (
    WindParams(),
    WindParams(ambient=(2.5, 1.0, -0.5), sigma_u=2.12, sigma_v=2.12, sigma_w=1.4, d_max=0.02),
)

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
def fleets(draw, sizes=st.sampled_from(FLEET_SIZES)):
    n = draw(sizes, label="n")
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
        premises = convergence_conditions(eta_lat, eta_lon, y, target_h, gp)
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

    @FLEET_SETTINGS
    @given(fleet=fleets(), dt=st.sampled_from(DTS), gp=st.sampled_from(GUIDANCE),
           ap=st.sampled_from(AUTOPILOT), wind=st.sampled_from(WINDS))
    def test_control_step(self, fleet, dt, gp, ap, wind):
        # the chain in run's order: look-ahead, commands, premises, the
        # autopilot, the fleet's gusts, then RK4 on the autopilot's output
        d, states, limits, y, act, lo, hi = fleet
        chi_c = d.values(-PI, PI, EDGE_ANGLES)
        gamma_c = d.values(-PI / 2, PI / 2)
        v_cmd = d.values(5.0, 25.0)
        target_h = d.values(0.0, 500.0)
        seeds = d.rng.integers(0, 2**32, d.n).tolist()
        y_next, act_next, cmd, (eta_lat, eta_lon), premises = control_step(
            y, act, chi_c, gamma_c, v_cmd, target_h, _FleetWind(wind, seeds), lo, hi, dt, gp, ap
        )
        premises = [p.tolist() for p in premises]
        for i, (state, lim, seed) in enumerate(zip(states, limits, seeds)):
            lat, lon = look_ahead_oracle(state, chi_c[i].item(), gamma_c[i].item())
            assert (eta_lat[i], eta_lon[i]) == (lat, lon)
            phi_c, n_lf_c = guidance_oracle(state, lat, lon, gp, lim)
            assert column(cmd, i) == [phi_c, n_lf_c, v_cmd[i]]
            assert tuple(p[i] for p in premises) == conditions_oracle(state, lat, lon, target_h[i].item(), gp)
            steered = autopilot_oracle(state, (phi_c, n_lf_c, v_cmd[i].item()), lim, dt, ap)
            assert column(act_next, i) == [steered.phi, steered.n_lf, steered.v_g]
            want = kinematics_oracle(steered, *WindOracle(wind, seed).sample(dt), dt, ap)
            p = want.position
            assert column(y_next, i) == [p.north, p.east, p.height, want.chi, want.gamma, want.psi]

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


SIZES = (4, 13)  # fleet sizes on both sides of the float-kernel threshold

# Inputs where math raises and numpy warns or raises: (block, row, value).
MATH_REJECTS = [("y", 3, math.inf), ("y", 4, -math.inf), ("y", 5, math.inf), ("act", 0, math.inf),
                ("act", 2, 0.0), ("act", 2, -0.0), ("gusts", 0, math.inf)]


def block_state(y, act, i):
    """Vehicle i of the (6, N) kinematic and (3, N) actuator blocks."""
    north, east, height, chi, gamma, psi = column(y, i)
    phi, n_lf, v_g = column(act, i)
    return UavState(Point3(north, east, height), chi, gamma, psi, v_g=v_g, phi=phi, n_lf=n_lf)


def outcome(step, *args):
    """The bytes of ``step(*args)`` (of each array, for a tuple) or its exception, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = step(*args)
            result = [a.tobytes() for a in result] if isinstance(result, tuple) else result.tobytes()
        except (ValueError, ZeroDivisionError) as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


class TestKinematicKernels:
    def test_sizes_straddle_float_threshold(self):
        assert SIZES[0] < _ARRAY_MIN_N <= SIZES[1]

    @FLEET_SETTINGS
    @given(fleet=fleets(st.integers(1, 2 * _ARRAY_MIN_N)), dt=st.sampled_from(DTS),
           ap=st.sampled_from(AUTOPILOT), nan_share=st.sampled_from((0.0, 0.05)))
    def test_each_kernel_equals_the_oracle(self, fleet, dt, ap, nan_share):
        # the fleet draws put angles at +-pi and gamma at the cap, DTS reach
        # beyond every tau_psi, and NaN entries (numpy's positive NaN) pass
        # through bit for bit
        d, _, _, y, act, _, _ = fleet
        gusts = np.array([d.values(-0.1, 0.1), d.values(-0.1, 0.1)])
        for values in (y, act, gusts):
            values[d.rng.random(values.shape) < nan_share] = np.nan
        for kernel in (_rk4_floats, _rk4_arrays):
            out = kernel(y, act, gusts, dt, ap.tau_psi)
            for i in range(d.n):
                want = kinematics_oracle(block_state(y, act, i), gusts[0, i].item(), gusts[1, i].item(), dt, ap)
                p = want.position
                assert out[:, i].tobytes() == np.array(
                    [p.north, p.east, p.height, want.chi, want.gamma, want.psi]).tobytes()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("where, row, value", MATH_REJECTS)
    def test_inputs_math_rejects_get_the_array_outcome(self, n, where, row, value):
        state = UavState(Point3(0.0, 0.0, 100.0), 0.3, 0.1, 0.2, v_g=12.0, phi=0.1, n_lf=1.0)
        y, act = fleet_arrays([state] * n)
        blocks = {"y": y, "act": act, "gusts": np.zeros((2, n))}
        blocks[where][row, n // 2] = value
        args = (y, act, blocks["gusts"], 1.0)
        with pytest.raises((ValueError, ZeroDivisionError)):
            _rk4_floats(*args, AutopilotParams().tau_psi)
        want = outcome(_rk4_arrays, *args, AutopilotParams().tau_psi)
        assert isinstance(want[0], tuple) or want[1], "numpy neither raised nor warned"
        assert outcome(step_kinematics, *args, AutopilotParams()) == want

    def test_negative_zero_east_stays_negative_zero(self):
        # Straight and level with every east-bound input at -0.0: all four
        # east rates are -0.0, so a stage sum that started from 0.0 would
        # export +0.0.  The fleet draws never give -0.0 for east, phi or a gust.
        state = UavState(Point3(0.0, -0.0, 100.0), -0.0, 0.0, -0.0, v_g=12.0, phi=-0.0, n_lf=1.0)
        y, act = fleet_arrays([state])
        gusts = np.array([[-0.0], [0.0]])
        ap = AutopilotParams()
        want = kinematics_oracle(state, -0.0, 0.0, 1.0, ap)
        assert np.float64(want.position.east).tobytes() == np.float64(-0.0).tobytes()
        for kernel in (_rk4_floats, _rk4_arrays):
            assert kernel(y, act, gusts, 1.0, ap.tau_psi)[1, 0].tobytes() == np.float64(-0.0).tobytes()

    @pytest.mark.parametrize("name", ("reference_4uav", "reference_4uav_dropout"))
    def test_small_fleet_runs_never_take_the_array_step(self, name, scenario_dir, monkeypatch):
        # An ordinary input that raised in _rk4_floats, _headings_floats or
        # _commands_floats would fall back to the array path with the same
        # bytes and only the speed lost.
        calls = []

        def spy(*args):
            calls.append(args[0].shape)
            return _rk4_arrays(*args)

        def raising(kernel):
            def wrapped(*args):
                try:
                    return kernel(*args)
                except ValueError:
                    calls.append(kernel.__name__)
                    raise
            return wrapped

        monkeypatch.setattr(dynamics, "_rk4_arrays", spy)
        for kernel in ("_headings_floats", "_commands_floats"):
            monkeypatch.setattr(guidance, kernel, raising(getattr(guidance, kernel)))
        run(load_scenario(f"{scenario_dir}/{name}.yaml"))
        assert not calls, f"{len(calls)} array steps"

    def test_wrap_angle_float_equals_array(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.uniform(-30.0, 30.0, 5_000), EDGE_ANGLES, np.arange(-20, 21) * PI,
                            [1e300, -1e300, 5e-324, -5e-324, math.nan]])
        wrapped = [wrap_angle(a) for a in x.tolist()]
        assert {type(w) for w in wrapped} == {float}
        assert np.array(wrapped).tobytes() == wrap_angle(x).tobytes()
        # the documented exception: only the float branch keeps a NaN's sign
        signs = np.signbit([wrap_angle(-math.nan), *wrap_angle(np.array([-math.nan, math.nan])).tolist()])
        assert signs.tolist() == [True, False, False]


FLOATS, ARRAYS = 10**9, 0  # an _ARRAY_MIN_N that puts every fleet on the float kernels, or on none


def at_threshold(threshold, f, *args):
    """``outcome(f, *args)`` with ``_ARRAY_MIN_N`` at ``threshold``."""
    with mock.patch.object(dynamics, "_ARRAY_MIN_N", threshold):
        return outcome(f, *args)


def walk_outcome(threshold, waypoints, cursor, y, gp):
    """``at_threshold`` of one walk over fresh paths, and the cursors it leaves."""
    paths = FleetPaths(waypoints, cursor)
    return at_threshold(threshold, advance_virtual_target, paths, y, gp), paths.cursor.tolist()


GUIDANCE_KERNEL = GUIDANCE + (GuidanceParams(k_chi=1.0, k_gamma=1.0),)
# (phi_min, phi_max, n_lf_min, n_lf_max) rails: +-pi/2 meet a saturated asin,
# the signed zeros a roll of +-0.0, 1.0 the load factor of a level, unrolled vehicle
RAILS = [(-PI / 2, PI / 2, 0.0, 2.1), (-0.0, 0.6, 1.0, 1.5), (-0.6, 0.0, 0.5, 1.0), (-0.0, 0.0, 1.0, 1.0)]
SPECIALS = (0.0, -0.0, math.nan)


@st.composite
def walks(draw):
    """Paths, cursors, a (6, N) block and guidance params for one walk.

    With probability ``edge_share`` a vehicle has the waypoints from its
    cursor on placed behind it (the walk passes them all in one tick), or
    its active waypoint on its position (met at an acceptance radius of 0).
    """
    n = draw(st.integers(1, 2 * _ARRAY_MIN_N), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    edge_share = draw(st.sampled_from((0.0, 0.3, 1.0)), label="edge_share")
    gp = GuidanceParams(acceptance_radius=draw(st.sampled_from((0.0, 40.0, 120.0)), label="radius"))
    states, waypoints, cursor = [], [], []
    for _ in range(n):
        p = rng.integers(-2000, 2000, 3).astype(float)
        chi = float(rng.choice(EDGE_ANGLES)) if rng.random() < edge_share else rng.uniform(-PI, PI)
        gamma = float(rng.choice((0.0, -0.0, GAMMA_CAP))) if rng.random() < edge_share else rng.uniform(-1.0, 1.0)
        m = int(rng.integers(2, 7))
        c = int(rng.integers(0, m))
        points = p + rng.uniform(-300.0, 300.0, (m, 3))
        kind = rng.integers(0, 2) if rng.random() < edge_share else -1
        if kind == 0:
            mu = np.array([math.cos(gamma) * math.cos(chi), math.cos(gamma) * math.sin(chi), math.sin(gamma)])
            points[c:] = p - np.outer(np.arange(1, m - c + 1) * 50.0, mu)
        elif kind == 1:
            points[c] = p
        states.append(UavState(Point3(*p.tolist()), chi, gamma, 0.0, v_g=12.0))
        waypoints.append(points)
        cursor.append(c)
    return waypoints, cursor, fleet_arrays(states)[0], gp


class TestSteeringKernels:
    """The float kernels of the walk, the steering commands and the consensus rate equal their array paths."""

    @FLEET_SETTINGS
    @given(fleet=fleets(st.integers(1, 2 * _ARRAY_MIN_N)), gp=st.sampled_from(GUIDANCE_KERNEL),
           special_share=st.sampled_from((0.0, 0.1, 0.4)))
    def test_guidance_commands(self, fleet, gp, special_share):
        d, _, _, y, act, lo, hi = fleet
        eta_lat, eta_lon = d.values(-PI, PI, (PI / 2, -PI / 2, *SPECIALS)), d.values(-PI / 2, PI / 2, SPECIALS)
        for row in (y[4], act[0], act[2]):
            pick = d.rng.random(d.n) < special_share
            row[pick] = d.rng.choice(SPECIALS, d.n)[pick]
        rails = np.array(RAILS)[d.rng.integers(0, len(RAILS), d.n)].T
        pick = d.rng.random(d.n) < special_share
        lo[:2, pick], hi[:2, pick] = rails[::2, pick], rails[1::2, pick]
        # roll 0 at v_g = g puts the asin argument at exactly -+1 for eta_lat = +-pi/2 when k_chi = 1
        pick = d.rng.random(d.n) < special_share
        act[0, pick], act[2, pick] = 0.0, GRAVITY
        args = (eta_lat, eta_lon, y, act, gp, lo, hi)
        arrays = at_threshold(ARRAYS, guidance_commands, *args)
        assert outcome(guidance._commands_floats, *args)[0] == arrays[0]
        assert at_threshold(FLOATS, guidance_commands, *args) == arrays

    def test_guidance_commands_edges(self):
        # eta_lat = -pi/2, k_chi = 1, roll 0 and v_g = g: asin argument
        # exactly 1 (and -1 for +pi/2); at v_g = 18 and eta_lat = -1.2, beyond 1
        gp = GuidanceParams(k_chi=1.0, k_gamma=1.0)
        eta_lat = np.array([-PI / 2, PI / 2, -1.2, -0.0, math.nan, 1.0])
        eta_lon = np.array([0.0, -0.0, 0.2, -0.0, 0.1, math.nan])
        state = UavState(Point3(0.0, 0.0, 100.0), 0.0, 0.0, 0.0, v_g=GRAVITY, phi=0.0, n_lf=1.0)
        y, act = fleet_arrays([state] * 6)
        act[2, 2] = 18.0
        lo, hi = (np.array([[-PI / 2, -PI / 2, -0.6, 0.0, -0.6, -0.6], [0.0, 0.0, 0.0, 1.0, 0.0, 0.0], [9.0] * 6]),
                  np.array([[PI / 2, PI / 2, 0.6, 0.6, 0.6, 0.6], [2.1, 2.1, 2.1, 1.5, 2.1, 2.1], [18.0] * 6]))
        phi_c, n_lf_c = guidance._commands_floats(eta_lat, eta_lon, y, act, gp, lo, hi)
        # ties on the +-pi/2 rails, the -0.6 rail, a -0.0 roll on the 0.0 rail
        # with the load factor on its 1.0 rail, and NaN through both clips
        assert phi_c[:3].tolist() == [-PI / 2, PI / 2, -0.6] and n_lf_c[:2].tolist() == [2.1, 2.1]
        assert np.signbit(phi_c[3]) and n_lf_c[3] == 1.0 and np.isnan(phi_c[4]) and np.isnan(n_lf_c[5])
        args = (eta_lat, eta_lon, y, act, gp, lo, hi)
        assert at_threshold(FLOATS, guidance_commands, *args) == at_threshold(ARRAYS, guidance_commands, *args)

    @FLEET_SETTINGS
    @given(n=st.integers(1, 2 * _ARRAY_MIN_N), w=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           special_share=st.sampled_from((0.0, 0.1, 0.4)),
           gains=st.sampled_from((CoordinationGains(), CoordinationGains(k_theta=0.05, gamma_d=0.9))))
    def test_consensus_rate(self, n, w, seed, special_share, gains):
        # a received value equal to the vehicle's own gives tanh(0), which an
        # inf strength (coincident vehicles) turns into NaN
        d = Draws(n, seed, special_share)
        theta = d.values(0.0, 200.0, SPECIALS)
        received = np.array([d.values(0.0, 200.0, SPECIALS) for _ in range(w)]).T
        same = d.rng.random((n, w)) < special_share
        received[same] = np.broadcast_to(theta[:, None], (n, w))[same]
        strength = np.array([d.values(0.0, 2.0, (0.0, -0.0, math.inf)) for _ in range(w)]).T
        args = (theta, received, strength, gains)
        assert at_threshold(FLOATS, consensus_rate, *args) == at_threshold(ARRAYS, consensus_rate, *args)

    def test_consensus_rate_inf_strength_at_tanh_zero(self):
        theta, received = np.array([5.0, 0.0]), np.array([[5.0, 7.0], [-0.0, 1.0]])
        args = (theta, received, np.array([[math.inf, 1.0], [math.inf, 0.0]]), CoordinationGains())
        floats = at_threshold(FLOATS, consensus_rate, *args)
        assert floats == at_threshold(ARRAYS, consensus_rate, *args)
        assert np.isnan(np.frombuffer(floats[0])).all() and floats[1] == []

    @FLEET_SETTINGS
    @given(walk=walks())
    def test_advance_virtual_target(self, walk):
        waypoints, cursor, y, gp = walk
        floats = walk_outcome(FLOATS, waypoints, cursor, y, gp)
        assert floats == walk_outcome(ARRAYS, waypoints, cursor, y, gp)
        assert floats[0][1] == []

    def test_walk_edges(self):
        # vehicle 0 flies north with its next three waypoints behind it,
        # vehicle 1 sits on its active waypoint at an acceptance radius of 0
        waypoints = [[(-50.0, 0.0, 100.0), (-100.0, 0.0, 100.0), (-150.0, 0.0, 100.0), (500.0, 0.0, 100.0)],
                     [(10.0, 20.0, 100.0), (900.0, 20.0, 100.0)]]
        y = fleet_arrays([UavState(Point3(0.0, 0.0, 100.0), 0.0, 0.0, 0.0, v_g=12.0),
                          UavState(Point3(10.0, 20.0, 100.0), 0.0, -0.0, 0.0, v_g=12.0)])[0]
        gp = GuidanceParams(acceptance_radius=0.0)
        floats = walk_outcome(FLOATS, waypoints, [0, 0], y, gp)
        assert floats[1] == [3, 1]
        assert floats == walk_outcome(ARRAYS, waypoints, [0, 0], y, gp)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("where, row, value", [
        ("eta_lat", 0, math.inf), ("eta_lon", 0, -math.inf), ("y", 4, math.inf), ("act", 0, -math.inf)])
    def test_infinite_angle_takes_the_array_commands(self, n, where, row, value):
        state = UavState(Point3(0.0, 0.0, 100.0), 0.3, 0.1, 0.2, v_g=12.0, phi=0.1, n_lf=1.0)
        y, act = fleet_arrays([state] * n)
        blocks = {"eta_lat": np.full((1, n), 0.2), "eta_lon": np.full((1, n), 0.1), "y": y, "act": act}
        blocks[where][row, n // 2] = value
        lo, hi = actuator_bounds([UavLimits()] * n)
        args = (blocks["eta_lat"][0], blocks["eta_lon"][0], y, act, GuidanceParams(), lo, hi)
        with pytest.raises(ValueError):
            guidance._commands_floats(*args)
        want = at_threshold(ARRAYS, guidance_commands, *args)
        assert want[1], "numpy did not warn"
        assert at_threshold(FLOATS, guidance_commands, *args) == want

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("row, value", [(3, math.inf), (4, -math.inf)])
    def test_infinite_angle_takes_the_array_walk(self, n, row, value):
        state = UavState(Point3(0.0, 0.0, 100.0), 0.3, 0.1, 0.2, v_g=12.0)
        y = fleet_arrays([state] * n)[0]
        y[row, n // 2] = value
        waypoints = [[(60.0, 30.0, 100.0), (900.0, 400.0, 100.0)]] * n
        with pytest.raises(ValueError):
            guidance._headings_floats(y)
        want = walk_outcome(ARRAYS, waypoints, None, y, GuidanceParams())
        assert want[0][1], "numpy did not warn"
        assert walk_outcome(FLOATS, waypoints, None, y, GuidanceParams()) == want


# Ways to place a vehicle against its active waypoint, beside random paths.
ON_RADIUS, BEHIND, SIDEWAYS, AT_TERMINUS, ON_TERMINUS, SPLICED = range(6)
PLACEMENTS = 6


def placed_waypoint(kind, state, r):
    """The active waypoint for an edge ``kind``, or None for a random one.

    On the acceptance radius the offset is exact, since the position is
    whole metres; sideways puts the waypoint square to the velocity, where
    the along-track product is zero up to rounding.
    """
    p = state.position
    if kind == ON_RADIUS:
        return (p.north + 0.6 * r, p.east, p.height - 0.8 * r)
    if kind in (BEHIND, SIDEWAYS):
        cg = math.cos(state.gamma)
        mu = (cg * math.cos(state.chi), cg * math.sin(state.chi), math.sin(state.gamma))
        side = (-math.sin(state.chi), math.cos(state.chi), 0.0)
        step = tuple(-150.0 * m for m in mu) if kind == BEHIND else tuple(150.0 * v for v in side)
        return (p.north + step[0], p.east + step[1], p.height + step[2])
    if kind == ON_TERMINUS:
        return (p.north, p.east, p.height)
    return None


@st.composite
def targeted_fleets(draw):
    """A fleet, one path per vehicle, guidance params and the vehicles to splice.

    For n >= PLACEMENTS every placement occurs in every example; smaller
    fleets take consecutive placements from a drawn start.  Other vehicles
    draw a placement with probability ``edge_share``.
    """
    n = draw(st.sampled_from(FLEET_SIZES), label="n")
    d = Draws(n, draw(st.integers(0, 2**32 - 1), label="seed"),
              draw(st.sampled_from((0.0, 0.3, 1.0)), label="edge_share"))
    gp = draw(st.sampled_from((GuidanceParams(), GuidanceParams(acceptance_radius=120.0),
                               GuidanceParams(acceptance_radius=0.0))), label="gp")
    first = draw(st.integers(0, PLACEMENTS - 1), label="first placement")
    rng = d.rng
    kinds = np.where(rng.random(n) < d.edge_share, rng.integers(0, PLACEMENTS, n), -1)
    kinds[:PLACEMENTS] = (first + np.arange(min(n, PLACEMENTS))) % PLACEMENTS
    states, paths, spliced = [], [], {}
    for i, kind in enumerate(kinds.tolist()):
        north, east, height = rng.integers(-2000, 2000), rng.integers(-2000, 2000), rng.integers(0, 500)
        if kind == -1:
            north, east, height = north + rng.random(), east + rng.random(), height + rng.random()
        chi = float(rng.choice(EDGE_ANGLES)) if rng.random() < d.edge_share else rng.uniform(-PI, PI)
        gamma = rng.choice((0.0, 0.3, -GAMMA_CAP)) if rng.random() < d.edge_share else rng.uniform(-1.0, 1.0)
        state = UavState(Point3(float(north), float(east), float(height)), float(chi), float(gamma), 0.0,
                         v_g=rng.uniform(10.0, 25.0))
        m = int(rng.integers(2, 6))
        cursor = m - 1 if kind in (AT_TERMINUS, ON_TERMINUS) else int(rng.integers(0, m))
        points = (np.array([north, east, height], dtype=float) + rng.uniform(-200.0, 200.0, (m, 3))).tolist()
        placed = placed_waypoint(kind, state, gp.acceptance_radius)
        if placed is not None:
            points[cursor] = list(placed)
        if kind == ON_TERMINUS and rng.random() < 0.5:
            points[cursor][0] += 1e-10  # inside the coincidence threshold, not on it
        states.append(state)
        paths.append((tuple(Point3(*q) for q in points), cursor))
        if kind == SPLICED:
            detour = rng.uniform(-300.0, 300.0, (int(rng.integers(1, 3)), 3)) + points[0]
            spliced[i] = tuple(Point3(*q) for q in detour.tolist())
    return states, paths, gp, spliced


def fleet_control_inputs(states, paths, gp, spliced):
    """One tick's control inputs in the sequence of calls that ``run`` makes, splices included.

    ``paths`` holds each vehicle's (waypoints, cursor).  ``comm_step`` runs
    on an empty inbox, with default gains and limits.  Returns the fleet's
    ``FleetPaths``, the vehicles whose cursor the advance moved, and the
    (N,) theta, chi_c, gamma_c, theta_dot and v_cmd.
    """
    y, act = fleet_arrays(states)
    table = FleetPaths([waypoints for waypoints, _ in paths], [c for _, c in paths])
    offset, distance = advance_virtual_target(table, y, gp)
    advanced = [i for i, (_, cursor) in enumerate(paths) if table.cursor[i] != cursor]
    for i, detour in spliced.items():
        table.splice(i, detour)
    if spliced:
        offset, distance = table.offsets(y)
    inbox = np.zeros((len(states), 1))
    lo, hi = actuator_bounds([UavLimits()] * len(states))
    return table, advanced, *comm_step(table, offset, distance, y, act, inbox, inbox, CoordinationGains(), lo, hi)


def oracle_control_inputs(state, path, gp, detour):
    """One vehicle's waypoints and cursor after the advance (and splice), theta, chi_c and gamma_c."""
    waypoints, cursor = path
    cursor = advance_oracle(waypoints, cursor, state.position, state.chi, state.gamma, gp)
    if detour is not None:
        waypoints = waypoints[:cursor] + tuple(detour) + waypoints[cursor:]
    p, a = state.position, waypoints[cursor]
    if math.hypot(a.north - p.north, a.east - p.east, a.height - p.height) < COINCIDENT_EPS:
        angles = (state.chi, state.gamma)
    else:
        angles = reference_angles_oracle(p, a)
    return waypoints, cursor, time_index_oracle(p, state.v_g, waypoints, cursor), *angles


class TestControlInputsMatchOracle:
    @FLEET_SETTINGS
    @given(fleet=targeted_fleets())
    def test_control_inputs(self, fleet):
        states, paths, gp, spliced = fleet
        table, advanced, theta, chi_c, gamma_c, theta_dot, v_cmd = fleet_control_inputs(
            states, paths, gp, spliced
        )
        # the advance moves exactly the cursors that the oracle moves
        assert advanced == [
            i for i, (state, (waypoints, cursor)) in enumerate(zip(states, paths))
            if advance_oracle(waypoints, cursor, state.position, state.chi, state.gamma, gp) != cursor
        ]
        gains = CoordinationGains()
        for i, (state, path) in enumerate(zip(states, paths)):
            waypoints, cursor, *values = oracle_control_inputs(state, path, gp, spliced.get(i))
            assert table.waypoints[i].tolist() == [list(p) for p in waypoints]
            assert table.cursor[i] == cursor
            assert table.active[:, i].tolist() == list(waypoints[cursor])
            assert [theta[i], chi_c[i], gamma_c[i]] == values
            # an empty inbox leaves the drift; the speed command looks one second ahead
            rate = consensus_oracle(values[0], [], gains)
            assert theta_dot[i] == rate
            assert v_cmd[i] == speed_oracle(values[0], rate, state.v_g, gains, UavLimits())

    def test_each_placement_takes_its_branch(self):
        # vehicle k flies north from (100 k, 0, 100) with placement k at the
        # default 40 m acceptance radius; its other waypoint lies far ahead
        gp = GuidanceParams()
        states, paths = [], []
        for k in range(PLACEMENTS):
            state = UavState(Point3(100.0 * k, 0.0, 100.0), 0.0, 0.0, 0.0, v_g=12.0)
            placed = Point3(*(placed_waypoint(k, state, gp.acceptance_radius) or (100.0 * k + 300.0, 40.0, 100.0)))
            ahead = Point3(100.0 * k + 500.0, 300.0, 100.0)
            terminal = k in (AT_TERMINUS, ON_TERMINUS)
            paths.append(((ahead, placed) if terminal else (placed, ahead), int(terminal)))
            states.append(state)
        detour = (Point3(100.0 * SPLICED + 200.0, -50.0, 110.0),)
        table, advanced, theta, chi_c, gamma_c, *_ = fleet_control_inputs(states, paths, gp, {SPLICED: detour})
        # reached on the radius alone, passed while outside it, kept when square to the velocity
        assert math.hypot(0.6 * 40.0, 0.0, -0.8 * 40.0) == 40.0
        assert advanced == [ON_RADIUS, BEHIND]
        assert table.cursor[[ON_RADIUS, BEHIND, SIDEWAYS]].tolist() == [1.0, 1.0, 0.0]
        # a terminus is never dropped; on it the course and climb are held
        assert table.cursor[[AT_TERMINUS, ON_TERMINUS]].tolist() == [1.0, 1.0]
        assert chi_c[AT_TERMINUS] == math.atan2(40.0, 300.0)
        assert (theta[ON_TERMINUS], chi_c[ON_TERMINUS], gamma_c[ON_TERMINUS]) == (0.0, 0.0, 0.0)
        # a splice makes the detour's first point the target
        assert table.active[:, SPLICED].tolist() == [100.0 * SPLICED + 200.0, -50.0, 110.0]
        for i, (state, path) in enumerate(zip(states, paths)):
            _, cursor, *values = oracle_control_inputs(state, path, gp, detour if i == SPLICED else None)
            assert (table.cursor[i], [theta[i], chi_c[i], gamma_c[i]]) == (cursor, values)


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
        if d_max == 0.02:
            assert sum(abs(v) == d_max for pair in got for v in pair) > 50

    def test_block_draw_equals_per_call_draws(self):
        per_call = np.random.default_rng(5)
        block = np.random.default_rng(5).standard_normal(3 * 500)
        draws = [per_call.standard_normal(3) for _ in range(500)]
        assert block.tolist() == np.concatenate(draws).tolist()


GUST_AMBIENTS = (0.0, -0.0, 1.0, -0.5, math.nan, 40.0, -40.0)


@st.composite
def gust_params(draw):
    # +-40 m/s of ambient holds a channel on the clip at exactly +-d_max
    sigma = st.sampled_from((0.0, 1.4, 2.12))
    return WindParams(ambient=(2.5, draw(st.sampled_from(GUST_AMBIENTS)), draw(st.sampled_from(GUST_AMBIENTS))),
                      sigma_v=draw(sigma), sigma_w=draw(sigma), length_v=draw(st.sampled_from((200.0, 5.0))),
                      length_w=draw(st.sampled_from((50.0, 5.0))), d_max=draw(st.sampled_from((0.02, 0.1, 10.0))))


def model_blocks(models, dt):
    """The (2, N) block of one tick, one scalar ``sample`` per vehicle."""
    return np.array([m.sample(dt) for m in models]).T


class TestFleetWind:
    def test_sizes_straddle_array_threshold(self):
        # the property's 1-40 vehicles and the run-level 9, 10 and 13
        assert 9 < _ARRAY_MIN_N <= 10

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 40), params=gust_params(), seed=st.integers(0, 2**32 - 1),
           dts=st.tuples(st.sampled_from(DTS), st.sampled_from(DTS)), switch=st.integers(0, 60),
           ticks=st.integers(3 * dynamics._NOISE_BLOCK, 70))
    def test_blocks_equal_models_and_oracle(self, n, params, seed, dts, switch, ticks):
        # three noise blocks or more, dt changing mid-stream, under and
        # from the array threshold
        seeds = np.random.default_rng(seed).integers(0, 2**63, n).tolist()
        source = _FleetWind(params, seeds)
        models = [WindModel(params, s) for s in seeds]
        oracles = [WindOracle(params, s) for s in seeds]
        for tick in range(ticks):
            dt = dts[tick >= switch]
            got = source.sample(dt)
            assert got.shape == (2, n)
            assert got.tobytes() == model_blocks(models, dt).tobytes()
            assert got.tobytes() == model_blocks(oracles, dt).tobytes()

    # (ambient, sigma, airspeed, dt, what each block must show)
    EDGES = {
        "clip": ((0.0, 40.0, -40.0), 2.12, 13.5, 1.0, lambda b: (b[0] == 0.1).all() and (b[1] == -0.1).all()),
        "nan_and_negative_zero": ((0.0, math.nan, -0.0), 0.0, 13.5, 1.0,
                                  lambda b: np.isnan(b[0]).all() and (b[1] == 0.0).all()),
        "ratio_overflow": ((0.0, 1e10, -1e10), 0.0, 1e-300, 1.0,
                           lambda b: (b[0] == 0.1).all() and (b[1] == -0.1).all()),
        "gust_overflow": ((0.0, 0.0, 0.0), 1.7e308, 13.5, 1e6, lambda b: not np.isfinite(b).all()),
    }

    @pytest.mark.parametrize("n", (4, 13))
    @pytest.mark.parametrize("case", sorted(EDGES))
    def test_special_values_equal_models_and_oracle(self, n, case):
        # The scalar models give inf and NaN without a warning, so the
        # source must too; only the numpy oracle is silenced, where its
        # arithmetic overflows.
        ambient, sigma, airspeed, dt, shows = self.EDGES[case]
        params = WindParams(ambient=ambient, sigma_v=sigma, sigma_w=sigma, airspeed_nominal=airspeed)
        seeds = list(range(50, 50 + n))
        source = _FleetWind(params, seeds)
        models = [WindModel(params, s) for s in seeds]
        oracles = [WindOracle(params, s) for s in seeds]
        overflows = case.endswith("overflow")
        shown = []
        for _ in range(3 * dynamics._NOISE_BLOCK):
            got = source.sample(dt)
            assert got.tobytes() == model_blocks(models, dt).tobytes()
            with np.errstate(over="ignore", invalid="ignore") if overflows else contextlib.nullcontext():
                assert got.tobytes() == model_blocks(oracles, dt).tobytes()
            shown.append(shows(got))
        assert any(shown)

    @pytest.mark.parametrize("n", (9, 10, 13))
    def test_run_logs_equal_across_threshold(self, n, scenario_dir, tmp_path, monkeypatch):
        # The same gusty fleet with the threshold moved to the other side of n.
        doc = presets.fleet_scenario_dict(n)
        doc["duration_s"] = 60.0
        shutil.copy(f"{scenario_dir}/{doc['dem_file']}", tmp_path / doc["dem_file"])
        scenario = load_scenario(presets.write_scenario(doc, tmp_path / "fleet.yaml"))
        log, _ = run(scenario)
        monkeypatch.setattr(dynamics, "_ARRAY_MIN_N", n + 1 if n >= _ARRAY_MIN_N else n)
        other, _ = run(scenario)
        assert log.data.tobytes() == other.data.tobytes()

    @pytest.mark.parametrize("name", ("reference_4uav", "reference_4uav_dropout"))
    def test_reference_runs_equal_across_threshold(self, name, scenario_dir, tmp_path, monkeypatch):
        # The benchmark's two 4-vehicle missions, each with one replan and
        # the second with dropouts, once on the float kernels and once on the
        # array paths: the log, the replans and every replay-checked export.
        scenario = load_scenario(f"{scenario_dir}/{name}.yaml")
        outcomes = []
        for threshold in (_ARRAY_MIN_N, 1):
            monkeypatch.setattr(dynamics, "_ARRAY_MIN_N", threshold)
            log, metrics = run(scenario)
            files = export(log, metrics, tmp_path / str(threshold))
            replans = [(e.tick, e.uav_id, e.waypoints, e.overhead) for e in log.replan_events]
            outcomes.append((log.data.tobytes(), replans, log.replan_failures,
                             {f.name: f.read_bytes() for f in files if f.name not in WALL_CLOCK_FILES}))
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][1]) == 1


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
