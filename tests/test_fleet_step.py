"""The fleet step equals the scalar oracles bit for bit.

``run`` computes the control inputs (virtual-target advance, time index
and reference angles) and steps guidance, the premise monitor, the
autopilot and the RK4 kinematics once per tick over (N,) arrays.  These
tests draw whole fleets, including the edge values of every clip, wrap
and acceptance test, and require each vehicle's column to equal the
one-vehicle oracle in ``tests/oracles.py`` with ``==``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    WindOracle,
    advance_oracle,
    autopilot_oracle,
    conditions_oracle,
    guidance_oracle,
    kinematics_oracle,
    look_ahead_oracle,
    reference_angles_oracle,
    time_index_oracle,
    wrap_oracle,
)

from flocksim import (
    AutopilotParams,
    FleetPaths,
    GuidanceParams,
    Point3,
    UavLimits,
    UavState,
    WindModel,
    WindParams,
    actuator_bounds,
    advance_virtual_target,
    convergence_conditions,
    fleet_arrays,
    guidance_commands,
    look_ahead_angles,
    reference_angles,
    step_autopilot,
    step_kinematics,
    time_index,
    wrap_angle,
)
from flocksim.harness import _COINCIDENT_EPS

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

    ``paths`` holds each vehicle's (waypoints, cursor).  Returns the
    fleet's ``FleetPaths``, the vehicles whose cursor the advance moved,
    and theta, chi_c and gamma_c; a vehicle on its active waypoint keeps
    its course and climb.
    """
    y, act = fleet_arrays(states)
    table = FleetPaths([waypoints for waypoints, _ in paths], [c for _, c in paths])
    offset, distance = advance_virtual_target(table, y, gp)
    advanced = [i for i, (_, cursor) in enumerate(paths) if table.cursor[i] != cursor]
    for i, detour in spliced.items():
        table.splice(i, detour)
    if spliced:
        offset, distance = table.offsets(y)
    far = distance >= _COINCIDENT_EPS
    chi_c, gamma_c = y[3].copy(), y[4].copy()
    chi_c[far], gamma_c[far] = reference_angles(offset[:, far])
    return table, advanced, time_index(distance, table.remaining, act[2]), chi_c, gamma_c


def oracle_control_inputs(state, path, gp, detour):
    """One vehicle's waypoints and cursor after the advance (and splice), theta, chi_c and gamma_c."""
    waypoints, cursor = path
    cursor = advance_oracle(waypoints, cursor, state.position, state.chi, state.gamma, gp)
    if detour is not None:
        waypoints = waypoints[:cursor] + tuple(detour) + waypoints[cursor:]
    p, a = state.position, waypoints[cursor]
    if math.hypot(a.north - p.north, a.east - p.east, a.height - p.height) < _COINCIDENT_EPS:
        angles = (state.chi, state.gamma)
    else:
        angles = reference_angles_oracle(p, a)
    return waypoints, cursor, time_index_oracle(p, state.v_g, waypoints, cursor), *angles


class TestControlInputsMatchOracle:
    @FLEET_SETTINGS
    @given(fleet=targeted_fleets())
    def test_control_inputs(self, fleet):
        states, paths, gp, spliced = fleet
        table, advanced, theta, chi_c, gamma_c = fleet_control_inputs(states, paths, gp, spliced)
        # the advance moves exactly the cursors that the oracle moves
        assert advanced == [
            i for i, (state, (waypoints, cursor)) in enumerate(zip(states, paths))
            if advance_oracle(waypoints, cursor, state.position, state.chi, state.gamma, gp) != cursor
        ]
        for i, (state, path) in enumerate(zip(states, paths)):
            waypoints, cursor, *values = oracle_control_inputs(state, path, gp, spliced.get(i))
            assert table.waypoints[i].tolist() == [list(p) for p in waypoints]
            assert table.cursor[i] == cursor
            assert table.active[:, i].tolist() == list(waypoints[cursor])
            assert [theta[i], chi_c[i], gamma_c[i]] == values

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
        table, advanced, theta, chi_c, gamma_c = fleet_control_inputs(states, paths, gp, {SPLICED: detour})
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
