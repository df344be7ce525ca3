"""The time-index exchange equals the scalar oracles bit for bit.

``run`` builds each tick's topology as (N, w) peer and strength tables,
delivers the fleet's time indices over them as one (N, w) array, and
applies the consensus law and the speed command once over (N,) arrays.
These tests draw whole fleets and require every vehicle's values to
equal the per-vehicle oracles in ``tests/oracles.py`` with ``==``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import consensus_oracle, deliver_oracle, speed_oracle, topology_oracle

from flocksim import (
    CommConfig,
    CoordinationGains,
    DropoutWindow,
    UavLimits,
    actuator_bounds,
    build_topology,
    consensus_rate,
    deliver,
    speed_command,
)

FLEET_SIZES = (1, 2, 4, 13, 104)
LIMITS = (UavLimits(), UavLimits(v_g_min=12.0, v_g_max=14.0))
GAINS = (
    CoordinationGains(),
    CoordinationGains(k_theta=0.05, gamma_d=0.0, k_vg=0.5),
    CoordinationGains(k_theta=3.0, gamma_d=-0.5, k_vg=0.01),
)
FAR = 1.0e7  # an isolated vehicle's north offset, beyond every drawn r_com


def same(a, b):
    """Equal floats, NaN equal to NaN (inf strength times tanh(0))."""
    return a == b or (math.isnan(a) and math.isnan(b))


@st.composite
def exchanges(draw):
    """A fleet, its comm config and two ticks of time indices.

    Vehicle n-1 is isolated; for n >= 3 vehicles 0 and 1 coincide (an inf
    strength link) and vehicle 2 sits next to them, closer than any other
    vehicle, so with ``c_max`` 1 it hears vehicle 0 while vehicle 0 hears
    only vehicle 1.  Some v_g sit on their clip bounds.
    """
    n = draw(st.sampled_from(FLEET_SIZES), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    spread = draw(st.sampled_from((50.0, 2000.0, 20_000.0)), label="spread")
    r_com = spread * draw(st.sampled_from((0.05, 0.3, 1.0, 4.0)), label="r_com / spread")
    positions = rng.uniform(-spread, spread, (3, n))
    positions[2] += 300.0
    if n >= 2:
        positions[0, n - 1] = FAR
    if n >= 3:
        positions[:, 1] = positions[:, 0]
        positions[:, 2] = positions[:, 0] + (0.0, 0.01 * spread, 0.0)
    windows = []
    if n >= 2:
        windows = [
            DropoutWindow(float(start), float(start + length), a, (a + shift) % n)
            for start, length, a, shift in zip(
                *(rng.integers(lo, hi, 2 * n).tolist() for lo, hi in ((0, 12), (1, 5), (0, n), (1, n)))
            )
        ]
    config = CommConfig(
        r_com=r_com,
        c_max=draw(st.sampled_from(sorted({1, 2, 3, max(1, n - 1), n + 2})), label="c_max"),
        gamma_signal=draw(st.sampled_from((1.0, 50.0, 5.0e4)), label="gamma_signal"),
        dropout_schedule=tuple(windows[: draw(st.integers(0, len(windows)), label="windows")]),
    )
    tick = draw(st.integers(0, 14), label="tick")
    # theta_sent is what the peers sent last tick; some receivers agree
    # with a peer's value exactly
    theta_sent = rng.uniform(0.0, 300.0, n)
    theta_now = rng.uniform(0.0, 300.0, n)
    agree = rng.random(n) < draw(st.sampled_from((0.0, 0.3)), label="agree share")
    theta_now[agree] = theta_sent[rng.integers(0, n, n)][agree]
    if n >= 3 and agree.any():
        theta_now[0] = theta_sent[1]  # inf strength times tanh(0): a NaN rate
    limits = [LIMITS[k] for k in rng.integers(0, len(LIMITS), n)]
    lo, hi = actuator_bounds(limits)
    v_g = rng.uniform(lo[2], hi[2])
    edge = rng.random(n) < draw(st.sampled_from((0.0, 0.5)), label="edge share")
    v_g[edge] = np.where(rng.random(n) < 0.5, lo[2], hi[2])[edge]
    return positions, config, tick, theta_sent, theta_now, limits, lo, hi, v_g


class TestExchangeMatchesOracle:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=exchanges(), gains=st.sampled_from(GAINS), dt=st.sampled_from((1.0, 0.5)))
    def test_topology_delivery_consensus_and_speed(self, case, gains, dt):
        positions, config, tick, theta_sent, theta_now, limits, lo, hi, v_g = case
        n = positions.shape[1]
        links = topology_oracle(positions, config, tick * dt)
        graph = build_topology(positions, config, tick * dt)
        assert graph.neighbors == links
        # the drawn layout's isolated vehicle, inf link and one-way link
        active = {frozenset((w.uav_a, w.uav_b)) for w in config.dropout_schedule
                  if w.start_s <= tick * dt < w.end_s}
        if n >= 2:
            assert links[n - 1] == ()
        if n >= 3 and not active & {frozenset(pair) for pair in ((0, 1), (0, 2), (1, 2))}:
            assert (1, math.inf) in links[0]
            if config.c_max == 1:
                assert links[0] == ((1, math.inf),)
                assert [j for j, _ in links[2]] == [0]

        received = deliver(theta_sent, graph)
        inboxes = deliver_oracle(theta_sent.tolist(), links)
        for i, inbox in enumerate(inboxes):
            assert received[i, : len(inbox)].tolist() == [theta_j for _, theta_j in inbox]
            assert graph.strength[i, : len(inbox)].tolist() == [s for s, _ in inbox]

        theta_dot = consensus_rate(theta_now, received, graph.strength, gains)
        v_cmd = speed_command(theta_now, theta_dot, v_g, gains, lo, hi)
        assert theta_dot.shape == v_cmd.shape == (n,)
        for i, lim in enumerate(limits):
            rate = consensus_oracle(theta_now[i].item(), inboxes[i], gains)
            assert same(theta_dot[i].item(), rate)
            assert same(v_cmd[i].item(), speed_oracle(theta_now[i].item(), rate, v_g[i].item(), gains, lim))

    def test_speed_clip_edges_and_ties(self):
        # a zero rate leaves a speed on its bound exactly; rates of either
        # sign push past each bound and are clipped back onto it
        gains = CoordinationGains(k_vg=0.5)
        lo, hi = actuator_bounds([UavLimits()] * 4)
        theta = np.full(4, 100.0)
        v_g = np.array([9.0, 18.0, 9.0, 18.0])
        theta_dot = np.array([0.0, 0.0, 1.0, -1.0])
        v_cmd = speed_command(theta, theta_dot, v_g, gains, lo, hi)
        assert v_cmd.tolist() == [9.0, 18.0, 9.0, 18.0]
        assert v_cmd.tolist() == [
            speed_oracle(100.0, r, v, gains, UavLimits()) for r, v in zip(theta_dot.tolist(), v_g.tolist())
        ]

    def test_numpy_tanh_is_not_used(self):
        # consensus_rate evaluates math.tanh per element: numpy's tanh
        # differs from it in the last bit on some of these inputs
        x = np.random.default_rng(3).normal(0.0, 1.0, 2000)
        assert np.tanh(x).tolist() != [math.tanh(v) for v in x.tolist()]
        gains = CoordinationGains()
        rate = consensus_rate(x, np.zeros((2000, 1)), np.ones((2000, 1)), gains)
        assert rate.tolist() == [1.0 - math.tanh(v) for v in x.tolist()]
