"""Topology construction, degree capping, dropout, and delivery tests."""

import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import topology_oracle

from flocksim import (
    CommConfig,
    CoordinationGains,
    DropoutWindow,
    build_topology,
    consensus_rate,
    deliver,
)
from flocksim import network
from flocksim.network import _SCREEN_MIN_N
from flocksim.presets import fleet_scenario_dict


def block(*points):
    """The (3, N) north, east, height block of (north, east, height) points."""
    return np.array(points, dtype=float).reshape(-1, 3).T.copy()


def at_km(*kms):
    """Collinear positions along the north axis, kilometers in, meters out."""
    return block(*((km * 1000.0, 0.0, 100.0) for km in kms))


def peers(graph, i):
    return tuple(j for j, _ in graph.neighbors[i])


class TestDropoutWindow:
    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="start < end"):
            DropoutWindow(start_s=10.0, end_s=10.0, uav_a=0, uav_b=1)

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError, match="distinct"):
            DropoutWindow(start_s=0.0, end_s=5.0, uav_a=2, uav_b=2)

    def test_half_open_interval_both_directions(self):
        config = CommConfig(dropout_schedule=(DropoutWindow(start_s=10.0, end_s=20.0, uav_a=0, uav_b=1),))

        def linked(i, j, now):
            graph = build_topology(at_km(0, 1, 2), config, now)
            return j in peers(graph, i)

        assert not linked(0, 1, 10.0)
        assert not linked(1, 0, 10.0)
        assert not linked(0, 1, 19.999)
        assert not linked(1, 0, 19.999)
        assert linked(0, 1, 20.0)
        assert linked(1, 0, 20.0)
        assert linked(0, 1, 9.999)
        assert linked(1, 0, 9.999)
        assert linked(0, 2, 15.0)
        assert linked(2, 0, 15.0)


class TestCommConfig:
    def test_defaults(self):
        cfg = CommConfig()
        assert cfg.r_com == 30_000.0
        assert cfg.c_max == 2
        assert cfg.gamma_signal == 1.0
        assert cfg.dropout_schedule == ()

    def test_validation(self):
        with pytest.raises(ValueError, match="r_com"):
            CommConfig(r_com=0.0)
        with pytest.raises(ValueError, match="c_max"):
            CommConfig(c_max=0)
        with pytest.raises(ValueError, match="gamma_signal"):
            CommConfig(gamma_signal=-1.0)


class TestBuildTopology:
    def test_pair_within_range(self):
        graph = build_topology(at_km(0, 1), CommConfig(gamma_signal=1.0), now=0.0)
        assert graph.neighbors[0] == ((1, 0.001),)
        assert graph.neighbors[1] == ((0, 0.001),)

    def test_pair_out_of_range(self):
        graph = build_topology(at_km(0, 31), CommConfig(r_com=30_000.0), now=0.0)
        assert graph.neighbors == ((), ())

    def test_collinear_four_against_brute_force(self):
        positions = at_km(0, 10, 20, 30)
        config = CommConfig(r_com=15_000.0, c_max=2, gamma_signal=1.0)
        graph = build_topology(positions, config, now=0.0)

        # independent enumeration of the admission rule
        for i in range(4):
            admitted = []
            for j in range(4):
                if j == i:
                    continue
                d = abs(positions[0, i] - positions[0, j])
                if d <= 15_000.0:
                    admitted.append((-1.0 / d, j))
            admitted.sort()
            expected = tuple(j for _, j in admitted[:2])
            assert peers(graph, i) == tuple(sorted(expected))

        # the middle vehicles keep both 10-km peers, tie broken by lower id
        assert peers(graph, 1) == (0, 2)
        assert peers(graph, 2) == (1, 3)

    def test_strength_tracks_distance(self):
        positions = block((0.0, 0.0, 100.0), (3000.0, 400.0, 150.0), (-1200.0, 2500.0, 80.0))
        graph = build_topology(positions, CommConfig(gamma_signal=7.5), now=0.0)
        for i, links in enumerate(graph.neighbors):
            for peer, strength in links:
                d = math.dist(positions[:, i], positions[:, peer])
                assert strength * d / 7.5 == pytest.approx(1.0, rel=1e-9)

    def test_cap_and_no_self_loops(self):
        rng = np.random.default_rng(21)
        positions = block(*((rng.uniform(-5000, 5000), rng.uniform(-5000, 5000), 100.0) for _ in range(6)))
        config = CommConfig(r_com=4000.0, c_max=3)
        graph = build_topology(positions, config, now=0.0)
        assert graph.peer.shape == graph.strength.shape == (6, 3)
        for i, links in enumerate(graph.neighbors):
            assert len(links) <= 3
            assert [peer for peer, _ in links] == sorted(peer for peer, _ in links)
            for peer, _ in links:
                assert peer != i
                assert math.dist(positions[:, i], positions[:, peer]) <= 4000.0

    def test_dropout_window_suppresses_link(self):
        config = CommConfig(
            dropout_schedule=(DropoutWindow(10.0, 20.0, 0, 1),)
        )
        positions = at_km(0, 1, 2)
        before = build_topology(positions, config, now=9.0)
        during = build_topology(positions, config, now=10.0)
        after = build_topology(positions, config, now=20.0)
        assert 1 in peers(before, 0)
        assert 1 not in peers(during, 0)
        assert 0 not in peers(during, 1)
        # third vehicle unaffected
        assert 2 in peers(during, 1)
        assert 1 in peers(after, 0)

    def test_dropout_uses_seconds_not_ticks(self):
        config = CommConfig(dropout_schedule=(DropoutWindow(10.0, 20.0, 0, 1),))
        # tick 30 at dt 0.5 s: 15 s is inside the window, 30 would not be
        graph = build_topology(at_km(0, 1), config, now=30 * 0.5)
        assert 1 not in peers(graph, 0)

    def test_coincident_vehicles_get_infinite_strength(self):
        graph = build_topology(block((0.0, 0.0, 100.0), (0.0, 0.0, 100.0)), CommConfig(), now=0.0)
        assert graph.neighbors[0] == ((1, math.inf),)

    def test_pure_function(self):
        positions = at_km(0, 5, 9)
        config = CommConfig(r_com=6000.0, c_max=1)
        a, b = build_topology(positions, config, 3), build_topology(positions, config, 3)
        assert (a.peer.tolist(), a.strength.tolist()) == (b.peer.tolist(), b.strength.tolist())
        assert positions.tolist() == at_km(0, 5, 9).tolist()

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="at least one"):
            build_topology(np.zeros((3, 0)), CommConfig(), now=0.0)


def lattice(n, spacing=1000.0):
    """First n points of a 5-column grid in the horizontal plane: many equidistant peers."""
    return block(*(((k // 5) * spacing, (k % 5) * spacing, 100.0) for k in range(n)))


def mixed_fleet(n, seed, tied):
    """n vehicles scattered in a 6 km cube, the first of them on a lattice when ``tied``.

    The lattice's first max(7, n // 2) points have rows with three peers at
    the same 1000 m, and the first two scattered vehicles coincide, so the
    fleet has ties and a zero distance.  Scattered distances are distinct.
    """
    rng = np.random.default_rng(seed)
    m = max(7, n // 2) if tied else 0
    scattered = rng.uniform(-3000.0, 3000.0, (3, n - m)) + np.array([[20_000.0], [0.0], [3100.0]])
    if tied:
        scattered[:, 1] = scattered[:, 0]
    return np.hstack((lattice(m), scattered))


def assert_matches_oracle(caplog, positions, config, now):
    """Same graph, compared float for float, and the same warnings in order.

    The tables are (N, w) with w = min(c_max, N - 1), at least 1, and each
    row's slots after its links hold the vehicle's own id at strength 0.
    """
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="flocksim.network"):
        graph = build_topology(positions, config, now)
        got = [r.getMessage() for r in caplog.records]
        caplog.clear()
        expected = topology_oracle(positions, config, now)
        want = [r.getMessage() for r in caplog.records]
    assert graph.neighbors == expected
    assert got == want
    assert graph.peer.dtype == np.intp and graph.strength.dtype == np.float64
    assert graph.peer.flags.c_contiguous and graph.strength.flags.c_contiguous
    assert not np.shares_memory(graph.peer, graph.strength)
    n = positions.shape[1]
    width = max(1, min(config.c_max, n - 1))
    assert graph.peer.shape == graph.strength.shape == (n, width)
    for i, links in enumerate(expected):
        pad = width - len(links)
        assert graph.peer[i].tolist() == [j for j, _ in links] + [i] * pad
        assert graph.strength[i].tolist() == [s for _, s in links] + [0.0] * pad
    return graph


SIZES = (4, 25)  # fleet sizes on both sides of the screen threshold


class TestTopologyMatchesOracle:
    def test_sizes_straddle_screen_threshold(self):
        assert SIZES[0] < _SCREEN_MIN_N <= SIZES[1]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("c_max", [1, 2, 3, 5, 100])
    def test_equidistant_lattice_ties(self, caplog, n, c_max):
        assert_matches_oracle(caplog, lattice(n), CommConfig(r_com=2000.0, c_max=c_max), 0)

    @pytest.mark.parametrize("n", SIZES)
    def test_pair_exactly_at_r_com(self, caplog, n):
        config = CommConfig(r_com=1000.0, c_max=3)
        graph = build_topology(lattice(n), config, 0)
        assert 1 in peers(graph, 0)
        assert_matches_oracle(caplog, lattice(n), config, 0)

    def test_screened_pair_just_past_r_com_is_cut(self, caplog):
        # Vehicle 1 sits just past r_com north of vehicle 0, inside the
        # screen's margin, so the screen keeps the pair and the range test
        # after it must drop it.  The other ten, 3 r_com away and 10 m
        # apart, put each row's c_max-th smallest far off.
        r_com = 1000.0
        positions = np.zeros((3, 12))
        positions[0, 1] = r_com * (1.0 + 4e-10)
        positions[0, 2:] = 10.0 * np.arange(10)
        positions[1, 2:] = 3.0 * r_com
        assert _SCREEN_MIN_N <= 12
        assert r_com**2 < positions[0, 1] ** 2 <= r_com**2 * (1.0 + network._SCREEN_MARGIN)
        graph = assert_matches_oracle(caplog, positions, CommConfig(r_com=r_com, c_max=2), 0)
        assert graph.neighbors[0] == graph.neighbors[1] == ()

    @pytest.mark.parametrize("n", SIZES)
    def test_coincident_and_near_pairs_warn(self, caplog, n):
        # 0 and 3 coincide; 2 sits 0.5 m from 0 but outside its top c_max=1,
        # and is still warned about
        positions = lattice(n)
        positions[:, 3] = positions[:, 0]
        positions[:, 2] = positions[:, 0] + (0.0, 0.5, 0.0)
        assert_matches_oracle(caplog, positions, CommConfig(c_max=1), 0)
        assert "vehicles 0 and 2" in caplog.text
        assert build_topology(positions, CommConfig(c_max=1), 0).neighbors[0] == ((3, math.inf),)

    def test_single_vehicle(self, caplog):
        assert_matches_oracle(caplog, at_km(0), CommConfig(), 0)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_nan_coordinate_is_out_of_range(self, caplog, n, axis):
        # a NaN distance fails d <= r_com: the vehicle keeps no link and is
        # no one's peer, on both sides of the screen
        positions = lattice(n)
        positions[axis, 2] = math.nan
        graph = assert_matches_oracle(caplog, positions, CommConfig(r_com=2000.0, c_max=2), 0)
        assert graph.neighbors[2] == ()
        assert not any(2 in peers(graph, i) for i in range(n))
        assert all(graph.neighbors[i] for i in range(n) if i != 2)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("now", [9, 10, 19, 20])
    def test_window_edges(self, caplog, n, now):
        windows = (DropoutWindow(10.0, 20.0, 0, 1), DropoutWindow(10.0, 20.0, 2, 1))
        config = CommConfig(r_com=1500.0, c_max=2, dropout_schedule=windows)
        assert_matches_oracle(caplog, lattice(n), config, now)

    @pytest.mark.parametrize("n", SIZES)
    def test_one_config_at_times_out_of_order(self, caplog, n):
        # the blocked pairs are kept per (boundary interval, fleet size):
        # a window blocks at its start and not at its end, nothing blocks
        # before the first boundary or from the last on, and neither a step
        # back in time nor a change of fleet size reuses a stale answer
        windows = (DropoutWindow(10.0, 20.0, 0, 1), DropoutWindow(15.0, 25.0, 2, 1),
                   DropoutWindow(20.0, 30.0, 0, 5))
        config = CommConfig(r_com=1500.0, c_max=2, dropout_schedule=windows)
        for m in (n, 6):
            for now in (0.0, 10.0, 20.0, 9.5, 30.0, 15.0, 25.0, 20.0, 31.0, 10.0, 19.999, 0.0):
                assert_matches_oracle(caplog, lattice(m), config, now)
        for m in (n, 6, n):
            assert_matches_oracle(caplog, lattice(m), config, 20.0)
        assert 1 not in peers(build_topology(lattice(n), config, 10.0), 0)
        assert 1 in peers(build_topology(lattice(n), config, 20.0), 0)
        assert 5 not in peers(build_topology(lattice(6), config, 20.0), 0)
        assert 5 in peers(build_topology(lattice(6), config, 30.0), 0)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("c_max", [1, 2, 100])
    def test_out_of_fleet_ids_suppress_nothing(self, caplog, n, c_max):
        # the last vehicle is everyone's nearest peer; under numpy indexing
        # id -1 would wrap to it and id n + 3 would raise
        positions = lattice(n)
        positions[:, -1] = (-500.0, 0.0, 100.0)
        windows = tuple(DropoutWindow(0.0, 5.0, a, b) for a, b in ((-1, 0), (0, n + 3), (1, -1), (n + 3, -1)))
        config = CommConfig(c_max=c_max, dropout_schedule=windows)
        plain = build_topology(positions, CommConfig(c_max=c_max), 1)
        assert n - 1 in peers(plain, 0)
        assert build_topology(positions, config, 1).neighbors == plain.neighbors
        assert_matches_oracle(caplog, positions, config, 1)

    @pytest.mark.parametrize("master_seed", [6, 7])
    @pytest.mark.parametrize("c_max, r_com", [(2, None), (1, 400.0), (5, None), (103, 600.0)])
    def test_generated_fleet_of_104(self, caplog, master_seed, c_max, r_com):
        # the benchmark's fleet size; the generator draws each start bearing
        # on the circle independently, so some starts lie under 1 m apart
        doc = fleet_scenario_dict(104, master_seed)
        positions = block(*(
            (u["initial"]["north_m"], u["initial"]["east_m"], u["initial"]["height_m"]) for u in doc["uavs"]
        ))
        comm = doc["comm"]
        config = CommConfig(r_com=r_com or comm["r_com_m"], c_max=c_max, gamma_signal=comm["gamma_signal"])
        assert_matches_oracle(caplog, positions, config, 0)
        assert "near-coincident" in caplog.text

    @pytest.mark.parametrize("n", [_SCREEN_MIN_N, 23, 41, 60])
    @pytest.mark.parametrize("tied", [True, False])
    @pytest.mark.parametrize("c_max", [1, 2])
    @pytest.mark.parametrize("r_com", [1500.0, 30_000.0])
    def test_rank_cut_runs_only_on_overflowing_rows(self, caplog, monkeypatch, n, tied, c_max, r_com):
        # lattice rows hold three peers at one distance, more than c_max, so
        # the screened candidates are ranked and cut; scattered rows have
        # distinct distances, and a fleet of them alone is never sorted
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(len(keys)) or lexsort(keys))
        positions = mixed_fleet(n, n, tied)
        assert_matches_oracle(caplog, positions, CommConfig(r_com=r_com, c_max=c_max), 3)
        assert bool(sorts) == tied
        assert ("near-coincident" in caplog.text) == tied

    @pytest.mark.parametrize("master_seed", [6, 7])
    @pytest.mark.parametrize("case", ["plain", "piled", "range", "window", "nan"])
    def test_scatter_builds_only_tables_with_a_short_row(self, caplog, monkeypatch, master_seed, case):
        # only the scatter calls np.repeat: when every row holds c_max links
        # the tables are the kept pairs reshaped, also when starts piled
        # within a metre of vehicle 0 overflow its row and the rank cut runs;
        # a row cut short by range, an isolating window or a NaN vehicle
        # takes the scatter
        doc = fleet_scenario_dict(104, master_seed)
        positions = block(*(
            (u["initial"]["north_m"], u["initial"]["east_m"], u["initial"]["height_m"]) for u in doc["uavs"]
        ))
        r_com, windows = 30_000.0, ()
        if case == "piled":
            positions[:, 1:4] = positions[:, :1] + [[0.0, 0.0, 0.0], [0.0, 0.3, 0.6], [0.2, 0.0, 0.0]]
        elif case == "range":
            r_com = 400.0
        elif case == "window":
            windows = tuple(DropoutWindow(0.0, 5.0, 0, j) for j in range(1, 104))
        elif case == "nan":
            positions[1, 5] = math.nan
        sorts, scatters = [], []
        lexsort, repeat = np.lexsort, np.repeat
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(len(keys)) or lexsort(keys))
        monkeypatch.setattr(np, "repeat", lambda *args, **kwargs: scatters.append(1) or repeat(*args, **kwargs))
        config = CommConfig(r_com=r_com, c_max=2, gamma_signal=doc["comm"]["gamma_signal"], dropout_schedule=windows)
        graph = assert_matches_oracle(caplog, positions, config, 1.0)
        short = any(len(links) < 2 for links in graph.neighbors)
        assert short == (case in ("range", "window", "nan"))
        assert bool(scatters) == short
        assert bool(sorts) == (case == "piled")

    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_full_and_short_rows(self, caplog, monkeypatch, data):
        # scattered fleets whose range is near their spacing: some rows full,
        # some short; the scatter runs exactly when a row is short
        n = data.draw(st.integers(_SCREEN_MIN_N, 60), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="layout"))
        positions = rng.uniform(-1000.0, 1000.0, (3, n)) + np.array([[0.0], [0.0], [1100.0]])
        c_max = data.draw(st.integers(1, 4), label="c_max")
        r_com = data.draw(st.one_of(st.floats(100.0, 1500.0), st.just(30_000.0)), label="r_com")
        nan_vehicle = data.draw(st.none() | st.integers(0, n - 1), label="nan_vehicle")
        if nan_vehicle is not None:
            positions[0, nan_vehicle] = math.nan
        cut = data.draw(st.lists(st.integers(1, n - 1), unique=True, max_size=n - 1), label="windows")
        config = CommConfig(r_com=r_com, c_max=c_max, dropout_schedule=tuple(DropoutWindow(0.0, 9.0, 0, j) for j in cut))
        scatters = []
        repeat = np.repeat
        with monkeypatch.context() as patch:
            patch.setattr(np, "repeat", lambda *args, **kwargs: scatters.append(1) or repeat(*args, **kwargs))
            graph = assert_matches_oracle(caplog, positions, config, 4.0)
        width = min(c_max, n - 1)
        assert bool(scatters) == any(len(links) < width for links in graph.neighbors)

    def test_mixed_fleet_of_416(self, caplog):
        assert_matches_oracle(caplog, mixed_fleet(416, 416, tied=True), CommConfig(r_com=5000.0, c_max=2), 0)
        assert "vehicles 208 and 209 at d=0 m" in caplog.text

    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_fleets(self, caplog, data):
        n = data.draw(st.integers(1, 2 * _SCREEN_MIN_N), label="n")
        spacing = data.draw(st.sampled_from([0.3, 400.0, 1000.0]), label="spacing")
        on_lattice = st.integers(-2, 2).map(lambda k: k * spacing)
        coord = st.one_of(on_lattice, on_lattice, st.floats(-4000.0, 4000.0, allow_nan=False))
        positions = block(*((data.draw(coord), data.draw(coord), 100.0 + data.draw(coord)) for _ in range(n)))
        r_com = data.draw(
            st.one_of(
                st.sampled_from([1.0, 2.0, 3.0]).map(lambda k: k * spacing),
                st.floats(0.5, 40_000.0),
            ),
            label="r_com",
        )
        ids = st.one_of(st.integers(0, n - 1), st.sampled_from([-1, n, n + 3]))
        windows = data.draw(
            st.lists(
                st.tuples(st.integers(0, 12), st.integers(1, 4), ids, ids).filter(lambda w: w[2] != w[3]),
                max_size=3 * n,
            ),
            label="windows",
        )
        config = CommConfig(
            r_com=r_com,
            c_max=data.draw(st.one_of(st.integers(1, 3), st.integers(1, n + 1)), label="c_max"),
            gamma_signal=data.draw(st.sampled_from([1.0, 0.3, 5.0e4]), label="gamma"),
            dropout_schedule=tuple(DropoutWindow(float(s), float(s + k), a, b) for s, k, a, b in windows),
        )
        tick = data.draw(st.integers(0, 16), label="tick")
        dt = data.draw(st.sampled_from([1.0, 0.5]), label="dt")
        assert_matches_oracle(caplog, positions, config, tick * dt)


class CountingMath:
    """``math`` with a count of its ``hypot`` calls."""

    def __init__(self):
        self.hypot_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def hypot(self, *coordinates):
        self.hypot_calls += 1
        return math.hypot(*coordinates)


class TestPairLoop:
    @pytest.mark.parametrize("n", range(1, _SCREEN_MIN_N))
    @pytest.mark.parametrize("windows", [(), (DropoutWindow(5.0, 9.0, 0, 1),)])
    def test_one_hypot_per_unordered_pair(self, monkeypatch, n, windows):
        # each pair's distance serves both rows; the window is not active
        spy = CountingMath()
        monkeypatch.setattr(network, "math", spy)
        positions = lattice(n)
        config = CommConfig(r_com=2500.0, c_max=2, dropout_schedule=windows)
        graph = build_topology(positions, config, 1.0)
        assert spy.hypot_calls == n * (n - 1) // 2
        monkeypatch.undo()
        assert graph.neighbors == topology_oracle(positions, config, 1.0)


class TestLinkCount:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("c_max", [1, 2, 3, 100])
    def test_neighbors_count_the_oracle_links(self, n, c_max):
        # the count a tracer reads off each graph, on both sides of the screen
        windows = (DropoutWindow(0.0, 5.0, 0, 1), DropoutWindow(0.0, 5.0, 3, 2))
        config = CommConfig(r_com=1500.0, c_max=c_max, dropout_schedule=windows)
        positions = lattice(n)
        positions[:, 1] = positions[:, 0]
        graph = build_topology(positions, config, 2)
        want = sum(len(links) for links in topology_oracle(positions, config, 2))
        assert sum(len(links) for links in graph.neighbors) == want
        assert np.count_nonzero(graph.peer != np.arange(n)[:, None]) == want


class TestDeliver:
    GAINS = CoordinationGains()

    def test_isolated_fleet_gets_empty_inboxes(self):
        # every slot is padding: the receiver's own value at strength 0,
        # so the rate is exactly the drift
        graph = build_topology(at_km(0, 31, 62), CommConfig(r_com=30_000.0), now=0.0)
        theta = np.array([10.0, 20.0, 30.0])
        received = deliver(theta, graph)
        assert graph.neighbors == ((), (), ())
        assert received.tolist() == [[10.0, 10.0], [20.0, 20.0], [30.0, 30.0]]
        assert graph.strength.tolist() == [[0.0, 0.0]] * 3
        assert consensus_rate(theta, received, graph.strength, self.GAINS).tolist() == [1.0] * 3

    def test_fully_connected_three(self):
        graph = build_topology(at_km(0, 1, 2), CommConfig(c_max=2, gamma_signal=1.0), now=0.0)
        received = deliver(np.array([10.0, 20.0, 30.0]), graph)
        # ordered by sender id; strengths match the 1-km and 2-km links
        assert received.tolist() == [[20.0, 30.0], [10.0, 30.0], [10.0, 20.0]]
        assert graph.strength.tolist() == [[0.001, 0.0005], [0.001, 0.001], [0.0005, 0.001]]

    def test_asymmetric_admission_delivers_one_way(self):
        # with c_max=1: 0's only peer is 1, 1's is 2, 2's is 1, so 0 hears 1
        # but 1 never hears 0
        graph = build_topology(at_km(0, 10, 11), CommConfig(c_max=1), now=0.0)
        assert peers(graph, 0) == (1,)
        assert peers(graph, 1) == (2,)
        assert deliver(np.array([10.0, 20.0, 30.0]), graph).tolist() == [[20.0], [30.0], [20.0]]
        # moving vehicle 0's value changes only vehicle 0's own rate
        base = np.array([10.0, 20.0, 30.0])
        moved = np.array([500.0, 20.0, 30.0])
        rates = [consensus_rate(th, deliver(th, graph), graph.strength, self.GAINS) for th in (base, moved)]
        assert rates[0][1:].tolist() == rates[1][1:].tolist()
        assert rates[0][0] != rates[1][0]
