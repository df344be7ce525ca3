"""``export`` writes the bytes of the one-row-at-a-time oracles.

``export`` joins each trajectory CSV from rows whose floats orjson
spells, and writes each premise-violation row's detail as one of eight
constant strings, chosen by its three flags.  ``trajectory_csv_oracle``
and ``events_csv_oracle`` in ``tests/oracles.py`` build the same files a
row at a time with ``repr``, ``json.dumps`` and ``csv.writer``.  These
tests fill run logs with the values whose spelling differs between
formatters (NaN, the infinities, -0.0, 1e16, 1e-5, the smallest
subnormal, and the doubles on each side of 1e-4 and 1e16, where orjson's
spelling stops matching ``repr``) in every column, every premise-flag
combination, and replan rows that share a (tick, vehicle) with a premise
row, and require equal bytes.  ``export`` writes the premise rows a block of vehicle-ticks at a
time; a shrunken block puts replan rows on block edges, and a memory gate
keeps what export allocates independent of the number of rows.  A re-export
over an earlier, longer or shorter export must leave the same bytes as a
fresh one, and no file may be opened with ``O_TRUNC``.
"""

import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import events_csv_oracle, trajectory_csv_oracle

from flocksim import LOG_COLUMNS, Metrics, Point3, ReplanEvent, RunLog, export
from flocksim import harness
from flocksim.harness import ReplanFailure

EDGES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-5, 5e-324, -1e16, -1.5, 0.1, 2.0 / 3.0,
         1e-4, -1e-4, math.nextafter(1e-4, 0), 9999999999999998.0, math.nextafter(1e16, math.inf))
# int() truncates each toward zero; 2.7 and -2.7 tell truncation from rounding.
CURSORS = (-0.0, 0.0, 1e16, 1e-5, 5e-324, 2.7, -2.7, 3.0)
FLAG_COMBOS = tuple(itertools.product((0.0, 1.0), repeat=3))
DTS = (0.05, 0.1, 0.2, 0.3, 1.0)
REASON = 'iteration 2: no acceptable candidate, "cone" empty\nsecond line'

CURSOR = LOG_COLUMNS.index("cursor")
FLAGS = slice(LOG_COLUMNS.index("lat_ok"), len(LOG_COLUMNS))
METRICS = Metrics(0.0, 0.0, 0.0, 0.0, 0.0, [], 0, 0, 0)


def _edge_log(n_ticks, n_uavs, dt, seed, n_replans):
    """A log of edge values and normal draws, with replan rows at random and at a premise row.

    With at least len(EDGES) + 8 vehicle-ticks, the first len(EDGES) are
    premise rows that hold every edge value in every column, and the next 8
    every flag combination (all true writes no premise row).
    """
    log = RunLog(n_uavs=n_uavs, dt=dt, n_ticks=n_ticks)
    rng = np.random.default_rng(seed)
    shape = log.data.shape
    log.data[...] = np.where(rng.random(shape) < 0.5, rng.choice(EDGES, shape), rng.normal(0.0, 1e3, shape))
    log.data[:, :, FLAGS] = rng.integers(0, 2, (*shape[:2], 3))
    rows = log.data.reshape(-1, shape[2])
    if rows.shape[0] >= len(EDGES) + len(FLAG_COMBOS):
        for k in range(len(EDGES)):
            rows[k] = np.roll(EDGES, -k).take(range(shape[2]), mode="wrap")
            rows[k, FLAGS] = (0.0, 1.0, 1.0)
        for k, flags in enumerate(FLAG_COMBOS, start=len(EDGES)):
            rows[k, FLAGS] = flags
    log.data[:, :, CURSOR] = rng.choice(CURSORS, shape[:2])

    spots = [(int(rng.integers(n_ticks)), int(rng.integers(n_uavs))) for _ in range(n_replans if n_ticks else 0)]
    ticks, uav_ids = np.nonzero(log.premise_violations())
    if ticks.size:
        spots.append((int(ticks[-1]), int(uav_ids[-1])))
    for tick, uav_id in spots:
        waypoints = tuple(Point3(*rng.choice(EDGES, 3).tolist()) for _ in range(int(rng.integers(1, 4))))
        log.replan_events.append(ReplanEvent(tick=tick, uav_id=uav_id, waypoints=waypoints,
                                             overhead=float(rng.choice(EDGES)), wall_ms=1.0))
        log.replan_failures.append(ReplanFailure(tick=tick, uav_id=uav_id, reason=REASON))
    return log


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_ticks=st.sampled_from((0, 1, 7)),
    n_uavs=st.sampled_from((1, 13)),
    dt=st.sampled_from(DTS),
    seed=st.integers(0, 2**32 - 1),
    n_replans=st.integers(0, 3),
)
def test_export_bytes_equal_the_oracles(tmp_path_factory, n_ticks, n_uavs, dt, seed, n_replans):
    log = _edge_log(n_ticks, n_uavs, dt, seed, n_replans)
    out = tmp_path_factory.mktemp("export")
    export(log, METRICS, out)
    for uav_id in range(n_uavs):
        assert (out / f"uav_{uav_id:02d}.csv").read_bytes() == trajectory_csv_oracle(log, uav_id).encode()
    assert (out / "events.csv").read_bytes() == events_csv_oracle(log).encode()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n_ticks=st.sampled_from((0, 1, 7)),
    n_uavs=st.sampled_from((1, 13)),
    dt=st.sampled_from(DTS),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    n_replans=st.integers(0, 3),
    longer=st.booleans(),
)
def test_reexport_over_an_earlier_export_keeps_the_oracle_bytes(tmp_path_factory, n_ticks, n_uavs, dt, seeds,
                                                                 n_replans, longer):
    log = _edge_log(n_ticks, n_uavs, dt, seeds[0], n_replans)
    if longer:  # more ticks, vehicles, premise rows and replan rows
        earlier = _edge_log(n_ticks + 9, n_uavs + 3, dt, seeds[1], n_replans + 4)
    else:
        earlier = _edge_log(n_ticks // 2, (n_uavs + 1) // 2, dt, seeds[1], 0)
    out = tmp_path_factory.mktemp("export")
    export(earlier, METRICS, out)
    files = export(log, METRICS, out)
    for uav_id in range(n_uavs):
        assert (out / f"uav_{uav_id:02d}.csv").read_bytes() == trajectory_csv_oracle(log, uav_id).encode()
    assert (out / "events.csv").read_bytes() == events_csv_oracle(log).encode()
    fresh = tmp_path_factory.mktemp("fresh")
    export(log, METRICS, fresh)
    for fp in files:
        assert fp.read_bytes() == (fresh / fp.name).read_bytes()
    # A larger earlier fleet's extra trajectory files are left as they were.
    for uav_id in range(n_uavs, earlier.n_uavs):
        assert (out / f"uav_{uav_id:02d}.csv").read_bytes() == trajectory_csv_oracle(earlier, uav_id).encode()


def test_export_opens_each_file_once_without_truncating_it(monkeypatch, tmp_path):
    log = _edge_log(7, 3, 0.1, seed=5, n_replans=1)
    export(log, METRICS, tmp_path)
    opened = []
    real_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    files = export(log, METRICS, tmp_path)
    monkeypatch.undo()
    assert len(files) == log.n_uavs + 4
    assert sorted(path for path, _ in opened) == sorted(map(str, files))
    assert not [path for path, flags in opened if flags & os.O_TRUNC]


def _doubles(bits):
    """The float64 values of a list of uint64 bit patterns."""
    return np.array(bits, dtype=np.uint64).view(np.float64)


def _bit_patterns(exponents):
    """float64 bit patterns: any sign and mantissa, the biased exponent drawn from ``exponents``."""
    return st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
                     st.integers(0, 1), exponents, st.integers(0, 2**52 - 1))


# Biased exponents 1009..1077 are magnitudes from 2**-14 to 2**55, which
# straddle both edges of orjson's band: 1e-4 is about 2**-13.3 and 1e16
# about 2**53.2.  The full range adds subnormals, NaNs and infinities.
NEAR_BAND = _bit_patterns(st.integers(1023 - 14, 1023 + 54))
ANY_DOUBLE = _bit_patterns(st.integers(0, 2047))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 9).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.lists(NEAR_BAND, min_size=k, max_size=k)
                                                 | st.lists(ANY_DOUBLE, min_size=k, max_size=k), max_size=16))
    )
)
def test_repr_rows_equal_repr_of_each_cell(shaped):
    k, rows = shaped
    block = _doubles(rows).reshape(len(rows), k)
    assert harness._repr_rows(block) == [",".join(map(repr, row)) for row in block.tolist()]


def test_orjson_band_edges():
    inside = [x == 0.0 or 1e-4 <= abs(x) < 1e16 for x in EDGES]
    assert harness._orjson_band(np.array(EDGES)).tolist() == inside
    assert inside.count(False) == 9  # the non-finite, tiny and huge EDGES, and one ulp past each band edge


@pytest.mark.parametrize("cursor", [math.nan, math.inf, -math.inf])
def test_non_finite_cursor_raises_as_the_oracle_does(cursor, tmp_path):
    log = _edge_log(7, 13, 0.1, seed=3, n_replans=0)
    log.data[4, 5, CURSOR] = cursor
    with pytest.raises((ValueError, OverflowError)) as want:
        trajectory_csv_oracle(log, 5)
    with pytest.raises(want.type):
        export(log, METRICS, tmp_path)


def _add_replans(log, spots):
    """A ``replan`` and a ``replan_failed`` row at each (tick, uav_id) of ``spots``."""
    for tick, uav_id in spots:
        log.replan_events.append(ReplanEvent(tick=tick, uav_id=uav_id, waypoints=(Point3(1.0, -0.0, math.nan),),
                                             overhead=math.inf, wall_ms=1.0))
        log.replan_failures.append(ReplanFailure(tick=tick, uav_id=uav_id, reason=REASON))


@pytest.mark.parametrize("block", [1, 2, 5, 7, 13, 64])
def test_replan_rows_on_block_edges_keep_the_oracle_bytes(monkeypatch, tmp_path, block):
    monkeypatch.setattr(harness, "_EVENT_BLOCK", block)
    log = _edge_log(9, 5, 0.1, seed=11, n_replans=0)
    log.data[4, :, FLAGS] = 1.0  # tick 4 has no premise row
    n_uavs = log.n_uavs
    violations = np.flatnonzero(log.premise_violations())
    spots = set()
    for start in range(0, log.n_ticks * n_uavs, block):
        stop = min(start + block, log.n_ticks * n_uavs)
        spots.update((start, stop - 1))  # first and last vehicle-tick of the block
        inside = violations[(violations >= start) & (violations < stop)]
        if inside.size:
            spots.update((int(inside[0]), int(inside[-1])))  # its first and last premise row
    spots.update(range(4 * n_uavs, 5 * n_uavs))
    # Appended last first, so that export's sort has to reorder them.
    _add_replans(log, [divmod(k, n_uavs) for k in sorted(spots, reverse=True)])
    export(log, METRICS, tmp_path)
    assert (tmp_path / "events.csv").read_bytes() == events_csv_oracle(log).encode()


def test_export_memory_does_not_grow_with_the_row_count(tmp_path):
    log = RunLog(n_uavs=100, dt=0.1, n_ticks=300)
    log.data[...] = np.random.default_rng(5).normal(0.0, 1e3, log.data.shape)
    log.data[:, :, FLAGS] = 0.0  # every vehicle-tick is a premise row: 30,000 rows
    _add_replans(log, [(0, 0), (150, 42), (299, 99)])
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        export(log, METRICS, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - live < log.data.nbytes / 4
