"""Range-limited peer network: topology from geometry, one-tick delivery.

Admission rule: vehicle i admits peer j when their distance ``d`` (from
``math.hypot``) satisfies ``d <= r_com``, which NaN fails, and no active
dropout window ``[start_s, end_s)`` names the pair in either order.
Admitted peers get strength ``gamma_signal / d`` (inf when coincident),
are sorted by (-strength, peer), and the first ``c_max`` are kept.
Because the cap is applied per vehicle, admission can be asymmetric: i
may keep j while j's list is already full of closer peers.

Below ``_SCREEN_MIN_N`` vehicles a pair loop applies that rule, since
numpy's fixed cost per call exceeds the whole loop.  It measures each
unordered pair once: IEEE subtraction is sign-symmetric and
``math.hypot`` reads magnitudes, so one distance, range test and
strength serve both rows.  From ``_SCREEN_MIN_N`` up, one numpy pass
screens the pairs: the (3, N, N) block of differences p_j - p_i gives
the squared distances, and a pair stays when it is in range and within
a margin of its row's c_max-th smallest (``np.partition``), or closer
than 1 m.  The rule then runs over the kept pairs, flat indices into
the block in (i, j) order: ``math.hypot`` on the gathered differences,
range rejection and strengths; one ``np.lexsort`` by (vehicle,
-strength, peer) cuts the lists only when some vehicle has more than
``c_max`` candidates (ties, or pairs under 1 m).  Every float comes
from the same operation and both paths warn of pairs under 1 m in
(i, j) order, so their graphs and warnings are identical.  The dropout
schedule is compiled to arrays once, in ``CommConfig``: a tick that
crosses a window boundary finds the blocked pairs in one vectorised test.

A tick's topology is a ``CommGraph``: each vehicle's admitted links as
one row of an (N, w) peer table and an (N, w) strength table, in
ascending peer order.  ``deliver`` gathers every vehicle's received time
indices from those tables in one indexing step.  The harness delivers a
tick's time indices over that tick's graph and applies them on the next
tick, so no vehicle ever reads a peer's current-tick state.
"""

from __future__ import annotations

import bisect
import logging
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DropoutWindow",
    "CommConfig",
    "build_topology",
    "deliver",
]

log = logging.getLogger(__name__)

# Fleet size from which build_topology screens candidates with numpy;
# below it the scalar pair loop is cheaper (measured crossover, N 11-12).
_SCREEN_MIN_N = 12
# Relative slack on squared distances in the screen, far above the
# rounding gap between numpy's squared sums and math.hypot.
_SCREEN_MARGIN = 1e-9
_PEER = operator.itemgetter(1)


@dataclass(frozen=True)
class DropoutWindow:
    """Suppress the link between ``uav_a`` and ``uav_b`` for t in [start_s, end_s)."""

    start_s: float
    end_s: float
    uav_a: int
    uav_b: int

    def __post_init__(self) -> None:
        if not self.start_s < self.end_s:
            raise ValueError(f"dropout window must have start < end, got [{self.start_s}, {self.end_s})")
        if self.uav_a == self.uav_b:
            raise ValueError(f"dropout window must name two distinct vehicles, got {self.uav_a} twice")


@dataclass(frozen=True)
class CommConfig:
    """Radio parameters shared by the fleet."""

    r_com: float = 30_000.0
    c_max: int = 2
    gamma_signal: float = 1.0
    dropout_schedule: tuple[DropoutWindow, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dropout_schedule", tuple(self.dropout_schedule))
        if not self.r_com > 0.0:
            raise ValueError(f"r_com must be positive, got {self.r_com}")
        if not self.c_max >= 1:
            raise ValueError(f"c_max must be >= 1, got {self.c_max}")
        if not self.gamma_signal > 0.0:
            raise ValueError(f"gamma_signal must be positive, got {self.gamma_signal}")
        windows = self.dropout_schedule
        object.__setattr__(self, "_window_start", np.array([w.start_s for w in windows], dtype=float))
        object.__setattr__(self, "_window_end", np.array([w.end_s for w in windows], dtype=float))
        object.__setattr__(self, "_window_a", np.array([w.uav_a for w in windows], dtype=np.int64))
        object.__setattr__(self, "_window_b", np.array([w.uav_b for w in windows], dtype=np.int64))
        object.__setattr__(self, "_bounds", sorted({w.start_s for w in windows} | {w.end_s for w in windows}))
        object.__setattr__(self, "_last_blocked", [None, None])

    def _blocked_pairs(self, now: float, n: int) -> tuple[np.ndarray, np.ndarray, frozenset[tuple[int, int]]]:
        """Ordered pairs of an n-vehicle fleet that a window active at ``now`` blocks, as (rows, cols) and a set.

        Windows naming an id outside [0, n) block nothing.  Kept per (interval between boundaries, n).
        """
        key = (bisect.bisect_right(self._bounds, now), n)
        if self._last_blocked[0] == key:
            return self._last_blocked[1]
        a, b = self._window_a, self._window_b
        active = (
            (self._window_start <= now)
            & (now < self._window_end)
            & (a >= 0)
            & (a < n)
            & (b >= 0)
            & (b < n)
        )
        rows, cols = np.concatenate((a[active], b[active])), np.concatenate((b[active], a[active]))
        self._last_blocked[:] = key, (rows, cols, frozenset(zip(rows.tolist(), cols.tolist())))
        return self._last_blocked[1]


@dataclass(frozen=True, eq=False)
class CommGraph:
    """Per-tick topology as two (N, w) tables, w = min(c_max, N - 1) but at least 1.

    Row i lists vehicle i's admitted links in ascending peer order:
    ``peer[i]`` holds the peer ids and ``strength[i]`` the link strengths.
    The slots after them are padding, holding i's own id and strength 0, so
    a consensus term over a padding slot is exactly zero.
    """

    peer: np.ndarray
    strength: np.ndarray

    @property
    def neighbors(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per vehicle, its admitted (peer, strength) links in ascending peer order."""
        return tuple(
            tuple((j, s) for j, s in zip(peers, strengths) if j != i)
            for i, (peers, strengths) in enumerate(zip(self.peer.tolist(), self.strength.tolist()))
        )


def build_topology(positions: np.ndarray, config: CommConfig, now: float) -> CommGraph:
    """Admit, rank, and cap each vehicle's neighbor list at simulated time ``now``.

    ``positions`` is the (3, N) block of north, east and height rows, the
    first three rows of the fleet's kinematic block.  ``now`` (seconds)
    selects the active windows of the dropout schedule.  Pure function of
    its arguments.
    """
    n = positions.shape[1]
    if n < 1:
        raise ValueError("need at least one position")
    if n >= _SCREEN_MIN_N:
        return _rank_screened(positions, config, now)
    north, east, height = positions.tolist()
    blocked = config._blocked_pairs(now, n)[2] if config.dropout_schedule else frozenset()
    r_com, gamma, c_max = config.r_com, config.gamma_signal, config.c_max
    # Entries (-strength, peer, strength): ascending order is the admission rank.
    ranked, near = [[] for _ in north], []
    for i in range(n - 1):
        ni, ei, hi, row = north[i], east[i], height[i], ranked[i]
        for j in range(i + 1, n):
            if (i, j) in blocked:
                continue
            d = math.hypot(north[j] - ni, east[j] - ei, height[j] - hi)
            if not d <= r_com:  # NaN is out of range
                continue
            if d < 1.0:
                near += (i, j, d), (j, i, d)
            s = gamma / d if d > 0.0 else math.inf
            row.append((-s, j, s))
            ranked[j].append((-s, i, s))
    for i, j, d in sorted(near):
        _warn_near(i, j, d)
    width = max(1, min(c_max, n - 1))
    kept = []
    for i, row in enumerate(ranked):
        row.sort()
        del row[c_max:]
        row.sort(key=_PEER)
        kept += row
        if len(row) < width:
            kept += [(0.0, i, 0.0)] * (width - len(row))
    _, peer, strength = zip(*kept)
    return CommGraph(peer=np.array(peer).reshape(n, width), strength=np.array(strength).reshape(n, width))


def _warn_near(i: int, j: int, d: float) -> None:
    log.warning("near-coincident vehicles %d and %d at d=%.3g m; strength diverges", i, j, d)


def _rank_screened(positions: np.ndarray, config: CommConfig, now: float) -> CommGraph:
    """The scalar rule of ``build_topology`` over arrays of the screened pairs.

    The screen keeps, per vehicle, the peers whose squared distance is
    within a margin of the c_max-th smallest in the row, plus every pair
    closer than 1 m, so the near-coincident warning still fires; pairs
    beyond ``r_com`` (up to the margin) go.  Self pairs and blocked pairs
    are NaN, which no comparison keeps and ``np.partition`` sorts last.
    Squared distances come from the (3, N, N) block of differences
    p_j - p_i, and the kept pairs are flat indices into it in (row, col)
    order, so each pair's ``math.hypot`` arguments are one gather of the
    pair loop's own differences: every admission, strength, rank and
    warning equals the pair loop's.  Ranking by (row, -strength, col)
    with ``np.lexsort`` and the cut at c_max run only when some row has
    more than c_max candidates (ties, or pairs under 1 m); otherwise the
    candidates already are each row's top c_max.
    """
    n = positions.shape[1]
    c_max = config.c_max
    # One block rather than three (N, N) arrays: at N = 416 the three made
    # the allocator hand memory back and fault it in again on every call.
    diff = positions[:, None, :] - positions[:, :, None]
    d2 = np.einsum("kij,kij->ij", diff, diff)
    d2.flat[:: n + 1] = np.nan
    if config.dropout_schedule:
        d2[config._blocked_pairs(now, n)[:2]] = np.nan
    slack = 1.0 + _SCREEN_MARGIN
    limit = config.r_com * config.r_com * slack
    if c_max < n - 1:
        # A c_max-th smallest beyond range (or NaN: too few peers) leaves
        # every pair in range.
        kth = np.partition(d2, c_max - 1, axis=1)[:, c_max - 1]
        limit = np.fmin(np.maximum(kth * slack, slack), limit)[:, None]
    flat = np.flatnonzero(d2 <= limit)
    d = np.fromiter(map(math.hypot, *diff.reshape(3, -1)[:, flat].tolist()), float, len(flat))
    admitted = d <= config.r_com
    flat, d = flat[admitted], d[admitted]
    rows, cols = np.divmod(flat, n)
    near = np.flatnonzero(d < 1.0)
    for i, j, dist in zip(rows[near].tolist(), cols[near].tolist(), d[near].tolist()):
        _warn_near(i, j, dist)
    with np.errstate(divide="ignore"):
        strength = config.gamma_signal / d
    # Usually no row has more than c_max candidates, and sorting would
    # only return them in the order they already have.
    if len(rows) > c_max and (rows[c_max:] == rows[:-c_max]).any():
        # Rank within each row by (-strength, peer) and keep the first
        # c_max; the pairs stay in (row, col) order, the table's.
        order = np.lexsort((cols, -strength, rows))
        kept = np.empty(len(order), dtype=bool)
        kept[order] = _slot(rows[order]) < c_max
        rows, cols, strength = rows[kept], cols[kept], strength[kept]
    width = max(1, min(c_max, n - 1))
    peer = np.repeat(np.arange(n)[:, None], width, axis=1)
    table = np.zeros((n, width))
    slot = _slot(rows)
    peer[rows, slot] = cols
    table[rows, slot] = strength
    return CommGraph(peer=peer, strength=table)


def _slot(rows: np.ndarray) -> np.ndarray:
    """Each entry's position within its run of equal values of the sorted ``rows``."""
    return np.arange(len(rows)) - np.searchsorted(rows, rows)


def deliver(theta: np.ndarray, graph_at_send: CommGraph) -> np.ndarray:
    """The (N, w) time indices each vehicle receives over ``graph_at_send``.

    Entry (i, k) is the value ``theta`` held by vehicle i's k-th link, in
    the slot order of ``graph_at_send``.  Delivery follows the receiver's
    own row, so asymmetric admission yields one-way coupling; a padding
    slot carries the receiver's own value.
    """
    return theta[graph_at_send.peer]
