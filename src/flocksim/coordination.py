"""Distributed arrival-time consensus.

Each vehicle estimates the time it still needs to reach the shared
target (its time index theta), exchanges that scalar with its current
neighbors, and nudges its ground speed so the fleet's estimates equalize:
a vehicle projected to arrive later than its peers speeds up, an early
one slows down.  No leader, no global state; the only coupling is the
bounded tanh disagreement term, weighted by link strength.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import tanh
from typing import Iterable

from .dynamics import UavLimits, UavState
from .geo import distance3
from .guidance import WaypointPath

__all__ = [
    "CoordinationGains",
    "time_index",
    "consensus_rate",
    "speed_command",
]


@dataclass(frozen=True)
class CoordinationGains:
    """Consensus and speed-tracking gains.

    ``gamma_d`` is the nominal drift rate of the time index (1.0 means
    "remaining time shrinks at wall-clock rate" is the fixed point);
    ``k_vg`` converts a time-index disagreement into a speed increment.
    """

    k_theta: float = 1.0
    gamma_d: float = 1.0
    k_vg: float = 0.001
    dt: float = 1.0

    def __post_init__(self) -> None:
        if not self.k_theta > 0.0:
            raise ValueError(f"k_theta must be positive, got {self.k_theta}")
        if not self.k_vg > 0.0:
            raise ValueError(f"k_vg must be positive, got {self.k_vg}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")


def time_index(state: UavState, path: WaypointPath) -> float:
    """Estimated seconds to reach the path's terminus, the shared target.

    Straight-line distance to the active waypoint plus the remaining
    polyline length, divided by the current ground speed.  The loader
    puts the target at every path's terminus and ``WaypointPath.splice``
    keeps it there; ``UavLimits`` keeps the speed positive.
    """
    return (distance3(state.position, path.active) + path.remaining_length()) / state.v_g


def consensus_rate(
    theta_self: float,
    inbox: Iterable[tuple[float, float]],
    gains: CoordinationGains,
) -> float:
    """Time-index rate from the disagreement with received peer values.

    ``inbox`` holds (link strength, theta_j) pairs.  The drift gamma_d is
    common to the fleet and cancels in pairwise differences; only the
    bounded disagreement terms move vehicles relative to each other.
    """
    rate = gains.gamma_d
    for strength, theta_j in inbox:
        rate -= strength * tanh(gains.k_theta * (theta_self - theta_j))
    return rate


def speed_command(
    theta: float,
    theta_dot: float,
    v_g: float,
    gains: CoordinationGains,
    limits: UavLimits,
) -> float:
    """Ground-speed setpoint from the projected time-index step.

    The reference theta_ref = theta + theta_dot*dt and the speed moves by
    -k_vg*(theta_ref - theta).  A vehicle lagging its peers (theta above
    theirs) gets a reduced theta_dot from the consensus term, hence a
    smaller subtraction and a faster setpoint than theirs: disagreement
    shrinks.  Clipped to the speed envelope.
    """
    theta_ref = theta + theta_dot * gains.dt
    v_cmd = v_g - gains.k_vg * (theta_ref - theta)
    return min(max(v_cmd, limits.v_g_min), limits.v_g_max)
