"""Distributed arrival-time consensus.

Each vehicle estimates the time it still needs to reach the shared
target (its time index theta), exchanges that scalar with its current
neighbors, and nudges its ground speed so the fleet's estimates equalize:
a vehicle projected to arrive later than its peers speeds up, an early
one slows down.  No leader, no global state; the only coupling is the
bounded tanh disagreement term, weighted by link strength.

The time index, the consensus rate and the speed command run once per
tick and return (N,) arrays for the fleet; under ``_ARRAY_MIN_N``
vehicles the consensus rate is computed per vehicle on Python floats,
with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import tanh

import numpy as np

from . import dynamics
from .dynamics import _clip

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

    def __post_init__(self) -> None:
        if not self.k_theta > 0.0:
            raise ValueError(f"k_theta must be positive, got {self.k_theta}")
        if not self.k_vg > 0.0:
            raise ValueError(f"k_vg must be positive, got {self.k_vg}")


def time_index(distance: np.ndarray, remaining: np.ndarray, v_g: np.ndarray) -> np.ndarray:
    """(N,) estimated seconds to reach each path's terminus, the shared target.

    ``distance`` is the straight-line distance from each vehicle to its
    active waypoint and ``remaining`` the path length after it
    (``FleetPaths.remaining``); their sum is divided by the ground speed
    ``v_g``.  The loader puts the target at every path's last waypoint and
    ``FleetPaths.splice`` keeps it there; ``UavLimits`` keeps the speed
    positive.
    """
    return (distance + remaining) / v_g


def consensus_rate(
    theta: np.ndarray, received: np.ndarray, strength: np.ndarray, gains: CoordinationGains
) -> np.ndarray:
    """(N,) time-index rates from the disagreement with received peer values.

    ``received`` and ``strength`` are (N, w): vehicle i's received theta_j
    and link strength per slot (``deliver`` and ``CommGraph.strength``).
    The drift gamma_d is common to the fleet and cancels in pairwise
    differences; only the bounded disagreement terms move vehicles
    relative to each other.  Slots are subtracted in column order; a slot
    of strength 0 holding a finite value subtracts exactly zero.  Under
    ``_ARRAY_MIN_N`` vehicles the rates are taken per vehicle on Python
    floats, with the same bits.
    """
    if len(theta) < dynamics._ARRAY_MIN_N:
        k, drift = gains.k_theta, gains.gamma_d
        rates = []
        for th, row, weights in zip(theta.tolist(), received.tolist(), strength.tolist()):
            rate = drift
            for th_j, s in zip(row, weights):
                rate = rate - s * tanh(k * (th - th_j))
            rates.append(rate)
        return np.array(rates)
    arg = gains.k_theta * (theta[:, None] - received)
    # numpy's tanh differs from math.tanh in the last bit for some inputs.
    bounded = np.array(list(map(tanh, arg.ravel().tolist()))).reshape(arg.shape)
    rate = np.full(len(theta), gains.gamma_d)
    # An inf strength (coincident vehicles) times tanh(0) is NaN, silently,
    # as with Python floats.
    with np.errstate(invalid="ignore"):
        for k in range(arg.shape[1]):
            rate = rate - strength[:, k] * bounded[:, k]
    return rate


def speed_command(
    theta: np.ndarray, theta_dot: np.ndarray, v_g: np.ndarray, gains: CoordinationGains, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """(N,) ground-speed setpoints.

    The speed moves by -k_vg*((theta + theta_dot) - theta): the time index
    one second ahead, whatever the step, less the time index now.
    A vehicle lagging its peers (theta above theirs) gets a reduced
    theta_dot from the consensus term, hence a smaller subtraction and a
    faster setpoint than theirs: disagreement shrinks.  Clipped to the
    speed rows of the (3, N) actuator bounds ``lo``/``hi``.
    """
    v_cmd = v_g - gains.k_vg * ((theta + theta_dot) - theta)
    return _clip(v_cmd, lo[2], hi[2])
