"""Fixed-wing point-mass flight: actuator lags, colored gusts, RK4 kinematics.

State convention: ``chi`` is the course angle over ground, ``gamma`` the
flight-path climb angle, ``psi`` the heading, all radians; ``v_g`` the
ground speed in m/s.  ``phi`` (bank) and ``n_lf`` (load factor) are the
actuator states the autopilot drives toward their commanded values.

The fleet steps as arrays with one column per vehicle: ``y`` is the
(6, N) kinematic block with rows north, east, height, chi, gamma, psi,
and ``act`` the (3, N) actuator block with rows phi, n_lf, v_g.  Every
elementwise operation is one numpy ufunc whose result is bit-identical to
the same ``math`` expression on one vehicle; ``tan`` is the exception and
runs per element through ``math``.

The angular-rate channels are driven by guidance through ``phi``/``n_lf``
and perturbed additively by wind-induced disturbances ``d_chi``/``d_gamma``
(rad/s), produced by :class:`WindModel`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geo import Point3

__all__ = [
    "UavLimits",
    "UavState",
    "AutopilotParams",
    "WindParams",
    "WindModel",
    "wrap_angle",
    "fleet_arrays",
    "actuator_bounds",
    "step_autopilot",
    "step_kinematics",
]

GRAVITY = 9.81

_GAMMA_CAP = math.pi / 2 - 1e-9

# Constants of the array arithmetic as 0-d arrays: numpy combines those
# with an array faster than it converts a Python float on every call.
_PI, _NEG_PI = np.array(math.pi), np.array(-math.pi)
_TWO_PI, _NEG_TWO_PI = np.array(2.0 * math.pi), np.array(-2.0 * math.pi)
_TWO = np.array(2.0)

# Ticks of gust noise drawn from a vehicle's generator at a time: enough to
# spread the cost of a generator call, few enough that a large fleet holds
# few drawn floats (64 ticks raised a 104-vehicle run's peak RSS by ~1.5 MB).
_NOISE_BLOCK = 16


def wrap_angle(x):
    """Wrap angles to (-pi, pi], elementwise; takes a float or an array.

    Bit for bit the scalar rule r = fmod(x + pi, 2 pi), plus 2 pi when
    r <= 0, minus pi: numpy's Python-style mod of -(x + pi) by -2 pi is
    -r after that fix-up, except that it gives -0.0 where r == 0, which
    the heaviside step maps to 2 pi.
    """
    q = np.mod(_NEG_PI - x, _NEG_TWO_PI)
    return (np.heaviside(q, _TWO_PI) - q) - _PI


def _clip(x, lo, hi):
    # Equals min(max(x, lo), hi) elementwise, signed zeros included: on a
    # tie np.maximum and np.minimum return their second argument, as
    # Python's max and min return their first.
    return np.minimum(hi, np.maximum(lo, x))


@dataclass(frozen=True)
class UavLimits:
    """Actuator envelope.  Guidance clips its commands to these intervals."""

    v_g_min: float = 9.0
    v_g_max: float = 18.0
    phi_min: float = -0.6
    phi_max: float = 0.6
    n_lf_min: float = 0.0
    n_lf_max: float = 2.1
    eta_lat_min: float = -1.5
    eta_lat_max: float = 1.5
    eta_lon_min: float = -1.5
    eta_lon_max: float = 1.5

    def __post_init__(self) -> None:
        for lo, hi, name in (
            (self.v_g_min, self.v_g_max, "v_g"),
            (self.phi_min, self.phi_max, "phi"),
            (self.n_lf_min, self.n_lf_max, "n_lf"),
            (self.eta_lat_min, self.eta_lat_max, "eta_lat"),
            (self.eta_lon_min, self.eta_lon_max, "eta_lon"),
        ):
            if not lo < hi:
                raise ValueError(f"{name}: min ({lo}) must be < max ({hi})")
        if not 0.0 < self.v_g_min:
            raise ValueError(f"v_g_min must be positive, got {self.v_g_min}")
        for val, name in (
            (self.eta_lat_min, "eta_lat_min"),
            (self.eta_lat_max, "eta_lat_max"),
            (self.eta_lon_min, "eta_lon_min"),
            (self.eta_lon_max, "eta_lon_max"),
        ):
            if not -math.pi / 2 < val < math.pi / 2:
                raise ValueError(f"{name} must lie in (-pi/2, pi/2), got {val}")


@dataclass(frozen=True)
class UavState:
    """Full vehicle state at one instant."""

    position: Point3
    chi: float
    gamma: float
    psi: float
    v_g: float
    phi: float = 0.0
    n_lf: float = 1.0

    def velocity_unit(self) -> np.ndarray:
        """Unit velocity direction [north, east, up]."""
        cg = math.cos(self.gamma)
        return np.array(
            [cg * math.cos(self.chi), cg * math.sin(self.chi), math.sin(self.gamma)]
        )


@dataclass(frozen=True)
class AutopilotParams:
    """Time constants (s) of the bank, load-factor, speed and heading lags."""

    tau_phi: float = 0.5
    tau_n: float = 0.5
    tau_v: float = 2.0
    tau_psi: float = 1.0

    def __post_init__(self) -> None:
        for tau, name in (
            (self.tau_phi, "tau_phi"),
            (self.tau_n, "tau_n"),
            (self.tau_v, "tau_v"),
            (self.tau_psi, "tau_psi"),
        ):
            if not tau > 0.0:
                raise ValueError(f"{name} must be positive, got {tau}")


@dataclass(frozen=True)
class WindParams:
    """Ambient wind [north, east, up] (m/s), gust sigmas (m/s) and length scales (m)."""

    ambient: tuple[float, float, float] = (0.0, 0.0, 0.0)
    sigma_u: float = 0.0
    sigma_v: float = 0.0
    sigma_w: float = 0.0
    length_u: float = 200.0
    length_v: float = 200.0
    length_w: float = 50.0
    airspeed_nominal: float = 13.5
    d_max: float = 0.1

    def __post_init__(self) -> None:
        if np.shape(self.ambient) != (3,):
            raise ValueError("ambient must be [north, east, up]")
        if not all(s >= 0.0 for s in (self.sigma_u, self.sigma_v, self.sigma_w)):
            raise ValueError("gust sigmas must be non-negative")
        if not all(length > 0.0 for length in (self.length_u, self.length_v, self.length_w)):
            raise ValueError("gust length scales must be positive")
        if not self.airspeed_nominal > 0.0:
            raise ValueError("airspeed_nominal must be positive")
        if not self.d_max > 0.0:
            raise ValueError("d_max must be positive")


class WindModel:
    """Ambient wind plus first-order colored gusts on three body axes.

    Each axis carries a Gauss-Markov filter with correlation time
    ``length/airspeed_nominal`` advanced by its exact discretization, so
    the stationary standard deviation equals ``sigma`` for any dt.  The
    lateral (v) and vertical (w) channels, plus the matching ambient
    components, map to course/climb rate disturbances scaled by
    ``1/airspeed_nominal`` and clipped to ``d_max``.  The along-track (u)
    filter is advanced but unmapped: it exists so the draw layout per tick
    is fixed at three normals regardless of which channels are consumed.
    Normals are drawn a block at a time; the stream is the one that
    ``standard_normal(3)`` per sample would give.
    """

    def __init__(self, params: WindParams, seed: int) -> None:
        self.ambient = tuple(float(a) for a in params.ambient)
        self.sigma = (params.sigma_u, params.sigma_v, params.sigma_w)
        lengths = (params.length_u, params.length_v, params.length_w)
        self.tau = tuple(length / params.airspeed_nominal for length in lengths)
        self.airspeed_nominal = float(params.airspeed_nominal)
        self.d_max = float(params.d_max)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._gust = (0.0, 0.0, 0.0)
        self._noise: list[float] = []
        self._next = 0
        # No dt equals NaN, so the first sample sets the filter coefficients.
        self._dt = math.nan

    @property
    def gust(self) -> np.ndarray:
        """Current [u, v, w] gust values (m/s), copy."""
        return np.array(self._gust)

    def sample(self, dt: float) -> tuple[float, float]:
        """Advance the gusts by ``dt`` and return (d_chi, d_gamma) in rad/s."""
        if dt != self._dt:
            # math.exp, not np.exp: numpy's result can change in the last bit with its SIMD dispatch level.
            a = [math.exp(-dt / tau) for tau in self.tau]
            self._coef = (*a, *(sigma * math.sqrt(1.0 - x * x) for sigma, x in zip(self.sigma, a)))
            self._dt = dt
        k = self._next
        noise = self._noise
        if k == len(noise):
            noise = self._noise = self._rng.standard_normal(3 * _NOISE_BLOCK).tolist()
            k = 0
        self._next = k + 3
        a_u, a_v, a_w, b_u, b_v, b_w = self._coef
        g_u, g_v, g_w = self._gust
        g_u = a_u * g_u + b_u * noise[k]
        g_v = a_v * g_v + b_v * noise[k + 1]
        g_w = a_w * g_w + b_w * noise[k + 2]
        self._gust = (g_u, g_v, g_w)
        lim = self.d_max
        d_chi = (g_v + self.ambient[1]) / self.airspeed_nominal
        d_gamma = (g_w + self.ambient[2]) / self.airspeed_nominal
        # min(max(x, -lim), lim) without the builtin calls: max keeps its
        # first argument unless the second is greater, and min unless the
        # second is smaller, so NaN passes through and a signed zero keeps
        # its sign, as with the builtins.
        d_chi = -lim if -lim > d_chi else d_chi
        d_gamma = -lim if -lim > d_gamma else d_gamma
        return (lim if lim < d_chi else d_chi), (lim if lim < d_gamma else d_gamma)


def fleet_arrays(states: Sequence[UavState]) -> tuple[np.ndarray, np.ndarray]:
    """The (6, N) kinematic block and (3, N) actuator block of ``states``."""
    y = np.array([[s.position.north for s in states], [s.position.east for s in states],
                  [s.position.height for s in states], [s.chi for s in states],
                  [s.gamma for s in states], [s.psi for s in states]], dtype=float)
    act = np.array([[s.phi for s in states], [s.n_lf for s in states], [s.v_g for s in states]],
                   dtype=float)
    return y, act


def actuator_bounds(limits: Sequence[UavLimits]) -> tuple[np.ndarray, np.ndarray]:
    """(3, N) lower and upper bounds of the actuator rows phi, n_lf, v_g."""
    lo = np.array([[lim.phi_min for lim in limits], [lim.n_lf_min for lim in limits],
                   [lim.v_g_min for lim in limits]], dtype=float)
    hi = np.array([[lim.phi_max for lim in limits], [lim.n_lf_max for lim in limits],
                   [lim.v_g_max for lim in limits]], dtype=float)
    return lo, hi


def step_autopilot(
    act: np.ndarray, cmd: np.ndarray, lo: np.ndarray, hi: np.ndarray, dt: float, ap: AutopilotParams
) -> np.ndarray:
    """First-order response of the (3, N) actuators toward ``cmd``, clipped to [lo, hi].

    A lag with dt > tau would overshoot its setpoint under the plain Euler
    update, so the response saturates at deadbeat tracking instead.
    """
    return _clip(act + _autopilot_alpha(dt, ap) * (cmd - act), lo, hi)


@functools.lru_cache(maxsize=16)
def _autopilot_alpha(dt: float, ap: AutopilotParams) -> np.ndarray:
    """(3, 1) read-only gains min(dt / tau, 1) of the phi, n_lf and v_g lags."""
    alpha = np.array([[min(dt / tau, 1.0)] for tau in (ap.tau_phi, ap.tau_n, ap.tau_v)])
    alpha.flags.writeable = False
    return alpha


def step_kinematics(
    y: np.ndarray, act: np.ndarray, disturbance: np.ndarray, dt: float, ap: AutopilotParams
) -> np.ndarray:
    """One RK4 step of the (6, N) point-mass kinematics with zero-order-hold inputs.

    The actuators ``act`` and the (2, N) ``disturbance`` rows d_chi,
    d_gamma are held constant across the step.  Heading relaxes toward
    course through a first-order lag on the wrapped difference, integrated
    alongside the five kinematic states.  Returns the new block.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    phi, v_g = act[0], act[2]
    d_chi, d_gamma = disturbance[0], disturbance[1]
    g_over_v = GRAVITY / v_g
    # numpy's tan differs from math.tan in the last bit for some inputs.
    turn = g_over_v * np.array([math.tan(p) for p in phi.tolist()])
    lift = act[1] * np.cos(phi)
    tau_psi = np.array(ap.tau_psi)

    def deriv(s: np.ndarray) -> np.ndarray:
        cos_cg, sin_cg = np.cos(s[3:5]), np.sin(s[3:5])
        slip = s[3] - s[5]
        v_cg = v_g * cos_cg[1]
        return np.array((
            v_cg * cos_cg[0],
            v_cg * sin_cg[0],
            v_g * sin_cg[1],
            turn * np.cos(slip) + d_chi,
            g_over_v * (lift - cos_cg[1]) + d_gamma,
            wrap_angle(slip) / tau_psi,
        ))

    half, full, sixth = np.array(0.5 * dt), np.array(dt), np.array(dt / 6.0)
    k1 = deriv(y)
    k2 = deriv(y + half * k1)
    k3 = deriv(y + half * k2)
    k4 = deriv(y + full * k3)
    y1 = y + sixth * (k1 + _TWO * k2 + _TWO * k3 + k4)
    y1[4] = _clip(y1[4], -_GAMMA_CAP, _GAMMA_CAP)
    y1[3::2] = wrap_angle(y1[3::2])
    return y1
