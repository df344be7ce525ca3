"""Fixed-wing point-mass flight: actuator lags, colored gusts, RK4 kinematics.

State convention: ``chi`` is the course angle over ground, ``gamma`` the
flight-path climb angle, ``psi`` the heading, all radians; ``v_g`` the
ground speed in m/s.  ``phi`` (bank) and ``n_lf`` (load factor) are the
actuator states the autopilot drives toward their commanded values.

The angular-rate channels are driven by guidance through ``phi``/``n_lf``
and perturbed additively by wind-induced disturbances ``d_chi``/``d_gamma``
(rad/s), produced by :class:`WindModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .geo import Point3

__all__ = [
    "GRAVITY",
    "UavLimits",
    "UavState",
    "Commands",
    "Disturbance",
    "NO_DISTURBANCE",
    "WindModel",
    "wrap_angle",
    "step_autopilot",
    "step_kinematics",
]

GRAVITY = 9.81

_GAMMA_CAP = math.pi / 2 - 1e-9


def wrap_angle(x: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.fmod(x + math.pi, 2.0 * math.pi)
    if r <= 0.0:
        r += 2.0 * math.pi
    return r - math.pi


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
class Commands:
    """Autopilot setpoints from guidance and coordination."""

    phi: float
    n_lf: float
    v_g: float


@dataclass(frozen=True)
class Disturbance:
    """Additive angular-rate disturbances (rad/s) for one integration step."""

    d_chi: float = 0.0
    d_gamma: float = 0.0


NO_DISTURBANCE = Disturbance()


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
    """

    def __init__(
        self,
        ambient: Sequence[float] = (0.0, 0.0, 0.0),
        sigma_u: float = 0.0,
        sigma_v: float = 0.0,
        sigma_w: float = 0.0,
        length_u: float = 200.0,
        length_v: float = 200.0,
        length_w: float = 50.0,
        airspeed_nominal: float = 13.5,
        d_max: float = 0.1,
        seed: int = 0,
    ) -> None:
        self.ambient = np.asarray(ambient, dtype=float)
        if self.ambient.shape != (3,):
            raise ValueError("ambient must be [north, east, up]")
        sigmas = np.array([sigma_u, sigma_v, sigma_w], dtype=float)
        lengths = np.array([length_u, length_v, length_w], dtype=float)
        if np.any(sigmas < 0.0):
            raise ValueError("gust sigmas must be non-negative")
        if np.any(lengths <= 0.0):
            raise ValueError("gust length scales must be positive")
        if not airspeed_nominal > 0.0:
            raise ValueError("airspeed_nominal must be positive")
        if not d_max > 0.0:
            raise ValueError("d_max must be positive")
        self.sigma = sigmas
        self.tau = lengths / airspeed_nominal
        self.airspeed_nominal = float(airspeed_nominal)
        self.d_max = float(d_max)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._gust = np.zeros(3)

    @property
    def gust(self) -> np.ndarray:
        """Current [u, v, w] gust values (m/s), copy."""
        return self._gust.copy()

    def sample(self, dt: float) -> Disturbance:
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        a = np.exp(-dt / self.tau)
        noise = self._rng.standard_normal(3)
        self._gust = a * self._gust + self.sigma * np.sqrt(1.0 - a * a) * noise
        lim = self.d_max
        d_chi = (self._gust[1] + self.ambient[1]) / self.airspeed_nominal
        d_gamma = (self._gust[2] + self.ambient[2]) / self.airspeed_nominal
        return Disturbance(
            d_chi=float(min(max(d_chi, -lim), lim)),
            d_gamma=float(min(max(d_gamma, -lim), lim)),
        )


def _lagged(value: float, target: float, tau: float, dt: float) -> float:
    # dt > tau would overshoot the setpoint under the plain Euler lag, so the
    # response saturates at deadbeat tracking instead.
    alpha = min(dt / tau, 1.0)
    return value + alpha * (target - value)


def step_autopilot(
    state: UavState,
    cmd: Commands,
    limits: UavLimits,
    dt: float,
    tau_phi: float = 0.5,
    tau_n: float = 0.5,
    tau_v: float = 2.0,
) -> UavState:
    """First-order actuator response toward ``cmd``, clipped to ``limits``."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    for tau, name in ((tau_phi, "tau_phi"), (tau_n, "tau_n"), (tau_v, "tau_v")):
        if not tau > 0.0:
            raise ValueError(f"{name} must be positive, got {tau}")
    phi = min(max(_lagged(state.phi, cmd.phi, tau_phi, dt), limits.phi_min), limits.phi_max)
    n_lf = min(max(_lagged(state.n_lf, cmd.n_lf, tau_n, dt), limits.n_lf_min), limits.n_lf_max)
    v_g = min(max(_lagged(state.v_g, cmd.v_g, tau_v, dt), limits.v_g_min), limits.v_g_max)
    return replace(state, phi=phi, n_lf=n_lf, v_g=v_g)


def step_kinematics(
    state: UavState,
    disturbance: Disturbance,
    dt: float,
    tau_psi: float = 1.0,
) -> UavState:
    """One RK4 step of the point-mass kinematics with zero-order-hold inputs.

    ``v_g``, ``phi``, ``n_lf`` and the disturbance are held constant across
    the step.  Heading relaxes toward course through a first-order lag on
    the wrapped difference, integrated alongside the five kinematic states.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not tau_psi > 0.0:
        raise ValueError(f"tau_psi must be positive, got {tau_psi}")

    v_g = state.v_g
    phi = state.phi
    n_lf = state.n_lf
    d_chi = disturbance.d_chi
    d_gamma = disturbance.d_gamma
    g_over_v = GRAVITY / v_g
    tan_phi = math.tan(phi)
    cos_phi = math.cos(phi)

    def deriv(y: tuple[float, ...]) -> tuple[float, ...]:
        _, _, _, chi, gamma, psi = y
        cg = math.cos(gamma)
        return (
            v_g * cg * math.cos(chi),
            v_g * cg * math.sin(chi),
            v_g * math.sin(gamma),
            g_over_v * tan_phi * math.cos(chi - psi) + d_chi,
            g_over_v * (n_lf * cos_phi - cg) + d_gamma,
            wrap_angle(chi - psi) / tau_psi,
        )

    y0 = (
        state.position.north,
        state.position.east,
        state.position.height,
        state.chi,
        state.gamma,
        state.psi,
    )
    k1 = deriv(y0)
    k2 = deriv(tuple(y + 0.5 * dt * k for y, k in zip(y0, k1)))
    k3 = deriv(tuple(y + 0.5 * dt * k for y, k in zip(y0, k2)))
    k4 = deriv(tuple(y + dt * k for y, k in zip(y0, k3)))
    y1 = tuple(
        y + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for y, a, b, c, d in zip(y0, k1, k2, k3, k4)
    )

    gamma1 = min(max(y1[4], -_GAMMA_CAP), _GAMMA_CAP)
    return replace(
        state,
        position=Point3(y1[0], y1[1], y1[2]),
        chi=wrap_angle(y1[3]),
        gamma=gamma1,
        psi=wrap_angle(y1[5]),
    )
