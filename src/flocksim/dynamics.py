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
runs per element through ``math``, as RK4 does under ``_ARRAY_MIN_N`` vehicles.

The angular-rate channels are driven by guidance through ``phi``/``n_lf``
and perturbed additively by wind-induced disturbances ``d_chi``/``d_gamma``
(rad/s), produced by :class:`WindModel`.  The fleet's (2, N) block of them
comes from ``_FleetWind``: per vehicle through ``WindModel`` under
``_ARRAY_MIN_N`` vehicles, and from there as one array update of every
vehicle's gust filter on the same normals, with the same bits.
"""

from __future__ import annotations

import functools
import itertools
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
# few drawn normals (64 ticks raised a 104-vehicle run's peak RSS by ~1.5 MB
# when each vehicle kept its block as a list of Python floats).
_NOISE_BLOCK = 16

# Fleet size from which numpy's fixed cost per call pays, in step_kinematics,
# _FleetWind, advance_virtual_target, guidance_commands and consensus_rate.
_ARRAY_MIN_N = 10


def wrap_angle(x):
    """Wrap angles to (-pi, pi], elementwise; takes a float or an array.

    Bit for bit the scalar rule r = fmod(x + pi, 2 pi), plus 2 pi when
    r <= 0, minus pi: numpy's Python-style mod of -(x + pi) by -2 pi is
    -r after that fix-up, except that it gives -0.0 where r == 0, which
    the heaviside step maps to 2 pi.  A float takes the scalar rule itself.
    NaN is the exception: the float branch keeps its sign, and the array
    branch returns numpy's positive NaN for either sign, as heaviside does.
    """
    if isinstance(x, float):
        r = math.fmod(x + math.pi, 2.0 * math.pi)
        return (r + 2.0 * math.pi if r <= 0.0 else r) - math.pi
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
    """Ambient wind [north, east, up] (m/s), gust sigmas (m/s) and length scales (m).

    ``sigma_u`` and ``length_u`` belong to an along-track gust that the
    model does not simulate: they are validated and not read.
    """

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
    """Ambient wind plus first-order colored gusts on the lateral and vertical axes.

    Each axis carries a Gauss-Markov filter with correlation time
    ``length/airspeed_nominal`` advanced by its exact discretization, so
    the stationary standard deviation equals ``sigma`` for any dt.  The
    lateral (v) and vertical (w) gusts, plus the matching ambient
    components, map to course/climb rate disturbances scaled by
    ``1/airspeed_nominal`` and clipped to ``d_max``.  Each tick consumes
    three normals and skips the first, the draw of an along-track gust
    that no channel uses, so the stream per seed stays fixed.  Normals are
    drawn a block at a time; the stream is the one that
    ``standard_normal(3)`` per sample would give.  A fleet of
    ``_ARRAY_MIN_N`` or more advances these filters through ``_FleetWind``.
    """

    def __init__(self, params: WindParams, seed: int) -> None:
        self.ambient = tuple(float(a) for a in params.ambient)
        self.sigma = (params.sigma_v, params.sigma_w)
        self.tau = tuple(length / params.airspeed_nominal for length in (params.length_v, params.length_w))
        self.airspeed_nominal = float(params.airspeed_nominal)
        self.d_max = float(params.d_max)
        self._rng = np.random.default_rng(int(seed))
        self._gust = (0.0, 0.0)
        self._noise: list[float] = []
        self._next = 0
        # No dt equals NaN, so the first sample sets the filter coefficients.
        self._dt = math.nan

    def sample(self, dt: float) -> tuple[float, float]:
        """Advance the gusts by ``dt`` and return (d_chi, d_gamma) in rad/s."""
        if dt != self._dt:
            self._coef = _gust_coefficients(dt, self.tau, self.sigma)
            self._dt = dt
        k = self._next
        noise = self._noise
        if k == len(noise):
            noise = self._noise = self._rng.standard_normal(3 * _NOISE_BLOCK).tolist()
            k = 0
        self._next = k + 3
        a_v, a_w, b_v, b_w = self._coef
        g_v, g_w = self._gust
        g_v = a_v * g_v + b_v * noise[k + 1]
        g_w = a_w * g_w + b_w * noise[k + 2]
        self._gust = (g_v, g_w)
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


def _gust_coefficients(dt: float, tau: tuple[float, ...], sigma: tuple[float, ...]) -> tuple[float, ...]:
    """(a_v, a_w, b_v, b_w): the gust filters' exact discretization over ``dt``, g <- a * g + b * n."""
    # math.exp, not np.exp: numpy's result can change in the last bit with its SIMD dispatch level.
    a = [math.exp(-dt / t) for t in tau]
    return (*a, *(s * math.sqrt(1.0 - x * x) for s, x in zip(sigma, a)))


class _FleetWind:
    """The fleet's gusts: ``sample(dt)`` returns the (2, N) rows d_chi, d_gamma of one tick.

    Column i is what ``WindModel(params, seeds[i]).sample(dt)`` returns,
    bit for bit.  Under ``_ARRAY_MIN_N`` vehicles each call samples those
    models in turn.  From there every ``_NOISE_BLOCK`` ticks each vehicle's
    own generator draws the block that its model would, and each tick
    advances all the filters in one array update.  That update is the
    model's arithmetic in the model's order, IEEE ``+ * /`` and the clip,
    so only its warnings differ; they are silenced, as the floats raise none.
    """

    def __init__(self, params: WindParams, seeds: Sequence[int]) -> None:
        self._models = models = [WindModel(params, seed) for seed in seeds]
        n = len(models)
        if n < _ARRAY_MIN_N:
            return
        # Bound per instance: the small fleet's sample takes no branch.
        self.sample = self._sample_fleet
        m = models[0]
        self._tau, self._sigma = m.tau, m.sigma
        self._ambient = np.array([[m.ambient[1]], [m.ambient[2]]])
        self._airspeed = np.array(m.airspeed_nominal)
        self._lo, self._hi = np.array(-m.d_max), np.array(m.d_max)
        self._rngs = [model._rng for model in models]
        self._draws = np.empty((n, 3 * _NOISE_BLOCK))
        self._gust = np.zeros((2, n))
        self._next = _NOISE_BLOCK
        self._dt = math.nan

    def sample(self, dt: float) -> np.ndarray:
        """Advance every vehicle's gusts by ``dt``; the (2, N) d_chi, d_gamma in rad/s."""
        n = len(self._models)
        pairs = [model.sample(dt) for model in self._models]
        return np.fromiter(itertools.chain.from_iterable(pairs), float, 2 * n).reshape(n, 2).T

    def _sample_fleet(self, dt: float) -> np.ndarray:
        if dt != self._dt:
            a_v, a_w, b_v, b_w = _gust_coefficients(dt, self._tau, self._sigma)
            self._a, self._b = np.array([[a_v], [a_w]]), np.array([[b_v], [b_w]])
            self._dt = dt
        k = self._next
        if k == _NOISE_BLOCK:
            for rng, row in zip(self._rngs, self._draws):
                rng.standard_normal(out=row)
            # (vehicle, tick, normal) -> (v or w, tick, vehicle), without the along-track normal
            blocks = self._draws.reshape(len(self._rngs), _NOISE_BLOCK, 3)
            self._noise = blocks[:, :, 1:].transpose(2, 1, 0).copy()
            k = 0
        self._next = k + 1
        with np.errstate(over="ignore", invalid="ignore"):
            g = self._gust = self._a * self._gust + self._b * self._noise[:, k]
            return _clip((g + self._ambient) / self._airspeed, self._lo, self._hi)


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
    alongside the five kinematic states.  Returns the new block.  Under
    ``_ARRAY_MIN_N`` vehicles ``_rk4_floats`` gives the same bits; an input
    that ``math`` rejects (inf, v_g = 0) takes the array step and its warning.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if y.shape[1] < _ARRAY_MIN_N:
        try:
            return _rk4_floats(y, act, disturbance, dt, ap.tau_psi)
        except (ValueError, ZeroDivisionError):
            pass
    return _rk4_arrays(y, act, disturbance, dt, ap.tau_psi)


def _rk4_floats(y: np.ndarray, act: np.ndarray, disturbance: np.ndarray, dt: float, tau_psi: float) -> np.ndarray:
    """``_rk4_arrays`` for one vehicle at a time, on Python floats.

    Each stage is the array step's derivative rows written out on local
    floats, stage j's rates with suffix j.  A per-vehicle closure whose
    stages return 6-tuples, read back by index, cost Python more than the
    arithmetic: this form takes about 15 against 25 µs per call at N=4.
    """
    sin, cos, tan, wrap = math.sin, math.cos, math.tan, wrap_angle
    half, sixth = 0.5 * dt, dt / 6.0
    out: list[float] = []
    for north, east, height, chi, gamma, psi, phi, n_lf, v_g, d_chi, d_gamma in zip(
            *y.tolist(), *act.tolist(), *disturbance.tolist()):
        g_over_v = GRAVITY / v_g
        turn, lift = g_over_v * tan(phi), n_lf * cos(phi)

        cos_g, slip = cos(gamma), chi - psi
        v_cg = v_g * cos_g
        n1, e1, h1 = v_cg * cos(chi), v_cg * sin(chi), v_g * sin(gamma)
        c1, g1, p1 = turn * cos(slip) + d_chi, g_over_v * (lift - cos_g) + d_gamma, wrap(slip) / tau_psi

        x, g, p = chi + half * c1, gamma + half * g1, psi + half * p1
        cos_g, slip = cos(g), x - p
        v_cg = v_g * cos_g
        n2, e2, h2 = v_cg * cos(x), v_cg * sin(x), v_g * sin(g)
        c2, g2, p2 = turn * cos(slip) + d_chi, g_over_v * (lift - cos_g) + d_gamma, wrap(slip) / tau_psi

        x, g, p = chi + half * c2, gamma + half * g2, psi + half * p2
        cos_g, slip = cos(g), x - p
        v_cg = v_g * cos_g
        n3, e3, h3 = v_cg * cos(x), v_cg * sin(x), v_g * sin(g)
        c3, g3, p3 = turn * cos(slip) + d_chi, g_over_v * (lift - cos_g) + d_gamma, wrap(slip) / tau_psi

        x, g, p = chi + dt * c3, gamma + dt * g3, psi + dt * p3
        cos_g, slip = cos(g), x - p
        v_cg = v_g * cos_g
        n4, e4, h4 = v_cg * cos(x), v_cg * sin(x), v_g * sin(g)
        c4, g4, p4 = turn * cos(slip) + d_chi, g_over_v * (lift - cos_g) + d_gamma, wrap(slip) / tau_psi

        gamma = gamma + sixth * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
        # min(max(gamma, -cap), cap) without the builtin calls, NaN and signed zeros kept
        gamma = -_GAMMA_CAP if -_GAMMA_CAP > gamma else gamma
        out += (
            north + sixth * (n1 + 2.0 * n2 + 2.0 * n3 + n4),
            east + sixth * (e1 + 2.0 * e2 + 2.0 * e3 + e4),
            height + sixth * (h1 + 2.0 * h2 + 2.0 * h3 + h4),
            wrap(chi + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)),
            _GAMMA_CAP if _GAMMA_CAP < gamma else gamma,
            wrap(psi + sixth * (p1 + 2.0 * p2 + 2.0 * p3 + p4)),
        )
    return np.array(out).reshape(-1, 6).T.copy()


def _rk4_arrays(y: np.ndarray, act: np.ndarray, disturbance: np.ndarray, dt: float, tau_psi: float) -> np.ndarray:
    """The RK4 step of ``step_kinematics`` on the whole (6, N) block."""
    phi, v_g = act[0], act[2]
    d_chi, d_gamma = disturbance[0], disturbance[1]
    g_over_v = GRAVITY / v_g
    # numpy's tan differs from math.tan in the last bit for some inputs.
    turn = g_over_v * np.array([math.tan(p) for p in phi.tolist()])
    lift = act[1] * np.cos(phi)
    tau_psi = np.array(tau_psi)

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
