"""Hopping models: force laws, controllers, and vertical point-mass dynamics.

Three actuator models drive the same one-dimensional hopper (point mass on a
massless leg): a muscle with nonlinear fiber contraction dynamics and a
mono-synaptic force-feedback reflex (``musfib``), a linearized variant of that
muscle (``muslin``), and a gear-driven DC motor tracking a recorded stance
trajectory with a PD controller (``dcmot``).

The equation of motion is the same for all three::

    m * ydd = -m * g + F_leg    (ground contact, y <= rest length)
    m * ydd = -m * g            (flight, y > rest length)

Only the leg-force law and its controller differ between models.  Each model
exposes the right-hand side of its ODE plus accessors for the leg force, the
controller output (the recorded action channel) and the sensor channels, all
as pure functions of ``(t, state, ctx)`` where ``ctx`` carries the phase
information maintained by the integrator; ``observe`` returns the three
recorded channels of one sample at once.  A state is any sequence of three
floats; ``derivative`` returns a plain 3-tuple, so the stepper never builds
an array per stage.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "HopperCommon",
    "MusFibParams",
    "MusLinParams",
    "DCMotParams",
    "StepContext",
    "LinearStance",
    "ReferenceTrajectory",
    "HoppingModel",
    "MusFibModel",
    "MusLinModel",
    "DCMotModel",
    "fiber_force",
    "linear_fiber_force",
    "activation_derivative",
    "force_feedback_stimulation",
    "pd_voltage",
    "motor_current_derivative",
    "load_config",
    "make_model",
    "parameter_names",
    "write_csv",
    "MODEL_NAMES",
]

MODEL_NAMES = ("musfib", "muslin", "dcmot")

# Eccentric slope constant of the classic Hill-type force-velocity law.
_ECC_SLOPE_FACTOR = 7.56


def positive(default: float) -> float:
    """A dataclass field that admits the finite numbers above zero."""
    return field(default=default, metadata={"sign": "positive"})


def negative(default: float) -> float:
    """A dataclass field that admits the finite numbers below zero."""
    return field(default=default, metadata={"sign": "negative"})


def _check(instance) -> None:
    """Reject a field of the dataclass ``instance`` that lies outside its
    admissible set: every field admits finite values only, and one declared
    :func:`positive` or :func:`negative` that sign only.  The bounds are the
    physical signs, never magnitudes."""
    for f in fields(instance):
        value, sign = getattr(instance, f.name), f.metadata.get("sign")
        if not math.isfinite(value) or (sign == "positive" and value <= 0) \
                or (sign == "negative" and value >= 0):
            raise ValueError(f"{f.name} = {value!r}: must be finite"
                             + (f" and {sign}" if sign else ""))


@dataclass(frozen=True)
class HopperCommon:
    """Point-mass hopper shared by all actuator models; DCMotModel scales its mass."""

    mass: float = positive(80.0)          # kg
    gravity: float = positive(9.81)       # m/s^2, magnitude; acts in -y
    rest_length: float = positive(1.0)    # m, leg rest length l0 (contact iff y <= l0)

    def __post_init__(self) -> None:
        _check(self)


@dataclass(frozen=True)
class MusFibParams:
    """Nonlinear muscle-fiber model parameters.

    Force law: F = f_max * FL(l) * FV(v), with a cubic-exponential
    force-length bell and a hyperbolic force-velocity relation whose
    eccentric branch saturates at ``fv_plateau`` times the isometric force.
    The reflex controller stimulates the muscle proportionally to the leg
    force a fixed delay ago.
    """

    f_max: float = positive(2500.0)       # N, maximum isometric force
    l_opt: float = positive(0.9)          # m, optimal fiber length
    fl_width: float = positive(0.45)      # force-length bell width (relative to l_opt)
    fl_steepness: float = positive(30.0)  # force-length bell steepness
    v_max: float = negative(-3.5)         # m/s, maximum shortening velocity
    fv_curvature: float = positive(1.5)   # force-velocity curvature (concentric)
    fv_plateau: float = positive(1.5)     # eccentric force plateau, multiples of f_max
    act_tau: float = positive(0.010)      # s, activation time constant
    reflex_delay: float = positive(0.015) # s, force-feedback transport delay
    reflex_gain: float = 2.4 / 2500.0     # 1/N
    stim_base: float = 0.027              # baseline stimulation (value at touchdown)
    stim_min: float = 0.001
    stim_max: float = 1.0

    def __post_init__(self) -> None:
        _check_reflex(self)


@dataclass(frozen=True)
class MusLinParams:
    """Linearized muscle model: no force-length dependence, linear
    force-velocity relation F = a * f_max * (1 - fv_slope * v)."""

    f_max: float = positive(2500.0)
    fv_slope: float = positive(0.25)      # s/m, slope of the linear force-velocity law
    act_tau: float = positive(0.010)
    reflex_delay: float = positive(0.015)
    reflex_gain: float = 0.8 / 2500.0
    stim_base: float = 0.19
    stim_min: float = 0.001
    stim_max: float = 1.0

    def __post_init__(self) -> None:
        _check_reflex(self)


def _check_reflex(p: MusFibParams | MusLinParams) -> None:
    """A reflex parameter set's fields, and its non-empty stimulation interval."""
    _check(p)
    if not p.stim_min < p.stim_max:
        raise ValueError(f"stim_min = {p.stim_min!r}, stim_max = {p.stim_max!r}: "
                         f"the stimulation bounds must be a non-empty interval")


@dataclass(frozen=True)
class DCMotParams:
    """Gear-driven DC motor with PD trajectory tracking.

    The motor is too small to carry the muscle hopper's mass, so the body
    mass is scaled down to keep accelerations comparable: :class:`DCMotModel`
    applies the gear/torque identity to the shared hopper's ``mass``.
    """

    torque_const: float = positive(0.126)     # N*m/A
    gear_ratio: float = positive(100.0)       # ideal gear, rotational -> translational
    resistance: float = positive(7.19)        # Ohm
    inductance: float = positive(0.0016)      # H
    volt_max: float = positive(48.0)          # V, armature voltage bound (symmetric)
    kp: float = 5000.0                        # V/m
    kd: float = 500.0                         # V*s/m
    nominal_torque: float = positive(0.212)   # N*m
    f_max_ref: float = positive(2500.0)       # N, muscle force scale used for mass scaling

    def __post_init__(self) -> None:
        _check(self)


@dataclass(frozen=True)
class StepContext:
    """Phase information the integrator hands to the model callbacks.

    ``delayed_force(t)`` returns ``leg_force`` on the dense output of the
    accepted step that holds time ``t`` (zero in flight and before t = 0);
    at a contact event, the post-event force, or its left limit in a step
    that ends on the event's delay echo.
    """

    contact: bool
    t_touchdown: float = math.nan     # absolute time of the current stance start
    delayed_force: Callable[[float], float] = lambda t: 0.0


@dataclass(frozen=True)
class LinearStance:
    """Stance dynamics that are linear in the state, for exact propagation.

    With ``s`` the time since touchdown, the stance state obeys::

        x' = matrix @ x + drift + input_gain * r(s)

    where ``r`` is the part of the actuator input that comes from the
    reference: in each piece ``[knots[i], knots[i + 1]]`` a cubic in the
    local time ``s - knots[i]`` with power-basis coefficients ``coeffs[i]``,
    and the constant ``hold`` from the last knot on.  ``knots[0]`` is 0.  The
    actuator input is ``u = feedback @ x + r(s)``; ``matrix`` already holds
    the ``input_gain * feedback`` term.  The model is exact only while
    ``|u| <= input_bound``, where the real controller does not saturate.  A
    model that has a linear stance reads no delayed force, and hops
    ballistically in flight, its auxiliary state moved by the model's
    ``flight_flow``.
    """

    matrix: np.ndarray
    drift: np.ndarray
    input_gain: np.ndarray
    feedback: np.ndarray
    input_bound: float
    knots: np.ndarray
    coeffs: np.ndarray
    hold: float


# ---------------------------------------------------------------------------
# force laws and controllers
# ---------------------------------------------------------------------------

def fiber_force(l_m: float, v_m: float, p: MusFibParams) -> float:
    """Active fiber force [N] from length l_m [m] and velocity v_m [m/s].

    Product of a force-length bell centered on ``l_opt`` and a piecewise
    hyperbolic force-velocity factor.  Both branches of the velocity factor
    evaluate to 1 at v_m = 0.  Negative v_m (shortening here follows the leg
    convention v_m = dy/dt) raises the force toward the eccentric plateau;
    positive v_m lowers it, reaching zero at ``-v_max``.
    """
    rel = (l_m - p.l_opt) / (p.l_opt * p.fl_width)
    length_factor = math.exp(-p.fl_steepness * abs(rel) ** 3)
    if v_m > 0.0:
        velocity_factor = (p.v_max + v_m) / (p.v_max - p.fv_curvature * v_m)
    else:
        velocity_factor = p.fv_plateau + (p.fv_plateau - 1.0) * (p.v_max - v_m) / (
            -_ECC_SLOPE_FACTOR * p.fv_curvature * v_m - p.v_max
        )
    return p.f_max * length_factor * velocity_factor


def linear_fiber_force(v_m: float, activation: float, p: MusLinParams) -> float:
    """Leg force [N] of the linearized muscle: a * f_max * (1 - fv_slope * v)."""
    return activation * p.f_max * (1.0 - p.fv_slope * v_m)


def activation_derivative(activation: float, stimulation: float, tau: float) -> float:
    """First-order activation dynamics da/dt = (u - a) / tau."""
    return (stimulation - activation) / tau


def force_feedback_stimulation(force_delayed: float, p: MusFibParams | MusLinParams) -> float:
    """Reflex stimulation from the delayed leg force, clamped to its bounds."""
    u = p.reflex_gain * force_delayed + p.stim_base
    return min(max(u, p.stim_min), p.stim_max)


def pd_voltage(y: float, yd: float, y_ref: float, yd_ref: float, p: DCMotParams) -> float:
    """PD tracking voltage [V], clamped to the armature bound."""
    u = p.kp * (y_ref - y) + p.kd * (yd_ref - yd)
    return min(max(u, -p.volt_max), p.volt_max)


def motor_current_derivative(current: float, voltage: float, yd: float, p: DCMotParams) -> float:
    """Winding current dynamics dI/dt = (u - k_T*gamma*yd - R*I) / L."""
    return (voltage - p.torque_const * p.gear_ratio * yd - p.resistance * current) / p.inductance


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_csv(path: str | Path, header: str, columns: Sequence[np.ndarray]) -> Path:
    """Write equal-length columns as comma-separated rows under one header
    line.  Every value is printed with ``%.17g``, which round-trips a double
    exactly; a bool column prints as 0 and 1."""
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=header, comments="")
    return Path(path)


# ---------------------------------------------------------------------------
# recorded stance reference (for the motor model)
# ---------------------------------------------------------------------------

def hermite_coeffs(knots: np.ndarray, values: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Power-basis coefficients of the C1 cubic Hermite interpolant.

    Row i holds (c0, c1, c2, c3) of c0 + c1 s + c2 s^2 + c3 s^3 in the local
    time s = t - knots[i], which takes the given values and slopes at
    ``knots[i]`` and ``knots[i + 1]``.
    """
    h = np.diff(knots)
    v0, v1 = values[:-1], values[1:]
    m0, m1 = slopes[:-1], slopes[1:]
    delta = (v1 - v0) / h
    c2 = (3.0 * delta - 2.0 * m0 - m1) / h
    c3 = (-2.0 * delta + m0 + m1) / (h * h)
    return np.column_stack([v0, m0, c2, c3])


class ReferenceTrajectory:
    """Stance trajectory sampled at 1 kHz, time-indexed from touchdown.

    Holds (tau, y, yd, ydd) arrays and evaluates C1 cubic Hermite
    interpolants from precomputed power-basis coefficients.  Queries outside
    the recorded window are clamped to the endpoints.
    """

    def __init__(self, tau: np.ndarray, y: np.ndarray, yd: np.ndarray, ydd: np.ndarray):
        self.tau, self.y, self.yd, self.ydd = (np.asarray(c, dtype=float)
                                               for c in (tau, y, yd, ydd))
        if self.tau.ndim != 1 or self.tau.size < 2:
            raise ValueError("reference needs at least two samples")
        if not (self.tau.shape == self.y.shape == self.yd.shape == self.ydd.shape):
            raise ValueError("reference channel lengths differ")
        for name in ("tau", "y", "yd", "ydd"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"reference {name} has a non-finite sample")
        if np.any(np.diff(self.tau) <= 0):
            raise ValueError("reference sample times must be strictly increasing")
        self._tau_list = self.tau.tolist()
        self._coeff_y = hermite_coeffs(self.tau, self.y, self.yd).tolist()
        self._coeff_yd = hermite_coeffs(self.tau, self.yd, self.ydd).tolist()

    @property
    def duration(self) -> float:
        return float(self.tau[-1] - self.tau[0])

    def value(self, t_stance: float) -> tuple[float, float]:
        """Reference (y, yd) at time-since-touchdown ``t_stance``."""
        ts = min(max(t_stance, self._tau_list[0]), self._tau_list[-1])
        i = bisect.bisect_right(self._tau_list, ts) - 1
        i = min(max(i, 0), len(self._coeff_y) - 1)
        dt = ts - self._tau_list[i]
        cy = self._coeff_y[i]
        cv = self._coeff_yd[i]
        return (cy[0] + dt * (cy[1] + dt * (cy[2] + dt * cy[3])),
                cv[0] + dt * (cv[1] + dt * (cv[2] + dt * cv[3])))

    @property
    def sha256(self) -> str:
        """SHA-256 of the (tau, y, yd, ydd) float64 bytes: the same for the
        same samples, whether extracted in memory or read from a CSV."""
        digest = hashlib.sha256()
        for channel in (self.tau, self.y, self.yd, self.ydd):
            digest.update(channel.tobytes())
        return digest.hexdigest()

    def to_csv(self, path: str | Path) -> Path:
        return write_csv(path, "tau,y,yd,ydd", (self.tau, self.y, self.yd, self.ydd))

    @classmethod
    def from_csv(cls, path: str | Path) -> "ReferenceTrajectory":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != 4:
            raise ValueError(f"reference file {path} must have 4 columns (tau,y,yd,ydd)")
        return cls(data[:, 0], data[:, 1], data[:, 2], data[:, 3])


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

class HoppingModel:
    """Common interface: vertical hopper state with model-specific auxiliary.

    State layout is ``[y, yd, aux]`` where aux is the muscle activation for
    the muscle models and the winding current for the motor model.
    ``params`` is the actuator's parameter dataclass; ``reference`` is the
    stance the controller tracks, if any.
    """

    name: str = ""
    action_kind: str = ""                  # "muscle" or "motor", sets normalization
    sensor_names: tuple[str, ...] = ()
    reference: ReferenceTrajectory | None = None
    # flight_flow(aux, tau): the auxiliary state tau after the value aux, in a
    # flight whose delayed force is zero.  A model that defines it flies in
    # closed form there; without it, flight is stepped like stance.
    flight_flow: Callable[[float, float], float] | None = None

    def __init__(self, common: HopperCommon, params=None):
        self.common = common
        self.params = params

    # delay handling -------------------------------------------------------
    @property
    def history_delay(self) -> float:
        """Transport delay of the force feedback; 0 if it reads no delayed force."""
        return 0.0

    # lifecycle ------------------------------------------------------------
    def initial_state(self) -> np.ndarray:
        raise NotImplementedError

    def on_liftoff(self, x: Sequence[float]) -> Sequence[float]:
        """State adjustment applied at the stance->flight transition."""
        return x

    # dynamics -------------------------------------------------------------
    def derivative(self, t: float, x: Sequence[float],
                   ctx: StepContext) -> tuple[float, float, float]:
        raise NotImplementedError

    def leg_force(self, t: float, x: Sequence[float], ctx: StepContext) -> float:
        raise NotImplementedError

    def control(self, t: float, x: Sequence[float], ctx: StepContext) -> float:
        raise NotImplementedError

    def sensors(self, t: float, x: Sequence[float], ctx: StepContext) -> tuple[float, ...]:
        raise NotImplementedError

    def observe(self, t: float, x: Sequence[float],
                ctx: StepContext) -> tuple[float, tuple[float, ...], float]:
        """The recorded channels of one sample: (ydd, sensors, action), equal
        to ``derivative(...)[1]``, ``sensors(...)`` and ``control(...)``."""
        return self.derivative(t, x, ctx)[1], self.sensors(t, x, ctx), self.control(t, x, ctx)

    def _acceleration(self, t: float, x: Sequence[float], ctx: StepContext) -> float:
        """The equation of motion: m * ydd = -m * g + F_leg."""
        return -self.common.gravity + self.leg_force(t, x, ctx) / self.common.mass

    def params_dict(self) -> dict:
        """The model's parameters and the shared hopper's, as trace sidecars
        record them."""
        return {**asdict(self.params), **asdict(self.common)}

    def stance_system(self) -> LinearStance | None:
        """Linear stance dynamics for exact propagation, or None when the
        right-hand side must be stepped numerically."""
        return None


class _MuscleModel(HoppingModel):
    """Shared machinery of the two reflex-driven muscle models."""

    action_kind = "muscle"
    sensor_names = ("f_leg",)

    def __init__(self, common: HopperCommon, params: MusFibParams | MusLinParams):
        super().__init__(common, params)
        # read at every stage of the stepper
        self._gravity, self._mass = common.gravity, common.mass

    @property
    def history_delay(self) -> float:
        return self.params.reflex_delay

    def initial_state(self) -> np.ndarray:
        # apex of the target periodic orbit, activation settled at baseline
        return np.array([1.070, 0.0, self.params.stim_base])

    def control(self, t: float, x: Sequence[float], ctx: StepContext) -> float:
        f_delayed = ctx.delayed_force(t - self.params.reflex_delay)
        return force_feedback_stimulation(f_delayed, self.params)

    def _active_force(self, x: Sequence[float]) -> float:
        raise NotImplementedError

    def leg_force(self, t: float, x: Sequence[float], ctx: StepContext) -> float:
        if not ctx.contact:
            return 0.0
        return self._active_force(x)

    def sensors(self, t: float, x: Sequence[float], ctx: StepContext) -> tuple[float, ...]:
        # The sensor state is the force as the reflex arc delivers it, i.e.
        # delayed by the feedback transport time: the policy is then a
        # deterministic function of the sensor value, which is what the
        # reactive-loop analysis assumes of these controllers.
        return (ctx.delayed_force(t - self.params.reflex_delay),)

    def derivative(self, t: float, x: Sequence[float],
                   ctx: StepContext) -> tuple[float, float, float]:
        # control() and _acceleration() written out: this runs at every stage
        y, yd, act = x
        p = self.params
        u = force_feedback_stimulation(ctx.delayed_force(t - p.reflex_delay), p)
        if ctx.contact:
            ydd = -self._gravity + self._active_force(x) / self._mass
        else:
            ydd = -self._gravity
        return (yd, ydd, activation_derivative(act, u, p.act_tau))

    def observe(self, t: float, x: Sequence[float],
                ctx: StepContext) -> tuple[float, tuple[float, ...], float]:
        # one delayed-force lookup serves the sensor and the action
        f_delayed = ctx.delayed_force(t - self.params.reflex_delay)
        return (self._acceleration(t, x, ctx), (f_delayed,),
                force_feedback_stimulation(f_delayed, self.params))

    def flight_flow(self, act: float, tau: float) -> float:
        """Activation ``tau`` after ``act`` with the delayed force zero: the
        constant stimulation's first-order lag, solved."""
        u = force_feedback_stimulation(0.0, self.params)
        return u + (act - u) * math.exp(-tau / self.params.act_tau)


class MusFibModel(_MuscleModel):
    """Hopper driven by the nonlinear muscle-fiber force law."""

    name = "musfib"
    params: MusFibParams

    def __init__(self, common: HopperCommon | None = None,
                 params: MusFibParams | None = None):
        super().__init__(common or HopperCommon(), params or MusFibParams())

    def _active_force(self, x: Sequence[float]) -> float:
        # in contact the fiber follows the leg: l_m = y, v_m = yd
        return x[2] * fiber_force(x[0], x[1], self.params)


class MusLinModel(_MuscleModel):
    """Hopper driven by the linearized muscle force law."""

    name = "muslin"
    params: MusLinParams

    def __init__(self, common: HopperCommon | None = None,
                 params: MusLinParams | None = None):
        super().__init__(common or HopperCommon(), params or MusLinParams())

    def _active_force(self, x: Sequence[float]) -> float:
        return linear_fiber_force(x[1], x[2], self.params)


class DCMotModel(HoppingModel):
    """Hopper driven by a PD-controlled DC motor tracking a recorded stance.

    ``common`` is the shared hopper; ``model.common.mass`` is its ``mass``
    times ``gear_ratio * nominal_torque / f_max_ref`` (0.6784 kg by default).

    The reference clock restarts at each touchdown.  In flight the armature
    voltage is zero and the winding current is held at zero (reset at
    liftoff), so the leg force vanishes exactly as required by the contact
    branch structure.
    """

    name = "dcmot"
    action_kind = "motor"
    sensor_names = ("y", "yd")
    params: DCMotParams

    def __init__(self, reference: ReferenceTrajectory,
                 params: DCMotParams | None = None,
                 common: HopperCommon | None = None):
        p, common = params or DCMotParams(), common or HopperCommon()
        mass = p.gear_ratio * p.nominal_torque / p.f_max_ref * common.mass
        super().__init__(replace(common, mass=mass), p)
        self.reference = reference

    def initial_state(self) -> np.ndarray:
        return np.array([1.070, 0.0, 0.0])

    def on_liftoff(self, x: Sequence[float]) -> tuple[float, float, float]:
        return (x[0], x[1], 0.0)

    def control(self, t: float, x: Sequence[float], ctx: StepContext) -> float:
        if not ctx.contact:
            return 0.0
        y_ref, yd_ref = self.reference.value(t - ctx.t_touchdown)
        return pd_voltage(x[0], x[1], y_ref, yd_ref, self.params)

    def leg_force(self, t: float, x: Sequence[float], ctx: StepContext) -> float:
        if not ctx.contact:
            return 0.0
        return self.params.gear_ratio * self.params.torque_const * x[2]

    def sensors(self, t: float, x: Sequence[float], ctx: StepContext) -> tuple[float, ...]:
        return (float(x[0]), float(x[1]))

    def derivative(self, t: float, x: Sequence[float],
                   ctx: StepContext) -> tuple[float, float, float]:
        y, yd, current = x
        if ctx.contact:
            didt = motor_current_derivative(current, self.control(t, x, ctx), yd, self.params)
        else:
            didt = 0.0
        return (yd, self._acceleration(t, x, ctx), didt)

    def observe(self, t: float, x: Sequence[float],
                ctx: StepContext) -> tuple[float, tuple[float, ...], float]:
        # the acceleration reads the current, not the voltage: one reference lookup
        return self._acceleration(t, x, ctx), self.sensors(t, x, ctx), self.control(t, x, ctx)

    def flight_flow(self, current: float, tau: float) -> float:
        """The winding current, held through flight."""
        return current

    def stance_system(self) -> LinearStance:
        """The stance as x' = A x + drift + b r(s), with the PD voltage
        u = kp (y_ref - y) + kd (yd_ref - yd) taken unclamped."""
        p, ref = self.params, self.reference
        if ref.tau[0] != 0.0:
            raise ValueError(f"the stance reference must start at touchdown, "
                             f"not at tau = {ref.tau[0]!r} s")
        force_per_amp = p.torque_const * p.gear_ratio
        gain = np.array([0.0, 0.0, 1.0 / p.inductance])
        feedback = np.array([-p.kp, -p.kd, 0.0])
        matrix = np.array([
            [0.0, 1.0, 0.0],
            [0.0, 0.0, force_per_amp / self.common.mass],
            [0.0, -force_per_amp / p.inductance, -p.resistance / p.inductance],
        ]) + np.outer(gain, feedback)
        coeffs = p.kp * np.asarray(ref._coeff_y) + p.kd * np.asarray(ref._coeff_yd)
        y_end, yd_end = ref.value(ref.tau[-1])
        return LinearStance(matrix, np.array([0.0, -self.common.gravity, 0.0]), gain,
                            feedback, p.volt_max, ref.tau, coeffs,
                            p.kp * y_end + p.kd * yd_end)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_PARAM_TYPES = {"musfib": MusFibParams, "muslin": MusLinParams, "dcmot": DCMotParams}
_COMMON_FIELDS = {f.name for f in fields(HopperCommon)}


def load_config(path: str | Path) -> dict[str, float]:
    """Parse a ``key = value`` parameter file ('#' starts a comment); a key
    may appear once."""
    overrides: dict[str, float] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        try:
            overrides[key] = float(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: invalid number {value!r} for {key!r}") from exc
    return overrides


def parameter_names(name: str) -> set[str]:
    """The configuration keys that model ``name`` accepts."""
    return {f.name for f in fields(_PARAM_TYPES[name])} | _COMMON_FIELDS


def make_model(name: str, overrides: dict[str, float] | None = None,
               reference: ReferenceTrajectory | None = None) -> HoppingModel:
    """Build a model from its name and optional parameter overrides."""
    name = name.lower()
    if name not in _PARAM_TYPES:
        raise ValueError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    overrides = overrides or {}
    unknown = sorted(set(overrides) - parameter_names(name))
    if unknown:
        raise ValueError(f"unknown parameter(s) for {name}: {unknown}")
    common = HopperCommon(**{k: v for k, v in overrides.items() if k in _COMMON_FIELDS})
    params = _PARAM_TYPES[name](**{k: v for k, v in overrides.items() if k not in _COMMON_FIELDS})
    if name == "musfib":
        return MusFibModel(common, params)
    if name == "muslin":
        return MusLinModel(common, params)
    if reference is None:
        raise ValueError("dcmot requires a stance reference trajectory")
    return DCMotModel(reference, params, common)
