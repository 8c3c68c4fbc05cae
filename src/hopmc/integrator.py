"""Integration of the hopping models onto a uniform sample grid.

One loop, :func:`integrate`, runs every model from contact event to contact
event.  Each phase goes to one of three propagators, chosen from what the
model exposes and never from its type:

* the exact linear stance (:func:`_stance`), for a model whose
  ``stance_system()`` gives a :class:`LinearStance` (the DC motor,
  ``dcmot``).  There x' = A x + f(s) with a constant A and an input f that
  is a cubic in time between two reference knots (constant past the
  reference end).  Each knot interval is solved exactly with Van Loan's
  block matrix exponential; the propagators for the recurring interval
  lengths and sample offsets are computed once.  Liftoff is found by
  :func:`_crossing` on the exact y(s) = l0.  The solution is exact only while
  the PD voltage stays inside its bound, which is checked at every interval
  end and every sample; a breach, or a non-finite state, raises
  :class:`IntegrationError`, and there is no fallback stepper;
* the closed-form flight (:func:`_flight`), for a model with a
  ``flight_flow`` once the flight reads no delayed force: from one
  ``history_delay`` after liftoff (at once for the motor, whose delay is
  zero), or from t = 0 in a run that starts in flight.  y is a parabola, the
  auxiliary state moves by ``flight_flow`` (the motor's current is zero, a
  muscle's activation relaxes exponentially to the constant stimulation),
  and touchdown is the parabola's root.  The delay line gets one zero-force
  span for it (the method of steps; Bellen & Zennaro 2003);
* Dormand-Prince 4(5) segments (:class:`_DP45`) for every other phase (the
  muscles' stance and early flight): the 4(5) pair and its quartic dense
  output on plain floats, the algorithm of scipy's RK45 (same tableau,
  error norm, step-size controller and first-step choice).  Contact
  transitions (y crossing the leg rest length) are found by :func:`_crossing`
  on the dense output and end the segment, so the discontinuous leg force
  is never stepped across.  The reflex reads the leg force one transport
  delay back off the delay line: the dense output and contact flag of each
  accepted step of the last delay, with the step that crosses a contact cut
  at its event.  A contact-force jump reaches the reflex at the delay
  echoes t_ev + k * delay (k = 1, 2, 3); a segment ends on each, the stages
  of a step that ends on one read the delayed force's left limit, and the
  next segment starts with a fresh first stage.

One phase switch serves every model: at each event it takes the
acceleration on both sides with ``observe``, starts the new phase's context
(touchdown time, and the time from which a flight reads no delayed force),
queues the three echoes for a model with a ``history_delay`` and records the
:class:`TraceEvent`.

Output samples on the uniform 1 kHz grid come from each propagator's
solution or dense output, never from restarting the integration.  Each
sample's recorded channels come from one ``model.observe`` call, whose
acceleration is the right-hand side's at the sample point; it is not a
finite difference of the velocity channel.  ``Trace.meta`` holds the
trace's :func:`provenance` record, everything the samples depend on, and
the path's deterministic work counts.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from ._version import __version__
from .models import (HoppingModel, LinearStance, ReferenceTrajectory, StepContext, _check,
                     hermite_coeffs, positive, write_csv)

__all__ = [
    "IntegratorConfig",
    "Trace",
    "TraceEvent",
    "IntegrationError",
    "integrate",
    "provenance",
    "extract_stance_reference",
    "contact_segments",
    "load_trace",
]

_TIME_EPS = 1e-12
_ROOT_TOL = 1e-15         # Newton step at which a contact event time is final [s]
_NEWTON_MAX = 60
_SAMPLE_RATE = 1000.0     # output grid and stance reference grid [Hz]


class IntegrationError(RuntimeError):
    """Integration aborted; the message carries the last valid time."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Every model's run length and the muscles' Dormand-Prince tolerance
    (absolute and relative): by default 1e-10, which keeps each binned channel
    of a 32 s run within 1e-3 of a 400-bin width of a converged run."""

    tol: float = positive(1e-10)
    t_end: float = positive(8.0)

    def __post_init__(self) -> None:
        _check(self)


@dataclass(frozen=True)
class TraceEvent:
    """Localized contact transition with the states on both sides."""

    t: float
    kind: str                 # "touchdown" or "liftoff"
    y: float
    yd: float
    ydd_before: float
    ydd_after: float


@dataclass
class Trace:
    """Uniformly sampled simulation record (1 kHz).

    ``sensors`` has one column per sensor channel; channel names and the
    action normalization kind travel with the trace so the discretization
    stage can pool domains across models by physical variable.
    """

    model: str
    action_kind: str
    sensor_names: tuple[str, ...]
    t: np.ndarray
    y: np.ndarray
    yd: np.ndarray
    ydd: np.ndarray
    sensors: np.ndarray
    action: np.ndarray
    contact: np.ndarray
    events: list[TraceEvent] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.t.size)

    def max_height(self, after: float = 0.0) -> float:
        return float(self.y[self.t >= after].max())

    # -- serialization ----------------------------------------------------
    def csv_header(self) -> str:
        cols = ["t", "y", "yd", "ydd",
                *(f"s{i + 1}" for i in range(self.sensors.shape[1])), "a", "contact"]
        return ",".join(cols)

    def save(self, path: str | Path) -> Path:
        """Write the CSV plus a .meta.json sidecar; returns the CSV path."""
        path = write_csv(path, self.csv_header(),
                         (self.t, self.y, self.yd, self.ydd, self.sensors, self.action,
                          self.contact))
        sidecar = {
            "model": self.model,
            "action_kind": self.action_kind,
            "sensor_names": list(self.sensor_names),
            "events": [asdict(e) for e in self.events],
            "meta": self.meta,
        }
        meta_path(path).write_text(
            json.dumps(sidecar, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        return path


def meta_path(csv_path: str | Path) -> Path:
    return Path(csv_path).with_suffix(".meta.json")


# the value a sidecar key must hold, and how an error names it
_STRING = (lambda v: isinstance(v, str), "a string")
_NUMBER = (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number")
_SIDECAR = {
    "model": _STRING,
    "action_kind": _STRING,
    "sensor_names": (lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v),
                     "a list of strings"),
    "events": (lambda v: isinstance(v, list), "a list"),
    "meta": (lambda v: isinstance(v, dict), "an object"),
}
_EVENT = {**{f.name: _NUMBER for f in fields(TraceEvent)}, "kind": _STRING}


def _require(side: Path, what: str, record, schema: dict) -> None:
    """Fail naming the sidecar ``side`` unless ``record`` is a JSON object
    with exactly the keys of ``schema``, each holding a value of its kind."""
    if not isinstance(record, dict):
        raise ValueError(f"{side}: {what} is not a JSON object")
    missing, extra = sorted(schema.keys() - record.keys()), sorted(record.keys() - schema.keys())
    if missing:
        raise ValueError(f"{side}: {what} lacks the key {missing[0]!r}")
    if extra:
        raise ValueError(f"{side}: {what} has the unknown key {extra[0]!r}")
    for key, (holds, kind) in schema.items():
        if not holds(record[key]):
            raise ValueError(f"{side}: {what} key {key!r} is not {kind}")


def load_trace(path: str | Path) -> Trace:
    """Read a trace CSV and its .meta.json sidecar.  A non-finite sample is
    refused, naming its line and column."""
    path = Path(path)
    side = meta_path(path)
    if not side.exists():
        raise FileNotFoundError(f"missing metadata sidecar {side}")
    try:
        sidecar = json.loads(side.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{side}: not valid JSON: {exc}") from None
    _require(side, "sidecar", sidecar, _SIDECAR)
    for event in sidecar["events"]:
        _require(side, "event", event, _EVENT)
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    n_sensors = len(sidecar["sensor_names"])
    if data.shape[1] != 6 + n_sensors:
        raise ValueError(f"{path}: expected {6 + n_sensors} columns, found {data.shape[1]}")
    trace = Trace(
        model=sidecar["model"],
        action_kind=sidecar["action_kind"],
        sensor_names=tuple(sidecar["sensor_names"]),
        t=data[:, 0],
        y=data[:, 1],
        yd=data[:, 2],
        ydd=data[:, 3],
        sensors=data[:, 4:4 + n_sensors],
        action=data[:, 4 + n_sensors],
        contact=data[:, 5 + n_sensors] != 0.0,
        events=[TraceEvent(**d) for d in sidecar["events"]],
        meta=sidecar["meta"],
    )
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"{path}: line {row + 2}, column "
                         f"'{trace.csv_header().split(',')[col]}': "
                         f"non-finite sample {data[row, col]}")
    return trace


class _DelayLine:
    """The leg force over the last transport delay, read off the dense output
    of the accepted steps (the method of steps).

    A kept step is ``(t_old, t_new, dense, ctx)``, with ``dense`` None in
    flight, where the leg force is zero; a zero-force span stands for t < 0.
    A step that crosses a contact ends at the event, so the force jump sits
    on a step boundary.  The stepper looks up no time earlier than one delay
    before the step it tries, nor later than its start, so a push drops the
    steps that ended before that and a cursor walks the rest.  The queue of
    delay echoes lives here too.
    """

    def __init__(self, model: HoppingModel, delay: float):
        self.delay = delay
        self.steps = [(-math.inf, 0.0, None, None)]
        self._leg_force = model.leg_force
        self._i = 0
        self._breaks: deque[float] = deque()

    def push(self, t_old: float, t_new: float, dense, ctx: StepContext) -> None:
        """Append an accepted step and drop the steps no lookup reaches."""
        steps = self.steps
        steps.append((t_old, t_new, dense, ctx))
        horizon = t_new - self.delay
        dead = 0
        while steps[dead][1] < horizon:
            dead += 1
        if dead:
            del steps[:dead]
            self._i = max(self._i - dead, 0)

    def at(self, t: float) -> float:
        """Leg force at ``t``, right-continuous at a contact event."""
        steps, i = self.steps, self._i
        while t < steps[i][0]:
            i -= 1
        while t >= steps[i][1]:
            i += 1
        self._i = i
        _, _, dense, ctx = steps[i]
        return 0.0 if dense is None else self._leg_force(t, dense(t), ctx)

    def before(self, t: float) -> float:
        """Left limit of :meth:`at` at ``t``."""
        steps, i = self.steps, self._i
        while t <= steps[i][0]:
            i -= 1
        while t > steps[i][1]:
            i += 1
        self._i = i
        _, _, dense, ctx = steps[i]
        return 0.0 if dense is None else self._leg_force(t, dense(t), ctx)

    def add_breakpoint(self, t: float) -> None:
        """Queue a future time the integrator must not step across."""
        if not self._breaks or t > self._breaks[-1] + _TIME_EPS:
            self._breaks.append(t)

    def next_break_after(self, t: float) -> float:
        while self._breaks and self._breaks[0] <= t + _TIME_EPS:
            self._breaks.popleft()
        return self._breaks[0] if self._breaks else math.inf


def _crossing(state, l0: float, h: float, y_a: float, y_b: float,
              stats: dict) -> tuple[float, tuple]:
    """Root of ``state(s)[0] = l0`` in (0, h], where the height goes from
    ``y_a`` at s = 0 to ``y_b`` at s = h across l0; ``state(s)`` is the
    step's solution (exact or dense output), (y, yd, ...).

    Newton with the slope yd from the secant guess, kept inside the sign
    bracket by bisection, until a step is at most 1e-15 s; returns the root
    and the state there.
    """
    lo, hi = 0.0, h
    below = y_a < l0
    s = h * (l0 - y_a) / (y_b - y_a)
    for _ in range(_NEWTON_MAX):
        stats["newton_iterations"] += 1
        x = state(s)
        g = x[0] - l0
        step = g / x[1]
        if g == 0.0 or abs(step) <= _ROOT_TOL:
            return s, x
        if (g < 0.0) == below:
            lo = s
        else:
            hi = s
        s -= step
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
    return s, state(s)


class _Recorder:
    """Fills the uniform-grid output arrays from dense-output segments."""

    def __init__(self, model: HoppingModel, cfg: IntegratorConfig):
        self.model = model
        n = int(math.floor(cfg.t_end * _SAMPLE_RATE + 1e-9)) + 1
        if n < 2:
            raise ValueError(f"t_end = {cfg.t_end!r} s is shorter than one sample period "
                             f"of the {_SAMPLE_RATE:g} Hz grid; a trace needs two samples")
        self.n = n
        try:
            self.t = np.arange(n) / _SAMPLE_RATE
            self.y = np.empty(n)
            self.yd = np.empty(n)
            self.ydd = np.empty(n)
            self.sensors = np.empty((n, len(model.sensor_names)))
            self.action = np.empty(n)
            self.contact = np.empty(n, dtype=bool)
        except MemoryError as exc:
            raise ValueError(f"t_end = {cfg.t_end!r} s needs {n} samples at "
                             f"{_SAMPLE_RATE:g} Hz, more than can be allocated") from exc
        self.next_idx = 0
        self._times = self.t.tolist()

    def due(self, t_hi: float) -> bool:
        """Whether a pending grid sample lies at or before ``t_hi``."""
        return self.next_idx < self.n and self._times[self.next_idx] <= t_hi + _TIME_EPS

    def record_state(self, t: float, x, ctx: StepContext) -> None:
        i = self.next_idx
        self.y[i] = x[0]
        self.yd[i] = x[1]
        self.ydd[i], self.sensors[i], self.action[i] = self.model.observe(t, x, ctx)
        self.contact[i] = ctx.contact
        self.next_idx += 1

    def record_span(self, dense, t_lo: float, t_hi: float, ctx: StepContext) -> None:
        """Emit all pending grid samples with t_lo < t_k <= t_hi."""
        while self.due(t_hi):
            tk = min(self._times[self.next_idx], t_hi)
            self.record_state(tk, dense(tk), ctx)


def provenance(model: HoppingModel, cfg: IntegratorConfig) -> dict:
    """Everything a trace of ``model`` under ``cfg`` depends on: the path
    (``stepper``) and the settings it uses, ``t_end``, the parameters, the
    package version and, for a model that tracks a stance, that reference's
    digest.  Each trace's sidecar keeps it, to say how the trace was made."""
    record = {"t_end": cfg.t_end, "params": model.params_dict(), "version": __version__}
    if model.stance_system() is None:
        record.update(stepper="dp45" if model.flight_flow is None else "dp45+flight", tol=cfg.tol)
    else:
        record["stepper"] = "exact-stance"
    if model.reference is not None:
        record["reference_sha256"] = model.reference.sha256
    return record


def integrate(model: HoppingModel, cfg: IntegratorConfig | None = None) -> Trace:
    """Simulate a hopping model and return its uniformly sampled trace.

    The one phase loop: each phase goes to :func:`_stance`, :func:`_flight`
    or a :class:`_DP45` segment, as the module docstring sets out, and one
    phase switch handles the contact event that ends it.

    Raises :class:`IntegrationError` on step-size underflow, non-finite
    state, or a stance input outside the linear stance's bound, with the
    time in the message.
    """
    cfg = cfg or IntegratorConfig()
    rec = _Recorder(model, cfg)
    l0, delay = model.common.rest_length, model.history_delay
    system = model.stance_system()
    flow = None if system is None else _StanceFlow(system)
    line = _DelayLine(model, delay)
    dp45 = _DP45(model, cfg, line)
    stance_counts = {"intervals": 0, "newton_iterations": 0}
    events: list[TraceEvent] = []

    t = 0.0
    x = tuple(float(v) for v in model.initial_state())
    contact = x[0] <= l0
    t_td = 0.0 if contact else math.nan
    t_calm = 0.0        # from here on a flight reads no delayed force
    ctx = StepContext(contact, t_td, line.at)
    rec.record_state(t, x, ctx)
    while t < cfg.t_end - _TIME_EPS:
        if contact and flow is not None:
            end = _stance(flow, system, model, rec, ctx, x, cfg.t_end, stance_counts)
            if end is None:
                break
        elif not contact and model.flight_flow is not None and t >= t_calm:
            end = _flight(model, rec, t, x, cfg.t_end)
            if end is None:
                break
            line.push(t, end[0], None, ctx)
            dp45.prev_h = None      # the phase after it starts with _initial_step
        else:
            t, x, end = dp45.segment(rec, t, x, ctx, cfg.t_end)
            if end is None:         # the segment ended on an echo or the run's end
                continue

        # switch phase at the event
        t_ev, x_ev = end
        ydd_before = float(model.observe(t_ev, x_ev, ctx)[0])
        kind = "liftoff" if contact else "touchdown"
        contact = not contact
        if contact:
            t_td = t_ev
        else:
            t_td = math.nan
            t_calm = t_ev + delay
        ctx = StepContext(contact, t_td, line.at)
        ydd_after = float(model.observe(t_ev, x_ev, ctx)[0])
        if delay > 0.0:
            # the force jump reaches the reflex delayed, as do the kinks it
            # imprints on the activation and force; stop on each echo
            for k in (1, 2, 3):
                line.add_breakpoint(t_ev + k * delay)
        events.append(TraceEvent(t_ev, kind, float(x_ev[0]), float(x_ev[1]),
                                 ydd_before, ydd_after))
        t, x = t_ev, x_ev

    if rec.next_idx != rec.n:
        raise IntegrationError(
            f"sampling incomplete: {rec.next_idx}/{rec.n} samples ({model.name})")

    transient = min(2.0, 0.25 * cfg.t_end)
    return Trace(
        model=model.name,
        action_kind=model.action_kind,
        sensor_names=model.sensor_names,
        t=rec.t, y=rec.y, yd=rec.yd, ydd=rec.ydd,
        sensors=rec.sensors, action=rec.action, contact=rec.contact,
        events=events,
        meta={
            **provenance(model, cfg),
            "sample_rate": _SAMPLE_RATE,
            "transient": transient,
            "max_height_post_transient": float(rec.y[rec.t >= transient].max()),
            **(dp45.counts if system is None else stance_counts),
        },
    )


# Dormand-Prince 4(5) (Dormand & Prince 1980) with Shampine's quartic dense
# output (Math. Comp. 46, 1986): the tableau, error weights and interpolant
# of scipy's RK45.  The second stage has zero weight in the solution, the
# error estimate and the interpolant, so it is left out of all three.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200,
                                -22 / 525, 1 / 40)
# interpolant weights of stages 1, 3, 4, 5, 6, 7 for the powers 2..4 of the
# step fraction; the power 1 weighs the first stage alone
_P21, _P23, _P24, _P25, _P26, _P27 = (
    -8048581381 / 2820520608, 131558114200 / 32700410799, -1754552775 / 470086768,
    127303824393 / 49829197408, -282668133 / 205662961, 40617522 / 29380423)
_P31, _P33, _P34, _P35, _P36, _P37 = (
    8663915743 / 2820520608, -68118460800 / 10900136933, 14199869525 / 1410260304,
    -318862633887 / 49829197408, 2019193451 / 616988883, -110615467 / 29380423)
_P41, _P43, _P44, _P45, _P46, _P47 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072,
    701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5              # -1 / (order of the error estimate + 1)
_SQRT3 = 3 ** 0.5                     # RMS norm over the three state components


def _rms(a: float, b: float, c: float) -> float:
    return math.sqrt(a * a + b * b + c * c) / _SQRT3


def _dp45_step(rhs, ctx: StepContext, t: float, h: float, y, k1,
               atol: float, rtol: float):
    """One Dormand-Prince step of size ``h`` from ``(t, y)``, where
    ``k1 = rhs(t, y, ctx)``.

    Returns the fifth-order solution, ``rhs`` there (the first stage of the
    next step), the stages the interpolant needs, and the RMS norm of the
    embedded error estimate relative to ``atol + max(|y|, |y_new|) rtol``.
    """
    y0, y1, y2 = y
    a0, a1, a2 = k1
    b0, b1, b2 = rhs(t + _C2 * h, (y0 + _A21 * a0 * h, y1 + _A21 * a1 * h,
                                   y2 + _A21 * a2 * h), ctx)
    c0, c1, c2 = k3 = rhs(t + _C3 * h, (y0 + (_A31 * a0 + _A32 * b0) * h,
                                        y1 + (_A31 * a1 + _A32 * b1) * h,
                                        y2 + (_A31 * a2 + _A32 * b2) * h), ctx)
    d0, d1, d2 = k4 = rhs(t + _C4 * h, (y0 + (_A41 * a0 + _A42 * b0 + _A43 * c0) * h,
                                        y1 + (_A41 * a1 + _A42 * b1 + _A43 * c1) * h,
                                        y2 + (_A41 * a2 + _A42 * b2 + _A43 * c2) * h), ctx)
    e0, e1, e2 = k5 = rhs(t + _C5 * h, (
        y0 + (_A51 * a0 + _A52 * b0 + _A53 * c0 + _A54 * d0) * h,
        y1 + (_A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * d1) * h,
        y2 + (_A51 * a2 + _A52 * b2 + _A53 * c2 + _A54 * d2) * h), ctx)
    g0, g1, g2 = k6 = rhs(t + h, (
        y0 + (_A61 * a0 + _A62 * b0 + _A63 * c0 + _A64 * d0 + _A65 * e0) * h,
        y1 + (_A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * d1 + _A65 * e1) * h,
        y2 + (_A61 * a2 + _A62 * b2 + _A63 * c2 + _A64 * d2 + _A65 * e2) * h), ctx)
    n0, n1, n2 = y_new = (y0 + h * (_B1 * a0 + _B3 * c0 + _B4 * d0 + _B5 * e0 + _B6 * g0),
                          y1 + h * (_B1 * a1 + _B3 * c1 + _B4 * d1 + _B5 * e1 + _B6 * g1),
                          y2 + h * (_B1 * a2 + _B3 * c2 + _B4 * d2 + _B5 * e2 + _B6 * g2))
    z0, z1, z2 = k7 = rhs(t + h, y_new, ctx)
    err = _rms(
        (_E1 * a0 + _E3 * c0 + _E4 * d0 + _E5 * e0 + _E6 * g0 + _E7 * z0) * h
        / (atol + max(abs(y0), abs(n0)) * rtol),
        (_E1 * a1 + _E3 * c1 + _E4 * d1 + _E5 * e1 + _E6 * g1 + _E7 * z1) * h
        / (atol + max(abs(y1), abs(n1)) * rtol),
        (_E1 * a2 + _E3 * c2 + _E4 * d2 + _E5 * e2 + _E6 * g2 + _E7 * z2) * h
        / (atol + max(abs(y2), abs(n2)) * rtol))
    return y_new, k7, (k1, k3, k4, k5, k6, k7), err


def _dense_output(t_old: float, h: float, y, stages):
    """The step's quartic interpolant, as a function of time."""
    y0, y1, y2 = y
    (a0, a1, a2), (c0, c1, c2), (d0, d1, d2), (e0, e1, e2), (g0, g1, g2), \
        (z0, z1, z2) = stages
    p0 = _P21 * a0 + _P23 * c0 + _P24 * d0 + _P25 * e0 + _P26 * g0 + _P27 * z0
    p1 = _P21 * a1 + _P23 * c1 + _P24 * d1 + _P25 * e1 + _P26 * g1 + _P27 * z1
    p2 = _P21 * a2 + _P23 * c2 + _P24 * d2 + _P25 * e2 + _P26 * g2 + _P27 * z2
    q0 = _P31 * a0 + _P33 * c0 + _P34 * d0 + _P35 * e0 + _P36 * g0 + _P37 * z0
    q1 = _P31 * a1 + _P33 * c1 + _P34 * d1 + _P35 * e1 + _P36 * g1 + _P37 * z1
    q2 = _P31 * a2 + _P33 * c2 + _P34 * d2 + _P35 * e2 + _P36 * g2 + _P37 * z2
    r0 = _P41 * a0 + _P43 * c0 + _P44 * d0 + _P45 * e0 + _P46 * g0 + _P47 * z0
    r1 = _P41 * a1 + _P43 * c1 + _P44 * d1 + _P45 * e1 + _P46 * g1 + _P47 * z1
    r2 = _P41 * a2 + _P43 * c2 + _P44 * d2 + _P45 * e2 + _P46 * g2 + _P47 * z2

    def at(t: float) -> tuple[float, float, float]:
        s = (t - t_old) / h
        hs = h * s
        return (y0 + hs * (a0 + s * (p0 + s * (q0 + s * r0))),
                y1 + hs * (a1 + s * (p1 + s * (q1 + s * r1))),
                y2 + hs * (a2 + s * (p2 + s * (q2 + s * r2))))
    return at


def _initial_step(rhs, ctx: StepContext, t: float, y, f, t_bound: float,
                  atol: float, rtol: float) -> float:
    """First step size from the local scale of y, y' and y'' (Hairer,
    Norsett & Wanner, Solving ODEs I, II.4; scipy's select_initial_step)."""
    interval = t_bound - t
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms(*(v / sc for v, sc in zip(y, scale)))
    d1 = _rms(*(v / sc for v, sc in zip(f, scale)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = rhs(t + h0, [v + h0 * fv for v, fv in zip(y, f)], ctx)
    d2 = _rms(*((b - a) / sc for a, b, sc in zip(f, f1, scale))) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


class _DP45:
    """Dormand-Prince 4(5) segments of the full right-hand side, for the
    phases no closed form covers.

    The state is three floats throughout.  The step-size controller is
    RK45's: RMS error norm, safety factor 0.9, step ratio within [0.2, 10]
    and no growth right after a rejection.  A segment starts with a fresh
    first stage and the size of the last step taken (``prev_h``; when that
    is None, as at the start and after a closed-form phase, with
    :func:`_initial_step`); within it each step reuses the previous step's
    last stage.  The interpolant is built for every contact step, which the
    delay line keeps, and for the flight steps that hold a grid sample or an
    event.  ``counts`` holds the work counts a trace's meta reports.
    """

    def __init__(self, model: HoppingModel, cfg: IntegratorConfig, line: _DelayLine):
        self.model, self.line = model, line
        self.rhs, self.l0 = model.derivative, model.common.rest_length
        # step stages must only read the delay line over completed steps
        self.max_step = 0.9 * model.history_delay or math.inf
        self.atol, self.rtol = cfg.tol, max(cfg.tol, 100 * math.ulp(1.0))
        self.prev_h: float | None = None
        self.counts = {"rhs_calls": 0, "accepted_steps": 0, "rejected_steps": 0,
                       "segments": 0, "min_step_taken": math.inf, "max_step_taken": 0.0,
                       "newton_iterations": 0}

    def segment(self, rec: _Recorder, t: float, x, ctx: StepContext,
                t_end: float) -> tuple[float, tuple, tuple[float, tuple] | None]:
        """Step from ``(t, x)`` in the phase ``ctx`` to the next delay echo,
        the run's end or a contact event, whichever comes first, recording
        the samples and pushing each step onto the delay line.

        Returns the time and state reached and, if it is a contact event,
        that event's time and state (else None).
        """
        model, line, rhs, l0 = self.model, self.line, self.rhs, self.l0
        max_step, atol, rtol = self.max_step, self.atol, self.rtol
        contact = ctx.contact
        t_echo = line.next_break_after(t)
        t_stop = min(t_end, t_echo)
        # the force jump an echo delivers belongs to the segment after it
        step_ctx = StepContext(contact, ctx.t_touchdown, line.before) if t_echo <= t_end \
            else ctx
        f = rhs(t, x, ctx)
        rhs_calls = 1
        if not all(map(math.isfinite, f)):     # else no step-size test ever holds
            raise IntegrationError(f"non-finite derivative at t = {t:.9f} s ({model.name})")
        if self.prev_h is None:
            h_abs = _initial_step(rhs, ctx, t, x, f, t_stop, atol, rtol)
            rhs_calls += 1
        else:
            h_abs = min(max(self.prev_h, 1e-14), t_stop - t)
        accepted = rejected_total = 0
        h_min, h_max = math.inf, 0.0

        event = None
        g_prev = x[0] - l0
        while t < t_stop:
            min_step = 10.0 * (math.nextafter(t, math.inf) - t)
            h_abs = min(max(h_abs, min_step), max_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise IntegrationError(
                        f"step size underflow at t = {t:.9f} s ({model.name})")
                t_new = min(t + h_abs, t_stop)
                h = h_abs = t_new - t
                x_new, f_new, stages, err = _dp45_step(rhs, step_ctx, t, h, x, f, atol, rtol)
                rhs_calls += 6
                if err < 1.0:
                    factor = _MAX_FACTOR if err == 0.0 else \
                        min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                    h_abs *= min(1.0, factor) if rejected else factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                rejected = True
                rejected_total += 1
            if not all(map(math.isfinite, x_new)):
                raise IntegrationError(
                    f"non-finite state at t = {t_new:.9f} s ({model.name})")
            accepted += 1
            h_min, h_max = min(h_min, h), max(h_max, h)
            g_new = x_new[0] - l0

            crossed = (not contact and g_prev > 0.0 and g_new <= 0.0) or \
                      (contact and g_prev < 0.0 and g_new >= 0.0)
            if crossed:
                dense = _dense_output(t, h, x, stages)
                if g_new == 0.0:
                    t_ev, x_ev = t_new, x_new
                else:
                    s, x_ev = _crossing(lambda r: dense(t + r), l0, h, x[0], x_new[0],
                                        self.counts)
                    t_ev = t + s
                rec.record_span(dense, t, t_ev, ctx)
                line.push(t, t_ev, dense if contact else None, ctx)
                event = t_ev, x_ev
                break

            dense = _dense_output(t, h, x, stages) if contact else None
            if rec.due(t_new):
                rec.record_span(dense or _dense_output(t, h, x, stages), t, t_new, ctx)
            line.push(t, t_new, dense, ctx)
            t, x, f = t_new, x_new, f_new
            g_prev = g_new

        self.prev_h = h
        counts = self.counts
        counts["rhs_calls"] += rhs_calls
        counts["accepted_steps"] += accepted
        counts["rejected_steps"] += rejected_total
        counts["segments"] += 1
        counts["min_step_taken"] = min(counts["min_step_taken"], h_min)
        counts["max_step_taken"] = max(counts["max_step_taken"], h_max)
        return t, x, event


# ---------------------------------------------------------------------------
# closed-form propagators: exact linear stance, ballistic flight
# ---------------------------------------------------------------------------

_FACTORIALS = np.array([1.0, 1.0, 2.0, 6.0])

# [13/13] Pade coefficients and the 1-norm up to which that approximant is
# accurate to double precision (Higham 2005, SIAM J. Matrix Anal. Appl. 26)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the [13/13] Pade
    approximant, in NumPy alone.

    ``scipy.linalg.expm`` computes the same approximant, but on a two-core
    host about one fresh process in four spent 7-8 ms in each of its calls
    instead of 50 us (not with single-threaded OpenBLAS); an 8 s motor run
    makes about a hundred calls.
    """
    norm = np.abs(m).sum(axis=0).max()
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = m / 2.0 ** squarings
    b = _PADE13
    ident = np.eye(len(m))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


# LAPACK dgebal's safe range, dlamch('S') / dlamch('P') to its inverse, and
# that range narrowed by one factor of two
_SFMIN1 = np.finfo(float).tiny / np.finfo(float).eps
_SFMAX1 = 1.0 / _SFMIN1
_SFMIN2 = 2.0 * _SFMIN1
_SFMAX2 = 1.0 / _SFMIN2


def _norm_and_max(v: np.ndarray) -> tuple[float, float]:
    """2-norm and largest magnitude of ``v``; the norm is taken of ``v``
    divided by that magnitude, so it cannot overflow."""
    big = float(np.abs(v).max())
    if big == 0.0:
        return 0.0, 0.0
    return big * math.sqrt(float(((v / big) ** 2).sum())), big


def _balance(matrix: np.ndarray) -> np.ndarray:
    """Scale vector d, powers of two, for which D^-1 M D has rows and
    columns of about equal 2-norm (Parlett & Reinsch 1969).

    A port of LAPACK (3.5 and later) ``dgebal`` in scaling-only mode, the
    vector ``scipy.linalg.matrix_balance(m, permute=False, separate=True)``
    returns: sweep the rows until no scaling shrinks a row and column's
    norm sum below 0.95 of what it was, keeping every factor in dgebal's
    safe range.
    """
    a = np.array(matrix, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("cannot balance a matrix with non-finite entries")
    scale = np.ones(len(a))
    converged = False
    while not converged:
        converged = True
        for i in range(len(a)):
            c, ca = _norm_and_max(a[:, i])
            r, ra = _norm_and_max(a[i])
            if c == 0.0 or r == 0.0:
                continue
            total, f, g = c + r, 1.0, r / 2.0
            while c < g and max(f, c, ca) < _SFMAX2 and min(r, g, ra) > _SFMIN2:
                f, c, ca, r, g, ra = 2.0 * f, 2.0 * c, 2.0 * ca, r / 2.0, g / 2.0, ra / 2.0
            g = c / 2.0
            while g >= r and max(r, ra) < _SFMAX2 and min(f, c, g, ca) > _SFMIN2:
                f, c, g, ca, r, ra = f / 2.0, c / 2.0, g / 2.0, ca / 2.0, 2.0 * r, 2.0 * ra
            if c + r >= 0.95 * total \
                    or (f < 1.0 and scale[i] < 1.0 and f * scale[i] <= _SFMIN1) \
                    or (f > 1.0 and scale[i] > 1.0 and scale[i] >= _SFMAX1 / f):
                continue
            scale[i] *= f
            a[i] /= f
            a[:, i] *= f
            converged = False
    return scale


def _stance_generator(system: LinearStance) -> np.ndarray:
    """Van Loan's 8x8 block generator [[A, B], [0, S]] of a linear stance."""
    generator = np.zeros((8, 8))
    generator[:3, :3] = system.matrix
    generator[:3, 3] = system.input_gain
    generator[:3, 7] = system.drift
    generator[3, 4] = generator[4, 5] = generator[5, 6] = 1.0
    return generator


class _StanceFlow:
    """Exact flow of a :class:`LinearStance` across one piece of its input.

    Van Loan's block exponential: with S the nilpotent shift that
    differentiates the basis (1, r, r^2/2, r^3/6) and B = [b 0 0 0 drift],
    the top-right block of expm([[A, B], [0, S]] h) holds the integrals of
    e^(A (h - r)) b r^k / k! and of e^(A (h - r)) drift over 0 <= r <= h.
    The 3x8 propagator P(h) maps z = (x, c0, c1, c2, c3, 1), a state and the
    piece's cubic input coefficients, to the state h later.
    """

    def __init__(self, system: LinearStance):
        generator = _stance_generator(system)
        # A diagonal similarity by powers of two (LAPACK dgebal's balancing)
        # shrinks the motor's 1-norm from about 3e6/s to 1e4/s; unbalanced,
        # the squarings of the Pade approximant cost about 1e-11 m of
        # accuracy in y per interval.
        scale = _balance(generator)
        self._generator = generator * scale / scale[:, None]
        self._unscale = scale[:3, None] / scale
        self._cache: dict[float, np.ndarray] = {}

    def exact(self, h: float) -> np.ndarray:
        e = _expm(self._generator * h)[:3] * self._unscale
        return np.hstack((e[:, :3], e[:, 3:7] * _FACTORIALS, e[:, 7:]))

    def recurring(self, h: float) -> np.ndarray:
        """P(h) for the piece lengths and sample offsets that repeat in every
        stance; lengths within 1e-15 s of each other share one propagator."""
        key = round(float(h), 15)
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = self.exact(key)
        return out


def _input_pieces(system: LinearStance, period: float):
    """(start, length, cubic coefficients) of each stance input piece.

    Past the last knot the held input continues in pieces of one sample
    period, without end.
    """
    knots = system.knots.tolist()
    for i, coeffs in enumerate(system.coeffs):
        yield knots[i], knots[i + 1] - knots[i], coeffs
    held = np.array([system.hold, 0.0, 0.0, 0.0])
    for j in itertools.count():
        yield knots[-1] + j * period, period, held


def _check_input(model: HoppingModel, system: LinearStance, t: float, x: np.ndarray,
                 coeffs: np.ndarray, sigma: float) -> None:
    """Fail unless the stance input at ``t`` is finite and inside the linear
    model's bound.  A non-finite state makes the input non-finite too, its
    zero feedback gains included (0 * inf is nan)."""
    c0, c1, c2, c3 = coeffs
    u = float(system.feedback @ x) + c0 + sigma * (c1 + sigma * (c2 + sigma * c3))
    if not math.isfinite(u):
        raise IntegrationError(
            f"non-finite stance state or input at t = {t:.9f} s ({model.name})")
    if abs(u) > system.input_bound:
        raise IntegrationError(
            f"{model.name}: stance input {u:.4f} V at t = {t:.9f} s is outside "
            f"+/-{system.input_bound:g} V, where the exact stance model assumes "
            f"an unsaturated controller")


def _stance(flow: _StanceFlow, system: LinearStance, model: HoppingModel,
            rec: _Recorder, ctx: StepContext, x, t_end: float,
            stats: dict) -> tuple[float, np.ndarray] | None:
    """Propagate one stance from its touchdown state ``x`` piece by piece.

    Records the samples on the way; returns the liftoff time and state, or
    None when the run ends first.
    """
    l0 = model.common.rest_length
    # an overflowing state makes the propagators' products inf or nan, which
    # _check_input reports as an IntegrationError; numpy's warnings would
    # only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for s_a, h, coeffs in _input_pieces(system, 1.0 / _SAMPLE_RATE):
            t_a = ctx.t_touchdown + s_a
            z = np.concatenate((x, coeffs, (1.0,)))
            x_b = flow.recurring(h) @ z
            stats["intervals"] += 1
            lift = x[0] < l0 <= x_b[0]
            if lift:
                sigma, x_ev = _crossing(lambda r: flow.exact(r) @ z, l0, h, x[0], x_b[0],
                                        stats)
                t_stop = t_a + sigma
            else:
                t_stop = t_a + h

            def state(t, z=z, t_a=t_a, coeffs=coeffs):
                xs = flow.recurring(t - t_a) @ z
                _check_input(model, system, t, xs, coeffs, t - t_a)
                return xs

            rec.record_span(state, t_a, min(t_stop, t_end), ctx)
            if t_stop > t_end or (t_stop == t_end and not lift):
                return None
            if lift:
                _check_input(model, system, t_stop, x_ev, coeffs, sigma)
                return t_stop, x_ev
            _check_input(model, system, t_stop, x_b, coeffs, h)
            x = x_b


def _fall_time(height: float, speed: float, gravity: float) -> float:
    """Time until a ballistic body ``height`` above the ground, moving up at
    ``speed``, comes down to it (the later root of the parabola)."""
    root = math.sqrt(max(speed * speed + 2.0 * gravity * height, 0.0))
    if speed >= 0.0:
        return (speed + root) / gravity
    return 2.0 * height / (root - speed)     # same root, without cancellation


def _ballistic(x, tau: float, gravity: float, flow) -> tuple:
    """The state ``tau`` into a flight from ``x``: a parabola in y, and the
    auxiliary state moved by ``flow``."""
    return (x[0] + tau * (x[1] - 0.5 * gravity * tau), x[1] - gravity * tau, flow(x[2], tau))


# a flight context: its delayed force is zero, and the delay line is not read
_FLIGHT = StepContext(False)


def _flight(model: HoppingModel, rec: _Recorder, t: float, x,
            t_end: float) -> tuple[float, tuple] | None:
    """Closed-form flight from ``(t, x)`` to touchdown, for a model with a
    ``flight_flow`` whose delayed force stays zero until then.

    Records the samples on the way; returns the touchdown time and state, or
    None when the run ends first.
    """
    l0, gravity, flow = model.common.rest_length, model.common.gravity, model.flight_flow
    t_td = t + _fall_time(x[0] - l0, x[1], gravity)
    rec.record_span(lambda tt: _ballistic(x, tt - t, gravity, flow), t, min(t_td, t_end),
                    _FLIGHT)
    return None if t_td > t_end else (t_td, _ballistic(x, t_td - t, gravity, flow))


def contact_segments(contact: np.ndarray) -> list[tuple[int, int, bool]]:
    """Runs of equal contact flag as (start, stop_exclusive, flag) triples."""
    contact = np.asarray(contact, dtype=bool)
    if contact.size == 0:
        return []
    flips = np.nonzero(np.diff(contact))[0] + 1
    bounds = [0, *flips.tolist(), contact.size]
    return [(bounds[i], bounds[i + 1], bool(contact[bounds[i]]))
            for i in range(len(bounds) - 1)]


def extract_stance_reference(trace: Trace) -> ReferenceTrajectory:
    """Build the 1 kHz stance reference from the last complete stance phase.

    A complete stance is a touchdown event followed by a liftoff event.  The
    last one of a converged run is the periodic stance.  The segment is
    re-sampled onto a uniform millisecond grid anchored at the touchdown,
    using C1 Hermite interpolation through the trace samples and the exact
    event states at both ends.
    """
    stances: list[tuple[TraceEvent, TraceEvent]] = []
    pending_td: TraceEvent | None = None
    for ev in trace.events:
        if ev.kind == "touchdown":
            pending_td = ev
        elif ev.kind == "liftoff" and pending_td is not None:
            stances.append((pending_td, ev))
            pending_td = None
    if len(stances) < 2:
        raise ValueError(
            f"need at least 2 complete stance phases, found {len(stances)}")
    td, lo = stances[-1]

    inside = (trace.t > td.t) & (trace.t < lo.t)
    t_rel = np.concatenate(([0.0], trace.t[inside] - td.t, [lo.t - td.t]))
    y = np.concatenate(([td.y], trace.y[inside], [lo.y]))
    yd = np.concatenate(([td.yd], trace.yd[inside], [lo.yd]))
    # stance-side accelerations at the boundaries
    ydd = np.concatenate(([td.ydd_after], trace.ydd[inside], [lo.ydd_before]))

    duration = float(lo.t - td.t)
    grid = np.arange(int(math.floor(duration * _SAMPLE_RATE + 1e-9)) + 1) / _SAMPLE_RATE
    if duration - grid[-1] > 1e-9:
        grid = np.append(grid, duration)
    i = np.clip(np.searchsorted(t_rel, grid, side="right") - 1, 0, t_rel.size - 2)
    s = grid - t_rel[i]
    y0, y1, y2, y3 = hermite_coeffs(t_rel, y, yd)[i].T
    v0, v1, v2, v3 = hermite_coeffs(t_rel, yd, ydd)[i].T
    return ReferenceTrajectory(grid, y0 + s * (y1 + s * (y2 + s * y3)),
                               v0 + s * (v1 + s * (v2 + s * v3)),
                               v1 + s * (2.0 * v2 + 3.0 * s * v3))
