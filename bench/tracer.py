"""In-memory spans around hopmc's public calls, for the traced benchmark run.

The tracer patches the names the CLI looks up at call time (the
``integrator.integrate`` module attribute, the functions ``hopmc.cli``
imported by name, and ``Trace.save``) with wrappers that record one span
per call: name, start, end, parent span, op id and a few attributes.  It
changes no file under ``src/`` and restores every patched name on exit.

The model handed to ``integrate`` is wrapped in a proxy that only adds up
call counts and busy time of its methods; there is no span per RHS call.
Counts that need the returned arrays (distinct symbol tuples) are computed
after the op's timed region, in :meth:`Tracer.finish_op`.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import hopmc.cli as cli
import hopmc.integrator as integrator

MODELS = ("musfib", "muslin", "dcmot")

# per-layer metric name -> unit; the order is the order of BENCHMARK.json
LAYER_UNITS: dict[str, str] = {}
for _m in MODELS:
    LAYER_UNITS.update({
        f"integrator.{_m}.wall_s": "s",
        f"integrator.{_m}.self_s": "s",
        f"integrator.{_m}.events": "count",
        f"models.{_m}.rhs_calls": "count",
        f"models.{_m}.leg_force_calls": "count",
        f"models.{_m}.busy_s": "s",
        f"models.{_m}.rhs_per_sim_s": "1/s",
    })
LAYER_UNITS.update({
    "integrator.reference_s": "s",
    "integrator.save_s": "s",
    "integrator.load_s": "s",
    "integrator.csv_bytes": "B",
    "discretize.domains_s": "s",
    "discretize.build_s": "s",
    "discretize.symbols": "count",
    "discretize.support.wwa": "count",
    "discretize.support.ww": "count",
    "discretize.support.as": "count",
    "measures.aggregate_s": "s",
    "measures.aggregate_calls": "count",
    "measures.state_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
})


class _Calls:
    """Call count and busy time of one wrapped model method."""

    __slots__ = ("calls", "busy")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0


def _counted(fn, stats: _Calls):
    def wrapper(*args):
        t0 = perf_counter()
        out = fn(*args)
        stats.busy += perf_counter() - t0
        stats.calls += 1
        return out
    return wrapper


class CountingModel:
    """Proxy for a hopping model that counts the integrator's calls into it.

    ``derivative`` (the RHS), ``leg_force``, ``sensors`` and ``control`` are
    counted and timed; every other attribute is the wrapped model's own.
    Calls the model makes to itself are not counted.
    """

    def __init__(self, model):
        self._model = model
        self.rhs = _Calls()
        self.force = _Calls()
        self.other = _Calls()
        self.derivative = _counted(model.derivative, self.rhs)
        self.leg_force = _counted(model.leg_force, self.force)
        self.sensors = _counted(model.sensors, self.other)
        self.control = _counted(model.control, self.other)

    def __getattr__(self, name):
        return getattr(self._model, name)

    @property
    def busy_s(self) -> float:
        return self.rhs.busy + self.force.busy + self.other.busy


def _support(*columns: np.ndarray) -> int:
    return int(np.unique(np.stack(columns, axis=1), axis=0).shape[0])


class Tracer:
    """Spans of one benchmark run, kept in memory until :meth:`write`."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = None
        self._built: list[tuple[dict, object]] = []

    # -- spans -------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name, "op": self._op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id):
        """Root span of one op (or of the set-up, with ``op_id="setup"``)."""
        self._op = op_id
        try:
            with self.span("op") as record:
                yield record
        finally:
            self._op = None

    def finish_op(self) -> None:
        """Fill in the counts that need the returned arrays, untimed."""
        for record, d in self._built:
            record["attrs"].update(
                symbols=len(d),
                support_wwa=_support(d.w_next, d.w, d.a),
                support_ww=_support(d.w_next, d.w),
                support_as=_support(d.a, d.s))
        self._built.clear()

    # -- patching ----------------------------------------------------------
    def _wrap(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
            if after is not None:
                after(record, args, out)
            return out
        return wrapper

    @contextmanager
    def installed(self):
        """Patch hopmc's call sites for the duration of the block."""
        real_integrate = integrator.integrate
        real_save = integrator.Trace.save
        # name imported into hopmc.cli -> (layer, hook run after the call)
        patched = {
            "load_trace": ("integrator", lambda rec, args, out: rec["attrs"].update(
                bytes=Path(args[0]).stat().st_size)),
            "extract_stance_reference": ("integrator", None),
            "compute_domains": ("discretize", None),
            "build_discrete_trace": ("discretize",
                                     lambda rec, args, out: self._built.append((rec, out))),
            "compute_measures": ("measures", None),
            "mc_w_state": ("measures", None),
            "mc_mi_state": ("measures", None),
        }
        originals = {name: getattr(cli, name) for name in patched}

        def traced_integrate(model, cfg=None):
            proxy = CountingModel(model)
            with self.span("integrator.integrate", model=model.name) as record:
                trace = real_integrate(proxy, cfg)
            record["attrs"].update(
                sim_s=float(trace.t[-1]), events=len(trace.events),
                rhs_calls=proxy.rhs.calls, leg_force_calls=proxy.force.calls,
                busy_s=proxy.busy_s)
            return trace

        def traced_save(trace, path):
            with self.span("integrator.Trace.save") as record:
                out = real_save(trace, path)
            record["attrs"]["bytes"] = out.stat().st_size
            return out

        integrator.integrate = traced_integrate
        integrator.Trace.save = traced_save
        for name, (layer, after) in patched.items():
            setattr(cli, name, self._wrap(f"{layer}.{name}", originals[name], after))
        try:
            yield self
        finally:
            integrator.integrate = real_integrate
            integrator.Trace.save = real_save
            for name, fn in originals.items():
                setattr(cli, name, fn)

    # -- reporting ---------------------------------------------------------
    def _durations(self):
        return {s["id"]: s["end"] - s["start"] for s in self.spans}

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its child spans cover."""
        dur = self._durations()
        own = dict(dur)
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= dur[s["id"]]
        return own

    def layer_totals(self, op_id) -> dict[str, float]:
        """Per-layer metrics (all but ``trace.overhead_s``) of one op."""
        out = {name: 0 for name in LAYER_UNITS
               if name != "trace.overhead_s" and not name.endswith("rhs_per_sim_s")}
        dur = self._durations()
        own = self.self_times()
        sim_s = dict.fromkeys(MODELS, 0.0)
        for s in self.spans:
            if s["op"] != op_id:
                continue
            name, a, d = s["name"], s["attrs"], dur[s["id"]]
            if name == "integrator.integrate":
                m = a["model"]
                out[f"integrator.{m}.wall_s"] += d
                out[f"integrator.{m}.self_s"] += d - a["busy_s"]
                out[f"integrator.{m}.events"] += a["events"]
                out[f"models.{m}.rhs_calls"] += a["rhs_calls"]
                out[f"models.{m}.leg_force_calls"] += a["leg_force_calls"]
                out[f"models.{m}.busy_s"] += a["busy_s"]
                sim_s[m] += a["sim_s"]
            elif name == "integrator.extract_stance_reference":
                out["integrator.reference_s"] += d
            elif name == "integrator.Trace.save":
                out["integrator.save_s"] += d
                out["integrator.csv_bytes"] += a["bytes"]
            elif name == "integrator.load_trace":
                out["integrator.load_s"] += d
                out["integrator.csv_bytes"] += a["bytes"]
            elif name == "discretize.compute_domains":
                out["discretize.domains_s"] += d
            elif name == "discretize.build_discrete_trace":
                out["discretize.build_s"] += d
                out["discretize.symbols"] += a["symbols"]
                out["discretize.support.wwa"] += a["support_wwa"]
                out["discretize.support.ww"] += a["support_ww"]
                out["discretize.support.as"] += a["support_as"]
            elif name == "measures.compute_measures":
                out["measures.aggregate_s"] += d
                out["measures.aggregate_calls"] += 1
            elif name in ("measures.mc_w_state", "measures.mc_mi_state"):
                out["measures.state_s"] += d
            elif name.startswith("cli."):
                out["cli.self_s"] += own[s["id"]]
            elif name == "op":
                out["cli.bytes_written"] += a.get("bytes_written", 0)
        out.update({f"sim_s.{m}": sim_s[m] for m in MODELS})
        return out

    def table(self) -> list[str]:
        """Per-span-name call count, total and self time over the whole run."""
        dur = self._durations()
        own = self.self_times()
        rows: dict[str, list] = {}
        for s in self.spans:
            key = s["name"] + (f"[{s['attrs']['model']}]" if "model" in s["attrs"] else "")
            row = rows.setdefault(key, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[s["id"]]
            row[2] += own[s["id"]]
        lines = [f"{'span':<42}{'calls':>7}{'total_s':>11}{'self_s':>11}"]
        for key, (n, total, self_s) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"{key:<42}{n:>7}{total:>11.4f}{self_s:>11.4f}")
        return lines

    def shares(self, op_ids: list, wall: float) -> list[str]:
        """Share of each layer in the wall time of the given ops."""
        totals = [self.layer_totals(op_id) for op_id in op_ids]

        def share(*names):
            return 100.0 * sum(t[n] for t in totals for n in names) / wall

        rows = [
            ("integration, dcmot", share("integrator.dcmot.wall_s")),
            ("integration, all models", share(*(f"integrator.{m}.wall_s" for m in MODELS))),
            ("discretize + measures + CSV load",
             share("discretize.domains_s", "discretize.build_s", "measures.aggregate_s",
                   "measures.state_s", "integrator.load_s")),
            ("CSV save", share("integrator.save_s")),
            ("cli self", share("cli.self_s")),
        ]
        return ([f"# layer shares of {len(op_ids)} traced op(s), {wall:.3f} s in all"]
                + [f"#   {label:<34}{pct:6.1f} %" for label, pct in rows])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, indent=1) + "\n", encoding="utf-8")


def per_layer(tracer: Tracer, op_ids: list, traced_walls: list[float],
              untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics: the traced set-up's totals (zero where it has no
    spans) plus the median over traced ops of each op's totals, and the
    tracing overhead."""
    per_op = [tracer.layer_totals(op_id) for op_id in op_ids]
    setup = tracer.layer_totals("setup")
    sums = {}
    for name in per_op[0]:
        # counts stay whole: take the lower median, the value of one op
        median = (statistics.median_low if LAYER_UNITS.get(name) in ("count", "B")
                  else statistics.median)
        sums[name] = median(t[name] for t in per_op) + setup[name]
    for m in MODELS:
        sim_s = sums.pop(f"sim_s.{m}")
        sums[f"models.{m}.rhs_per_sim_s"] = sums[f"models.{m}.rhs_calls"] / sim_s if sim_s else 0.0
    sums["trace.overhead_s"] = (statistics.median(traced_walls)
                                - statistics.median(untraced_walls))
    return {name: sums[name] for name in LAYER_UNITS}
