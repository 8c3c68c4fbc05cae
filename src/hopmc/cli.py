"""Command-line pipeline driver.

Verbs:

* ``simulate``   -- run one hopping model, write its trace CSV + metadata.
* ``measure``    -- discretize one or more traces on shared domains and
  print the aggregate measures; optionally write state-dependent series.
* ``sweep-bins`` -- recompute the measures over a list of bin counts.
* ``report``     -- end-to-end: simulate all models, measure, write state
  series and a JSON summary.

The motor model (``dcmot``) tracks the last complete stance of a musfib
trace: ``report`` takes it from the musfib trace of the same report, and
``simulate`` from the ``trace_musfib.csv`` in ``--out``, refusing one that
another model made.  The stance is written to ``reference_stance.csv``,
which no verb reads.

Each trace sidecar holds the trace's provenance record (run length,
parameters, integration path and settings, package version and, for
``dcmot``, the digest of its stance).  ``report`` simulates every model and
overwrites the traces in ``--out``; ``measure`` and ``sweep-bins``
re-measure stored traces.  Both ``simulate`` and ``report`` make every trace
in memory first, so a refusal or a numerical failure writes no file.

Exit codes: 0 success, 1 usage error, 2 numerical failure.  All outputs are
deterministic; rerunning a command reproduces files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .discretize import (
    DEFAULT_BINS,
    BinningSpec,
    DiscreteTrace,
    build_discrete_trace,
    compute_domains,
)
from .integrator import (
    IntegrationError,
    IntegratorConfig,
    Trace,
    extract_stance_reference,
    load_trace,
)
from .measures import (
    MeasureResult,
    compute_measures,
    mc_mi_state,
    mc_w_state,
    moving_average,
)
from .models import (
    MODEL_NAMES,
    ReferenceTrajectory,
    load_config,
    make_model,
    parameter_names,
    write_csv,
)
from . import integrator

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

_REFERENCE_NAME = "reference_stance.csv"


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; we reserve 2 for
    numerical failures, so remap."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hopmc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate one hopping model")
    sim.add_argument("--model", required=True, choices=MODEL_NAMES)
    sim.add_argument("--duration", type=float, default=IntegratorConfig.t_end,
                     help="t_end, seconds [%(default)s]")
    sim.add_argument("--out", type=Path, default=Path("."), help="output directory")
    sim.add_argument("--config", type=Path, help="key = value parameter overrides")

    mea = sub.add_parser("measure", help="compute measures over trace files")
    mea.add_argument("traces", nargs="+", type=Path)
    mea.add_argument("--bins", type=int, default=DEFAULT_BINS,
                     help="bins per channel [%(default)s]")
    mea.add_argument("--out", type=Path, default=Path("."))
    mea.add_argument("--state-series", action="store_true",
                     help="write mc_state_<model>.csv files")

    swe = sub.add_parser("sweep-bins", help="measures vs. bin count")
    swe.add_argument("traces", nargs="+", type=Path)
    swe.add_argument("--bins", required=True,
                     help="comma-separated bin counts (at least two)")
    swe.add_argument("--out", type=Path, default=Path("."))

    rep = sub.add_parser("report", help="full pipeline over all models")
    rep.add_argument("--out", type=Path, default=Path("."))
    rep.add_argument("--duration", type=float, default=IntegratorConfig.t_end,
                     help="t_end, seconds [%(default)s]")
    rep.add_argument("--bins", type=int, default=DEFAULT_BINS,
                     help="bins per channel [%(default)s]")
    rep.add_argument("--config", type=Path)
    rep.add_argument("--state-series", action="store_true")
    return parser


def _trace_path(out: Path, model: str) -> Path:
    return out / f"trace_{model}.csv"


def _write_reference(out: Path, reference: ReferenceTrajectory) -> None:
    """Save the stance taken from the ``trace_musfib.csv`` in ``out`` next to it."""
    path = reference.to_csv(out / _REFERENCE_NAME)
    meta = {"source_trace": _trace_path(out, "musfib").name,
            "reference_sha256": reference.sha256}
    integrator.meta_path(path).write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _musfib_in(out: Path) -> Trace:
    """The musfib trace in ``out``, whose stance ``dcmot`` tracks."""
    path = _trace_path(out, "musfib")
    if not path.exists():
        raise ValueError(f"no {path}: run 'hopmc simulate --model musfib' into {out} "
                         f"first, or use 'hopmc report'")
    trace = load_trace(path)
    if trace.model != "musfib":
        raise ValueError(f"{path}: holds a trace of model {trace.model!r}, not 'musfib'")
    return trace


def cmd_simulate(args) -> int:
    cfg = IntegratorConfig(t_end=args.duration)
    overrides = load_config(args.config) if args.config else None
    reference = None
    if args.model == "dcmot":
        reference = extract_stance_reference(_musfib_in(args.out))
    trace = integrator.integrate(make_model(args.model, overrides, reference), cfg)
    # only a run that succeeded writes: the stance it tracked, then its trace
    args.out.mkdir(parents=True, exist_ok=True)
    if reference is not None:
        _write_reference(args.out, reference)
    path = trace.save(_trace_path(args.out, args.model))
    print(f"wrote {path} ({len(trace)} rows, "
          f"max height after transient: "
          f"{trace.meta['max_height_post_transient']:.4f} m)")
    return EXIT_OK


def _load_traces(paths) -> list[Trace]:
    traces = [load_trace(p) for p in paths]
    names = [t.model for t in traces]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate model names in inputs: {names}")
    return traces


def _measure(traces: list[Trace], bins: int
             ) -> tuple[BinningSpec, list[DiscreteTrace], list[MeasureResult]]:
    """The shared binning spec, each trace's discrete form (built once) and
    its aggregate measures."""
    spec = compute_domains(traces, bins=bins)
    discrete = [build_discrete_trace(t, spec) for t in traces]
    return spec, discrete, [compute_measures(d) for d in discrete]


_TABLE_ROWS = [
    ("MC_W", "mc_w"),
    ("MC_MI", "mc_mi"),
    ("H(W')", "h_wnext"),
    ("H(W'|W)", "h_wnext_given_w"),
    ("H(A)", "h_a"),
    ("H(A|S)", "h_a_given_s"),
    ("I(W';A|W)", "i_wnext_a_given_w"),
    ("H(A|W')", "h_a_given_wnext"),
    ("MC_W-MC_MI-H(A|W')", "residual"),
]


def _print_table(results: list[MeasureResult], bins: int) -> None:
    print(f"# measures over {len(results)} trace(s), bins={bins}")
    header = f"{'quantity [bits]':<22}" + "".join(f"{r.model:>12}" for r in results)
    print(header)
    for label, attr in _TABLE_ROWS:
        cells = "".join(f"{getattr(r, attr):>12.4f}" for r in results)
        print(f"{label:<22}{cells}")


def _write_state_series(discrete: list[DiscreteTrace], out: Path) -> None:
    """Write each model's ``mc_state_<model>.csv``: its state series and their
    block-5 moving averages, the smoothing the state-dependent analysis reads."""
    for d in discrete:
        w_series, mi_series = mc_w_state(d), mc_mi_state(d)
        path = write_csv(out / f"mc_state_{d.model}.csv",
                         "t,mc_w,mc_mi,mc_w_smooth,mc_mi_smooth,y,contact",
                         (d.t, w_series, mi_series, moving_average(w_series),
                          moving_average(mi_series), d.y, d.contact))
        print(f"wrote {path}")


def cmd_measure(args) -> int:
    _, discrete, results = _measure(_load_traces(args.traces), args.bins)
    _print_table(results, args.bins)
    if args.state_series:
        args.out.mkdir(parents=True, exist_ok=True)
        _write_state_series(discrete, args.out)
    return EXIT_OK


def cmd_sweep_bins(args) -> int:
    try:
        bin_list = [int(b) for b in args.bins.split(",") if b.strip()]
    except ValueError:
        raise ValueError(f"invalid bin list {args.bins!r}") from None
    if len(bin_list) < 2:
        raise ValueError("sweep needs at least two bin counts")
    traces = _load_traces(args.traces)
    # every bin count is measured before the first write
    sweep = [(bins, _measure(traces, bins)[2]) for bins in bin_list]
    args.out.mkdir(parents=True, exist_ok=True)
    lines = ["model,bins,mc_w,mc_mi"]
    print(f"{'model':<10}{'bins':>6}{'mc_w':>12}{'mc_mi':>12}")
    for bins, results in sweep:
        for res in results:
            lines.append(f"{res.model},{bins},"
                         f"{format(res.mc_w, '.17g')},{format(res.mc_mi, '.17g')}")
            print(f"{res.model:<10}{bins:>6}{res.mc_w:>12.4f}{res.mc_mi:>12.4f}")
    path = args.out / "measures_vs_bins.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return EXIT_OK


def _scope_overrides(overrides: dict[str, float]) -> dict[str, dict[str, float]]:
    """Each model's share of the overrides: the keys that its parameter set
    or the common hopper defines.  A key that no model defines is an error."""
    names = {m: parameter_names(m) for m in MODEL_NAMES}
    unknown = sorted(set(overrides).difference(*names.values()))
    if unknown:
        raise ValueError(f"unknown parameter(s) for every model: {unknown}")
    return {m: {k: v for k, v in overrides.items() if k in names[m]} for m in MODEL_NAMES}


def cmd_report(args) -> int:
    overrides = _scope_overrides(load_config(args.config) if args.config else {})
    cfg = IntegratorConfig(t_end=args.duration)
    # every trace and the measures are made in memory before the first write
    traces, reference = {}, None
    for name in MODEL_NAMES:
        if name == "dcmot":     # MODEL_NAMES lists musfib first, whose stance it tracks
            reference = extract_stance_reference(traces["musfib"])
        traces[name] = integrator.integrate(make_model(name, overrides[name], reference), cfg)
    spec, discrete, results = _measure(list(traces.values()), args.bins)

    args.out.mkdir(parents=True, exist_ok=True)
    for name, trace in traces.items():
        path = trace.save(_trace_path(args.out, name))
        print(f"wrote {path} (max height after transient: "
              f"{trace.meta['max_height_post_transient']:.4f} m)")
    _write_reference(args.out, reference)
    _print_table(results, args.bins)
    spec.save(args.out / "binning_spec.txt")
    if args.state_series:
        _write_state_series(discrete, args.out)
    summary = {
        "bins": args.bins,
        "series_window": "full run including the initial transient",
        "models": {r.model: {attr: getattr(r, attr) for _, attr in _TABLE_ROWS}
                   for r in results},
    }
    (args.out / "measures.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out / 'measures.json'}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "measure": cmd_measure,
        "sweep-bins": cmd_sweep_bins,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except IntegrationError as exc:
        print(f"hopmc: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"hopmc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
