#!/usr/bin/env python3
"""Benchmark of the hopmc pipeline, driven from outside through ``hopmc.cli.main``.

Run from the root of a checkout of the repository::

    python3 bench/run.py --workload report-cold --seed 1 --seconds 34 --trace 0

Workloads (see ``bench/NOTES.md`` for why each exists):

* ``report-cold``  -- ``hopmc report --state-series`` into a fresh directory;
* ``muscle-long``  -- ``hopmc simulate`` of musfib and muslin for 32 s each;
* ``remeasure``    -- ``sweep-bins`` plus ``measure --state-series`` over
  traces simulated in set-up.

The benchmark imports hopmc from ``src/`` of the checkout, in this one
process and thread, and changes nothing there.  It sets up once, then runs
ops (closed loop, one at a time, each into a fresh directory) for about
``--seconds`` seconds and at least two ops, checks every op's outputs and
counts each op that fails a check; a failed op is not retried.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced ops and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status is 0 when a result
was printed, and non-zero without a result when hopmc cannot be imported
from the checkout or the set-up fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_OPS = 2                   # two ops of one seed are compared byte for byte
WORKLOAD_NAMES = ("report-cold", "muscle-long", "remeasure")
END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "throughput": "work/s", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="measure for about this long (at least two ops)")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the simulated durations (smoke test only; "
                             "values other than 1 skip the paper-value checks)")
    parser.add_argument("--fail-op", type=int, default=0, metavar="N",
                        help="force the output check of op N to fail (smoke test only)")
    return parser.parse_args(argv)


def import_hopmc():
    """Import ``hopmc.cli`` from the checkout's ``src/``; returns (module, seconds)."""
    if not (SRC / "hopmc" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hopmc package under {SRC}; "
                         "run from the root of a full checkout")
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import hopmc.cli as cli
    seconds = perf_counter() - t0
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"bench: imported hopmc from {cli.__file__}, not from {SRC}")
    return cli, seconds


def call_cli(cli, argv: list[str]) -> str | None:
    """Run one hopmc command with its output captured; return a problem or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:             # argparse rejected the arguments
        rc = exc.code
    if rc != 0:
        return f"`hopmc {argv[0]}` exited with {rc}: {err.getvalue().strip()[-400:]}"
    return None


def run_calls(cli, argvs, tracer) -> list[str]:
    for argv in argvs:
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        with span:
            problem = call_cli(cli, argv)
        if problem:
            return [problem]
    return []


def file_hashes(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def tail(walls: list[float]) -> str | None:
    """Highest percentile with at least ten ops beyond it, or None."""
    n = len(walls)
    if n < 11:
        return None
    k = n - 10
    return (f"op_tail_s = {sorted(walls)[k - 1]!r} s at p{100.0 * k / n:.1f} "
            f"(op {k} of {n} by time, 10 beyond it)")


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, import_s = import_hopmc()
    import tracer as tracing
    import workloads

    t0 = perf_counter()
    inputs = workloads.generate(args.workload, args.seed, args.scale)
    workload = workloads.WORKLOADS[args.workload](inputs)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs_dir = run_dir / "inputs"
    inputs_dir.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    print(f"# {inputs}")
    try:
        setup_argvs = workload.setup_argvs(inputs_dir)
        if tracer and setup_argvs:
            with tracer.installed(), tracer.op("setup"):
                problems = run_calls(cli, setup_argvs, tracer)
            tracer.finish_op()
        else:
            problems = run_calls(cli, setup_argvs, None)
        setup_s = import_s + perf_counter() - t0
        if setup_argvs and not problems:
            problems = workload.check_setup(inputs_dir)
        if problems:
            raise SystemExit(f"bench: set-up failed: {'; '.join(problems)}")
        ops = run_ops(args, cli, workload, inputs_dir, run_dir, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for op in ops if op["problems"])
    untraced = [op["wall"] for op in ops if not op["traced"] and not op["problems"]] \
        or [op["wall"] for op in ops if not op["traced"]]
    if tracer:
        traced_ok = [op for op in ops if op["traced"] and not op["problems"]] \
            or [op for op in ops if op["traced"]]
        metrics = tracing.per_layer(tracer, [op["id"] for op in traced_ok],
                                    [op["wall"] for op in traced_ok], untraced)
        units = tracing.LAYER_UNITS
        print("# per-layer spans over the whole run (self time = span minus child spans)")
        for line in tracer.table():
            print(line)
        for line in tracer.shares([op["id"] for op in traced_ok],
                                  sum(op["wall"] for op in traced_ok)):
            print(line)
        spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    else:
        op_s = statistics.median(untraced)
        metrics = {
            "setup_s": setup_s,
            "op_s": op_s,
            "throughput": workload.work() / op_s,
            # through set-up and the first op: what one command costs; later
            # ops only add heap growth that depends on how many ops fit the run
            "peak_rss_mb": ops[0]["rss_mb"],
        }
        units = END_TO_END_UNITS
        line = tail(untraced)
        print(f"# {line}" if line else
              f"# op_tail_s not reported: {len(untraced)} ops, it needs at least 11")
    print(f"# ops_attempted = {len(ops)}, ops_failed = {failed}")
    for name, value in metrics.items():
        print(f"{name:<34}{value:>18.6g} {units[name]}")
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_ops(args, cli, workload, inputs_dir, run_dir, tracer) -> list[dict]:
    """Closed loop of ops until the time is up; every op is checked."""
    ops: list[dict] = []
    reference = None
    start = perf_counter()
    while True:
        op_id = len(ops) + 1
        traced = tracer is not None and op_id % 2 == 0
        out = run_dir / f"op{op_id}"
        argvs = workload.op_argvs(out, inputs_dir)
        t0 = perf_counter()
        try:
            if traced:
                with tracer.installed(), tracer.op(op_id) as record:
                    problems = run_calls(cli, argvs, tracer)
            else:
                problems = run_calls(cli, argvs, None)
        except Exception:                 # an op that raises is a failed op
            problems = [traceback.format_exc(limit=-3)]
        wall = perf_counter() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            tracer.finish_op()
        if not problems:
            try:
                problems = workload.check(out, forced_missing=op_id == args.fail_op)
            except Exception:             # outputs the checks cannot read
                problems = [traceback.format_exc(limit=-3)]
        if out.is_dir():
            hashes = file_hashes(out)
            if traced:
                record["attrs"]["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
            if not problems:
                if reference is None:
                    reference = hashes
                elif hashes != reference:
                    differ = sorted(k for k in hashes.keys() | reference.keys()
                                    if hashes.get(k) != reference.get(k))
                    problems = [f"outputs differ from an earlier op of this seed: {differ}"]
            shutil.rmtree(out)
        ops.append({"id": op_id, "wall": wall, "traced": traced, "rss_mb": rss_mb,
                    "problems": problems})
        status = "ok" if not problems else "FAILED: " + " | ".join(problems)
        print(f"op {op_id:>3} {'traced' if traced else 'plain ':<7}{wall:10.4f} s  {status}")
        elapsed = perf_counter() - start
        if len(ops) >= MIN_OPS and elapsed + statistics.median(o["wall"] for o in ops) > args.seconds:
            return ops


if __name__ == "__main__":
    sys.exit(main())
