"""Seeded workloads of the hopmc benchmark and the checks on their outputs.

A workload turns the benchmark's seed into CLI arguments; hopmc sees only
those.  Each op writes into a fresh directory, and :meth:`Workload.check`
returns the list of problems found in it (empty when the op passed).
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MODELS = ("musfib", "muslin", "dcmot")
NOMINAL_SEED = 0          # gives the paper's settings: 8 s traces, 300 bins
WINDOW_MS = 50            # durations are drawn from nominal +/- 50 ms, 1 ms grid
BINS = 300
NOMINAL_SWEEP = (50, 100, 200, 300, 400)
SWEEP_JITTER = 0.1        # each sweep count other than 300 moves by <= 10 %

# Acceptance bounds, as tests/test_acceptance.py has them.
APEX_HEIGHT, APEX_TOL = 1.070, 0.01
TABLE_MC_W = {"musfib": 7.219, "muslin": 4.975, "dcmot": 4.960}
TABLE_MC_MI = {"musfib": 7.310, "muslin": 5.153, "dcmot": 4.990}
TABLE_TOL = 0.8
RATIO_MIN = 1.2
CONSISTENCY_TOL = 1e-9

# MC_W / MC_MI of the nominal seed (8.000 s, 300 bins), recorded with the
# scipy-RK45 integrator at 1e-12 tolerance.  Re-running the pipeline with
# other tolerances or methods at the integration error floor moves these by
# up to about 1e-3 bits, so the tolerance is twice that: a stepper that stays
# at the floor passes, one that moves the traces beyond it fails.
NOMINAL_VALUES = {
    "musfib": (7.17681579689287, 7.3366436688556),
    "muslin": (5.712023442810198, 5.838755811723253),
    "dcmot": (5.549627288230226, 5.558348598722056),
}
NOMINAL_TOL = 2e-3


@dataclass(frozen=True)
class Inputs:
    """What the seed chose; printed with the result."""

    workload: str
    seed: int
    duration: float                 # seconds per simulated trace
    sweep: tuple[int, ...] = ()     # remeasure only
    paper_settings: bool = True     # False for the scaled-down smoke runs

    @property
    def nominal(self) -> bool:
        return self.seed == NOMINAL_SEED and self.paper_settings


def generate(workload: str, seed: int, scale: float = 1.0) -> Inputs:
    """Draw a workload's inputs from its seed; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    base = (32.0 if workload == "muscle-long" else 8.0) * scale
    offset_ms = 0 if seed == NOMINAL_SEED else rng.randint(-WINDOW_MS, WINDOW_MS)
    duration = round(base + offset_ms / 1000.0, 3)
    sweep = ()
    if workload == "remeasure":
        sweep = tuple(b if b == BINS or seed == NOMINAL_SEED
                      else rng.randint(round(b * (1 - SWEEP_JITTER)), round(b * (1 + SWEEP_JITTER)))
                      for b in NOMINAL_SWEEP)
    return Inputs(workload, seed, duration, sweep, paper_settings=scale == 1.0)


# -- output checks --------------------------------------------------------

def _check_apex(directory: Path, models) -> list[str]:
    problems = []
    for m in models:
        meta = json.loads((directory / f"trace_{m}.meta.json").read_text(encoding="utf-8"))
        h = meta["meta"]["max_height_post_transient"]
        if not abs(h - APEX_HEIGHT) <= APEX_TOL:
            problems.append(f"{m} apex {h:.4f} m is not {APEX_HEIGHT} +/- {APEX_TOL} m")
    return problems


def _check_values(values: dict[str, tuple[float, float]], inputs: Inputs) -> list[str]:
    """Table 1 within 0.8 bits, musfib >= 1.2x the others, nominal values."""
    problems = []
    if not inputs.paper_settings:
        return problems
    for m, (w, mi) in values.items():
        if not (abs(w - TABLE_MC_W[m]) <= TABLE_TOL and abs(mi - TABLE_MC_MI[m]) <= TABLE_TOL):
            problems.append(f"{m} MC_W {w:.4f} / MC_MI {mi:.4f} not within "
                            f"{TABLE_TOL} bits of Table 1")
    fib_w, fib_mi = values["musfib"]
    for other in ("muslin", "dcmot"):
        w, mi = values[other]
        if not (fib_w > w and fib_w >= RATIO_MIN * w and fib_mi >= RATIO_MIN * mi):
            problems.append(f"musfib/{other} ratio {fib_w / w:.3f} / {fib_mi / mi:.3f} "
                            f"below {RATIO_MIN}")
    if inputs.nominal:
        for m, (w, mi) in values.items():
            w0, mi0 = NOMINAL_VALUES[m]
            if not (abs(w - w0) <= NOMINAL_TOL and abs(mi - mi0) <= NOMINAL_TOL):
                problems.append(f"{m} MC_W {w!r} / MC_MI {mi!r} moved more than "
                                f"{NOMINAL_TOL} bits from the recorded {w0!r} / {mi0!r}")
    return problems


def _check_state_means(directory: Path, values: dict[str, tuple[float, float]]) -> list[str]:
    """Criterion 5: each state-series column averages to its aggregate."""
    problems = []
    for m, aggregates in values.items():
        data = np.loadtxt(directory / f"mc_state_{m}.csv", delimiter=",", skiprows=1, ndmin=2)
        for col, name, aggregate in ((1, "mc_w", aggregates[0]), (2, "mc_mi", aggregates[1])):
            diff = abs(math.fsum(data[:, col]) / data.shape[0] - aggregate)
            if not diff < CONSISTENCY_TOL:
                problems.append(f"{m} mean of {name} series is {diff:.1e} from the aggregate")
    return problems


# -- workloads --------------------------------------------------------------

class Workload:
    """One kind of op: its CLI calls, its promised files and its checks."""

    name = ""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs

    def setup_argvs(self, inputs_dir: Path) -> list[list[str]]:
        return []

    def op_argvs(self, out: Path, inputs_dir: Path) -> list[list[str]]:
        raise NotImplementedError

    def promised(self) -> list[str]:
        raise NotImplementedError

    def work(self) -> float:
        """Work units in one op, for the throughput metric."""
        raise NotImplementedError

    def check(self, out: Path, forced_missing: bool = False) -> list[str]:
        promised = self.promised() + (["forced-failure.marker"] if forced_missing else [])
        missing = [f for f in promised if not (out / f).is_file()]
        if missing:
            return [f"missing promised file(s): {', '.join(missing)}"]
        return self.check_contents(out)

    def check_contents(self, out: Path) -> list[str]:
        raise NotImplementedError


def _trace_files(models) -> list[str]:
    return [f"trace_{m}{ext}" for m in models for ext in (".csv", ".meta.json")]


class ReportCold(Workload):
    """``hopmc report --state-series`` into a fresh directory."""

    name = "report-cold"

    def op_argvs(self, out, inputs_dir):
        return [["report", "--out", str(out), "--duration", f"{self.inputs.duration:.3f}",
                 "--bins", str(BINS), "--state-series"]]

    def promised(self):
        return (_trace_files(MODELS) + ["reference_stance.csv", "reference_stance.meta.json"]
                + [f"mc_state_{m}.csv" for m in MODELS]
                + ["binning_spec.txt", "measures.json"])

    def work(self):
        return len(MODELS) * self.inputs.duration          # simulated model-seconds

    def check_contents(self, out):
        summary = json.loads((out / "measures.json").read_text(encoding="utf-8"))
        values = {m: (summary["models"][m]["mc_w"], summary["models"][m]["mc_mi"])
                  for m in MODELS}
        return (_check_apex(out, MODELS) + _check_values(values, self.inputs)
                + _check_state_means(out, values))


class MuscleLong(Workload):
    """``hopmc simulate`` of both muscle models for a long run each."""

    name = "muscle-long"
    models = ("musfib", "muslin")

    def op_argvs(self, out, inputs_dir):
        return [["simulate", "--model", m, "--duration", f"{self.inputs.duration:.3f}",
                 "--out", str(out)] for m in self.models]

    def promised(self):
        return _trace_files(self.models)

    def work(self):
        return len(self.models) * self.inputs.duration      # simulated model-seconds

    def check_contents(self, out):
        return _check_apex(out, self.models)


class Remeasure(Workload):
    """``sweep-bins`` and ``measure --state-series`` over traces made in set-up."""

    name = "remeasure"

    def setup_argvs(self, inputs_dir):
        return [["simulate", "--model", m, "--duration", f"{self.inputs.duration:.3f}",
                 "--out", str(inputs_dir)] for m in MODELS]

    def check_setup(self, inputs_dir: Path) -> list[str]:
        missing = [f for f in _trace_files(MODELS) if not (inputs_dir / f).is_file()]
        if missing:
            return [f"set-up did not write {', '.join(missing)}"]
        return _check_apex(inputs_dir, MODELS)

    def op_argvs(self, out, inputs_dir):
        traces = [str(inputs_dir / f"trace_{m}.csv") for m in MODELS]
        return [["sweep-bins", *traces, "--bins", ",".join(map(str, self.inputs.sweep)),
                 "--out", str(out)],
                ["measure", *traces, "--bins", str(BINS), "--state-series", "--out", str(out)]]

    def promised(self):
        return ["measures_vs_bins.csv"] + [f"mc_state_{m}.csv" for m in MODELS]

    def work(self):
        samples = len(MODELS) * round(self.inputs.duration * 1000)
        return samples * (len(self.inputs.sweep) + 1)       # samples x bin counts

    def check_contents(self, out):
        with open(out / "measures_vs_bins.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        got = sorted((r["model"], int(r["bins"])) for r in rows)
        want = sorted((m, b) for m in MODELS for b in self.inputs.sweep)
        if got != want:
            return [f"measures_vs_bins.csv has rows {got}, expected {want}"]
        values = {r["model"]: (float(r["mc_w"]), float(r["mc_mi"]))
                  for r in rows if int(r["bins"]) == BINS}
        return _check_values(values, self.inputs) + _check_state_means(out, values)


WORKLOADS = {cls.name: cls for cls in (ReportCold, MuscleLong, Remeasure)}
