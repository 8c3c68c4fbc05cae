"""Shared fixtures.

The full three-model pipeline is built once per session at two run lengths:
8 s, shared by the acceptance tests and the trace-level unit tests, and 32 s
(the longest run the benchmark makes), shared by the contract and the
tolerance budget test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from hopmc import (
    IntegratorConfig,
    Trace,
    build_discrete_trace,
    compute_domains,
    compute_measures,
    extract_stance_reference,
    integrate,
    make_model,
)
from hopmc.discretize import BinningSpec, DiscreteTrace
from hopmc.measures import MeasureResult, mc_mi_state, mc_w_state
from hopmc.models import DCMotModel, ReferenceTrajectory

MODELS = ("musfib", "muslin", "dcmot")
TRANSIENT = 2.0


@dataclass
class Pipeline:
    traces: dict[str, Trace]
    reference: ReferenceTrajectory
    spec: BinningSpec
    discrete: dict[str, DiscreteTrace]
    results: dict[str, MeasureResult]
    mc_w_series: dict[str, np.ndarray]
    mc_mi_series: dict[str, np.ndarray]


def _pipeline(t_end: float) -> Pipeline:
    cfg = IntegratorConfig(t_end=t_end)
    traces = {name: integrate(make_model(name), cfg) for name in ("musfib", "muslin")}
    reference = extract_stance_reference(traces["musfib"])
    traces["dcmot"] = integrate(DCMotModel(reference), cfg)
    spec = compute_domains(list(traces.values()), bins=300)
    discrete = {n: build_discrete_trace(t, spec) for n, t in traces.items()}
    return Pipeline(
        traces=traces,
        reference=reference,
        spec=spec,
        discrete=discrete,
        results={n: compute_measures(d) for n, d in discrete.items()},
        mc_w_series={n: mc_w_state(d) for n, d in discrete.items()},
        mc_mi_series={n: mc_mi_state(d) for n, d in discrete.items()},
    )


@pytest.fixture(scope="session")
def pipeline() -> Pipeline:
    return _pipeline(8.0)


@pytest.fixture(scope="session")
def long_pipeline() -> Pipeline:
    return _pipeline(32.0)


@pytest.fixture(scope="session")
def trace_dir(pipeline, tmp_path_factory):
    """Pipeline traces written to disk, for CLI-level tests."""
    out = tmp_path_factory.mktemp("traces")
    for name, trace in pipeline.traces.items():
        trace.save(out / f"trace_{name}.csv")
    pipeline.reference.to_csv(out / "reference_stance.csv")
    return out
