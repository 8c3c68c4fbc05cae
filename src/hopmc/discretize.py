"""Uniform binning of traces into aligned discrete symbol sequences.

Every channel is binned on a fixed global domain (the min/max pooled over
all traces handed to :func:`compute_domains`, so that independently
simulated models share one symbol space).  Vector-valued variables are
packed into a single composite symbol with mixed-radix place values; the
world symbol combines (y, yd, ydd).  Motor voltages are mapped affinely to
the unit interval before binning so that all models' actions live on one
comparable variable.

The discrete trace pairs each time step with its successor:
``w_next[k] == w[k + 1]`` by construction, and the sensor/action sequences
are truncated to the same length.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .integrator import Trace

__all__ = [
    "ChannelDomain",
    "BinningSpec",
    "DiscreteTrace",
    "DomainError",
    "compute_domains",
    "discretize_channel",
    "combine_symbols",
    "normalize_action",
    "build_discrete_trace",
    "DEFAULT_BINS",
    "ACTION_CHANNEL",
    "WORLD_CHANNELS",
]

DEFAULT_BINS = 300
WORLD_CHANNELS = ("y", "yd", "ydd")
ACTION_CHANNEL = "a"


class DomainError(ValueError):
    """A channel domain is degenerate or a value falls outside it."""


@dataclass(frozen=True)
class ChannelDomain:
    lo: float
    hi: float
    bins: int

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise DomainError(f"degenerate domain [{self.lo}, {self.hi}]")
        if self.bins < 1:
            raise DomainError(f"bin count must be >= 1, got {self.bins}")


@dataclass
class BinningSpec:
    """Per-channel (min, max, bins) built over the union of all traces."""

    channels: dict[str, ChannelDomain]

    def domain(self, name: str) -> ChannelDomain:
        try:
            return self.channels[name]
        except KeyError:
            raise DomainError(f"no domain for channel {name!r}") from None

    def save(self, path: str | Path) -> None:
        lines = ["# channel lo hi bins"]
        for name in sorted(self.channels):
            d = self.channels[name]
            lines.append(f"{name} {d.lo!r} {d.hi!r} {d.bins}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def normalize_action(trace: Trace) -> np.ndarray:
    """The trace's actions on the unit interval: muscle stimulations as they
    are, motor voltages mapped affinely from [-volt_max, volt_max] with the
    ``volt_max`` its parameters record, which must be a finite positive number."""
    action = np.asarray(trace.action, dtype=float)
    if trace.action_kind == "muscle":
        return action
    if trace.action_kind == "motor":
        params = trace.meta.get("params")
        volt_max = params.get("volt_max") if isinstance(params, dict) else None
        if type(volt_max) not in (int, float) or not 0.0 < volt_max < np.inf:
            raise ValueError(f"{trace.model}: params.volt_max must be a finite positive "
                             f"number, not {volt_max!r}")
        return (action + volt_max) / (2.0 * volt_max)
    raise ValueError(f"unknown action kind {trace.action_kind!r}")


def _trace_channels(trace: Trace) -> dict[str, np.ndarray]:
    """Named channel data of one trace, with the action already normalized.

    Sensor channels keep their physical names, so the motor model's (y, yd)
    sensors pool with the world channels of the same name.
    """
    channels = {"y": trace.y, "yd": trace.yd, "ydd": trace.ydd}
    for j, name in enumerate(trace.sensor_names):
        data = trace.sensors[:, j]
        if name in channels:
            channels[name] = np.concatenate([channels[name], data])
        else:
            channels[name] = data
    channels[ACTION_CHANNEL] = normalize_action(trace)
    return channels


def compute_domains(traces: Sequence[Trace], bins: int = DEFAULT_BINS) -> BinningSpec:
    """Per-channel min/max over the union of all traces' data."""
    if not traces:
        raise ValueError("need at least one trace")
    lo: dict[str, float] = {}
    hi: dict[str, float] = {}
    for trace in traces:
        for name, data in _trace_channels(trace).items():
            dmin, dmax = float(np.min(data)), float(np.max(data))
            lo[name] = min(lo.get(name, dmin), dmin)
            hi[name] = max(hi.get(name, dmax), dmax)
    channels = {}
    for name in lo:
        if not lo[name] < hi[name]:
            raise DomainError(
                f"channel {name!r} has zero range (constant value {lo[name]!r})")
        channels[name] = ChannelDomain(lo[name], hi[name], bins)
    return BinningSpec(channels)


def discretize_channel(x: np.ndarray, domain: ChannelDomain) -> np.ndarray:
    """Bin values on [lo, hi] into integers 0..bins-1 (floor rule, the top
    edge maps to the last bin)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < domain.lo) or np.any(x > domain.hi):
        bad = x[(x < domain.lo) | (x > domain.hi)][0]
        raise DomainError(
            f"value {bad!r} outside domain [{domain.lo}, {domain.hi}]")
    sym = np.floor((x - domain.lo) / (domain.hi - domain.lo) * domain.bins)
    return np.clip(sym, 0, domain.bins - 1).astype(np.int64)


def combine_symbols(symbols: Sequence[np.ndarray], bases: Sequence[int]) -> np.ndarray:
    """Mixed-radix pack: s1 + B1*s2 + B1*B2*s3 + ...

    The symbol space, the product of the bases, must fit in int64."""
    if len(symbols) != len(bases):
        raise ValueError("need one base per symbol sequence")
    bases = tuple(int(b) for b in bases)
    if np.prod(bases, dtype=object) > np.iinfo(np.int64).max:     # Python ints
        raise ValueError(f"the symbol space of bases {bases} overflows int64; "
                         f"use fewer bins")
    out = np.zeros_like(np.asarray(symbols[0], dtype=np.int64))
    place = 1
    for sym, base in zip(symbols, bases):
        sym = np.asarray(sym, dtype=np.int64)
        if np.any(sym < 0) or np.any(sym >= base):
            raise ValueError(f"symbol out of range for base {base}")
        out = out + place * sym
        place *= base
    return out


@dataclass
class DiscreteTrace:
    """Aligned (w_next, w, s, a) symbol sequences plus plotting context."""

    model: str
    w_next: np.ndarray
    w: np.ndarray
    s: np.ndarray
    a: np.ndarray
    t: np.ndarray          # time of step k (first len-1 samples of the trace)
    y: np.ndarray
    contact: np.ndarray

    def __post_init__(self) -> None:
        n = self.w_next.size
        for name in ("w", "s", "a", "t", "y", "contact"):
            if getattr(self, name).size != n:
                raise ValueError(f"sequence {name!r} length mismatch")

    def __len__(self) -> int:
        return int(self.w_next.size)


def build_discrete_trace(trace: Trace, spec: BinningSpec) -> DiscreteTrace:
    """Discretize one trace against a (shared) binning spec."""
    if len(trace) < 2:
        raise ValueError("trace must contain at least two samples")

    def packed(names, columns):
        domains = [spec.domain(name) for name in names]
        return combine_symbols([discretize_channel(x, d) for x, d in zip(columns, domains)],
                               [d.bins for d in domains])

    w_star = packed(WORLD_CHANNELS, (trace.y, trace.yd, trace.ydd))
    s_star = packed(trace.sensor_names, trace.sensors.T)
    a_star = discretize_channel(normalize_action(trace), spec.domain(ACTION_CHANNEL))

    return DiscreteTrace(
        model=trace.model,
        w_next=w_star[1:].copy(),
        w=w_star[:-1].copy(),
        s=s_star[:-1].copy(),
        a=a_star[:-1].copy(),
        t=trace.t[:-1].copy(),
        y=trace.y[:-1].copy(),
        contact=trace.contact[:-1].copy(),
    )
