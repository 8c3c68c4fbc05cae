"""Morphological-computation measures over discretized sensorimotor data.

Two aggregate measures are computed from the aligned (w', w, s, a) symbol
sequences of one behavior:

* ``mc_w``  -- I(W';W|A): how much the previous world state tells about the
  next one beyond what the action already determines.
* ``mc_mi`` -- behavior minus controller complexity, I(W';W) - I(A;S),
  assembled as H(W') - H(W'|W) - H(A) + H(A|S).

Everything rests on one counting primitive: for each sample, how often its
joint symbol tuple occurs.  A probability ratio of the plug-in estimate is
then a ratio of integer count products at that sample, and its log2 is the
sample's contribution: the state-dependent series are these contributions,
and each aggregate is their ``math.fsum`` mean.  (The w-part of the per-step
``mc_mi`` is log2 p(w'|w) - log2 p(w'), the orientation whose mean gives
I(W';W) - I(A;S).)  The products stay far below 2**53, so a ratio that
equals 1 gives exactly 0.0: on deterministic symbolic systems (w' = f(w,a),
a = g(s), s = h(w)) H(W'|W), H(A|S) and I(W';A|W) are exactly zero, and
MC_W - MC_MI = H(A|W') up to rounding.  On binned physical data these hold
only approximately; the result carries both residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteTrace

__all__ = [
    "MeasureResult",
    "mc_w",
    "mc_w_state",
    "mc_mi",
    "mc_mi_state",
    "moving_average",
    "compute_measures",
]


@dataclass(frozen=True)
class MeasureResult:
    """Aggregate measures and their component entropies for one behavior."""

    model: str
    mc_w: float
    mc_mi: float
    h_wnext: float
    h_wnext_given_w: float
    h_a: float
    h_a_given_s: float
    i_wnext_a_given_w: float
    h_a_given_wnext: float
    residual: float       # mc_w - mc_mi - H(A|W'); ~0 for deterministic data


def _labels(d: DiscreteTrace) -> list[np.ndarray]:
    """Dense labels 0..k-1 of the w', w, s and a columns, in symbol order."""
    if len(d) == 0:
        raise ValueError("empty discrete trace")
    return [np.unique(col, return_inverse=True)[1] for col in (d.w_next, d.w, d.s, d.a)]


def _counts(*labels: np.ndarray) -> np.ndarray:
    """For each sample, the number of samples with the same label tuple."""
    key = labels[0]
    for col in labels[1:]:
        # both factors are below n, so the folded key stays below n**2
        _, key = np.unique(key * (col.max() + 1) + col, return_inverse=True)
    return np.bincount(key)[key]


def _mean_log2(ratio: np.ndarray) -> float:
    return math.fsum(np.log2(ratio).tolist()) / ratio.size


def mc_w_state(d: DiscreteTrace) -> np.ndarray:
    """Per-step contribution log2 [p(w'|w,a) / p(w'|a)]; mean equals mc_w."""
    wn, w, _, a = _labels(d)
    return np.log2(_counts(wn, w, a) * _counts(a) / (_counts(w, a) * _counts(wn, a)))


def mc_w(d: DiscreteTrace) -> float:
    """I(W';W|A) in bits over the empirical (w', w, a) joint."""
    return math.fsum(mc_w_state(d).tolist()) / len(d)


def mc_mi_state(d: DiscreteTrace) -> np.ndarray:
    """Per-step contribution whose mean equals ``mc_mi``:
    log2 p(w'|w) - log2 p(w') + log2 p(a) - log2 p(a|s)."""
    n = len(d)
    wn, w, s, a = _labels(d)
    world = np.log2(_counts(wn, w) * n / (_counts(w) * _counts(wn)))
    ctrl = np.log2(_counts(a) * _counts(s) / (_counts(a, s) * n))
    return world + ctrl


def mc_mi(d: DiscreteTrace) -> float:
    """I(W';W) - I(A;S) in bits, assembled from the four entropy terms."""
    return compute_measures(d).mc_mi


def moving_average(x: np.ndarray, block: int = 5) -> np.ndarray:
    """Centered moving average; the window shrinks at the boundaries so the
    output has the input's length.  Block size must be odd."""
    if block < 1:
        raise ValueError("block must be >= 1")
    if block % 2 == 0:
        raise ValueError(f"block must be odd, got {block}")
    x = np.asarray(x, dtype=float)
    n = x.size
    half = (block - 1) // 2
    idx = np.arange(n)
    lo = np.maximum(0, idx - half)
    hi = np.minimum(n, idx + half + 1)
    csum = np.concatenate(([0.0], np.cumsum(x)))
    return (csum[hi] - csum[lo]) / (hi - lo)


def compute_measures(d: DiscreteTrace) -> MeasureResult:
    """All aggregate quantities for one discrete trace, each the fsum mean
    of its per-sample log-ratio."""
    n = len(d)
    wn, w, s, a = _labels(d)
    c_wn, c_w, c_a = _counts(wn), _counts(w), _counts(a)
    c_ww, c_wa, c_wna, c_wwa = _counts(wn, w), _counts(w, a), _counts(wn, a), _counts(wn, w, a)
    mcw = _mean_log2(c_wwa * c_a / (c_wa * c_wna))
    h_wnext = _mean_log2(n / c_wn)
    h_wnext_given_w = _mean_log2(c_w / c_ww)
    h_a = _mean_log2(n / c_a)
    h_a_given_s = _mean_log2(_counts(s) / _counts(a, s))
    mcmi = h_wnext - h_wnext_given_w - h_a + h_a_given_s
    h_a_given_wnext = _mean_log2(c_wn / c_wna)
    return MeasureResult(
        model=d.model,
        mc_w=mcw,
        mc_mi=mcmi,
        h_wnext=h_wnext,
        h_wnext_given_w=h_wnext_given_w,
        h_a=h_a,
        h_a_given_s=h_a_given_s,
        # I(W';A|W) is the mean of log2 [p(w'|w,a) / p(w'|w)]
        i_wnext_a_given_w=_mean_log2(c_wwa * c_w / (c_ww * c_wa)),
        h_a_given_wnext=h_a_given_wnext,
        residual=mcw - mcmi - h_a_given_wnext,
    )
