"""Entropy and information identities of the counted plug-in estimates.

Each quantity is read off :func:`compute_measures` on a trace whose columns
are placed so that one field is the quantity wanted: H(X) is ``h_a`` with
a = x, H(X|Y) is ``h_a_given_s`` with (a, s) = (x, y), I(X;Y) is
H(X) - H(X|Y), and I(X;Y|Z) is ``mc_w`` with (w', w, a) = (x, y, z).  The
per-sample counts behind them are checked against ``collections.Counter``.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopmc.discretize import DiscreteTrace
from hopmc.measures import _counts, _labels, compute_measures

from oracles import (
    dense_cmi,
    dense_conditional_entropy,
    dense_entropy,
    dense_joint,
    dense_mutual_information,
)


def symbol_sequences(n_seqs: int, alphabet: int = 4, max_len: int = 50):
    """Aligned random symbol sequences of equal length."""
    return st.integers(1, max_len).flatmap(
        lambda n: st.tuples(*[
            st.lists(st.integers(0, alphabet - 1), min_size=n, max_size=n)
            for _ in range(n_seqs)
        ]))


def _trace(w_next=None, w=None, s=None, a=None) -> DiscreteTrace:
    """A discrete trace with the given columns; missing ones are all zero."""
    cols = {"w_next": w_next, "w": w, "s": s, "a": a}
    n = len(next(c for c in cols.values() if c is not None))
    cols = {k: np.asarray(np.zeros(n) if c is None else c, dtype=np.int64)
            for k, c in cols.items()}
    return DiscreteTrace(
        model="toy", **cols, t=np.arange(n) / 1000.0, y=np.ones(n), contact=np.zeros(n, dtype=bool))


def _pack(x, y):
    """One symbol per (x, y) pair."""
    return np.asarray(x, dtype=np.int64) * 1000 + np.asarray(y, dtype=np.int64)


def entropy(x) -> float:
    return compute_measures(_trace(a=x)).h_a


def conditional_entropy(x, y) -> float:
    return compute_measures(_trace(a=x, s=y)).h_a_given_s


def mutual_information(x, y) -> float:
    r = compute_measures(_trace(a=x, s=y))
    return r.h_a - r.h_a_given_s


def cmi(x, y, z) -> float:
    return compute_measures(_trace(w_next=x, w=y, a=z)).mc_w


# symbols near 2**62, where packing four columns in mixed radix would overflow
_WIDE_SYMBOLS = st.integers(0, 2) | st.integers(2**62 - 2, 2**62 + 2)


class TestEstimateJoint:
    def test_counting(self):
        wn, w, _, _ = _labels(_trace(w_next=[0, 0, 1], w=[1, 1, 0]))
        assert _counts(wn, w).tolist() == [2, 2, 1]

    def test_single_sample(self):
        d = _trace(w_next=[3], w=[1], s=[0], a=[2])
        assert _counts(*_labels(d)).tolist() == [1]
        r = compute_measures(d)
        assert all(getattr(r, f) == 0.0 for f in
                   ("mc_w", "mc_mi", "h_wnext", "h_wnext_given_w", "h_a", "h_a_given_s",
                    "i_wnext_a_given_w", "h_a_given_wnext", "residual"))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            _trace(w_next=[0, 1], w=[0])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            compute_measures(_trace(w_next=[]))

    @given(st.integers(1, 40).flatmap(lambda n: st.lists(
        st.lists(_WIDE_SYMBOLS, min_size=n, max_size=n), min_size=4, max_size=4)))
    def test_marginalizing_equals_direct_estimate(self, seqs):
        # the count of each sample's tuple over any columns, in any order,
        # equals a direct count of the zipped columns
        labels = _labels(_trace(*seqs))
        for coords in ((0,), (1,), (2,), (0, 2), (2, 1), (0, 1, 3), (3, 0, 2, 1)):
            tuples = list(zip(*(seqs[i] for i in coords)))
            direct = Counter(tuples)
            got = _counts(*(labels[i] for i in coords))
            assert got.tolist() == [direct[t] for t in tuples]


class TestEntropy:
    def test_uniform_four(self):
        assert entropy([0, 1, 2, 3]) == pytest.approx(2.0, abs=1e-15)

    def test_point_mass(self):
        assert entropy([5, 5, 5]) == 0.0

    def test_dyadic(self):
        assert entropy([0, 0, 1, 2]) == pytest.approx(1.5, abs=1e-15)

    @given(symbol_sequences(2))
    def test_matches_dense(self, seqs):
        p = dense_joint(*seqs)
        assert entropy(_pack(*seqs)) == pytest.approx(dense_entropy(p), abs=1e-12)
        assert entropy(seqs[0]) == pytest.approx(dense_entropy(p.sum(axis=1)), abs=1e-12)


class TestConditionalEntropy:
    def test_deterministic_function_is_zero(self):
        y = [0, 1, 2, 0, 1, 2]
        x = [v % 2 for v in y]
        assert conditional_entropy(x, y) == 0.0

    def test_independent_equals_marginal_entropy(self):
        x = [0, 0, 1, 1]
        y = [0, 1, 0, 1]
        assert conditional_entropy(x, y) == pytest.approx(entropy(x), abs=1e-12)

    def test_bounds(self):
        x, y = [0, 1, 0, 1, 1], [2, 2, 0, 1, 0]
        h = conditional_entropy(x, y)
        assert 0.0 <= h <= entropy(x) + 1e-12

    @given(symbol_sequences(3))
    def test_matches_dense(self, seqs):
        pxy = dense_joint(seqs[0], seqs[1])
        assert conditional_entropy(seqs[0], seqs[1]) == pytest.approx(
            dense_conditional_entropy(pxy), abs=1e-12)


class TestMutualInformation:
    def test_independent_uniform_bits(self):
        x = [0, 0, 1, 1]
        y = [0, 1, 0, 1]
        assert mutual_information(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_identical_uniform_four(self):
        x = [0, 1, 2, 3]
        assert mutual_information(x, x) == pytest.approx(2.0, abs=1e-12)

    @given(symbol_sequences(2))
    def test_matches_dense_and_symmetric(self, seqs):
        ref = dense_mutual_information(dense_joint(*seqs))
        fwd = mutual_information(seqs[0], seqs[1])
        rev = mutual_information(seqs[1], seqs[0])
        assert fwd == pytest.approx(ref, abs=1e-12)
        assert rev == pytest.approx(fwd, abs=1e-12)
        assert fwd >= -1e-12


class TestConditionalMutualInformation:
    def test_xor_is_one_bit(self):
        ys, zs, xs = [], [], []
        for y in (0, 1):
            for a in (0, 1):
                xs.append(y ^ a)
                ys.append(y)
                zs.append(a)
        assert cmi(xs, ys, zs) == pytest.approx(1.0, abs=1e-12)

    def test_independent_target_is_zero(self):
        x = [0, 1, 0, 1, 0, 1, 0, 1]
        y = [0, 0, 1, 1, 0, 0, 1, 1]
        z = [0, 0, 0, 0, 1, 1, 1, 1]
        assert cmi(x, y, z) == pytest.approx(0.0, abs=1e-12)

    @given(symbol_sequences(3))
    def test_entropy_identity(self, seqs):
        # I(X;Y|Z) = H(X|Z) - H(X|Y,Z)
        x, y, z = seqs
        ident = conditional_entropy(x, z) - conditional_entropy(x, _pack(y, z))
        assert cmi(x, y, z) == pytest.approx(ident, abs=1e-12)
        assert cmi(x, y, z) >= -1e-12

    @given(symbol_sequences(3))
    def test_matches_dense(self, seqs):
        assert cmi(*seqs) == pytest.approx(dense_cmi(dense_joint(*seqs)), abs=1e-12)

    @given(symbol_sequences(3))
    def test_chain_rule(self, seqs):
        # I(X;Y,Z) = I(X;Y) + I(X;Z|Y) = I(X;Z) + I(X;Y|Z)
        x, y, z = seqs
        lhs = mutual_information(x, _pack(y, z))
        via_y = mutual_information(x, y) + cmi(x, z, y)
        via_z = mutual_information(x, z) + cmi(x, y, z)
        assert lhs == pytest.approx(via_y, abs=1e-12)
        assert lhs == pytest.approx(via_z, abs=1e-12)
