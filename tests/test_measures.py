"""Aggregate and state-dependent measures on constructed symbol data."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopmc.discretize import DiscreteTrace
from hopmc.measures import (
    compute_measures,
    mc_mi,
    mc_mi_state,
    mc_w,
    mc_w_state,
    moving_average,
)

from oracles import (
    dense_cmi,
    dense_conditional_entropy,
    dense_entropy,
    dense_joint,
    dense_mc_mi,
    dense_mc_w,
    dense_mutual_information,
)


def _discrete(w_next, w, s, a) -> DiscreteTrace:
    n = len(w)
    arr = lambda x: np.asarray(x, dtype=np.int64)
    return DiscreteTrace(
        model="toy", w_next=arr(w_next), w=arr(w), s=arr(s), a=arr(a),
        t=np.arange(n) / 1000.0, y=np.ones(n), contact=np.zeros(n, dtype=bool))


def _random_discrete(rng, alphabet=4, n=50) -> DiscreteTrace:
    seqs = rng.integers(0, alphabet, size=(4, n))
    return _discrete(*seqs)


def _deterministic_system(rng, n_w=6, n_s=3, n_a=3, length=400) -> DiscreteTrace:
    """Closed-loop symbolic system: s = h(w), a = g(s), w' = f(w, a)."""
    h = rng.integers(0, n_s, size=n_w)
    g = rng.integers(0, n_a, size=n_s)
    f = rng.integers(0, n_w, size=(n_w, n_a))
    w = int(rng.integers(0, n_w))
    ws, ss, aa = [], [], []
    for _ in range(length + 1):
        s = int(h[w])
        a = int(g[s])
        ws.append(w)
        ss.append(s)
        aa.append(a)
        w = int(f[w, a])
    w_arr = np.array(ws)
    return _discrete(w_arr[1:], w_arr[:-1], np.array(ss[:-1]), np.array(aa[:-1]))


class TestMcW:
    def test_world_determined_by_action_alone_is_zero(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 4, size=200)
        w = rng.integers(0, 4, size=200)
        d = _discrete(a, w, w, a)      # w' = a exactly
        assert mc_w(d) == 0.0

    def test_xor_world(self):
        # w' = w xor a with all four (w, a) combinations equally frequent
        w, a = [], []
        for i in range(2):
            for j in range(2):
                w.append(i)
                a.append(j)
        w, a = np.array(w * 5), np.array(a * 5)
        d = _discrete(w ^ a, w, w, a)
        assert mc_w(d) == pytest.approx(1.0, abs=1e-12)
        assert mc_w(d) == pytest.approx(
            dense_mc_w(d.w_next, d.w, d.a), abs=1e-12)

    @settings(max_examples=50)
    @given(st.integers(0, 10_000))
    def test_matches_dense_oracle(self, seed):
        d = _random_discrete(np.random.default_rng(seed))
        assert mc_w(d) == pytest.approx(dense_mc_w(d.w_next, d.w, d.a), abs=1e-12)
        assert mc_w(d) >= -1e-12


class TestMcWState:
    def test_constant_trace_is_all_zero(self):
        d = _discrete([3] * 10, [3] * 10, [1] * 10, [2] * 10)
        assert np.all(mc_w_state(d) == 0.0)

    @settings(max_examples=50)
    @given(st.integers(0, 10_000))
    def test_mean_equals_aggregate(self, seed):
        d = _random_discrete(np.random.default_rng(seed))
        assert mc_w_state(d).mean() == pytest.approx(mc_w(d), abs=1e-12)


class TestMcMi:
    def test_passive_observer(self):
        # w' copies w, a copies s, and the two pairs are unrelated:
        # MC_MI reduces to H(W) - H(A) on the empirical distributions
        rng = np.random.default_rng(3)
        w = rng.integers(0, 8, size=500)
        a = rng.integers(0, 3, size=500)
        d = _discrete(w, w, a, a)
        assert mc_mi(d) == pytest.approx(
            dense_entropy(dense_joint(d.w)) - dense_entropy(dense_joint(d.a)), abs=1e-12)

    def test_constant_controller_reduces_to_world_information(self):
        rng = np.random.default_rng(4)
        w_star = rng.integers(0, 6, size=301)
        d = _discrete(w_star[1:], w_star[:-1], [0] * 300, [0] * 300)
        assert mc_mi(d) == pytest.approx(
            dense_mutual_information(dense_joint(d.w_next, d.w)), abs=1e-12)

    @settings(max_examples=50)
    @given(st.integers(0, 10_000))
    def test_matches_dense_oracle(self, seed):
        d = _random_discrete(np.random.default_rng(seed))
        assert mc_mi(d) == pytest.approx(
            dense_mc_mi(d.w_next, d.w, d.a, d.s), abs=1e-12)

    def test_component_identity(self):
        d = _random_discrete(np.random.default_rng(9))
        r = compute_measures(d)
        assert r.mc_mi == r.h_wnext - r.h_wnext_given_w - r.h_a + r.h_a_given_s


class TestMcMiState:
    def test_constant_trace_is_all_zero(self):
        d = _discrete([3] * 10, [3] * 10, [1] * 10, [2] * 10)
        assert np.all(mc_mi_state(d) == 0.0)

    @settings(max_examples=50)
    @given(st.integers(0, 10_000))
    def test_mean_equals_aggregate(self, seed):
        d = _random_discrete(np.random.default_rng(seed))
        assert mc_mi_state(d).mean() == pytest.approx(mc_mi(d), abs=1e-12)


class TestDeterministicIdentities:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_closed_loop_determinism(self, seed):
        d = _deterministic_system(np.random.default_rng(seed))
        r = compute_measures(d)
        # world successor is a function of the world state alone, so the
        # action carries no extra conditional information -- exactly
        assert r.i_wnext_a_given_w == 0.0
        # and the two measures differ exactly by H(A|W')
        assert r.residual == pytest.approx(0.0, abs=1e-12)
        assert r.h_a_given_s == 0.0
        assert r.h_wnext_given_w == 0.0
        assert r.mc_w - r.mc_mi == pytest.approx(r.h_a_given_wnext, abs=1e-12)

    @settings(max_examples=50)
    @given(st.integers(0, 10_000))
    def test_residual_identity_on_stochastic_data(self, seed):
        # MC_W - MC_MI = I(A;S) + I(W';A|W) - I(W';A) holds for any data
        d = _random_discrete(np.random.default_rng(seed), alphabet=3, n=60)
        r = compute_measures(d)
        i_as = dense_mutual_information(dense_joint(d.a, d.s))
        i_wa = dense_mutual_information(dense_joint(d.w_next, d.a))
        assert r.mc_w - r.mc_mi == pytest.approx(
            i_as + r.i_wnext_a_given_w - i_wa, abs=1e-12)

    def test_shuffling_actions_destroys_controller_information(self):
        rng = np.random.default_rng(11)
        d = _deterministic_system(rng, n_w=12, n_s=6, n_a=6, length=4000)
        i_as = dense_mutual_information(dense_joint(d.a, d.s))
        h_a = dense_entropy(dense_joint(d.a))
        assert i_as == pytest.approx(h_a, abs=1e-12)   # deterministic policy
        shuffled = d.a.copy()
        rng.shuffle(shuffled)
        i_shuffled = dense_mutual_information(dense_joint(shuffled, d.s))
        assert i_shuffled < i_as
        assert i_shuffled < 0.1


class TestComputeMeasures:
    @settings(max_examples=50)
    @given(st.integers(0, 10_000), st.integers(2, 5), st.integers(1, 60))
    def test_every_field_matches_dense_oracles(self, seed, alphabet, n):
        d = _random_discrete(np.random.default_rng(seed), alphabet, n)
        p_wwa = dense_joint(d.w_next, d.w, d.a)
        p_ww = dense_joint(d.w_next, d.w)
        p_as = dense_joint(d.a, d.s)
        want = {
            "mc_w": dense_cmi(p_wwa),
            "h_wnext": dense_entropy(p_ww.sum(axis=1)),
            "h_wnext_given_w": dense_conditional_entropy(p_ww),
            "h_a": dense_entropy(p_as.sum(axis=1)),
            "h_a_given_s": dense_conditional_entropy(p_as),
            "i_wnext_a_given_w": dense_cmi(p_wwa.transpose(0, 2, 1)),
            "h_a_given_wnext": dense_conditional_entropy(dense_joint(d.a, d.w_next)),
        }
        want["mc_mi"] = (want["h_wnext"] - want["h_wnext_given_w"]
                         - want["h_a"] + want["h_a_given_s"])
        want["residual"] = want["mc_w"] - want["mc_mi"] - want["h_a_given_wnext"]
        r = compute_measures(d)
        for name, value in want.items():
            assert getattr(r, name) == pytest.approx(value, abs=1e-12), name


class TestMovingAverage:
    def test_hand_computed_window(self):
        out = moving_average(np.array([0.0, 0.0, 5.0, 0.0, 0.0]), block=5)
        np.testing.assert_allclose(out, [5 / 3, 5 / 4, 1.0, 5 / 4, 5 / 3], rtol=1e-15)

    def test_block_one_is_identity(self):
        x = np.array([1.0, -2.0, 3.5])
        np.testing.assert_array_equal(moving_average(x, block=1), x)

    def test_constant_unchanged(self):
        x = np.full(20, 2.5)
        np.testing.assert_allclose(moving_average(x, block=5), x, rtol=1e-15)

    def test_even_block_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            moving_average(np.zeros(5), block=4)

    def test_preserves_length_and_mean_structure(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=101)
        out = moving_average(x, block=5)
        assert out.shape == x.shape
        # interior equals the plain 5-point average
        i = 50
        assert out[i] == pytest.approx(x[i - 2:i + 3].mean(), rel=1e-12)


class TestErrors:
    def test_empty_trace_rejected(self):
        d = _discrete([0], [0], [0], [0])
        empty = DiscreteTrace(
            model="toy", w_next=d.w_next[:0], w=d.w[:0], s=d.s[:0], a=d.a[:0],
            t=d.t[:0], y=d.y[:0], contact=d.contact[:0])
        for fn in (mc_w, mc_w_state, mc_mi_state, compute_measures):
            with pytest.raises(ValueError):
                fn(empty)
