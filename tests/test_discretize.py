"""Binning, symbol packing, and discrete-trace construction."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopmc.discretize import (
    BinningSpec,
    ChannelDomain,
    DomainError,
    build_discrete_trace,
    combine_symbols,
    compute_domains,
    discretize_channel,
    normalize_action,
)
from hopmc.integrator import Trace


def _toy_trace(model="musfib", action_kind="muscle", sensor_names=("f_leg",),
               y=None, yd=None, ydd=None, sensors=None, action=None, volt_max=48.0):
    n = 3 if y is None else len(y)
    y = np.array([1.05, 1.0, 0.95] if y is None else y, dtype=float)
    yd = np.array([-0.5, -1.0, -0.5][:n] if yd is None else yd, dtype=float)
    ydd = np.array([-9.81, -9.81, 5.0][:n] if ydd is None else ydd, dtype=float)
    sensors = (np.array([[0.0], [10.0], [500.0]][:n]) if sensors is None
               else np.asarray(sensors, dtype=float))
    action = np.array([0.027, 0.1, 0.9][:n] if action is None else action, dtype=float)
    return Trace(model=model, action_kind=action_kind, sensor_names=sensor_names,
                 t=np.arange(n) / 1000.0, y=y, yd=yd, ydd=ydd,
                 sensors=sensors, action=action,
                 contact=np.array([False, True, True][:n]),
                 meta={"params": {"volt_max": volt_max}})


class TestComputeDomains:
    def test_union_of_ranges(self):
        t1 = _toy_trace(y=[0.9, 1.0, 1.05])
        t2 = _toy_trace(model="muslin", y=[0.95, 1.0, 1.07])
        spec = compute_domains([t1, t2], bins=300)
        assert spec.domain("y").lo == 0.9
        assert spec.domain("y").hi == 1.07
        assert spec.domain("y").bins == 300

    def test_single_trace(self):
        t1 = _toy_trace()
        spec = compute_domains([t1])
        assert spec.domain("y").lo == pytest.approx(0.95)
        assert spec.domain("y").hi == pytest.approx(1.05)

    def test_constant_channel_is_error_naming_channel(self):
        t1 = _toy_trace(ydd=[5.0, 5.0, 5.0])
        with pytest.raises(DomainError, match="ydd"):
            compute_domains([t1])

    def test_no_traces(self):
        with pytest.raises(ValueError):
            compute_domains([])

    def test_motor_sensors_pool_with_world_channels(self):
        muscle = _toy_trace(y=[0.9, 1.0, 1.05])
        motor = _toy_trace(model="dcmot", action_kind="motor",
                           sensor_names=("y", "yd"),
                           y=[0.95, 1.0, 1.2],
                           sensors=[[0.95, -0.5], [1.0, -1.0], [1.3, -0.5]],
                           action=[-48.0, 0.0, 48.0])
        spec = compute_domains([muscle, motor])
        # the sensor copy of y extends the world domain
        assert spec.domain("y").hi == 1.3
        assert spec.domain("y").lo == 0.9

    def test_actions_pool_after_normalization(self):
        muscle = _toy_trace(action=[0.027, 0.5, 1.0])
        motor = _toy_trace(model="dcmot", action_kind="motor",
                           sensor_names=("y", "yd"),
                           sensors=[[0.95, -0.5], [1.0, -1.0], [1.3, -0.5]],
                           action=[-24.0, 0.0, 24.0])   # normalized: 0.25..0.75
        spec = compute_domains([muscle, motor])
        assert spec.domain("a").lo == 0.027
        assert spec.domain("a").hi == 1.0


class TestDiscretizeChannel:
    DOM = ChannelDomain(0.0, 1.0, 300)

    def test_min_maps_to_zero(self):
        assert discretize_channel(np.array([0.0]), self.DOM)[0] == 0

    def test_max_maps_to_last_bin(self):
        assert discretize_channel(np.array([1.0]), self.DOM)[0] == 299

    def test_midpoint(self):
        assert discretize_channel(np.array([0.5]), self.DOM)[0] == 150

    def test_out_of_domain(self):
        with pytest.raises(DomainError, match="outside domain"):
            discretize_channel(np.array([1.5]), self.DOM)
        with pytest.raises(DomainError, match="outside domain"):
            discretize_channel(np.array([-0.1]), self.DOM)

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30))
    def test_monotone(self, xs):
        xs = np.sort(np.asarray(xs))
        syms = discretize_channel(xs, self.DOM)
        assert np.all(np.diff(syms) >= 0)
        assert np.all((syms >= 0) & (syms < 300))


def _unpack(packed: np.ndarray, bases) -> list[np.ndarray]:
    """Mixed-radix digits of packed symbols, least significant first."""
    parts = []
    for base in bases:
        packed, digit = np.divmod(packed, base)
        parts.append(digit)
    return parts


class TestCombineSymbols:
    def test_mixed_radix_example(self):
        out = combine_symbols([np.array([5]), np.array([2]), np.array([1])],
                              (300, 300, 300))
        assert out[0] == 5 + 2 * 300 + 1 * 300 * 300 == 90605

    def test_zeros(self):
        out = combine_symbols([np.zeros(2, int)] * 3, (300, 300, 300))
        assert np.all(out == 0)

    def test_out_of_base(self):
        with pytest.raises(ValueError, match="out of range"):
            combine_symbols([np.array([300])], (300,))

    def test_symbol_space_beyond_int64_is_refused(self):
        # (0, 0, b - 1) would pack to 2.7e19 and wrap around int64
        b = 3_000_000
        with pytest.raises(ValueError, match=r"bases \(3000000, 3000000, 3000000\)"):
            combine_symbols([np.array([0]), np.array([0]), np.array([b - 1])], (b, b, b))

    def test_largest_cube_that_fits_still_packs(self):
        b = 2_097_151       # 2**21 - 1, so b**3 < 2**63
        out = combine_symbols([np.array([b - 1])] * 3, (b, b, b))
        assert out[0] == b ** 3 - 1

    @given(st.lists(st.tuples(st.integers(0, 299), st.integers(0, 11),
                              st.integers(0, 6)), min_size=1, max_size=40))
    def test_round_trip(self, tuples):
        bases = (300, 12, 7)
        cols = [np.array([t[i] for t in tuples]) for i in range(3)]
        packed = combine_symbols(cols, bases)
        back = _unpack(packed, bases)
        for i in range(3):
            np.testing.assert_array_equal(back[i], cols[i])

    def test_round_trip_many_random(self):
        rng = np.random.default_rng(0)
        bases = (300, 300, 300)
        cols = [rng.integers(0, b, size=1000) for b in bases]
        back = _unpack(combine_symbols(cols, bases), bases)
        for i in range(3):
            np.testing.assert_array_equal(back[i], cols[i])


class TestNormalizeAction:
    def test_motor_endpoints(self):
        out = normalize_action(_toy_trace(action_kind="motor", action=[-48.0, 0.0, 48.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-15)

    def test_motor_scales_by_recorded_volt_max(self):
        out = normalize_action(_toy_trace(action_kind="motor", action=[-60.0, 55.0, 60.0],
                                          volt_max=60.0))
        assert out[0] == 0.0 and out[2] == 1.0
        assert 0.0 < out[1] < 1.0

    def test_motor_default_is_the_fixed_48_volt_map(self):
        # bit for bit the (a + 48) / 96 that traces were binned with before
        action = np.random.default_rng(0).uniform(-48.0, 48.0, size=3)
        out = normalize_action(_toy_trace(action_kind="motor", action=action))
        np.testing.assert_array_equal(out, (action + 48.0) / 96.0)

    def test_muscle_identity(self):
        out = normalize_action(_toy_trace(action=[0.027, 0.1, 0.9]))
        assert out[0] == 0.027

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            normalize_action(_toy_trace(action_kind="hydraulic"))


class TestBuildDiscreteTrace:
    def test_shift_alignment(self):
        trace = _toy_trace()
        spec = compute_domains([trace])
        d = build_discrete_trace(trace, spec)
        assert len(d) == 2
        assert d.w_next[0] == d.w[1]

    def test_muscle_sensor_is_scalar(self):
        trace = _toy_trace()
        spec = compute_domains([trace])
        d = build_discrete_trace(trace, spec)
        np.testing.assert_array_equal(
            d.s, discretize_channel(trace.sensors[:-1, 0], spec.domain("f_leg")))
        assert np.all(d.s < 300)

    def test_motor_sensor_is_composite(self):
        motor = _toy_trace(model="dcmot", action_kind="motor",
                           sensor_names=("y", "yd"),
                           sensors=[[0.95, -0.5], [1.0, -1.0], [1.05, -0.5]],
                           action=[-24.0, 0.0, 24.0])
        spec = compute_domains([motor])
        d = build_discrete_trace(motor, spec)
        channels = [discretize_channel(motor.sensors[:-1, j], spec.domain(name))
                    for j, name in enumerate(("y", "yd"))]
        np.testing.assert_array_equal(d.s, combine_symbols(channels, (300, 300)))
        assert np.all(d.s < 300 * 300)

    def test_world_symbol_round_trips(self):
        trace = _toy_trace()
        spec = compute_domains([trace])
        d = build_discrete_trace(trace, spec)
        channels = [discretize_channel(getattr(trace, name)[:-1], spec.domain(name))
                    for name in ("y", "yd", "ydd")]
        np.testing.assert_array_equal(d.w, combine_symbols(channels, (300, 300, 300)))

    def test_determinism(self):
        trace = _toy_trace()
        spec = compute_domains([trace])
        d1 = build_discrete_trace(trace, spec)
        d2 = build_discrete_trace(trace, spec)
        for name in ("w_next", "w", "s", "a"):
            np.testing.assert_array_equal(getattr(d1, name), getattr(d2, name))

    def test_too_short(self):
        trace = _toy_trace(y=[1.0])
        with pytest.raises(ValueError):
            build_discrete_trace(trace, compute_domains([_toy_trace()]))


class TestBinningSpecIO:
    def test_file_round_trip(self, tmp_path):
        spec = BinningSpec({
            "y": ChannelDomain(0.874, 1.0748, 300),
            "a": ChannelDomain(0.027, 1.0, 300),
        })
        path = tmp_path / "bins.txt"
        spec.save(path)
        rows = [line.split() for line in path.read_text(encoding="utf-8").splitlines()
                if not line.startswith("#")]
        back = {name: ChannelDomain(float(lo), float(hi), int(bins))
                for name, lo, hi, bins in rows}
        assert back == spec.channels

    def test_degenerate_domain_rejected(self):
        with pytest.raises(DomainError):
            ChannelDomain(1.0, 1.0, 300)
        with pytest.raises(DomainError):
            ChannelDomain(0.0, 1.0, 0)
