"""Integration driver: solver accuracy, events, sampling, serialization."""

import math
import os
from collections import Counter
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline
from scipy.linalg import expm, matrix_balance

import hopmc
from hopmc.discretize import _trace_channels, compute_domains
from hopmc.integrator import (
    IntegrationError,
    IntegratorConfig,
    _ballistic,
    _DelayLine,
    _flight,
    _Recorder,
    _balance,
    _expm,
    _stance_generator,
    contact_segments,
    extract_stance_reference,
    integrate,
    load_trace,
)
from hopmc.models import (
    DCMotModel,
    DCMotParams,
    HopperCommon,
    HoppingModel,
    MusFibModel,
    MusLinModel,
    StepContext,
    force_feedback_stimulation,
    make_model,
)


def _gebal_scale(m):
    """scipy's LAPACK gebal scale vector of ``m``, scaling only."""
    with np.errstate(invalid="ignore"):     # scipy also casts the scales to int
        _, (scale, _) = matrix_balance(m, permute=False, separate=True)
    return scale


class _DecayModel(HoppingModel):
    """dx/dt = -x packed into the hopper state layout; never touches ground."""

    name = "decay"
    action_kind = "muscle"
    sensor_names = ()

    def __init__(self):
        super().__init__(HopperCommon(mass=1.0, gravity=9.81, rest_length=1e-3))

    def initial_state(self):
        return np.array([1.0, 0.0, 0.0])

    def derivative(self, t, x, ctx):
        return np.array([-x[0], 0.0, 0.0])

    def leg_force(self, t, x, ctx):
        return 0.0

    def control(self, t, x, ctx):
        return 0.0

    def sensors(self, t, x, ctx):
        return ()

    def params_dict(self):
        return {}


class _BlowUpModel(_DecayModel):
    name = "blowup"

    def derivative(self, t, x, ctx):
        if t > 0.1:
            return np.array([math.nan, 0.0, 0.0])
        return np.array([0.0, 0.0, 0.0])


class _NaNModel(_DecayModel):
    name = "nan"

    def derivative(self, t, x, ctx):
        return (math.nan, 0.0, 0.0)


class _VanDerPolModel(_DecayModel):
    """A Van der Pol oscillator about y = 2 driving a first-order lag; it
    stays clear of the ground, and its first large step is rejected."""

    name = "vanderpol"
    sensor_names = ("lag",)

    def initial_state(self):
        return np.array([4.0, 0.0, 0.0])

    def derivative(self, t, x, ctx):
        y, yd, lag = x
        return (yd, 3.0 * (1.0 - (y - 2.0) ** 2) * yd - (y - 2.0), y - lag)

    def sensors(self, t, x, ctx):
        return (x[2],)


class _ForwardingProxy:
    """A model seen through a proxy, as a tracing harness sees it: the four
    callbacks go through counting lambdas, and every other attribute is the
    wrapped model's own, forwarded by ``__getattr__``."""

    def __init__(self, model):
        self._model = model
        self.calls = Counter()
        for name in ("derivative", "leg_force", "sensors", "control"):
            setattr(self, name, self._counted(name, getattr(model, name)))

    def _counted(self, name, fn):
        def call(*args):
            self.calls[name] += 1
            return fn(*args)
        return call

    def __getattr__(self, name):
        return getattr(self._model, name)


class TestSolverAccuracy:
    def test_exponential_decay(self):
        cfg = IntegratorConfig(t_end=1.0)
        trace = integrate(_DecayModel(), cfg)
        assert abs(trace.y[-1] - math.exp(-1.0)) < 1e-10

    def test_error_tracks_tolerance(self):
        errs = []
        for tol in (1e-6, 1e-9, 1e-12):
            cfg = IntegratorConfig(tol=tol, t_end=1.0)
            trace = integrate(_DecayModel(), cfg)
            errs.append(abs(trace.y[-1] - math.exp(-1.0)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[1] > 30.0

    @pytest.mark.parametrize("name", ["musfib", "muslin"])
    def test_muscle_converges_across_tolerances(self, name):
        """The muscle path's error floor: 2 s at 1e-10 and at 1e-12 agree in
        y to 2e-8 m (the delay line with closed-form late flight and
        Newton-located events gives 9.8e-10 m for musfib and 1.8e-10 m for
        muslin; the Hermite history the delay line replaced gave 2.7e-7 m for
        musfib)."""
        y = [integrate(make_model(name), IntegratorConfig(t_end=2.0, tol=tol)).y
             for tol in (1e-10, 1e-12)]
        assert np.abs(y[0] - y[1]).max() <= 2e-8

    @pytest.mark.parametrize("name", ["musfib", "muslin"])
    def test_muscle_error_floor_follows_tolerance(self, name):
        """The events add no floor of their own: 2 s at 1e-12 and at 1e-14
        agree in y to 5e-11 m (9.1e-12 m for musfib and 1.3e-12 m for muslin;
        events bisected to 1e-10 m gave 2.4e-10 and 4.3e-10 m)."""
        y = [integrate(make_model(name), IntegratorConfig(t_end=2.0, tol=tol)).y
             for tol in (1e-12, 1e-14)]
        assert np.abs(y[0] - y[1]).max() <= 5e-11

    @pytest.mark.parametrize("name", ["musfib", "muslin"])
    def test_default_tolerance_meets_bin_width_budget(self, long_pipeline, name):
        """The error budget the default tol is chosen by: over 32 s, the longest
        run the bench makes, no binned channel of the default run is further
        than 1e-3 of a 400-bin width from the 1e-12 run, with domains pooled
        over the two.  Against 1e-14 the default (1e-10) reads 2.2e-4 for
        musfib and 7.8e-5 for muslin, and 1e-12 itself 6e-6 and 1.4e-7.

        That largest error reads one sample.  The whole run reads in the
        expected symbol flips: a sample off by d widths lands in another bin
        than the converged run's with probability d (its place in its bin is
        uniform), so a channel's sum of |d| / width is the expected number of
        its samples that flip.  The budget asks that the default run bins as
        the converged run does, so each channel of the 32 s run may flip at
        most one sample in expectation.  Today: at most 0.24 (musfib) and 0.19
        (muslin); a 1e-9 default reads 1.13 (musfib yd)."""
        runs = [long_pipeline.traces[name],
                integrate(make_model(name), IntegratorConfig(t_end=32.0, tol=1e-12))]
        spec = compute_domains(runs, bins=400)
        default, close = (_trace_channels(run) for run in runs)
        worst, flips = {}, {}
        for channel, d in spec.channels.items():
            ratio = np.abs(default[channel] - close[channel]) / ((d.hi - d.lo) / d.bins)
            worst[channel], flips[channel] = ratio.max(), ratio.sum()
        readings = ("max |d|/width " + ", ".join(f"{c} {v:.2g}" for c, v in worst.items())
                    + "; expected flips, sum |d|/width "
                    + ", ".join(f"{c} {v:.2g}" for c, v in flips.items()))
        assert max(worst.values()) <= 1e-3, readings
        assert max(flips.values()) <= 1.0, readings

    def test_sample_grid(self):
        trace = integrate(_DecayModel(), IntegratorConfig(t_end=0.25))
        assert len(trace) == 251
        np.testing.assert_allclose(np.diff(trace.t), 1e-3, rtol=1e-12)
        assert trace.t[0] == 0.0
        assert trace.t[-1] == pytest.approx(0.25, abs=1e-12)


class TestPortFidelity:
    @pytest.mark.parametrize("tol", [1e-12, 1e-9])
    def test_matches_scipy_rk45(self, tol):
        """Same Dormand-Prince pair, controller and dense output as scipy's
        RK45: equal RHS counts and samples equal to rounding."""
        model = _VanDerPolModel()
        cfg = IntegratorConfig(tol=tol, t_end=1.0)
        trace = integrate(model, cfg)
        ctx = StepContext(False)
        sol = solve_ivp(lambda t, x: np.array(model.derivative(t, x, ctx)), (0.0, 1.0),
                        model.initial_state(), method="RK45", rtol=tol, atol=tol,
                        t_eval=trace.t)
        assert trace.meta["rhs_calls"] == sol.nfev
        assert trace.meta["rejected_steps"] >= 1
        ours = (trace.y, trace.yd, trace.sensors[:, 0])
        for mine, theirs in zip(ours, sol.y):
            gap = np.abs(mine - theirs).max() / np.abs(theirs).max()
            assert gap <= 1e-14


class TestAborts:
    def test_non_finite_derivative(self):
        with pytest.raises(IntegrationError):
            integrate(_BlowUpModel(), IntegratorConfig(t_end=1.0))

    def test_non_finite_first_stage_ends_the_run(self):
        # a NaN first stage makes a NaN step size, for which every step-size
        # test is false; run it in a child process that the timeout ends
        code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
                "from test_integrator import _NaNModel\n"
                "from hopmc.integrator import IntegrationError, IntegratorConfig, integrate\n"
                "try:\n"
                "    integrate(_NaNModel(), IntegratorConfig(t_end=1.0))\n"
                "except IntegrationError as exc:\n"
                "    print(exc)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(hopmc.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "non-finite derivative at t = 0.000000000 s (nan)"

    def test_motor_voltage_beyond_bound(self, pipeline):
        # the default run peaks near 19 V; a 10 V bound would clamp the PD
        # voltage, which the exact linear stance cannot represent
        model = DCMotModel(pipeline.reference, DCMotParams(volt_max=10.0))
        with pytest.raises(IntegrationError,
                           match=r"^dcmot: stance input -?\d+\.\d+ V at t = \d+\.\d+ s"):
            integrate(model, IntegratorConfig(t_end=1.0))


class TestExactStance:
    def test_pade_expm_matches_scipy(self):
        rng = np.random.default_rng(1)
        for norm in (0.1, 5.0, 60.0):
            m = rng.standard_normal((8, 8))
            m *= norm / np.abs(m).sum(axis=0).max()
            expected = expm(m)
            np.testing.assert_allclose(_expm(m), expected, rtol=0.0,
                                       atol=1e-13 * np.abs(expected).max())

    @pytest.mark.parametrize("overrides", [
        None, {"kp": 3000.0}, {"kp": 8000.0}, {"kd": 100.0}, {"inductance": 1e-4},
        {"inductance": 1e-300}, {"kp": 1e200}])
    def test_balance_matches_gebal_on_motor(self, pipeline, overrides):
        system = make_model("dcmot", overrides, pipeline.reference).stance_system()
        generator = _stance_generator(system)
        np.testing.assert_array_equal(_balance(generator), _gebal_scale(generator))

    def test_balance_matches_gebal_on_random_matrices(self):
        # entries over 12 decades; a port that leaves the diagonal out of
        # the norms, as LAPACK before 3.5 did, matches on 85 of these 300
        rng = np.random.default_rng(0)
        for _ in range(300):
            m = rng.standard_normal((8, 8)) * 10.0 ** rng.uniform(-6.0, 6.0, (8, 8))
            np.testing.assert_array_equal(_balance(m), _gebal_scale(m))

    def test_balance_rejects_non_finite_entries(self):
        # a nan would keep the sweep from converging
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                _balance(np.array([[1.0, bad], [2.0, 3.0]]))

    def test_matches_dop853_over_one_stance(self, pipeline):
        """Oracle: one full stance of the exact path against DOP853 at 1e-12,
        restarted at every reference knot, from the same touchdown state."""
        trace = pipeline.traces["dcmot"]
        assert trace.meta["stepper"] == "exact-stance"
        td = [e for e in trace.events if e.kind == "touchdown"][5]
        lo = next(e for e in trace.events if e.kind == "liftoff" and e.t > td.t)
        model = DCMotModel(pipeline.reference)
        ctx = StepContext(True, td.t)
        knots = td.t + pipeline.reference.tau
        bounds = [td.t, *knots[(knots > td.t) & (knots < lo.t)], lo.t]
        x = np.array([td.y, td.yd, 0.0])
        gap_y = gap_yd = 0.0
        for a, b in zip(bounds[:-1], bounds[1:]):
            sol = solve_ivp(lambda t, xx: model.derivative(t, xx, ctx), (a, b), x,
                            method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True)
            sel = (trace.t > a) & (trace.t <= b) & (trace.t < lo.t)
            if sel.any():
                xs = sol.sol(trace.t[sel])
                gap_y = max(gap_y, np.abs(xs[0] - trace.y[sel]).max())
                gap_yd = max(gap_yd, np.abs(xs[1] - trace.yd[sel]).max())
            x = sol.y[:, -1]
        gap_y = max(gap_y, abs(x[0] - lo.y))
        gap_yd = max(gap_yd, abs(x[1] - lo.yd))
        assert len(bounds) > 200
        assert gap_y <= 1e-11
        assert gap_yd <= 1e-10


class TestBallisticFlight:
    def test_closed_form_before_first_touchdown(self):
        # pure free fall from the 1.070 m apex until y reaches the rest length
        trace = integrate(make_model("musfib"), IntegratorConfig(t_end=0.11))
        expected = 1.070 - 0.5 * 9.81 * trace.t ** 2
        assert np.max(np.abs(trace.y - expected)) < 1e-8
        assert not trace.contact.any()
        assert np.all(trace.ydd == -9.81)

    def test_touchdown_speed_from_apex(self, pipeline):
        ev = pipeline.traces["musfib"].events[0]
        assert ev.kind == "touchdown"
        assert ev.yd == pytest.approx(-math.sqrt(2 * 9.81 * 0.07), abs=1e-6)

    @pytest.mark.parametrize("name", ["musfib", "muslin"])
    def test_late_flight_matches_dop853(self, name):
        """Oracle: a late flight (delayed force zero) in closed form against
        DOP853 at 1e-13 of y'' = -g, a' = (u - a) / act_tau, from the same
        state, to touchdown."""
        model = make_model(name)
        g, tau = model.common.gravity, model.params.act_tau
        u = force_feedback_stimulation(0.0, model.params)
        x0 = (1.02, 1.1, 0.45)                    # rising, activation above u
        rec = _Recorder(model, IntegratorConfig(t_end=1.0))
        t_td, x_td = _flight(model, rec, 0.0, x0, 1.0)

        def touchdown(t, x):
            return x[0] - 1.0
        touchdown.terminal, touchdown.direction = True, -1.0
        sol = solve_ivp(lambda t, x: (x[1], -g, (u - x[2]) / tau), (0.0, 1.0), x0,
                        method="DOP853", rtol=1e-13, atol=1e-13, dense_output=True,
                        events=touchdown)
        assert abs(t_td - sol.t_events[0][0]) <= 1e-12
        np.testing.assert_allclose(x_td, sol.y_events[0][0], rtol=0, atol=1e-12)
        n = rec.next_idx
        assert n == math.floor(t_td * 1000) + 1 and n > 200
        t = rec.t[:n]
        expected = sol.sol(t)
        ours = np.array([_ballistic(x0, tk, g, model.flight_flow) for tk in t]).T
        np.testing.assert_allclose(rec.y[:n], expected[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(rec.yd[:n], expected[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(ours, expected, rtol=0, atol=1e-12)
        # the recorded channels of a flight that reads no delayed force
        assert np.all(rec.ydd[:n] == -g)
        assert np.all(rec.sensors[:n] == 0.0) and np.all(rec.action[:n] == u)

    @pytest.mark.parametrize("name", ["musfib", "muslin"])
    def test_late_flight_costs_no_derivative_call(self, name):
        # from one delay after liftoff to touchdown, and in the first flight,
        # the delayed force is zero and flight needs no right-hand side
        model = make_model(name)
        calls = []
        rhs = model.derivative

        def counted(t, x, ctx):
            calls.append((t, ctx.contact))
            return rhs(t, x, ctx)
        model.derivative = counted
        trace = integrate(model, IntegratorConfig(t_end=2.0))
        delay = model.params.reflex_delay
        calm = [(0.0, trace.events[0].t)]
        calm += [(lo.t + delay, td.t) for lo, td in zip(trace.events[1::2], trace.events[2::2])]
        assert trace.events[1].kind == "liftoff" and len(calm) >= 4
        late = [t for t, contact in calls
                if not contact and any(a < t <= b for a, b in calm)]
        early = [t for t, contact in calls if not contact]
        assert late == [] and len(early) > 100

    @pytest.mark.parametrize("name", ["musfib", "muslin", "dcmot"])
    def test_observe_is_its_three_channels(self, pipeline, name):
        model = make_model(name, None, pipeline.reference)
        cases = [                                 # stance, early flight, late flight
            (0.35, (0.95, -0.4, 0.3), StepContext(True, 0.3, lambda q: 900.0 + 1e3 * q)),
            (0.52, (1.03, 0.8, 0.2), StepContext(False, math.nan, lambda q: 1234.5)),
            (0.61, (1.05, 0.3, 0.1), StepContext(False)),
        ]
        for t, x, ctx in cases:
            got = model.observe(t, x, ctx)
            want = (model.derivative(t, x, ctx)[1], model.sensors(t, x, ctx),
                    model.control(t, x, ctx))
            assert [float(v).hex() for v in (got[0], *got[1], got[2])] == \
                [float(v).hex() for v in (want[0], *want[1], want[2])]


class TestModelProxy:
    @pytest.mark.parametrize("name", ["musfib", "muslin", "dcmot"])
    def test_proxy_gives_the_same_samples(self, pipeline, name):
        # the loop picks each phase's propagator from what the model exposes,
        # not from its type, so a forwarding proxy runs the same path
        cfg = IntegratorConfig(t_end=1.0)
        plain = integrate(make_model(name, None, pipeline.reference), cfg)
        proxy = _ForwardingProxy(make_model(name, None, pipeline.reference))
        wrapped = integrate(proxy, cfg)
        for column in ("t", "y", "yd", "ydd", "sensors", "action", "contact"):
            assert getattr(wrapped, column).tobytes() == getattr(plain, column).tobytes(), \
                column
        assert wrapped.events == plain.events
        assert wrapped.meta == plain.meta
        if name != "dcmot":     # the motor's propagators are closed-form
            assert proxy.calls["derivative"] == plain.meta["rhs_calls"]


class TestTraceInvariants:
    @pytest.mark.parametrize("name", ["musfib", "muslin", "dcmot"])
    def test_event_localization(self, pipeline, name):
        # every event, stepped or closed-form, is a root to rounding
        trace = pipeline.traces[name]
        assert len(trace.events) >= 20
        for ev in trace.events:
            assert abs(ev.y - 1.0) < 1e-14

    def test_stepped_touchdown_localization(self):
        """Without ``flight_flow`` Dormand-Prince steps the whole flight, so
        each touchdown is a downward crossing of the dense output; the root
        finder places it to rounding (a bisection to 1e-10 m left 7.3e-11 m)."""
        class SteppedFlight(MusFibModel):
            flight_flow = None

        trace = integrate(SteppedFlight(), IntegratorConfig(t_end=2.0))
        assert trace.meta["stepper"] == "dp45"
        kinds = [ev.kind for ev in trace.events]
        assert len(kinds) == 8 and kinds.count("touchdown") == 4
        for ev in trace.events:
            assert abs(ev.y - 1.0) < 1e-14
        assert len(kinds) <= trace.meta["newton_iterations"] <= 5 * len(kinds)

    @pytest.mark.parametrize("name", ["musfib", "muslin", "dcmot"])
    def test_flight_energy_conserved(self, pipeline, name):
        trace = pipeline.traces[name]
        checked = 0
        for a, b, in_contact in contact_segments(trace.contact):
            if in_contact or b - a < 5:
                continue
            energy = 0.5 * trace.yd[a:b] ** 2 + 9.81 * trace.y[a:b]
            assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-6
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("name", ["musfib", "muslin", "dcmot"])
    def test_flight_acceleration_is_gravity(self, pipeline, name):
        trace = pipeline.traces[name]
        assert np.all(trace.ydd[~trace.contact] == -9.81)

    @pytest.mark.parametrize("name", ["musfib", "muslin"])
    def test_no_step_collapse_at_first_echo(self, pipeline, name):
        # a step ending on a delay echo reads the delayed force's left
        # limit; a right-continuous read made the controller reject its way
        # down to steps of 1e-13 s there
        meta = pipeline.traces[name].meta
        assert meta["min_step_taken"] >= 1e-11
        assert meta["rhs_calls"] / meta["t_end"] < 11_000

    def test_contact_flag_matches_height(self, pipeline):
        for trace in pipeline.traces.values():
            clear = np.abs(trace.y - 1.0) > 1e-6
            np.testing.assert_array_equal(trace.contact[clear], trace.y[clear] < 1.0)

    def test_acceleration_channel_is_velocity_derivative(self, pipeline):
        # central difference of yd against the recorded ydd, away from events
        # and away from the force-velocity branch switch at yd = 0 (the leg
        # force has a genuine derivative kink there)
        trace = pipeline.traces["musfib"]
        inner = np.zeros(len(trace), dtype=bool)
        inner[1:-1] = (trace.contact[:-2] == trace.contact[1:-1]) & \
                      (trace.contact[2:] == trace.contact[1:-1])
        idx = np.nonzero(inner)[0][1:-1]
        idx = idx[trace.yd[idx - 1] * trace.yd[idx + 1] > 0]
        err = np.abs((trace.yd[idx + 1] - trace.yd[idx - 1]) / 2e-3 - trace.ydd[idx])
        assert np.median(err) < 1e-3
        assert err.max() < 0.05

    def test_sample_count_full_run(self, pipeline):
        for trace in pipeline.traces.values():
            assert len(trace) == 8001

    def test_muscle_action_is_reflex_of_sensor(self, pipeline):
        # action = clamp(gain * sensor + baseline) exactly, per sample
        for name, gain, base in (("musfib", 2.4 / 2500, 0.027),
                                 ("muslin", 0.8 / 2500, 0.19)):
            trace = pipeline.traces[name]
            expected = np.clip(gain * trace.sensors[:, 0] + base, 0.001, 1.0)
            np.testing.assert_allclose(trace.action, expected, atol=1e-12)


class TestCsvRoundTrip:
    def test_save_and_load(self, pipeline, tmp_path):
        trace = pipeline.traces["dcmot"]
        path = trace.save(tmp_path / "trace_dcmot.csv")
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "t,y,yd,ydd,s1,s2,a,contact"
        back = load_trace(path)
        assert back.model == "dcmot"
        assert back.action_kind == "motor"
        assert back.sensor_names == ("y", "yd")
        for field in ("t", "y", "yd", "ydd", "action"):
            np.testing.assert_array_equal(getattr(back, field), getattr(trace, field))
        np.testing.assert_array_equal(back.sensors, trace.sensors)
        np.testing.assert_array_equal(back.contact, trace.contact)
        assert len(back.events) == len(trace.events)
        assert back.meta == trace.meta
        assert trace.meta["stepper"] == "exact-stance"
        assert trace.meta["intervals"] > 4000
        liftoffs = sum(e.kind == "liftoff" for e in trace.events)
        assert trace.meta["newton_iterations"] >= liftoffs

    def test_missing_sidecar_rejected(self, pipeline, tmp_path):
        trace = pipeline.traces["musfib"]
        path = trace.save(tmp_path / "t.csv")
        (tmp_path / "t.meta.json").unlink()
        with pytest.raises(FileNotFoundError):
            load_trace(path)

    def test_deterministic_bytes(self, pipeline, tmp_path):
        cfg = IntegratorConfig(t_end=1.0)
        t1, t2 = integrate(MusFibModel(), cfg), integrate(MusFibModel(), cfg)
        p1, p2 = t1.save(tmp_path / "a.csv"), t2.save(tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.meta.json").read_bytes() == (tmp_path / "b.meta.json").read_bytes()
        # solver counters are deterministic, so they may sit in the sidecar
        assert t1.meta == t2.meta
        assert t1.meta["stepper"] == "dp45+flight"
        assert t1.meta["rhs_calls"] > t1.meta["accepted_steps"] >= t1.meta["segments"] >= 1
        # six stage evaluations per step tried, accepted or rejected
        assert t1.meta["rhs_calls"] >= 6 * (t1.meta["accepted_steps"]
                                            + t1.meta["rejected_steps"])
        # a step is t_new - t, which may exceed its nominal size by the
        # rounding of t_new; a step's stages read the delay line only over
        # completed steps
        assert "max_step" not in t1.meta
        assert (0.0 < t1.meta["min_step_taken"] <= t1.meta["max_step_taken"]
                <= 0.9 * MusFibModel().history_delay + math.ulp(cfg.t_end))
        motor = [integrate(DCMotModel(pipeline.reference), cfg) for _ in range(2)]
        assert motor[0].meta == motor[1].meta
        assert motor[0].meta["stepper"] == "exact-stance"
        assert motor[0].meta["intervals"] > 0
        assert "tol" not in motor[0].meta and "rejected_steps" not in motor[0].meta


class TestForceHistory:
    """The delay line: the leg force off the dense output of kept steps.
    A 2 s delay keeps every step of the short lines built here."""

    CONTACT, FLIGHT = StepContext(True, 0.5), StepContext(False)

    @staticmethod
    def _ramp(t):
        # muslin's leg force on this state is 500 t [N]
        return (0.95, 0.0, 0.2 * t)

    def test_empty_and_before_history(self):
        line = _DelayLine(MusLinModel(), 2.0)
        assert line.at(-0.015) == 0.0 and line.before(0.0) == 0.0
        line.push(0.0, 0.5, None, self.FLIGHT)
        line.push(0.5, 0.51, self._ramp, self.CONTACT)
        assert line.at(-1.0) == 0.0
        assert line.at(0.0) == line.at(0.3) == line.before(0.5) == 0.0
        assert line.at(0.505) == pytest.approx(252.5, rel=1e-14)

    def test_jump_is_right_continuous_and_queued(self):
        line = _DelayLine(MusLinModel(), 2.0)
        line.push(0.0, 1.0, None, self.FLIGHT)
        line.push(1.0, 1.25, self._ramp, self.CONTACT)      # touchdown at 1.0
        line.push(1.25, 1.26, None, self.FLIGHT)            # liftoff at 1.25
        assert line.at(1.0) == pytest.approx(500.0, rel=1e-14)
        assert line.at(math.nextafter(1.0, 0.0)) == 0.0
        assert line.at(1.25) == 0.0
        assert line.at(math.nextafter(1.25, 0.0)) == pytest.approx(625.0, rel=1e-14)
        # the stages of a step ending on an echo read the pre-jump force
        assert line.before(1.25) == pytest.approx(625.0, rel=1e-14)
        assert line.before(1.1) == line.at(1.1)
        # the integrator queues the echoes; the line queues nothing itself
        assert line.next_break_after(0.5) == math.inf
        line.add_breakpoint(1.265)
        line.add_breakpoint(1.265)     # a repeated echo is queued once
        assert line.next_break_after(0.5) == 1.265
        assert line.next_break_after(1.265) == math.inf

    def test_trimmed_cursor_matches_plain_search(self):
        model, delay = MusLinModel(), 0.015
        line = _DelayLine(model, delay)
        rng = np.random.default_rng(0)
        t, checked = 0.0, 0
        for k in range(400):
            h = float(rng.uniform(1e-4, 0.9 * delay))
            contact = (k // 20) % 2 == 1
            dense = (lambda tt, k=k: (0.95, 0.01 * k, 0.1 + 0.3 * tt)) if contact else None
            line.push(t, t + h, dense, self.CONTACT if contact else self.FLIGHT)
            t += h
            # the first kept step reaches one delay back, the others start after that
            assert line.steps[0][1] >= t - delay
            assert all(s[0] >= t - delay for s in line.steps[1:])
            # stage lookups reach back one delay, in any order
            for q in t - delay * rng.uniform(0.1, 1.0, 6):
                _, _, dense_q, ctx = next(s for s in line.steps if s[0] <= q < s[1])
                expected = 0.0 if dense_q is None else model.leg_force(q, dense_q(q), ctx)
                assert line.at(q) == expected
                checked += expected != 0.0
        assert checked > 500

    def test_breaks_consumed_in_order(self):
        line = _DelayLine(MusLinModel(), 0.01)
        line.add_breakpoint(1.0)
        line.add_breakpoint(2.0)
        assert line.next_break_after(0.0) == 1.0
        assert line.next_break_after(1.5) == 2.0
        assert line.next_break_after(2.5) == math.inf


class TestStanceReference:
    def test_extracted_from_last_complete_stance(self, pipeline):
        trace = pipeline.traces["musfib"]
        ref = pipeline.reference
        touchdowns = [e for e in trace.events if e.kind == "touchdown"]
        liftoffs = [e for e in trace.events if e.kind == "liftoff"]
        last_td = touchdowns[-1] if liftoffs[-1].t > touchdowns[-1].t else touchdowns[-2]
        last_lo = [e for e in liftoffs if e.t > last_td.t][0]
        assert ref.duration == pytest.approx(last_lo.t - last_td.t, abs=1e-12)

    def test_boundary_states(self, pipeline):
        ref = pipeline.reference
        assert ref.y[0] == pytest.approx(1.0, abs=1e-9)
        assert ref.y[-1] == pytest.approx(1.0, abs=1e-9)
        assert ref.yd[0] < -1.0
        assert ref.yd[-1] > 1.0
        assert ref.y.min() > 0.8

    def test_duration_physiologic(self, pipeline):
        assert 0.2 <= pipeline.reference.duration <= 0.6

    def test_uniform_millisecond_grid(self, pipeline):
        tau = pipeline.reference.tau
        assert tau[0] == 0.0
        np.testing.assert_allclose(np.diff(tau)[:-1], 1e-3, rtol=1e-9)

    def test_matches_scipy_hermite_splines(self, pipeline):
        """Oracle: the same C1 splines through the stance samples, built
        with scipy's CubicHermiteSpline."""
        trace, ref = pipeline.traces["musfib"], pipeline.reference
        td, lo = [(a, b) for a, b in zip(trace.events, trace.events[1:])
                  if a.kind == "touchdown" and b.kind == "liftoff"][-1]
        inside = (trace.t > td.t) & (trace.t < lo.t)
        t_rel = np.concatenate(([0.0], trace.t[inside] - td.t, [lo.t - td.t]))
        y = np.concatenate(([td.y], trace.y[inside], [lo.y]))
        yd = np.concatenate(([td.yd], trace.yd[inside], [lo.yd]))
        ydd = np.concatenate(([td.ydd_after], trace.ydd[inside], [lo.ydd_before]))
        y_spline = CubicHermiteSpline(t_rel, y, yd)
        yd_spline = CubicHermiteSpline(t_rel, yd, ydd)
        np.testing.assert_allclose(ref.y, y_spline(ref.tau), rtol=1e-14)
        np.testing.assert_allclose(ref.yd, yd_spline(ref.tau), rtol=0, atol=1e-13)
        np.testing.assert_allclose(ref.ydd, yd_spline.derivative()(ref.tau),
                                   rtol=0, atol=1e-11)

    def test_needs_two_stances(self):
        trace = integrate(make_model("musfib"), IntegratorConfig(t_end=0.5))
        with pytest.raises(ValueError, match="stance"):
            extract_stance_reference(trace)


class TestContactSegments:
    def test_pattern(self):
        segs = contact_segments(np.array([False, False, True, True, False]))
        assert segs == [(0, 2, False), (2, 4, True), (4, 5, False)]

    def test_empty(self):
        assert contact_segments(np.array([], dtype=bool)) == []

    def test_single_run(self):
        assert contact_segments(np.ones(4, dtype=bool)) == [(0, 4, True)]
