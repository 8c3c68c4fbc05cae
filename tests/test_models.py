"""Force laws, controllers, and model construction."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopmc.integrator import IntegratorConfig
from hopmc.models import (
    DCMotModel,
    DCMotParams,
    HopperCommon,
    MusFibModel,
    MusFibParams,
    MusLinModel,
    MusLinParams,
    ReferenceTrajectory,
    StepContext,
    activation_derivative,
    fiber_force,
    force_feedback_stimulation,
    linear_fiber_force,
    load_config,
    make_model,
    motor_current_derivative,
    pd_voltage,
    write_csv,
)

P_FIB = MusFibParams()
P_LIN = MusLinParams()
P_MOT = DCMotParams()

FLIGHT = StepContext(contact=False)


def _ref_two_point() -> ReferenceTrajectory:
    tau = np.array([0.0, 0.1])
    return ReferenceTrajectory(tau, np.array([1.0, 0.95]), np.array([-1.0, 0.2]),
                               np.array([0.0, 10.0]))


class TestFiberForce:
    def test_isometric_at_optimum(self):
        # exp(0) = 1 and the v <= 0 branch reduces to 1 at v = 0
        assert fiber_force(0.9, 0.0, P_FIB) == pytest.approx(2500.0, rel=1e-12)

    def test_unit_exponent_point(self):
        # length where the bell exponent equals one -> F_max / e
        l_m = P_FIB.l_opt + P_FIB.l_opt * P_FIB.fl_width * \
            (1.0 / P_FIB.fl_steepness) ** (1.0 / 3.0)
        assert fiber_force(l_m, 0.0, P_FIB) == pytest.approx(2500.0 / math.e, rel=1e-12)

    def test_eccentric_branch_substitution(self):
        # frozen from exact-rational substitution: 2500 * 2101/1484
        assert fiber_force(0.9, -1.0, P_FIB) == pytest.approx(3539.420485175202, rel=1e-12)

    def test_plateau_at_max_shortening_velocity(self):
        # at v = v_max the eccentric enhancement reaches the plateau factor
        assert fiber_force(0.9, -3.5, P_FIB) == pytest.approx(3750.0, rel=1e-12)

    def test_concentric_branch_substitution(self):
        assert fiber_force(0.9, 1.0, P_FIB) == pytest.approx(1250.0, rel=1e-12)

    def test_branch_continuity_at_zero_velocity(self):
        rng = np.random.default_rng(7)
        for l_m in rng.uniform(0.5, 1.3, size=100):
            lo = fiber_force(l_m, -1e-13, P_FIB)
            hi = fiber_force(l_m, 1e-13, P_FIB)
            assert hi == pytest.approx(lo, rel=1e-9)

    @given(st.floats(0.3, 1.6), st.floats(-20.0, 3.5))
    def test_non_negative_up_to_max_lengthening(self, l_m, v):
        assert fiber_force(l_m, v, P_FIB) >= 0.0

    def test_force_length_bell_symmetric(self):
        for off in (0.05, 0.1, 0.2):
            assert fiber_force(0.9 + off, 0.0, P_FIB) == pytest.approx(
                fiber_force(0.9 - off, 0.0, P_FIB), rel=1e-12)


class TestLinearFiberForce:
    def test_isometric(self):
        assert linear_fiber_force(0.0, 1.0, P_LIN) == pytest.approx(2500.0, rel=1e-12)

    def test_zero_crossing_velocity(self):
        assert linear_fiber_force(4.0, 1.0, P_LIN) == pytest.approx(0.0, abs=1e-9)

    def test_substitution(self):
        assert linear_fiber_force(-2.0, 0.5, P_LIN) == pytest.approx(1875.0, rel=1e-12)


class TestActivationDynamics:
    def test_equilibrium(self):
        assert activation_derivative(0.5, 0.5, 0.01) == 0.0

    def test_substitution(self):
        assert activation_derivative(0.0, 1.0, 0.01) == pytest.approx(100.0, rel=1e-12)

    def test_matches_exponential_solution(self):
        # a(t) = u + (a0 - u) exp(-t/tau) solves da/dt = (u - a)/tau
        a0, u, tau = 0.2, 0.9, 0.01
        for t in (0.0, 0.005, 0.02, 0.1):
            a = u + (a0 - u) * math.exp(-t / tau)
            da_exact = -(a0 - u) / tau * math.exp(-t / tau)
            assert activation_derivative(a, u, tau) == pytest.approx(da_exact, rel=1e-12)


class TestForceFeedback:
    def test_touchdown_baseline(self):
        assert force_feedback_stimulation(0.0, P_FIB) == pytest.approx(0.027, rel=1e-12)

    def test_upper_clamp(self):
        assert force_feedback_stimulation(2500.0, P_FIB) == 1.0

    def test_substitution(self):
        assert force_feedback_stimulation(250.0, P_FIB) == pytest.approx(0.267, rel=1e-12)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_always_within_bounds(self, f):
        u = force_feedback_stimulation(float(f), P_FIB)
        assert 0.001 <= u <= 1.0


class TestPDVoltage:
    def test_zero_error(self):
        assert pd_voltage(1.0, -0.5, 1.0, -0.5, P_MOT) == 0.0

    def test_clamp(self):
        # K_P * 0.01 = 50 V exceeds the 48 V armature bound
        assert pd_voltage(1.0, 0.0, 1.01, 0.0, P_MOT) == 48.0

    def test_substitution(self):
        assert pd_voltage(1.0, 0.0, 1.001, 0.01, P_MOT) == pytest.approx(10.0, rel=1e-12)

    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    def test_always_within_bounds(self, y, yd, yr, ydr):
        assert -48.0 <= pd_voltage(y, yd, yr, ydr, P_MOT) <= 48.0


class TestMotorCurrent:
    def test_steady_state_current(self):
        # dI/dt = 0 at standstill when I = u / R
        assert motor_current_derivative(48.0 / 7.19, 48.0, 0.0, P_MOT) == pytest.approx(0.0, abs=1e-9)

    def test_substitution_full_voltage(self):
        assert motor_current_derivative(0.0, 48.0, 0.0, P_MOT) == pytest.approx(30000.0, rel=1e-12)

    def test_substitution_decay(self):
        assert motor_current_derivative(1.0, 0.0, 0.0, P_MOT) == pytest.approx(-4493.75, rel=1e-12)


class TestStanceSystem:
    def test_linear_form_matches_motor_derivative(self):
        model = DCMotModel(_ref_two_point())
        system = model.stance_system()
        ctx = StepContext(contact=True, t_touchdown=2.0)
        for s in (0.0, 0.03, 0.1, 0.2):
            # a state near the reference keeps the PD voltage unclamped
            y_ref, yd_ref = model.reference.value(s)
            x = np.array([y_ref - 1e-3, yd_ref + 2e-3, 1.5])
            c = system.coeffs[0]
            r = system.hold if s >= 0.1 else c[0] + s * (c[1] + s * (c[2] + s * c[3]))
            u = system.feedback @ x + r
            assert u == pytest.approx(model.control(2.0 + s, x, ctx), abs=1e-9)
            assert abs(u) < system.input_bound
            np.testing.assert_allclose(
                system.matrix @ x + system.drift + system.input_gain * r,
                model.derivative(2.0 + s, x, ctx), rtol=1e-12, atol=1e-9)

    def test_muscles_have_none(self):
        assert MusFibModel().stance_system() is None
        assert MusLinModel().stance_system() is None

    def test_reference_must_start_at_touchdown(self):
        late = ReferenceTrajectory(np.array([0.01, 0.1]), np.ones(2), np.zeros(2),
                                   np.zeros(2))
        with pytest.raises(ValueError, match="touchdown"):
            DCMotModel(late).stance_system()


class TestSystemDerivative:
    def test_flight_is_free_fall_for_all_models(self):
        models = [MusFibModel(), MusLinModel(), DCMotModel(_ref_two_point())]
        for model in models:
            x = model.initial_state()
            ydd = model.derivative(0.0, x, FLIGHT)[1]
            assert ydd == pytest.approx(-9.81, rel=1e-12)
            assert model.leg_force(0.0, x, FLIGHT) == 0.0

    def test_musfib_contact_fully_activated_at_optimum(self):
        model = MusFibModel()
        ctx = StepContext(contact=True, t_touchdown=0.0)
        x = np.array([0.9, 0.0, 1.0])
        assert model.derivative(0.0, x, ctx)[1] == pytest.approx(-9.81 + 2500.0 / 80.0, rel=1e-12)

    def test_dcmot_contact_zero_current_is_free_fall(self):
        model = DCMotModel(_ref_two_point())
        ctx = StepContext(contact=True, t_touchdown=0.0)
        x = np.array([1.0, -1.0, 0.0])
        assert model.derivative(0.0, x, ctx)[1] == pytest.approx(-9.81, rel=1e-12)
        assert model.leg_force(0.0, x, ctx) == 0.0

    def test_muscle_stimulation_uses_delayed_force(self):
        model = MusFibModel()
        ctx = StepContext(contact=True, t_touchdown=0.0,
                          delayed_force=lambda t: 250.0)
        x = np.array([0.95, -0.5, 0.1])
        assert model.control(1.0, x, ctx) == pytest.approx(0.267, rel=1e-12)
        # sensor channel is the same quantity the reflex reads
        assert model.sensors(1.0, x, ctx)[0] == pytest.approx(250.0, rel=1e-12)

    def test_liftoff_resets_motor_current(self):
        model = DCMotModel(_ref_two_point())
        x = np.array([1.0, 1.1, 2.5])
        assert model.on_liftoff(x)[2] == 0.0
        assert x[2] == 2.5  # original untouched

    def test_liftoff_takes_any_three_sequence(self):
        # the base signature's Sequence[float]; the integrator's state is a float tuple
        model = DCMotModel(_ref_two_point())
        assert model.on_liftoff((1.0, 1.1, 2.5)) == (1.0, 1.1, 0.0)


class TestDCMotMassScaling:
    IDENTITY = P_MOT.gear_ratio * P_MOT.nominal_torque / P_MOT.f_max_ref

    def test_shared_mass_is_scaled(self):
        model = make_model("dcmot", {"mass": 70.0}, _ref_two_point())
        assert model.common.mass == 70.0 * self.IDENTITY

    def test_derived_mass_value(self):
        mass = make_model("dcmot", None, _ref_two_point()).common.mass
        assert mass == pytest.approx(0.6784, rel=1e-9)
        assert mass.hex() == "0x1.5b573eab367a1p-1"     # the float of earlier releases

    @pytest.mark.parametrize("key", ["body_mass", "base_body_mass"])
    def test_body_mass_is_not_a_parameter(self, key):
        # the shared mass is the only body-mass setting
        with pytest.raises(ValueError, match=rf"unknown parameter\(s\) for dcmot: \['{key}'\]"):
            make_model("dcmot", {key: 0.6784}, _ref_two_point())

    def test_model_uses_scaled_mass(self):
        model = DCMotModel(_ref_two_point())
        assert model.common.mass == pytest.approx(0.6784, rel=1e-9)


# the admissible set of every parameter and run setting: a physical sign, or
# any finite value; non-finite values are never admissible
VALIDATED = (HopperCommon, MusFibParams, MusLinParams, DCMotParams, IntegratorConfig)
POSITIVE = {"mass", "gravity", "rest_length", "f_max", "l_opt", "fl_width", "fl_steepness",
            "fv_curvature", "fv_plateau", "act_tau", "reflex_delay", "fv_slope",
            "torque_const", "gear_ratio", "resistance", "inductance", "volt_max",
            "nominal_torque", "f_max_ref", "tol", "t_end",
            "max_step"}
NEGATIVE = {"v_max"}
FINITE = {"kp", "kd", "reflex_gain", "stim_base", "stim_min", "stim_max"}
FIELDS = [(cls, f.name) for cls in VALIDATED for f in fields(cls)]
SIGNED = [(cls, name, sign, bad) for cls, name in FIELDS
          for sign, names, wrong in (("positive", POSITIVE, (0.0, -1.0)),
                                     ("negative", NEGATIVE, (0.0, 1.0)))
          if name in names for bad in wrong]


def _field_id(case) -> str:
    return f"{case[0].__name__}.{case[1]}"


class TestParamValidation:
    def test_every_field_declares_its_set(self):
        for cls in VALIDATED:
            for f in fields(cls):
                want = ("positive" if f.name in POSITIVE else "negative" if f.name in NEGATIVE
                        else None if f.name in FINITE else "a declared set")
                assert f.metadata.get("sign") == want, f"{cls.__name__}.{f.name}"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("case", FIELDS, ids=_field_id)
    def test_non_finite_rejected_naming_field(self, case, value):
        cls, name = case
        with pytest.raises(ValueError, match=rf"^{name} = {value!r}: must be finite"):
            cls(**{name: value})

    @pytest.mark.parametrize("case", SIGNED, ids=lambda c: f"{_field_id(c)}={c[3]!r}")
    def test_wrong_sign_rejected_naming_field(self, case):
        cls, name, sign, bad = case
        with pytest.raises(ValueError, match=rf"^{name} = {bad!r}: must be finite and {sign}$"):
            cls(**{name: bad})

    def test_message_names_field_and_value(self):
        with pytest.raises(ValueError) as exc:
            MusFibParams(f_max=math.nan)
        assert str(exc.value) == "f_max = nan: must be finite and positive"

    def test_magnitudes_are_not_bounded(self):
        DCMotParams(kp=1e200, kd=-1e200, inductance=1e-300)
        MusFibParams(reflex_gain=-1e300, stim_base=-5.0, stim_min=-1e300, stim_max=1e300)
        IntegratorConfig(tol=1e-300, t_end=1e-300, max_step=1e300)

    def test_cross_field_rules_after_signs(self):
        with pytest.raises(ValueError, match="^stim_min = 0.5, stim_max = 0.25"):
            MusLinParams(stim_min=0.5, stim_max=0.25)

    def test_common_invariants(self):
        with pytest.raises(ValueError):
            HopperCommon(mass=-1.0)
        with pytest.raises(ValueError):
            HopperCommon(rest_length=0.0)

    def test_musfib_invariants(self):
        with pytest.raises(ValueError):
            MusFibParams(f_max=0.0)
        with pytest.raises(ValueError):
            MusFibParams(act_tau=0.0)
        with pytest.raises(ValueError):
            MusFibParams(v_max=1.0)
        with pytest.raises(ValueError):
            MusFibParams(stim_min=0.5, stim_max=0.5)
        with pytest.raises(ValueError):     # the delay line needs a delay
            MusFibParams(reflex_delay=0.0)

    def test_muslin_invariants(self):
        with pytest.raises(ValueError):
            MusLinParams(fv_slope=-0.25)
        with pytest.raises(ValueError):
            MusLinParams(reflex_delay=0.0)

    def test_dcmot_invariants(self):
        with pytest.raises(ValueError):
            DCMotParams(inductance=0.0)
        with pytest.raises(ValueError):
            DCMotParams(resistance=-1.0)


class TestConfig:
    def test_load_and_apply(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("# tweak\nf_max = 2600\nmass = 75\n", encoding="utf-8")
        overrides = load_config(cfg)
        assert overrides == {"f_max": 2600.0, "mass": 75.0}
        model = make_model("musfib", overrides)
        assert model.params.f_max == 2600.0
        assert model.common.mass == 75.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            make_model("muslin", {"no_such_knob": 1.0})

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            make_model("hovercraft")

    def test_repeated_key_rejected(self, tmp_path):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("f_max = 2600\n# again\nf_max = 2500\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"twice.cfg:3: 'f_max' repeats line 1"):
            load_config(cfg)

    def test_bad_lines_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("f_max 2600\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected"):
            load_config(cfg)
        cfg.write_text("f_max = lots\n", encoding="utf-8")
        with pytest.raises(ValueError, match="invalid number"):
            load_config(cfg)

    def test_dcmot_requires_reference(self):
        with pytest.raises(ValueError, match="reference"):
            make_model("dcmot")


class TestReferenceTrajectory:
    def test_endpoint_values_and_clamping(self):
        ref = _ref_two_point()
        y0, yd0 = ref.value(0.0)
        assert (y0, yd0) == (1.0, -1.0)
        y1, yd1 = ref.value(0.1)
        assert y1 == pytest.approx(0.95, rel=1e-12)
        assert yd1 == pytest.approx(0.2, rel=1e-12)
        assert ref.value(-1.0) == ref.value(0.0)
        assert ref.value(5.0) == ref.value(0.1)

    def test_csv_round_trip(self, tmp_path):
        ref = _ref_two_point()
        path = tmp_path / "ref.csv"
        ref.to_csv(path)
        back = ReferenceTrajectory.from_csv(path)
        np.testing.assert_array_equal(back.tau, ref.tau)
        np.testing.assert_array_equal(back.y, ref.y)
        np.testing.assert_array_equal(back.yd, ref.yd)
        np.testing.assert_array_equal(back.ydd, ref.ydd)

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            ReferenceTrajectory(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("channel", ["tau", "y", "yd", "ydd"])
    def test_rejects_non_finite_samples(self, channel):
        # a NaN time passes the "increasing" test, whose comparisons are false
        samples = {"tau": np.array([0.0, 0.05, 0.1]), "y": np.ones(3), "yd": np.zeros(3),
                   "ydd": np.zeros(3)}
        samples[channel][1] = math.nan
        with pytest.raises(ValueError, match=f"^reference {channel} has a non-finite sample"):
            ReferenceTrajectory(**samples)


class TestWriteCsv:
    def test_rows_are_shortest_exact_decimals(self, tmp_path):
        # the row format all CSV outputs had before they shared write_csv
        values = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, 0.1,
                           1.0 / 3.0, 3.0, -17.0, 1e16, 2.0 ** 53 + 2.0, 1000.0])
        block = np.column_stack((values[::-1], -values))
        flags = np.arange(values.size) % 3 == 0
        path = write_csv(tmp_path / "x.csv", "v,p,q,flag", (values, block, flags))
        rows = ["v,p,q,flag"]
        for i in range(values.size):
            cells = [format(v, ".17g") for v in (values[i], *block[i])]
            cells.append("1" if flags[i] else "0")
            rows.append(",".join(cells))
        assert path.read_text(encoding="utf-8") == "\n".join(rows) + "\n"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back[:, :3], np.column_stack((values, block)))
        assert np.signbit(back[0, 0]) and not np.signbit(back[1, 0])
