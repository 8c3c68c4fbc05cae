"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The expensive three-model pipeline is shared via the session-scoped
``pipeline`` fixture.
"""

import numpy as np

from hopmc import build_discrete_trace, compute_domains
from hopmc.discretize import DiscreteTrace
from hopmc.integrator import IntegratorConfig, contact_segments, integrate
from hopmc.measures import compute_measures, mc_mi, mc_w, moving_average
from hopmc.models import DCMotParams, HopperCommon, MusFibParams, fiber_force, make_model

from conftest import MODELS, TRANSIENT
from oracles import dense_mc_mi, dense_mc_w

TABLE_MC_W = {"musfib": 7.219, "muslin": 4.975, "dcmot": 4.960}
TABLE_MC_MI = {"musfib": 7.310, "muslin": 5.153, "dcmot": 4.990}


def _check(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _random_symbol_trace(rng, alphabet=4, max_len=50) -> DiscreteTrace:
    n = int(rng.integers(2, max_len + 1))
    seqs = rng.integers(0, alphabet, size=(4, n))
    return DiscreteTrace(
        model="rand", w_next=seqs[0], w=seqs[1], s=seqs[2], a=seqs[3],
        t=np.arange(n) / 1000.0, y=np.ones(n), contact=np.zeros(n, dtype=bool))


def _deterministic_loop(rng, n_w=6, n_s=3, n_a=3, length=300) -> DiscreteTrace:
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
    return DiscreteTrace(
        model="det", w_next=w_arr[1:], w=w_arr[:-1],
        s=np.array(ss[:-1]), a=np.array(aa[:-1]),
        t=np.arange(length) / 1000.0, y=np.ones(length),
        contact=np.zeros(length, dtype=bool))


def test_criterion_1_hopping_height(pipeline):
    details = []
    ok = True
    for name in MODELS:
        h = pipeline.traces[name].max_height(after=TRANSIENT)
        details.append(f"{name}={h:.4f} m")
        ok &= abs(h - 1.070) <= 0.01
    _check(1, "periodic hopping height 1.070 m +/- 0.01 m", ok, ", ".join(details))


def test_criterion_2_table_reproduction(pipeline):
    res = pipeline.results
    ok = True
    details = []
    for name in MODELS:
        dw = res[name].mc_w - TABLE_MC_W[name]
        dm = res[name].mc_mi - TABLE_MC_MI[name]
        details.append(f"{name}: MC_W {res[name].mc_w:.3f} ({dw:+.3f}), "
                       f"MC_MI {res[name].mc_mi:.3f} ({dm:+.3f})")
        ok &= abs(dw) <= 0.8 and abs(dm) <= 0.8
    for other in ("muslin", "dcmot"):
        ok &= res["musfib"].mc_w > res[other].mc_w
        ok &= res["musfib"].mc_w >= 1.2 * res[other].mc_w
        ok &= res["musfib"].mc_mi >= 1.2 * res[other].mc_mi
    _check(2, "Table-1 values within 0.8 bits, musfib above others by >= 20%",
           ok, "; ".join(details))


def _flight_profile(d: DiscreteTrace, series: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Per-flight-phase profile of a state series on a normalized-phase grid,
    averaged over the post-transient hops."""
    rows = []
    for a, b, in_contact in contact_segments(d.contact):
        if in_contact or d.t[a] < TRANSIENT or b >= len(d):
            continue
        phase = (d.t[a:b] - d.t[a]) / (d.t[b - 1] - d.t[a])
        rows.append(np.interp(grid, phase, series[a:b]))
    return np.mean(rows, axis=0)


def test_criterion_3_flight_phase_agreement(pipeline):
    # the models agree during most of the flight phase; compare the central
    # 80% of the normalized flight phase, averaged over hops
    grid = np.linspace(0.1, 0.9, 81)
    profiles = {n: _flight_profile(pipeline.discrete[n], pipeline.mc_w_series[n], grid)
                for n in MODELS}
    ok = True
    details = []
    for a, b in (("musfib", "muslin"), ("musfib", "dcmot"), ("muslin", "dcmot")):
        rms = float(np.sqrt(np.mean((profiles[a] - profiles[b]) ** 2)))
        details.append(f"{a}/{b}={rms:.3f}")
        ok &= rms < 0.5
    _check(3, "flight-phase MC_W agreement < 0.5 bits RMS", ok, ", ".join(details))


def test_criterion_4_stance_peak_location(pipeline):
    # single-sample extremes tie across phases (the reflex dead time carries
    # the flight action symbol into early stance), so the peak comparison is
    # made on the block-5 smoothed series the state-dependent analysis plots
    details = []
    smoothed = {n: moving_average(pipeline.mc_w_series[n], 5) for n in MODELS}
    post = {n: pipeline.discrete[n].t >= TRANSIENT for n in MODELS}
    stance = {n: post[n] & pipeline.discrete[n].contact for n in MODELS}
    flight = {n: post[n] & ~pipeline.discrete[n].contact for n in MODELS}

    fib_stance = smoothed["musfib"][stance["musfib"]].max()
    fib_flight = smoothed["musfib"][flight["musfib"]].max()
    ok = fib_stance > fib_flight
    details.append(f"musfib stance {fib_stance:.2f} > flight {fib_flight:.2f}")

    mot_stance = smoothed["dcmot"][stance["dcmot"]].max()
    mot_flight = smoothed["dcmot"][flight["dcmot"]].max()
    ok &= mot_flight > mot_stance
    details.append(f"dcmot flight {mot_flight:.2f} > stance {mot_stance:.2f}")
    _check(4, "musfib peaks in stance, dcmot peaks in flight", ok, ", ".join(details))


def test_criterion_5_pointwise_aggregate_consistency(pipeline):
    ok = True
    details = []
    for name in MODELS:
        dw = abs(pipeline.mc_w_series[name].mean() - pipeline.results[name].mc_w)
        dm = abs(pipeline.mc_mi_series[name].mean() - pipeline.results[name].mc_mi)
        details.append(f"{name}: {dw:.1e}/{dm:.1e}")
        ok &= dw < 1e-9 and dm < 1e-9
    _check(5, "state-series means equal aggregates to 1e-9", ok, ", ".join(details))


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(1000):
        d = _random_symbol_trace(rng)
        worst = max(worst,
                    abs(mc_w(d) - dense_mc_w(d.w_next, d.w, d.a)),
                    abs(mc_mi(d) - dense_mc_mi(d.w_next, d.w, d.a, d.s)))
    _check(6, "1000 random systems match dense brute force to 1e-12",
           worst <= 1e-12, f"worst |diff|={worst:.2e}")


def test_criterion_7_appendix_identities(pipeline):
    rng = np.random.default_rng(99)
    ok = True
    worst_resid = 0.0
    for _ in range(50):
        d = _deterministic_loop(rng)
        diag = compute_measures(d)
        ok &= diag.i_wnext_a_given_w == 0.0
        worst_resid = max(worst_resid, abs(diag.residual))
    ok &= worst_resid <= 1e-12
    details = [f"synthetic: I(W';A|W)=0 exact, |resid|<={worst_resid:.1e}"]
    for name in MODELS:
        resid = pipeline.results[name].residual
        details.append(f"{name} resid={resid:+.3f}")
        ok &= abs(resid) < 1.0
    _check(7, "deterministic identities exact; trace residuals < 1 bit",
           ok, ", ".join(details))


def test_criterion_8_bin_stability(pipeline):
    traces = list(pipeline.traces.values())
    mcw = {}
    for bins in (50, 100, 300, 400):
        spec = compute_domains(traces, bins=bins)
        for trace in traces:
            mcw[(trace.model, bins)] = mc_w(build_discrete_trace(trace, spec))
    ok = True
    details = []
    for name in MODELS:
        coarse = abs(mcw[(name, 50)] - mcw[(name, 100)])
        fine = abs(mcw[(name, 300)] - mcw[(name, 400)])
        details.append(f"{name}: |300-400|={fine:.3f} < |50-100|={coarse:.3f}")
        ok &= fine < coarse
    _check(8, "measures stabilize with finer binning", ok, ", ".join(details))


def test_criterion_9_dynamics_unit_suite(pipeline):
    ok = True
    details = []

    # force-velocity branch continuity at zero velocity, 1e-9 relative
    p = MusFibParams()
    rng = np.random.default_rng(3)
    cont = max(abs(fiber_force(l, 1e-13, p) - fiber_force(l, -1e-13, p))
               / fiber_force(l, 0.0, p) for l in rng.uniform(0.5, 1.3, 100))
    ok &= cont < 1e-9
    details.append(f"fv continuity {cont:.1e}")

    # flight-phase energy conservation, 1e-6 relative
    worst_energy = 0.0
    for trace in pipeline.traces.values():
        for a, b, in_contact in contact_segments(trace.contact):
            if in_contact or b - a < 5:
                continue
            e = 0.5 * trace.yd[a:b] ** 2 + 9.81 * trace.y[a:b]
            worst_energy = max(worst_energy, float(np.max(np.abs(e - e[0])) / e[0]))
    ok &= worst_energy < 1e-6
    details.append(f"energy {worst_energy:.1e}")

    # ballistic closed form during the first flight, 1e-8 m
    short = integrate(make_model("musfib"), IntegratorConfig(t_end=0.11))
    ball = float(np.max(np.abs(short.y - (1.070 - 4.905 * short.t ** 2))))
    ok &= ball < 1e-8
    details.append(f"ballistic {ball:.1e} m")

    # gear/torque mass-scaling identity, 1e-6 relative: the mass the built
    # motor model carries against the identity applied to the shared hopper's
    mp = DCMotParams()
    derived = mp.gear_ratio * mp.nominal_torque / mp.f_max_ref * HopperCommon().mass
    carried = make_model("dcmot", None, pipeline.reference).common.mass
    mass_rel = abs(carried - derived) / derived
    ok &= mass_rel < 1e-6
    details.append(f"mass identity {mass_rel:.1e}")

    _check(9, "dynamics unit suite at stated tolerances", ok, ", ".join(details))
