"""The "same behaviour" contract: the seed-0 pipeline holds committed values.

The session ``pipeline`` (8 s runs, 300 bins, domains pooled over the three
traces) must reproduce, for each model, the nine aggregate measures to
1e-12 bits, the SHA-256 of its (w, s, a) symbol columns, its contact event
count and last event time, and the SHA-256 of its samples and of its events:
the traces themselves are held bit for bit, not only what binning keeps of
them.  The session ``long_pipeline`` (32 s runs, the same binning) must
reproduce each model's measures and symbol digest, so that a change that
moves only long runs shows too.  A change that moves the traces on purpose
updates these values in the same change and lists old -> new; no other
change touches them.

The values pin this host's numpy and BLAS: the dcmot path uses ``@`` and
``solve``, so another BLAS may move the last bits.  Each failure names the
model and the field, so that such a move can be diagnosed, not loosened.
"""

import hashlib

import numpy as np
import pytest

from conftest import MODELS

BITS_TOL = 1e-12

MEASURES = {
    'musfib': {
        'mc_w': 7.1768157968928703,
        'mc_mi': 7.3366436688556016,
        'h_wnext': 10.355367689707588,
        'h_wnext_given_w': 0.57678476891921415,
        'h_a': 2.7333762070931495,
        'h_a_given_s': 0.2914369551603771,
        'i_wnext_a_given_w': 0.048773525838296992,
        'h_a_given_wnext': 0.082835557359349943,
        'residual': -0.24266342932208124,
    },
    'muslin': {
        'mc_w': 5.7120234428101977,
        'mc_mi': 5.838755811723253,
        'h_wnext': 10.538782769741871,
        'h_wnext_given_w': 0.64451687483583175,
        'h_a': 4.3875542850015945,
        'h_a_given_s': 0.33204420181880795,
        'i_wnext_a_given_w': 0.063827128865355728,
        'h_a_given_wnext': 0.14148470404039648,
        'residual': -0.26821707295345176,
    },
    'dcmot': {
        'mc_w': 5.5496272882302264,
        'mc_mi': 5.5583485987220564,
        'h_wnext': 10.120011246872675,
        'h_wnext_given_w': 0.56356352142153654,
        'h_a': 4.0536171910066994,
        'h_a_given_s': 0.055518064277618025,
        'i_wnext_a_given_w': 0.01519457659165125,
        'h_a_given_wnext': 0.031602177194136903,
        'residual': -0.040323487685966906,
    },
}
SYMBOLS_SHA256 = {
    'musfib': '3fff0d1d0fb784bc11dde302e1e024d5f3ef133938696d700f1d6062e0a4abf8',
    'muslin': '5eaf71315eb7b880ffc1f458d97fb624d9331027c9173c3a85f1957759742912',
    'dcmot': '103b1b57363d4cddd010ff87284be5dedd8085bc7c8553e38b6130d91b81d2b5',
}
EVENTS = {
    'musfib': (32, 7.9461259813897938),
    'muslin': (33, 7.9009192531092749),
    'dcmot': (32, 7.8967607557868957),
}

SAMPLES_SHA256 = {
    'musfib': '1cb237579c81de2feffa029ad7c0288007367161f7b9c88c15282b4d4ef5d285',
    'muslin': '4795ea2d84f8772d23e6d6c5afaa870a18571b0d49f8b25a6902fdb90905abe8',
    'dcmot': '8aa89d1844629552ef91bee76cf14fe77ca278a058976501f116c6828dff2d96',
}
EVENTS_SHA256 = {
    'musfib': 'ef563b9fc6c8921bc3a8cb4bf253eb838cfe344b57206018ce7d13dc60c51037',
    'muslin': 'a5d055acb5c50d504fa2c422cc28adecd2d2de39984b963a439f0536fcce0235',
    'dcmot': '520b8f157092a224c82e2f42af931ac3c95d70a11607a37751d3647a1244e69c',
}

# the 32 s runs of the long_pipeline fixture
MEASURES_32S = {
    'musfib': {
        'mc_w': 7.011331923219616,
        'mc_mi': 7.161442044020509,
        'h_wnext': 10.261866470699399,
        'h_wnext_given_w': 0.6672285181370716,
        'h_a': 2.731600041389904,
        'h_a_given_s': 0.29840413284808676,
        'i_wnext_a_given_w': 0.04725318346112484,
        'h_a_given_wnext': 0.10104082858606817,
        'residual': -0.25115094938696164,
    },
    'muslin': {
        'mc_w': 5.292038989583522,
        'mc_mi': 5.400933089819922,
        'h_wnext': 10.212010439858364,
        'h_wnext_given_w': 0.7407476355660144,
        'h_a': 4.4105529254744305,
        'h_a_given_s': 0.34022321100200353,
        'i_wnext_a_given_w': 0.062123196643870865,
        'h_a_given_wnext': 0.16920591412173122,
        'residual': -0.27810001435813203,
    },
    'dcmot': {
        'mc_w': 5.48454577833054,
        'mc_mi': 5.499936519466818,
        'h_wnext': 10.243230125128584,
        'h_wnext_given_w': 0.7682765988510404,
        'h_a': 4.05516708863496,
        'h_a_given_s': 0.08015008182423465,
        'i_wnext_a_given_w': 0.02073133887152908,
        'h_a_given_wnext': 0.04402800181642659,
        'residual': -0.05941874295270429,
    },
}
SYMBOLS_SHA256_32S = {
    'musfib': '3bc4d329d502775fed2fa925b3a0ac61e1f7d15d50c76011563f74fa73bb49e9',
    'muslin': 'c5343aa7f790c9fc83b7d54cd1dc5ea119ba031356ce3cf3c55c34d9c24a1bf3',
    'dcmot': 'df8fb7272982a1c7348e31b5bb0a65ea9bd06914c3db066a7ff1676526befd9b',
}


def _moved_measures(result, committed: dict, label: str) -> list[str]:
    return [f"{label}.{name}: {getattr(result, name)!r} != committed {want!r}"
            for name, want in committed.items()
            if not abs(getattr(result, name) - want) <= BITS_TOL]


def _symbols_sha256(d) -> str:
    digest = hashlib.sha256()
    for column in (d.w, d.s, d.a):
        digest.update(np.ascontiguousarray(column, dtype="<i8").tobytes())
    return digest.hexdigest()


def _samples_sha256(trace) -> str:
    """The t, y, yd, ydd, sensors and action columns as little-endian
    float64 bytes (sensors row by row), then the contact flags as bool bytes."""
    digest = hashlib.sha256()
    for column in (trace.t, trace.y, trace.yd, trace.ydd, trace.sensors, trace.action):
        digest.update(np.ascontiguousarray(column, dtype="<f8").tobytes())
    digest.update(np.ascontiguousarray(trace.contact, dtype=bool).tobytes())
    return digest.hexdigest()


def _events_sha256(trace) -> str:
    """Each event's kind as UTF-8, then its t, y, yd, ydd_before and
    ydd_after as little-endian float64 bytes."""
    digest = hashlib.sha256()
    for ev in trace.events:
        digest.update(ev.kind.encode("utf-8"))
        digest.update(np.array([ev.t, ev.y, ev.yd, ev.ydd_before, ev.ydd_after],
                               dtype="<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("model", MODELS)
def test_measures_hold(pipeline, model):
    moved = _moved_measures(pipeline.results[model], MEASURES[model], model)
    assert not moved, "; ".join(moved)


@pytest.mark.parametrize("model", MODELS)
def test_symbols_hold(pipeline, model):
    got = _symbols_sha256(pipeline.discrete[model])
    assert got == SYMBOLS_SHA256[model], f"{model}.symbols (w, s, a): sha256 {got}"


@pytest.mark.parametrize("model", MODELS)
def test_events_hold(pipeline, model):
    events = pipeline.traces[model].events
    count, last = EVENTS[model]
    assert len(events) == count, f"{model}.events: {len(events)} != committed {count}"
    assert events[-1].t == last, f"{model}.events[-1].t: {events[-1].t!r} != {last!r}"


@pytest.mark.parametrize("model", MODELS)
def test_samples_hold(pipeline, model):
    got = _samples_sha256(pipeline.traces[model])
    assert got == SAMPLES_SHA256[model], f"{model}.samples: sha256 {got}"


@pytest.mark.parametrize("model", MODELS)
def test_event_records_hold(pipeline, model):
    got = _events_sha256(pipeline.traces[model])
    assert got == EVENTS_SHA256[model], f"{model}.events records: sha256 {got}"


@pytest.mark.parametrize("model", MODELS)
def test_32s_measures_hold(long_pipeline, model):
    moved = _moved_measures(long_pipeline.results[model], MEASURES_32S[model], f"{model} 32 s")
    assert not moved, "; ".join(moved)


@pytest.mark.parametrize("model", MODELS)
def test_32s_symbols_hold(long_pipeline, model):
    got = _symbols_sha256(long_pipeline.discrete[model])
    assert got == SYMBOLS_SHA256_32S[model], f"{model} 32 s symbols (w, s, a): sha256 {got}"
