"""System definition and compilation."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

import modeheat.model
from modeheat import (
    BOLTZMANN,
    CouplingSpec,
    FeedbackSpec,
    NonPositiveStiffness,
    OscillatorSpec,
    SystemModel,
    UnknownLabel,
    UnknownPair,
    UnstableFeedback,
    compile,
    coupling_g,
    model_from_dict,
)

from conftest import OMEGA_FAST, oscillator_pair, single_oscillator


def test_compile_matches_hand_built_matrices():
    m1, m2 = 1e-12, 3e-12
    w1, w2 = 2 * math.pi * 1e5, 2 * math.pi * 9e4
    g1, g2 = 10.0, 25.0
    kc = 2e-4
    A, B, Sx = 0.05 * m1 * w1**2, -4e-11, 1e-30
    model = SystemModel(
        oscillators=(
            OscillatorSpec("A", m1, w1, g1, 300.0),
            OscillatorSpec("B", m2, w2, g2, 150.0),
        ),
        couplings=(CouplingSpec(("A", "B"), kc),),
        feedbacks={"A": FeedbackSpec(position_gain=A, velocity_gain=B, noise_psd=Sx)},
    )
    mats = compile(model)

    M = np.zeros((4, 4))
    M[0, 1] = 1.0
    M[1, 0] = -(w1**2 - A / m1) - kc / m1
    M[1, 1] = -(2 * g1 - B / m1)
    M[1, 2] = kc / m1
    M[2, 3] = 1.0
    M[3, 2] = -(w2**2) - kc / m2
    M[3, 3] = -2 * g2
    M[3, 0] = kc / m2
    np.testing.assert_allclose(mats.drift, M, rtol=0, atol=0)

    s1 = 4.0 * g1 * m1 * BOLTZMANN * 300.0 + Sx
    s2 = 4.0 * g2 * m2 * BOLTZMANN * 150.0
    D = np.zeros((4, 4))
    D[1, 1] = s1 / m1**2
    D[3, 3] = s2 / m2**2
    np.testing.assert_allclose(mats.diffusion, D, rtol=1e-15, atol=0)
    np.testing.assert_allclose(mats.noise_gain @ mats.noise_gain.T, D, rtol=1e-15, atol=0)


def test_thermal_noise_intensity_scales_with_noise_factor():
    base = single_oscillator().thermal_noise_intensity(0)
    doubled = single_oscillator(noise_factor=8.0).thermal_noise_intensity(0)
    assert doubled == pytest.approx(2 * base, rel=1e-15)
    assert base == pytest.approx(4.0 * 10.0 * 1e-12 * BOLTZMANN * 300.0, rel=1e-15)


def test_observable_arrays_follow_the_oscillators():
    model = SystemModel(
        oscillators=(
            OscillatorSpec("A", 1e-12, OMEGA_FAST, 10.0, 300.0),
            OscillatorSpec("B", 3e-12, 0.9 * OMEGA_FAST, 25.0, 150.0),
        ),
        feedbacks={"B": FeedbackSpec(velocity_gain=-1e-11, noise_psd=1e-30)},
        boltzmann=1.0,
    )
    np.testing.assert_array_equal(
        model.kelvin_per_moment,
        [1e-12 * OMEGA_FAST**2, 1e-12, 3e-12 * (0.9 * OMEGA_FAST) ** 2, 3e-12],
    )
    np.testing.assert_array_equal(
        model.injected_power,
        [model.thermal_noise_intensity(0) / 2e-12, model.thermal_noise_intensity(1) / 6e-12],
    )
    np.testing.assert_array_equal(model.feedback_noise_power, [0.0, 1e-30 / 6e-12])
    np.testing.assert_array_equal(model.damping_coefficient, [2e-11, 1.5e-10])
    with pytest.raises(ValueError):
        model.kelvin_per_moment[0] = 0.0
    a, b = model.oscillators
    hotter = dataclasses.replace(
        model, oscillators=(dataclasses.replace(a, bath_temperature=600.0), b)
    )
    assert hotter.injected_power[0] == 2 * model.injected_power[0]


def test_equilibrium_temperature_scales_the_bath_by_the_noise_factor():
    model = oscillator_pair(t_a=400.0, t_b=200.0)
    # the default factor 4 gives the bath temperature to the bit
    np.testing.assert_array_equal(model.equilibrium_temperature, [400.0, 200.0])
    doubled = dataclasses.replace(model, noise_factor=8.0)
    np.testing.assert_array_equal(doubled.equilibrium_temperature, [800.0, 400.0])
    with pytest.raises(ValueError):
        doubled.equilibrium_temperature[0] = 0.0
    # the bath injects S_0/(2m) = 2 gamma k_B T_eq, so it alone holds m<v^2> = k_B T_eq
    mass = np.array([o.mass for o in doubled.oscillators])
    np.testing.assert_allclose(
        doubled.injected_power,
        doubled.damping_coefficient * doubled.boltzmann * doubled.equilibrium_temperature / mass,
        rtol=1e-15,
    )


def test_compile_is_kept_with_the_model_and_read_only():
    model = oscillator_pair()
    mats = compile(model)
    assert compile(model) is mats
    for shared in (mats.drift, mats.diffusion, mats.noise_gain, *mats.schur):
        with pytest.raises(ValueError):
            shared += 0.0
    assert mats.schur is mats.schur
    # an edited model is a new model and compiles afresh
    hotter = dataclasses.replace(model, noise_factor=8.0)
    assert compile(hotter) is not mats
    np.testing.assert_allclose(compile(hotter).diffusion, 2.0 * mats.diffusion, rtol=1e-15)


def test_oscillator_validation():
    with pytest.raises(ValueError):
        OscillatorSpec("A", -1e-12, OMEGA_FAST, 10.0, 300.0)
    with pytest.raises(ValueError):
        OscillatorSpec("A", 1e-12, 0.0, 10.0, 300.0)
    with pytest.raises(ValueError):
        OscillatorSpec("A", 1e-12, OMEGA_FAST, -1.0, 300.0)
    with pytest.raises(ValueError):
        OscillatorSpec("A", 1e-12, OMEGA_FAST, 10.0, -5.0)
    with pytest.raises(ValueError):
        FeedbackSpec(noise_psd=-1e-30)
    with pytest.raises(ValueError):
        CouplingSpec(("A", "A"), 1.0)


def test_duplicate_and_unknown_labels():
    osc = OscillatorSpec("A", 1e-12, OMEGA_FAST, 10.0, 300.0)
    with pytest.raises(ValueError):
        SystemModel(oscillators=(osc, osc))
    with pytest.raises(UnknownLabel):
        SystemModel(oscillators=(osc,), couplings=(CouplingSpec(("A", "Z"), 1.0),))
    with pytest.raises(UnknownLabel):
        SystemModel(oscillators=(osc,), feedbacks={"Z": FeedbackSpec()})
    with pytest.raises(UnknownLabel):
        single_oscillator().index("Z")


def test_unstable_feedback_gains():
    m = 1e-12
    stiffness = m * OMEGA_FAST**2
    with pytest.raises(UnstableFeedback):
        compile(single_oscillator(feedbacks={"A": FeedbackSpec(position_gain=stiffness)}))
    with pytest.raises(UnstableFeedback):
        compile(single_oscillator(feedbacks={"A": FeedbackSpec(velocity_gain=2 * 10.0 * m)}))
    # an undamped oscillator with no feedback compiles (instability surfaces
    # later as NotHurwitz, not here)
    compile(single_oscillator(gamma=0.0))


def test_non_positive_stiffness():
    m = 1e-12
    k = m * OMEGA_FAST**2
    with pytest.raises(NonPositiveStiffness):
        compile(
            SystemModel(
                oscillators=(
                    OscillatorSpec("A", m, OMEGA_FAST, 10.0, 300.0),
                    OscillatorSpec("B", m, OMEGA_FAST, 10.0, 300.0),
                ),
                couplings=(CouplingSpec(("A", "B"), -0.6 * k),),
            )
        )


def test_coupling_g_formula():
    model = oscillator_pair(g_over_gamma=10.0, gamma=10.0)
    g = coupling_g(model, ("A", "B"))
    assert g == pytest.approx(100.0, rel=1e-12)
    # order of the pair does not matter
    assert coupling_g(model, ("B", "A")) == g

    # a detuned pair gets the nominal rate of the same formula
    m, w_a, w_b, k_c = 1e-12, OMEGA_FAST, 1.01 * OMEGA_FAST, 1e-4
    detuned = SystemModel(
        oscillators=(
            OscillatorSpec("A", m, w_a, 10.0, 300.0),
            OscillatorSpec("B", m, w_b, 10.0, 300.0),
        ),
        couplings=(CouplingSpec(("A", "B"), k_c),),
    )
    expected = k_c / (2 * m * math.sqrt(w_a * w_b))
    assert coupling_g(detuned, ("A", "B")) == pytest.approx(expected, rel=1e-12)

    with pytest.raises(UnknownPair):
        coupling_g(single_oscillator(), ("A", "B"))


def test_fingerprint_tracks_the_compiled_system():
    a = oscillator_pair()
    assert a.fingerprint() == oscillator_pair().fingerprint()
    assert a.fingerprint() != oscillator_pair(t_a=301.0).fingerprint()
    assert a.fingerprint() != oscillator_pair(g_over_gamma=11.0).fingerprint()
    # mass enters the hash directly: rescaling m and k_c together changes the
    # model but can leave the drift invariant
    assert a.fingerprint() != oscillator_pair(mass=2e-12).fingerprint()


def test_fingerprint_is_computed_once_and_follows_replace(monkeypatch):
    model = oscillator_pair()
    mats = compile(model)
    fresh = hashlib.sha256()
    fresh.update(mats.drift.tobytes())
    fresh.update(mats.diffusion.tobytes())
    fresh.update(np.array([1e-12, 1e-12]).tobytes())
    fresh.update(b"A|B")
    assert model.fingerprint() == fresh.hexdigest()[:16]

    def no_compile(_):
        raise AssertionError("fingerprint recompiled the model")

    with monkeypatch.context() as mp:
        mp.setattr(modeheat.model, "compile", no_compile)
        assert model.fingerprint() == fresh.hexdigest()[:16]
    hotter = dataclasses.replace(model, noise_factor=8.0)
    assert hotter.fingerprint() != model.fingerprint()
    assert hotter.fingerprint() == oscillator_pair(noise_factor=8.0).fingerprint()


def test_labels_and_index_follow_replace():
    model = oscillator_pair()
    assert model.labels == ("A", "B")
    assert [model.index(lab) for lab in model.labels] == [0, 1]
    renamed = dataclasses.replace(
        model,
        oscillators=tuple(
            dataclasses.replace(o, label=o.label.lower()) for o in model.oscillators
        ),
        couplings=(dataclasses.replace(model.couplings[0], pair=("a", "b")),),
    )
    assert renamed.labels == ("a", "b") and renamed.index("b") == 1
    with pytest.raises(UnknownLabel):
        renamed.index("B")


def test_model_from_dict_reads_every_field():
    model = SystemModel(
        oscillators=(
            OscillatorSpec("A", 1e-12, OMEGA_FAST, 10.0, 300.0),
            OscillatorSpec("B", 2e-12, 0.9 * OMEGA_FAST, 5.0, 200.0),
        ),
        couplings=(CouplingSpec(("A", "B"), 3e-5),),
        feedbacks={"B": FeedbackSpec(velocity_gain=-1e-11, noise_psd=1e-31)},
        noise_factor=8.0,
    )
    doc = {
        "oscillators": [
            {"label": "A", "mass": 1e-12, "omega": OMEGA_FAST, "gamma": 10.0,
             "bath_temperature": 300.0},
            {"label": "B", "mass": 2e-12, "omega": 0.9 * OMEGA_FAST, "gamma": 5.0,
             "bath_temperature": 200.0},
        ],
        "couplings": [{"pair": ["A", "B"], "spring_constant": 3e-5}],
        "feedbacks": {"B": {"velocity_gain": -1e-11, "noise_psd": 1e-31}},
        "noise_factor": 8.0,
    }
    built = model_from_dict(doc)
    assert built == model
    assert built.fingerprint() == model.fingerprint()


def test_model_from_dict_fills_defaults():
    # no couplings, feedbacks or noise_factor: none, none and 4.0
    doc = {
        "oscillators": [
            {"label": "A", "mass": 1e-12, "omega": OMEGA_FAST, "gamma": 10.0,
             "bath_temperature": 300.0}
        ]
    }
    assert model_from_dict(doc) == single_oscillator()

