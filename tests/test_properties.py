"""Property tests over random stable networks.

Each drawn network has one to six oscillators near a common frequency, random
springs between any pairs, and position, velocity and noise feedback on a
random subset.  Oscillator 0 always has a warm bath and a noiseless cooling
feedback, so every network draws net power from its baths and the relative
energy balance has a nonzero scale.  The identities checked hold for any such network: the
Lyapunov residual gate, the global energy balance, the flux-gap relation, the
exact zero of <u_i v_i>, linearity of C in the noise intensities, the
recursive Lyapunov kernel against a dense Kronecker solve, and normal modes
read off the Schur factor that equal the drift's eigenvalues.  On the
Monte Carlo side, the integrator's block scan equals a step-by-step loop for
any burn-in, stride, chunk length and block length, the MC mode
temperatures and direct bath fluxes lie within 5 SE of the exact ones, and
the pooled mean of every coordinate lies within 5 SE of the zero that all
MC second moments are taken about.
"""

import dataclasses
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import modeheat.langevin as langevin  # noqa: E402
from modeheat import (  # noqa: E402
    BOLTZMANN,
    CouplingSpec,
    FeedbackSpec,
    OscillatorSpec,
    SimConfig,
    SystemModel,
    compile,
    ensemble_stats,
    flux_from_gap,
    mode_temperature_mc,
    normal_modes,
    simulate,
    solve_stationary,
    steady_state,
)
from modeheat import steady  # noqa: E402
from modeheat.experiments import _gap_flux  # noqa: E402
from modeheat.steady import REQUIRED_RESIDUAL, lyapunov_residual  # noqa: E402

from conftest import DT_FAST, OMEGA_FAST  # noqa: E402
from test_langevin import _reference_loop  # noqa: E402
from test_steady import balanced, kronecker_oracle  # noqa: E402

unit = st.floats(0.0, 1.0)
# Noise sources are either off or at least 1% of a 300 K thermal drive, so
# that D stays far from floating-point underflow.
fraction = st.one_of(st.just(0.0), st.floats(0.01, 1.0))


@st.composite
def stable_networks(draw, max_oscillators=6):
    boltzmann = draw(st.sampled_from([BOLTZMANN, 1.0]))
    n = draw(st.integers(1, max_oscillators))
    oscillators = []
    for i in range(n):
        detuning = draw(st.sampled_from([0.0, 1e-4, 1e-2, 0.3])) * draw(unit)
        oscillators.append(
            OscillatorSpec(
                f"o{i}",
                1e-12 * (0.5 + 1.5 * draw(unit)),
                OMEGA_FAST * (1.0 + detuning),
                1.0 + 49.0 * draw(unit),
                500.0 * draw(st.floats(0.1, 1.0) if i == 0 else fraction),
            )
        )
    couplings = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                a = oscillators[i]
                g = 10.0 * a.gamma * draw(unit)
                k_c = 2.0 * a.mass * a.omega * g
                couplings.append(CouplingSpec((a.label, oscillators[j].label), k_c))
    feedbacks = {}
    for i, o in enumerate(oscillators):
        if i > 0 and not draw(st.booleans()):
            continue
        # gamma_fb from -gamma/2 (heating, short of undamping the mode) to 3 gamma;
        # oscillator 0 always cools
        low = 0.1 if i == 0 else -0.5
        gamma_fb = o.gamma * (low + (3.0 - low) * draw(unit))
        noise = 0.0 if i == 0 else draw(fraction)
        feedbacks[o.label] = FeedbackSpec(
            position_gain=1e-3 * o.mass * o.omega**2 * (2.0 * draw(unit) - 1.0),
            velocity_gain=-2.0 * o.mass * gamma_fb,
            noise_psd=4.0 * o.gamma * o.mass * boltzmann * 300.0 * noise,
        )
    return SystemModel(tuple(oscillators), tuple(couplings), feedbacks, boltzmann=boltzmann)


def _doubled_noise(model: SystemModel) -> SystemModel:
    """Every bath temperature and feedback noise intensity doubled."""
    return dataclasses.replace(
        model,
        oscillators=tuple(
            dataclasses.replace(o, bath_temperature=2.0 * o.bath_temperature)
            for o in model.oscillators
        ),
        feedbacks={
            lab: dataclasses.replace(fb, noise_psd=2.0 * fb.noise_psd)
            for lab, fb in model.feedbacks.items()
        },
    )


_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(stable_networks())
def test_residual_balance_and_flux_gap_identities(model):
    mats = compile(model)
    ss = steady_state(model)
    assert lyapunov_residual(mats, ss.covariance) <= REQUIRED_RESIDUAL

    balance = abs(np.sum(ss.bath_flux) + np.sum(ss.feedback_flux))
    assert balance <= 1e-8 * np.sum(np.abs(ss.bath_flux))

    # P_i = 2 gamma_i k_B (T_i - T'_kin,i), judged against the gross power
    # 2 gamma_i k_B (|T_i| + |T'_kin,i|) that the two sides of the difference carry
    for i, o in enumerate(model.oscillators):
        t_kin = ss.mode_temperature_kinetic[i]
        gap_flux = flux_from_gap(o.gamma, o.bath_temperature, t_kin, model.boltzmann)
        gross = 2.0 * o.gamma * model.boltzmann * (o.bath_temperature + abs(t_kin))
        assert abs(ss.bath_flux[i] - gap_flux) <= 1e-8 * gross


@_PROPERTY
@given(stable_networks())
def test_exact_zeros_and_linearity_in_noise(model):
    mats = compile(model)
    C = solve_stationary(mats)
    for i in range(len(model.oscillators)):
        assert C[2 * i, 2 * i + 1] == 0.0
        assert C[2 * i + 1, 2 * i] == 0.0
    # Doubling every noise source doubles C, compared in balanced coordinates
    # (positions times their stiffness frequency, so every diagonal entry is
    # an energy per mass).  Entries far below the largest one, such as a mode
    # that no noise reaches or a correlation that vanishes only by symmetry,
    # are rounding residue of the solve; they are not rescaled bit for bit,
    # because sqrt(2 S) != sqrt(2) sqrt(S) in the noise gain, and are held to
    # 1e-12 of the largest entry instead.
    C2 = solve_stationary(compile(_doubled_noise(model)))
    s = np.ones(mats.drift.shape[0])
    s[0::2] = np.sqrt(-mats.drift[1::2, 0::2].sum(axis=1))
    B, B2 = np.outer(s, s) * C, np.outer(s, s) * C2
    np.testing.assert_allclose(B2, 2.0 * B, rtol=1e-12, atol=1e-12 * np.max(np.abs(2.0 * B)))


@_PROPERTY
@given(stable_networks())
def test_recursive_kernel_matches_the_kronecker_oracle(model):
    # A leaf of 2 or 3 makes every network of more than one oscillator recurse,
    # through Sylvester blocks on both sides and splits moved off 2x2 blocks.
    # Compared in balanced coordinates, where every entry carries weight: with
    # the unblocked solve (one trsyl call at the default leaf) to 1e-12 of the
    # largest entry, and with the dense Kronecker solve to 1e-10, since that
    # oracle's own distance from the unblocked solve reaches 2.9e-11 on these
    # draws.
    mats = compile(model)
    s = balanced(mats)[0]
    unblocked = np.outer(s, s) * solve_stationary(mats)
    oracle = np.outer(s, s) * kronecker_oracle(mats)
    for leaf in (2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(steady, "_LEAF", leaf)
            C = solve_stationary(mats)
        assert lyapunov_residual(mats, C) <= REQUIRED_RESIDUAL
        B = np.outer(s, s) * C
        np.testing.assert_allclose(B, unblocked, rtol=0, atol=1e-12 * np.max(np.abs(unblocked)))
        np.testing.assert_allclose(B, oracle, rtol=0, atol=1e-10 * np.max(np.abs(oracle)))


@_PROPERTY
@given(stable_networks())
def test_normal_modes_are_the_drift_eigenvalues(model):
    # read off the Schur factor of the stiffness-scaled drift, they match a
    # plain eig of the drift itself, one entry per conjugate pair
    modes = normal_modes(compile(model))
    lam = np.linalg.eigvals(compile(model).drift)
    lam = lam[lam.imag >= 0]
    got = -0.5 * modes.linewidths + 1j * modes.frequencies
    assert got.shape == lam.shape
    distance = np.abs(got[:, None] - lam[None, :])
    tol = 1e-12 * np.max(np.abs(lam))
    assert np.all(distance.min(axis=0) <= tol) and np.all(distance.min(axis=1) <= tol)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    stable_networks(max_oscillators=4),
    st.floats(1e-3, 0.05),
    st.integers(0, 40),
    st.integers(1, 5),
    st.integers(1, 60),
    st.integers(1, 40),
    st.integers(2, 5),
)
def test_scan_equals_reference_loop(model, step, burn_in, stride, records, chunk, block):
    # short chunks and blocks put their edges inside the burn-in and the stride
    cfg = SimConfig(
        dt=step / OMEGA_FAST, n_steps=stride * records, seed=3, burn_in=burn_in,
        record_stride=stride, allow_large_step=True,
    )
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp.setattr(langevin, "_CHUNK", chunk)
        mp.setattr(langevin, "_BLOCK", block)
        scan = simulate(model, cfg)[0].states
        loop = _reference_loop(model, cfg)
    assert scan.shape == loop.shape == (records, 2 * len(model.oscillators))
    scale = np.max(np.abs(loop), axis=0)
    assert np.all(np.abs(scan - loop) <= 1e-12 * scale)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(stable_networks())
def test_mc_estimates_within_five_se_of_exact(model):
    # the floor of 1e-9 of the scale covers the exact solve's own residue
    cfg = SimConfig(dt=DT_FAST, n_steps=4000, seed=5, ensemble_size=16, allow_large_step=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trajs = simulate(model, cfg)
    ss = steady_state(model)
    stats = ensemble_stats(trajs)
    mc = mode_temperature_mc(stats, model)
    t_scale = max(o.bath_temperature for o in model.oscillators)
    p_scale = np.sum(np.abs(ss.bath_flux))
    for i in range(len(model.oscillators)):
        pairs = [
            (mc.kinetic[i], mc.kinetic_se[i], ss.mode_temperature_kinetic[i], t_scale),
            (mc.positional[i], mc.positional_se[i], ss.mode_temperature_positional[i], t_scale),
        ]
        flux = _gap_flux(model, mc, i)
        pairs.append((flux.value, flux.se, ss.bath_flux[i], p_scale))
        for value, se, exact, scale in pairs:
            assert abs(value - exact) <= 5.0 * se + 1e-9 * scale


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(stable_networks())
def test_mc_coordinates_have_zero_mean(model):
    # x_0 = 0, zero-mean noise and no constant force: every MC second moment is
    # taken about zero, so the pooled mean of each coordinate must sit within
    # 5 SE of it (the reduction centres a copy of each block in its own
    # scratch, so f may return a view of the record)
    cfg = SimConfig(dt=DT_FAST, n_steps=4000, seed=5, ensemble_size=16, allow_large_step=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ens = simulate(model, cfg)
    for d in range(2 * len(model.oscillators)):
        mean, se, _ = langevin._pooled_mean_se(ens.series(d), np.array)
        assert abs(mean) <= 5.0 * se
