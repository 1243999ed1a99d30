"""Integrator determinism, distributional correctness, and estimator honesty."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import modeheat.langevin as langevin
from modeheat import (
    CouplingSpec,
    FeedbackSpec,
    FingerprintMismatch,
    LargeStepWarning,
    NonFiniteState,
    OscillatorSpec,
    ShortBurnInWarning,
    SimConfig,
    StepTooLarge,
    SystemModel,
    WelchReducer,
    compile,
    ensemble_stats,
    mode_temperature_mc,
    simulate,
    simulate_stats,
    solve_stationary,
    steady_state,
)
from modeheat.config import load_config
from modeheat.experiments import _gap_flux

from conftest import DT_FAST, OMEGA_FAST, REPO, single_oscillator, oscillator_pair


def _quiet_simulate(model, config, threads=1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LargeStepWarning)
        return simulate(model, config, threads=threads)


# -- determinism ---------------------------------------------------------------


def test_same_config_reproduces_bit_identical_trajectories(fast_model):
    cfg = SimConfig(dt=DT_FAST, n_steps=500, seed=7, ensemble_size=3, allow_large_step=True)
    a = _quiet_simulate(fast_model, cfg)
    b = _quiet_simulate(fast_model, cfg)
    assert len(a) == len(b) == 3
    assert np.array_equal(a.record, b.record)
    assert a.grid == b.grid
    assert np.array_equal(a[0].times, b[0].times)
    assert a.fingerprint == b.fingerprint == fast_model.fingerprint()
    assert a.labels == fast_model.labels


def test_ensemble_is_a_sequence_of_member_views(fast_model):
    cfg = SimConfig(dt=DT_FAST, n_steps=50, seed=2, ensemble_size=3, allow_large_step=True)
    ens = _quiet_simulate(fast_model, cfg)
    assert len(ens) == 3
    assert ens.record.shape == (3, 2, 50)
    members = list(ens)
    assert len(members) == 3
    for k, t in enumerate(members):
        assert np.shares_memory(t.states, ens.record)
        assert np.array_equal(t.states, ens.record[k].T)
        assert np.array_equal(ens[k].states, t.states)
        assert t.grid is ens.grid
        assert t.labels == ens.labels
    with pytest.raises(IndexError):
        ens[3]
    with pytest.raises(TypeError):
        ens[0:2]


def test_thread_count_does_not_change_results(fast_model):
    cfg = SimConfig(dt=DT_FAST, n_steps=400, seed=11, ensemble_size=6, allow_large_step=True)
    serial = _quiet_simulate(fast_model, cfg, threads=1)
    threaded = _quiet_simulate(fast_model, cfg, threads=4)
    assert np.array_equal(serial.record, threaded.record)


def test_batch_size_does_not_change_results(monkeypatch):
    # three 4000-step chunks per member carry each state across chunk edges,
    # and give batches of 4 members: 11 members end on a partial batch.  A
    # pair, because the one-oscillator carry E x rounds alike in any product.
    model = oscillator_pair()
    monkeypatch.setattr(langevin, "_CHUNK", 4000)
    cfg = SimConfig(
        dt=DT_FAST, n_steps=11900, seed=5, burn_in=100, ensemble_size=11, allow_large_step=True
    )
    assert langevin._BATCH_STEPS // 4000 == 4
    batched = _quiet_simulate(model, cfg)
    monkeypatch.setattr(langevin, "_BATCH_STEPS", 1)
    single = _quiet_simulate(model, cfg)
    assert np.array_equal(batched.record, single.record)


def test_thread_count_does_not_change_results_across_batches(monkeypatch):
    # batches of 2 members: 7 members make 4 batches for the pool to spread
    model = oscillator_pair()
    cfg = SimConfig(
        dt=DT_FAST, n_steps=400, seed=11, burn_in=100, ensemble_size=7, allow_large_step=True
    )
    monkeypatch.setattr(langevin, "_BATCH_STEPS", 2 * 500)
    serial = _quiet_simulate(model, cfg, threads=1)
    # more threads than cores, switching often: each batch writes only its own
    # slice of the shared record
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _quiet_simulate(model, cfg, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(serial.record, threaded.record)


def test_coordinate_series_are_contiguous(fast_model):
    cfg = SimConfig(
        dt=DT_FAST, n_steps=300, seed=2, ensemble_size=3, record_stride=2, allow_large_step=True
    )
    for t in _quiet_simulate(fast_model, cfg):
        assert t.states.shape == (150, 2)
        for d in range(t.states.shape[1]):
            assert t.states[:, d].flags.c_contiguous


def test_members_differ_from_each_other(fast_model):
    cfg = SimConfig(dt=DT_FAST, n_steps=200, seed=3, ensemble_size=2, allow_large_step=True)
    a, b = _quiet_simulate(fast_model, cfg)
    assert not np.array_equal(a.states, b.states)


def _reference_loop(model, config, index=0):
    """Step-by-step x <- E x + Lq z on the member's Philox stream, recording
    the strided post-burn-in states."""
    E, Lq = langevin._one_step_operators(model, config)
    burn_in = langevin._resolve_burn_in(model, config)
    rng = np.random.Generator(
        np.random.Philox(key=np.array([config.seed, index], dtype=np.uint64))
    )
    x = np.zeros(E.shape[0])
    rec = []
    total = burn_in + config.n_steps
    k = 0
    while k < total:
        Z = rng.standard_normal(size=(min(langevin._CHUNK, total - k), Lq.shape[1]))
        for z in Z:
            x = E @ x + Lq @ z
            k += 1
            if k > burn_in and (k - burn_in) % config.record_stride == 0:
                rec.append(x)
    return np.array(rec)


# low-Q, 10 Hz modes: dt = 1e-3 keeps the automatic burn-in at a few hundred
# steps
_SLOW = OscillatorSpec("A", 1e-9, 2 * math.pi * 10, 30.0, 400.0)
_SLOW_PAIR = SystemModel(
    oscillators=(_SLOW, OscillatorSpec("B", 1e-9, 2 * math.pi * 12, 20.0, 200.0)),
    couplings=(CouplingSpec(("A", "B"), 1e-6),),
    feedbacks={"A": FeedbackSpec(velocity_gain=-6e-8)},
)


def _euler_maruyama_operators(model, config):
    """First-order one-step pair E = I + M dt, Lq = sqrt(dt) G.

    The scan kernel takes any (E, Lq); this pair gives it a non-contractive
    propagator and a 2N x N noise factor, unlike the exact square one.
    """
    mats = compile(model)
    E = np.eye(mats.drift.shape[0]) + config.dt * mats.drift
    return E, math.sqrt(config.dt) * mats.noise_gain


_OPERATORS = {"exact": langevin._one_step_operators, "euler": _euler_maruyama_operators}


def _assert_scan_matches_loop(model, scheme, burn_in, stride, monkeypatch):
    monkeypatch.setattr(langevin, "_one_step_operators", _OPERATORS[scheme])
    cfg = SimConfig(
        dt=1e-3, n_steps=50, seed=9, burn_in=burn_in, record_stride=stride,
        allow_large_step=True,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scan = simulate(model, cfg)[0].states
        loop = _reference_loop(model, cfg)
    assert scan.shape == loop.shape == (50 // stride, 2 * len(model.oscillators))
    scale = np.max(np.abs(loop), axis=0)
    assert np.all(scale > 0)
    assert np.all(np.abs(scan - loop) <= 1e-12 * scale)


@pytest.mark.parametrize(
    "model", [SystemModel(oscillators=(_SLOW,)), _SLOW_PAIR], ids=["single", "pair"]
)
@pytest.mark.parametrize("scheme", ["exact", "euler"])
@pytest.mark.parametrize("burn_in", [0, 7, None])
@pytest.mark.parametrize("stride", [1, 3])
def test_scan_matches_reference_loop(model, scheme, burn_in, stride, monkeypatch):
    # 7-step chunks put chunk edges inside the burn-in and inside a stride
    monkeypatch.setattr(langevin, "_CHUNK", 7)
    _assert_scan_matches_loop(model, scheme, burn_in, stride, monkeypatch)


@pytest.mark.parametrize("chunk", [17, 64])
@pytest.mark.parametrize(
    "model", [SystemModel(oscillators=(_SLOW,)), _SLOW_PAIR], ids=["single", "pair"]
)
@pytest.mark.parametrize("scheme", ["exact", "euler"])
@pytest.mark.parametrize("burn_in", [0, 7, None])
@pytest.mark.parametrize("stride", [1, 3])
def test_scan_carry_path_matches_reference_loop(
    model, scheme, burn_in, stride, chunk, monkeypatch
):
    # chunks of at least two blocks of _BLOCK steps add carries back into
    # later blocks; 17 also leaves a partial last block
    assert chunk >= 2 * langevin._BLOCK
    monkeypatch.setattr(langevin, "_CHUNK", chunk)
    _assert_scan_matches_loop(model, scheme, burn_in, stride, monkeypatch)


@pytest.mark.parametrize("scheme", ["exact", "euler"])
def test_every_batched_member_matches_its_reference_loop(scheme, monkeypatch):
    # 17-step chunks and batches of 2: 5 members over 4 chunks, the last batch partial
    monkeypatch.setattr(langevin, "_one_step_operators", _OPERATORS[scheme])
    monkeypatch.setattr(langevin, "_CHUNK", 17)
    monkeypatch.setattr(langevin, "_BATCH_STEPS", 2 * 17)
    cfg = SimConfig(
        dt=1e-3, n_steps=51, seed=9, burn_in=7, ensemble_size=5, record_stride=3,
        allow_large_step=True,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ens = simulate(_SLOW_PAIR, cfg)
        for k, t in enumerate(ens):
            loop = _reference_loop(_SLOW_PAIR, cfg, index=k)
            assert t.states.shape == loop.shape == (17, 4)
            scale = np.max(np.abs(loop), axis=0)
            assert np.all(np.abs(t.states - loop) <= 1e-12 * scale)


def test_reused_generators_follow_each_member_across_chunks():
    # at the real chunk length a 66000-step member spans two chunks and makes
    # its own batch, so member 1 draws from the generator member 0 left
    # part-way through a Philox block
    cfg = SimConfig(
        dt=1e-3, n_steps=66_000, seed=9, burn_in=0, ensemble_size=2, record_stride=1000,
        allow_large_step=True,
    )
    assert cfg.n_steps > langevin._CHUNK >= langevin._BATCH_STEPS
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ens = simulate(_SLOW_PAIR, cfg)
        for k, t in enumerate(ens):
            loop = _reference_loop(_SLOW_PAIR, cfg, index=k)
            assert t.states.shape == loop.shape == (66, 4)
            scale = np.max(np.abs(loop), axis=0)
            assert np.all(np.abs(t.states - loop) <= 1e-12 * scale)


def test_record_stride_subsamples_the_stride_one_stream(fast_model):
    base = SimConfig(dt=DT_FAST, n_steps=30, seed=4, allow_large_step=True)
    thin = SimConfig(
        dt=DT_FAST, n_steps=30, seed=4, record_stride=3, allow_large_step=True
    )
    dense = _quiet_simulate(fast_model, base)[0]
    strided = _quiet_simulate(fast_model, thin)[0]
    assert strided.states.shape[0] == 10
    assert np.array_equal(strided.states, dense.states[2::3])
    assert np.array_equal(strided.times, dense.times[2::3])


def test_times_grid_structure(fast_model):
    cfg = SimConfig(
        dt=DT_FAST, n_steps=10, seed=1, burn_in=7, record_stride=3, allow_large_step=True
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = simulate(fast_model, cfg)[0]
    assert traj.grid == langevin.RecordGrid(DT_FAST, 7 + 3, 3)
    assert traj.times.shape == (3,)
    assert traj.times[0] == pytest.approx(DT_FAST * (7 + 3), rel=1e-15)
    assert np.allclose(np.diff(traj.times), 3 * DT_FAST, rtol=1e-15)


@pytest.mark.parametrize("burn_in, stride, n_rec", [(0, 1, 5), (7, 3, 4), (20000, 1, 1_600_000)])
def test_derived_times_equal_the_stored_array_they_replace(burn_in, stride, n_rec):
    # the times array simulate stored, and the spacing Welch read from it
    dt = 2e-5
    stored = dt * (burn_in + stride * (1.0 + np.arange(n_rec)))
    grid = langevin.RecordGrid(dt, burn_in + stride, stride)
    assert np.array_equal(grid.times(n_rec), stored)
    if n_rec > 1:
        assert grid.spacing == float(stored[1] - stored[0])


# -- distributional correctness --------------------------------------------------


def test_exact_scheme_matches_covariance_solve(fast_model):
    cfg = SimConfig(
        dt=DT_FAST, n_steps=2000, seed=13, ensemble_size=16, allow_large_step=True
    )
    ens = _quiet_simulate(fast_model, cfg, threads=4)
    stats = ensemble_stats(ens)
    mt = mode_temperature_mc(stats, fast_model)
    assert abs(mt.kinetic[0] - 300.0) < 4 * mt.kinetic_se[0]
    assert abs(mt.positional[0] - 300.0) < 4 * mt.positional_se[0]
    assert mt.kinetic_se[0] > 0
    # cross-covariance <u v> about the zero mean vanishes in steady state
    states = np.concatenate([t.states for t in ens])
    uv = float(np.mean(states[:, 0] * states[:, 1]))
    cov = solve_stationary(compile(fast_model))
    assert abs(uv) < 4 * math.sqrt(
        cov[0, 0] * cov[1, 1] / (stats.n_members * stats.n_records)
    ) + 1e-30


def test_exact_scheme_coupled_pair_matches_covariance_solve():
    model = oscillator_pair(g_over_gamma=10.0, t_a=400.0, t_b=200.0)
    cfg = SimConfig(
        dt=DT_FAST, n_steps=2000, seed=17, ensemble_size=16, allow_large_step=True
    )
    mt = mode_temperature_mc(
        ensemble_stats(_quiet_simulate(model, cfg, threads=4)), model
    )
    cov = solve_stationary(compile(model))
    kB = model.boltzmann
    for i, o in enumerate(model.oscillators):
        t_kin_exact = o.mass * cov[2 * i + 1, 2 * i + 1] / kB
        assert abs(mt.kinetic[i] - t_kin_exact) < 4 * mt.kinetic_se[i]


# with k_B = 1, ||D||_1 is 5e5 times ||M||_1 (4e-19 to 3.5e-17 in the SI configs)
_KB1_PAIR = SystemModel(
    oscillators=(
        OscillatorSpec("o0", 5e-13, OMEGA_FAST, 50.0, 500.0),
        OscillatorSpec("o1", 5e-13, OMEGA_FAST, 1.0, 0.0),
    ),
    couplings=(CouplingSpec(("o0", "o1"), 3.1415926535897925e-4),),
    feedbacks={
        "o0": FeedbackSpec(position_gain=-1.9739208802178716e-4, velocity_gain=-5e-12)
    },
    boltzmann=1.0,
)


def test_one_step_operators_hold_when_diffusion_dwarfs_drift():
    cfg = SimConfig(dt=DT_FAST, n_steps=1, seed=1, allow_large_step=True)
    mats = compile(_KB1_PAIR)
    E, Lq = langevin._one_step_operators(_KB1_PAIR, cfg)
    E_ref = scipy.linalg.expm(mats.drift * DT_FAST)
    np.testing.assert_allclose(E, E_ref, rtol=0, atol=1e-9 * np.max(np.abs(E_ref)))
    C = solve_stationary(mats)
    Q_ref = C - E_ref @ C @ E_ref.T
    np.testing.assert_allclose(Lq @ Lq.T, Q_ref, rtol=0, atol=1e-8 * np.max(np.abs(Q_ref)))


def test_noise_factor_leaves_noiseless_coordinates_at_zero():
    # o1 and o3 have cold baths and no spring, so Q has zero rows for them;
    # Cholesky of the singular Q fails and the fallback factor must keep
    # those rows exactly zero
    model = SystemModel(
        oscillators=tuple(
            OscillatorSpec(f"o{i}", 5e-13, OMEGA_FAST, 1.0, 187.5 if i == 0 else 0.0)
            for i in range(4)
        ),
        couplings=(CouplingSpec(("o0", "o2"), 6.283185307179585e-6),),
        feedbacks={
            "o0": FeedbackSpec(position_gain=-1.9739208802178716e-4, velocity_gain=-1e-13)
        },
    )
    cfg = SimConfig(dt=DT_FAST, n_steps=1, seed=1, allow_large_step=True)
    E, Lq = langevin._one_step_operators(model, cfg)
    assert np.all(Lq[[2, 3, 6, 7]] == 0.0)
    C = solve_stationary(compile(model))
    Q_ref = C - E @ C @ E.T
    np.testing.assert_allclose(Lq @ Lq.T, Q_ref, rtol=0, atol=1e-8 * np.max(np.abs(Q_ref)))


def test_exact_and_mc_temperatures_share_one_definition():
    # Fed the exact variances, the MC estimator must return the exact
    # temperatures bit for bit.  On the equipartition model's B (m = 2e-12 kg)
    # m Omega^2 C / k_B and (m Omega^2 / k_B) C differ in the last bit.
    model = load_config(REPO / "configs" / "equipartition.json").model
    ss = steady_state(model)
    var = np.diag(ss.covariance)
    stats = langevin.EnsembleStats(
        n_members=1, n_records=1, variance=var,
        variance_se=np.zeros_like(var), tau_int=np.ones_like(var),
        fingerprint=model.fingerprint(),
    )
    mc = mode_temperature_mc(stats, model)
    assert np.array_equal(mc.positional, ss.mode_temperature_positional)
    assert np.array_equal(mc.kinetic, ss.mode_temperature_kinetic)


def test_zero_temperature_gives_identically_zero_trajectory():
    model = single_oscillator(temperature=0.0)
    cfg = SimConfig(dt=DT_FAST, n_steps=300, seed=2, ensemble_size=2, allow_large_step=True)
    ens = _quiet_simulate(model, cfg)
    for t in ens:
        assert np.all(t.states == 0.0)
    stats = ensemble_stats(ens)
    assert np.all(stats.variance == 0.0)
    assert np.all(stats.variance_se == 0.0)
    mt = mode_temperature_mc(stats, model)
    assert mt.kinetic[0] == 0.0 and mt.kinetic_se[0] == 0.0


def test_se_shrinks_with_ensemble_size(fast_model):
    se = {}
    for ens in (8, 32):
        cfg = SimConfig(
            dt=DT_FAST, n_steps=1000, seed=5, ensemble_size=ens, allow_large_step=True
        )
        stats = ensemble_stats(_quiet_simulate(fast_model, cfg, threads=4))
        se[ens] = mode_temperature_mc(stats, fast_model).kinetic_se[0]
    # 4x the samples should halve the error bar, up to estimator noise
    assert 0.35 < se[32] / se[8] < 0.65


def test_tau_int_floor_for_decorrelated_records():
    # gamma * dt = 5: records are five amplitude damping times apart, hence
    # effectively independent
    model = single_oscillator(gamma=1e3)
    cfg = SimConfig(dt=DT_FAST, n_steps=1000, seed=5, ensemble_size=4, allow_large_step=True)
    stats = ensemble_stats(_quiet_simulate(model, cfg))
    assert np.all(stats.tau_int >= 1.0)
    assert np.all(stats.tau_int < 1.5)


def test_tau_int_counts_correlated_records(fast_model):
    # gamma * dt = 0.05: the squared deviations behind variance_se stay
    # correlated over tens of records
    cfg = SimConfig(dt=DT_FAST, n_steps=1000, seed=5, ensemble_size=4, allow_large_step=True)
    stats = ensemble_stats(_quiet_simulate(fast_model, cfg))
    assert np.all(stats.tau_int > 3.0)


def test_gap_flux_vanishes_at_equilibrium(fast_model):
    cfg = SimConfig(
        dt=DT_FAST, n_steps=2000, seed=19, ensemble_size=16, allow_large_step=True
    )
    stats = ensemble_stats(_quiet_simulate(fast_model, cfg, threads=4))
    est = _gap_flux(fast_model, mode_temperature_mc(stats, fast_model), 0)
    assert est.se > 0
    assert abs(est.value) < 4 * est.se


def _reference_pooled_mean_se(series):
    """Per-member reduction: one rfft/irfft pair per member series."""

    def unbiased_acov(x):
        n = x.size
        nfft = 1 << (2 * n - 1).bit_length()
        f = np.fft.rfft(x, nfft)
        acov = np.fft.irfft(f * f.conj(), nfft)[:n]
        return acov / np.arange(n, 0, -1)

    n = series[0].size
    n_total = n * len(series)
    mean = sum(float(np.sum(s)) for s in series) / n_total
    acov = np.zeros(n)
    for s in series:
        acov += unbiased_acov(s - mean)
    acov /= len(series)
    tau = langevin._tau_from_acov(acov)
    var = sum(float(np.sum((s - mean) ** 2)) for s in series) / max(n_total - 1, 1)
    return mean, math.sqrt(max(var, 0.0) * tau / n_total), tau


@pytest.mark.parametrize("members", [1, 15, 16, 17, 33])
def test_reductions_match_per_member_reference(members):
    # member counts on both sides of the stacked-FFT block edges, and an odd
    # record count
    cfg = SimConfig(dt=5e-4, n_steps=301, seed=21, ensemble_size=members)
    ens = simulate(_SLOW_PAIR, cfg)
    stats = ensemble_stats(ens)
    # every second moment is the pooled mean square about the known zero mean
    ref = [_reference_pooled_mean_se([t.states[:, d] ** 2 for t in ens]) for d in range(4)]
    for d, (m2, se2, tau) in enumerate(ref):
        got = (stats.tau_int[d], stats.variance[d], stats.variance_se[d])
        np.testing.assert_allclose(got, (tau, m2, se2), rtol=1e-13, atol=0)
    o = _SLOW_PAIR.oscillators[0]
    mean_vsq, se_vsq, _ = ref[1]
    est = _gap_flux(_SLOW_PAIR, mode_temperature_mc(stats, _SLOW_PAIR), 0)
    injected = _SLOW_PAIR.thermal_noise_intensity(0) / (2 * o.mass)
    np.testing.assert_allclose(
        (est.value, est.se),
        (injected - 2.0 * o.gamma * o.mass * mean_vsq, 2.0 * o.gamma * o.mass * se_vsq),
        rtol=1e-13, atol=0,
    )


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("n_steps", [1, 301])
@pytest.mark.parametrize("members", [1, 15, 16, 17, 33])
def test_streamed_stats_equal_the_stored_reduction(members, n_steps, threads, monkeypatch):
    # block edges on both sides, one record and an odd record count; at 4
    # threads, batches of 3 members put several batches of one block in flight
    cfg = SimConfig(dt=5e-4, n_steps=n_steps, seed=21, ensemble_size=members)
    if threads > 1:
        chunk = langevin._resolve_burn_in(_SLOW_PAIR, cfg) + n_steps
        monkeypatch.setattr(langevin, "_BATCH_STEPS", 3 * chunk)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        streamed = simulate_stats(_SLOW_PAIR, cfg, threads)
    finally:
        sys.setswitchinterval(interval)
    stored = ensemble_stats(simulate(_SLOW_PAIR, cfg))
    assert (streamed.n_members, streamed.n_records) == (members, n_steps)
    assert streamed.fingerprint == stored.fingerprint
    # the per-block sums of x^2 in the same order: the same bits
    assert np.array_equal(streamed.variance, stored.variance)
    np.testing.assert_allclose(streamed.variance_se, stored.variance_se, rtol=1e-13, atol=0)
    np.testing.assert_allclose(streamed.tau_int, stored.tau_int, rtol=1e-13, atol=0)
    # a subset, in any order, has the bits of the whole reduction in its rows
    # and NaN in the others; every coordinate has its own accumulator
    for coordinates in (None, (1, 3), (0,), (3, 0)):
        part = simulate_stats(_SLOW_PAIR, cfg, threads, coordinates)
        assert (part.n_members, part.n_records) == (members, n_steps)
        rows = list(range(4) if coordinates is None else coordinates)
        others = sorted(set(range(4)) - set(rows))
        for got, full in zip(
            (part.variance, part.variance_se, part.tau_int),
            (streamed.variance, streamed.variance_se, streamed.tau_int),
        ):
            assert np.array_equal(got[rows], full[rows])
            assert np.all(np.isnan(got[others]))


def test_stats_refuse_a_coordinate_outside_the_state_or_named_twice(monkeypatch):
    # the error of Ensemble.series, raised before any member is integrated
    def run(self, reducers, threads=1):
        raise AssertionError("integrated before the coordinates were checked")

    monkeypatch.setattr(langevin._Integrator, "run", run)
    cfg = SimConfig(dt=5e-4, n_steps=10, seed=21, ensemble_size=2)
    for coordinates in ((4,), (-1,), (0, 5), (1, 1), (3, 0, 3)):
        with pytest.raises(KeyError):
            simulate_stats(_SLOW_PAIR, cfg, coordinates=coordinates)
    with pytest.raises(ValueError):
        simulate_stats(_SLOW_PAIR, cfg, coordinates=())


def test_recentring_is_exact_when_the_first_block_is_far_off():
    # the first block's mean is the provisional centre; the later blocks, of
    # other sizes, sit 50 standard deviations away, so the correction carries
    # the whole shift
    rng = np.random.default_rng(3)
    series = rng.standard_normal((40, 257))
    series[3:] += 50.0
    acc = langevin._PooledMoments(257)
    for block in np.split(series, [3, 19]):
        acc.add(block)
    got = acc.result()
    np.testing.assert_allclose(got, _reference_pooled_mean_se(list(series)), rtol=1e-13, atol=0)


def test_scratch_keeps_no_buffer_above_the_cap(monkeypatch):
    # the scratch lasts the process, so a run over long records makes its
    # larger buffers per request instead of holding them; no bit moves
    cfg = SimConfig(dt=5e-4, n_steps=3001, seed=21, ensemble_size=17)
    kept = simulate_stats(_SLOW_PAIR, cfg)
    monkeypatch.setattr(langevin, "_SCRATCH", langevin._Scratch())
    monkeypatch.setattr(langevin, "_KEEP_BYTES", 1 << 16)
    capped = simulate_stats(_SLOW_PAIR, cfg)
    assert max(b.nbytes for b in langevin._SCRATCH._buffers.values()) <= 1 << 16
    for field in ("variance", "variance_se", "tau_int"):
        assert np.array_equal(getattr(capped, field), getattr(kept, field))


def test_streamed_stats_hold_less_than_half_the_record():
    # the shipped 200-member pair, 2N = 4 x 2000 records: the record of
    # 12.8 MB is never made; one 16-member block and its scratch are
    cfg = load_config(REPO / "configs" / "coupled_transfer.json")
    sim = SimConfig(seed=1, **cfg.sim)
    record_bytes = 8 * sim.ensemble_size * 2 * len(cfg.model.oscillators) * sim.n_steps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LargeStepWarning)
        tracemalloc.start()
        try:
            simulate_stats(cfg.model, sim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert record_bytes == 12_800_000
    assert peak < record_bytes / 2


# -- guard rails ----------------------------------------------------------------


def test_step_guard_raises_then_warns(fast_model):
    cfg = SimConfig(dt=DT_FAST, n_steps=10, seed=1)
    with pytest.raises(StepTooLarge):
        simulate(fast_model, cfg)
    loose = SimConfig(dt=DT_FAST, n_steps=10, seed=1, allow_large_step=True)
    with pytest.warns(LargeStepWarning):
        simulate(fast_model, loose)


def test_short_burn_in_warns(fast_model):
    cfg = SimConfig(dt=DT_FAST, n_steps=10, seed=1, burn_in=10, allow_large_step=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LargeStepWarning)
        with pytest.warns(ShortBurnInWarning):
            simulate(fast_model, cfg)


@pytest.mark.parametrize("entry", ["simulate", "simulate_stats", "integrate"])
def test_warnings_point_at_the_caller(entry, fast_model):
    # the guards warn from inside the integrator, at a depth that differs by
    # entry; cli.run re-emits each warning at the file and line it names
    cfg = SimConfig(dt=DT_FAST, n_steps=10, seed=1, burn_in=10, allow_large_step=True)
    calls = {
        "simulate": lambda: simulate(fast_model, cfg),
        "simulate_stats": lambda: simulate_stats(fast_model, cfg),
        "integrate": lambda: langevin.integrate(fast_model, cfg, [langevin._Record()]),
    }
    with warnings.catch_warnings(record=True) as raised:
        warnings.simplefilter("always")
        calls[entry]()
    assert {w.category for w in raised} == {LargeStepWarning, ShortBurnInWarning}
    assert {w.filename for w in raised} == {__file__}


def test_steps_of_hundreds_of_damping_times_stay_finite():
    # gamma*dt = 400 and 1000: the sub-stepped one-step operators stay finite
    model = SystemModel(
        oscillators=(
            OscillatorSpec(
                label="S", mass=1e-9, omega=2 * math.pi * 100, gamma=10.0,
                bath_temperature=300.0,
            ),
        )
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for dt in (40.0, 100.0):
            traj = simulate(model, SimConfig(dt=dt, n_steps=200, seed=1, allow_large_step=True))
            assert np.all(np.isfinite(traj[0].states))


def test_amplifying_propagator_raises_non_finite(monkeypatch, fast_model):
    # spectral radius 1e3: the state overflows float64 within a few hundred steps
    def amplifying(model, config):
        n = 2 * len(model.oscillators)
        return 1e3 * np.eye(n), np.eye(n)

    monkeypatch.setattr(langevin, "_one_step_operators", amplifying)
    cfg = SimConfig(dt=DT_FAST, n_steps=400, seed=1, burn_in=0, allow_large_step=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NonFiniteState, match="amplifies"):
            simulate(fast_model, cfg)


# overdamped slow mode: max|Re lambda| = 17.8/s, so a step of 1-10 s spans
# tens to hundreds of e-folds of its fastest decay
_OVERDAMPED = SystemModel(oscillators=(OscillatorSpec("S", 1e-9, 2 * math.pi, 10.0, 300.0),))


@pytest.mark.parametrize("dt", [1.0, 3.0, 10.0])
def test_one_step_noise_matches_lyapunov_at_large_steps(dt):
    mats = compile(_OVERDAMPED)
    _, Lq = langevin._one_step_operators(
        _OVERDAMPED, SimConfig(dt=dt, n_steps=1, seed=1, allow_large_step=True)
    )
    E_ref = scipy.linalg.expm(mats.drift * dt)
    C = solve_stationary(mats)
    Q_ref = C - E_ref @ C @ E_ref.T
    np.testing.assert_allclose(Lq @ Lq.T, Q_ref, rtol=0, atol=1e-12 * np.max(np.abs(Q_ref)))


def test_large_steps_read_the_bath_temperature():
    cfg = SimConfig(dt=10.0, n_steps=2000, seed=1, allow_large_step=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LargeStepWarning)
        ens = simulate(_OVERDAMPED, cfg)
    mc = mode_temperature_mc(ensemble_stats(ens), _OVERDAMPED)
    assert abs(mc.kinetic[0] - 300.0) <= 4.0 * mc.kinetic_se[0]


def test_sim_config_validation():
    good = dict(dt=1e-3, n_steps=10, seed=1)
    SimConfig(**good)
    for bad in (
        dict(good, dt=0.0),
        dict(good, dt=-1.0),
        dict(good, n_steps=0),
        dict(good, burn_in=-1),
        dict(good, ensemble_size=0),
        dict(good, record_stride=0),
        dict(good, n_steps=2, record_stride=3),
        dict(good, seed=-1),
        dict(good, seed=2**64),
    ):
        with pytest.raises(ValueError):
            SimConfig(**bad)


def test_fingerprint_guards(fast_model):
    other = single_oscillator(temperature=301.0)
    cfg = SimConfig(dt=DT_FAST, n_steps=50, seed=1, ensemble_size=2, allow_large_step=True)
    ens = _quiet_simulate(fast_model, cfg)
    stats = ensemble_stats(ens)
    with pytest.raises(FingerprintMismatch):
        mode_temperature_mc(stats, other)


def test_trajectory_label_indexing():
    model = oscillator_pair()
    cfg = SimConfig(dt=DT_FAST, n_steps=20, seed=1, allow_large_step=True)
    traj = _quiet_simulate(model, cfg)[0]
    assert np.array_equal(traj.position("B"), traj.states[:, 2])
    assert np.array_equal(traj.position(1), traj.position("B"))
    with pytest.raises(KeyError):
        traj.position("C")


# -- record layout ---------------------------------------------------------------


def test_indices_outside_the_state_are_refused():
    # a bare states[:, 2 * i] would read u_B for i = -1
    model = oscillator_pair()
    cfg = SimConfig(dt=DT_FAST, n_steps=20, seed=1, ensemble_size=2, allow_large_step=True)
    ens = _quiet_simulate(model, cfg)
    for i in (-1, 2):
        with pytest.raises(KeyError):
            ens[0].position(i)
    for d in (-1, 4):
        with pytest.raises(KeyError):
            ens.series(d)
    assert np.array_equal(ens.series(3), ens.record[:, 3])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LargeStepWarning)
        with pytest.raises(KeyError):
            langevin.integrate(model, cfg, [WelchReducer(5)])


def test_one_recorded_position_bounds_the_spectrum_simulate_peak():
    # the shipped spectrum record, the whole state (u and v) with no times
    # array beside it, and the chunk temporaries (a few arrays of one chunk of
    # the full state) on top
    cfg = load_config(REPO / "configs" / "spectrum.json")
    sim = SimConfig(seed=1, **cfg.sim)
    record_bytes = 8 * 2 * len(cfg.model.oscillators) * sim.n_steps
    chunk_bytes = 8 * langevin._CHUNK * 2 * len(cfg.model.oscillators)
    tracemalloc.start()
    try:
        ens = _quiet_simulate(cfg.model, sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.record.nbytes == record_bytes == 25_600_000
    assert peak <= record_bytes + 8 * chunk_bytes

