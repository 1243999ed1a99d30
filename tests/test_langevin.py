"""Integrator determinism, distributional correctness, and estimator honesty."""

import math
import warnings

import numpy as np
import pytest

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
    compile,
    direct_heat_flux_mc,
    ensemble_stats,
    mode_temperature_mc,
    simulate,
    solve_stationary,
    trajectory_to_binary,
    trajectory_to_csv,
)

from conftest import DT_FAST, single_oscillator, oscillator_pair


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
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.states, tb.states)
        assert np.array_equal(ta.times, tb.times)
        assert ta.ensemble_index == tb.ensemble_index
        assert ta.fingerprint == tb.fingerprint == fast_model.fingerprint()
        assert ta.seed == 7
        assert ta.dt == DT_FAST


def test_thread_count_does_not_change_results(fast_model):
    cfg = SimConfig(dt=DT_FAST, n_steps=400, seed=11, ensemble_size=6, allow_large_step=True)
    serial = _quiet_simulate(fast_model, cfg, threads=1)
    threaded = _quiet_simulate(fast_model, cfg, threads=4)
    for ta, tb in zip(serial, threaded):
        assert ta.ensemble_index == tb.ensemble_index
        assert np.array_equal(ta.states, tb.states)


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


# low-Q, 10 Hz modes: dt = 1e-3 keeps Euler stable and the automatic burn-in
# at a few hundred steps
_SLOW = OscillatorSpec("A", 1e-9, 2 * math.pi * 10, 30.0, 400.0)
_SLOW_PAIR = SystemModel(
    oscillators=(_SLOW, OscillatorSpec("B", 1e-9, 2 * math.pi * 12, 20.0, 200.0)),
    couplings=(CouplingSpec(("A", "B"), 1e-6),),
    feedbacks={"A": FeedbackSpec(velocity_gain=-6e-8)},
)


@pytest.mark.parametrize(
    "model", [SystemModel(oscillators=(_SLOW,)), _SLOW_PAIR], ids=["single", "pair"]
)
@pytest.mark.parametrize("scheme", ["exact", "euler"])
@pytest.mark.parametrize("burn_in", [0, 7, None])
@pytest.mark.parametrize("stride", [1, 3])
def test_scan_matches_reference_loop(model, scheme, burn_in, stride, monkeypatch):
    # 7-step chunks put chunk edges inside the burn-in and inside a stride
    monkeypatch.setattr(langevin, "_CHUNK", 7)
    cfg = SimConfig(
        dt=1e-3, n_steps=50, seed=9, burn_in=burn_in, record_stride=stride,
        scheme=scheme, allow_large_step=True,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scan = simulate(model, cfg)[0].states
        loop = _reference_loop(model, cfg)
    assert scan.shape == loop.shape == (50 // stride, 2 * len(model.oscillators))
    scale = np.max(np.abs(loop), axis=0)
    assert np.all(scale > 0)
    assert np.all(np.abs(scan - loop) <= 1e-12 * scale)


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
    assert traj.times.shape == (3,)
    assert traj.times[0] == pytest.approx(DT_FAST * (7 + 3), rel=1e-15)
    assert np.allclose(np.diff(traj.times), 3 * DT_FAST, rtol=1e-15)


# -- distributional correctness --------------------------------------------------


def test_exact_scheme_matches_covariance_solve(fast_model):
    cfg = SimConfig(
        dt=DT_FAST, n_steps=2000, seed=13, ensemble_size=16, allow_large_step=True
    )
    stats = ensemble_stats(_quiet_simulate(fast_model, cfg, threads=4))
    mt = mode_temperature_mc(stats, fast_model)
    assert abs(mt.kinetic[0] - 300.0) < 4 * mt.kinetic_se[0]
    assert abs(mt.positional[0] - 300.0) < 4 * mt.positional_se[0]
    assert mt.kinetic_se[0] > 0
    # cross-covariance <u v> vanishes in steady state
    cov = solve_stationary(compile(fast_model))
    assert abs(stats.second_moments[0, 1]) < 4 * math.sqrt(
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


def test_euler_scheme_unbiased_at_small_step():
    # low Q and dt*omega = 6.3e-3 keep the O(dt) discretization bias at ~1%,
    # well inside the 4 sigma band of this run
    model = SystemModel(
        oscillators=(
            OscillatorSpec(
                label="S", mass=1e-9, omega=2 * math.pi * 10, gamma=30.0,
                bath_temperature=300.0,
            ),
        )
    )
    cfg = SimConfig(dt=1e-4, n_steps=300_000, seed=21, ensemble_size=4, scheme="euler")
    mt = mode_temperature_mc(ensemble_stats(simulate(model, cfg, threads=4)), model)
    assert abs(mt.kinetic[0] - 300.0) < 4 * mt.kinetic_se[0]
    assert abs(mt.positional[0] - 300.0) < 4 * mt.positional_se[0]


def test_zero_temperature_gives_identically_zero_trajectory():
    model = single_oscillator(temperature=0.0)
    cfg = SimConfig(dt=DT_FAST, n_steps=300, seed=2, ensemble_size=2, allow_large_step=True)
    trajs = _quiet_simulate(model, cfg)
    for t in trajs:
        assert np.all(t.states == 0.0)
    stats = ensemble_stats(trajs)
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


def test_tau_int_floor_for_decorrelated_records(fast_model):
    # records are ~50 damping times apart, hence effectively independent
    cfg = SimConfig(dt=DT_FAST, n_steps=1000, seed=5, ensemble_size=4, allow_large_step=True)
    stats = ensemble_stats(_quiet_simulate(fast_model, cfg))
    assert np.all(stats.tau_int >= 1.0)
    assert np.all(stats.tau_int < 1.5)


def test_direct_flux_vanishes_at_equilibrium(fast_model):
    cfg = SimConfig(
        dt=DT_FAST, n_steps=2000, seed=19, ensemble_size=16, allow_large_step=True
    )
    trajs = _quiet_simulate(fast_model, cfg, threads=4)
    est = direct_heat_flux_mc(trajs, fast_model, "A")
    assert est.se > 0
    assert abs(est.value) < 4 * est.se
    single = direct_heat_flux_mc(trajs[0], fast_model, "A")
    listed = direct_heat_flux_mc([trajs[0]], fast_model, "A")
    assert single == listed


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


def test_euler_instability_raises_non_finite():
    # dt*omega ~ 6: each Euler step multiplies the amplitude by ~6, which
    # overflows float64 within one integration chunk
    model = SystemModel(
        oscillators=(
            OscillatorSpec(
                label="S", mass=1e-9, omega=2 * math.pi * 100, gamma=1.0,
                bath_temperature=300.0,
            ),
        )
    )
    cfg = SimConfig(
        dt=1e-2, n_steps=2000, seed=1, burn_in=0, scheme="euler", allow_large_step=True
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NonFiniteState):
            simulate(model, cfg)


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
        dict(good, seed=-1),
        dict(good, seed=2**64),
        dict(good, scheme="heun"),
    ):
        with pytest.raises(ValueError):
            SimConfig(**bad)


def test_fingerprint_guards(fast_model):
    other = single_oscillator(temperature=301.0)
    cfg = SimConfig(dt=DT_FAST, n_steps=50, seed=1, ensemble_size=2, allow_large_step=True)
    trajs = _quiet_simulate(fast_model, cfg)
    stats = ensemble_stats(trajs)
    with pytest.raises(FingerprintMismatch):
        mode_temperature_mc(stats, other)
    with pytest.raises(FingerprintMismatch):
        direct_heat_flux_mc(trajs, other, "A")
    alien = _quiet_simulate(other, cfg)
    with pytest.raises(FingerprintMismatch):
        ensemble_stats([trajs[0], alien[0]])
    with pytest.raises(ValueError):
        ensemble_stats([])


def test_ensemble_stats_rejects_mismatched_shapes(fast_model):
    cfg_a = SimConfig(dt=DT_FAST, n_steps=40, seed=1, allow_large_step=True)
    cfg_b = SimConfig(dt=DT_FAST, n_steps=60, seed=1, allow_large_step=True)
    ta = _quiet_simulate(fast_model, cfg_a)[0]
    tb = _quiet_simulate(fast_model, cfg_b)[0]
    with pytest.raises(ValueError):
        ensemble_stats([ta, tb])


def test_trajectory_label_indexing():
    model = oscillator_pair()
    cfg = SimConfig(dt=DT_FAST, n_steps=20, seed=1, allow_large_step=True)
    traj = _quiet_simulate(model, cfg)[0]
    assert np.array_equal(traj.position("B"), traj.states[:, 2])
    assert np.array_equal(traj.velocity("A"), traj.states[:, 1])
    assert np.array_equal(traj.position(1), traj.position("B"))
    with pytest.raises(KeyError):
        traj.position("C")


# -- export round trips -----------------------------------------------------------


def test_csv_round_trip(fast_model, tmp_path):
    cfg = SimConfig(dt=DT_FAST, n_steps=25, seed=6, allow_large_step=True)
    traj = _quiet_simulate(fast_model, cfg)[0]
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# model_fingerprint=")
    assert f"seed={traj.seed}" in lines[0]
    assert lines[1] == "time,u_1,v_1"
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    # %.17g preserves float64 exactly
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:], traj.states)


def test_binary_round_trip(fast_model, tmp_path):
    cfg = SimConfig(dt=DT_FAST, n_steps=25, seed=6, allow_large_step=True)
    traj = _quiet_simulate(fast_model, cfg)[0]
    path = tmp_path / "traj.bin"
    trajectory_to_binary(traj, path)
    raw = np.fromfile(path, dtype="<f8").reshape(25, 3)
    assert np.array_equal(raw[:, 0], traj.times)
    assert np.array_equal(raw[:, 1:], traj.states)
