"""Release acceptance battery.

One test per criterion; each prints a single ``criterion N: PASS/FAIL``
line (run ``pytest -s tests/test_acceptance.py`` to watch them live) and
fails loudly if its stated tolerance is not met.  Tolerances are pinned
here on purpose: loosening them is a release decision, not a test fix.
"""

import json
import math
import time
import warnings

import numpy as np

from modeheat import (
    BOLTZMANN,
    DEFAULT_SEED,
    LargeStepWarning,
    Psd,
    SimConfig,
    bulk_delta_T,
    ensemble_stats,
    fit_lorentzian,
    flux_from_gap,
    mode_temperature_mc,
    simulate,
    steady_state,
    temperature_from_area,
    welch_psd,
)
from modeheat import cli

from conftest import (
    DT_FAST,
    OMEGA_SPEC,
    REPO,
    cold_damped,
    oscillator_pair,
    single_oscillator,
)


def _report(n: int, passed: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {n}: {detail}"


def _simulate_quiet(model, cfg, threads=4):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LargeStepWarning)
        return simulate(model, cfg, threads=threads)


def test_criterion_1_reference_closures():
    flux = flux_from_gap(13.08, 300.0, 282.0)
    rel_flux = abs(flux - 6.5e-21) / 6.5e-21
    gap = bulk_delta_T(3.5e-6, 5.71e3)
    rel_gap = abs(gap - 0.02) / 0.02
    passed = rel_flux < 0.01 and rel_gap < 0.01
    _report(
        1,
        passed,
        f"flux(13.08/s, 18 K) = {flux:.4e} W (rel {rel_flux:.2e}), "
        f"bulk gap(3.5e-6 W, 5.71e3 K/W) = {gap:.5f} K (rel {rel_gap:.2e}), tol 1%",
    )


def test_criterion_2_equipartition_exact_and_mc():
    model = single_oscillator()  # one oscillator, no feedback
    ss = steady_state(model)
    lyap_dev = max(
        float(np.max(np.abs(ss.mode_temperature_positional / 300.0 - 1.0))),
        float(np.max(np.abs(ss.mode_temperature_kinetic / 300.0 - 1.0))),
    )

    t0 = time.monotonic()
    cfg = SimConfig(
        dt=DT_FAST,
        n_steps=2000,  # 100 damping times at gamma = 10
        seed=DEFAULT_SEED,
        ensemble_size=200,
        allow_large_step=True,
    )
    mt = mode_temperature_mc(ensemble_stats(_simulate_quiet(model, cfg)), model)
    elapsed = time.monotonic() - t0

    values = np.concatenate([mt.positional, mt.kinetic])
    ses = np.concatenate([mt.positional_se, mt.kinetic_se])
    worst_z = float(np.max(np.abs(values - 300.0) / ses))
    worst_se = float(np.max(ses / 300.0))
    passed = lyap_dev < 1e-8 and worst_z < 4.0 and worst_se <= 0.01 and elapsed <= 60.0
    _report(
        2,
        passed,
        f"exact dev {lyap_dev:.2e} (tol 1e-8); MC worst {worst_z:.2f} SE (tol 4), "
        f"SE/T {worst_se:.2%} (tol 1%), {elapsed:.1f} s (limit 60 s)",
    )


def test_criterion_3_noise_factor_doubles_temperature():
    ss = steady_state(single_oscillator(noise_factor=8.0))
    dev = max(
        abs(ss.mode_temperature_kinetic[0] / 600.0 - 1.0),
        abs(ss.mode_temperature_positional[0] / 600.0 - 1.0),
    )
    passed = dev < 1e-8
    _report(
        3,
        passed,
        f"noise factor 8 at 300 K bath gives T' = {ss.mode_temperature_kinetic[0]:.6f} K, "
        f"dev {dev:.2e} (tol 1e-8)",
    )


def test_criterion_4_flux_gap_model_independence():
    fixtures = [
        ("single", single_oscillator(), 300.0),
        ("fb_gamma", cold_damped(gamma_fb_over_gamma=1.0), 300.0),
        ("fb_3gamma", cold_damped(gamma_fb_over_gamma=3.0), 300.0),
        ("pair_g0.1", oscillator_pair(0.1, t_a=400.0, t_b=200.0), 400.0),
        ("pair_g1", oscillator_pair(1.0, t_a=400.0, t_b=200.0), 400.0),
        ("pair_g10", oscillator_pair(10.0, t_a=400.0, t_b=200.0), 400.0),
        ("pair_g100", oscillator_pair(100.0, t_a=400.0, t_b=200.0), 400.0),
    ]
    t0 = time.monotonic()
    worst_z = 0.0
    worst_balance = 0.0
    balance_ok = True
    for k, (tag, model, t_bath) in enumerate(fixtures):
        o = model.oscillators[0]
        ss = steady_state(model)
        p_lyap = float(ss.bath_flux[0])
        balance = abs(float(np.sum(ss.bath_flux) + np.sum(ss.feedback_flux)))
        scale = float(np.sum(np.abs(ss.bath_flux)))
        # equilibrium fixtures have zero net flux: a 1e-30 W floor keeps the
        # relative gate from dividing rounding noise by rounding noise
        balance_ok = balance_ok and balance <= 1e-8 * scale + 1e-30
        worst_balance = max(worst_balance, balance)

        cfg = SimConfig(
            dt=DT_FAST, n_steps=2000, seed=100 + k, ensemble_size=32, allow_large_step=True
        )
        stats = ensemble_stats(_simulate_quiet(model, cfg))
        mt = mode_temperature_mc(stats, model)
        p_gap = flux_from_gap(o.gamma, t_bath, mt.kinetic[0])
        se_gap = 2.0 * o.gamma * BOLTZMANN * mt.kinetic_se[0]
        worst_z = max(worst_z, abs(p_gap - p_lyap) / se_gap)
    elapsed = time.monotonic() - t0
    passed = worst_z < 4.0 and balance_ok and elapsed <= 600.0
    _report(
        4,
        passed,
        f"{len(fixtures)} fixtures; worst estimator gap {worst_z:.2f} SE (tol 4), "
        f"global balance {'holds' if balance_ok else 'broken'} at 1e-8 of the flux "
        f"scale (worst |imbalance| {worst_balance:.1e} W), {elapsed:.1f} s (limit 600 s)",
    )


def test_criterion_5_cold_damping_quarter_temperature():
    model = cold_damped(gamma_fb_over_gamma=3.0)
    o = model.oscillators[0]
    ss = steady_state(model)
    t_prime = float(ss.mode_temperature_kinetic[0])
    ratio_dev = abs(t_prime / 300.0 - 0.25)
    p_expected = 2.0 * o.gamma * BOLTZMANN * (300.0 - t_prime)
    flux_dev = abs(float(ss.bath_flux[0]) - p_expected) / abs(p_expected)
    fb_dev = abs(float(ss.feedback_flux[0]) + float(ss.bath_flux[0])) / abs(p_expected)

    cfg = SimConfig(
        dt=DT_FAST, n_steps=2000, seed=55, ensemble_size=32, allow_large_step=True
    )
    mt = mode_temperature_mc(ensemble_stats(_simulate_quiet(model, cfg)), model)
    z = abs(mt.kinetic[0] - 75.0) / mt.kinetic_se[0]

    passed = ratio_dev < 1e-8 and flux_dev < 1e-8 and fb_dev < 1e-8 and z < 4.0
    _report(
        5,
        passed,
        f"T'/T = {t_prime / 300.0:.10f} (dev {ratio_dev:.2e}, tol 1e-8); "
        f"bath flux matches 2*gamma*k_B*(T-T') to {flux_dev:.2e}, feedback opposes to "
        f"{fb_dev:.2e}; MC T' off by {z:.2f} SE (tol 4)",
    )


def _psd_temperature(g_ratio: float, temperature: float, seed: int) -> float:
    """Spectral temperature of one (coupling, temperature) point: 8 x 16 s records."""
    model = oscillator_pair(
        g_over_gamma=g_ratio, t_a=temperature, t_b=temperature,
        omega=OMEGA_SPEC, gamma=25.0,
    )
    cfg = SimConfig(
        dt=2e-5, n_steps=800_000, seed=seed, ensemble_size=8, allow_large_step=True
    )
    trajs = _simulate_quiet(model, cfg)
    psds = [welch_psd(tr, "A", model=model) for tr in trajs]
    return float(np.mean([temperature_from_area(p, model, "A").value for p in psds]))


def test_criterion_6_spectral_temperature_ignores_coupling():
    worst_t = 0.0
    # vary the spring at fixed temperature: thermometer must not move
    for i, ratio in enumerate([1.0, 10.0, 20.0, 40.0]):
        t_hat = _psd_temperature(ratio, 300.0, seed=1000 + i)
        worst_t = max(worst_t, abs(t_hat - 300.0) / 300.0)
    # vary the temperature at fixed spring: thermometer must follow the bath
    for i, temperature in enumerate([200.0, 300.0, 400.0]):
        t_hat = _psd_temperature(20.0, temperature, seed=2000 + i)
        worst_t = max(worst_t, abs(t_hat - temperature) / temperature)
    passed = worst_t < 0.05
    _report(
        6,
        passed,
        f"7 sweep points: spectral T' within {worst_t:.2%} of the bath (tol 5%)",
    )


def test_criterion_7_strong_coupling_sweep_verdict(tmp_path):
    out = tmp_path / "sweep"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LargeStepWarning)
        code = cli.run(REPO / "configs" / "strong_coupling_sweep.json", out=out, threads=4)
    verdict = json.loads((out / "verdict.json").read_text())
    failed = [c["name"] for c in verdict["checks"] if not c["passed"]]
    passed = code == 0 and verdict["verdict"] == "PASS"
    _report(
        7,
        passed,
        f"exit code {code}, verdict {verdict['verdict']} over g/gamma in [0.1, 100] "
        f"({len(verdict['checks'])} checks{', failed: ' + ', '.join(failed) if failed else ''})",
    )


def test_criterion_8_spectral_calibration():
    # white noise: full-grid area equals the mean square
    rng = np.random.default_rng(8)
    u = rng.standard_normal(1 << 16)
    from test_spectra import _synthetic_trajectory  # same harness, no duplication

    white = welch_psd(_synthetic_trajectory(u, dt=1e-3), 0, segment_length=1024)
    white_rel = abs(white.area() / float(np.mean(u**2)) - 1.0)

    # noiseless Lorentzian: parameter recovery at solver precision
    df = 0.5
    f = df * np.arange(8192)
    hw = 0.5 * 37.0
    values = 1e-22 + (4.2e-18 / math.pi) * hw / ((f - 1234.5) ** 2 + hw**2)
    synth = Psd(
        frequencies=f, values=values, resolution_bandwidth=df, n_segments=64, window="hann"
    )
    fit = fit_lorentzian(synth)
    synth_rel = max(
        abs(fit.center / 1234.5 - 1.0),
        abs(fit.fwhm_gamma / (math.pi * 37.0) - 1.0),
        abs(fit.area / 4.2e-18 - 1.0),
    )

    # simulated record: fitted linewidth recovers the damping rate
    model = single_oscillator(omega=OMEGA_SPEC, gamma=25.0)
    cfg = SimConfig(dt=2e-5, n_steps=1_600_000, seed=7, allow_large_step=True)
    traj = _simulate_quiet(model, cfg, threads=1)[0]
    psd = welch_psd(traj, "A", model=model)
    band = temperature_from_area(psd, model, "A").band
    gamma_fit = fit_lorentzian(psd, band=band).fwhm_gamma
    gamma_rel = abs(gamma_fit / 25.0 - 1.0)

    passed = white_rel < 0.01 and synth_rel < 1e-6 and gamma_rel < 0.10
    _report(
        8,
        passed,
        f"white-noise area rel {white_rel:.2e} (tol 1%); synthetic fit rel "
        f"{synth_rel:.2e} (tol 1e-6); record linewidth {gamma_fit:.2f}/s vs 25/s "
        f"(rel {gamma_rel:.2%}, tol 10%)",
    )


def test_criterion_9_bit_identical_reruns(tmp_path):
    config = REPO / "configs" / "equipartition.json"
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LargeStepWarning)
        code1 = cli.run(config, out=out1, threads=1)
        code2 = cli.run(config, out=out2, threads=4)
    names1 = sorted(p.name for p in out1.glob("*.csv"))
    names2 = sorted(p.name for p in out2.glob("*.csv"))
    identical = (
        code1 == code2 == 0
        and names1 == names2
        and bool(names1)
        and all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names1)
        and (out1 / "verdict.json").read_bytes() == (out2 / "verdict.json").read_bytes()
    )
    _report(
        9,
        identical,
        f"threads 1 vs 4: {len(names1)} CSV file(s) and the verdict byte-identical",
    )
