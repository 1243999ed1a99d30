"""Welch thermometry: Parseval closure, Lorentzian fits, splitting readout."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import modeheat.spectra as spectra
from modeheat import (
    BandOutOfRange,
    DegenerateBand,
    LargeStepWarning,
    OscillatorSpec,
    Psd,
    RecordTooShort,
    SimConfig,
    SystemModel,
    Trajectory,
    UnresolvedSplitting,
    compile,
    coupling_from_splitting,
    coupling_g,
    fit_lorentzian,
    normal_modes,
    psd_to_csv,
    simulate,
    temperature_from_area,
    welch_psd,
)

from conftest import OMEGA_SPEC, single_oscillator, oscillator_pair


def _synthetic_trajectory(u: np.ndarray, dt: float) -> Trajectory:
    states = np.column_stack([u, np.zeros_like(u)])
    times = dt * (1.0 + np.arange(u.size))
    return Trajectory(
        times=times,
        states=states,
        labels=("A",),
        fingerprint="synthetic",
        seed=0,
        ensemble_index=0,
        dt=dt,
    )


def _lorentz(f, center, fwhm_hz, area, bg=0.0):
    hw = 0.5 * fwhm_hz
    return bg + (area / math.pi) * hw / ((f - center) ** 2 + hw**2)


@pytest.fixture(scope="module")
def spec_record():
    """32 s displacement record of a 20 kHz, gamma=25 oscillator at 300 K."""
    model = single_oscillator(omega=OMEGA_SPEC, gamma=25.0)
    cfg = SimConfig(dt=2e-5, n_steps=1_600_000, seed=7, allow_large_step=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LargeStepWarning)
        traj = simulate(model, cfg)[0]
    return model, traj


# -- Parseval and exact synthetic spectra -----------------------------------------


def test_white_noise_area_equals_mean_square():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(1 << 17)
    traj = _synthetic_trajectory(u, dt=1e-3)
    for window in ("hann", "rectangular"):
        psd = welch_psd(traj, 0, segment_length=1024, window=window)
        assert psd.area() == pytest.approx(float(np.mean(u**2)), rel=0.01)


def test_bin_centered_sinusoid_recovers_exact_power():
    fs = 1000.0
    nperseg = 512
    n = 16 * nperseg
    t = np.arange(n) / fs
    a = 3.0e-9
    f_sig = 40 * fs / nperseg
    u = a * np.sin(2 * math.pi * f_sig * t)
    traj = _synthetic_trajectory(u, dt=1 / fs)
    psd = welch_psd(
        traj, 0, segment_length=nperseg, overlap_fraction=0.0, window="rectangular"
    )
    band = (f_sig - 2 * psd.resolution_bandwidth, f_sig + 2 * psd.resolution_bandwidth)
    assert psd.area(band) == pytest.approx(a**2 / 2, rel=1e-9)
    assert psd.area() == pytest.approx(a**2 / 2, rel=1e-9)


def test_fit_recovers_noiseless_lorentzian_exactly():
    df = 0.5
    f = df * np.arange(8192)
    center, fwhm, area, bg = 1234.5, 37.0, 4.2e-18, 3.3e-22
    psd = Psd(
        frequencies=f,
        values=_lorentz(f, center, fwhm, area, bg),
        resolution_bandwidth=df,
        n_segments=128,
        window="hann",
    )
    fit = fit_lorentzian(psd)
    assert fit.converged
    assert fit.center == pytest.approx(center, rel=1e-6)
    assert fit.fwhm_gamma == pytest.approx(math.pi * fwhm, rel=1e-6)
    assert fit.area == pytest.approx(area, rel=1e-6)
    assert fit.background == pytest.approx(bg, rel=1e-6)
    # noiseless data: residuals at machine precision
    assert fit.goodness < 1e-12


def test_fit_accepts_explicit_initial_guess():
    df = 0.5
    f = df * np.arange(4096)
    psd = Psd(
        frequencies=f,
        values=_lorentz(f, 800.0, 20.0, 1e-18, 0.0),
        resolution_bandwidth=df,
        n_segments=64,
        window="hann",
    )
    fit = fit_lorentzian(psd, initial_guess=(790.0, 30.0, 2e-18, 1e-24))
    assert fit.center == pytest.approx(800.0, rel=1e-6)
    with pytest.raises(ValueError):
        fit_lorentzian(psd, initial_guess=(5000.0, 30.0, 2e-18, 0.0), band=(600.0, 1000.0))


def test_fit_rejects_degenerate_band():
    df = 1.0
    f = df * np.arange(512)
    psd = Psd(
        frequencies=f,
        values=np.ones_like(f),
        resolution_bandwidth=df,
        n_segments=8,
        window="hann",
    )
    with pytest.raises(DegenerateBand):
        fit_lorentzian(psd, band=(100.0, 105.0))


# -- band temperature --------------------------------------------------------------


def test_temperature_from_area_exact_on_synthetic_psd():
    model = single_oscillator()
    o = model.oscillators[0]
    df = 2.0
    f = df * np.arange(1000)
    values = np.full_like(f, 1.5e-23)
    psd = Psd(
        frequencies=f, values=values, resolution_bandwidth=df, n_segments=25, window="hann"
    )
    band = (f[100], f[199])
    bt = temperature_from_area(psd, model, "A", band=band)
    area = 100 * 1.5e-23 * df
    scale = o.mass * o.omega**2 / model.boltzmann
    assert bt.value == pytest.approx(scale * area, rel=1e-12)
    se = scale * df * math.sqrt(100 * (1.5e-23) ** 2 / 25)
    assert bt.se == pytest.approx(se, rel=1e-12)
    assert bt.variance_fraction == pytest.approx(0.1, rel=1e-9)
    assert bt.low_capture  # 10% of the grid variance is flagged


def test_temperature_band_validation():
    model = single_oscillator()
    df = 2.0
    f = df * np.arange(100)
    psd = Psd(
        frequencies=f,
        values=np.ones_like(f),
        resolution_bandwidth=df,
        n_segments=4,
        window="hann",
    )
    with pytest.raises(BandOutOfRange):
        temperature_from_area(psd, model, "A", band=(50.0, 30.0))
    with pytest.raises(BandOutOfRange):
        temperature_from_area(psd, model, "A", band=(0.0, 1e6))
    with pytest.raises(BandOutOfRange):
        temperature_from_area(psd, model, "A", band=(10.2, 11.8))


def test_welch_psd_guards():
    traj = _synthetic_trajectory(np.zeros(16), dt=1e-3)
    with pytest.raises(RecordTooShort):
        welch_psd(traj, 0, segment_length=32)
    with pytest.raises(RecordTooShort):
        welch_psd(_synthetic_trajectory(np.zeros(1), dt=1e-3), 0)
    with pytest.raises(ValueError):
        welch_psd(traj, 0, segment_length=8, window="blackman")
    with pytest.raises(ValueError):
        welch_psd(traj, 0, segment_length=8, overlap_fraction=0.95)


# -- MC record thermometry ----------------------------------------------------------


def test_record_temperature_within_five_percent(spec_record):
    model, traj = spec_record
    psd = welch_psd(traj, "A", model=model)
    bt = temperature_from_area(psd, model, "A")
    assert bt.value == pytest.approx(300.0, rel=0.05)
    assert not bt.low_capture
    assert bt.variance_fraction > 0.9


def test_record_linewidth_within_ten_percent(spec_record):
    model, traj = spec_record
    psd = welch_psd(traj, "A", model=model)
    bt = temperature_from_area(psd, model, "A")
    fit = fit_lorentzian(psd, band=bt.band)
    assert fit.converged
    assert fit.fwhm_gamma == pytest.approx(25.0, rel=0.10)
    f0_damped = normal_modes(compile(model)).frequencies[0] / (2 * math.pi)
    assert abs(fit.center - f0_damped) < 5 * psd.resolution_bandwidth


def test_window_choice_shifts_temperature_mildly(spec_record):
    model, traj = spec_record
    t_hann = temperature_from_area(welch_psd(traj, "A", model=model), model, "A").value
    t_rect = temperature_from_area(
        welch_psd(traj, "A", model=model, window="rectangular"), model, "A"
    ).value
    assert t_rect == pytest.approx(t_hann, rel=0.03)


def test_off_peak_band_flags_low_capture(spec_record):
    model, traj = spec_record
    psd = welch_psd(traj, "A", model=model)
    bt = temperature_from_area(psd, model, "A", band=(100.0, 2000.0))
    assert bt.low_capture
    assert bt.variance_fraction < 0.5


# -- coupling from the normal-mode splitting ----------------------------------------


def test_splitting_exact_route_matches_coupling_rate():
    model = oscillator_pair(g_over_gamma=100.0)
    modes = normal_modes(compile(model))
    est = coupling_from_splitting(modes, model, ("A", "B"))
    g_true = coupling_g(model, ("A", "B")).value
    assert est.se == 0.0
    assert est.value == pytest.approx(g_true, rel=0.01)
    key = (0, 1)
    assert est.value == pytest.approx(0.5 * modes.splittings[key], rel=1e-12)


def test_splitting_exact_route_unresolved_when_weak():
    model = oscillator_pair(g_over_gamma=0.1)
    modes = normal_modes(compile(model))
    with pytest.raises(UnresolvedSplitting):
        coupling_from_splitting(modes, model, ("A", "B"))


def test_splitting_exact_route_requires_near_degenerate_pair():
    model = oscillator_pair(g_over_gamma=10.0)
    b = dataclasses.replace(model.oscillators[1], omega=1.2 * model.oscillators[1].omega)
    detuned = dataclasses.replace(model, oscillators=(model.oscillators[0], b))
    modes = normal_modes(compile(detuned))
    with pytest.raises(UnresolvedSplitting):
        coupling_from_splitting(modes, detuned, ("A", "B"))


def test_splitting_psd_route_noiseless_doublet():
    model = oscillator_pair(g_over_gamma=40.0, omega=OMEGA_SPEC, gamma=25.0)
    g_true = coupling_g(model, ("A", "B")).value
    f0 = OMEGA_SPEC / (2 * math.pi)
    c1 = f0 - g_true / (2 * math.pi)
    c2 = f0 + g_true / (2 * math.pi)
    df = 2.0
    f = df * np.arange(12000)
    fwhm = 2 * 25.0 / (2 * math.pi)
    values = _lorentz(f, c1, fwhm, 2e-19) + _lorentz(f, c2, fwhm, 1.5e-19, bg=1e-25)
    psd = Psd(
        frequencies=f, values=values, resolution_bandwidth=df, n_segments=256, window="hann"
    )
    est = coupling_from_splitting(psd, model, ("A", "B"))
    assert est.value == pytest.approx(math.pi * (c2 - c1), rel=1e-6)
    assert est.value == pytest.approx(g_true, rel=1e-6)
    assert est.se >= 0.0


def test_splitting_psd_route_on_simulated_doublet():
    model = oscillator_pair(g_over_gamma=40.0, omega=OMEGA_SPEC, gamma=25.0)
    cfg = SimConfig(dt=2e-5, n_steps=800_000, seed=43, allow_large_step=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LargeStepWarning)
        traj = simulate(model, cfg)[0]
    psd = welch_psd(traj, "A", model=model)
    est = coupling_from_splitting(psd, model, ("A", "B"))
    g_true = coupling_g(model, ("A", "B")).value
    assert est.value == pytest.approx(g_true, rel=0.05)
    assert est.se > 0.0


def _uncoupled_doublet(split_hz=100.0, gamma=25.0):
    """Two detuned, uncoupled oscillators and a noiseless PSD of their doublet."""
    f0 = OMEGA_SPEC / (2 * math.pi)
    lo, hi = f0 - 0.5 * split_hz, f0 + 0.5 * split_hz
    model = SystemModel(
        oscillators=(
            OscillatorSpec("A", 1e-12, 2 * math.pi * lo, gamma, 300.0),
            OscillatorSpec("B", 1e-12, 2 * math.pi * hi, gamma, 300.0),
        )
    )
    df = 2.0
    f = df * np.arange(12000)
    fwhm = 2 * gamma / (2 * math.pi)
    values = _lorentz(f, lo, fwhm, 2e-19) + _lorentz(f, hi, fwhm, 1.5e-19, bg=1e-25)
    psd = Psd(
        frequencies=f, values=values, resolution_bandwidth=df, n_segments=256, window="hann"
    )
    return model, psd


def test_splitting_psd_route_default_band_on_uncoupled_pair():
    # no coupling spring: the default band falls back to center +- 20 gamma/pi
    model, psd = _uncoupled_doublet(split_hz=100.0)
    est = coupling_from_splitting(psd, model, ("A", "B"))
    assert est.value == pytest.approx(math.pi * 100.0, rel=1e-6)


def test_splitting_psd_route_does_not_hide_unexpected_errors(monkeypatch):
    model, psd = _uncoupled_doublet()

    def broken(model, pair):
        raise RuntimeError("bug")

    monkeypatch.setattr(spectra, "coupling_g", broken)
    with pytest.raises(RuntimeError, match="bug"):
        coupling_from_splitting(psd, model, ("A", "B"))


def test_splitting_psd_route_unresolved_when_peaks_overlap():
    # separation g/pi ~ 4 Hz against ~8 Hz linewidths: one merged bump
    model = oscillator_pair(g_over_gamma=0.5, omega=OMEGA_SPEC, gamma=25.0)
    g_true = coupling_g(model, ("A", "B")).value
    f0 = OMEGA_SPEC / (2 * math.pi)
    df = 2.0
    f = f0 - 400.0 + df * np.arange(400)
    fwhm = 2 * 25.0 / (2 * math.pi)
    values = _lorentz(f, f0 - g_true / (2 * math.pi), fwhm, 2e-19) + _lorentz(
        f, f0 + g_true / (2 * math.pi), fwhm, 2e-19
    )
    psd = Psd(
        frequencies=f, values=values, resolution_bandwidth=df, n_segments=64, window="hann"
    )
    with pytest.raises(UnresolvedSplitting):
        coupling_from_splitting(psd, model, ("A", "B"))


def test_splitting_psd_route_degenerate_band():
    model = oscillator_pair(g_over_gamma=40.0)
    f = 1.0 * np.arange(8)
    psd = Psd(
        frequencies=f,
        values=np.ones_like(f),
        resolution_bandwidth=1.0,
        n_segments=4,
        window="hann",
    )
    with pytest.raises(DegenerateBand):
        coupling_from_splitting(psd, model, ("A", "B"), band=(0.0, 7.0))


# -- export -------------------------------------------------------------------------


def test_psd_csv_round_trip(tmp_path, spec_record):
    model, traj = spec_record
    psd = welch_psd(traj, "A", segment_length=4096, model=model)
    path = tmp_path / "psd.csv"
    psd_to_csv(psd, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# resolution_bandwidth=")
    assert f"n_segments={psd.n_segments}" in lines[0]
    assert "window=hann" in lines[0]
    assert lines[1] == "frequency_hz,psd_m2_per_hz"
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    assert np.array_equal(data[:, 0], psd.frequencies)
    assert np.array_equal(data[:, 1], psd.values)
