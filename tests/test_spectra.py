"""Welch thermometry: Parseval closure, Lorentzian fits."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import modeheat.spectra as spectra
from modeheat import (
    BandOutOfRange,
    DegenerateBand,
    LargeStepWarning,
    Psd,
    RecordGrid,
    RecordTooShort,
    SimConfig,
    Trajectory,
    compile,
    fit_lorentzian,
    normal_modes,
    psd_to_csv,
    simulate,
    temperature_from_area,
    welch_psd,
)

from conftest import OMEGA_SPEC, single_oscillator


def _synthetic_trajectory(u: np.ndarray, dt: float) -> Trajectory:
    """A record of the position of oscillator A, sampled every dt from t = dt."""
    grid = RecordGrid(dt, 1, 1)
    assert np.array_equal(grid.times(u.size), dt * (1.0 + np.arange(u.size)))
    return Trajectory(states=u[:, None], labels=("A",), coordinates=(0,), grid=grid)


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


@pytest.mark.parametrize("n_segments", [1, 16, 17, 33])
@pytest.mark.parametrize("overlap_fraction", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("segment_length", [64, 65])
@pytest.mark.parametrize("window", ["hann", "rectangular"])
def test_welch_matches_scipy(window, segment_length, overlap_fraction, n_segments):
    import scipy.signal  # the oracle; the package itself does not import it

    step = segment_length - int(overlap_fraction * segment_length)
    n = segment_length + (n_segments - 1) * step
    rng = np.random.default_rng(n)
    # AR(1) noise: a coloured spectrum without the huge dynamic range of a
    # random walk, whose smallest bins are pure rounding
    u = scipy.signal.lfilter([1.0], [1.0, -0.8], rng.standard_normal(n)) * 1e-9
    psd = welch_psd(
        _synthetic_trajectory(u, dt=2e-5), 0, segment_length=segment_length,
        overlap_fraction=overlap_fraction, window=window,
    )
    kwargs = dict(
        fs=5e4, window={"hann": "hann", "rectangular": "boxcar"}[window],
        nperseg=segment_length, noverlap=segment_length - step, detrend=False,
    )
    freqs, values = scipy.signal.welch(u, **kwargs)
    _, times, _ = scipy.signal.spectrogram(u, **kwargs)
    assert np.array_equal(psd.frequencies, freqs)
    np.testing.assert_allclose(psd.values, values, rtol=1e-12, atol=0.0)
    assert psd.n_segments == times.size == n_segments


@pytest.mark.parametrize("segment_length", [64, 65])
def test_rectangular_welch_without_overlap_is_parseval_exact(segment_length):
    u = np.random.default_rng(5).standard_normal(17 * segment_length + 3)
    psd = welch_psd(
        _synthetic_trajectory(u, dt=1e-3), 0, segment_length=segment_length,
        overlap_fraction=0.0, window="rectangular",
    )
    covered = u[: psd.n_segments * segment_length]
    assert psd.n_segments == 17
    assert psd.area() == pytest.approx(float(np.mean(covered**2)), rel=1e-12)


def _welch_sixteen_per_fft(u, segment_length, overlap_fraction, window, dt):
    """Reference: the Welch loop that transformed 16 segments per rfft call."""
    L = segment_length
    step = L - int(overlap_fraction * L)
    segments = np.lib.stride_tricks.sliding_window_view(u, L)[::step]
    if window == "hann":
        w = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(L) / L)
    else:
        w = np.ones(L)
    power = np.zeros(L // 2 + 1)
    for start in range(0, segments.shape[0], 16):
        spec = np.fft.rfft(segments[start : start + 16] * w, axis=1)
        power += np.sum(spec.real**2 + spec.imag**2, axis=0)
    values = power / ((1.0 / dt) * float(np.sum(w * w)) * segments.shape[0])
    values[1 : (L + 1) // 2] *= 2.0
    return values


@pytest.mark.parametrize("n_segments", [1, 15, 16, 17, 31, 33])
@pytest.mark.parametrize("overlap_fraction", [0.0, 0.5])
@pytest.mark.parametrize("segment_length", [64, 65])
@pytest.mark.parametrize("window", ["hann", "rectangular"])
def test_welch_bits_match_sixteen_segments_per_fft(
    window, segment_length, overlap_fraction, n_segments
):
    step = segment_length - int(overlap_fraction * segment_length)
    n = segment_length + (n_segments - 1) * step + 3  # a dropped partial tail
    u = np.random.default_rng(n_segments).standard_normal(n) * 1e-9
    psd = welch_psd(
        _synthetic_trajectory(u, dt=2e-5), 0, segment_length=segment_length,
        overlap_fraction=overlap_fraction, window=window,
    )
    reference = _welch_sixteen_per_fft(u, segment_length, overlap_fraction, window, 2e-5)
    assert psd.n_segments == n_segments
    assert np.array_equal(psd.values, reference)


def test_welch_working_set_is_independent_of_record_length():
    L = 1 << 14
    u = np.random.default_rng(39).standard_normal(L + 38 * (L // 2))
    traj = _synthetic_trajectory(u, dt=1e-3)
    tracemalloc.start()
    try:
        psd = welch_psd(traj, 0, segment_length=L)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert psd.n_segments == 39
    # two segments and their spectra at a time; all 16 of a block would be ~50 L
    assert peak < 16 * L * 8


def test_package_import_defers_optional_scipy_modules():
    src = os.path.dirname(os.path.dirname(spectra.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = """
import sys
import numpy as np
import modeheat, modeheat.cli
loaded = [m for m in ("scipy.signal", "scipy.stats", "scipy.optimize") if m in sys.modules]
assert not loaded, loaded
f = 0.5 * np.arange(512)
values = 1e-20 / (1.0 + ((f - 100.0) / 5.0) ** 2)
psd = modeheat.Psd(f, values, resolution_bandwidth=0.5, n_segments=16, window="hann")
assert modeheat.fit_lorentzian(psd).converged
assert "scipy.optimize" in sys.modules
"""
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


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


# -- the fitter's analytic Jacobian ------------------------------------------------


def test_lorentzian_jacobian_matches_central_differences(monkeypatch):
    # every column of the analytic Jacobian away from the seed: shifted
    # center, width and area, nonzero background
    import scipy.optimize

    df = 2.0
    f = df * np.arange(12000)
    psd = Psd(
        frequencies=f,
        values=_lorentz(f, 20050.0, 8.0, 2e-19, bg=1e-25),
        resolution_bandwidth=df,
        n_segments=256,
        window="hann",
    )
    calls = []
    real = scipy.optimize.least_squares

    def spy(fun, x0, jac, **kwargs):
        calls.append((fun, jac, x0))
        return real(fun, x0, jac=jac, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", spy)
    fit_lorentzian(psd, band=(19800.0, 20300.0))
    (fun, jac, x0), = calls
    assert x0.size == 4
    p = x0 * np.array([1.02, 1.3, 0.8, 1.0])
    p[-1] += 0.05
    J = jac(p)
    numeric = np.empty_like(J)
    for k in range(p.size):
        h = 1e-6 * max(abs(p[k]), 1e-3)
        step = np.zeros_like(p)
        step[k] = h
        numeric[:, k] = (fun(p + step) - fun(p - step)) / (2.0 * h)
    # entries near a column's zero crossing are held to 1e-6 of its largest entry
    scale = np.max(np.abs(J), axis=0)
    np.testing.assert_allclose(J / scale, numeric / scale, rtol=1e-6, atol=1e-6)


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
