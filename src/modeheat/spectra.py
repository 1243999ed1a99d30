"""Spectral thermometry: PSD estimation, band-area temperatures, peak fits.

These are the measurement procedures the rest of the package cross-checks
against exact stationary statistics: the mode temperature read off the area
under a displacement noise spectrum and the damping rate read off a
Lorentzian linewidth.

Spectra are one-sided densities in m^2/Hz on a Hz grid (laboratory
convention).  The displacement spectrum of a single thermally driven mode is

    S_u(f) = (S_0 / m^2) * 2 / ((Omega^2 - w^2)^2 + 4 gamma^2 w^2),  w = 2 pi f

whose band area recovers <u^2> (Parseval) and whose full width at half
maximum is gamma/pi Hz; fitted widths are therefore reported as the damping
rate gamma = pi * FWHM_Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandOutOfRange, DegenerateBand, RecordTooShort
from .langevin import Trajectory
from .model import SystemModel, compile
from .steady import normal_modes
from .tables import Table, write_csv

__all__ = [
    "Psd",
    "PeakFit",
    "BandTemperature",
    "welch_psd",
    "temperature_from_area",
    "fit_lorentzian",
    "psd_table",
    "psd_to_csv",
]

_WINDOWS = ("hann", "rectangular")
# Segments summed into one partial power before it is added to the total.  It
# fixes the summation order, and so the bits of every PSD.
_SEGMENT_BLOCK = 16
# Segments transformed per rfft call; it sets the working set.  One per call
# took 13-30 % more CPU time on records of 1 M and 1.6 M samples (2-core Xeon,
# one BLAS thread).
_FFT_BLOCK = 2
# Fraction of total variance below which a band temperature is flagged.
_LOW_CAPTURE = 0.5


@dataclass(frozen=True)
class Psd:
    """One-sided Welch estimate on a uniform Hz grid.

    ``resolution_bandwidth`` is the grid spacing fs/segment_length (window
    broadening not folded in); ``n_segments`` is the number of averaged
    segments, which sets the per-bin relative scatter ~ 1/sqrt(n_segments).
    """

    frequencies: np.ndarray
    values: np.ndarray
    resolution_bandwidth: float
    n_segments: int
    window: str

    def band_slice(self, band: tuple[float, float]) -> np.ndarray:
        lo, hi = band
        return (self.frequencies >= lo) & (self.frequencies <= hi)

    def area(self, band: tuple[float, float] | None = None) -> float:
        """Sum(values) * df over the band (full grid when band is None)."""
        values = self.values if band is None else self.values[self.band_slice(band)]
        return float(np.sum(values) * self.resolution_bandwidth)


@dataclass(frozen=True)
class PeakFit:
    """Single-Lorentzian fit result.

    ``fwhm_gamma`` is the damping rate implied by the fitted full width,
    gamma = pi * FWHM_Hz, in 1/s.  ``goodness`` is the reduced chi-square
    with per-bin sigma = value/sqrt(n_segments).  ``converged`` is False when
    the iteration budget ran out; the best-so-far parameters are still
    returned.
    """

    center: float
    fwhm_gamma: float
    area: float
    background: float
    goodness: float
    converged: bool = True


@dataclass(frozen=True)
class BandTemperature:
    """Mode temperature from the band area, with truncation diagnostics."""

    value: float
    se: float
    band: tuple[float, float]
    variance_fraction: float
    low_capture: bool


def welch_psd(
    trajectory: Trajectory,
    oscillator: int | str = 0,
    segment_length: int | None = None,
    overlap_fraction: float = 0.5,
    window: str = "hann",
    model: SystemModel | None = None,
) -> Psd:
    """One-sided Welch PSD of an oscillator's displacement record.

    Welch's averaged periodogram: segments of segment_length samples, started
    every segment_length - int(overlap_fraction * segment_length) samples (a
    trailing partial segment is dropped), times a periodic Hann or a boxcar
    window, with the mean |rfft|^2 scaled by 1/(fs * sum(window^2)).

    Default segmentation targets >= 16 averaged segments while keeping the
    resolution bandwidth well under a linewidth; passing the model sharpens
    the latter to segment_length >= 32/(gamma*dt) samples for the target
    oscillator.  Records are zero-mean by construction, so no detrending is
    applied and the full-grid area equals the record's mean square (Parseval).

    Working set: two windowed segments and their spectra at a time, about
    9 * segment_length float64 values, independent of the record length.
    """
    if window not in _WINDOWS:
        raise ValueError(f"window must be one of {_WINDOWS}, got {window!r}")
    if not 0.0 <= overlap_fraction <= 0.9:
        raise ValueError(f"overlap_fraction must be in [0, 0.9], got {overlap_fraction}")

    u = trajectory.position(oscillator)
    n = u.size
    if n < 2:
        raise RecordTooShort(f"record of {n} samples cannot be segmented")
    # Record spacing, not the integrator step: records may be strided.
    dt = trajectory.grid.spacing
    fs = 1.0 / dt

    if segment_length is None:
        segment_length = max(n // 16, 64)
        if model is not None:
            i = model.index(oscillator) if isinstance(oscillator, str) else oscillator
            gamma = model.oscillators[i].gamma
            if gamma > 0:
                segment_length = max(segment_length, math.ceil(32.0 / (gamma * dt)))
        segment_length = min(segment_length, n)
    if segment_length > n:
        raise RecordTooShort(
            f"segment_length {segment_length} exceeds the record length {n}"
        )
    if segment_length < 2:
        raise RecordTooShort("segments need at least 2 samples")

    L = segment_length
    step = L - int(overlap_fraction * L)
    segments = np.lib.stride_tricks.sliding_window_view(u, L)[::step]
    n_segments = segments.shape[0]
    if window == "hann":  # periodic Hann, as used for spectral analysis
        w = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(L) / L)
    else:
        w = np.ones(L)
    power = np.zeros(L // 2 + 1)
    for start in range(0, n_segments, _FFT_BLOCK):
        spec = np.fft.rfft(segments[start : start + _FFT_BLOCK] * w, axis=1)
        # Each block of _SEGMENT_BLOCK segments is summed row by row from its
        # first row, as np.sum over the block's rows does, then added to the
        # total once.
        for k, row in enumerate(spec.real**2 + spec.imag**2, start):
            if k % _SEGMENT_BLOCK == 0:
                partial = row.copy()
            else:
                partial += row
            if (k + 1) % _SEGMENT_BLOCK == 0 or k + 1 == n_segments:
                power += partial
    values = power / (fs * float(np.sum(w * w)) * n_segments)
    # One-sided density: fold the negative frequencies onto every bin except
    # DC and, for even L, Nyquist.
    values[1 : (L + 1) // 2] *= 2.0
    freqs = np.fft.rfftfreq(L, dt)
    return Psd(
        frequencies=freqs,
        values=values,
        resolution_bandwidth=fs / segment_length,
        n_segments=n_segments,
        window=window,
    )


def _default_band(psd: Psd, model: SystemModel, i: int) -> tuple[float, float]:
    """Smallest interval holding every normal-mode peak, padded by 20*gamma
    (numeric value in Hz) on each side and clipped to the grid.

    Coupling hybridizes the modes, so the target oscillator's variance can
    sit on any system peak; without couplings this reduces to the bare
    resonance +/- 20*gamma.
    """
    o = model.oscillators[i]
    half = 20.0 * o.gamma
    lo_c = hi_c = o.omega / (2.0 * math.pi)
    if model.couplings:
        freqs = normal_modes(compile(model)).frequencies / (2.0 * math.pi)
        lo_c = min(lo_c, float(np.min(freqs)))
        hi_c = max(hi_c, float(np.max(freqs)))
    return (
        max(lo_c - half, float(psd.frequencies[0])),
        min(hi_c + half, float(psd.frequencies[-1])),
    )


def temperature_from_area(
    psd: Psd,
    model: SystemModel,
    oscillator: int | str = 0,
    band: tuple[float, float] | None = None,
) -> BandTemperature:
    """Mode temperature T' = m Omega^2 * (band area) / k_B, the band area
    scaled by the position entry of ``model.kelvin_per_moment``.

    The default band is the peak center +/- 20*gamma in Hz, which holds
    more than 98% of a Lorentzian's area.  The captured fraction of the
    full-grid variance is always reported and the estimate flagged when it
    drops below 50%.  The SE treats each bin as having relative scatter
    1/sqrt(n_segments), summed in quadrature through the band.
    """
    i = model.index(oscillator) if isinstance(oscillator, str) else oscillator
    if band is None:
        band = _default_band(psd, model, i)
    else:
        lo, hi = band
        if lo >= hi:
            raise BandOutOfRange(f"empty band {band}")
        if lo < psd.frequencies[0] - 1e-12 or hi > psd.frequencies[-1] + 1e-12:
            raise BandOutOfRange(
                f"band {band} exceeds the PSD grid "
                f"[{psd.frequencies[0]}, {psd.frequencies[-1]}]"
            )
    mask = psd.band_slice(band)
    if not np.any(mask):
        raise BandOutOfRange(f"band {band} contains no frequency bins")

    df = psd.resolution_bandwidth
    area = float(np.sum(psd.values[mask]) * df)
    area_se = df * math.sqrt(float(np.sum(psd.values[mask] ** 2)) / psd.n_segments)
    total = float(np.sum(psd.values) * df)
    fraction = area / total if total > 0 else 0.0

    scale = float(model.kelvin_per_moment[2 * i])
    return BandTemperature(
        value=scale * area,
        se=scale * area_se,
        band=band,
        variance_fraction=fraction,
        low_capture=fraction < _LOW_CAPTURE,
    )


def _moment_seed(f: np.ndarray, s: np.ndarray, df: float) -> list[float]:
    """Deterministic fit seed: the band minimum as background and spectral
    moments of the excess above it.  An all-zero excess gets the middle and a
    quarter of the band."""
    bg0 = float(np.min(s))
    w = np.clip(s - bg0, 0.0, None)
    total = float(np.sum(w))
    if total > 0:
        center = float(np.sum(f * w) / total)
        spread = math.sqrt(float(np.sum((f - center) ** 2 * w) / total))
    else:
        center = float(0.5 * (f[0] + f[-1]))
        spread = 0.25 * (f[-1] - f[0])
    return [center, max(2.0 * spread, 2.0 * df), max(total * df, np.finfo(float).tiny), bg0]


def fit_lorentzian(psd: Psd, band: tuple[float, float] | None = None) -> PeakFit:
    """Weighted least-squares Lorentzian fit over the band, with an analytic
    Jacobian.

    Model: S(f) = background + (area/pi) * (G/2) / ((f-center)^2 + (G/2)^2),
    G the FWHM in Hz, seeded from spectral moments of the band.
    The band needs 8 points.  The solver works in O(1) coordinates
    (frequencies from the lower band edge in band widths, densities in units
    of the band maximum) with per-bin sigma = value/sqrt(n_segments) and the
    center bounded to the band.  It stops at relative parameter step < 1e-8
    or 200 evaluations; running out of budget is reported through
    ``converged``, not an exception.
    """
    import scipy.optimize  # deferred: a slow import, and most runs fit no peak

    if band is None:
        band = (float(psd.frequencies[0]), float(psd.frequencies[-1]))
    mask = psd.band_slice(band)
    f = psd.frequencies[mask]
    s = psd.values[mask]
    if f.size < 8:
        raise DegenerateBand(f"band {band} holds {f.size} points; at least 8 required")
    df = psd.resolution_bandwidth
    guess = _moment_seed(f, s, df)

    f0 = band[0]
    f_scale = max(band[1] - band[0], df)
    s_scale = float(np.max(s)) or 1.0
    sigma = np.maximum(s, 1e-12 * s_scale) / math.sqrt(psd.n_segments)
    # d(physical parameter)/d(solver parameter)
    scale = np.array([f_scale, f_scale, s_scale * f_scale, s_scale])

    def unpack(p):
        return f0 + p[0] * f_scale, p[1] * f_scale, p[2] * s_scale * f_scale, p[3] * s_scale

    def residuals(p):
        center, width, area, bg = unpack(p)
        hw = 0.5 * width
        return (bg + (area / math.pi) * hw / ((f - center) ** 2 + hw**2) - s) / sigma

    def jacobian(p):
        center, width, area, _ = unpack(p)
        hw = 0.5 * width
        d = (f - center) ** 2 + hw**2
        dc = (area / math.pi) * hw * 2.0 * (f - center) / d**2
        dw = (area / (2.0 * math.pi)) * ((f - center) ** 2 - hw**2) / d**2
        da = (hw / math.pi) / d
        J = np.empty((f.size, 4))
        J[:, 0] = dc * f_scale / sigma
        J[:, 1] = dw * f_scale / sigma
        J[:, 2] = da * s_scale * f_scale / sigma
        J[:, 3] = s_scale / sigma
        return J

    p0 = (np.array(guess) - np.array([f0, 0.0, 0.0, 0.0])) / scale
    lower = [0.0, np.finfo(float).tiny, 0.0, 0.0]
    upper = [(band[1] - f0) / f_scale, np.inf, np.inf, np.inf]
    result = scipy.optimize.least_squares(
        residuals,
        np.clip(p0, lower, upper),
        jac=jacobian,
        bounds=(lower, upper),
        method="trf",
        xtol=1e-8,
        ftol=None,
        gtol=None,
        max_nfev=200,
    )
    center, width, area, bg = unpack(result.x)
    return PeakFit(
        center=center,
        fwhm_gamma=math.pi * width,
        area=area,
        background=bg,
        goodness=float(2.0 * result.cost / max(f.size - p0.size, 1)),
        converged=result.status > 0,
    )


def psd_table(psd: Psd) -> Table:
    """`frequency_hz,psd_m2_per_hz` rows with the acquisition settings as provenance."""
    return Table(
        ["frequency_hz", "psd_m2_per_hz"],
        np.column_stack([psd.frequencies, psd.values]),
        f"resolution_bandwidth={psd.resolution_bandwidth!r}, "
        f"n_segments={psd.n_segments}, window={psd.window}",
    )


def psd_to_csv(psd: Psd, path) -> None:
    """Write `psd_table(psd)` as CSV."""
    write_csv(psd_table(psd), path)
