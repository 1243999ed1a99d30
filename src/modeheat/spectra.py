"""Spectral thermometry: PSD estimation, band-area temperatures, peak fits.

These are the measurement procedures the rest of the package cross-checks
against exact stationary statistics: the mode temperature read off the area
under a displacement noise spectrum, the damping rate read off a Lorentzian
linewidth, and the coupling rate read off the normal-mode splitting.

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
import scipy.optimize
import scipy.signal

from .errors import (
    BandOutOfRange,
    DegenerateBand,
    RecordTooShort,
    UnknownPair,
    UnresolvedSplitting,
)
from .langevin import Estimate, Trajectory
from .model import SystemModel, compile, coupling_g
from .steady import NormalModes, normal_modes

__all__ = [
    "Psd",
    "PeakFit",
    "BandTemperature",
    "welch_psd",
    "temperature_from_area",
    "fit_lorentzian",
    "coupling_from_splitting",
    "psd_to_csv",
]

_WINDOWS = {"hann": "hann", "rectangular": "boxcar"}
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

    Default segmentation targets >= 16 averaged segments while keeping the
    resolution bandwidth well under a linewidth; passing the model sharpens
    the latter to segment_length >= 32/(gamma*dt) samples for the target
    oscillator.  Records are zero-mean by construction, so no detrending is
    applied and the full-grid area equals the record's mean square (Parseval).
    """
    if window not in _WINDOWS:
        raise ValueError(f"window must be one of {sorted(_WINDOWS)}, got {window!r}")
    if not 0.0 <= overlap_fraction <= 0.9:
        raise ValueError(f"overlap_fraction must be in [0, 0.9], got {overlap_fraction}")

    u = trajectory.position(oscillator)
    n = u.size
    if n < 2:
        raise RecordTooShort(f"record of {n} samples cannot be segmented")
    # Record spacing, not the integrator step: records may be strided.
    dt = float(trajectory.times[1] - trajectory.times[0])
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

    noverlap = int(overlap_fraction * segment_length)
    freqs, values = scipy.signal.welch(
        u,
        fs=fs,
        window=_WINDOWS[window],
        nperseg=segment_length,
        noverlap=noverlap,
        detrend=False,
        return_onesided=True,
        scaling="density",
    )
    n_segments = (n - segment_length) // (segment_length - noverlap) + 1
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
    """Mode temperature T' = m Omega^2 * (band area) / k_B.

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

    o = model.oscillators[i]
    scale = o.mass * o.omega**2 / model.boltzmann
    return BandTemperature(
        value=scale * area,
        se=scale * area_se,
        band=band,
        variance_fraction=fraction,
        low_capture=fraction < _LOW_CAPTURE,
    )


def _lorentzian(f: np.ndarray, center: float, width: float, area: float, bg: float):
    hw = 0.5 * width
    return bg + (area / math.pi) * hw / ((f - center) ** 2 + hw**2)


def fit_lorentzian(
    psd: Psd,
    initial_guess: tuple[float, float, float, float] | None = None,
    band: tuple[float, float] | None = None,
) -> PeakFit:
    """Weighted least-squares Lorentzian fit over the band.

    Model: S(f) = background + (area/pi) * (G/2) / ((f-center)^2 + (G/2)^2),
    G the FWHM in Hz.  ``initial_guess`` is (center_hz, fwhm_hz, area, background);
    omitted entries are seeded from spectral moments of the band.  The solver
    stops at relative parameter step < 1e-8 or 200 evaluations; running out
    of budget is reported through ``converged``, not an exception.
    """
    if band is None:
        band = (float(psd.frequencies[0]), float(psd.frequencies[-1]))
    mask = psd.band_slice(band)
    f = psd.frequencies[mask]
    s = psd.values[mask]
    if f.size < 8:
        raise DegenerateBand(f"band {band} holds {f.size} points; at least 8 required")

    df = psd.resolution_bandwidth
    if initial_guess is None:
        bg0 = float(np.min(s))
        w = np.clip(s - bg0, 0.0, None)
        total = float(np.sum(w))
        if total > 0:
            c0 = float(np.sum(f * w) / total)
            spread = math.sqrt(float(np.sum((f - c0) ** 2 * w) / total))
        else:
            c0 = float(0.5 * (f[0] + f[-1]))
            spread = 0.25 * (f[-1] - f[0])
        width0 = max(2.0 * spread, 2.0 * df)
        area0 = max(total * df, np.finfo(float).tiny)
        initial_guess = (c0, width0, area0, bg0)
    c0, width0, area0, bg0 = initial_guess
    if not band[0] <= c0 <= band[1]:
        raise ValueError(f"initial center {c0} lies outside the band {band}")

    # Normalize so every parameter is O(1) for the trust-region solver.
    f0 = band[0]
    f_scale = max(band[1] - band[0], df)
    s_scale = float(np.max(s)) or 1.0
    sigma = np.maximum(s, 1e-12 * s_scale) / math.sqrt(psd.n_segments)

    def unpack(p):
        return (
            f0 + p[0] * f_scale,
            p[1] * f_scale,
            p[2] * s_scale * f_scale,
            p[3] * s_scale,
        )

    def residuals(p):
        return (_lorentzian(f, *unpack(p)) - s) / sigma

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

    p0 = np.array(
        [(c0 - f0) / f_scale, width0 / f_scale, area0 / (s_scale * f_scale), bg0 / s_scale]
    )
    tiny = np.finfo(float).tiny
    lower = [0.0, tiny, 0.0, 0.0]
    upper = [(band[1] - f0) / f_scale, np.inf, np.inf, np.inf]
    p0 = np.clip(p0, lower, upper)
    result = scipy.optimize.least_squares(
        residuals,
        p0,
        jac=jacobian,
        bounds=(lower, upper),
        method="trf",
        xtol=1e-8,
        ftol=None,
        gtol=None,
        max_nfev=200,
    )
    center, width, area, bg = unpack(result.x)
    dof = max(f.size - 4, 1)
    goodness = float(2.0 * result.cost / dof)
    return PeakFit(
        center=center,
        fwhm_gamma=math.pi * width,
        area=area,
        background=bg,
        goodness=goodness,
        converged=result.status > 0,
    )


def _two_lorentzian_initial(f, s, df):
    """Deterministic doublet seed: split the band at the background-subtracted
    centroid, then take per-side moments."""
    bg0 = float(np.min(s))
    w = np.clip(s - bg0, 0.0, None)
    total = float(np.sum(w))
    if total <= 0:
        mid = 0.5 * (f[0] + f[-1])
        quarter = 0.25 * (f[-1] - f[0])
        return [mid - quarter, 4 * df, df, mid + quarter, 4 * df, df, 0.0]
    centroid = float(np.sum(f * w) / total)
    params = []
    for side in ((f <= centroid), (f > centroid)):
        if np.sum(w[side]) > 0:
            c = float(np.sum(f[side] * w[side]) / np.sum(w[side]))
            spread = math.sqrt(float(np.sum((f[side] - c) ** 2 * w[side]) / np.sum(w[side])))
            area = float(np.sum(w[side]) * df)
        else:
            c = centroid
            spread = df
            area = df * float(np.max(w))
        params += [c, max(2.0 * spread, 2.0 * df), max(area, np.finfo(float).tiny)]
    return params + [bg0]


def coupling_from_splitting(
    psd_or_modes: Psd | NormalModes,
    model: SystemModel,
    pair: tuple[str, str],
    band: tuple[float, float] | None = None,
) -> Estimate:
    """Coupling rate from the normal-mode frequency splitting, g = pi*(f+ - f-).

    Exact route: pass the NormalModes of the drift matrix; the splitting must
    exceed the modes' linewidths to count as resolved (otherwise the g <~ gamma
    regime is signalled via UnresolvedSplitting, se is 0).  Measurement route:
    pass a Psd; the two peak centers come from a two-Lorentzian fit seeded by
    valley-split spectral moments, the SE from the fit covariance, and the
    peaks must be separated by more than twice the resolution bandwidth and
    more than either fitted width.
    """
    i, j = (model.index(pair[0]), model.index(pair[1]))

    if isinstance(psd_or_modes, NormalModes):
        modes = psd_or_modes
        key = (min(i, j), max(i, j))
        if key not in modes.splittings:
            raise UnresolvedSplitting(
                f"oscillators {pair} are not a near-degenerate pair; "
                "no splitting is defined"
            )
        splitting = modes.splittings[key]
        linewidth = float(np.max(modes.linewidths))
        if splitting <= linewidth:
            raise UnresolvedSplitting(
                f"splitting {splitting:.3g} rad/s does not exceed the linewidth "
                f"{linewidth:.3g} rad/s; coupling is too weak to resolve"
            )
        return Estimate(value=0.5 * splitting, se=0.0)

    psd = psd_or_modes
    if band is None:
        oi, oj = model.oscillators[i], model.oscillators[j]
        center = 0.5 * (oi.omega + oj.omega) / (2.0 * math.pi)
        try:
            g_nom = coupling_g(model, pair).value
        except UnknownPair:  # uncoupled pair: the band follows the linewidths alone
            g_nom = 0.0
        half = 2.0 * g_nom / math.pi + 20.0 * max(oi.gamma, oj.gamma) / math.pi
        band = (
            max(center - half, float(psd.frequencies[0])),
            min(center + half, float(psd.frequencies[-1])),
        )
    mask = psd.band_slice(band)
    f = psd.frequencies[mask]
    s = psd.values[mask]
    if f.size < 16:
        raise DegenerateBand(f"band {band} holds {f.size} points; at least 16 required")

    df = psd.resolution_bandwidth
    # Fit in normalized coordinates; the raw parameters span ~20 decades and
    # wreck the trust-region scaling otherwise.
    f0 = float(f[0])
    f_scale = max(float(f[-1]) - f0, df)
    s_scale = float(np.max(s)) or 1.0
    sigma = np.maximum(s, 1e-12 * s_scale) / math.sqrt(psd.n_segments)

    raw0 = _two_lorentzian_initial(f, s, df)
    p0 = np.array(
        [
            (raw0[0] - f0) / f_scale,
            raw0[1] / f_scale,
            raw0[2] / (s_scale * f_scale),
            (raw0[3] - f0) / f_scale,
            raw0[4] / f_scale,
            raw0[5] / (s_scale * f_scale),
            raw0[6] / s_scale,
        ]
    )

    def doublet(p):
        a = s_scale * f_scale
        return (
            _lorentzian(f, f0 + p[0] * f_scale, p[1] * f_scale, p[2] * a, 0.0)
            + _lorentzian(f, f0 + p[3] * f_scale, p[4] * f_scale, p[5] * a, 0.0)
            + p[6] * s_scale
        )

    def residuals(p):
        return (doublet(p) - s) / sigma

    tiny = np.finfo(float).tiny
    span = (float(f[-1]) - f0) / f_scale
    lower = [0.0, tiny, 0.0, 0.0, tiny, 0.0, 0.0]
    upper = [span, np.inf, np.inf, span, np.inf, np.inf, np.inf]
    result = scipy.optimize.least_squares(
        residuals,
        np.clip(p0, lower, upper),
        bounds=(lower, upper),
        method="trf",
        xtol=1e-10,
        max_nfev=2000,
    )
    c1, w1 = f0 + result.x[0] * f_scale, result.x[1] * f_scale
    c2, w2 = f0 + result.x[3] * f_scale, result.x[4] * f_scale
    f_lo, f_hi = (c1, c2) if c1 <= c2 else (c2, c1)
    separation = f_hi - f_lo

    if separation <= 2.0 * df:
        raise UnresolvedSplitting(
            f"fitted peak separation {separation:.3g} Hz is within twice the "
            f"resolution bandwidth {df:.3g} Hz"
        )
    if separation <= max(w1, w2):
        raise UnresolvedSplitting(
            f"fitted peak separation {separation:.3g} Hz does not exceed the "
            f"fitted linewidths ({w1:.3g}, {w2:.3g} Hz)"
        )

    # SE of (f_hi - f_lo) from the local quadratic model of the fit,
    # rescaled back to Hz.
    J = result.jac
    dof = max(f.size - result.x.size, 1)
    s2 = 2.0 * result.cost / dof
    cov = s2 * np.linalg.pinv(J.T @ J)
    var = cov[0, 0] + cov[3, 3] - 2.0 * cov[0, 3]
    se = math.pi * f_scale * math.sqrt(max(var, 0.0))
    return Estimate(value=math.pi * separation, se=se)


def psd_to_csv(psd: Psd, path) -> None:
    """Write `frequency_hz,psd_m2_per_hz` rows with an acquisition header."""
    with open(path, "w", newline="") as f:
        f.write(
            f"# resolution_bandwidth={psd.resolution_bandwidth!r}, "
            f"n_segments={psd.n_segments}, window={psd.window}\n"
        )
        f.write("frequency_hz,psd_m2_per_hz\n")
        np.savetxt(f, np.column_stack([psd.frequencies, psd.values]), fmt="%.17g", delimiter=",")
