"""Seeded stochastic trajectories of the compiled system plus MC estimators.

The default integrator is exact in distribution for a linear system: it
advances the state by x_{k+1} = E x_k + w_k with E = expm(M*dt) and w_k
drawn with the exact one-step covariance Q = int_0^dt e^{Ms} D e^{M^T s} ds,
both precomputed once.  The step size therefore carries no bias and only
sets the sampling grid; a naive Euler-Maruyama path is kept behind a config
switch for cross-checking.

Both schemes share one numpy kernel.  The recurrence is an associative
prefix scan (Blelloch 1990), so each chunk of up to 65536 steps is advanced
by a Hillis-Steele doubling scan: ceil(log2 m) products of (m, 2N) blocks
with the squared propagators E, E^2, E^4, ... instead of m tiny
matrix-vector steps.  It equals the step-by-step loop up to summation order.

Noise comes from counter-based per-member streams (Philox keyed by
(seed, ensemble_index)), so every trajectory is bit-reproducible on a given
install regardless of how members are scheduled across threads.

Standard errors account for sample autocorrelation via the integrated
autocorrelation time (windowed sum of the ensemble-averaged autocorrelation
function), so the MC-vs-exact comparisons downstream use honest error bars.
"""

from __future__ import annotations

import concurrent.futures
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    FingerprintMismatch,
    LargeStepWarning,
    NonFiniteState,
    ShortBurnInWarning,
    StepTooLarge,
)
from .model import SystemModel, compile

__all__ = [
    "SimConfig",
    "Trajectory",
    "EnsembleStats",
    "Estimate",
    "McTemperatures",
    "simulate",
    "ensemble_stats",
    "mode_temperature_mc",
    "direct_heat_flux_mc",
    "trajectory_to_csv",
    "trajectory_to_binary",
]

MAX_STEP_PRODUCT = 0.05
# Steps per scan and per noise draw.  The chunk length fixes the floating-point
# summation order of the scan, so it is part of the bit-reproducibility
# contract: the same install gives the same bits at any thread count and stride.
_CHUNK = 1 << 16
# No compiled kernel exists; perfbench/worker.py reads this to record which kernel ran.
HAVE_NUMBA = False
# Sokal window constant: stop summing the ACF at the first lag k >= c * tau(k).
_SOKAL_C = 5.0


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    ``burn_in=None`` resolves to 10 damping times of the slowest mode at
    ``simulate`` time.  ``scheme`` is "exact" (default, unbiased at any dt)
    or "euler" (naive Euler-Maruyama, requires a small step for stability).
    ``allow_large_step=True`` downgrades the dt*omega_max <= 0.05 guard from
    an error to a warning; safe with the exact scheme when only stationary
    moments are wanted, wrong for spectra (the resonance aliases).
    """

    dt: float
    n_steps: int
    seed: int
    burn_in: int | None = None
    ensemble_size: int = 1
    record_stride: int = 1
    scheme: str = "exact"
    allow_large_step: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.n_steps <= 0:
            raise ValueError(f"n_steps must be > 0, got {self.n_steps}")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.ensemble_size < 1:
            raise ValueError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.scheme not in ("exact", "euler"):
            raise ValueError(f"scheme must be 'exact' or 'euler', got {self.scheme!r}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one ensemble member.

    ``states`` has shape (n_records, 2N) in the (u_1, v_1, u_2, v_2, ...)
    ordering; ``times`` are absolute simulation times of the records (the
    burn-in interval is already excluded).  ``fingerprint`` ties the data to
    the generating model so estimators refuse mismatched inputs.
    """

    times: np.ndarray
    states: np.ndarray
    labels: tuple[str, ...]
    fingerprint: str
    seed: int
    ensemble_index: int
    dt: float

    def _index(self, oscillator: int | str) -> int:
        if isinstance(oscillator, str):
            try:
                return self.labels.index(oscillator)
            except ValueError:
                raise KeyError(f"no oscillator labelled {oscillator!r}") from None
        return oscillator

    def position(self, oscillator: int | str = 0) -> np.ndarray:
        return self.states[:, 2 * self._index(oscillator)]

    def velocity(self, oscillator: int | str = 0) -> np.ndarray:
        return self.states[:, 2 * self._index(oscillator) + 1]


@dataclass(frozen=True)
class Estimate:
    """A scalar MC estimate with its one-sigma standard error."""

    value: float
    se: float


@dataclass(frozen=True)
class McTemperatures:
    """Per-oscillator mode temperatures estimated from trajectory variances."""

    positional: np.ndarray
    positional_se: np.ndarray
    kinetic: np.ndarray
    kinetic_se: np.ndarray


@dataclass(frozen=True)
class EnsembleStats:
    """Pooled first/second moments over an ensemble, with autocorrelation-aware
    standard errors.

    ``variance`` is the unbiased pooled variance about the pooled mean;
    ``variance_se`` is the standard error of that estimate (from the
    integrated autocorrelation time of the centered-squared series);
    ``second_moments`` is the full centered 2N x 2N moment matrix;
    ``tau_int`` is the integrated autocorrelation time per state dimension,
    in record units (1 = uncorrelated samples).  Standard errors are zero
    only in the degenerate zero-variance case.
    """

    labels: tuple[str, ...]
    n_members: int
    n_records: int
    mean: np.ndarray
    mean_se: np.ndarray
    variance: np.ndarray
    variance_se: np.ndarray
    second_moments: np.ndarray
    tau_int: np.ndarray
    fingerprint: str
    dt: float


# -- integration kernel ---------------------------------------------------------


def _advance_chunk(E, Lq, Z, x):
    """States after each of the len(Z) steps x_{k+1} = E x_k + Lq z_k from x.

    Hillis-Steele doubling scan over w_k = Lq z_k (with E x folded into w_0):
    after the pass with offset d, row k holds sum_{j<2d, j<=k} E^j w_{k-j},
    so ceil(log2 m) passes of (m, 2N) matrix products replace m tiny ones.
    """
    W = Z @ Lq.T
    W[0] += E @ x
    P = E
    d = 1
    while d < W.shape[0]:
        W[d:] += W[:-d] @ P.T
        P = P @ P
        d *= 2
    return W


def _noise_factor_matrix(Q: np.ndarray) -> np.ndarray:
    """Matrix square root factor of a PSD covariance, robust to rank deficiency."""
    try:
        return np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(Q)
        return V * np.sqrt(np.clip(w, 0.0, None))


def _one_step_operators(model: SystemModel, config: SimConfig):
    """Propagator E and noise factor Lq for the chosen scheme.

    Exact scheme: E = expm(M dt) and Q = int_0^dt e^{Ms} D e^{M^T s} ds via
    the block-matrix exponential of [[-M, D], [0, M^T]] * dt, whose
    upper-right block yields Q = E @ F12.  Valid for any dt and for gamma=0.
    """
    mats = compile(model)
    M, D = mats.drift, mats.diffusion
    n = M.shape[0]
    if config.scheme == "exact":
        H = np.zeros((2 * n, 2 * n))
        H[:n, :n] = -M
        H[:n, n:] = D
        H[n:, n:] = M.T
        F = scipy.linalg.expm(H * config.dt)
        E = F[n:, n:].T
        Q = E @ F[:n, n:]
        Lq = _noise_factor_matrix(0.5 * (Q + Q.T))
    else:
        E = np.eye(n) + config.dt * M
        Lq = math.sqrt(config.dt) * mats.noise_gain
    return E, Lq


def _resolve_burn_in(model: SystemModel, config: SimConfig) -> int:
    gammas = [o.gamma for o in model.oscillators if o.gamma > 0]
    if config.burn_in is not None:
        burn_in = config.burn_in
    elif gammas:
        burn_in = math.ceil(10.0 / (min(gammas) * config.dt))
    else:
        burn_in = 0
    if gammas and burn_in * config.dt < 5.0 / min(gammas):
        warnings.warn(
            f"burn-in of {burn_in * config.dt:.3g} s is shorter than five damping "
            f"times ({5.0 / min(gammas):.3g} s); stationary averages may be biased",
            ShortBurnInWarning,
            stacklevel=3,
        )
    return burn_in


def _integrate_member(E, Lq, config: SimConfig, burn_in: int, index: int) -> np.ndarray:
    rng = np.random.Generator(
        np.random.Philox(key=np.array([config.seed, index], dtype=np.uint64))
    )
    n = E.shape[0]
    nchan = Lq.shape[1]
    stride = config.record_stride
    rec = np.empty((config.n_steps // stride, n))
    x = np.zeros(n)
    total = burn_in + config.n_steps
    k0 = 0
    while k0 < total:
        m = min(_CHUNK, total - k0)
        Z = rng.standard_normal(size=(m, nchan))
        states = _advance_chunk(E, Lq, Z, x)
        # record j is step burn_in + stride*(j+1); this chunk holds steps k0+1..k0+m
        j0 = max(0, (k0 - burn_in) // stride)
        j1 = max(0, (k0 + m - burn_in) // stride)
        rec[j0:j1] = states[burn_in + stride * (j0 + 1) - k0 - 1 :: stride]
        x = states[-1]
        k0 += m
        if not np.all(np.isfinite(x)):
            raise NonFiniteState(
                f"state diverged near step {k0} of member {index}; reduce dt "
                "(Euler-Maruyama needs dt*omega^2 < 4*gamma) or check feedback gains"
            )
    return rec


def simulate(model: SystemModel, config: SimConfig, threads: int = 1) -> list[Trajectory]:
    """Integrate the Langevin system; one Trajectory per ensemble member.

    Deterministic: member k depends only on (model, config, seed, k), never
    on thread count or scheduling, so reruns are bit-identical.  Raises
    StepTooLarge when dt*omega_max > 0.05 unless config.allow_large_step.
    """
    omega_max = max(o.omega for o in model.oscillators)
    if config.dt * omega_max > MAX_STEP_PRODUCT:
        if not config.allow_large_step:
            raise StepTooLarge(
                f"dt*omega_max = {config.dt * omega_max:.3g} exceeds {MAX_STEP_PRODUCT}; "
                "set allow_large_step=True if only stationary moments are needed"
            )
        warnings.warn(
            f"dt*omega_max = {config.dt * omega_max:.3g} > {MAX_STEP_PRODUCT}: exact in "
            "distribution, but spectra from these samples alias the resonance",
            LargeStepWarning,
            stacklevel=2,
        )

    E, Lq = _one_step_operators(model, config)
    burn_in = _resolve_burn_in(model, config)
    fingerprint = model.fingerprint()
    n_rec = config.n_steps // config.record_stride
    times = config.dt * (burn_in + config.record_stride * (1.0 + np.arange(n_rec)))

    def build(index: int) -> Trajectory:
        rec = _integrate_member(E, Lq, config, burn_in, index)
        return Trajectory(
            times=times,
            states=rec,
            labels=model.labels,
            fingerprint=fingerprint,
            seed=config.seed,
            ensemble_index=index,
            dt=config.dt,
        )

    indices = range(config.ensemble_size)
    if threads > 1 and config.ensemble_size > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(build, indices))
    return [build(i) for i in indices]


# -- autocorrelation-aware reductions -------------------------------------------


def _unbiased_acov(x: np.ndarray) -> np.ndarray:
    """Autocovariance of a centered series, unbiased normalization, via FFT."""
    n = x.size
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * f.conj(), nfft)[:n]
    return acov / np.arange(n, 0, -1)


def _tau_from_acov(acov: np.ndarray) -> float:
    """Integrated autocorrelation time with a self-consistent (Sokal) window,
    floored at 1 so error bars never claim better than independent samples."""
    if acov[0] <= 0:
        return 1.0
    rho = acov / acov[0]
    tau = 1.0
    for k in range(1, rho.size):
        tau += 2.0 * rho[k]
        if k >= _SOKAL_C * tau:
            break
    return max(tau, 1.0)


def _pooled_mean_se(series: list[np.ndarray]) -> tuple[float, float, float]:
    """Pooled mean of equal-length member series, SE inflated by the
    ensemble-averaged integrated autocorrelation time.  Returns (mean, se, tau)."""
    n = series[0].size
    n_total = n * len(series)
    mean = sum(float(np.sum(s)) for s in series) / n_total
    acov = np.zeros(n)
    for s in series:
        acov += _unbiased_acov(s - mean)
    acov /= len(series)
    tau = _tau_from_acov(acov)
    var = sum(float(np.sum((s - mean) ** 2)) for s in series) / max(n_total - 1, 1)
    se = math.sqrt(max(var, 0.0) * tau / n_total)
    return mean, se, tau


def _check_fingerprints(trajectories: list[Trajectory], expect: str | None = None) -> str:
    if not trajectories:
        raise ValueError("at least one trajectory is required")
    fp = trajectories[0].fingerprint
    for t in trajectories:
        if t.fingerprint != fp:
            raise FingerprintMismatch(
                f"trajectories come from different models ({t.fingerprint} != {fp})"
            )
    if expect is not None and fp != expect:
        raise FingerprintMismatch(
            f"trajectory fingerprint {fp} does not match the model ({expect})"
        )
    return fp


def ensemble_stats(trajectories: list[Trajectory]) -> EnsembleStats:
    """Pooled moments over an ensemble, reduced in ensemble-index order.

    Variances are unbiased and taken about the pooled mean; standard errors
    use the integrated autocorrelation time per state dimension (and of the
    centered-squared series for the variance SE), so correlated records do
    not masquerade as extra information.
    """
    fp = _check_fingerprints(trajectories)
    trajs = sorted(trajectories, key=lambda t: t.ensemble_index)
    n_rec = trajs[0].states.shape[0]
    dim = trajs[0].states.shape[1]
    for t in trajs:
        if t.states.shape != (n_rec, dim):
            raise ValueError("all trajectories must have identical record shapes")

    mean = np.empty(dim)
    mean_se = np.empty(dim)
    variance = np.empty(dim)
    variance_se = np.empty(dim)
    tau_int = np.empty(dim)
    n_total = n_rec * len(trajs)

    for d in range(dim):
        series = [t.states[:, d] for t in trajs]
        mean[d], mean_se[d], tau_int[d] = _pooled_mean_se(series)
        centered_sq = [(s - mean[d]) ** 2 for s in series]
        m2, se2, _ = _pooled_mean_se(centered_sq)
        variance[d] = m2 * n_total / max(n_total - 1, 1)
        variance_se[d] = se2 * n_total / max(n_total - 1, 1)

    second = np.zeros((dim, dim))
    for t in trajs:
        centered = t.states - mean
        second += centered.T @ centered
    second /= n_total

    return EnsembleStats(
        labels=trajs[0].labels,
        n_members=len(trajs),
        n_records=n_rec,
        mean=mean,
        mean_se=mean_se,
        variance=variance,
        variance_se=variance_se,
        second_moments=second,
        tau_int=tau_int,
        fingerprint=fp,
        dt=trajs[0].dt,
    )


def mode_temperature_mc(stats: EnsembleStats, model: SystemModel) -> McTemperatures:
    """Mode temperatures from MC variances: T'_pos = m Omega^2 var(u)/k_B and
    T'_kin = m var(v)/k_B, with standard errors propagated linearly."""
    _require_model_match(stats.fingerprint, model)
    kB = model.boltzmann
    n = len(model.oscillators)
    t_pos = np.empty(n)
    t_pos_se = np.empty(n)
    t_kin = np.empty(n)
    t_kin_se = np.empty(n)
    for i, o in enumerate(model.oscillators):
        cu = o.mass * o.omega**2 / kB
        cv = o.mass / kB
        t_pos[i] = cu * stats.variance[2 * i]
        t_pos_se[i] = cu * stats.variance_se[2 * i]
        t_kin[i] = cv * stats.variance[2 * i + 1]
        t_kin_se[i] = cv * stats.variance_se[2 * i + 1]
    return McTemperatures(
        positional=t_pos, positional_se=t_pos_se, kinetic=t_kin, kinetic_se=t_kin_se
    )


def _require_model_match(fingerprint: str, model: SystemModel) -> None:
    expect = model.fingerprint()
    if fingerprint != expect:
        raise FingerprintMismatch(
            f"data fingerprint {fingerprint} does not match the model ({expect})"
        )


def direct_heat_flux_mc(
    trajectories: Trajectory | list[Trajectory],
    model: SystemModel,
    oscillator: int | str,
) -> Estimate:
    """Work-based bath flux estimate, independent of the flux-gap formula.

    P_hat = S_0/(2m) - 2 gamma m <v^2>_time: the injected-power term is the
    exact Ito mean (no sampling noise), so all randomness sits in the
    dissipation average, whose SE comes from the integrated autocorrelation
    time of the v^2 series.
    """
    if isinstance(trajectories, Trajectory):
        trajectories = [trajectories]
    _check_fingerprints(trajectories, expect=model.fingerprint())
    trajs = sorted(trajectories, key=lambda t: t.ensemble_index)
    i = model.index(oscillator) if isinstance(oscillator, str) else oscillator
    o = model.oscillators[i]

    vsq = [t.states[:, 2 * i + 1] ** 2 for t in trajs]
    mean_vsq, se_vsq, _ = _pooled_mean_se(vsq)
    injected = model.thermal_noise_intensity(i) / (2 * o.mass)
    return Estimate(
        value=injected - 2.0 * o.gamma * o.mass * mean_vsq,
        se=2.0 * o.gamma * o.mass * se_vsq,
    )


# -- export ---------------------------------------------------------------------


def trajectory_to_csv(trajectory: Trajectory, path) -> None:
    """Write `time,u_1,v_1,...` rows at full float64 precision ('%.17g'),
    '.' decimal separator, preceded by a fingerprint/seed/dt comment header."""
    n_osc = len(trajectory.labels)
    cols = ["time"]
    for i in range(n_osc):
        cols += [f"u_{i + 1}", f"v_{i + 1}"]
    data = np.column_stack([trajectory.times, trajectory.states])
    with open(path, "w", newline="") as f:
        f.write(
            f"# model_fingerprint={trajectory.fingerprint}, "
            f"seed={trajectory.seed}, dt={trajectory.dt!r}\n"
        )
        f.write(",".join(cols) + "\n")
        np.savetxt(f, data, fmt="%.17g", delimiter=",")


def trajectory_to_binary(trajectory: Trajectory, path) -> None:
    """Raw little-endian float64 rows [time, u_1, v_1, ...], row-major, no header."""
    data = np.column_stack([trajectory.times, trajectory.states])
    data.astype("<f8").tofile(path)
