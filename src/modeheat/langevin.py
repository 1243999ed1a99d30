"""Seeded stochastic trajectories of the compiled system plus MC estimators.

The integrator is exact in distribution for a linear system: it advances
the state by x_{k+1} = E x_k + w_k with E = expm(M*dt) and w_k drawn with
the exact one-step covariance Q = int_0^dt e^{Ms} D e^{M^T s} ds, both
precomputed once (Gillespie 1996).  The step size therefore carries no bias
and only sets the sampling grid.

One numpy kernel advances it.  The recurrence is an associative
prefix scan (Blelloch 1990), advanced per chunk of up to 65536 steps by a
two-level block scan, the chunked form also used for state-space models
(Dao & Gu 2024): the steps are cut into blocks of 8, one block-Toeplitz
product of E^0..E^7 scans inside every block, the block ends are scanned
the same way with E^8 (recursively), and one product adds each block's
incoming state back.  It equals the step-by-step loop up to summation order.

Members are integrated in batches: the scan carries a leading member axis,
and each product is a stacked matmul, one GEMM per member of the same shape
as for a lone member.  The chunk length fixes each member's summation order;
the batch size does not enter it, so every member's bits are those of a
member integrated alone.  ``simulate`` writes all members into one (members,
coordinates, records) array, the ``Ensemble``'s record: each member's
coordinate series is a contiguous row, and the reductions read blocks of
members from it in place.  ``simulate_stats`` never makes that record: it
integrates one block of 16 members at a time into one reused buffer and
reduces each block as soon as it is integrated.  A batch's chunk temporaries
(noise, scan products), its members' noise generators and the reduction's
squared block and spectra live in scratch that a call allocates once per
thread and reuses.

The record keeps only what a caller reads.  The integrator always advances
the full state, but only the state coordinates named at ``simulate`` time
are stored (all 2N by default), and no time stamps: the records lie on a
uniform grid (``RecordGrid``), from which their times are derived on request.

Noise comes from counter-based per-member streams (Philox keyed by
(seed, ensemble_index)), so every trajectory is bit-reproducible on a given
install regardless of how members are batched or scheduled across threads.

Every trajectory starts at x = 0 and is driven by zero-mean noise with no
constant force, so the process has mean exactly zero and every MC second
moment is a pooled mean square about that known mean: ``ensemble_stats``
makes one reduction per coordinate and ``mode_temperature_mc`` reads its
<u^2> and <v^2>.  The MC bath flux is the flux-gap formula on that kinetic
temperature (``fluxlab.flux_from_gap``), the one reading of <v^2>.
Standard errors account for sample autocorrelation via the integrated
autocorrelation time (windowed sum of the ensemble-averaged autocorrelation
function), so the MC-vs-exact comparisons downstream use honest error bars.
The ensemble sum of the member autocovariances is one inverse FFT of the
summed member power spectra (Wiener-Khinchin), so a series set costs one
forward FFT per member and one inverse FFT in all.  A member's series is
complete once its block is integrated; only the centring on the pooled mean
mu needs every member.  So each block is centred on a provisional constant
c, the first block's mean, and the sums are moved to mu at the end by an
exact identity: with delta = mu - c and W the spectrum of a series of ones,
sum |F(y - mu)|^2 = sum |F(y - c)|^2 - 2 delta Re(conj(W) sum F(y - c))
+ M delta^2 |W|^2 over M members (``_PooledMoments``).  The variance, a sum
of x^2 per block in member order, keeps its bits either way.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import math
import operator
import threading
import warnings
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

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
    "RecordGrid",
    "Ensemble",
    "Trajectory",
    "EnsembleStats",
    "Estimate",
    "McTemperatures",
    "simulate",
    "simulate_stats",
    "ensemble_stats",
    "mode_temperature_mc",
]

MAX_STEP_PRODUCT = 0.05
# Steps per scan and per noise draw.  The chunk length fixes the floating-point
# summation order of each member's scan, so it is part of the bit-reproducibility
# contract: the same install gives the same bits at any thread count, stride
# and batch size.
_CHUNK = 1 << 16
# Member-steps per batch: max(1, _BATCH_STEPS // chunk length) members are
# integrated together.  It only bounds the batch's noise and scan temporaries;
# no bit depends on it.
_BATCH_STEPS = 1 << 14
# Block length of the two-level scan; like the chunk length it fixes the
# summation order, so it is a constant too.
_BLOCK = 8
# Members per stacked FFT in the reductions; one block is mapped at a time.
_MEMBER_BLOCK = 16
# No compiled kernel exists; perfbench/worker.py reads this to record which kernel ran.
HAVE_NUMBA = False
# Sokal window constant: stop summing the ACF at the first lag k >= c * tau(k).
_SOKAL_C = 5.0


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    ``burn_in=None`` resolves to 10 damping times of the slowest mode at
    ``simulate`` time.  ``allow_large_step=True`` downgrades the
    dt*omega_max <= 0.05 guard from an error to a warning; safe when only
    stationary moments are wanted, wrong for spectra (the resonance aliases).
    """

    dt: float
    n_steps: int
    seed: int
    burn_in: int | None = None
    ensemble_size: int = 1
    record_stride: int = 1
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
        if self.record_stride > self.n_steps:
            raise ValueError(
                f"record_stride {self.record_stride} exceeds n_steps {self.n_steps}; "
                "nothing would be recorded"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")


@dataclass(frozen=True)
class RecordGrid:
    """The uniform time grid of a record: record k was taken after step
    ``start + stride * k`` of the integrator step ``dt`` (the burn-in steps
    included, so ``start`` = burn-in + stride)."""

    dt: float
    start: int
    stride: int

    @property
    def spacing(self) -> float:
        """Time between records, in s: the difference of the first two
        ``times``, to the bit."""
        return self.dt * (self.start + self.stride) - self.dt * self.start

    def times(self, n: int) -> np.ndarray:
        """Absolute simulation times of the first n records, in s."""
        # integers below 2**53 until the one multiply, so two passes over the
        # array give the bits of dt * (start + stride * k)
        t = np.arange(self.start, self.start + self.stride * n, self.stride, dtype=float)
        t *= self.dt
        return t


def _coordinate_name(d: int, labels: tuple[str, ...]) -> str:
    """u_<label> or v_<label> for state coordinate d; d itself when out of range."""
    return f"{'uv'[d % 2]}_{labels[d // 2]}" if 0 <= d < 2 * len(labels) else str(d)


def _row(coordinates: tuple[int, ...], d: int, labels: tuple[str, ...]) -> int:
    """Where state coordinate d sits among the recorded ``coordinates``."""
    try:
        return coordinates.index(d)
    except ValueError:
        raise KeyError(
            f"coordinate {_coordinate_name(d, labels)} was not recorded; the record holds "
            f"{', '.join(_coordinate_name(c, labels) for c in coordinates)}"
        ) from None


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one ensemble member.

    ``states`` has shape (n_records, len(coordinates)): column c holds state
    coordinate ``coordinates[c]`` of the (u_1, v_1, u_2, v_2, ...) ordering,
    so 2i is oscillator i's position and 2i + 1 its velocity.  From an
    ``Ensemble`` it is a Fortran-ordered view into the ensemble's record, so
    each coordinate series ``states[:, c]`` is contiguous.  ``grid`` places
    the records in time (the burn-in interval is already excluded);
    ``times`` derives their absolute simulation times.
    """

    states: np.ndarray
    labels: tuple[str, ...]
    coordinates: tuple[int, ...]
    grid: RecordGrid

    @property
    def times(self) -> np.ndarray:
        return self.grid.times(self.states.shape[0])

    def position(self, oscillator: int | str = 0) -> np.ndarray:
        """The position series of an oscillator, by label or index; KeyError
        when it was not recorded."""
        if isinstance(oscillator, str):
            try:
                oscillator = self.labels.index(oscillator)
            except ValueError:
                raise KeyError(f"no oscillator labelled {oscillator!r}") from None
        return self.states[:, _row(self.coordinates, 2 * oscillator, self.labels)]


@dataclass(frozen=True)
class Ensemble:
    """The members of one ``simulate`` call, in one record.

    ``record`` has shape (members, len(coordinates), n_records): member k's
    state coordinate ``coordinates[c]`` is the contiguous series
    ``record[k, c]``, sampled on ``grid``.  ``series(d)`` looks a coordinate
    up by its index d in the (u_1, v_1, u_2, ...) state.  The ensemble is a
    read-only sequence of members: ``ens[k]`` is member k's ``Trajectory``,
    whose ``states`` is the view ``record[k].T``, and iteration runs in
    member order.  ``fingerprint`` ties the record to the generating model,
    so estimators refuse a mismatched model.
    """

    record: np.ndarray
    labels: tuple[str, ...]
    coordinates: tuple[int, ...]
    grid: RecordGrid
    fingerprint: str

    def __len__(self) -> int:
        return self.record.shape[0]

    def __getitem__(self, k: int) -> Trajectory:
        return Trajectory(
            self.record[operator.index(k)].T, self.labels, self.coordinates, self.grid
        )

    def __iter__(self) -> Iterator[Trajectory]:
        return (self[k] for k in range(len(self)))

    def series(self, d: int) -> np.ndarray:
        """The (members, n_records) series of state coordinate d, a view of
        the record; KeyError when d was not recorded."""
        return self.record[:, _row(self.coordinates, d, self.labels)]


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
    """Pooled per-coordinate variance over an ensemble, with an
    autocorrelation-aware standard error.

    ``variance`` is the variance about the known zero mean of the process,
    the pooled mean square <x^2>; ``variance_se`` is the standard error of
    that estimate; ``tau_int`` is the integrated autocorrelation time, in
    record units (1 = uncorrelated samples), of the squared series x^2 that
    yields ``variance_se``.  Standard errors are zero only in the degenerate
    zero-variance case.  ``fingerprint`` is the ensemble's, so
    ``mode_temperature_mc`` refuses a mismatched model.
    """

    n_members: int
    n_records: int
    variance: np.ndarray
    variance_se: np.ndarray
    tau_int: np.ndarray
    fingerprint: str


# -- integration kernel ---------------------------------------------------------


class _Scratch:
    """Named flat buffers and noise generators that a call's batches reuse.
    ``take(name, shape)`` is a C-contiguous view of the leading elements of
    buffer ``name``, which grows when a larger shape asks for it; a call's
    first chunk and batch are its largest, so each buffer is allocated once.
    One thread owns a scratch: batches that run at the same time never share
    one."""

    def __init__(self):
        self._buffers: dict = {}
        self._generators: list[np.random.Generator] = []

    def take(self, name, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)

    def generators(self, seed: int, first: int, count: int) -> list[np.random.Generator]:
        """The noise streams of members first, ..., first + count - 1: kept
        generators, each reset to the state a fresh ``Philox(key=[seed,
        member])`` starts in (counter 0, empty buffer).  Building a Philox
        from a key draws a seed from OS entropy first and discards it; the
        reset skips that."""
        while len(self._generators) < count:
            self._generators.append(np.random.Generator(np.random.Philox(0)))
        for g, rng in enumerate(self._generators[:count]):
            rng.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {
                    "counter": np.zeros(4, np.uint64),
                    "key": np.array([seed, first + g], dtype=np.uint64),
                },
                "buffer": np.zeros(4, np.uint64),
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
        return self._generators[:count]


def _scan_operators(E: np.ndarray, m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Block-scan operators (T, F) per level for chunks of up to m steps.

    Level j steps with P = E^(_BLOCK^j).  In the row layout of the states,
    T is the (L n, L n) block-Toeplitz map with block (k, l) = (P^(l-k))^T
    for k <= l, and F the (n, L n) carry map with block l = (P^(l+1))^T.
    """
    n = E.shape[0]
    L = _BLOCK
    ops = []
    P = E
    span = 1
    while span < m:
        powers = [np.eye(n)]
        for _ in range(L):
            powers.append(P @ powers[-1])
        T = np.zeros((L * n, L * n))
        for k in range(L):
            for l in range(k, L):
                T[k * n : (k + 1) * n, l * n : (l + 1) * n] = powers[l - k].T
        F = np.hstack([p.T for p in powers[1:]])
        ops.append((T, F))
        P = powers[L]
        span *= L
    return ops


def _block_scan(W: np.ndarray, ops, scratch: _Scratch, level: int = 0) -> np.ndarray:
    """Inclusive scan s_k = sum_{j<=k} P^(k-j) w_j along axis 1 of W, one
    (m, n) series per member on axis 0, with P the propagator of ``ops[level]``.
    The level's products are written into ``scratch``, so the result is a view
    of it, valid until the next scan."""
    G, m, n = W.shape
    if m == 1:
        return W
    T, F = ops[level]
    L = T.shape[0] // n
    B = -(-m // L)
    if B * L != m:
        padded = scratch.take(("padded", level), (G, B * L, n))
        padded[:, :m] = W
        padded[:, m:] = 0.0
        W = padded
    S = np.matmul(W.reshape(G, B, L * n), T, out=scratch.take(("scan", level), (G, B, L * n)))
    carries = _block_scan(S[:, :, -n:], ops, scratch, level + 1)
    S[:, 1:] += np.matmul(
        carries[:, :-1], F, out=scratch.take(("carry", level), (G, B - 1, L * n))
    )
    return S.reshape(G, B * L, n)[:, :m]


def _advance_chunk(E, ops, Lq, Z, x, scratch: _Scratch):
    """States after each of the m steps x_{k+1} = E x_k + Lq z_k, per member.

    Z is (G, m, channels) and x the (G, n) start states.  Two-level block
    scan over w_k = Lq z_k (with E x folded into w_0): one (m/L, L n) @
    (L n, L n) block-Toeplitz product per member scans within blocks of L
    steps, the L-times-coarser series of block ends is scanned the same way
    with E^L, and one (m/L, n) @ (n, L n) product adds each block's incoming
    state back.  ``ops`` comes from ``_scan_operators(E, ...)``.  The stacked
    products are one BLAS call per member, of the shape a lone member gets
    (E x stays a matrix-vector product), so the batch size moves no bit.
    The states returned are a view of ``scratch``.
    """
    G, m, _ = Z.shape
    W = np.matmul(Z, Lq.T, out=scratch.take("w", (G, m, E.shape[0])))
    W[:, 0] += (E @ x[:, :, None])[:, :, 0]
    return _block_scan(W, ops, scratch)


def _noise_factor_matrix(Q: np.ndarray) -> np.ndarray:
    """Matrix square root factor of a PSD covariance, robust to rank deficiency.

    When Cholesky fails, the correlation matrix Q_ij / sqrt(Q_ii Q_jj) of the
    coordinates with Q_ii > 0 is factored by eigendecomposition and scaled
    back, so coordinates that no noise reaches keep exactly zero rows (an
    unscaled eigh mixes the round-off of the largest entries into them).
    """
    try:
        return np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        d = np.sqrt(np.clip(np.diag(Q), 0.0, None))
        live = np.flatnonzero(d > 0)
        w, V = np.linalg.eigh(Q[np.ix_(live, live)] / np.outer(d[live], d[live]))
        Lq = np.zeros_like(Q)
        Lq[np.ix_(live, live)] = d[live, None] * V * np.sqrt(np.clip(w, 0.0, None))
        return Lq


def _one_step_operators(model: SystemModel, config: SimConfig):
    """Propagator E and noise factor Lq of one step.

    E = expm(M h) and Q = int_0^h e^{Ms} D e^{M^T s} ds on the sub-step
    h = dt / 2^k via the block-matrix exponential of [[-M, D/s], [0, M^T]] * h,
    whose upper-right block yields Q = s E @ F12.  Q is linear in D; dividing
    D by the power of two s >= 1 that brings ||D/s||_1 to at most
    2^-10 ||M||_1 is exact, and keeps a D much larger than M (as with k_B = 1)
    from setting expm's scaling and spoiling both blocks.  F12 cancels
    e^{+lambda h} against e^{-lambda h}, so h is cut until the fastest decay
    spans at most one e-fold, k = max(0, ceil(log2(max|Re lambda| dt))), and
    the pair is squared back up to dt k times with Q <- E Q E^T + Q and
    E <- E E, sums of positive semi-definite terms in which nothing cancels.
    Valid for any dt and for gamma=0.
    """
    import scipy.linalg  # deferred: a slow import, paid only by callers that integrate

    mats = compile(model)
    M, D = mats.drift, mats.diffusion
    n = M.shape[0]
    # the Schur factor of the scaled drift is similar to M, and its diagonal holds Re(lambda)
    decay = float(np.max(np.abs(np.diag(mats.schur[1])))) * config.dt
    k = max(0, math.ceil(math.log2(decay))) if decay > 0 else 0
    _, e = math.frexp(1024.0 * np.linalg.norm(D, 1) / np.linalg.norm(M, 1))
    s = math.ldexp(1.0, max(e, 0))
    H = np.zeros((2 * n, 2 * n))
    H[:n, :n] = -M
    H[:n, n:] = D / s
    H[n:, n:] = M.T
    F = scipy.linalg.expm(H * math.ldexp(config.dt, -k))
    E = F[n:, n:].T
    Q = s * (E @ F[:n, n:])
    for _ in range(k):
        Q = E @ Q @ E.T + Q
        E = E @ E
    return E, _noise_factor_matrix(0.5 * (Q + Q.T))


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
            stacklevel=4,
        )
    return burn_in


class _Integrator:
    """The member-batch integrator of one ``simulate`` or ``simulate_stats``
    call: its checked inputs (``coordinates`` and the step guard as in
    ``simulate``), the one-step and scan operators, and one ``_Scratch`` per
    thread, which every batch that thread integrates reuses."""

    def __init__(self, model: SystemModel, config: SimConfig, coordinates: Sequence[int] | None):
        dim = 2 * len(model.oscillators)
        if coordinates is None:
            self.recorded = tuple(range(dim))
            self.cols = slice(None)
        else:
            self.recorded = tuple(operator.index(d) for d in coordinates)
            if not self.recorded or len(set(self.recorded)) != len(self.recorded):
                raise ValueError(
                    f"coordinates must be distinct and not empty, got {self.recorded}"
                )
            if not all(0 <= d < dim for d in self.recorded):
                raise ValueError(f"coordinates must lie in [0, {dim}), got {self.recorded}")
            self.cols = list(self.recorded)
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
                stacklevel=3,
            )
        self.config = config
        self.E, self.Lq = _one_step_operators(model, config)
        self.burn_in = _resolve_burn_in(model, config)
        chunk = min(_CHUNK, self.burn_in + config.n_steps)
        self.ops = _scan_operators(self.E, chunk)
        self.batch = max(1, _BATCH_STEPS // chunk)
        self.n_records = config.n_steps // config.record_stride
        self.grid = RecordGrid(
            float(config.dt), self.burn_in + config.record_stride, config.record_stride
        )
        self._local = threading.local()

    def scratch(self) -> _Scratch:
        """The calling thread's scratch, made on its first call."""
        try:
            return self._local.scratch
        except AttributeError:
            self._local.scratch = _Scratch()
            return self._local.scratch

    def integrate(self, first: int, out: np.ndarray, pool=None) -> None:
        """Integrate members first, first + 1, ... into ``out``, their
        (members, len(recorded), n_records) slice of a record, one batch at a
        time, or spread over the threads of ``pool`` when one is given."""

        def batch(b: int) -> None:
            self._integrate_batch(first + b, out[b : b + self.batch])

        starts = range(0, len(out), self.batch)
        if pool is not None and len(starts) > 1:
            list(pool.map(batch, starts))
        else:
            for b in starts:
                batch(b)

    def _integrate_batch(self, first: int, rec: np.ndarray) -> None:
        config, E, Lq, burn_in = self.config, self.E, self.Lq, self.burn_in
        scratch = self.scratch()
        G = rec.shape[0]
        rngs = scratch.generators(config.seed, first, G)
        nchan = Lq.shape[1]
        stride = config.record_stride
        x = np.zeros((G, E.shape[0]))
        total = burn_in + config.n_steps
        k0 = 0
        while k0 < total:
            m = min(_CHUNK, total - k0)
            Z = scratch.take("noise", (G, m, nchan))
            for rng, z in zip(rngs, Z):
                rng.standard_normal(out=z)
            states = _advance_chunk(E, self.ops, Lq, Z, x, scratch)
            # record j is step burn_in + stride*(j+1); this chunk holds steps k0+1..k0+m
            j0 = max(0, (k0 - burn_in) // stride)
            j1 = max(0, (k0 + m - burn_in) // stride)
            picked = states[:, burn_in + stride * (j0 + 1) - k0 - 1 :: stride, self.cols]
            rec[:, :, j0:j1] = picked.transpose(0, 2, 1)
            x = states[:, -1].copy()
            k0 += m
            finite = np.all(np.isfinite(x), axis=1)
            if not np.all(finite):
                raise NonFiniteState(
                    f"state diverged near step {k0} of member {first + int(np.argmin(finite))}; "
                    "the one-step propagator amplifies the state instead of damping it "
                    "(check the feedback gains)"
                )


def _pool(threads: int):
    """A pool of ``threads`` threads for the member batches, or no pool."""
    if threads > 1:
        return concurrent.futures.ThreadPoolExecutor(max_workers=threads)
    return contextlib.nullcontext()


def simulate(
    model: SystemModel,
    config: SimConfig,
    threads: int = 1,
    *,
    coordinates: Sequence[int] | None = None,
) -> Ensemble:
    """Integrate the Langevin system; the ensemble of config.ensemble_size members.

    ``coordinates`` names the state coordinates to record, as indices into
    the (u_1, v_1, u_2, v_2, ...) state (2i is oscillator i's position), in
    the order the record keeps them; None records all 2N.  The full state is
    integrated either way, so a recorded series has the same bits whatever
    else is recorded.

    Deterministic: member k depends only on (model, config, seed, k), never
    on thread count, batching or scheduling, so reruns are bit-identical.
    Raises StepTooLarge when dt*omega_max > 0.05 unless config.allow_large_step.
    """
    integrator = _Integrator(model, config, coordinates)
    record = np.empty((config.ensemble_size, len(integrator.recorded), integrator.n_records))
    with _pool(threads) as pool:
        integrator.integrate(0, record, pool)
    return Ensemble(
        record=record,
        labels=model.labels,
        coordinates=integrator.recorded,
        grid=integrator.grid,
        fingerprint=model.fingerprint(),
    )


def simulate_stats(model: SystemModel, config: SimConfig, threads: int = 1) -> EnsembleStats:
    """``ensemble_stats(simulate(model, config, threads))`` without the record.

    The members are integrated one block of _MEMBER_BLOCK at a time into one
    reused (block, 2N, n_records) buffer, and each block is fed to the
    reduction as soon as it is integrated, so memory does not grow with the
    ensemble.  ``variance`` has the bits of the stored route; ``variance_se``
    and ``tau_int`` agree with it to rounding (``_PooledMoments``).  The
    members' bits, the step guard and the warnings are those of ``simulate``,
    at any thread count.
    """
    integrator = _Integrator(model, config, None)
    n_members, dim, n_rec = config.ensemble_size, len(integrator.recorded), integrator.n_records
    block = np.empty((min(_MEMBER_BLOCK, n_members), dim, n_rec))
    moments = [_PooledMoments(n_rec) for _ in range(dim)]
    scratch = integrator.scratch()
    with _pool(threads) as pool:
        for b in range(0, n_members, _MEMBER_BLOCK):
            members = block[: min(_MEMBER_BLOCK, n_members - b)]
            integrator.integrate(b, members, pool)
            for d, acc in enumerate(moments):
                squares = scratch.take("squares", (len(members), n_rec))
                acc.add(np.square(members[:, d], out=squares), scratch)
    return _stats(n_members, n_rec, [acc.result() for acc in moments], model.fingerprint())


# -- autocorrelation-aware reductions -------------------------------------------


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


class _PooledMoments:
    """Pooled mean of equal-length series fed in blocks of members, with an
    SE inflated by the ensemble-averaged integrated autocorrelation time.

    Each block's sum joins a running total in feeding order, so the mean has
    the bits of one ``np.sum`` per block added in member order.  The member
    autocovariances are summed in the frequency domain, and one block is read
    once, as soon as it exists: every block y is centred on one provisional
    constant c, the mean of the first block, and the accumulator keeps
    sum (y - c)^2, the member sum of the zero-padded spectra F(y - c) and the
    sum of |F(y - c)|^2.  ``result`` moves the centre to the pooled mean mu
    exactly.  With delta = mu - c, M members, N samples in all and W the
    spectrum of n ones,

        sum |F(y - mu)|^2 = sum |F(y - c)|^2 - 2 delta Re(conj(W) sum F(y - c))
                            + M delta^2 |W|^2,
        sum (y - mu)^2 = sum (y - c)^2 - N delta^2,

    and one inverse FFT of the first gives the summed autocovariance, divided
    by the unbiased lag counts n - k and the member count afterwards.
    """

    def __init__(self, n: int):
        self.n = n
        self.nfft = 1 << (2 * n - 1).bit_length()
        self.members = 0
        self.total = 0.0
        self.shift = 0.0
        self.sum_sq = 0.0
        self.spectrum = np.zeros(self.nfft // 2 + 1, complex)
        self.power = np.zeros(self.nfft // 2 + 1)

    def add(self, y: np.ndarray, scratch: _Scratch) -> None:
        """Feed a (members, n) block."""
        g, n = y.shape
        self.total += float(np.sum(y))
        if self.members == 0:
            self.shift = self.total / y.size
        self.members += g
        # the centred block, zero-padded to nfft: rfft pads a short input row
        # by row, which costs more than the transform of a padded block
        padded = scratch.take("padded", (g, self.nfft))
        np.subtract(y, self.shift, out=padded[:, :n])
        padded[:, n:] = 0.0
        self.sum_sq += float(np.vdot(padded, padded))
        spec = np.fft.rfft(padded, out=scratch.take("spectrum", (g, self.nfft // 2 + 1), complex))
        self.spectrum += spec.sum(axis=0)
        self.power += np.einsum("ij,ij->j", spec.real, spec.real)
        self.power += np.einsum("ij,ij->j", spec.imag, spec.imag)

    def result(self) -> tuple[float, float, float]:
        """(mean, se, tau) of everything fed."""
        n, members = self.n, self.members
        n_total = members * n
        mean = self.total / n_total
        delta = mean - self.shift
        ones = np.fft.rfft(np.ones(n), self.nfft)
        power = (
            self.power
            - 2.0 * delta * (ones.real * self.spectrum.real + ones.imag * self.spectrum.imag)
            + members * delta**2 * (ones.real**2 + ones.imag**2)
        )
        acov = np.fft.irfft(power, self.nfft)[:n] / np.arange(n, 0, -1) / members
        tau = _tau_from_acov(acov)
        var = (self.sum_sq - n_total * delta**2) / max(n_total - 1, 1)
        return mean, math.sqrt(max(var, 0.0) * tau / n_total), tau


def _pooled_mean_se(
    series: np.ndarray, f: Callable[[np.ndarray], np.ndarray]
) -> tuple[float, float, float]:
    """Pooled mean of f over the (members, n) series, with its SE and tau
    (``_PooledMoments``), fed one block of _MEMBER_BLOCK members at a time,
    so no mapped copy of the whole ensemble is held."""
    acc = _PooledMoments(series.shape[1])
    scratch = _Scratch()
    for b in range(0, series.shape[0], _MEMBER_BLOCK):
        acc.add(f(series[b : b + _MEMBER_BLOCK]), scratch)
    return acc.result()


def _stats(n_members: int, n_rec: int, moments, fingerprint: str) -> EnsembleStats:
    """EnsembleStats from one (mean square, se, tau) per state coordinate."""
    variance, variance_se, tau_int = np.array(moments).T
    return EnsembleStats(
        n_members=n_members,
        n_records=n_rec,
        variance=variance,
        variance_se=variance_se,
        tau_int=tau_int,
        fingerprint=fingerprint,
    )


def ensemble_stats(ensemble: Ensemble) -> EnsembleStats:
    """Pooled second moments about the known zero mean, reduced in member order.

    Each coordinate's variance is its pooled mean square, with the standard
    error from the integrated autocorrelation time of the squared series, so
    correlated records do not masquerade as extra information.  One
    reduction per state coordinate, in state order; a record that lacks a
    coordinate is refused with KeyError.  ``simulate_stats`` makes the same
    reduction without holding the record.
    """
    n_members, _, n_rec = ensemble.record.shape
    dim = 2 * len(ensemble.labels)
    moments = [_pooled_mean_se(ensemble.series(d), np.square) for d in range(dim)]
    return _stats(n_members, n_rec, moments, ensemble.fingerprint)


def mode_temperature_mc(stats: EnsembleStats, model: SystemModel) -> McTemperatures:
    """Mode temperatures from MC variances, ``model.kelvin_per_moment`` times
    each variance (T'_pos = m Omega^2 var(u)/k_B, T'_kin = m var(v)/k_B),
    with standard errors propagated linearly through the same factors.
    ``ensemble_stats`` refuses a record that lacks a coordinate, so its
    stats cover the whole state."""
    _require_model_match(stats.fingerprint, model)
    T = model.kelvin_per_moment * stats.variance
    T_se = model.kelvin_per_moment * stats.variance_se
    return McTemperatures(
        positional=T[0::2], positional_se=T_se[0::2], kinetic=T[1::2], kinetic_se=T_se[1::2]
    )


def _require_model_match(fingerprint: str, model: SystemModel) -> None:
    expect = model.fingerprint()
    if fingerprint != expect:
        raise FingerprintMismatch(
            f"data fingerprint {fingerprint} does not match the model ({expect})"
        )

