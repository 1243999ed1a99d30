"""Seeded stochastic trajectories of the compiled system plus MC estimators.

The integrator is exact in distribution for a linear system: it advances
the state by x_{k+1} = E x_k + w_k with E = expm(M*dt) and w_k drawn with
the exact one-step covariance Q = int_0^dt e^{Ms} D e^{M^T s} ds, both
precomputed once (Gillespie 1996).  The step size therefore carries no bias
and only sets the sampling grid.

One numpy kernel advances it, a prefix scan (Blelloch 1990) per chunk of
up to 65536 steps in the two-level block form also used for state-space
models (Dao & Gu 2024), equal to the step-by-step loop up to summation
order.  Members are integrated in batches, one stacked GEMM per member of
the shape a lone member gets, with noise from counter-based streams (Philox
keyed by (seed, member)), so each member has the bits of a member integrated
alone at any batch size and thread count.  The chunk temporaries and
generators live in one scratch per thread, kept for the whole process.

One loop, ``_Integrator.run``, feeds the records to a list of reducers.  It
takes the members one block of 16 at a time, in member order, and
integrates a block in batches, on several threads when ``threads`` > 1.  A
reducer has three methods, and holds its own result:

- ``start(run)``, once, before any record; ``run`` gives ``members``,
  ``labels``, the state dimension ``dim`` = 2N, ``n_records`` per member
  and their ``grid``;
- ``add(first, j0, samples)``, once per integrated chunk of a batch:
  ``samples[g, d]`` holds records j0, j0 + 1, ... of state coordinate d of
  member first + g, in the (u_1, v_1, u_2, v_2, ...) ordering.  A member's
  chunks come in time order; ``samples`` is scratch, valid during the call.
  The batches of one block may be added at once from several threads, so
  ``add`` touches only the state of its own members;
- ``end_block(start, stop)``, on the calling thread and in member order,
  once members start, ..., stop - 1 are complete.

So a reducer that sums in member order keeps its bits at any batch size and
thread count.  ``simulate`` is the record reducer: all members in one
(members, 2N, records) array, the ``Ensemble``'s record, which only tests,
``tools/bench.py`` and the benchmark's ``long_record`` workload hold.
``simulate_stats`` is the moments reducer, which ``ensemble_stats`` feeds a
stored record; ``spectra.WelchReducer`` is a streaming Welch; ``integrate``
runs any of them.  Every record holds the whole state, with no time stamps:
the records lie on a uniform ``RecordGrid``.

Every trajectory starts at x = 0 and is driven by zero-mean noise with no
constant force, so every MC second moment is a pooled mean square about the
known zero mean; ``mode_temperature_mc`` reads <u^2> and <v^2>, and the MC
bath flux is the flux-gap formula on that kinetic temperature
(``fluxlab.flux_from_gap``).  Standard errors count sample autocorrelation
through the integrated autocorrelation time (``_PooledMoments``), so the
MC-vs-exact comparisons downstream use honest error bars.
"""

from __future__ import annotations

import contextlib
import math
import operator
import sys
import threading
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .constants import SEED_LIMIT
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
    "integrate",
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
# Largest scratch buffer kept for the process.  Shipped runs ask for 2 MB at
# most; a larger buffer (the moments of long records) is made per request.
_KEEP_BYTES = 1 << 22
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
        if not 0 <= int(self.seed) < SEED_LIMIT:
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


def _oscillator(oscillator: int | str, labels: tuple[str, ...]) -> int:
    """The index of an oscillator named by label or index; KeyError when the
    state holds no such oscillator (a negative index included)."""
    if isinstance(oscillator, str):
        if oscillator not in labels:
            raise KeyError(f"no oscillator labelled {oscillator!r}")
        return labels.index(oscillator)
    i = operator.index(oscillator)
    if not 0 <= i < len(labels):
        raise KeyError(f"no oscillator {i}; the state holds {len(labels)}")
    return i


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one ensemble member.

    ``states`` has shape (n_records, 2N): column d holds state coordinate d
    of the (u_1, v_1, u_2, v_2, ...) ordering, so 2i is oscillator i's
    position and 2i + 1 its velocity.  From an ``Ensemble`` it is a
    Fortran-ordered view into the ensemble's record, so each coordinate
    series ``states[:, d]`` is contiguous.  ``grid`` places the records in
    time (the burn-in interval is already excluded); ``times`` derives their
    absolute simulation times.
    """

    states: np.ndarray
    labels: tuple[str, ...]
    grid: RecordGrid

    @property
    def times(self) -> np.ndarray:
        return self.grid.times(self.states.shape[0])

    def position(self, oscillator: int | str = 0) -> np.ndarray:
        """The position series of an oscillator, by label or index; KeyError
        when the state holds no such oscillator."""
        return self.states[:, 2 * _oscillator(oscillator, self.labels)]


@dataclass(frozen=True)
class Ensemble:
    """The members of one ``simulate`` call, in one record.

    ``record`` has shape (members, 2N, n_records): member k's state
    coordinate d of the (u_1, v_1, u_2, ...) ordering is the contiguous
    series ``record[k, d]``, sampled on ``grid``.  The ensemble is a
    read-only sequence of members: ``ens[k]`` is member k's ``Trajectory``,
    whose ``states`` is the view ``record[k].T``, and iteration runs in
    member order.  ``fingerprint`` ties the record to the generating model,
    so estimators refuse a mismatched model.
    """

    record: np.ndarray
    labels: tuple[str, ...]
    grid: RecordGrid
    fingerprint: str

    def __len__(self) -> int:
        return self.record.shape[0]

    def __getitem__(self, k: int) -> Trajectory:
        return Trajectory(self.record[operator.index(k)].T, self.labels, self.grid)

    def __iter__(self) -> Iterator[Trajectory]:
        return (self[k] for k in range(len(self)))

    def series(self, d: int) -> np.ndarray:
        """The (members, n_records) series of state coordinate d, a view of
        the record; KeyError when d lies outside the state."""
        dim = self.record.shape[1]
        if not 0 <= d < dim:
            raise KeyError(f"no state coordinate {d}; the state holds {dim}")
        return self.record[:, d]


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


class _Scratch(threading.local):
    """Named flat buffers and noise generators, kept for the process, one set
    per thread (each thread sees its own ``_SCRATCH``).  ``take(name, shape)``
    is a C-contiguous view of buffer ``name``, grown when a larger shape asks
    for it; a shape above _KEEP_BYTES gets a new array each time."""

    def __init__(self):
        self._buffers: dict = {}
        self._generators: list[np.random.Generator] = []

    def take(self, name, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        size = math.prod(shape)
        if size * np.dtype(dtype).itemsize > _KEEP_BYTES:
            return np.empty(shape, dtype)
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
            key = np.array([seed, first + g], dtype=np.uint64)
            rng.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": np.zeros(4, np.uint64), "key": key},
                "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
            }
        return self._generators[:count]


_SCRATCH = _Scratch()


def _warn(message: str, category: type[Warning]) -> None:
    """Warn at the first caller outside this module, at any call depth."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


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


def _block_scan(W: np.ndarray, ops, level: int = 0) -> np.ndarray:
    """Inclusive scan s_k = sum_{j<=k} P^(k-j) w_j along axis 1 of W, one
    (m, n) series per member on axis 0, with P the propagator of ``ops[level]``.
    The level's products are written into scratch, so the result is a view
    of it, valid until the next scan."""
    G, m, n = W.shape
    if m == 1:
        return W
    T, F = ops[level]
    L = T.shape[0] // n
    B = -(-m // L)
    if B * L != m:
        padded = _SCRATCH.take(("padded", level), (G, B * L, n))
        padded[:, :m] = W
        padded[:, m:] = 0.0
        W = padded
    S = np.matmul(W.reshape(G, B, L * n), T, out=_SCRATCH.take(("scan", level), (G, B, L * n)))
    carries = _block_scan(S[:, :, -n:], ops, level + 1)
    S[:, 1:] += np.matmul(
        carries[:, :-1], F, out=_SCRATCH.take(("carry", level), (G, B - 1, L * n))
    )
    return S.reshape(G, B * L, n)[:, :m]


def _advance_chunk(E, ops, Lq, Z, x):
    """States after each of the m steps x_{k+1} = E x_k + Lq z_k, per member.

    Z is (G, m, channels) and x the (G, n) start states.  Two-level block
    scan over w_k = Lq z_k (with E x folded into w_0): one (m/L, L n) @
    (L n, L n) block-Toeplitz product per member scans within blocks of L
    steps, the L-times-coarser series of block ends is scanned the same way
    with E^L, and one (m/L, n) @ (n, L n) product adds each block's incoming
    state back.  ``ops`` comes from ``_scan_operators(E, ...)``.  The stacked
    products are one BLAS call per member, of the shape a lone member gets
    (E x stays a matrix-vector product), so the batch size moves no bit.
    The states returned are a view of scratch.
    """
    G, m, _ = Z.shape
    W = np.matmul(Z, Lq.T, out=_SCRATCH.take("w", (G, m, E.shape[0])))
    W[:, 0] += (E @ x[:, :, None])[:, :, 0]
    return _block_scan(W, ops)


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
    burn_in = config.burn_in
    if burn_in is None:
        burn_in = math.ceil(10.0 / (min(gammas) * config.dt)) if gammas else 0
    if gammas and burn_in * config.dt < 5.0 / min(gammas):
        _warn(
            f"burn-in of {burn_in * config.dt:.3g} s is shorter than five damping "
            f"times ({5.0 / min(gammas):.3g} s); stationary averages may be biased",
            ShortBurnInWarning,
        )
    return burn_in


class _Integrator:
    """The one integration loop, ``run``, and the layout a reducer's ``start``
    reads.  Making it checks the step guard, as ``simulate`` documents, and
    resolves the burn-in."""

    def __init__(self, model: SystemModel, config: SimConfig):
        omega_max = max(o.omega for o in model.oscillators)
        if config.dt * omega_max > MAX_STEP_PRODUCT:
            if not config.allow_large_step:
                raise StepTooLarge(
                    f"dt*omega_max = {config.dt * omega_max:.3g} exceeds {MAX_STEP_PRODUCT}; "
                    "set allow_large_step=True if only stationary moments are needed"
                )
            _warn(
                f"dt*omega_max = {config.dt * omega_max:.3g} > {MAX_STEP_PRODUCT}: exact in "
                "distribution, but spectra from these samples alias the resonance",
                LargeStepWarning,
            )
        self.config = config
        self.members = config.ensemble_size
        self.labels = model.labels
        self.dim = 2 * len(model.oscillators)
        self.E, self.Lq = _one_step_operators(model, config)
        self.burn_in = _resolve_burn_in(model, config)
        chunk = min(_CHUNK, self.burn_in + config.n_steps)
        self.ops = _scan_operators(self.E, chunk)
        self.batch = max(1, _BATCH_STEPS // chunk)
        self.n_records = config.n_steps // config.record_stride
        self.grid = RecordGrid(
            float(config.dt), self.burn_in + config.record_stride, config.record_stride
        )

    def run(self, reducers: Sequence, threads: int = 1) -> None:
        """Integrate every member and feed each chunk to the reducers: one
        block of _MEMBER_BLOCK members at a time, each block in batches, spread
        over ``threads`` threads when there are more than one."""
        for reducer in reducers:
            reducer.start(self)
        pool = None
        if threads > 1:
            import concurrent.futures  # deferred: one thread, the default, needs no pool

            pool = concurrent.futures.ThreadPoolExecutor(threads)
        with pool or contextlib.nullcontext():
            for b0 in range(0, self.members, _MEMBER_BLOCK):
                b1 = min(b0 + _MEMBER_BLOCK, self.members)

                def batch(first: int) -> None:
                    self._integrate_batch(first, min(self.batch, b1 - first), reducers)

                list((pool.map if pool else map)(batch, range(b0, b1, self.batch)))
                for reducer in reducers:
                    reducer.end_block(b0, b1)

    def _integrate_batch(self, first: int, G: int, reducers: Sequence) -> None:
        config, E, Lq, burn_in = self.config, self.E, self.Lq, self.burn_in
        rngs = _SCRATCH.generators(config.seed, first, G)
        stride = config.record_stride
        x = np.zeros((G, E.shape[0]))
        total = burn_in + config.n_steps
        for k0 in range(0, total, _CHUNK):
            m = min(_CHUNK, total - k0)
            Z = _SCRATCH.take("noise", (G, m, Lq.shape[1]))
            for rng, z in zip(rngs, Z):
                rng.standard_normal(out=z)
            states = _advance_chunk(E, self.ops, Lq, Z, x)
            finite = np.all(np.isfinite(states[:, -1]), axis=1)
            if not np.all(finite):
                raise NonFiniteState(
                    f"state diverged near step {k0 + m} of member "
                    f"{first + int(np.argmin(finite))}; the one-step propagator amplifies "
                    "the state instead of damping it (check the feedback gains)"
                )
            # record j is step burn_in + stride*(j+1); this chunk holds steps k0+1..k0+m
            j0 = max(0, (k0 - burn_in) // stride)
            j1 = max(0, (k0 + m - burn_in) // stride)
            if j1 > j0:
                picked = states[:, burn_in + stride * (j0 + 1) - k0 - 1 :: stride]
                for reducer in reducers:
                    reducer.add(first, j0, picked.transpose(0, 2, 1))
            x = states[:, -1].copy()


class _Record:
    """The record reducer: all members in one (members, 2N, n_records) ``record``."""

    def start(self, run: _Integrator) -> None:
        self.record = np.empty((run.members, run.dim, run.n_records))

    def add(self, first: int, j0: int, samples: np.ndarray) -> None:
        self.record[first : first + len(samples), :, j0 : j0 + samples.shape[2]] = samples

    def end_block(self, start: int, stop: int) -> None:
        pass


def integrate(model: SystemModel, config: SimConfig, reducers: Sequence, threads: int = 1) -> None:
    """Integrate the Langevin system and feed its records to ``reducers``,
    which hold the results; see the module docstring for what a reducer
    receives.  The step guard, the warnings and every member's bits are
    those of ``simulate``."""
    _Integrator(model, config).run(reducers, threads)


def simulate(model: SystemModel, config: SimConfig, threads: int = 1) -> Ensemble:
    """Integrate the Langevin system; the ensemble of config.ensemble_size
    members, each recorded in the whole (u_1, v_1, u_2, v_2, ...) state.

    Deterministic: member k depends only on (model, config, seed, k), never
    on thread count, batching or scheduling, so reruns are bit-identical.
    Raises StepTooLarge when dt*omega_max > 0.05 unless config.allow_large_step.
    """
    integrator, record = _Integrator(model, config), _Record()
    integrator.run([record], threads)
    return Ensemble(record.record, model.labels, integrator.grid, model.fingerprint())


def simulate_stats(model: SystemModel, config: SimConfig, threads: int = 1) -> EnsembleStats:
    """``ensemble_stats(simulate(model, config, threads))`` without the record:
    the moments reducer, fed as the members are integrated, holds one block
    of _MEMBER_BLOCK members, so memory does not grow with the ensemble.
    ``variance`` has the bits of the stored route; ``variance_se`` and
    ``tau_int`` agree with it to rounding (``_PooledMoments``)."""
    integrator = _Integrator(model, config)
    moments = _Moments(integrator.dim, integrator.n_records)
    integrator.run([moments], threads)
    return moments.result(model.fingerprint())


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
    by the unbiased lag counts n - k and the member count afterwards.  Each
    y - c is scaled by the power of two that brings the first block's largest
    |y - c| into [1/2, 1), and the SE back: the bits of the unscaled sums
    where no square under- or overflows, and a tiny series keeps its SE.
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

    def add(self, y: np.ndarray) -> None:
        """Feed a (members, n) block."""
        g, n = y.shape
        self.total += float(np.sum(y))
        if self.members == 0:
            self.shift = self.total / y.size
        # the centred block, zero-padded to nfft: rfft pads a short input row
        # by row, which costs more than the transform of a padded block
        padded = _SCRATCH.take(("moments", "padded"), (g, self.nfft))
        np.subtract(y, self.shift, out=padded[:, :n])
        if self.members == 0:
            peak = float(np.max(np.abs(padded[:, :n])))
            self.scale = math.ldexp(1.0, min(-math.frexp(peak)[1], 1000)) if peak > 0 else 1.0
        self.members += g
        padded[:, :n] *= self.scale
        padded[:, n:] = 0.0
        # einsum, not BLAS: a threaded dot product sums in an order set by the thread count
        self.sum_sq += float(np.einsum("ij,ij->", padded[:, :n], padded[:, :n]))
        spectrum = _SCRATCH.take(("moments", "spectrum"), (g, self.nfft // 2 + 1), complex)
        spec = np.fft.rfft(padded, out=spectrum)
        self.spectrum += spec.sum(axis=0)
        self.power += np.einsum("ij,ij->j", spec.real, spec.real)
        self.power += np.einsum("ij,ij->j", spec.imag, spec.imag)

    def result(self) -> tuple[float, float, float]:
        """(mean, se, tau) of everything fed."""
        n, members = self.n, self.members
        n_total = members * n
        mean = self.total / n_total
        delta = (mean - self.shift) * self.scale
        ones = np.fft.rfft(np.ones(n), self.nfft)
        power = (
            self.power
            - 2.0 * delta * (ones.real * self.spectrum.real + ones.imag * self.spectrum.imag)
            + members * delta**2 * (ones.real**2 + ones.imag**2)
        )
        acov = np.fft.irfft(power, self.nfft)[:n] / np.arange(n, 0, -1) / members
        tau = _tau_from_acov(acov)
        var = (self.sum_sq - n_total * delta**2) / max(n_total - 1, 1)
        return mean, math.sqrt(max(var, 0.0) * tau / n_total) / self.scale, tau


class _Moments:
    """The moments reducer: each state coordinate's pooled mean square about
    the known zero mean, with SE and tau (``_PooledMoments``), reduced one
    block of _MEMBER_BLOCK members at a time in member order.  The integrator
    fills a block buffer in scratch; ``reduce`` also reads a stored record's
    block in place."""

    def __init__(self, dim: int, n_records: int):
        self.moments = [_PooledMoments(n_records) for _ in range(dim)]

    def start(self, run: _Integrator) -> None:
        block = (min(_MEMBER_BLOCK, run.members), run.dim, run.n_records)
        self.block = _SCRATCH.take(("moments", "block"), block)

    def add(self, first: int, j0: int, samples: np.ndarray) -> None:
        g, _, m = samples.shape
        b = first % _MEMBER_BLOCK
        self.block[b : b + g, :, j0 : j0 + m] = samples

    def end_block(self, start: int, stop: int) -> None:
        self.reduce(self.block[: stop - start])

    def reduce(self, block: np.ndarray) -> None:
        """Feed a (members, 2N, n_records) block, the next in member order."""
        g, _, n = block.shape
        squares = _SCRATCH.take(("moments", "squares"), (g, n))
        for d, acc in enumerate(self.moments):
            acc.add(np.square(block[:, d], out=squares))

    def result(self, fingerprint: str) -> EnsembleStats:
        """The (mean square, SE, tau) rows of every coordinate fed."""
        moments = np.array([acc.result() for acc in self.moments]).T
        return EnsembleStats(self.moments[0].members, self.moments[0].n, *moments, fingerprint)


def ensemble_stats(ensemble: Ensemble) -> EnsembleStats:
    """Pooled second moments about the known zero mean, reduced in member order.

    Each coordinate's variance is its pooled mean square, with the standard
    error from the integrated autocorrelation time of the squared series, so
    correlated records do not masquerade as extra information: the moments
    reducer of ``simulate_stats``, fed the record one block at a time.
    """
    record = ensemble.record
    moments = _Moments(record.shape[1], record.shape[2])
    for b in range(0, len(record), _MEMBER_BLOCK):
        moments.reduce(record[b : b + _MEMBER_BLOCK])
    return moments.result(ensemble.fingerprint)


def mode_temperature_mc(stats: EnsembleStats, model: SystemModel) -> McTemperatures:
    """Mode temperatures from MC variances, ``model.kelvin_per_moment`` times
    each variance (T'_pos = m Omega^2 var(u)/k_B, T'_kin = m var(v)/k_B),
    with standard errors propagated linearly through the same factors."""
    if stats.fingerprint != model.fingerprint():
        raise FingerprintMismatch(
            f"data fingerprint {stats.fingerprint} does not match the model "
            f"({model.fingerprint()})"
        )
    T = model.kelvin_per_moment * stats.variance
    T_se = model.kelvin_per_moment * stats.variance_se
    return McTemperatures(
        positional=T[0::2], positional_se=T_se[0::2], kinetic=T[1::2], kinetic_se=T_se[1::2]
    )

