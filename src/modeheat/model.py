"""Physical system definition and compilation to drift/diffusion matrices.

A system is a list of damped harmonic oscillators, each tied to its own
thermal bath, optionally linked pairwise by linear springs and driven by
linear feedback forces ``F = A*u + B*du/dt + white noise``.  ``compile``
turns the model into the first-order form

    dx = M x dt + L dW,      x = (u_1, v_1, u_2, v_2, ...)

with drift ``M`` and diffusion ``D = L L^T``.  Everything downstream
(stationary solves, trajectory simulation, spectra) consumes these matrices.

Conventions: the equation of motion per oscillator is
``u'' + 2*gamma*u' + omega^2 u = (F_th + F_fb)/m``, i.e. ``gamma`` is the
amplitude damping half-rate.  The thermal force is white with intensity
``noise_factor * gamma * m * k_B * T``; the default factor 4 makes the
equilibrium mode temperature equal the bath temperature (equipartition for
the ``2*gamma*u'`` damping term).  Strict SI units throughout.

The model also holds the one definition of the observables both routes read
off second moments: ``kelvin_per_moment`` turns <u_i^2> and <v_i^2> into
mode temperatures (m Omega^2 / k_B and m / k_B), and ``injected_power`` and
``damping_coefficient`` give the bath flux S_0/(2m) - 2 gamma m <v^2>.  The
exact, Monte Carlo and spectral estimators all multiply by these arrays.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .constants import BOLTZMANN
from .errors import NonPositiveStiffness, UnknownLabel, UnknownPair, UnstableFeedback

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "OscillatorSpec",
    "FeedbackSpec",
    "CouplingSpec",
    "SystemModel",
    "StateMatrices",
    "compile",
    "coupling_g",
    "model_from_dict",
]


@dataclass(frozen=True)
class OscillatorSpec:
    """One mechanical mode: mass (kg), angular frequency (rad/s), amplitude
    damping half-rate (1/s) and bath temperature (K)."""

    label: str
    mass: float
    omega: float
    gamma: float
    bath_temperature: float

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError(f"oscillator {self.label!r}: mass must be > 0, got {self.mass}")
        if self.omega <= 0:
            raise ValueError(f"oscillator {self.label!r}: omega must be > 0, got {self.omega}")
        if self.gamma < 0:
            raise ValueError(f"oscillator {self.label!r}: gamma must be >= 0, got {self.gamma}")
        if self.bath_temperature < 0:
            raise ValueError(
                f"oscillator {self.label!r}: bath_temperature must be >= 0, "
                f"got {self.bath_temperature}"
            )


@dataclass(frozen=True)
class FeedbackSpec:
    """Linear feedback force A*u + B*v + delta_F with white force noise.

    ``position_gain`` (N/m) softens/stiffens the mode, ``velocity_gain``
    (N*s/m) adds/removes damping, ``noise_psd`` (N^2/Hz, double-sided) is
    the intensity of the added white force noise.
    """

    position_gain: float = 0.0
    velocity_gain: float = 0.0
    noise_psd: float = 0.0

    def __post_init__(self):
        if self.noise_psd < 0:
            raise ValueError(f"noise_psd must be >= 0, got {self.noise_psd}")


# What ``SystemModel.feedback`` returns for an oscillator without feedback;
# frozen, so every model can share it.
_NO_FEEDBACK = FeedbackSpec()


@dataclass(frozen=True)
class CouplingSpec:
    """Bilinear spring between two oscillators: force on i is -k_c (u_i - u_j)."""

    pair: tuple[str, str]
    spring_constant: float

    def __post_init__(self):
        if self.pair[0] == self.pair[1]:
            raise ValueError(f"coupling pair must name two distinct oscillators, got {self.pair}")


@dataclass(frozen=True)
class SystemModel:
    """Immutable system description; compile() turns it into state matrices.

    ``noise_factor`` scales the thermal-force intensity
    ``noise_factor * gamma * m * k_B * T``.  The default 4.0 satisfies
    equipartition (mode temperature = bath temperature without feedback);
    8.0 reproduces the alternative convention in which the equilibrium mode
    temperature comes out at twice the bath temperature.

    ``labels``, the label index, the per-oscillator arrays below,
    ``compile(model)`` and ``fingerprint()`` are computed on first use and
    kept, so the ``feedbacks`` dict must not be changed in place; build a new
    model with ``dataclasses.replace`` instead.
    """

    oscillators: tuple[OscillatorSpec, ...]
    couplings: tuple[CouplingSpec, ...] = ()
    feedbacks: dict[str, FeedbackSpec] = field(default_factory=dict)
    noise_factor: float = 4.0
    boltzmann: float = BOLTZMANN

    def __post_init__(self):
        object.__setattr__(self, "oscillators", tuple(self.oscillators))
        object.__setattr__(self, "couplings", tuple(self.couplings))
        object.__setattr__(self, "feedbacks", dict(self.feedbacks))
        known = set(self.labels)
        if len(known) != len(self.labels):
            raise ValueError(f"duplicate oscillator labels: {list(self.labels)}")
        if self.noise_factor <= 0:
            raise ValueError(f"noise_factor must be > 0, got {self.noise_factor}")
        for c in self.couplings:
            for lab in c.pair:
                if lab not in known:
                    raise UnknownLabel(f"coupling references unknown oscillator {lab!r}")
        for lab in self.feedbacks:
            if lab not in known:
                raise UnknownLabel(f"feedback references unknown oscillator {lab!r}")

    # -- lookup helpers ------------------------------------------------
    # functools.cached_property writes the instance __dict__ directly, which a
    # frozen dataclass allows.

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(o.label for o in self.oscillators)

    @functools.cached_property
    def _label_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise UnknownLabel(f"no oscillator labelled {label!r}") from None

    def feedback(self, label: str) -> FeedbackSpec:
        return self.feedbacks.get(label, _NO_FEEDBACK)

    def thermal_noise_intensity(self, i: int) -> float:
        """White thermal-force intensity S_0 of oscillator i, N^2/Hz."""
        o = self.oscillators[i]
        return self.noise_factor * o.gamma * o.mass * self.boltzmann * o.bath_temperature

    @functools.cached_property
    def kelvin_per_moment(self) -> np.ndarray:
        """Mode temperature per unit second moment, K per state coordinate:
        m Omega^2 / k_B at u_i (positional) and m / k_B at v_i (kinetic)."""
        kB = self.boltzmann
        return _frozen(
            [k for o in self.oscillators for k in (o.mass * o.omega**2 / kB, o.mass / kB)]
        )

    @functools.cached_property
    def injected_power(self) -> np.ndarray:
        """Mean power S_0/(2m) the thermal force injects per oscillator, W."""
        return _frozen(
            [
                _white_force_power(self.thermal_noise_intensity(i), o.mass)
                for i, o in enumerate(self.oscillators)
            ]
        )

    @functools.cached_property
    def equilibrium_temperature(self) -> np.ndarray:
        """Mode temperature at which each bath alone holds its oscillator, K:
        (noise_factor / 4) T, the bath temperature itself at the default
        factor 4.  The flux-gap relation and equipartition read this T_eq."""
        return _frozen([self.noise_factor / 4.0 * o.bath_temperature for o in self.oscillators])

    @functools.cached_property
    def feedback_noise_power(self) -> np.ndarray:
        """Mean power S_ext/(2m) the feedback force noise injects per oscillator, W
        (zero where an oscillator has no feedback)."""
        return _frozen(
            [_white_force_power(self.feedback(o.label).noise_psd, o.mass) for o in self.oscillators]
        )

    @functools.cached_property
    def damping_coefficient(self) -> np.ndarray:
        """2 gamma m per oscillator, kg/s: the bath dissipates 2 gamma m <v^2>."""
        return _frozen([2 * o.gamma * o.mass for o in self.oscillators])

    @functools.cached_property
    def _matrices(self) -> StateMatrices:
        return _compile(self)

    def fingerprint(self) -> str:
        """Short hash of the compiled system; used to guard estimator/model mixing.

        Computed on the first call and kept with the model.
        """
        return self._fingerprint

    @functools.cached_property
    def _fingerprint(self) -> str:
        import numpy as np  # deferred: building and validating a model needs no arrays

        mats = compile(self)
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(mats.drift).tobytes())
        h.update(np.ascontiguousarray(mats.diffusion).tobytes())
        h.update(np.array([o.mass for o in self.oscillators]).tobytes())
        h.update(("|".join(self.labels)).encode())
        return h.hexdigest()[:16]


def _frozen(values: list[float]) -> np.ndarray:
    """Read-only float array, so a cached per-model array cannot be edited."""
    import numpy as np  # deferred: building and validating a model needs no arrays

    out = np.array(values, dtype=float)
    _read_only(out)
    return out


def _read_only(*arrays: np.ndarray) -> None:
    """Mark arrays that callers share read-only, in place."""
    for a in arrays:
        a.flags.writeable = False


def _white_force_power(psd: float, mass: float) -> float:
    """Mean power S/(2m), W, that a white force of intensity S injects into a mass m."""
    return psd / (2 * mass)


@dataclass(frozen=True)
class StateMatrices:
    """First-order form of the compiled system, state ordered (u_1, v_1, u_2, v_2, ...).

    ``diffusion`` is nonzero only on velocity-velocity diagonal entries;
    ``noise_gain`` is the 2N x N factor with D = noise_gain @ noise_gain.T
    (one independent white channel per oscillator).

    ``compile`` returns one instance per model, shared by every caller, so
    its arrays and the ``schur`` factor are read-only.  An instance built by
    hand keeps the arrays it was given; its ``schur`` is likewise computed on
    first use and kept, so its drift must not be edited after that.
    """

    drift: np.ndarray
    diffusion: np.ndarray
    noise_gain: np.ndarray

    @functools.cached_property
    def schur(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Real Schur form (scale, T, U) of the stiffness-scaled drift, kept once computed.

        Each position u_i is scaled by its local stiffness frequency,
        scale[2i] = sqrt(-M[2i+1, 2i]) where that is positive and 1 elsewhere,
        so that position and velocity rows carry comparable magnitudes.  Then
        diag(scale) M diag(scale)^-1 = U T U^T with U orthogonal and T upper
        quasi-triangular in scipy's standardized form: a 1x1 block per real
        eigenvalue, a 2x2 block with equal diagonal entries Re(lambda) per
        conjugate pair.  T is similar to M; ``solve_stationary`` and
        ``normal_modes`` both read it, so one O(n^3) factorization serves both.
        """
        import numpy as np  # deferred: building and validating a model needs no arrays
        import scipy.linalg  # deferred: a slow import, paid only by callers that factor M

        M = self.drift
        dim = M.shape[0]
        scale = np.ones(dim)
        for i in range(dim // 2):
            w2 = -M[2 * i + 1, 2 * i]
            if w2 > 0:
                scale[2 * i] = np.sqrt(w2)
        inv = 1.0 / scale
        T, U = scipy.linalg.schur(scale[:, None] * M * inv, output="real")
        _read_only(scale, T, U)
        return scale, T, U


def _stiffness_matrix(model: SystemModel) -> np.ndarray:
    """Effective N x N stiffness (force = -K u) including feedback position gains."""
    import numpy as np  # deferred: building and validating a model needs no arrays

    n = len(model.oscillators)
    K = np.zeros((n, n))
    for i, osc in enumerate(model.oscillators):
        K[i, i] = osc.mass * osc.omega**2 - model.feedback(osc.label).position_gain
    for c in model.couplings:
        i, j = model.index(c.pair[0]), model.index(c.pair[1])
        K[i, i] += c.spring_constant
        K[j, j] += c.spring_constant
        K[i, j] -= c.spring_constant
        K[j, i] -= c.spring_constant
    return K


def compile(model: SystemModel) -> StateMatrices:
    """Compile the model into drift/diffusion matrices.

    Pure and deterministic: equal models produce bit-identical matrices.
    The result is computed on the first call and kept with the model, so
    ``compile(model) is compile(model)``; its arrays are read-only, and its
    ``schur`` factor, once computed, serves every later solve.

    Raises
    ------
    UnstableFeedback
        if any oscillator has m*omega^2 - A <= 0 or 2*gamma*m - B <= 0.
    NonPositiveStiffness
        if the effective stiffness matrix is not positive definite.
    """
    return model._matrices


def _compile(model: SystemModel) -> StateMatrices:
    import numpy as np  # deferred: building and validating a model needs no arrays

    n = len(model.oscillators)
    if n == 0:
        raise ValueError("model has no oscillators")

    for osc in model.oscillators:
        fb = model.feedback(osc.label)
        if osc.mass * osc.omega**2 - fb.position_gain <= 0:
            raise UnstableFeedback(
                f"oscillator {osc.label!r}: position gain {fb.position_gain} exceeds "
                f"the mechanical stiffness {osc.mass * osc.omega**2}"
            )
        if 2 * osc.gamma * osc.mass - fb.velocity_gain <= 0 and not (
            osc.gamma == 0 and fb.velocity_gain == 0
        ):
            raise UnstableFeedback(
                f"oscillator {osc.label!r}: velocity gain {fb.velocity_gain} cancels "
                f"the damping 2*gamma*m = {2 * osc.gamma * osc.mass}"
            )

    K = _stiffness_matrix(model)
    if np.min(np.linalg.eigvalsh(K)) <= 0:
        raise NonPositiveStiffness(
            "effective stiffness matrix is not positive definite; "
            "the coupled system has no bound stationary state"
        )

    dim = 2 * n
    M = np.zeros((dim, dim))
    L = np.zeros((dim, n))
    for i, osc in enumerate(model.oscillators):
        fb = model.feedback(osc.label)
        u, v = 2 * i, 2 * i + 1
        M[u, v] = 1.0
        M[v, u] = -(osc.omega**2 - fb.position_gain / osc.mass)
        M[v, v] = -(2 * osc.gamma - fb.velocity_gain / osc.mass)
        L[v, i] = np.sqrt(model.thermal_noise_intensity(i) + fb.noise_psd) / osc.mass
    for c in model.couplings:
        i, j = model.index(c.pair[0]), model.index(c.pair[1])
        mi = model.oscillators[i].mass
        mj = model.oscillators[j].mass
        M[2 * i + 1, 2 * i] -= c.spring_constant / mi
        M[2 * i + 1, 2 * j] += c.spring_constant / mi
        M[2 * j + 1, 2 * j] -= c.spring_constant / mj
        M[2 * j + 1, 2 * i] += c.spring_constant / mj

    D = L @ L.T
    _read_only(M, D, L)
    return StateMatrices(drift=M, diffusion=D, noise_gain=L)


def _spring_per_rate(oi: OscillatorSpec, oj: OscillatorSpec) -> float:
    """Spring constant per unit coupling rate, 2 sqrt(m_i m_j) sqrt(omega_i omega_j):
    the convention k_c = _spring_per_rate * g that ``coupling_g`` inverts."""
    return 2.0 * math.sqrt(oi.mass * oj.mass) * math.sqrt(oi.omega * oj.omega)


def coupling_g(model: SystemModel, pair: tuple[str, str]) -> float:
    """Coupling rate g = k_c / (2 sqrt(m_i m_j) sqrt(omega_i omega_j)) in rad/s.

    For a degenerate identical pair this is half the normal-mode frequency
    splitting, up to relative corrections of order (g/omega)^2 and
    (gamma/omega)^2; for a detuned pair it is a nominal rate.
    """
    wanted = frozenset(pair)
    for c in model.couplings:
        if frozenset(c.pair) == wanted:
            i, j = model.index(c.pair[0]), model.index(c.pair[1])
            return c.spring_constant / _spring_per_rate(model.oscillators[i], model.oscillators[j])
    raise UnknownPair(f"no coupling between {pair[0]!r} and {pair[1]!r}")


def _with_coupling(template: SystemModel, pair: tuple[str, str], g: float) -> SystemModel:
    """Template with the pair's spring set to the coupling rate g (``coupling_g``)."""
    i, j = template.index(pair[0]), template.index(pair[1])
    k_c = _spring_per_rate(template.oscillators[i], template.oscillators[j]) * g
    couplings = tuple(c for c in template.couplings if frozenset(c.pair) != frozenset(pair))
    couplings += (CouplingSpec(pair=pair, spring_constant=k_c),)
    return dataclasses.replace(template, couplings=couplings)


# -- JSON-friendly construction ----------------------------------------------

def model_from_dict(doc: dict) -> SystemModel:
    """Build a SystemModel from its JSON document form (see `modeheat schema`)."""
    oscillators = tuple(
        OscillatorSpec(
            label=str(o["label"]),
            mass=float(o["mass"]),
            omega=float(o["omega"]),
            gamma=float(o["gamma"]),
            bath_temperature=float(o["bath_temperature"]),
        )
        for o in doc["oscillators"]
    )
    couplings = tuple(
        CouplingSpec(pair=(str(c["pair"][0]), str(c["pair"][1])),
                     spring_constant=float(c["spring_constant"]))
        for c in doc.get("couplings", [])
    )
    feedbacks = {
        str(lab): FeedbackSpec(
            position_gain=float(fb.get("position_gain", 0.0)),
            velocity_gain=float(fb.get("velocity_gain", 0.0)),
            noise_psd=float(fb.get("noise_psd", 0.0)),
        )
        for lab, fb in doc.get("feedbacks", {}).items()
    }
    return SystemModel(
        oscillators=oscillators,
        couplings=couplings,
        feedbacks=feedbacks,
        noise_factor=float(doc.get("noise_factor", 4.0)),
    )
