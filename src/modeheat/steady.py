"""Exact stationary statistics of the compiled linear system.

The stationary covariance C of dx = Mx dt + L dW solves the Lyapunov
equation M C + C M^T + D = 0 with D = L L^T.  From C follow the mode
temperatures, the net heat flux drawn from each bath, and the power
injected or removed by each feedback force.  ``normal_modes`` gives the
eigenfrequencies and linewidths of the drift matrix.

Both read one real Schur form of the stiffness-scaled drift,
``StateMatrices.schur``, which the compiled model keeps: the Lyapunov solve
and its Hurwitz test use it, and ``normal_modes`` takes the eigenvalues of
its quasi-triangular factor.  Solving a model and then asking for its normal
modes therefore factors the drift once.

The solve is Bartels-Stewart, with the quasi-triangular Lyapunov equation
solved by recursive blocking (``_lyapunov``), so that most of its work is
matrix products.  scipy's ``solve_continuous_lyapunov`` instead makes one
unblocked LAPACK ``trsyl`` call on the whole factor, which this solve
matches only up to ``_LEAF`` states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, NotHurwitz
from .model import StateMatrices, SystemModel, compile

__all__ = [
    "SteadyState",
    "NormalModes",
    "solve_stationary",
    "mode_temperatures",
    "bath_heat_flux",
    "feedback_heat_flux",
    "normal_modes",
    "steady_state",
    "lyapunov_residual",
]

# Residual the solver tries for; REQUIRED_RESIDUAL is the hard acceptance gate.
_TARGET_RESIDUAL = 1e-13
REQUIRED_RESIDUAL = 1e-10
_MAX_REFINEMENTS = 6
# Multiple of eps * ||T||_1 below zero that the largest real part of the drift
# eigenvalues must reach to count as stable.  Undamped chains, whose
# eigenvalues are purely imaginary, come out of the Schur form between -5.1e-5
# and +1.25 of that unit; damped ones lie below -3.8e10.
_HURWITZ_ROUNDING = 1e3
# Order up to which a Lyapunov or Sylvester block goes to LAPACK trsyl whole.
_LEAF = 32


@dataclass(frozen=True)
class SteadyState:
    """Stationary second moments and the derived thermodynamic quantities.

    ``covariance`` is the full 2N x 2N matrix <x x^T> in the (u_1, v_1, ...)
    state ordering.  Temperatures are per oscillator, in K; fluxes are per
    oscillator, in W, positive for energy flowing into the mode.
    """

    covariance: np.ndarray
    mode_temperature_positional: np.ndarray
    mode_temperature_kinetic: np.ndarray
    bath_flux: np.ndarray
    feedback_flux: np.ndarray
    residual: float


@dataclass(frozen=True)
class NormalModes:
    """Eigenmodes of the drift matrix, one entry per conjugate pair.

    ``frequencies`` are |Im lambda| in rad/s (ascending), ``linewidths``
    are -2 Re lambda in 1/s (full width of the energy decay).  Real
    eigenvalues appear as zero-frequency entries.
    """

    frequencies: np.ndarray
    linewidths: np.ndarray


def lyapunov_residual(matrices: StateMatrices, C: np.ndarray) -> float:
    """Relative residual ||MC + CM^T + D||_F / max(||D||_F, eps)."""
    return _residual(matrices.drift, matrices.diffusion, C)[1]


def _residual(M: np.ndarray, D: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, float]:
    """The residual matrix M C + C M^T + D and its relative norm."""
    R = M @ C + C @ M.T + D
    return R, float(np.linalg.norm(R) / max(np.linalg.norm(D), np.finfo(float).tiny))


def _structural_zeros(M: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (k, j) at which the Lyapunov equation itself forces C = 0.

    A state k without noise (D[k, k] = 0) whose drift row has a single nonzero
    entry j turns the (k, k) entry of M C + C M^T + D = 0 into
    2 M[k, j] C[j, k] = 0.  Every position row is of this kind (u_i' = v_i),
    which makes <u_i v_i> = 0 exact rather than a rounding residue.
    """
    rows = np.flatnonzero((np.diag(D) == 0) & (np.count_nonzero(M, axis=1) == 1))
    return rows, np.argmax(M[rows] != 0, axis=1)


def _split(T: np.ndarray) -> int:
    """A split point near the middle of T that does not cut a 2x2 block."""
    k = T.shape[0] // 2
    return k + 1 if T[k, k - 1] != 0 else k


def _sylvester(trsyl, A: np.ndarray, B: np.ndarray, C: np.ndarray) -> None:
    """Overwrite C with the X of A X + X B^T = C; A and B upper quasi-triangular.

    Recursive blocked (Jonsson & Kagstrom): the larger side is halved, the
    trailing half solved first, and its contribution to the leading half
    removed by one matrix product.
    """
    m, n = C.shape
    if max(m, n) <= _LEAF:
        X, s, _ = trsyl(A, B, C, tranb="T")
        C[...] = X / s
    elif m >= n:
        k = _split(A)
        _sylvester(trsyl, A[k:, k:], B, C[k:])
        C[:k] -= A[:k, k:] @ C[k:]
        _sylvester(trsyl, A[:k, :k], B, C[:k])
    else:
        k = _split(B)
        _sylvester(trsyl, A, B[k:, k:], C[:, k:])
        C[:, :k] -= C[:, k:] @ B[:k, k:].T
        _sylvester(trsyl, A, B[:k, :k], C[:, :k])


def _lyapunov(trsyl, T: np.ndarray, C: np.ndarray) -> None:
    """Overwrite C with the X of T X + X T^T = C; T upper quasi-triangular, C symmetric.

    Recursive blocked (Jonsson & Kagstrom, ACM TOMS 28, 2002): with T split
    into [[T11, T12], [0, T22]], the trailing Lyapunov block X22 comes first,
    then the Sylvester block X12 from T11 X12 + X12 T22^T = C12 - T12 X22,
    then the leading Lyapunov block X11 from T11 X11 + X11 T11^T =
    C11 - T12 X12^T - X12 T12^T.  X21 is X12^T, never solved.  Blocks of
    order at most _LEAF go to LAPACK ``trsyl`` whole.
    """
    n = T.shape[0]
    if n <= _LEAF:
        X, s, _ = trsyl(T, T, C, tranb="T")
        C[...] = X / s
        return
    k = _split(T)
    _lyapunov(trsyl, T[k:, k:], C[k:, k:])
    C[:k, k:] -= T[:k, k:] @ C[k:, k:]
    _sylvester(trsyl, T[:k, :k], T[k:, k:], C[:k, k:])
    W = T[:k, k:] @ C[:k, k:].T
    C[:k, :k] -= W + W.T
    _lyapunov(trsyl, T[:k, :k], C[:k, :k])
    C[k:, :k] = C[:k, k:].T


def solve_stationary(matrices: StateMatrices) -> np.ndarray:
    """Stationary covariance of dx = Mx dt + L dW by a Schur-based solve.

    The Bartels-Stewart method (a real Schur form, then a solve of the
    triangular Lyapunov equation) is applied with positions rescaled by the
    per-oscillator stiffness frequency, so that position and velocity rows
    carry comparable magnitudes (``StateMatrices.schur``, factored on first
    use and kept).  The triangular equation is solved by the recursive
    blocked algorithm of Jonsson and Kagstrom (``_lyapunov``): halves of the
    quasi-triangular factor are solved as smaller Lyapunov and Sylvester
    equations, coupled by matrix products, down to blocks of order _LEAF
    that go to LAPACK ``trsyl``; a system of at most _LEAF states is one
    ``trsyl`` call.  A few rounds of iterative refinement against the
    unscaled residual, each reusing the same Schur form, then push the
    solution to near machine precision.  Each iterate's residual R = M C +
    C M^T + D is formed once: its norm decides whether to refine, and R
    itself is the right-hand side of the next correction.  Entries the
    equation forces to zero (``_structural_zeros``) are set exactly after
    every solve.  Cost is O(n^3) time and O(n^2) memory in the 2N states.

    The Hurwitz test reads the eigenvalues off the same Schur form T: each
    1x1 block of T is a real eigenvalue and each standardized 2x2 block
    carries Re(lambda) on both diagonal entries, so max diag(T) is the
    largest real part.  Within _HURWITZ_ROUNDING * eps * ||T||_1 of zero it
    counts as not negative: an undamped network's purely imaginary
    eigenvalues come out of the Schur form with a real part of rounding
    size and either sign.

    Raises NotHurwitz when no stationary state exists, IllConditioned when
    the refined residual stays above 1e-10 relative.
    """
    return _solve_stationary(matrices)[0]


def _solve_stationary(matrices: StateMatrices) -> tuple[np.ndarray, float, int]:
    """``solve_stationary``'s C, with its ``lyapunov_residual`` and the refinement
    rounds made (corrections solved, whether kept or not)."""
    import scipy.linalg  # deferred: a slow import, paid only by callers that solve

    M, D = matrices.drift, matrices.diffusion
    # Bartels-Stewart: one real Schur form M_s = U T U^T serves every solve.
    scale, T, U = matrices.schur
    inv = 1.0 / scale
    growth = np.max(np.diag(T))
    if growth >= -_HURWITZ_ROUNDING * np.finfo(float).eps * np.linalg.norm(T, 1):
        raise NotHurwitz(
            "drift matrix is not Hurwitz (max Re(lambda) = "
            f"{growth:.3e}); no stationary state exists"
        )
    (trsyl,) = scipy.linalg.get_lapack_funcs(("trsyl",), (T,))
    rows, cols = _structural_zeros(M, D)

    def solve(Q: np.ndarray) -> np.ndarray:
        """Symmetric X with M X + X M^T + Q = 0."""
        # trsyl's info = 1 (near-singular, coefficients perturbed) is left to
        # the residual gate below.
        Y = U.T @ (-(scale[:, None] * Q * scale) @ U)
        _lyapunov(trsyl, T, Y)
        X = inv[:, None] * (U @ Y @ U.T) * inv
        X = 0.5 * (X + X.T)
        X[rows, cols] = 0.0
        X[cols, rows] = 0.0
        return X

    best_C = solve(D)
    best_R, best_res = _residual(M, D, best_C)
    rounds = 0
    while rounds < _MAX_REFINEMENTS and not best_res <= _TARGET_RESIDUAL:
        rounds += 1
        C_new = best_C + solve(best_R)
        R_new, res_new = _residual(M, D, C_new)
        if not res_new < best_res:
            break
        best_C, best_R, best_res = C_new, R_new, res_new

    if not best_res <= REQUIRED_RESIDUAL:
        raise IllConditioned(
            f"Lyapunov solve stalled at relative residual {best_res:.3e} "
            f"(required {REQUIRED_RESIDUAL:.0e})",
            residual=best_res,
        )
    return best_C, best_res, rounds


def mode_temperatures(C: np.ndarray, model: SystemModel) -> tuple[np.ndarray, np.ndarray]:
    """Positional and kinetic mode temperatures, K per oscillator.

    ``model.kelvin_per_moment`` times the diagonal of C: T'_pos =
    m Omega^2 <u^2> / k_B uses the bare mechanical frequency, so a position
    feedback that softens the mode reads as a hotter positional temperature;
    T'_kin = m <v^2> / k_B is the one that enters the flux-gap relation.  The
    two coincide without position feedback.
    """
    T = model.kelvin_per_moment * np.diag(C)
    return T[0::2], T[1::2]


def bath_heat_flux(C: np.ndarray, model: SystemModel) -> np.ndarray:
    """Net power each bath feeds its oscillator, W (positive = bath heats mode).

    Computed as injected stochastic power minus dissipated power,
    P_i = S_0,i/(2 m_i) - 2 gamma_i m_i <v_i^2> (``model.injected_power`` and
    ``model.damping_coefficient``).  Under the default noise convention this
    equals 2 gamma k_B (T - T'_kin): the flux is set by the bath/mode
    temperature gap alone, whatever produced the gap.
    """
    return model.injected_power - model.damping_coefficient * np.diag(C)[1::2]


def feedback_heat_flux(C: np.ndarray, model: SystemModel) -> np.ndarray:
    """Power each feedback force injects into its oscillator, W.

    P_fb,i = S_ext,i/(2 m_i) + B_i <v_i^2> + A_i <u_i v_i>, the first term
    being ``model.feedback_noise_power``.  The last term
    vanishes in any stationary state; it is kept so that the balance
    Sum(P_bath + P_fb) = 0 holds identically, not just on exact solves.
    """
    P = np.zeros(len(model.oscillators))
    for i, o in enumerate(model.oscillators):
        fb = model.feedbacks.get(o.label)
        if fb is None:
            continue
        u, v = 2 * i, 2 * i + 1
        P[i] = (
            model.feedback_noise_power[i]
            + fb.velocity_gain * C[v, v]
            + fb.position_gain * C[u, v]
        )
    return P


def normal_modes(matrices: StateMatrices) -> NormalModes:
    """Eigenmodes of the drift matrix, reporting each conjugate pair once.

    The eigenvalues are those of the quasi-triangular factor T of
    ``matrices.schur``, which is similar to the drift; a solve of the same
    compiled model has already computed it, and a drift that no solve has
    seen is factored here.  Only eigenvalues are taken, so a drift that is
    not diagonalizable (critical damping, say) needs no special case.
    """
    lam = np.linalg.eigvals(matrices.schur[1])
    # One representative per conjugate pair: keep Im >= 0.
    lam_k = lam[lam.imag >= 0]
    lam_k = lam_k[np.argsort(lam_k.imag, kind="stable")]
    return NormalModes(frequencies=np.abs(lam_k.imag), linewidths=-2.0 * lam_k.real)


def steady_state(model: SystemModel) -> SteadyState:
    """Compile, solve, and assemble every stationary quantity in one call."""
    C, residual, _ = _solve_stationary(compile(model))
    t_pos, t_kin = mode_temperatures(C, model)
    return SteadyState(
        covariance=C,
        mode_temperature_positional=t_pos,
        mode_temperature_kinetic=t_kin,
        bath_flux=bath_heat_flux(C, model),
        feedback_flux=feedback_heat_flux(C, model),
        residual=residual,
    )
