"""Exact stationary statistics against independent oracles.

The package's Lyapunov solve is a Schur-based (Bartels-Stewart) solve with
stiffness scaling, refinement and exact structural zeros; tests check it
against a dense Kronecker-product solve and against closed forms, so a defect
in either route cannot hide.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from modeheat import (
    BOLTZMANN,
    CouplingSpec,
    FeedbackSpec,
    IllConditioned,
    NotHurwitz,
    OscillatorSpec,
    StateMatrices,
    SystemModel,
    bath_heat_flux,
    compile,
    coupling_g,
    feedback_heat_flux,
    mode_temperatures,
    normal_modes,
    solve_stationary,
    steady_state,
)
from modeheat import steady
from modeheat.steady import REQUIRED_RESIDUAL, lyapunov_residual

from conftest import OMEGA_FAST, cold_damped, oscillator_pair, single_oscillator

FIXTURES = [
    single_oscillator(),
    single_oscillator(noise_factor=8.0),
    cold_damped(),
    oscillator_pair(g_over_gamma=0.1, t_a=400.0, t_b=200.0),
    oscillator_pair(g_over_gamma=100.0, t_a=400.0, t_b=200.0),
    SystemModel(
        oscillators=(
            OscillatorSpec("A", 1e-12, OMEGA_FAST, 10.0, 300.0),
            OscillatorSpec("B", 5e-12, 0.7 * OMEGA_FAST, 40.0, 77.0),
            OscillatorSpec("C", 2e-13, 1.3 * OMEGA_FAST, 2.0, 500.0),
        ),
        couplings=(
            CouplingSpec(("A", "B"), 1e-4),
            CouplingSpec(("B", "C"), -2e-5),
        ),
        feedbacks={"C": FeedbackSpec(velocity_gain=-1e-12, noise_psd=1e-31)},
    ),
]


def balanced(mats):
    """Positions scaled by their stiffness frequency: the scale s, S M S^-1 and S D S.

    On the raw first-order form the eigenvalue sums (~ -2 gamma) are ~1e-11 of
    the matrix norm (~ Omega^2) and any direct solve loses digits; scaled, the
    position and velocity rows carry comparable magnitudes.
    """
    s = np.ones(mats.drift.shape[0])
    s[0::2] = np.sqrt(-np.diag(mats.drift, -1)[0::2])
    return s, s[:, None] * mats.drift / s, s[:, None] * mats.diffusion * s


def kronecker_oracle(mats):
    """C from the vectorized equation (I (x) M_s + M_s (x) I) vec(C_s) = -vec(D_s), solved
    densely in the balanced coordinates (a 2N^2 x 2N^2 system: small N only)."""
    s, M_s, D_s = balanced(mats)
    eye = np.eye(len(s))
    vec = np.linalg.solve(np.kron(eye, M_s) + np.kron(M_s, eye), -D_s.ravel())
    return vec.reshape(M_s.shape) / np.outer(s, s)


@pytest.mark.parametrize("model", FIXTURES)
def test_solve_matches_scipy_lyapunov(model):
    mats = compile(model)
    C = solve_stationary(mats)
    # Independent reference: a dense Kronecker-product solve (at most 36 x 36 here).
    oracle = kronecker_oracle(mats)
    np.testing.assert_allclose(C, oracle, rtol=1e-9, atol=1e-9 * np.max(np.abs(oracle)))
    # scipy's solver is the unblocked Bartels-Stewart method, a Schur form and
    # one trsyl call.  These fixtures have at most 6 states, below the
    # package's _LEAF, so its recursive kernel is one trsyl call too: the two
    # share the algorithm, not the code, and the comparison catches a defect in
    # the package's scaling, refinement or structural zeros.  The recursion
    # itself is checked against the Kronecker oracle with a small leaf
    # (test_properties) and against scipy on a 100-oscillator chain.
    s, M_s, D_s = balanced(mats)
    plain = scipy.linalg.solve_continuous_lyapunov(M_s, -D_s) / np.outer(s, s)
    np.testing.assert_allclose(C, plain, rtol=1e-9, atol=1e-9 * np.max(np.abs(plain)))
    assert lyapunov_residual(mats, C) <= REQUIRED_RESIDUAL


def feedback_chain(n, seed=None):
    """Nearest-neighbour chain of n oscillators with hybridizing springs, baths from
    100 to 500 K and every fourth oscillator under velocity or position feedback."""
    rng = np.random.default_rng(n if seed is None else seed)
    oscillators = tuple(
        OscillatorSpec(
            f"o{i}",
            1e-12 * rng.uniform(0.5, 2.0),
            OMEGA_FAST * (1.0 + 1e-4 * rng.uniform(-1.0, 1.0)),
            rng.uniform(5.0, 50.0),
            rng.uniform(100.0, 500.0),
        )
        for i in range(n)
    )
    couplings = tuple(
        CouplingSpec((a.label, b.label), 2.0 * a.mass * a.omega * rng.uniform(0.5, 5.0) * a.gamma)
        for a, b in zip(oscillators, oscillators[1:])
    )
    feedbacks = {
        o.label: FeedbackSpec(velocity_gain=-2.0 * o.mass * o.gamma)
        if i % 8 == 0
        else FeedbackSpec(position_gain=1e-4 * o.mass * o.omega**2)
        for i, o in enumerate(oscillators)
        if i % 4 == 0
    }
    return SystemModel(oscillators, couplings, feedbacks)


def test_sixty_oscillator_chain_solves_with_exact_zeros():
    # 120 states, twenty times the largest fixture
    n = 60
    mats = compile(feedback_chain(n))
    C = solve_stationary(mats)
    assert lyapunov_residual(mats, C) <= REQUIRED_RESIDUAL
    for i in range(n):
        assert C[2 * i, 2 * i + 1] == 0.0
        assert C[2 * i + 1, 2 * i] == 0.0


def test_hundred_oscillator_chain_matches_scipy():
    # 200 states: the recursive kernel splits T down three levels to its trsyl leaves
    n = 100
    mats = compile(feedback_chain(n))
    C = solve_stationary(mats)
    assert lyapunov_residual(mats, C) <= REQUIRED_RESIDUAL
    assert np.all(np.diag(C, 1)[0::2] == 0.0) and np.all(np.diag(C, -1)[0::2] == 0.0)
    s, M_s, D_s = balanced(mats)
    plain = scipy.linalg.solve_continuous_lyapunov(M_s, -D_s)
    assert np.linalg.norm(np.outer(s, s) * C - plain) <= 1e-10 * np.linalg.norm(plain)


def block_across_the_middle():
    """Order-6 T in standardized real Schur form whose second 2x2 block, rows 2-3,
    straddles n // 2 = 3, and a symmetric right-hand side C."""
    rng = np.random.default_rng(6)
    T = np.triu(rng.uniform(-1.0, 1.0, (6, 6)))
    # a standardized block [[a, b], [c, a]] with b c < 0 holds a ± i sqrt(-b c)
    for k, a, b, c in ((0, -0.5, 2.0, -0.7), (2, -0.3, 1.5, -3.0)):
        T[k, k] = T[k + 1, k + 1] = a
        T[k, k + 1], T[k + 1, k] = b, c
    T[4, 4], T[5, 5] = -1.2, -0.4
    C = rng.standard_normal((6, 6))
    return T, C + C.T


@pytest.mark.parametrize("leaf", [2, 3])
def test_kernel_never_splits_a_two_by_two_block(monkeypatch, leaf):
    T, C = block_across_the_middle()
    assert T[3, 2] != 0
    monkeypatch.setattr(steady, "_LEAF", leaf)
    (trsyl,) = scipy.linalg.get_lapack_funcs(("trsyl",), (T,))
    X = C.copy()
    steady._lyapunov(trsyl, T, X)
    want = scipy.linalg.solve_continuous_lyapunov(T, C)
    np.testing.assert_allclose(X, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_kernel_up_to_the_leaf_is_one_trsyl_call():
    # every shipped config (at most 4 states) keeps the bits of the unblocked solve
    block, block_rhs = block_across_the_middle()
    cases = [(block, block_rhs)]
    for model in (FIXTURES[-1], feedback_chain(steady._LEAF // 2)):
        _, T, U = compile(model).schur
        cases.append((T, U.T @ compile(model).diffusion @ U))
    assert cases[-1][0].shape == (steady._LEAF, steady._LEAF)
    for T, C in cases:
        (trsyl,) = scipy.linalg.get_lapack_funcs(("trsyl",), (T,))
        Y, y_scale, _ = trsyl(T, T, C, tranb="T")
        X = C.copy()
        steady._lyapunov(trsyl, T, X)
        np.testing.assert_array_equal(X, Y / y_scale)


def test_single_oscillator_closed_form():
    # M C + C M^T + D = 0 by hand: <u v> = 0, <v^2> = S0/(4 gamma m^2),
    # <u^2> = <v^2>/Omega^2.  With S0 = 4 gamma m kB T this is equipartition.
    model = single_oscillator()
    C = solve_stationary(compile(model))
    assert C[0, 0] == pytest.approx(1.0491674315595752e-20, rel=1e-12)
    assert C[1, 1] == pytest.approx(4.1419470000000004e-09, rel=1e-12)
    assert abs(C[0, 1]) <= 1e-12 * math.sqrt(C[0, 0] * C[1, 1])

    t_pos, t_kin = mode_temperatures(C, model)
    assert t_pos[0] == pytest.approx(300.0, rel=1e-12)
    assert t_kin[0] == pytest.approx(300.0, rel=1e-12)


def test_noise_factor_eight_doubles_the_mode_temperature():
    t_pos, t_kin = mode_temperatures(
        solve_stationary(compile(single_oscillator(noise_factor=8.0))),
        single_oscillator(noise_factor=8.0),
    )
    assert t_pos[0] == pytest.approx(600.0, rel=1e-10)
    assert t_kin[0] == pytest.approx(600.0, rel=1e-10)


def test_equal_bath_coupled_pair_is_gibbs():
    # At equal baths the stationary state is the Gibbs state of the coupled
    # stiffness matrix: kinetic temperatures equal T exactly, positional
    # temperatures read T (m Omega^2 + k_c) / (m Omega^2 + 2 k_c) because the
    # bilinear spring stiffens each oscillator.
    model = oscillator_pair(g_over_gamma=10.0)
    ss = steady_state(model)
    np.testing.assert_allclose(ss.mode_temperature_kinetic, [300.0, 300.0], rtol=1e-10)
    np.testing.assert_allclose(
        ss.mode_temperature_positional, [299.9045677881778] * 2, rtol=1e-10
    )
    # equilibrium carries no flux
    assert np.max(np.abs(ss.bath_flux)) <= 1e-8 * 2 * 10.0 * BOLTZMANN * 300.0
    assert ss.covariance[0, 1] == pytest.approx(0.0, abs=1e-30)


def test_covariance_is_linear_in_temperature():
    C1 = solve_stationary(compile(single_oscillator(temperature=150.0)))
    C2 = solve_stationary(compile(single_oscillator(temperature=300.0)))
    np.testing.assert_allclose(C2, 2.0 * C1, rtol=1e-12)


def test_cold_damping_closed_form_and_flux_balance():
    # noiseless velocity feedback: T'_kin = T gamma/(gamma + gamma_fb)
    for ratio, expected in [(1.0, 150.0), (3.0, 75.0), (9.0, 30.0)]:
        model = cold_damped(gamma_fb_over_gamma=ratio)
        ss = steady_state(model)
        assert ss.mode_temperature_kinetic[0] == pytest.approx(expected, rel=1e-10)
        want = 2.0 * 10.0 * BOLTZMANN * (300.0 - expected)
        assert ss.bath_flux[0] == pytest.approx(want, rel=1e-10)
        assert ss.feedback_flux[0] == pytest.approx(-want, rel=1e-10)
        gap = model.oscillators[0].bath_temperature - ss.mode_temperature_kinetic[0]
        assert gap == pytest.approx(300.0 - expected, rel=1e-10)


def test_cooling_is_monotone_in_feedback_gain():
    temps = [
        steady_state(cold_damped(gamma_fb_over_gamma=r)).mode_temperature_kinetic[0]
        for r in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    assert all(a > b for a, b in zip(temps, temps[1:]))


def test_unequal_baths_flux_antisymmetry_and_sign():
    model = oscillator_pair(g_over_gamma=10.0, t_a=400.0, t_b=200.0)
    ss = steady_state(model)
    # the only heat path is A <- bath_A ... bath_B -> B, so the two bath
    # fluxes balance exactly and heat flows from hot to cold
    assert ss.bath_flux[0] == pytest.approx(-ss.bath_flux[1], rel=1e-12)
    assert ss.bath_flux[0] > 0  # hot bath feeds A
    assert ss.mode_temperature_kinetic[0] < 400.0
    assert ss.mode_temperature_kinetic[1] > 200.0


def test_flux_grows_with_coupling_then_saturates():
    fluxes = [
        steady_state(oscillator_pair(g_over_gamma=r, t_a=400.0, t_b=200.0)).bath_flux[0]
        for r in (0.1, 1.0, 10.0, 100.0)
    ]
    assert all(a < b for a, b in zip(fluxes, fluxes[1:]))
    # strong-coupling limit: the pair shares a common temperature, each bath
    # sees half the gap
    limit = 2.0 * 10.0 * BOLTZMANN * 100.0
    assert fluxes[-1] == pytest.approx(limit, rel=0.01)


def test_feedback_noise_heats_the_mode():
    s_ext = 4.0 * 10.0 * 1e-12 * BOLTZMANN * 300.0  # as strong as the thermal drive
    model = single_oscillator(feedbacks={"A": FeedbackSpec(noise_psd=s_ext)})
    ss = steady_state(model)
    assert ss.mode_temperature_kinetic[0] == pytest.approx(600.0, rel=1e-10)
    assert ss.feedback_flux[0] > 0
    assert ss.bath_flux[0] == pytest.approx(-ss.feedback_flux[0], rel=1e-10)


def test_not_hurwitz_without_damping():
    with pytest.raises(NotHurwitz):
        solve_stationary(compile(single_oscillator(gamma=0.0)))


def test_not_hurwitz_when_rounding_leaves_an_undamped_pair_just_stable():
    # A noise-free undamped pair whose Schur form puts every Re(lambda) a
    # rounding error below zero: the solve would return C = 0 with residual 0.
    model = SystemModel(
        oscillators=(
            OscillatorSpec("o0", 8.56946940637837e-13, 628324.088726329, 0.0, 341.0),
            OscillatorSpec("o1", 1.438580456162081e-12, 628263.9334641983, 0.0, 435.0),
        ),
        couplings=(CouplingSpec(("o0", "o1"), 1.3007907106868782e-05),),
    )
    with pytest.raises(NotHurwitz, match="not Hurwitz"):
        solve_stationary(compile(model))


def test_normal_modes_single_oscillator():
    nm = normal_modes(compile(single_oscillator()))
    assert nm.frequencies.shape == (1,)
    assert nm.frequencies[0] == pytest.approx(math.sqrt(OMEGA_FAST**2 - 10.0**2), rel=1e-12)
    assert nm.linewidths[0] == pytest.approx(2 * 10.0, rel=1e-9)


def test_normal_mode_splitting_closed_form():
    model = oscillator_pair(g_over_gamma=10.0)
    nm = normal_modes(compile(model))
    k_c = model.couplings[0].spring_constant
    w_s = math.sqrt(OMEGA_FAST**2 - 100.0)
    w_a = math.sqrt(OMEGA_FAST**2 + 2 * k_c / 1e-12 - 100.0)
    w = np.sort(nm.frequencies)
    np.testing.assert_allclose(w, [w_s, w_a], rtol=1e-12)
    # half the splitting of the two normal modes is the coupling rate
    assert 0.5 * (w[1] - w[0]) == pytest.approx(coupling_g(model, ("A", "B")), rel=0.01)


@pytest.mark.parametrize("g_over_gamma", [0.3, 1.0, 10.0, 100.0])
def test_equal_gamma_normal_modes_match_the_stiffness_closed_form(g_over_gamma):
    # with one damping rate for every oscillator the drift eigenvalues are
    # exactly -gamma +- i sqrt(kappa_j - gamma^2), kappa_j the eigenvalues of
    # the mass-weighted stiffness M^-1/2 K M^-1/2; an unequal-mass pair is
    # swept through its avoided crossing
    gamma, m_a, m_b = 10.0, 1e-12, 2.5e-12
    for detuning in np.linspace(-0.01, 0.01, 21):
        w_a, w_b = OMEGA_FAST, OMEGA_FAST * (1.0 + detuning)
        k_c = 2.0 * g_over_gamma * gamma * math.sqrt(m_a * m_b * w_a * w_b)
        model = SystemModel(
            oscillators=(
                OscillatorSpec("A", m_a, w_a, gamma, 300.0),
                OscillatorSpec("B", m_b, w_b, gamma, 300.0),
            ),
            couplings=(CouplingSpec(("A", "B"), k_c),),
        )
        stiffness = np.array([[m_a * w_a**2 + k_c, -k_c], [-k_c, m_b * w_b**2 + k_c]])
        root_m = np.sqrt([m_a, m_b])
        kappa = np.linalg.eigvalsh(stiffness / np.outer(root_m, root_m))
        nm = normal_modes(compile(model))
        tol = 1e-12 * math.sqrt(kappa[-1])  # max |lambda| = sqrt(max kappa)
        np.testing.assert_allclose(nm.frequencies, np.sqrt(kappa - gamma**2), rtol=0, atol=tol)
        np.testing.assert_allclose(nm.linewidths, 2.0 * gamma, rtol=0, atol=tol)


def test_solve_then_normal_modes_factor_the_drift_once(monkeypatch):
    schur, eigvals = scipy.linalg.schur, np.linalg.eigvals
    factored, eigen_inputs = [], []

    def counted_schur(a, **kwargs):
        factored.append(a)
        return schur(a, **kwargs)

    def recorded_eigvals(a):
        eigen_inputs.append(np.array(a))
        return eigvals(a)

    monkeypatch.setattr(scipy.linalg, "schur", counted_schur)
    monkeypatch.setattr(np.linalg, "eigvals", recorded_eigvals)
    model = oscillator_pair(g_over_gamma=10.0)
    steady_state(model)
    modes = normal_modes(compile(model))
    assert len(factored) == 1
    drift = compile(model).drift
    assert eigen_inputs
    assert not any(a.shape == drift.shape and np.array_equal(a, drift) for a in eigen_inputs)
    lam = np.linalg.eigvals(drift)
    np.testing.assert_allclose(modes.frequencies, np.sort(lam.imag[lam.imag >= 0]), rtol=1e-12)


def test_normal_modes_ignore_defectiveness_for_frequencies():
    # a Jordan block and critical damping gamma = Omega, the physical route to
    # the same non-diagonalizable drift, give their eigenvalues without a warning
    jordan = StateMatrices(
        drift=np.array([[-1.0, 1.0], [0.0, -1.0]]),
        diffusion=np.zeros((2, 2)),
        noise_gain=np.zeros((2, 1)),
    )
    critical = single_oscillator(omega=100.0, gamma=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = normal_modes(jordan)
        nm = normal_modes(compile(critical))
    # both real eigenvalues -1 are reported, each as a zero-frequency entry
    np.testing.assert_array_equal(block.frequencies, [0.0, 0.0])
    np.testing.assert_array_equal(block.linewidths, [2.0, 2.0])
    assert nm.frequencies[0] == pytest.approx(0.0, abs=1e-3)
    assert nm.linewidths[0] == pytest.approx(200.0, rel=1e-6)


def test_ill_conditioned_carries_the_residual():
    err = IllConditioned("stalled", residual=3e-9)
    assert err.residual == 3e-9


@pytest.mark.parametrize("model", [FIXTURES[3], FIXTURES[-1], feedback_chain(20)])
def test_steady_state_reports_the_residual_of_its_last_solve(monkeypatch, model):
    computed = []
    residual = steady._residual

    def spy(*args):
        computed.append(args)
        return residual(*args)

    monkeypatch.setattr(steady, "_residual", spy)
    ss = steady_state(model)
    calls = len(computed)
    mats = compile(model)
    C, res, rounds = steady._solve_stationary(mats)
    assert np.array_equal(C, ss.covariance) and res == ss.residual
    # the first solve and every refinement round form one residual each, and
    # steady_state forms no further one
    assert calls == rounds + 1
    assert ss.residual == lyapunov_residual(mats, ss.covariance)


def test_steady_state_bundles_consistent_pieces():
    model = FIXTURES[-1]
    ss = steady_state(model)
    mats = compile(model)
    np.testing.assert_allclose(ss.covariance, solve_stationary(mats), rtol=0, atol=0)
    np.testing.assert_allclose(ss.bath_flux, bath_heat_flux(ss.covariance, model))
    np.testing.assert_allclose(ss.feedback_flux, feedback_heat_flux(ss.covariance, model))
    # global balance: every watt in comes from a bath or a feedback
    assert abs(np.sum(ss.bath_flux) + np.sum(ss.feedback_flux)) <= 1e-8 * np.sum(
        np.abs(ss.bath_flux)
    )
