"""Shared model factories for the test suite.

Two parameter scales recur: a "fast" oscillator (100 kHz, gamma = 10/s)
whose stationary statistics can be sampled coarsely with the exact
integrator, and a "spectral" oscillator (20 kHz, gamma = 25/s) slow enough
that a 50 kHz record resolves its resonance line.
"""

import math
import os
from pathlib import Path

# The integrator's small matrix products run fastest on one OpenBLAS thread;
# OpenBLAS reads this once, when numpy first loads, which is after this line.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from modeheat import CouplingSpec, FeedbackSpec, OscillatorSpec, SystemModel  # noqa: E402

REPO = Path(__file__).resolve().parents[1]

OMEGA_FAST = 2 * math.pi * 1e5
OMEGA_SPEC = 2 * math.pi * 20e3

# 500.25 resonance periods.  An integer number of periods phase-locks the
# sampled quadratures and inflates the u^2 autocorrelation time; the extra
# quarter period decorrelates them.
DT_FAST = 5.0025e-3


def single_oscillator(
    temperature=300.0,
    gamma=10.0,
    mass=1e-12,
    omega=OMEGA_FAST,
    feedbacks=None,
    noise_factor=4.0,
):
    return SystemModel(
        oscillators=(OscillatorSpec("A", mass, omega, gamma, temperature),),
        feedbacks=feedbacks or {},
        noise_factor=noise_factor,
    )


def oscillator_pair(
    g_over_gamma=10.0,
    t_a=300.0,
    t_b=300.0,
    gamma=10.0,
    mass=1e-12,
    omega=OMEGA_FAST,
    noise_factor=4.0,
):
    """Degenerate pair with the spring set from the coupling rate g."""
    k_c = 2.0 * mass * omega * (g_over_gamma * gamma)
    return SystemModel(
        oscillators=(
            OscillatorSpec("A", mass, omega, gamma, t_a),
            OscillatorSpec("B", mass, omega, gamma, t_b),
        ),
        couplings=(CouplingSpec(("A", "B"), k_c),),
        noise_factor=noise_factor,
    )


def cold_damped(gamma_fb_over_gamma=3.0, temperature=300.0, gamma=10.0, mass=1e-12):
    b = -2.0 * mass * (gamma_fb_over_gamma * gamma)
    return single_oscillator(
        temperature=temperature,
        gamma=gamma,
        mass=mass,
        feedbacks={"A": FeedbackSpec(velocity_gain=b)},
    )


@pytest.fixture()
def fast_model():
    return single_oscillator()


@pytest.fixture()
def spec_model():
    return single_oscillator(omega=OMEGA_SPEC, gamma=25.0)
