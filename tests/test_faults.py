"""What the flux experiments' verdicts see: named faults and the checks they trip.

Each fault scales one quantity by a stated factor, by monkeypatching the one
function or model property that defines it, and runs the experiments it
names from their shipped configs at the default seed: ``coupled_transfer``
and ``cold_damping``, and ``spectrum`` where the fault changes a number that
``spectrum`` reads.  The test pins the set of checks that then fail; an
unfaulted run fails none.  A fault that no check trips is in the table too:
the compiled spring feeds the exact and the MC route alike, so no comparison
of the two can see it, and a 5 % larger one-step noise covariance moves the
spectral temperature by less than its 5 % tolerance.
"""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

from modeheat import DEFAULT_SEED, LargeStepWarning, SystemModel, fluxlab, langevin, model, spectra
from modeheat.config import load_config
from modeheat.experiments import run_experiment

from conftest import REPO

EXPERIMENTS = ("coupled_transfer", "cold_damping", "spectrum")


def _scaled_property(name, factor, entries=slice(None)):
    """Scale the ``entries`` of a cached per-model array property."""
    original = getattr(SystemModel, name).func

    def scaled(self):
        values = np.array(original(self))
        values[entries] *= factor
        return values

    return lambda monkeypatch: monkeypatch.setattr(SystemModel, name, property(scaled))


def _wrapped(home, name, wrap):
    """Replace function ``name`` of module ``home`` by ``wrap(original)`` in
    every modeheat module that binds it."""

    def install(monkeypatch):
        original = getattr(home, name)
        replacement = wrap(original)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("modeheat") and (
                getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, replacement)

    return install


def _times(factor):
    return lambda f: lambda *args, **kwargs: factor * f(*args, **kwargs)


def _noise_times(factor):
    """One-step noise covariance Q scaled by ``factor`` (its factor Lq by the root)."""

    def wrap(f):
        def operators(*args):
            E, Lq = f(*args)
            return E, math.sqrt(factor) * Lq

        return operators

    return wrap


def _kinetic_se_times(factor):
    def wrap(f):
        def temperatures(*args):
            mc = f(*args)
            return dataclasses.replace(mc, kinetic_se=factor * mc.kinetic_se)

        return temperatures

    return wrap


def _spring_times(factor):
    def wrap(f):
        def compiled(m):
            springs = tuple(
                dataclasses.replace(c, spring_constant=factor * c.spring_constant)
                for c in m.couplings
            )
            return f(dataclasses.replace(m, couplings=springs))

        return compiled

    return wrap


_BALANCE = {"energy_balance", "feedback_balances_bath_A", "flux_gap_identity_A", "p_gap_mc_4se_A"}
_PAIR_GAP = {"p_gap_vs_lyap_A", "p_gap_vs_lyap_B", "antisymmetry_mc"}
_COOLING = {"cooling_ratio_lyap_A", "flux_gap_identity_A", "p_gap_mc_4se_A"}
_MC = {"p_gap_mc_4se_A", "t_kin_mc_4se_A"}
_POWER = {"antisymmetry_lyap", "energy_balance", "p_gap_vs_lyap_A", "p_gap_vs_lyap_B"}


def _flux(pair, cooling):
    """Failing checks of the two flux experiments."""
    return {"coupled_transfer": pair, "cold_damping": cooling}


_GAP_LINE = _flux({"p_gap_vs_lyap_B"}, {"flux_gap_identity_A", "p_gap_mc_4se_A"})

# fault name -> (installer, failing checks by experiment run)
FAULTS = {
    "injected_power x1.05": (
        _scaled_property("injected_power", 1.05),
        _flux(_POWER, _BALANCE),
    ),
    "damping_coefficient x1.05": (
        _scaled_property("damping_coefficient", 1.05),
        _flux(_POWER, _BALANCE),
    ),
    "equilibrium_temperature x1.05": (
        _scaled_property("equilibrium_temperature", 1.05),
        {**_flux(_PAIR_GAP, _COOLING), "spectrum": {"band_temperature"}},
    ),
    "kinetic kelvin_per_moment x1.05": (
        _scaled_property("kelvin_per_moment", 1.05, slice(1, None, 2)), _flux(_PAIR_GAP, _COOLING),
    ),
    "one-step noise covariance Q x1.05": (
        _wrapped(langevin, "_one_step_operators", _noise_times(1.05)),
        {**_flux(_PAIR_GAP, _MC), "spectrum": set()},
    ),
    "flux_from_gap x1.05": (_wrapped(fluxlab, "flux_from_gap", _times(1.05)), _GAP_LINE),
    "flux_gap_slope x1.05": (_wrapped(fluxlab, "flux_gap_slope", _times(1.05)), _GAP_LINE),
    "MC kinetic SE x0.1": (
        _wrapped(langevin, "mode_temperature_mc", _kinetic_se_times(0.1)), _flux(_PAIR_GAP, _MC),
    ),
    "compiled spring x1.05": (
        _wrapped(model, "_compile", _spring_times(1.05)), _flux(set(), set()),
    ),
    "Welch window normalisation x1.05": (
        _wrapped(spectra, "_one_sided_density", _times(1.05)), {"spectrum": {"parseval_full_band"}},
    ),
}


def _checks(experiments):
    """The checks of each of ``experiments``, by experiment."""
    checks = {}
    for name in experiments:
        cfg = load_config(REPO / "configs" / f"{name}.json")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LargeStepWarning)
            checks[name] = run_experiment(cfg, DEFAULT_SEED, 1).checks
    return checks


def _failed(checks):
    return {name: {c.name for c in cs if not c.passed} for name, cs in checks.items()}


def test_unfaulted_runs_fail_no_check():
    assert _failed(_checks(EXPERIMENTS)) == {name: set() for name in EXPERIMENTS}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_trips_its_checks(monkeypatch, fault):
    install, expected = FAULTS[fault]
    clean = _checks(expected)
    install(monkeypatch)
    faulted = _checks(expected)
    # the fault is live, also where it trips nothing: some check reads another number
    assert faulted != clean
    assert _failed(faulted) == expected
