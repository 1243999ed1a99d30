"""Numerical laboratory for heat transfer between thermally driven,
linearly coupled harmonic oscillators with feedback forces.

Every stationary quantity is computed two independent ways: exactly, from
the Lyapunov equation of the compiled linear system, and stochastically,
from seeded Langevin trajectories with spectral thermometry on top.  The
package exists to check the two routes against each other.

The public names below load lazily: each submodule is imported at the first
access to one of its names (PEP 562), so ``import modeheat`` loads neither
numpy nor any submodule.
"""

import importlib

__version__ = "0.1.0"

# The public names, keyed by the submodule that defines them.
_EXPORTS = {
    "constants": ("BOLTZMANN", "DEFAULT_SEED", "RNG_ALGORITHM"),
    "model": (
        "OscillatorSpec", "FeedbackSpec", "CouplingSpec", "SystemModel", "StateMatrices",
        "compile", "coupling_g", "model_from_dict",
    ),
    "steady": (
        "SteadyState", "NormalModes", "solve_stationary", "mode_temperatures",
        "bath_heat_flux", "feedback_heat_flux", "normal_modes", "steady_state",
    ),
    "langevin": (
        "SimConfig", "RecordGrid", "Ensemble", "Trajectory", "EnsembleStats", "Estimate",
        "McTemperatures", "integrate", "simulate", "simulate_stats", "ensemble_stats",
        "mode_temperature_mc",
    ),
    "spectra": (
        "Psd", "PeakFit", "BandTemperature", "welch_psd", "WelchReducer",
        "temperature_from_area", "fit_lorentzian", "psd_to_csv",
    ),
    "fluxlab": (
        "BulkComparison", "flux_gap_slope", "flux_from_gap", "gap_from_flux", "bulk_delta_T",
        "compare_mode_vs_bulk", "comparison_to_json", "comparison_to_text",
    ),
    "errors": (
        "ModeheatError", "UnknownLabel", "UnknownPair", "UnstableFeedback",
        "NonPositiveStiffness", "NotHurwitz", "IllConditioned", "LargeStepWarning",
        "ShortBurnInWarning", "StepTooLarge", "NonFiniteState", "FingerprintMismatch",
        "RecordTooShort", "BandOutOfRange", "DegenerateBand", "ZeroDamping", "ConfigError",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """A public name, from its submodule, cached here; or a submodule itself."""
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    if not name.startswith("_"):
        try:
            # importing a submodule binds it here, so this runs once per submodule
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
