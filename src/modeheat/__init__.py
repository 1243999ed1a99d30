"""Numerical laboratory for heat transfer between thermally driven,
linearly coupled harmonic oscillators with feedback forces.

Every stationary quantity is computed two independent ways: exactly, from
the Lyapunov equation of the compiled linear system, and stochastically,
from seeded Langevin trajectories with spectral thermometry on top.  The
package exists to check the two routes against each other.
"""

from .constants import BOLTZMANN, DEFAULT_SEED, RNG_ALGORITHM
from .errors import (
    BandOutOfRange,
    ConfigError,
    DegenerateBand,
    FingerprintMismatch,
    IllConditioned,
    LargeStepWarning,
    ModeheatError,
    NonFiniteState,
    NonPositiveStiffness,
    NotHurwitz,
    RecordTooShort,
    ShortBurnInWarning,
    StepTooLarge,
    UnknownLabel,
    UnknownPair,
    UnstableFeedback,
    ZeroDamping,
)
from .fluxlab import (
    BulkComparison,
    bulk_delta_T,
    compare_mode_vs_bulk,
    comparison_to_json,
    comparison_to_text,
    flux_from_gap,
    flux_gap_slope,
    gap_from_flux,
)
from .langevin import (
    Ensemble,
    EnsembleStats,
    Estimate,
    McTemperatures,
    RecordGrid,
    SimConfig,
    Trajectory,
    ensemble_stats,
    integrate,
    mode_temperature_mc,
    simulate,
    simulate_stats,
)
from .model import (
    CouplingSpec,
    FeedbackSpec,
    OscillatorSpec,
    StateMatrices,
    SystemModel,
    compile,
    coupling_g,
    model_from_dict,
)
from .spectra import (
    BandTemperature,
    PeakFit,
    Psd,
    WelchReducer,
    fit_lorentzian,
    psd_to_csv,
    temperature_from_area,
    welch_psd,
)
from .steady import (
    NormalModes,
    SteadyState,
    bath_heat_flux,
    feedback_heat_flux,
    mode_temperatures,
    normal_modes,
    solve_stationary,
    steady_state,
)

__version__ = "0.1.0"

__all__ = [
    "BOLTZMANN",
    "DEFAULT_SEED",
    "RNG_ALGORITHM",
    "__version__",
    # model
    "OscillatorSpec",
    "FeedbackSpec",
    "CouplingSpec",
    "SystemModel",
    "StateMatrices",
    "compile",
    "coupling_g",
    "model_from_dict",
    # steady
    "SteadyState",
    "NormalModes",
    "solve_stationary",
    "mode_temperatures",
    "bath_heat_flux",
    "feedback_heat_flux",
    "normal_modes",
    "steady_state",
    # langevin
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
    # spectra
    "Psd",
    "PeakFit",
    "BandTemperature",
    "welch_psd",
    "WelchReducer",
    "temperature_from_area",
    "fit_lorentzian",
    "psd_to_csv",
    # fluxlab
    "BulkComparison",
    "flux_gap_slope",
    "flux_from_gap",
    "gap_from_flux",
    "bulk_delta_T",
    "compare_mode_vs_bulk",
    "comparison_to_json",
    "comparison_to_text",
    # errors
    "ModeheatError",
    "UnknownLabel",
    "UnknownPair",
    "UnstableFeedback",
    "NonPositiveStiffness",
    "NotHurwitz",
    "IllConditioned",
    "LargeStepWarning",
    "ShortBurnInWarning",
    "StepTooLarge",
    "NonFiniteState",
    "FingerprintMismatch",
    "RecordTooShort",
    "BandOutOfRange",
    "DegenerateBand",
    "ZeroDamping",
    "ConfigError",
]
