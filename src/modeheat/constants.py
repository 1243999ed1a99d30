"""Physical constants and project-wide defaults."""

# Exact SI value (2019 redefinition), J/K.
BOLTZMANN = 1.380649e-23

# Default seed used by the CLI and the shipped experiment configs so that
# fresh clones reproduce the published tables byte for byte.
DEFAULT_SEED = 20191219

# Seeds key a 64-bit counter-based generator: 0 <= seed < SEED_LIMIT.
SEED_LIMIT = 2**64

# Name of the counter-based generator backing every stochastic run.  Streams
# are keyed by (seed, ensemble_index), so ensemble members are independent
# and individually reproducible on any platform.
RNG_ALGORITHM = "numpy.random.Philox (Philox4x64-10), key=(seed, ensemble_index)"

# Damping rate (1/s) at which an 18 K mode-temperature gap carries
# 6.5e-21 W through the flux-gap relation; used by the published-numbers
# closure experiment.
MODE_DAMPING_RATE_REFERENCE = 13.08

# Lumped thermal resistance (K/W) at which 3.5e-6 W of absorbed radiation
# warms the bulk by 0.02 K; the bulk side of the energy-scale comparison.
BULK_THERMAL_RESISTANCE_REFERENCE = 5.71e3

# Quoted values of the reference scenario the closure experiment checks:
# a mode-channel flux/gap pair and a bulk-channel flux/temperature pair.
# The two rates above are derived by inversion from these four numbers.
REFERENCE_MODE_FLUX = 6.5e-21  # W
REFERENCE_MODE_GAP = 18.0  # K
REFERENCE_BULK_FLUX = 3.5e-6  # W
REFERENCE_BULK_DELTA_T = 0.02  # K
