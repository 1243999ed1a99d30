"""Exception hierarchy shared by all modeheat modules."""


class ModeheatError(Exception):
    """Base class for every error raised by this package."""


# --- model construction / compilation ---------------------------------------

class UnknownLabel(ModeheatError):
    """A coupling or feedback refers to an oscillator label that does not exist."""


class UnknownPair(UnknownLabel):
    """The requested oscillator pair has no coupling entry."""


class UnstableFeedback(ModeheatError):
    """Feedback gains destabilize an oscillator (m*omega^2 - A <= 0 or 2*gamma*m - B <= 0)."""


class NonPositiveStiffness(ModeheatError):
    """The effective stiffness matrix is not positive definite; no bound stationary state."""


# --- stationary solves -------------------------------------------------------

class NotHurwitz(ModeheatError):
    """The drift matrix has an eigenvalue with nonnegative real part; no stationary state."""


class IllConditioned(ModeheatError):
    """The stationary covariance could not be solved to the required residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


# --- stochastic simulation ---------------------------------------------------

class LargeStepWarning(UserWarning):
    """dt * omega_max > 0.05 was overridden; spectra will not resolve the resonance."""


class ShortBurnInWarning(UserWarning):
    """Burn-in shorter than 5 damping times; stationary averages may carry transients."""

class StepTooLarge(ModeheatError):
    """Time step violates dt * omega_max <= 0.05 and the override flag is not set."""


class NonFiniteState(ModeheatError):
    """Integration produced NaN/inf, signalling instability or an unsafe override."""


class FingerprintMismatch(ModeheatError):
    """Trajectories or estimators were mixed across different models."""


# --- spectral analysis -------------------------------------------------------

class RecordTooShort(ModeheatError):
    """The trajectory is shorter than one analysis segment."""


class BandOutOfRange(ModeheatError):
    """The requested frequency band falls outside the PSD grid."""


class DegenerateBand(ModeheatError):
    """Too few PSD points in the band to fit a peak (< 8)."""


# --- flux arithmetic ----------------------------------------------------------

class ZeroDamping(ModeheatError):
    """Temperature gap from flux is undefined at gamma = 0."""


# --- CLI / configuration -------------------------------------------------------

class ConfigError(ModeheatError):
    """Experiment configuration is missing, malformed, or fails schema validation."""
