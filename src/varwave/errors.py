"""Exception types shared across the package."""


class VarwaveError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(VarwaveError):
    """The inputs are invalid (the CLI exits 1); other errors are faults of the run."""


class BoundsViolation(ConfigError):
    """Sampled wave speed or its derivative breaches the declared bounds."""


class SpeedNotIncreasing(ConfigError):
    """c'(u0) <= 0, so the steepening mechanism is absent at the base angle."""


class HypothesisViolated(ConfigError):
    """A precondition of the blow-up construction does not hold."""


class DomainMismatch(ConfigError):
    """Grid endpoints disagree with the problem domain."""


class NonFiniteState(VarwaveError):
    """A solver step produced inf/nan entries.

    Carries the last finite state so callers can inspect how far the run got.
    """

    def __init__(self, message: str, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class PathLeftDomain(VarwaveError):
    """A traced characteristic exited the computational domain."""


class NoIntersection(VarwaveError):
    """Two characteristic paths did not cross before the run ended."""
