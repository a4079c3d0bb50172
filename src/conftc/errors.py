"""Exception types shared across the package."""


class ConftcError(Exception):
    """Base class for package-specific failures."""


class SizeGuardError(ConftcError):
    """A requested computation exceeds a configured size bound.

    Carries the offending estimate and the limit so callers (notably the
    CLI) can report exactly which bound failed.
    """

    def __init__(self, message, estimate=None, limit=None):
        super().__init__(message)
        self.estimate = estimate
        self.limit = limit


class ConfigurationError(ConftcError):
    """An environment setting holds a value the package cannot use."""


class VerificationError(ConftcError):
    """A machine check that is expected to succeed came back false."""
