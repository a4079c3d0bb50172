"""Exception types shared across the package, and the tensor-term guard."""


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


def check_term_limit(count, limit, what):
    """Refuse ``what`` if it holds more than ``limit`` tensor terms (None: no limit)."""
    if limit is not None and count > limit:
        raise SizeGuardError(
            f"{what} holds {count} tensor terms, which exceeds the limit {limit}",
            estimate=count,
            limit=limit,
        )
