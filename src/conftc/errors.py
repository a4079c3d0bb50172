"""Exception types shared across the package, and the size-guard policy.

Three guards bound a request: the basis guard (``basis_limit``) on every
monomial basis listed, the tensor-term guard (``check_term_limit``) on the
tensor terms a certificate holds, and the slot guard on the tensor slots
its product writes.  Their default limits live here.  Above the algebra
constructors one switch, ``allow_large``, lifts all three.
"""

import os

DEFAULT_MAX_BASIS = 10**5
DEFAULT_TERM_LIMIT = 10**6
# The most tensor slots a certificate product may write: each of its factors
# writes at least one term of s slots, so s times the factor count, checked
# before any factor is built.  It takes a few seconds to write.
DEFAULT_SLOT_LIMIT = 10**8
MAX_BASIS_ENV = "TCCONF_MAX_BASIS"


class ConftcError(Exception):
    """Base class for package-specific failures."""


class SizeGuardError(ConftcError):
    """A requested computation exceeds a configured size bound, which its message names."""


class ConfigurationError(ConftcError):
    """An environment setting holds a value the package cannot use."""


class VerificationError(ConftcError):
    """A machine check that is expected to succeed came back false."""


def basis_limit(max_basis=None):
    """The basis guard: ``max_basis``, else TCCONF_MAX_BASIS, else 10^5.

    The environment is read on every call, so callers that cache on the
    limit see a changed setting.  A value that is not a nonnegative
    integer raises :class:`ConfigurationError`.
    """
    if max_basis is not None:
        return max_basis
    text = os.environ.get(MAX_BASIS_ENV)
    if text is None:
        return DEFAULT_MAX_BASIS
    try:
        limit = int(text)
        if limit < 0:
            raise ValueError
    except ValueError:
        raise ConfigurationError(
            f"{MAX_BASIS_ENV} must be a nonnegative integer, got {text!r}"
        ) from None
    return limit


def check_term_limit(count, limit, what):
    """Refuse ``what`` if it holds more than ``limit`` tensor terms (None: no limit)."""
    if limit is not None and count > limit:
        raise SizeGuardError(f"{what} holds {count} tensor terms, which exceeds the limit {limit}")
