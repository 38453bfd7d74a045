"""Exception taxonomy shared across the package, and the one domain check
for numeric arguments."""
import math


class KorenblumError(Exception):
    """Base class for all package-specific errors."""


class DomainError(KorenblumError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


def positive(name: str, value, least=0, *, closed=False):
    """Return ``value`` if it is a finite number above ``least`` (at least
    ``least`` when ``closed``); raise :class:`DomainError` naming it otherwise.

    The comparisons are written so that NaN fails them.
    """
    above = least <= value if closed else least < value
    if not (above and value < math.inf):
        bound = ">=" if closed else ">"
        raise DomainError(f"{name} must be a finite number {bound} {least}, got {value}")
    return value


class QuadratureDivergence(KorenblumError):
    """Adaptive quadrature exhausted its refinement budget.

    Signals an effectively non-integrable integrand, typically a weight
    whose singular behaviour near r = 1 is too strong.
    """


class MonotonicityViolation(KorenblumError):
    """A provably monotone quantity decreased beyond quadrature error.

    Integral means are nondecreasing in the radius; a violation beyond
    the estimated quadrature error indicates a misconfigured mean
    computation, not a mathematical surprise.
    """


class NoCertificate(KorenblumError):
    """The certification scan found no radius with a positive margin."""


class NoWitnessFound(KorenblumError):
    """The counterexample search exhausted its grid without a witness."""
