"""Exception hierarchy shared across the package.

Every domain error derives from GraftError, and every input error is a
ValueError; the CLI maps the first to exit code 1 and the second to 2.
UnknownChart, UnknownSuite and BadConfiguration name input the caller
got wrong, so they are input errors (ValueError), not domain errors.
"""


class GraftError(Exception):
    """Base class for domain errors raised by graftkit operations."""


class ZeroTwister(GraftError):
    """Dehn twist requested about the zero homology class."""


class NonPrimitive(GraftError):
    """A primitive (gcd 1) torus class was required."""


class DegeneratePosition(GraftError):
    """Oracle curves are not in general position (shared point, overlap)."""


class BadIntersectionPattern(GraftError):
    """Configuration curves violate the required chart intersection counts."""


class NotAdmissible(GraftError):
    """Grafting curve admits neither the disjoint nor the spiraling route."""


class UnknownChart(ValueError):
    """Named chart does not exist in the surface model."""


class OddMultiplicity(GraftError):
    """Decomposition requires even multiplicities; offender is named."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"component {label!r} has odd multiplicity")


class BadConfiguration(ValueError):
    """Complex construction was given an invalid base configuration."""


class UnknownSuite(ValueError):
    """Verification suite name is not one of the known suites."""
