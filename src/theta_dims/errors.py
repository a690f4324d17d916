"""Exception types shared across the package."""


class ThetaDimsError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ThetaDimsError):
    """Bad or oversized input, the user's to fix: exit 2 on the command line."""


class NotAGroup(InputError):
    """A Cayley table violates a group axiom; the message names the first
    violated axiom and a witness."""


class FixtureMismatch(ThetaDimsError):
    """Reference data, an element fixture or a known order, does not match the built group."""


class NonIntegralDimension(ThetaDimsError):
    """An averaged character sum failed to be a nonnegative integer.

    This is an internal consistency trap: no valid input can trigger it.
    """


class SimplificationMismatch(ThetaDimsError):
    """The reduced sum over classes disagrees with the direct sum over the coset."""


class MixedRadicand(InputError):
    """Arithmetic attempted between quadratic values over different radicands."""


class ParseError(InputError):
    """A data file is malformed."""


class OrthogonalityViolation(InputError):
    """A character table fails exact row orthogonality."""


class PowerMapViolation(InputError):
    """A character table's square or cube map fails the integrality of
    <chi_i(g^k), chi_j>."""


class NonRealValue(InputError):
    """A declared table value cannot live in the stated real quadratic field."""


class IndicatorOutOfRange(InputError):
    """A squared-power average landed outside {-1, 0, +1} (table corruption)."""


class TooLarge(InputError):
    """Input exceeds a size guard for an exact dense computation."""


class ProjectorNotIdempotent(ThetaDimsError):
    """The averaged action matrix failed P*P == P (bug trap)."""


class ExactnessViolation(ThetaDimsError):
    """A bound that keeps integer arithmetic exact failed: a float64 or int64
    product could round or wrap, or the monomial rank is not a bijection (bug
    trap)."""


class HalfwayPoint(ThetaDimsError):
    """A nearest-integer rounding hit an exact .5 tie (provably impossible)."""
