"""Exception types shared across the package."""


class ConewalkError(Exception):
    """Base class for all errors raised by this package."""


# -- coefficient ring ------------------------------------------------------

class ZeroInverse(ConewalkError):
    """Attempted to invert 0 in GF(p)."""


class InvertibleAssignedZero(ConewalkError):
    """An invertible-flagged parameter was assigned the value 0."""


class UnassignedParameter(ConewalkError):
    """A parameter appearing in a coefficient has no assigned value."""


class ModulusMismatch(ConewalkError):
    """Operands live over different primes or parameter rings."""


# -- polynomials -----------------------------------------------------------

class UniverseMismatch(ConewalkError):
    """Operands live in different variable universes."""


class ZeroPolynomial(ConewalkError):
    """Operation undefined for the zero polynomial."""


class UnknownVariable(ConewalkError):
    """Variable name not present in the universe."""


class ExponentOverflow(ConewalkError):
    """An exponent or a term degree does not fit its field of a packed
    monomial key."""


class ParseError(ConewalkError):
    """Polynomial text does not match the grammar.

    Carries the character position of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- factorization ---------------------------------------------------------

class DegreeTooLargeForPrime(ConewalkError):
    """p <= deg^2, so random plane slices carry no statistical weight."""


class FactorsNotCoprime(ConewalkError):
    """Hensel lifting was started from factors with a common divisor."""


class FactorizationFailure(ConewalkError):
    """Bivariate factorization cannot proceed: the characteristic is too
    small, no shear reaches v-regular position, no expansion point keeps
    the input squarefree, or the factors do not re-multiply to it; or
    the characteristic is too large for the packed smooth-point search."""


# -- constructions ---------------------------------------------------------

class IndexOutOfRange(ConewalkError):
    """Index j outside the valid range of the construction."""


class EjTooSmall(ConewalkError):
    """Chosen column has ladder value e = 0; no cone step possible there."""


class EjExhausted(ConewalkError):
    """No column has ladder value e >= 1; the induction has terminated."""


class DivisionFailure(ConewalkError):
    """A division expected to be exact (monomial, or in F[u][v]) left a remainder."""


class StepInvariantViolated(ConewalkError):
    """A cone step produced a state whose ladder values or degrees are off."""


class SamplingExhausted(ConewalkError):
    """Point sampling budget ran out before a region point was found."""


# -- inputs ----------------------------------------------------------------

class InputTooLarge(ConewalkError, ValueError):
    """An input passes a documented size limit: the prime p, or the
    variable count of a walk's universe.  It is raised before anything of
    that size is built, and, as a ValueError, is a usage error."""


# -- bounds ----------------------------------------------------------------

class NonIntegralResult(ConewalkError):
    """A closed form that must be an integer evaluated to a non-integer."""


# -- chain skeletons -------------------------------------------------------

class RDivisibilityViolated(ConewalkError):
    """Subdivision count r is not divisible by the coefficient modulus c."""

