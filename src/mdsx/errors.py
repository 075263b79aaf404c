"""Exception types raised across the package."""


class MdsxError(Exception):
    """Base class for all package errors."""


# -- field construction and arithmetic --------------------------------------

class NonPrimeCharacteristic(MdsxError):
    pass


class SizeBudgetExceeded(MdsxError):
    pass


class ContextMismatch(MdsxError):
    pass


class DivisionByZero(MdsxError, ZeroDivisionError):
    pass


class NoBaseField(MdsxError):
    pass


# -- linear algebra ----------------------------------------------------------

class NotSquare(MdsxError):
    pass


class InconsistentSystem(MdsxError):
    pass


class BadDims(MdsxError):
    pass


class BadK(MdsxError):
    pass


class DuplicateNode(MdsxError):
    pass


class ZeroMultiplier(MdsxError):
    pass


class ZeroMatrix(MdsxError):
    pass


class RankDeficient(MdsxError):
    pass


# -- codes and covering ------------------------------------------------------

class LengthMismatch(MdsxError):
    pass


class NotReduced(MdsxError):
    """A code's generator is not its own RREF with no zero rows."""


class BadEncoding(MdsxError):
    """A vector entry is not a field element's encoding in [0, q)."""


class BudgetExceeded(MdsxError):
    pass


class NotMds(MdsxError):
    pass


class CoveringRadiusDeficient(MdsxError):
    """The minor-based deep-hole test requires full covering radius."""


class BadRho(MdsxError):
    pass


class BadLimit(MdsxError):
    """A limit on the number of results is negative."""


class PoleCollision(MdsxError):
    pass


class BadU(MdsxError):
    pass


class InvariantViolation(MdsxError):
    """A relation that must hold by construction failed on concrete data."""


# -- CLI / serialization -----------------------------------------------------

class ParseError(MdsxError):
    pass


class InvalidSpec(MdsxError):
    pass


class UnknownSuite(MdsxError):
    pass
