"""Exception hierarchy shared across the package."""


class PrdynError(Exception):
    """Base class for all package errors."""


# --- market construction / validation ---

class NonPositiveBudget(PrdynError):
    pass


class EndowmentNotPartition(PrdynError):
    pass


class LazinessOutOfRange(PrdynError):
    pass


class UtilityParamInvalid(PrdynError):
    pass


class ModeMismatch(PrdynError):
    """A Fisher-only or exchange-only routine was given the other mode."""


# --- utility / demand evaluation ---

class NonPositiveBundle(PrdynError):
    pass


class NonPositivePrice(PrdynError):
    pass


class BoundaryBundle(PrdynError):
    pass


class ToleranceNotReached(PrdynError):
    pass


class PriceNotDominated(PrdynError):
    pass


class BudgetNotDominated(PrdynError):
    pass


# --- dynamics ---

class InvalidRunControl(PrdynError, ValueError):
    """A stop rule or recording interval out of range."""


class NonPositiveBid(PrdynError):
    pass


class UnderflowDetected(PrdynError):
    pass


# --- diagnostics ---

class LengthMismatch(PrdynError):
    pass


class ShapeMismatch(PrdynError):
    pass


class NonPositiveEntry(PrdynError):
    pass


class NonConsecutiveTrace(PrdynError):
    pass


class InfeasibleAllocation(PrdynError):
    pass


# --- cli ---

class ParseError(PrdynError):
    pass
