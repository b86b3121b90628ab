"""Exception hierarchy with stable machine-readable codes.

The CLI maps these onto exit codes: validation problems exit 1, violated
model hypotheses exit 2, numerical failures exit 3.
"""


class PersuasionError(Exception):
    """Base class. ``code`` is stable across releases; messages are not."""

    code = "ERROR"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class ValidationError(PersuasionError):
    code = "VALIDATION_ERROR"


class ParseError(ValidationError):
    code = "PARSE_ERROR"


class DimensionMismatchError(ValidationError):
    code = "DIMENSION_MISMATCH"


class ZeroProbabilitySignalError(PersuasionError):
    """Raised when a posterior or response set is requested at a never-sent signal."""

    code = "ZERO_PROBABILITY_SIGNAL"


class NotDirectRevelationError(PersuasionError):
    code = "NOT_DIRECT_REVELATION"


class NoMassOnApproxSetError(PersuasionError):
    """Projection is undefined when a strategy puts no mass on the target set."""

    code = "NO_MASS_ON_APPROX_SET"


class StrategyNotDeterministicError(PersuasionError):
    code = "STRATEGY_NOT_DETERMINISTIC"


class AssumptionViolatedError(PersuasionError):
    """The instance lacks unique per-state optimal actions (or surjectivity)."""

    code = "ASSUMPTION_VIOLATED"


class HypothesisViolatedError(PersuasionError):
    """A precondition such as ``gamma/(mu_min * gap) < 1`` fails."""

    code = "HYPOTHESIS_VIOLATED"


class WrongInstanceError(PersuasionError):
    code = "WRONG_INSTANCE"


class UnknownTargetError(ValidationError):
    code = "UNKNOWN_TARGET"


class LPError(PersuasionError):
    code = "LP_NUMERICALLY_UNSTABLE"


class LPInfeasibleError(LPError):
    code = "INFEASIBLE"


class LPIterationLimitError(LPError):
    code = "ITERATION_LIMIT"
