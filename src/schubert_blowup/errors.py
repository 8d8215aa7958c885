"""Exception types raised on violated preconditions and invariants."""


class EngineError(ValueError):
    """Base class for all precondition violations."""


class InadmissibleRank(EngineError):
    pass


class RankMismatch(EngineError):
    pass


class NotARoot(EngineError):
    pass


class IndexOutOfRange(EngineError):
    pass


class RankTooLargeForOracle(EngineError):
    pass


class NotMinimalRep(EngineError):
    pass


class CodimOutOfRange(EngineError):
    pass


class BasisMismatch(EngineError):
    pass


class NotCominuscule(EngineError):
    pass


class OutOfRange(EngineError):
    pass


class InvariantViolation(EngineError):
    """An internal invariant failed: the conventions or the engine are wrong,
    not the input. Raised explicitly so that it survives python -O."""
