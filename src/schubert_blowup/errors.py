"""The two exception types: EngineError for bad input, InvariantViolation
for a broken engine. The CLI reports either as one line with exit 2."""


class EngineError(ValueError):
    """A violated precondition: the input is bad, and the message says how."""


class InvariantViolation(EngineError):
    """An internal invariant failed: the conventions or the engine are wrong,
    not the input. Raised explicitly so that it survives python -O."""
