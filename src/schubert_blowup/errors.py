"""The two exception types: EngineError for bad input, InvariantViolation
for a broken engine. The CLI reports either as one line with exit 2.
wrong_kind writes the one message for an argument of the wrong kind.

A call recognises each argument by its type, with a `type(x) is K` test
at its entry, so a look-alike that carries K's attributes is of the wrong
kind; the tests state each call's kinds once, in tests/contracts.py.
"""


class EngineError(ValueError):
    """A violated precondition: the input is bad, and the message says how."""


class InvariantViolation(EngineError):
    """An internal invariant failed: the conventions or the engine are wrong,
    not the input. Raised explicitly so that it survives python -O."""


def wrong_kind(call, needs, *args):
    """The message of the EngineError for arguments of the wrong kind: `call`
    needs `needs`, not the types of args."""
    return "%s needs %s, not %s" % (call, needs, " and ".join(type(a).__name__ for a in args))
