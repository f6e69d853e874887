"""Shared exception types.

LoadError marks bad input (the command line exits with 2).
InternalInvariantError marks a broken internal invariant (for example a
bracket that should be vertical but is not); the command line maps it to
its own exit code, 3, so it is never confused with bad input.  A failed
structure axiom or identity is not an exception: it is a failed check in
the report (exit 1).
"""


class InternalInvariantError(RuntimeError):
    pass


class LoadError(ValueError):
    """Malformed input file: missing keys, bad shapes, bad index keys."""

