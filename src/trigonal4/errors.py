"""Exception types shared across the package.

Each class owns its exit code and stderr label: the CLI prints any
Trigonal4Error as ``label: message`` and exits with ``exit_code``.
"""


class Trigonal4Error(Exception):
    """Base class for all package errors."""

    exit_code, label = 5, "error"


class InvalidParameters(Trigonal4Error, ValueError):
    """Parameter point lies outside the smooth-family base."""

    exit_code, label = 2, "invalid parameters"


class ZeroTangent(Trigonal4Error, ValueError):
    """An operation requiring a nonzero tangent direction got zero."""

    exit_code, label = 3, "invalid tangent"


class DegenerateInput(Trigonal4Error, ValueError):
    """Input outside an operation's domain (zero polynomial, zero form, ...)."""

    exit_code, label = 2, "invalid input"


class StructuralError(Trigonal4Error, RuntimeError):
    """An internal certificate failed: something the mathematics guarantees
    did not hold, indicating a bug or an unsupported configuration."""

    exit_code, label = 5, "structural error"


class OracleMismatch(Trigonal4Error, RuntimeError):
    """Two independent computations of the same value disagreed."""

    exit_code, label = 4, "oracle disagreement"
