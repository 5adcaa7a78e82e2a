"""The package's two error families, one per CLI exit code.

DataError: malformed or inconsistent inputs, flags or tables (exit 3).
NumericError: a computation did not produce a usable result, such as
features that overflowed or a score that is not finite (exit 4).

Each raise site says in its message which check fired; the class only
decides the exit code.
"""


class DataError(Exception):
    """Invalid, malformed, or inconsistent input data."""


class NumericError(Exception):
    """A numeric routine failed (non-finite result, singular system, ...)."""
