"""Exception types shared across the toolkit.

The CLI maps these onto its exit codes: bad input or bad syntax is a usage
error (2), refusing work that exceeds a size cap is a capacity error (3),
and a solver failure is a failure (1). ConsistencyError signals an internal
cross-check failure, is never expected in normal operation, and is also a
failure (1).
"""


class InputError(ValueError):
    """Malformed or out-of-range input (bad assignment, bad file, bad name)."""


class CapacityError(ValueError):
    """Request exceeds a documented size cap; refused rather than approximated."""


class ParseError(InputError):
    """Expression syntax error with source position.

    offset is a 0-based byte offset into the source, line/column are 1-based.
    expected carries the token kinds that would have been accepted.
    """

    def __init__(self, message, source, offset, expected=()):
        self.offset = offset
        self.expected = frozenset(expected)
        prefix = source[:offset]
        self.line = prefix.count("\n") + 1
        self.column = offset - (prefix.rfind("\n") + 1) + 1
        detail = f"{message} at offset {offset} (line {self.line}, column {self.column})"
        if self.expected:
            detail += "; expected " + ", ".join(sorted(self.expected))
        super().__init__(detail)


class ConsistencyError(RuntimeError):
    """Two routes that must agree did not; indicates a bug, not bad input."""


class SolverError(RuntimeError):
    """LP solve failed or hit its iteration cap; no value is reported."""
