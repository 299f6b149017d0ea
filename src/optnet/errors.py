"""Exception types raised across the package.

All package errors derive from OptnetError so callers can catch one root.
Conditions that a caller is expected to branch on (rank deficiency,
non-convergence, topology validation) are reported as flags or return
values where the relevant module documents them; exceptions here are for
calls that cannot produce a usable result at all.
"""

from __future__ import annotations


class OptnetError(Exception):
    """Root of the package exception hierarchy."""


class InvalidConfigError(OptnetError, ValueError):
    """A configuration object failed validation."""


class ShapeMismatchError(OptnetError, ValueError):
    """Array arguments have incompatible shapes or lengths."""


class EmptyInputError(OptnetError, ValueError):
    """An operation that needs at least one row or element got none."""


class CsvParseError(OptnetError):
    """A CSV file could not be parsed into a dataset."""

    def __init__(self, message: str, *, path: str | None = None,
                 row: int | None = None, column: str | None = None):
        detail = message
        if path is not None:
            detail += f" (file {path}"
            if row is not None:
                detail += f", row {row}"
            if column is not None:
                detail += f", column {column!r}"
            detail += ")"
        super().__init__(detail)
        self.path = path
        self.row = row
        self.column = column


class MissingTargetError(CsvParseError):
    """The named target column is absent from the CSV header."""


class NonNumericCellError(CsvParseError):
    """A data cell could not be converted to a float."""


class ConfigFileError(OptnetError):
    """A YAML config file is malformed or violates the schema."""

    def __init__(self, message: str, *, field: str | None = None):
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class UnconnectedPortError(OptnetError):
    """A network was started with a required port left unwired."""


class DeadlockError(OptnetError):
    """No node can make progress but the termination rule is unmet."""


class HandlerFailureError(OptnetError):
    """A node handler raised; carries the node id and the original error."""

    def __init__(self, node_id: str, original: BaseException):
        super().__init__(f"handler of node {node_id!r} failed: {original!r}")
        self.node_id = node_id
        self.original = original


class BudgetTooSmallError(InvalidConfigError):
    """An evaluation budget cannot cover even the initial population."""


class InvalidSubsetSizeError(OptnetError, ValueError):
    """Requested model-subset size is not satisfiable from the pool."""


class InfeasibleBoundsError(OptnetError, ValueError):
    """Search bounds are empty or inverted."""


class ModelInputMismatchError(OptnetError, ValueError):
    """A model in the pool needs an input the task does not provide."""
