"""Exception hierarchy for the ``repro`` library."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "XmlSyntaxError",
    "DocumentError",
    "IndexError_",
    "FormatError",
    "QuerySyntaxError",
    "QueryEvaluationError",
    "TransactionConflict",
    "TransactionStateError",
]


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class XmlSyntaxError(ReproError):
    """Raised by the XML parser on malformed input.

    Carries expat's 1-based ``line`` and, as ``position``, its 0-based
    column: characters from the start of that line (a ``\\r\\n`` line
    end counts as one).  Both hold however the document was fed to the
    parser; they are -1 when unknown.
    """

    def __init__(self, message: str, position: int = -1, line: int = -1):
        detail = message
        if line >= 0:
            detail = f"{message} (line {line}, column {position})"
        super().__init__(detail)
        self.message = message
        self.position = position
        self.line = line


class DocumentError(ReproError):
    """Raised on invalid document/store operations (bad node id, etc.)."""


class IndexError_(ReproError):
    """Raised on invalid index operations (name clashes, missing index)."""


class FormatError(ReproError):
    """Raised on malformed or incompatible on-disk data."""


class QuerySyntaxError(ReproError):
    """Raised by the XPath-subset parser on malformed queries."""


class QueryEvaluationError(ReproError):
    """Raised when a syntactically valid query cannot be evaluated."""


class TransactionConflict(ReproError):
    """Raised at commit when a transaction lost a first-committer race."""


class TransactionStateError(ReproError):
    """Raised when a transaction is used after commit/abort."""
