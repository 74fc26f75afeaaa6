"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: UsageError -> 2, everything else
derived from DataError -> 1.
"""

from __future__ import annotations

MAX_LISTED = 10  # items a message lists before it counts the rest


class ArchUncertError(Exception):
    """Base class for all toolkit errors."""


class UsageError(ArchUncertError):
    """Caller error: bad arguments, unknown ids, malformed queries."""


class DataError(ArchUncertError):
    """Input data is well-formed enough to read but semantically invalid."""


class ParseError(DataError):
    """Syntax or schema error in a structured-text document.

    Carries a source location (0-based line/column) when one is known.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line + 1}, column {(column or 0) + 1}: {message}"
        super().__init__(message)


class WidthLimitError(DataError):
    """An exact query whose elimination would build a table past the limit
    ``bn.MAX_WIDTH`` sets."""


class _FindingsError(DataError):
    """A failed validation of the class's ``subject``; carries the findings."""

    def __init__(self, findings):
        self.findings = list(findings)
        details = "; ".join(str(f) for f in self.findings)
        super().__init__(f"invalid {self.subject}: {details}")


class InvalidNetworkError(_FindingsError):
    """A Bayesian network failed validation; carries the findings."""

    subject = "network"


class InvalidArchitectureError(_FindingsError):
    """An architecture failed structural validation; carries the findings."""

    subject = "architecture"


class ImpossibleEvidenceError(DataError):
    """The evidence set has probability zero under the network; a sweep
    names the grid value ``t`` it failed at, a comparison the network. The
    message lists the first 10 pairs in sorted order and counts the rest;
    ``evidence`` keeps them all."""

    def __init__(self, evidence, t=None, network=None):
        self.evidence = dict(evidence)
        self.t = t
        shown = [f"{k}={v}" for k, v in sorted(self.evidence.items())]
        if len(shown) > MAX_LISTED:
            shown[MAX_LISTED:] = [f"and {len(shown) - MAX_LISTED} more"]
        message = f"impossible evidence: {{{', '.join(shown)}}}"
        if t is not None:
            message += f" at t = {t!r}"
        if network is not None:
            message = f"network {network!r}: {message}"
        super().__init__(message)
