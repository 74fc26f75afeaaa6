"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: UsageError -> 2, everything else
derived from DataError -> 1.
"""

from __future__ import annotations


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


class InvalidNetworkError(DataError):
    """A Bayesian network failed validation; carries the findings."""

    def __init__(self, findings):
        self.findings = list(findings)
        details = "; ".join(str(f) for f in self.findings)
        super().__init__(f"invalid network: {details}")


class InvalidArchitectureError(DataError):
    """An architecture failed structural validation; carries the findings."""

    def __init__(self, findings):
        self.findings = list(findings)
        details = "; ".join(str(f) for f in self.findings)
        super().__init__(f"invalid architecture: {details}")


class ImpossibleEvidenceError(DataError):
    """The evidence set has probability zero under the network; a sweep
    names the grid value ``t`` it failed at, a comparison the network."""

    def __init__(self, evidence, t=None, network=None):
        self.evidence = dict(evidence)
        self.t = t
        shown = ", ".join(f"{k}={v}" for k, v in sorted(self.evidence.items()))
        message = f"impossible evidence: {{{shown}}}"
        if t is not None:
            message += f" at t = {t!r}"
        if network is not None:
            message = f"network {network!r}: {message}"
        super().__init__(message)
