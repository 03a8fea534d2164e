"""Semantic exception hierarchy shared by all modules.

Public functions never raise bare ``ValueError``; every failure mode has a
named class so callers can distinguish "you called this wrong" from "your
certificate is contradicted by data".

Each class carries the CLI's answer to it: ``exit_code`` and the ``prefix``
of its one stderr line, inherited by subclasses.  The CLI reads them and
keeps no mapping of its own: 1 ``error``, 2 ``parse error``, 3
``precondition failure``, 4 ``oracle cap exceeded``, 5 ``certificate
inconsistency``.
"""

from __future__ import annotations

__all__ = [
    "EpigaugeError",
    "PreconditionError",
    "DomainError",
    "CoverageError",
    "EvaluationError",
    "OracleCapError",
    "CertificateViolationError",
    "InconsistentCoverError",
    "ConstructionError",
    "SpecParseError",
]


class EpigaugeError(Exception):
    """Base error for this package."""

    exit_code = 1
    prefix = "error"


class PreconditionError(EpigaugeError, ValueError):
    """An operation's stated precondition is violated (bad parameters,
    mismatched cylinders, grids too coarse, and similar caller errors)."""

    exit_code = 3
    prefix = "precondition failure"


class DomainError(EpigaugeError):
    """Evaluation requested outside a function's certified domain, or with
    a point of the wrong dimension.  Never extrapolated past silently."""

    exit_code = 3
    prefix = "precondition failure"


class CoverageError(DomainError):
    """Evaluation of an aggregated envelope at a point no local
    certificate covers."""


class EvaluationError(EpigaugeError):
    """A function returned a non-finite value inside its declared domain,
    breaking the real-valuedness contract."""

    exit_code = 3
    prefix = "precondition failure"


class OracleCapError(EpigaugeError):
    """A requested lattice exceeds the hard size cap for exhaustive scans."""

    exit_code = 4
    prefix = "oracle cap exceeded"


class CertificateViolationError(EpigaugeError):
    """Certified data contradicted itself (negative tolerance values,
    a lower envelope above its upper envelope, ...).  Such input is
    surfaced, never repaired."""

    exit_code = 5
    prefix = "certificate inconsistency"


class InconsistentCoverError(CertificateViolationError):
    """Aggregating a cover produced lower > upper at some point: the local
    certificates cannot all be true."""


class ConstructionError(PreconditionError):
    """A counterexample construction is impossible with the given data
    (for example: no candidate peak point with positive clearance)."""


class SpecParseError(EpigaugeError):
    """A problem-description file failed to parse.  Carries the file path
    and the 1-based line number of the offending content."""

    exit_code = 2
    prefix = "parse error"

    def __init__(self, message: str, path: str = "<spec>", line: int = 0):
        super().__init__(message)
        self.message = message
        self.path = path
        self.line = line

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"
