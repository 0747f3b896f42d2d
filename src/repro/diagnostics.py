"""Shared diagnostic machinery: the :class:`Diagnostic` record and the
repo-wide code registry.

Two static analyzers emit ``ALEX-*`` diagnostics: :mod:`repro.sparql.analysis`
(queries) and :mod:`repro.rdf.validate` (graphs, datasets, and link sets).
Both register their code tables here so the codes form one namespace:

* codes are **append-only and stable** — a released code never changes
  meaning or severity;
* codes are **unique across analyzers** — registration raises on a clash;
* every code carries a pointer into ``docs/diagnostics.md`` so a tool can
  link a finding straight to its documentation.

The code analyzer's rule R006 (``tools/repro_analyzer``) enforces the other
direction statically: any ``ALEX-*`` string literal in library code must
name a registered code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from repro.errors import ReproError

#: Severity levels, most severe first.
SEVERITIES = ("error", "warning", "info")

SEVERITY_RANK: dict[str, int] = {severity: rank for rank, severity in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    ``line``/``column`` locate the finding in source text when the producing
    analyzer has positions (the SPARQL analyzer); data-side analyzers locate
    findings by subject instead (see
    :class:`repro.rdf.validate.DataDiagnostic`).
    """

    code: str
    severity: str
    message: str
    line: int | None = None
    column: int | None = None
    hint: str | None = None

    def format(self) -> str:
        location = ""
        if self.line is not None:
            location = f"{self.line}:{self.column if self.column is not None else 0}: "
        text = f"{location}{self.code} {self.severity}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "line": self.line,
            "column": self.column,
            "hint": self.hint,
        }

    @property
    def is_error(self) -> bool:
        return self.severity == "error"


class CodeEntry(NamedTuple):
    """Registry record for one diagnostic code."""

    severity: str
    summary: str
    analyzer: str
    anchor: str  # pointer into the docs, e.g. "diagnostics.md#alex-e001"


_REGISTRY: dict[str, CodeEntry] = {}


def register_codes(codes: Mapping[str, tuple[str, str]], analyzer: str) -> None:
    """Register an analyzer's code table (``code -> (severity, summary)``).

    Idempotent for the same analyzer (modules may be re-imported); raises
    :class:`~repro.errors.ReproError` when a code is already claimed by a
    different analyzer or re-registered with a different severity/summary.
    """
    for code, (severity, summary) in codes.items():
        if severity not in SEVERITY_RANK:
            raise ReproError(f"{analyzer}: unknown severity {severity!r} for {code}")
        entry = CodeEntry(severity, summary, analyzer, f"diagnostics.md#{code.lower()}")
        existing = _REGISTRY.get(code)
        if existing is not None and existing != entry:
            raise ReproError(
                f"diagnostic code {code} already registered by {existing.analyzer} "
                f"(attempted re-registration by {analyzer})"
            )
        _REGISTRY[code] = entry


def meets_threshold(severity: str, threshold: str) -> bool:
    """True when ``severity`` is at or above (at least as severe as)
    ``threshold``. Raises ``KeyError`` on unknown severities."""
    return SEVERITY_RANK[severity] <= SEVERITY_RANK[threshold]


def severity_exit_code(severities: Iterable[str], fail_on: str) -> int:
    """The shared ``--fail-on`` exit-code policy of the lint CLIs
    (``lint-query``/``lint-data``/``lint-code``): 1 when any finding sits
    at or above the ``fail_on`` threshold, else 0."""
    return 1 if any(meets_threshold(severity, fail_on) for severity in severities) else 0


def all_codes() -> dict[str, CodeEntry]:
    """A copy of the full registry (all analyzers)."""
    return dict(_REGISTRY)


def code_info(code: str) -> CodeEntry:
    """Registry entry for ``code``; raises on unknown codes."""
    try:
        return _REGISTRY[code]
    except KeyError:
        raise ReproError(f"unknown diagnostic code: {code!r}") from None


def is_registered(code: str) -> bool:
    return code in _REGISTRY


def severity_of(code: str) -> str:
    """The registered severity of ``code``."""
    return code_info(code).severity


__all__ = [
    "CodeEntry",
    "Diagnostic",
    "SEVERITIES",
    "SEVERITY_RANK",
    "all_codes",
    "code_info",
    "is_registered",
    "meets_threshold",
    "register_codes",
    "severity_exit_code",
    "severity_of",
]
