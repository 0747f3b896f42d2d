"""Every ALEX-C* rule demonstrated on fixture code: one deliberate
violation per rule in ``tests/fixtures/analyzer/*_bad.py`` (exact code,
severity, line, and column pinned here) and a clean twin per rule proving
the compliant spelling stays silent.
"""

from __future__ import annotations

import os

import pytest

from repro_analyzer import AnalyzerConfig, analyze_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = "tests/fixtures/analyzer"

#: The fixture package's architecture, mirrored from the real config: the
#: boundary module, the shared-state owner, the designated writers of
#: Store, and the hot join kernel.
FIXTURE_CONFIG = AnalyzerConfig(
    library_roots=(FIXTURES + "/",),
    encode_boundary=("analyzer/boundary.py",),
    decode_boundary=("analyzer/boundary.py",),
    rng_sanctioned_modules=(),
    shared_state_owners={"_index": "analyzer/store.py"},
    designated_writers={
        "Store": ("__init__", "add"),
        "Journal": ("__init__", "append", "append_fast"),
        "SafeJournal": ("__init__", "append"),
    },
    hot_paths={
        "analyzer/hotpath_bad.py": ("join_kernel",),
        "analyzer/hotpath_clean.py": ("join_kernel",),
    },
)

CONTRACT_FAMILIES = ("encoding", "rng", "mutation", "cost", "concurrency")


def _analyze(paths: list[str]):
    result = analyze_paths(
        paths, REPO_ROOT, config=FIXTURE_CONFIG, families=CONTRACT_FAMILIES,
        registered_codes=set(),
    )
    return result.findings


@pytest.fixture(scope="module")
def all_findings():
    return _analyze([FIXTURES])


#: (file, code, severity, line, column) — one row per deliberate violation.
EXPECTED = [
    (f"{FIXTURES}/encoding_bad.py", "ALEX-C001", "error", 14, 35),
    (f"{FIXTURES}/encoding_bad.py", "ALEX-C002", "error", 19, 12),
    (f"{FIXTURES}/encoding_bad.py", "ALEX-C003", "warning", 24, 12),
    (f"{FIXTURES}/rng_bad.py", "ALEX-C010", "error", 9, 12),
    (f"{FIXTURES}/rng_bad.py", "ALEX-C011", "error", 14, 12),
    (f"{FIXTURES}/rng_bad.py", "ALEX-C012", "error", 24, 9),
    (f"{FIXTURES}/mutation_bad.py", "ALEX-C020", "error", 8, 5),
    (f"{FIXTURES}/mutation_bad.py", "ALEX-C021", "error", 15, 13),
    (f"{FIXTURES}/store.py", "ALEX-C020", "error", 21, 5),
    (f"{FIXTURES}/hotpath_bad.py", "ALEX-C030", "warning", 9, 16),
    (f"{FIXTURES}/hotpath_bad.py", "ALEX-C031", "warning", 11, 9),
    (f"{FIXTURES}/hotpath_bad.py", "ALEX-C032", "info", 14, 24),
    (f"{FIXTURES}/concurrency_bad.py", "ALEX-C040", "error", 21, 12),
    (f"{FIXTURES}/concurrency_bad.py", "ALEX-C040", "error", 37, 16),
    (f"{FIXTURES}/concurrency_bad.py", "ALEX-C040", "error", 41, 9),
    (f"{FIXTURES}/concurrency_bad.py", "ALEX-C041", "error", 66, 13),
    (f"{FIXTURES}/concurrency_bad.py", "ALEX-C041", "error", 71, 13),
    (f"{FIXTURES}/concurrency_bad.py", "ALEX-C042", "warning", 51, 13),
    (f"{FIXTURES}/concurrency_bad.py", "ALEX-C042", "warning", 86, 12),
    (f"{FIXTURES}/concurrency_bad.py", "ALEX-C042", "warning", 92, 9),
    (f"{FIXTURES}/concurrency_bad.py", "ALEX-C043", "error", 77, 5),
    (f"{FIXTURES}/concurrency_bad.py", "ALEX-C044", "warning", 46, 13),
    (f"{FIXTURES}/concurrency_bad.py", "ALEX-C050", "error", 110, 9),
]


@pytest.mark.parametrize(
    "path,code,severity,line,column", EXPECTED,
    ids=[f"{row[1]}@{os.path.basename(row[0])}" for row in EXPECTED],
)
def test_each_rule_fires_at_the_pinned_position(
    all_findings, path, code, severity, line, column
):
    matches = [
        f for f in all_findings
        if f.path == path and f.code == code and f.line == line
    ]
    assert matches, (
        f"expected {code} at {path}:{line} — got "
        f"{[f.format() for f in all_findings if f.path == path]}"
    )
    finding = matches[0]
    assert finding.severity == severity
    assert finding.column == column


def test_exactly_the_pinned_violations_and_nothing_else(all_findings):
    """No extra findings anywhere in the fixture package: the clean twins
    (and the boundary/owner modules outside their violation lines) are
    silent."""
    actual = sorted((f.path, f.code, f.line, f.column) for f in all_findings)
    expected = sorted((path, code, line, column)
                      for path, code, severity, line, column in EXPECTED)
    assert actual == expected


@pytest.mark.parametrize("clean", [
    "encoding_clean.py", "rng_clean.py", "mutation_clean.py",
    "hotpath_clean.py", "concurrency_clean.py", "boundary.py",
])
def test_clean_twins_are_silent(clean):
    findings = _analyze([f"{FIXTURES}/{clean}"])
    assert findings == [], [f.format() for f in findings]


def test_r007_checks_span_and_event_names_with_one_pattern():
    """``obs.span`` names follow the same dotted pattern as metric and
    trace event names: the bad twin fires twice, the clean twin not at all."""
    result = analyze_paths(
        [f"{FIXTURES}/naming_bad.py", f"{FIXTURES}/naming_clean.py"], REPO_ROOT,
        config=FIXTURE_CONFIG, families=("repo",), registered_codes=set(),
    )
    found = [(f.path, f.code, f.line, f.column) for f in result.findings]
    assert found == [
        (f"{FIXTURES}/naming_bad.py", "R007", 6, 19),
        (f"{FIXTURES}/naming_bad.py", "R007", 8, 22),
    ]


def test_writer_inventory_covers_the_fixture_store():
    result = analyze_paths(
        [FIXTURES], REPO_ROOT, config=FIXTURE_CONFIG,
        families=("mutation",), registered_codes=set(),
    )
    inventory = result.writer_inventory
    assert set(inventory) == {"Store", "Journal", "SafeJournal"}
    store = inventory["Store"]
    assert store["module"] == f"{FIXTURES}/store.py"
    assert store["designated"] == ["__init__", "add"]
    assert set(store["writers"]) == {"__init__", "add", "rebuild"}
    assert store["writers"]["rebuild"] == ["_index", "size"]


def test_lock_inventory_covers_the_fixture_locks():
    """The concurrency pass inventories every discovered lock: its kind,
    the attributes it guards, and where it is acquired."""
    result = analyze_paths(
        [FIXTURES], REPO_ROOT, config=FIXTURE_CONFIG,
        families=("concurrency",), registered_codes=set(),
    )
    inventory = result.lock_inventory
    bad = f"{FIXTURES}/concurrency_bad.py"
    assert f"{bad}::Meter" in inventory
    assert f"{bad}::Ledger" in inventory
    assert f"{bad}::<module>" in inventory
    meter = inventory[f"{bad}::Meter"]["locks"]["_lock"]
    assert meter["kind"] == "Lock"
    assert meter["guards"] == ["_count", "_samples"]
    assert "add" in meter["acquired_in"]
    module = inventory[f"{bad}::<module>"]["locks"]["_REGISTRY_LOCK"]
    assert module["guards"] == ["_registry"]
    ledger = inventory[f"{bad}::Ledger"]["locks"]
    assert set(ledger) == {"_accounts_lock", "_audit_lock"}
    # the clean twin's helper-propagated guards are inventoried too
    clean = f"{FIXTURES}/concurrency_clean.py"
    safe_meter = inventory[f"{clean}::SafeMeter"]["locks"]["_lock"]
    assert safe_meter["guards"] == ["_count", "_samples"]
