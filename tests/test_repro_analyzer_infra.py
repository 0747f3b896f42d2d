"""Analyzer infrastructure: baseline machinery, output formats, the
diagnostics-registry integration, the committed baseline/writers.json
artifacts, and the standalone repo-invariants run CI uses."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro_analyzer
from repro_analyzer import (
    AnalyzerConfig,
    BaselineError,
    CodeFinding,
    analyze_paths,
    apply_baseline,
    collect_registered_codes,
    generate_baseline,
    parse_baseline,
    render_json,
    render_sarif,
    render_text,
    validate_codes,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "tools", "repro_analyzer", "baseline.json")
WRITERS_PATH = os.path.join(REPO_ROOT, "tools", "repro_analyzer", "writers.json")
LOCKS_PATH = os.path.join(REPO_ROOT, "tools", "repro_analyzer", "locks.json")


def _finding(path="src/x.py", code="ALEX-C001", severity="error",
             line=1, column=1, message="m"):
    return CodeFinding(path=path, line=line, column=column, code=code,
                      severity=severity, message=message)


# -- diagnostics-registry integration ----------------------------------------


def test_alex_c_codes_registered_in_repro_diagnostics():
    from repro.diagnostics import all_codes

    assert repro_analyzer.REGISTERED_WITH_REPRO is True
    registry = all_codes()
    for code, (severity, summary) in repro_analyzer.CODES.items():
        assert code in registry
        assert registry[code].severity == severity
        assert registry[code].summary == summary
        assert registry[code].analyzer == "repro_analyzer"


def test_collect_registered_codes_spans_all_three_analyzers():
    codes = collect_registered_codes(REPO_ROOT)
    assert "ALEX-E001" in codes  # sparql.analysis
    assert any(code.startswith("ALEX-D") for code in codes)  # rdf.validate
    assert "ALEX-C001" in codes  # this analyzer


# -- baseline machinery -------------------------------------------------------


def test_baseline_roundtrip_and_suppression():
    findings = [
        _finding(line=1), _finding(line=5), _finding(code="ALEX-C010", line=9),
    ]
    document = generate_baseline(findings, justification="accepted for test")
    entries = parse_baseline(document)
    surviving, suppressed, stale = apply_baseline(findings, entries)
    assert surviving == []
    assert suppressed == 3
    assert stale == []


def test_baseline_absorbs_only_its_count_regressions_survive():
    entries = parse_baseline({
        "format": "repro-analyzer-baseline/1",
        "entries": [
            {"path": "src/x.py", "code": "ALEX-C001", "count": 1,
             "justification": "one accepted"},
        ],
    })
    findings = [_finding(line=1), _finding(line=5)]
    surviving, suppressed, stale = apply_baseline(findings, entries)
    assert suppressed == 1
    assert [f.line for f in surviving] == [5]
    assert stale == []


def test_baseline_reports_stale_buckets():
    entries = parse_baseline({
        "format": "repro-analyzer-baseline/1",
        "entries": [
            {"path": "src/x.py", "code": "ALEX-C001", "count": 3,
             "justification": "was three, now one"},
        ],
    })
    surviving, suppressed, stale = apply_baseline([_finding(line=1)], entries)
    assert surviving == [] and suppressed == 1
    assert len(stale) == 1 and "shrink or remove" in stale[0]


@pytest.mark.parametrize("broken,fragment", [
    ({"format": "nope", "entries": []}, "unknown baseline format"),
    ({"format": "repro-analyzer-baseline/1", "entries": "x"}, "must be a list"),
    ({"format": "repro-analyzer-baseline/1",
      "entries": [{"path": "p", "code": "c", "count": 0, "justification": "j"}]},
     "positive int"),
    ({"format": "repro-analyzer-baseline/1",
      "entries": [{"path": "p", "code": "c", "count": 1, "justification": " "}]},
     "justification"),
    ({"format": "repro-analyzer-baseline/1",
      "entries": [{"path": "p", "code": "c", "count": 1}]},
     "missing required key"),
], ids=["format", "entries-type", "count", "justification", "missing-key"])
def test_baseline_validation_rejects_malformed_documents(broken, fragment):
    with pytest.raises(BaselineError, match=fragment):
        parse_baseline(broken)


def test_baseline_rejects_duplicate_buckets():
    entry = {"path": "p", "code": "c", "count": 1, "justification": "j"}
    with pytest.raises(BaselineError, match="duplicates bucket"):
        parse_baseline({
            "format": "repro-analyzer-baseline/1", "entries": [entry, dict(entry)],
        })


def test_validate_codes_flags_unregistered():
    entries = parse_baseline({
        "format": "repro-analyzer-baseline/1",
        "entries": [{"path": "p", "code": "ALEX-Z999", "count": 1,
                     "justification": "j"}],
    })
    problems = validate_codes(entries, {"ALEX-C001"})
    assert problems and "ALEX-Z999" in problems[0]


# -- committed artifacts stay truthful ---------------------------------------


def _real_run():
    return analyze_paths(["src/repro"], REPO_ROOT, config=AnalyzerConfig())


def test_committed_baseline_matches_a_live_run():
    """`repro lint-code src/repro` must run clean against the committed
    baseline: no surviving findings, no stale buckets, and every bucket
    justified."""
    entries = repro_analyzer.load_baseline(BASELINE_PATH)
    assert validate_codes(
        entries,
        collect_registered_codes(REPO_ROOT) | set(repro_analyzer.all_rule_codes()),
    ) == []
    for entry in entries:
        assert len(entry.justification) > 40, (
            f"baseline bucket ({entry.path}, {entry.code}) needs a real "
            "justification, not a placeholder"
        )
    result = _real_run()
    surviving, suppressed, stale = apply_baseline(result.findings, entries)
    assert surviving == [], [f.format() for f in surviving]
    assert stale == [], stale
    assert suppressed == sum(entry.count for entry in entries)


def test_committed_writer_inventory_matches_a_live_run():
    with open(WRITERS_PATH, encoding="utf-8") as handle:
        committed = json.load(handle)
    live = _real_run().writer_inventory
    assert committed == live, (
        "tools/repro_analyzer/writers.json is stale — regenerate with "
        "`repro lint-code src/repro --writers tools/repro_analyzer/writers.json`"
    )
    # the inventory must cover the classes the service layer will route
    assert {"Graph", "TermDictionary", "LinkSet", "AlexEngine"} <= set(live)


def test_committed_lock_inventory_matches_a_live_run():
    with open(LOCKS_PATH, encoding="utf-8") as handle:
        committed = json.load(handle)
    live = _real_run().lock_inventory
    assert committed == live, (
        "tools/repro_analyzer/locks.json is stale — regenerate with "
        "`repro lint-code src/repro --locks tools/repro_analyzer/locks.json`"
    )
    # the inventory must cover every lock-owning scope the service layer
    # will sit on top of
    assert {
        "src/repro/obs/registry.py::Registry",
        "src/repro/obs/trace.py::Tracer",
        "src/repro/sparql/prepared.py::<module>",
    } <= set(live)
    registry = live["src/repro/obs/registry.py::Registry"]["locks"]["_lock"]
    assert registry["guards"] == ["_instruments", "_spans"]


def test_findings_and_inventories_are_deterministic():
    """Two full runs produce byte-identical orderings — findings sort by
    (path, line, column, code) and both inventories are sorted, so JSON
    and SARIF output is reproducible for CI diffing."""
    first, second = _real_run(), _real_run()
    assert [f.format() for f in first.findings] == [
        f.format() for f in second.findings
    ]
    assert first.findings == sorted(
        first.findings, key=lambda f: (f.path, f.line, f.column, f.code)
    )
    assert json.dumps(first.lock_inventory, sort_keys=True) == json.dumps(
        second.lock_inventory, sort_keys=True
    )
    assert json.dumps(first.writer_inventory, sort_keys=True) == json.dumps(
        second.writer_inventory, sort_keys=True
    )


# -- output formats -----------------------------------------------------------


def test_render_text_and_json():
    findings = [_finding(line=3, column=7)]
    text = render_text(findings, suppressed=2)
    assert "src/x.py:3:7: ALEX-C001 error: m" in text
    assert "1 finding(s)" in text and "2 baselined" in text
    payload = json.loads(render_json(findings, suppressed=2))
    assert payload["suppressed"] == 2
    assert payload["findings"][0]["code"] == "ALEX-C001"
    assert payload["findings"][0]["line"] == 3


def test_render_sarif_shape():
    findings = [
        _finding(line=3, column=7),
        _finding(code="ALEX-C032", severity="info", line=9),
    ]
    rules = repro_analyzer.all_rule_codes()
    document = json.loads(render_sarif(findings, rules))
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert rule_ids == sorted(rules)
    assert len(run["results"]) == 2
    first = run["results"][0]
    assert first["ruleId"] == "ALEX-C001"
    assert first["level"] == "error"
    location = first["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/x.py"
    assert location["region"] == {"startLine": 3, "startColumn": 7}
    # info severity maps to SARIF "note"
    assert run["results"][1]["level"] == "note"
    # every result's ruleIndex points at its rule
    for result in run["results"]:
        assert rule_ids[result["ruleIndex"]] == result["ruleId"]


# -- the standalone repo-invariants run and CLI -------------------------------


def test_repo_rules_run_standalone_and_clean():
    """CI's invocation — only ``tools`` on PYTHONPATH (``repro`` need not
    be importable), exit 0 on a clean tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "tools")
    completed = subprocess.run(
        [sys.executable, "-m", "repro_analyzer", "--rules", "repo", "--baseline", "none"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "no findings" in completed.stdout


def test_repro_lint_code_cli_clean_against_baseline():
    from repro.cli import main

    assert main(["lint-code", "src/repro"]) == 0
    assert main(["lint-code", "--check-baseline"]) == 0


def test_repro_lint_code_writes_lock_inventory(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "locks.json"
    assert main(["lint-code", "src/repro", "--locks", str(out)]) == 0
    capsys.readouterr()
    with open(LOCKS_PATH, encoding="utf-8") as handle:
        assert json.load(handle) == json.loads(out.read_text())


def test_changed_mode_rejects_explicit_paths():
    from repro_analyzer.cli import main as analyzer_main

    assert analyzer_main(["src/repro", "--changed"]) == 2


def test_changed_python_files_diffs_against_a_ref(tmp_path):
    from repro_analyzer.cli import changed_python_files

    def git(*args):
        subprocess.run(
            ("git", "-C", str(tmp_path)) + args, check=True,
            capture_output=True,
            env={**os.environ, "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                 "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"},
        )

    git("init", "-q")
    (tmp_path / "a.py").write_text("A = 1\n")
    (tmp_path / "ignored.txt").write_text("not python\n")
    git("add", "a.py", "ignored.txt")
    git("commit", "-qm", "seed")
    (tmp_path / "a.py").write_text("A = 2\n")
    (tmp_path / "b.py").write_text("B = 1\n")
    (tmp_path / "ignored.txt").write_text("still not python\n")
    assert changed_python_files(str(tmp_path), "HEAD") == ["a.py", "b.py"]
    with pytest.raises(ValueError, match="git"):
        changed_python_files(str(tmp_path), "no-such-ref")


def test_repro_lint_code_counts_runs():
    from repro import obs
    from repro.cli import main

    with obs.use_registry() as registry:
        main(["lint-code", "src/repro"])
        snapshot = registry.snapshot()
    runs = [
        entry for entry in snapshot["counters"]
        if entry["name"] == "lint.runs" and entry["labels"].get("tool") == "code"
    ]
    assert runs and runs[0]["value"] == 1


def test_lint_query_and_lint_data_count_runs(tmp_path, capsys):
    from repro import obs
    from repro.cli import main

    data = tmp_path / "d.nt"
    data.write_text(
        "<http://example.org/s> <http://example.org/p> <http://example.org/o> .\n"
    )
    with obs.use_registry() as registry:
        main(["lint-query", "SELECT ?s WHERE { ?s ?p ?o }"])
        main(["lint-data", str(data)])
        snapshot = registry.snapshot()
    capsys.readouterr()
    tools = {
        entry["labels"].get("tool"): entry["value"]
        for entry in snapshot["counters"] if entry["name"] == "lint.runs"
    }
    assert tools.get("query") == 1
    assert tools.get("data") == 1
