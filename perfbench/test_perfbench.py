"""Tests of the benchmark itself, on a cut-down workload.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, check_self_times, self_times, totals_by_name  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: The smallest catalog pair and its cheapest scenario (episode size 10).
TINY = workloads.Workload(
    name="tiny",
    pair_key="dbpedia_nba_nytimes",
    theta=0.3,
    linker=workloads.SCENARIOS["fig4c"].linker,
    sessions=2,
    required_spans=("core.process_feedback", "feedback.episode"),
    scenario="fig4c",
)


@pytest.fixture(scope="module")
def tiny_expected(tmp_path_factory):
    """A committed-expectation file for the tiny workload at the default seed."""
    setup = workloads.set_up(TINY, Recorder())
    sessions = [
        workloads.run_session(TINY, setup, workloads.DEFAULT_SEED, k, Recorder(), False).record
        for k in range(TINY.sessions)
    ]
    path = tmp_path_factory.mktemp("expected") / "expected.json"
    path.write_text(json.dumps({"tiny": {"setup": setup.record, "sessions": sessions}}))
    return path


def _run(monkeypatch, expected: Path, *args: str) -> dict:
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "EXPECTED", expected)
    monkeypatch.setattr(run, "SPANS_DIR", expected.parent / ".perfbench")
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "tiny", "--seconds", "0", *args]) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _check_schema(result: dict, names) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))


def test_untraced_run_prints_every_end_to_end_metric(monkeypatch, tiny_expected):
    result = _run(monkeypatch, tiny_expected, "--trace", "0")
    _check_schema(result, run.END_TO_END)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.SETUPS + TINY.sessions
    for name in ("setup_s", "query_ms_p50", "query_ms_p90", "peak_rss_mb", "final_f"):
        assert result["metrics"][name]["value"] > 0


def test_traced_run_prints_every_per_layer_metric(monkeypatch, tiny_expected):
    result = _run(monkeypatch, tiny_expected, "--trace", "1")
    _check_schema(result, layers.PER_LAYER)
    assert result["correct"], "traced and untraced sessions agree; traces are sound"
    metrics = result["metrics"]
    assert metrics["core.feedback_calls"]["value"] > 0
    assert metrics["trace.overhead"]["value"] > 0
    assert metrics["federation.select_calls"]["value"] == 0, "batch runs no federation"
    spans = tiny_expected.parent / ".perfbench" / "tiny-seed0.spans.jsonl"
    assert spans.read_text().count("\n") > 0


def test_corrupted_expected_digest_counts_as_failure(monkeypatch, tiny_expected, tmp_path):
    committed = json.loads(tiny_expected.read_text())
    committed["tiny"]["sessions"][1]["digest"] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(committed))
    result = _run(monkeypatch, corrupted, "--trace", "0")
    assert result["failed"] == 1 and result["correct"] is False


def test_other_seeds_check_repeats_not_expectations(monkeypatch, tiny_expected):
    # Seed 5's sessions have no committed records; every set-up still has.
    result = _run(monkeypatch, tiny_expected, "--seed", "5")
    assert result["correct"]


def test_count_failures_compares_repeats_with_first_run():
    setup = workloads.Setup(None, None, None, 1.0, {"digest": "a"}, None)
    first = workloads.Session({"digest": "x", "f_measure": 0.5}, 1.0, [1.0], 0)
    same = workloads.Session({"digest": "x", "f_measure": 0.5}, 2.0, [2.0], 0)
    other = workloads.Session({"digest": "y", "f_measure": 0.5}, 1.0, [1.0], 0)
    expected = {"setup": {"digest": "a"}, "sessions": [{"digest": "x", "f_measure": 0.5}]}
    assert run.count_failures([setup], [(0, first), (0, same)], expected, True) == 0
    assert run.count_failures([setup], [(0, first), (0, other)], expected, True) == 1
    assert run.count_failures([setup], [(0, other)], expected, True) == 1
    assert run.count_failures([setup], [(0, other)], expected, False) == 0
    assert run.count_failures([setup], [], {"setup": {"digest": "b"}}, False) == 1


def test_self_times_add_up_to_the_root():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
        ["next-root", 11.0, 12.0, -1],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]
    assert check_self_times(spans, root=0) == []
    totals = totals_by_name(spans)
    assert (totals["a"].calls, totals["a"].seconds, totals["a"].self_seconds) == (1, 3.0, 2.0)


def test_self_time_check_flags_a_child_outside_its_parent():
    spans = [["root", 0.0, 10.0, -1], ["late", 9.0, 11.0, 0]]
    assert check_self_times(spans, root=0)


def test_recorder_patches_and_restores_methods():
    class Layer:
        def work(self, x):
            return x + 1

    recorder = Recorder()
    original = Layer.__dict__["work"]
    with recorder.span("root"), recorder.patched([(Layer, "work", "layer.work")]):
        assert Layer().work(1) == 2
    assert Layer.__dict__["work"] is original
    assert [span[0] for span in recorder.spans] == ["root", "layer.work"]
    assert recorder.spans[1][3] == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]
    for metric in spec["per_layer"]:
        assert metric["unit"] == layers.PER_LAYER[metric["name"]]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
