"""End-to-end scenario benchmark: set one workload up cold several times,
run its feedback sessions for a fixed time, check every output and print
the metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fig2b-prune --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs each session untraced and then traced, prints the per-layer metrics
and writes every span to ``.perfbench/<workload>-seed<seed>.spans.jsonl``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. README.md in this
directory says what each workload and metric stands for.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Committed records of a correct run at the default seed.
EXPECTED = HERE / "expected.json"
#: Where a traced run writes its spans.
SPANS_DIR = ROOT / ".perfbench"
#: Cold set-ups per run; set-up time is their median.
SETUPS = 3
#: Relative tolerance when comparing quality figures with their reference.
FLOAT_TOLERANCE = 1e-9

END_TO_END = {
    "setup_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "query_ms_mean": "ms",
    "peak_rss_mb": "MB",
    "final_f": "ratio",
}


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, int(share * len(ordered) + 0.5)))
    return ordered[rank - 1]


def matches(record: dict, reference: dict | None) -> bool:
    """Does a record equal its reference (floats within tolerance)?"""
    if reference is None or record.keys() != reference.keys():
        return False
    for key, value in record.items():
        expected = reference[key]
        if isinstance(value, float):
            if abs(value - expected) > FLOAT_TOLERANCE * max(1.0, abs(expected)):
                return False
        elif value != expected:
            return False
    return True


def count_failures(setups, sessions, expected: dict, check_expected_sessions: bool) -> int:
    """Set-ups and sessions whose output is wrong.

    Every set-up must give the committed set-up record. The first run of
    each session index must give the committed session record when
    ``check_expected_sessions`` (the default seed); every later run of an
    index must repeat its first run.
    """
    failed = sum(not matches(setup.record, expected.get("setup")) for setup in setups)
    first: dict[int, dict] = {}
    references = expected.get("sessions", [])
    for index, session in sessions:
        if index in first:
            failed += not matches(session.record, first[index])
            continue
        first[index] = session.record
        if check_expected_sessions:
            reference = references[index] if index < len(references) else None
            failed += not matches(session.record, reference)
    return failed


def run_sessions(deadline: float, minimum: int, run_one) -> None:
    """Call ``run_one(i)`` for i = 0, 1, ... at least ``minimum`` times,
    then while another call of median length ends before ``deadline``."""
    durations: list[float] = []
    while len(durations) < minimum or (
        time.perf_counter() + statistics.median(durations) <= deadline
    ):
        started = time.perf_counter()
        run_one(len(durations))
        durations.append(time.perf_counter() - started)


def end_to_end(setups, sessions, distinct: int) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics; ``sessions`` starts with one run of each of
    the ``distinct`` session indices."""
    latencies = [ms for _, session in sessions for ms in session.latencies_ms]
    values = {
        "setup_s": statistics.median(setup.seconds for setup in setups),
        "query_ms_p50": percentile(latencies, 0.50),
        "query_ms_p90": percentile(latencies, 0.90),
        "query_ms_mean": statistics.fmean(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_f": statistics.median(
            session.record["f_measure"] for _, session in sessions[:distinct]
        ),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begun = time.perf_counter()

    # The program under test is the checkout's own source tree.
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads
    from spans import Recorder, check_self_times

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    traced = args.trace == 1

    setups = []
    for _ in range(SETUPS):
        if setups:
            setups[-1][0].release()  # one set-up in memory at a time
        recorder = Recorder()
        setups.append((workloads.set_up(workload, recorder), recorder))
    setup = setups[-1][0]

    sessions = []  # (index, session) of every session run, in order
    pairs = []  # (untraced, traced, traced recorder) of the same index
    problems: list[str] = []  # trace self-check findings
    unsound = 0  # set-ups and traced sessions with such findings

    def check_trace(recorder, required=()) -> None:
        nonlocal unsound
        names = {span[0] for span in recorder.spans}
        found = check_self_times(recorder.spans, root=0) + [
            f"traced session has no {name} span" for name in required if name not in names
        ]
        problems.extend(found)
        unsound += bool(found)

    def run_one(i: int) -> None:
        index = (i // 2 if traced else i) % workload.sessions
        with_trace = traced and i % 2 == 1
        recorder = Recorder()
        session = workloads.run_session(workload, setup, args.seed, index, recorder, with_trace)
        sessions.append((index, session))
        if with_trace:
            pairs.append((sessions[-2][1], session, recorder))
            check_trace(recorder, workload.required_spans)

    deadline = begun + args.seconds
    run_sessions(deadline, 2 if traced else workload.sessions, run_one)
    for _, recorder in setups:
        check_trace(recorder)

    failed = count_failures(
        [s for s, _ in setups],
        sessions,
        expected.get(args.workload, {}),
        args.seed == workloads.DEFAULT_SEED,
    ) + unsound
    attempted = len(setups) + len(sessions)
    if traced:
        metrics = layers.per_layer(setups, pairs)
        SPANS_DIR.mkdir(exist_ok=True)
        path = SPANS_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for number, (_, recorder) in enumerate(setups):
                recorder.dump(handle, f"setup{number}")
            for number, (_, _, recorder) in enumerate(pairs):
                recorder.dump(handle, f"session{number}")
    else:
        metrics = end_to_end([s for s, _ in setups], sessions, workload.sessions)

    latencies = [ms for _, session in sessions for ms in session.latencies_ms]
    print(
        f"{args.workload} seed {args.seed}: {len(setups)} set-ups, {len(sessions)} sessions "
        f"({len(latencies)} timed calls, p99 {percentile(latencies, 0.99):.3f} ms), "
        f"{failed} failed"
    )
    for problem in problems:
        print(f"  trace check: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
