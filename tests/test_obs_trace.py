"""Unit tests for repro.obs.trace: the tracer, sampling, export, composition.

Spans are ``obs.span`` regions of a registry with an installed tracer; the
``installed`` helper gives each test its own scoped registry.
"""

from contextlib import contextmanager

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs import trace
from repro.obs.trace import (
    TRACE_SCHEMA,
    Tracer,
    load_jsonl,
    render_summary,
    render_waterfall,
    write_jsonl,
)


@contextmanager
def installed(**settings):
    """A fresh scoped registry with a tracer installed on it."""
    with obs.use_registry(obs.Registry("t")):
        yield trace.install(**settings)


class TestTracerBasics:
    def test_span_assigns_trace_and_span_ids(self):
        with installed(seed=0) as tracer:
            with obs.span("outer.op.run") as outer:
                assert outer.sampled
                assert outer.trace_id is not None
                assert outer.parent_id is None
                with obs.span("inner.op.run") as inner:
                    assert inner.trace_id == outer.trace_id
                    assert inner.parent_id == outer.span_id
        records = tracer.records()
        assert [r["name"] for r in records] == ["inner.op.run", "outer.op.run"]
        assert all(r["kind"] == "span" for r in records)
        assert records[0]["parent"] == records[1]["span"]
        assert records[1]["parent"] is None

    def test_event_attaches_to_innermost_span(self):
        with installed(seed=0) as tracer:
            with obs.span("outer.op.run"), obs.span("inner.op.run") as inner:
                tracer.event("thing.happened", value=3)
        event = next(r for r in tracer.records() if r["kind"] == "event")
        assert event["trace"] == inner.trace_id
        assert event["parent"] == inner.span_id
        assert event["attrs"] == {"value": 3}

    def test_event_outside_span_is_traceless(self):
        tracer = Tracer(seed=0)
        tracer.event("orphan.event.fired")
        (record,) = tracer.records()
        assert record["trace"] is None
        assert record["parent"] is None
        assert record["kind"] == "event"

    def test_exception_inside_span_records_error_attr(self):
        with installed(seed=0) as tracer, pytest.raises(ValueError):
            with obs.span("bad.op.run"):
                raise ValueError("boom")
        (record,) = tracer.records()
        assert record["attrs"]["error"] == "ValueError"
        assert record["dur"] >= 0.0

    def test_attrs_are_coerced_to_json_atoms(self):
        tracer = Tracer(seed=0)
        tracer.event(
            "coerce.check.run",
            items={"b", "a"},
            mapping={1: object},
            uri=pytest,  # arbitrary non-atom -> str()
        )
        attrs = tracer.records()[0]["attrs"]
        assert attrs["items"] == ["a", "b"]
        assert isinstance(attrs["uri"], str)
        assert list(attrs["mapping"]) == ["1"]

    def test_invalid_construction_rejected(self):
        with pytest.raises(ObsError):
            Tracer(capacity=0)
        with pytest.raises(ObsError):
            Tracer(sample=1.5)


class TestOneSpanApi:
    def test_span_feeds_aggregate_and_record_from_one_timing(self):
        with installed(seed=0) as tracer:
            with obs.span("outer.op.run", n=1) as outer:
                with obs.span("inner.op.run"):
                    pass
            spans = obs.snapshot()["spans"]
        by_path = {entry["path"]: entry for entry in spans}
        assert set(by_path) == {"outer.op.run", "outer.op.run/inner.op.run"}
        assert by_path["outer.op.run"]["total_seconds"] == outer.elapsed
        record = next(r for r in tracer.records() if r["name"] == "outer.op.run")
        assert record["dur"] == round(outer.elapsed, 9)
        assert record["attrs"] == {"n": 1}

    def test_span_entered_before_install_is_invisible(self):
        with obs.use_registry(obs.Registry("t")) as registry:
            with obs.span("early.op.run") as early:
                tracer = trace.install(seed=0)
                tracer.event("inside.event.fired")
                with obs.span("late.op.run") as late:
                    pass
            paths = {entry["path"] for entry in registry.snapshot()["spans"]}
        assert early.trace_id is None and not early.sampled
        assert paths == {"early.op.run", "early.op.run/late.op.run"}
        records = tracer.records()
        assert [r["name"] for r in records] == ["inside.event.fired", "late.op.run"]
        assert records[0]["trace"] is None
        # the first span the tracer sees starts its own trace
        assert records[1]["trace"] == late.trace_id is not None
        assert records[1]["parent"] is None


class TestDeterminism:
    def test_seeded_tracers_produce_identical_ids(self):
        def run(seed):
            with installed(seed=seed) as tracer:
                with obs.span("a.b.c", n=1):
                    tracer.event("a.b.d")
                    with obs.span("a.b.e"):
                        pass
            return [(r["trace"], r["span"], r["parent"]) for r in tracer.records()]

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestSampling:
    def test_sample_zero_records_nothing(self):
        with installed(sample=0.0, seed=0) as tracer:
            with obs.span("never.kept.run") as handle:
                assert not handle.sampled
                assert handle.trace_id is None
                tracer.event("inner.event.fired")
                with obs.span("never.kept.child") as child:
                    assert not child.sampled
                    tracer.event("nested.event.fired")
        assert len(tracer) == 0

    def test_sampling_decision_made_at_root_and_inherited(self):
        kept = 0
        with installed(sample=0.5, seed=1) as tracer:
            for _ in range(50):
                with obs.span("root.op.run") as root:
                    with obs.span("child.op.run") as child:
                        assert child.sampled == root.sampled
                    kept += 1 if root.sampled else 0
        assert 0 < kept < 50
        # every buffered record belongs to a sampled trace
        assert all(r["trace"] is not None for r in tracer.records())


class TestRingBuffer:
    def test_capacity_evicts_oldest_and_counts_dropped(self):
        tracer = Tracer(capacity=4, seed=0)
        for index in range(10):
            tracer.event("tick.event.fired", index=index)
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert [r["attrs"]["index"] for r in tracer.records()] == [6, 7, 8, 9]

    def test_compaction_keeps_order_over_many_wraps(self):
        tracer = Tracer(capacity=3, seed=0)
        for index in range(100):
            tracer.event("tick.event.fired", index=index)
        assert [r["attrs"]["index"] for r in tracer.records()] == [97, 98, 99]
        assert tracer.dropped == 97

    def test_clear_resets_buffer_and_dropped(self):
        tracer = Tracer(capacity=2, seed=0)
        for _ in range(5):
            tracer.event("tick.event.fired")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0


class TestPayloadAbsorb:
    def test_holder_absorbs_worker_payload(self):
        worker = Tracer(seed=0)
        worker.event("worker.event.fired", partition=1)
        holder = Tracer(enabled=False)
        holder.absorb(worker.payload())
        assert len(holder) == 1
        # holder records nothing of its own
        with obs.use_registry(obs.Registry("t")) as registry:
            registry.tracer = holder
            holder.event("local.event.fired")
            with obs.span("local.span.run") as span:
                assert span.trace_id is None
        assert len(holder) == 1

    def test_absorb_rejects_unknown_schema(self):
        with pytest.raises(ObsError):
            Tracer().absorb({"schema": "not-a-trace", "records": []})

    def test_absorb_sums_dropped(self):
        a = Tracer(capacity=1, seed=0)
        a.event("x.y.z")
        a.event("x.y.z")
        assert a.dropped == 1
        b = Tracer(seed=0)
        b.absorb(a.payload())
        assert b.dropped == 1


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        with installed(seed=7) as tracer:
            with obs.span("root.op.run", n=2):
                tracer.event("leaf.event.fired", q=0.5)
        path = str(tmp_path / "trace.jsonl")
        tracer.write_jsonl(path)
        payload = load_jsonl(path)
        assert payload["schema"] == TRACE_SCHEMA
        assert payload["records"] == tracer.records()
        assert payload["dropped"] == 0

    def test_truncated_file_fails_loudly(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(path, [{"name": "a.b.c"}, {"name": "a.b.d"}])
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ObsError, match="truncated"):
            load_jsonl(path)

    def test_non_trace_file_rejected(self, tmp_path):
        path = str(tmp_path / "junk.jsonl")
        with open(path, "w") as handle:
            handle.write('{"schema": "something-else"}\n')
        with pytest.raises(ObsError):
            load_jsonl(path)
        empty = str(tmp_path / "empty.jsonl")
        open(empty, "w").close()
        with pytest.raises(ObsError, match="empty"):
            load_jsonl(empty)


class TestModuleApi:
    def test_install_active_uninstall(self):
        with obs.use_registry(obs.Registry("t")):
            assert trace.active() is None
            with obs.span("noop.span.run") as untraced:
                assert trace.current_trace_id() is None
            assert untraced.trace_id is None and not untraced.sampled
            tracer = trace.install(seed=0)
            assert trace.active() is tracer
            with obs.span("mod.api.run") as handle:
                trace.event("mod.event.fired")
                assert trace.current_trace_id() == handle.trace_id
            assert trace.current_trace_id() is None
            removed = trace.uninstall()
            assert removed is tracer
            assert trace.active() is None
        assert len(tracer) == 2

    def test_holder_is_not_active(self):
        with obs.use_registry(obs.Registry("t")) as registry:
            registry.tracer = Tracer(enabled=False)
            assert trace.active() is None


class TestRegistryComposition:
    def test_snapshot_carries_events_and_merge_absorbs(self):
        with obs.use_registry(obs.Registry("worker")) as worker:
            trace.install(seed=0)
            obs.inc("work.items.done")
            trace.event("worker.event.fired", partition=0)
            snap = worker.snapshot()
        assert snap["events"]["schema"] == TRACE_SCHEMA
        assert len(snap["events"]["records"]) == 1

        with obs.use_registry(obs.Registry("parent")) as parent:
            parent.merge(snap)
            assert parent.tracer is not None
            assert not parent.tracer.enabled  # holder, not a live tracer
            assert len(parent.tracer) == 1
            merged = parent.snapshot()
        assert len(merged["events"]["records"]) == 1

    def test_snapshot_omits_events_when_tracer_is_empty(self):
        with obs.use_registry(obs.Registry("quiet")) as registry:
            trace.install(seed=0)
            snap = registry.snapshot()
        assert "events" not in snap

    def test_render_mentions_buffered_events(self):
        with obs.use_registry(obs.Registry("r")) as registry:
            trace.install(seed=0)
            trace.event("some.event.fired")
            text = registry.render()
        assert "trace events: 1 buffered" in text


class TestRendering:
    def _tracer(self):
        with installed(seed=0) as tracer:
            with obs.span("root.op.run"):
                tracer.event("leaf.event.fired", k="v")
                with obs.span("child.op.run"):
                    pass
            tracer.event("orphan.event.fired")
        return tracer

    def test_render_summary_counts_and_slowest(self):
        tracer = self._tracer()
        text = render_summary(tracer.records(), dropped=tracer.dropped)
        assert "4 record(s) in 1 trace(s) + 1 trace-less" in text
        assert "events by type:" in text
        assert "slowest spans" in text
        assert "root.op.run" in text

    def test_render_waterfall_tree_and_filter(self):
        tracer = self._tracer()
        records = tracer.records()
        text = render_waterfall(records)
        assert "root.op.run" in text
        assert "  child.op.run" in text  # indented under the root
        assert "1 trace-less event(s):" in text
        trace_id = next(r["trace"] for r in records if r["trace"])
        assert render_waterfall(records, trace_id=trace_id[:6]).startswith("trace ")
        assert render_waterfall(records, trace_id="zzzz") == "no trace matching 'zzzz'"
