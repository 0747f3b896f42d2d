"""Tests for AlexEngine reporter lifecycle, idempotent close, and health()."""

import json
import time

import pytest

from repro import obs
from repro.core.config import AlexConfig
from repro.core.engine import AlexEngine
from repro.errors import ConfigError
from repro.features.space import FeatureSpace
from repro.links import Link, LinkSet
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, URIRef


def _small_pair():
    left = Graph(name="left")
    right = Graph(name="right")
    name = URIRef("http://example.org/name")
    for index in range(4):
        left.add((URIRef(f"http://left.org/{index}"), name, Literal(f"n{index}")))
        right.add((URIRef(f"http://right.org/{index}"), name, Literal(f"n{index}")))
    return left, right


def _engine(**config_changes) -> tuple[AlexEngine, Graph, Graph]:
    left, right = _small_pair()
    space = FeatureSpace.build(left, right, theta=0.3)
    links = LinkSet(
        [Link(URIRef("http://left.org/0"), URIRef("http://right.org/0"))]
    )
    config = AlexConfig(episode_size=2, seed=7, **config_changes)
    return AlexEngine(space, links, config), left, right


class TestConfig:
    def test_reporting_off_by_default(self):
        config = AlexConfig(episode_size=10)
        assert config.report_interval == 0.0
        assert config.report_path is None

    def test_negative_interval_rejected(self):
        with pytest.raises(ConfigError, match="report_interval"):
            AlexConfig(episode_size=10, report_interval=-1.0)


class TestCloseIdempotence:
    def test_close_twice_is_safe(self):
        engine, _, _ = _engine()
        engine.close()
        engine.close()
        assert engine.closed

    def test_close_with_never_started_reporter(self, tmp_path):
        engine, _, _ = _engine(
            report_interval=60.0, report_path=str(tmp_path / "r.jsonl")
        )
        # Reporting configured but no feedback processed: reporter never
        # started; close must not create the sink or a thread.
        engine.close()
        engine.close()
        assert engine.closed
        assert not (tmp_path / "r.jsonl").exists()

    def test_close_stops_running_reporter(self, tmp_path):
        path = tmp_path / "r.jsonl"
        engine, _, _ = _engine(report_interval=60.0, report_path=str(path))
        link = Link(URIRef("http://left.org/1"), URIRef("http://right.org/1"))
        engine.process_feedback(link, positive=True)
        reporter = engine.reporter()
        assert reporter is not None and reporter.running
        engine.close()
        assert not reporter.running
        assert path.exists()  # header + final sample flushed on stop
        engine.close()  # second close: nothing left to stop


class TestReporterLifecycle:
    def test_no_reporter_without_config(self):
        engine, _, _ = _engine()
        assert engine.reporter() is None
        link = Link(URIRef("http://left.org/1"), URIRef("http://right.org/1"))
        engine.process_feedback(link, positive=True)
        assert engine.reporter() is None
        engine.close()

    def test_reporter_starts_lazily_on_feedback(self, tmp_path):
        path = tmp_path / "r.jsonl"
        engine, _, _ = _engine(report_interval=0.02, report_path=str(path))
        assert not path.exists()  # configured but not started yet
        link = Link(URIRef("http://left.org/1"), URIRef("http://right.org/1"))
        engine.process_feedback(link, positive=True)
        reporter = engine.reporter()
        assert reporter.running
        deadline = time.monotonic() + 2.0
        while reporter.samples_written < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        engine.close()
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) >= 3  # header + >=2 samples (interval + final)

    def test_reporter_returns_same_instance(self, tmp_path):
        engine, _, _ = _engine(
            report_interval=60.0, report_path=str(tmp_path / "r.jsonl")
        )
        assert engine.reporter() is engine.reporter()
        engine.close()


class TestHealth:
    def test_health_shape_and_status(self):
        engine, left, right = _engine()
        health = engine.health(graphs={"left": left, "right": right})
        assert health["status"] in ("ok", "degraded")
        assert set(health) == {
            "status", "engine", "caches", "trace",
            "reporter", "slowlog", "dictionaries",
        }
        assert health["engine"]["name"] == "alex"
        assert health["engine"]["closed"] is False
        assert health["caches"]["plan_cache"]["capacity"] >= 1
        assert "score_entries" in health["caches"]["similarity"]
        assert health["dictionaries"]["left"]["terms"] == len(left.dictionary)
        assert health["dictionaries"]["left"]["triples"] == len(left)
        assert health["reporter"]["configured"] is False
        assert health["slowlog"]["enabled"] is False
        engine.close()

    def test_health_is_json_serializable(self):
        engine, left, right = _engine()
        health = engine.health(graphs={"left": left, "right": right})
        assert json.loads(json.dumps(health)) == health
        engine.close()

    def test_health_reflects_reporter_and_slowlog(self, tmp_path):
        from repro.obs import slowlog

        path = tmp_path / "r.jsonl"
        engine, _, _ = _engine(report_interval=60.0, report_path=str(path))
        link = Link(URIRef("http://left.org/1"), URIRef("http://right.org/1"))
        engine.process_feedback(link, positive=True)
        slowlog.configure(threshold=0.5)
        try:
            health = engine.health()
        finally:
            slowlog.disable()
        assert health["reporter"]["configured"] is True
        assert health["reporter"]["running"] is True
        assert health["reporter"]["path"] == str(path)
        assert health["slowlog"]["enabled"] is True
        assert health["slowlog"]["threshold"] == 0.5
        engine.close()

    def test_health_degraded_on_trace_drops(self):
        from repro.obs import trace

        engine, _, _ = _engine()
        with obs.use_registry():
            tracer = trace.install(seed=0, capacity=2)
            for index in range(5):
                tracer.event("alex.link.discover", link=f"l{index}")
            health = engine.health()
            trace.uninstall()
        assert health["trace"]["installed"] is True
        assert health["trace"]["dropped"] > 0
        assert health["status"] == "degraded"
        engine.close()
