"""Unit tests for the telemetry bus (repro.obs.events)."""

import io
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro import arch, workloads
from repro.obs import events


@pytest.fixture(autouse=True)
def clean_obs():
    yield
    events.disable()


class TestBus:
    def test_disabled_emit_is_noop(self):
        assert not events.is_enabled()
        assert events.emit("run.start", command="x", label="") is None

    def test_emit_assigns_sequential_seq(self):
        sink = events.RingSink()
        events.enable(sinks=[sink])
        events.emit("run.start", command="a", label="")
        events.emit("run.end", command="a", outcome="ok", wall_s=0.1)
        assert [e.seq for e in sink.records] == [0, 1]
        assert [e.name for e in sink.records] == ["run.start", "run.end"]
        assert sink.records[0].cat == "run"

    def test_unknown_kind_rejected(self):
        bus = events.EventBus()
        with pytest.raises(ValueError, match="unknown event kind"):
            bus.emit("no.such.kind", x=1)

    def test_payload_field_named_kind(self):
        # engine.subtree's payload has a field literally named "kind".
        bus = events.EventBus([sink := events.RingSink()])
        bus.emit("engine.subtree", kind="slices", hits=1, misses=2,
                 evictions=0)
        assert sink.records[0].payload["kind"] == "slices"

    def test_replay_preserves_time_restamps_seq(self):
        worker = events.RingSink(capacity=None)
        bus = events.EventBus([worker])
        bus.emit("mcts.sample", _t=123.0, sample=0, cost=1.0, best_cost=1.0)
        with bus.span("engine.task"):
            with bus.span("mcts.sample"):
                pass
        records = pickle.loads(pickle.dumps(list(worker.records)))

        parent_sink = events.RingSink()
        parent = events.EventBus([parent_sink])
        with parent.span("parent.before"):
            pass
        assert parent.replay(records) == 3
        replayed, inner, outer = list(parent_sink.records)[-3:]
        assert replayed.t == 123.0 and replayed.seq == 1
        assert replayed.name == "mcts.sample"
        # Span ids are renumbered past the parent's own, keeping the
        # worker's nesting; the worker's root stays a root.
        assert inner.payload["parent"] == outer.payload["id"]
        assert outer.payload["parent"] is None
        assert len({parent_sink.records[0].payload["id"],
                    inner.payload["id"], outer.payload["id"]}) == 3

    def test_module_replay_routes_events_and_profiling_records(self):
        # A service job thread: events to its local bus, spans and
        # counters to the global profiling bus.
        worker = events.RingSink(capacity=None)
        bus = events.EventBus([worker])
        bus.emit("run.start", command="w", label="")
        bus.count("mcts.infeasible")
        job, profile = events.RingSink(), events.RingSink()
        events.enable(sinks=[profile], profiling=True)
        events.enable(sinks=[job], local=True)
        try:
            assert events.replay(worker.records) == 2
        finally:
            events.disable(local=True)
        assert [r.type for r in job.records] == ["event"]
        assert [r.type for r in profile.records] == ["count"]

    def test_local_bus_cannot_take_profiling_records(self):
        with pytest.raises(ValueError, match="process-global"):
            events.enable(sinks=[], local=True, profiling=True)

    def test_ring_sink_bounds_and_counts_drops(self):
        sink = events.RingSink(capacity=2)
        bus = events.EventBus([sink])
        for i in range(5):
            bus.emit("search.progress", phase="ga", step=i, total=5,
                     best_cost=None)
        assert len(sink.records) == 2
        assert sink.dropped == 3
        assert [e.payload["step"] for e in sink.records] == [3, 4]

    def test_callback_sink_survives_broken_subscriber(self):
        calls = []

        def broken(event):
            calls.append(event.name)
            raise RuntimeError("subscriber bug")

        bus = events.EventBus([events.CallbackSink(broken, max_errors=2)])
        for _ in range(4):
            bus.emit("run.start", command="x", label="")
        assert calls == ["run.start", "run.start"]  # muted after 2 strikes

    def test_jsonl_sink_writes_valid_lines(self):
        buf = io.StringIO()
        bus = events.EventBus([events.JsonlSink(buf)])
        bus.emit("ga.generation", generation=0, best_cost=2.0,
                 mean_cost=None, evaluated=4, reused=0)
        bus.close()
        (line,) = buf.getvalue().splitlines()
        obj = json.loads(line)
        assert events.validate_record(obj) == []
        assert obj["payload"]["mean_cost"] is None


class TestCostMapping:
    def test_jsonable_cost(self):
        assert events.jsonable_cost(float("inf")) is None
        assert events.jsonable_cost(float("-inf")) is None
        assert events.jsonable_cost(float("nan")) is None
        assert events.jsonable_cost(None) is None
        assert events.jsonable_cost(3) == 3.0


class TestSchema:
    def test_checked_in_schema_matches_registry(self):
        with open("tests/data/event_schema.json") as fh:
            checked_in = json.load(fh)
        assert checked_in == events.event_schema(), (
            "tests/data/event_schema.json is stale; regenerate with "
            "`python -m repro.obs --print-schema`")

    def test_module_entry_point_runs_under_runtime_warnings_as_errors(
            self, tmp_path):
        # ``python -m repro.obs.events`` re-executed a module the package
        # had already imported, which warns on every run; the package
        # entry point must run cleanly with such warnings made errors.
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH"))
            if p)
        trace = tmp_path / "trace.jsonl"
        sink = events.JsonlSink(str(trace))
        events.enable(sinks=[sink])
        try:
            events.emit("run.start", command="search", label="test")
        finally:
            events.disable()
            sink.close()

        def run(*args):
            return subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m",
                 "repro.obs", *args], capture_output=True, text=True,
                env=env, cwd=root, timeout=120)

        printed = run("--print-schema")
        assert printed.returncode == 0, printed.stderr
        assert json.loads(printed.stdout) == events.event_schema()
        checked = run("--validate", str(trace), "--schema",
                      "tests/data/event_schema.json")
        assert checked.returncode == 0, checked.stderr
        assert checked.stderr == ""
        assert checked.stdout.splitlines() == [
            "tests/data/event_schema.json: matches the record registry",
            f"{trace}: OK"]

    def test_every_kind_has_known_category(self):
        for kind, (category, fields) in events.EVENT_TYPES.items():
            assert category in events.CATEGORIES, kind
            assert fields, kind

    def test_validate_record_checks_every_record_type(self):
        span = {"type": "span", "seq": 3, "t0": 0.5, "t1": 0.75,
                "name": "mcts.sample", "cat": "mapper", "id": 2,
                "parent": None, "depth": 0, "attrs": {}}
        count = {"type": "count", "seq": 4, "t": 1.0, "name": "c", "n": 2}
        gauge = {"type": "gauge", "seq": 5, "t": 1.0, "name": "g",
                 "value": 0.5}
        for good in (span, count, gauge):
            assert events.validate_record(good) == [], good
            assert events.validate_record(dict(good, bogus=1))
        assert events.validate_record(dict(span, parent="x"))
        assert events.validate_record(dict(count, n="many"))
        assert events.validate_record(dict(gauge, seq=-1))
        assert events.validate_record({"type": "metric", "seq": 0}) == [
            "unknown record type 'metric'"]

    def test_validate_record_rejects_bad_payloads(self):
        good = {"type": "event", "seq": 0, "t": 0.0, "kind": "mcts.sample",
                "cat": "search",
                "payload": {"sample": 0, "cost": 1.0, "best_cost": 1.0}}
        assert events.validate_record(good) == []
        bad_type = dict(good, payload={"sample": "zero", "cost": 1.0,
                                       "best_cost": 1.0})
        assert any("sample" in p for p in events.validate_record(bad_type))
        extra = dict(good, payload=dict(good["payload"], bogus=1))
        assert any("unexpected" in p for p in events.validate_record(extra))
        wrong_cat = dict(good, cat="cache")
        assert any("cat" in p for p in events.validate_record(wrong_cat))

    def test_validate_jsonl_reports_line_numbers(self):
        buf = io.StringIO('not json\n{"type": "event"}\n')
        problems = events.validate_jsonl(buf)
        assert any(p.startswith("line 1:") for p in problems)
        assert any(p.startswith("line 2:") for p in problems)


class TestSearchEmission:
    def _workload(self):
        return workloads.self_attention(2, 32, 64, expand_softmax=False)

    def test_search_emits_expected_kinds(self):
        from repro.mapper import TileFlowMapper
        sink = events.RingSink(capacity=None)
        events.enable(sinks=[sink])
        TileFlowMapper(self._workload(), arch.edge(), seed=0).explore(
            generations=2, population=4, mcts_samples=4)
        events.disable()
        kinds = {e.name for e in sink.records}
        assert {"ga.generation", "search.progress", "mcts.sample",
                "engine.subtree"} <= kinds
        assert "engine.memo" not in kinds
        gens = [e.payload for e in sink.records
                if e.name == "ga.generation"]
        assert [g["generation"] for g in gens] == [0, 1]
        steps = [e.payload for e in sink.records
                 if e.name == "search.progress"]
        assert all(s["phase"] == "ga" and s["total"] == 2 for s in steps)

    def test_prescreen_reject_carries_reason_codes(self):
        from repro.engine import EvaluationEngine
        from repro.mapper.encoding import (Genome, genome_factor_space)
        wl = self._workload()
        # A tiny L1 makes the memory-capacity bound fire.
        tight = arch.edge().with_level("L1", capacity_bytes=64)
        engine = EvaluationEngine(wl, tight)
        sink = events.RingSink(capacity=None)
        events.enable(sinks=[sink])
        genome = Genome.unfused(wl)
        space = genome_factor_space(wl, genome)
        engine.genome_cost(genome, space.default_point())
        events.disable()
        rejects = [e for e in sink.records if e.name == "prescreen.reject"]
        assert rejects, "expected the tight arch to trigger a rejection"
        codes = rejects[0].payload["codes"]
        assert any(c.startswith(("memory.capacity:", "compute."))
                   for c in codes)
        # Reason codes are index-parallel to the human-readable strings.
        assert len(codes) >= 1

    def test_events_do_not_change_search(self):
        from repro.mapper import TileFlowMapper
        wl = self._workload()
        baseline = TileFlowMapper(wl, arch.edge(), seed=0).explore(
            generations=2, population=4, mcts_samples=4)
        events.enable(sinks=[events.RingSink(capacity=None)])
        streamed = TileFlowMapper(wl, arch.edge(), seed=0).explore(
            generations=2, population=4, mcts_samples=4)
        events.disable()
        assert streamed.to_dict() == baseline.to_dict()
