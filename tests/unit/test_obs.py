"""Unit tests for the observability layer (repro.obs): spans, counters
and gauges as records of the one telemetry stream."""

import io
import time

import pytest

from repro import arch, obs, workloads
from repro.analysis import TileFlowModel
from repro.dataflows import attention_dataflow
from repro.mapper import TileFlowMapper
from repro.obs import events


@pytest.fixture(autouse=True)
def clean_obs():
    """Never leak an installed bus into other tests."""
    yield
    events.disable()


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def profiling_bus(step=1.0):
    """Install a profiling bus on a fake clock; returns its sink."""
    sink = events.RingSink(capacity=None)
    events.enable(events.EventBus([sink], clock=FakeClock(step)),
                  profiling=True)
    return sink


def spans(records):
    return [r for r in records if r.type == "span"]


class TestSpans:
    def test_nesting_parent_and_depth(self):
        sink = profiling_bus()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        events.disable()
        inner, outer = sink.records  # inner finishes (is recorded) first
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.payload["parent"] == outer.payload["id"]
        assert inner.payload["depth"] == 1 and outer.payload["depth"] == 0
        assert outer.payload["parent"] is None

    def test_timing_uses_clock(self):
        sink = events.RingSink(capacity=None)
        bus = events.EventBus([sink], clock=FakeClock(step=1.0))
        with bus.span("a"):
            pass
        (span,) = sink.records
        assert span.duration_s == pytest.approx(1.0)

    def test_attrs_and_set(self):
        with obs.capture() as sink:
            with obs.span("a", "cat", tree="t1") as span:
                span.set(extra=3)
        (record,) = sink.records
        assert record.payload["attrs"] == {"tree": "t1", "extra": 3}
        assert record.cat == "cat"

    def test_exception_still_records_span(self):
        with obs.capture() as sink:
            with pytest.raises(RuntimeError):
                with obs.span("boom"):
                    raise RuntimeError("x")
        assert [s.name for s in sink.records] == ["boom"]

    def test_disabled_is_shared_noop(self):
        assert not obs.is_enabled()
        span = obs.span("anything")
        assert span is obs.NOOP_SPAN
        with span as s:
            s.set(ignored=True)

    def test_traced_decorator(self):
        calls = []

        @obs.traced("custom.name")
        def work(x):
            calls.append(x)
            return x * 2

        assert work(3) == 6  # disabled: pass-through
        with obs.capture() as sink:
            assert work(4) == 8
        assert calls == [3, 4]
        assert [s.name for s in sink.records] == ["custom.name"]

    def test_spans_counts_and_events_share_one_order_and_clock(self):
        sink = profiling_bus(step=1.0)
        with obs.span("work"):
            obs.count("c")
            events.emit("run.start", command="x", label="")
        obs.gauge("g", 2.0)
        events.disable()
        assert [(r.type, r.seq) for r in sink.records] == [
            ("count", 0), ("event", 1), ("span", 2), ("gauge", 3)]
        # Clock reads: span start 0, count 1, event 2, span end 3,
        # gauge 4 — one clock for every record type.
        count, event, span, gauge = sink.records
        assert (span.t, count.t, event.t, span.payload["t1"], gauge.t) \
            == (0.0, 1.0, 2.0, 3.0, 4.0)


class TestMetrics:
    def test_counter_aggregation(self):
        with obs.capture() as sink:
            obs.count("c")
            obs.count("c", 4)
        assert [(r.type, r.payload) for r in sink.records] == [
            ("count", {"n": 1}), ("count", {"n": 4})]
        assert obs.fold_counts(sink.records) == {"c": 5}

    def test_gauge_high_water(self):
        with obs.capture() as sink:
            obs.gauge("g", 2.0)
            obs.gauge("g", 9.0)
            obs.gauge("g", 5.0)
        assert obs.fold_gauges(sink.records) == {"g": (5.0, 9.0)}

    def test_disabled_records_nothing(self):
        obs.count("nope")
        obs.gauge("nope_g", 1.0)
        # An events-only bus takes events, never spans or counters.
        sink = events.RingSink(capacity=None)
        events.enable(sinks=[sink])
        assert not obs.is_enabled()
        obs.count("nope")
        obs.gauge("nope_g", 1.0)
        with obs.span("nope_s"):
            pass
        assert list(sink.records) == []

    def test_enable_resets(self):
        with obs.capture() as first:
            obs.count("c")
        with obs.capture() as second:  # fresh session
            pass
        assert len(first.records) == 1
        assert list(second.records) == []


class TestJsonlRoundTrip:
    def _session(self, out):
        sink = events.RingSink(capacity=None)
        events.enable(events.EventBus([sink, events.JsonlSink(out)],
                                      clock=FakeClock(step=0.5)),
                      profiling=True)
        with obs.span("outer", "cat", tree="t"):
            with obs.span("inner"):
                pass
        obs.count("evals", 3)
        obs.gauge("best", 42.0)
        events.emit("mcts.sample", sample=0, cost=None, best_cost=1.0)
        events.disable()
        return list(sink.records)

    def test_round_trip_preserves_everything(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w") as out:
            live = self._session(out)
        loaded = obs.load_jsonl(path)
        assert [r.to_json() for r in loaded] == [r.to_json() for r in live]
        assert loaded[0].duration_s == live[0].duration_s

    def test_replay_renders_identical_summary(self, tmp_path):
        buf = io.StringIO()
        live = self._session(buf)
        buf.seek(0)
        assert obs.render_profile(obs.load_jsonl(buf)) == \
            obs.render_profile(live)


class TestAggregation:
    def test_self_time_excludes_children(self):
        sink = events.RingSink(capacity=None)
        bus = events.EventBus([sink], clock=FakeClock(step=1.0))
        # Clock reads: outer-start=0, inner-start=1, inner-end=2,
        # outer-end=3 -> inner total 1s, outer total 3s, outer self 2s.
        with bus.span("outer"):
            with bus.span("inner"):
                pass
        stats = {s.name: s for s in obs.aggregate_spans(sink.records)}
        assert stats["inner"].total_s == pytest.approx(1.0)
        assert stats["outer"].total_s == pytest.approx(3.0)
        assert stats["outer"].self_s == pytest.approx(2.0)
        assert stats["inner"].count == stats["outer"].count == 1

    def test_sorted_by_self_time(self):
        sink = events.RingSink(capacity=None)
        bus = events.EventBus([sink], clock=FakeClock(step=1.0))
        with bus.span("short"):
            pass
        with bus.span("long"):
            with bus.span("mid"):
                pass
        names = [s.name for s in obs.aggregate_spans(sink.records)]
        assert names[0] == "long"


class TestModelInstrumentation:
    def _evaluate(self):
        wl = workloads.self_attention(2, 32, 64, expand_softmax=False)
        spec = arch.edge()
        tree = attention_dataflow("flat_rgran", wl, spec)
        return TileFlowModel(spec).evaluate(tree)

    def test_stage_spans_and_counters(self):
        with obs.capture() as sink:
            self._evaluate()
        names = [s.name for s in spans(sink.records)]
        assert {"model.evaluate", "model.pass.validate", "model.pass.slices",
                "model.pass.datamovement", "model.pass.resources",
                "model.pass.latency", "model.pass.energy"} <= set(names)
        # The span is the evaluation count; no counter repeats it.
        assert names.count("model.evaluate") == 1
        assert "model.evaluations" not in obs.fold_counts(sink.records)

    def test_noop_overhead_within_noise(self):
        """Disabled-mode spans must cost < 5% of one model evaluation.

        Measures the no-op span path directly (the only cost tracing
        adds to an evaluate call when disabled) against the wall time of
        the evaluation it would wrap, on a cached small workload.
        """
        assert not obs.is_enabled()
        wl = workloads.self_attention(2, 32, 64, expand_softmax=False)
        spec = arch.edge()
        tree = attention_dataflow("flat_rgran", wl, spec)
        model = TileFlowModel(spec)
        model.evaluate(tree)  # warm caches
        repeats = 5
        t0 = time.perf_counter()
        for _ in range(repeats):
            model.evaluate(tree)
        eval_s = (time.perf_counter() - t0) / repeats

        spans_per_eval = 7  # evaluate + 6 pipeline passes
        rounds = 2000
        t0 = time.perf_counter()
        for _ in range(rounds):
            with obs.span("model.evaluate", "analysis", tree="x"):
                for _ in range(spans_per_eval - 1):
                    with obs.span("stage", "analysis"):
                        pass
        noop_s = (time.perf_counter() - t0) / rounds
        assert noop_s < 0.05 * eval_s, (noop_s, eval_s)

    def test_disabled_event_guard_within_noise(self):
        """Disabled-mode event guards must cost < 5% of one evaluation.

        Every instrumented site checks ``events.is_enabled()`` before
        building a payload; with no bus installed an evaluation pays
        only those guard reads.  ~10 guarded sites fire per engine
        evaluation (memo lookup, pre-screen, per-kind subtree deltas,
        one MCTS sample), so measure that many guards per round.
        """
        from repro.obs import events
        assert not events.is_enabled()
        wl = workloads.self_attention(2, 32, 64, expand_softmax=False)
        spec = arch.edge()
        tree = attention_dataflow("flat_rgran", wl, spec)
        model = TileFlowModel(spec)
        model.evaluate(tree)  # warm caches
        repeats = 5
        t0 = time.perf_counter()
        for _ in range(repeats):
            model.evaluate(tree)
        eval_s = (time.perf_counter() - t0) / repeats

        guards_per_eval = 10
        rounds = 2000
        t0 = time.perf_counter()
        for _ in range(rounds):
            for _ in range(guards_per_eval):
                if events.is_enabled():  # pragma: no cover
                    events.emit("search.progress", phase="x", step=0,
                                total=0, best_cost=None)
        guard_s = (time.perf_counter() - t0) / rounds
        assert guard_s < 0.05 * eval_s, (guard_s, eval_s)


class TestMapperDeterminism:
    def test_tracing_does_not_change_search(self):
        wl = workloads.self_attention(2, 32, 64, expand_softmax=False)
        spec = arch.edge()
        baseline = TileFlowMapper(wl, spec, seed=0).explore(
            generations=2, population=4, mcts_samples=4)
        with obs.capture() as sink:
            traced = TileFlowMapper(wl, spec, seed=0).explore(
                generations=2, population=4, mcts_samples=4)
        assert traced.to_dict() == baseline.to_dict()
        assert obs.fold_counts(sink.records)["mapper.evaluations"] > 0
        assert any(s.name == "mcts.sample" for s in spans(sink.records))

    def test_mapper_spans_present(self):
        wl = workloads.self_attention(2, 32, 64, expand_softmax=False)
        with obs.capture() as sink:
            TileFlowMapper(wl, arch.edge(), seed=0).explore(
                generations=1, population=4, mcts_samples=2)
        names = {s.name for s in spans(sink.records)}
        assert {"mapper.explore", "ga.generation", "mcts.sample"} <= names


class TestWorkerParity:
    """A ``--workers 2`` trace carries what a serial trace does: pool
    workers ship their spans and counters back with every task."""

    SPAN_NAMES = ("mcts.sample", "model.evaluate")
    COUNTERS = ("mcts.infeasible", "engine.evaluations",
                "mapper.evaluations")

    def _trace(self, tmp_path, workers):
        from repro.cli import main
        path = str(tmp_path / f"w{workers}.jsonl")
        assert main(["search", "Bert-S", "--generations", "1",
                     "--population", "4", "--samples", "5", "--quiet",
                     "--workers", str(workers), "--trace", path]) == 0
        assert events.validate_jsonl(path) == []
        records = obs.load_jsonl(path)
        names = [s.name for s in spans(records)]
        counts = obs.fold_counts(records)
        search = [(r.name, r.payload) for r in records
                  if r.type == "event" and r.cat == "search"]
        return ({n: names.count(n) for n in self.SPAN_NAMES},
                {n: counts.get(n, 0) for n in self.COUNTERS},
                names.count("engine.task"), search)

    def test_worker_trace_matches_serial_counts(self, tmp_path):
        s_spans, s_counts, s_tasks, s_search = self._trace(tmp_path, 1)
        p_spans, p_counts, p_tasks, p_search = self._trace(tmp_path, 2)
        assert s_spans["mcts.sample"] == 20  # 4 genomes x 5 samples
        assert p_spans == s_spans
        assert p_counts == s_counts and s_counts["mcts.infeasible"] > 0
        assert p_search == s_search
        assert (s_tasks, p_tasks) == (0, 4)  # one span per pooled tune


class TestSimInstrumentation:
    def test_sim_events_and_occupancy(self):
        from repro.sim import SimulatedAccelerator
        wl = workloads.self_attention(2, 32, 64, expand_softmax=False)
        spec = arch.edge()
        tree = attention_dataflow("flat_rgran", wl, spec)
        with obs.capture() as sink:
            SimulatedAccelerator(spec).run(tree)
        names = {s.name for s in spans(sink.records)}
        assert {"sim.run", "sim.event_loop", "sim.energy"} <= names
        assert obs.fold_counts(sink.records)["sim.events"] > 0
        gauges = obs.fold_gauges(sink.records)
        occupancy = [n for n in gauges if n.startswith("sim.occupancy_bytes.")]
        assert occupancy
        assert all(gauges[n][1] >= 0 for n in occupancy)
