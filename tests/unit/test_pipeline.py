"""Unit tests for the pass pipeline, AnalysisContext, partial evaluation."""

import pytest

from repro import arch, obs
from repro.analysis import (DEFAULT_PIPELINE, PRESCREEN_PIPELINE,
                            AnalysisContext, DataMovementAnalysis,
                            DataMovementPass, EnergyPass, LatencyPass,
                            Pipeline, PipelineError, ResourceBoundsPass,
                            SlicesPass, TileFlowModel, ValidatePass,
                            default_passes, num_pe_demand, prescreen_passes)
from repro.analysis.pipeline import check_builtin_pipelines
from repro.dataflows import attention_dataflow
from repro.errors import ResourceExceededError
from repro.workloads import self_attention


def span_names(sink):
    return {r.name for r in sink.records if r.type == "span"}


@pytest.fixture
def wl():
    return self_attention(2, 32, 64, expand_softmax=False)


@pytest.fixture
def spec():
    return arch.edge()


@pytest.fixture
def tree(wl, spec):
    return attention_dataflow("flat_rgran", wl, spec)


class TestWiringCheck:
    def test_builtin_pipelines_are_wired(self):
        report = check_builtin_pipelines()
        assert "default:" in report and "prescreen:" in report
        assert report.count("OK") == 2

    def test_read_before_write_rejected(self):
        # datamovement reads "slices", which nothing has produced yet.
        with pytest.raises(PipelineError, match="slices"):
            Pipeline((ValidatePass(), DataMovementPass(), SlicesPass()))

    def test_duplicate_names_rejected(self):
        with pytest.raises(PipelineError, match="duplicate"):
            Pipeline((ValidatePass(), ValidatePass()))

    def test_unnamed_pass_rejected(self):
        class Anon(ValidatePass):
            name = ""

        with pytest.raises(PipelineError, match="no name"):
            Pipeline((Anon(),))

    def test_declarations_match_artifacts_produced(self, tree, spec):
        """Each pass writes exactly the artifacts it declares."""
        ctx = AnalysisContext(tree, spec)
        for p in default_passes():
            before = {a for a in p.writes if ctx.has(a)}
            assert not before, f"{p.name} artifacts present before run"
            p.run(ctx)
            for artifact in p.writes:
                assert ctx.has(artifact), (p.name, artifact)

    def test_default_order_is_canonical(self):
        assert DEFAULT_PIPELINE.names() == (
            "validate", "slices", "datamovement", "resources", "latency",
            "energy")
        assert PRESCREEN_PIPELINE.names() == (
            "validate", "slices", "resource_bounds")


class TestPartialEvaluation:
    def test_until_latency_skips_energy(self, tree, spec):
        with obs.capture() as sink:
            result = TileFlowModel(spec).evaluate(tree, until="latency")
        assert result.partial
        assert result.completed_passes == (
            "validate", "slices", "datamovement", "resources", "latency")
        assert result.latency_cycles > 0
        assert result.energy_pj == 0.0 and result.energy_breakdown_pj == {}
        names = span_names(sink)
        assert "model.pass.latency" in names
        assert "model.pass.energy" not in names

    def test_until_unknown_pass_rejected(self, tree, spec):
        with pytest.raises(ValueError, match="until"):
            TileFlowModel(spec).evaluate(tree, until="nonsense")

    def test_full_run_is_not_partial(self, tree, spec):
        result = TileFlowModel(spec).evaluate(tree)
        assert not result.partial
        assert result.completed_passes == DEFAULT_PIPELINE.names()

    def test_stop_on_violation_skips_latency_and_energy(self, wl, tree):
        cramped = arch.edge().with_level("L1", capacity_bytes=256)
        with obs.capture() as sink:
            result = TileFlowModel(cramped).evaluate(
                tree, stop_on_violation=True)
        assert result.violations and result.partial
        assert result.latency_cycles == 0.0 and result.energy_pj == 0.0
        names = span_names(sink)
        assert "model.pass.resources" in names
        assert "model.pass.latency" not in names
        assert obs.fold_counts(sink.records)["model.early_exit"] == 1

    def test_stop_on_violation_feasible_runs_everything(self, tree, spec):
        result = TileFlowModel(spec).evaluate(tree, stop_on_violation=True)
        assert not result.violations
        assert not result.partial
        assert result.energy_pj > 0

    def test_strict_raises_before_latency_runs(self, tree):
        cramped = arch.edge().with_level("L1", capacity_bytes=256)
        with obs.capture() as sink:
            with pytest.raises(ResourceExceededError):
                TileFlowModel(cramped).evaluate(tree, strict=True)
        names = span_names(sink)
        assert "model.pass.resources" in names
        assert "model.pass.latency" not in names
        assert "model.pass.energy" not in names


class TestContextResume:
    def test_prescreen_prefix_is_not_repeated(self, tree, spec):
        model = TileFlowModel(spec)
        ctx = model.context(tree)
        PRESCREEN_PIPELINE.run(ctx)
        assert list(ctx.completed) == ["validate", "slices",
                                       "resource_bounds"]
        with obs.capture() as sink:
            result = model.evaluate(tree, context=ctx)
        names = span_names(sink)
        # validate + slices already ran on this context.
        assert "model.pass.validate" not in names
        assert "model.pass.slices" not in names
        assert "model.pass.energy" in names
        assert not result.partial
        fresh = model.evaluate(attention_dataflow(
            "flat_rgran", tree.workload, spec))
        assert result.to_dict() == fresh.to_dict()

    def test_context_memoizes_slices_and_executions(self, tree, spec):
        ctx = AnalysisContext(tree, spec)
        node = tree.root
        assert ctx.node_slices(node) is ctx.node_slices(node)
        for n in tree.nodes():
            assert isinstance(ctx.executions(n), int)
            assert ctx.executions(n) >= 1

    def test_num_pe_demand_matches_full_analysis(self, tree, spec):
        mac, vec = num_pe_demand(tree.root)
        result = TileFlowModel(spec).evaluate(tree)
        assert (mac, vec) == (result.resources.num_pe,
                              result.resources.num_vector_pe)


class TestCustomPipelines:
    def test_model_accepts_custom_pipeline(self, tree, spec):
        pipe = Pipeline((ValidatePass(), SlicesPass(), DataMovementPass(),
                         LatencyPass(), EnergyPass()))
        result = TileFlowModel(spec, pipeline=pipe).evaluate(tree)
        assert not result.partial  # all of *this* pipeline's passes ran
        assert result.latency_cycles > 0 and result.energy_pj > 0
        assert result.resources.num_pe == 0  # no resource pass

    def test_prescreen_bounds_never_false_positive(self, tree, spec):
        """A feasible mapping must pass the bounds pass (lower bounds)."""
        ctx = AnalysisContext(tree, spec)
        for p in prescreen_passes():
            p.run(ctx)
        full = TileFlowModel(spec).evaluate(tree)
        if not full.violations:
            assert ctx.get("bound_violations") == []


class TestMovementEntryPoint:
    def test_movement_is_instrumented(self, tree, spec):
        with obs.capture() as sink:
            movement = TileFlowModel(spec).movement(tree)
        names = span_names(sink)
        assert "model.movement" in names
        assert "model.pass.datamovement" in names
        assert "model.pass.resources" not in names  # stops at movement
        assert [r.name for r in sink.records
                if r.type == "span"].count("model.movement") == 1
        direct = DataMovementAnalysis(tree, spec).run()
        assert set(movement.traffic) == set(direct.traffic)
        for level, lt in movement.traffic.items():
            other = direct.traffic[level]
            assert (lt.fill, lt.read, lt.update) == (
                other.fill, other.read, other.update)
