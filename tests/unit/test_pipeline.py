"""Unit tests for the §5 pass sequences, run_passes and AnalysisContext."""

import inspect

import pytest

from repro import arch, obs, workloads
from repro.analysis import (DEFAULT_PASSES, PRESCREEN_PASSES,
                            AnalysisContext, DataMovementAnalysis,
                            TileFlowModel, run_passes)
from repro.baselines.graphbased import GraphBasedModel
from repro.dataflows import attention_dataflow
from repro.engine import EvaluationEngine
from repro.engine.prescreen import is_prescreened, prescreen, rejected_result
from repro.errors import TreeValidationError
from repro.ir import Operator, Tensor, Workload, simple_access
from repro.mapper import Genome
from repro.tile import AnalysisTree, FusionNode, OpTile, temporal
from repro.workloads import self_attention
from tree_reference import num_pe_demand


def spans(sink):
    return [r.name for r in sink.records if r.type == "span"]


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
    def test_default_order_is_canonical(self):
        assert tuple(p.name for p in DEFAULT_PASSES) == (
            "validate", "slices", "datamovement", "resources", "latency",
            "energy")
        assert tuple(p.name for p in PRESCREEN_PASSES) == (
            "validate", "slices", "resource_bounds")


class TestPartialEvaluation:
    """No evaluation stops part-way any more; what stops early is the
    engine's prescreen (a prefix of the pass sequence) and validation."""

    def test_full_run_is_not_partial(self, tree, spec):
        model = TileFlowModel(spec)
        ctx = model.context(tree)
        with obs.capture() as sink:
            result = model.evaluate(tree, context=ctx)
        assert ctx.completed == [p.name for p in DEFAULT_PASSES]
        names = spans(sink)
        for p in DEFAULT_PASSES:
            assert names.count(f"model.pass.{p.name}") == 1
        assert not result.violations
        assert result.latency_cycles > 0 and result.energy_pj > 0

    def test_stop_on_violation_feasible_runs_everything(self, tree, spec):
        """A feasible tree passes the prescreen and its full evaluation
        resumes on the same context through energy."""
        model = TileFlowModel(spec)
        ctx = model.context(tree)
        assert prescreen(tree, spec, context=ctx) == []
        result = model.evaluate(tree, context=ctx)
        assert not result.violations
        assert ctx.completed == ["validate", "slices", "resource_bounds",
                                 "datamovement", "resources", "latency",
                                 "energy"]
        assert result.energy_pj > 0

    def test_stop_on_violation_skips_latency_and_energy(self, tree):
        """The prescreen rejects a cramped mapping having run only its
        prefix; the placeholder result carries no latency or energy."""
        cramped = arch.edge().with_level("L1", capacity_bytes=256)
        ctx = AnalysisContext(tree, cramped)
        with obs.capture() as sink:
            violations = prescreen(tree, cramped, context=ctx)
        assert violations
        assert ctx.completed == [p.name for p in PRESCREEN_PASSES]
        names = spans(sink)
        assert "model.pass.resource_bounds" in names
        assert "model.pass.latency" not in names
        assert "model.pass.energy" not in names
        result = rejected_result(tree, cramped, violations)
        assert is_prescreened(result)
        assert result.latency_cycles == 0.0 and result.energy_pj == 0.0
        # The full model agrees the mapping is infeasible.
        assert TileFlowModel(cramped).evaluate(tree).violations

    def test_strict_raises_before_latency_runs(self, spec):
        """A malformed tree raises in the validate pass; no later pass
        runs."""
        a, b, c = Tensor("A", (8, 8)), Tensor("B", (8, 8)), Tensor("C", (8,))
        p = Operator("p", {"i": 8, "k": 8}, [simple_access(a, "i", "k")],
                     simple_access(b, "i", "k"))
        q = Operator("q", {"i": 8, "k": 8}, [simple_access(b, "i", "k")],
                     simple_access(c, "i"))
        wl = Workload("w", [p, q])
        under = OpTile(p, [temporal("i", 2)], level=0)  # i not covered
        full = OpTile(q, [temporal(d, n) for d, n in q.dims.items()],
                      level=0)
        bad = AnalysisTree(wl, FusionNode([], level=1,
                                          children=[under, full]))
        model = TileFlowModel(spec)
        ctx = model.context(bad)
        with obs.capture() as sink:
            with pytest.raises(TreeValidationError):
                model.evaluate(bad, context=ctx)
        assert ctx.completed == []
        names = spans(sink)
        for later in ("slices", "datamovement", "resources", "latency",
                      "energy"):
            assert f"model.pass.{later}" not in names


class TestFullEvaluation:
    def test_infeasible_tree_runs_every_pass(self, tree):
        cramped = arch.edge().with_level("L1", capacity_bytes=256)
        with obs.capture() as sink:
            result = TileFlowModel(cramped).evaluate(tree)
        assert result.violations
        assert result.latency_cycles > 0 and result.energy_pj > 0
        names = spans(sink)
        for p in DEFAULT_PASSES:
            assert names.count(f"model.pass.{p.name}") == 1

    def test_evaluate_takes_only_tree_and_context(self):
        params = inspect.signature(TileFlowModel.evaluate).parameters
        assert list(params) == ["self", "tree", "context"]
        assert params["context"].kind is inspect.Parameter.KEYWORD_ONLY
        assert list(inspect.signature(TileFlowModel.__init__).parameters) \
            == ["self", "arch", "model_eviction", "model_rmw"]


class TestContextResume:
    def test_prescreen_prefix_is_not_repeated(self, tree, spec):
        model = TileFlowModel(spec)
        ctx = model.context(tree)
        run_passes(ctx, PRESCREEN_PASSES)
        assert list(ctx.completed) == ["validate", "slices",
                                       "resource_bounds"]
        with obs.capture() as sink:
            result = model.evaluate(tree, context=ctx)
        names = spans(sink)
        # validate + slices already ran on this context.
        assert "model.pass.validate" not in names
        assert "model.pass.slices" not in names
        assert "model.pass.energy" in names
        assert ctx.completed == ["validate", "slices", "resource_bounds",
                                 "datamovement", "resources", "latency",
                                 "energy"]
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
    def test_graph_based_subclass_runs_no_resource_pass(self, tree, spec):
        model = GraphBasedModel(spec).model
        assert isinstance(model, TileFlowModel)
        with obs.capture() as sink:
            result = model.evaluate(tree)
        names = spans(sink)
        assert "model.pass.resources" not in names
        assert "model.pass.energy" in names
        assert result.latency_cycles > 0 and result.energy_pj > 0
        assert result.resources.num_pe == 0  # no resource pass

    def test_prescreen_bounds_never_false_positive(self, tree, spec):
        """A feasible mapping must pass the bounds pass (lower bounds)."""
        ctx = AnalysisContext(tree, spec)
        run_passes(ctx, PRESCREEN_PASSES)
        full = TileFlowModel(spec).evaluate(tree)
        if not full.violations:
            assert ctx.get("bound_violations") == []


class TestMovementEntryPoint:
    def test_movement_is_instrumented(self, tree, spec):
        """The data-movement pass runs once under its span and gives
        what the standalone :class:`DataMovementAnalysis` gives."""
        model = TileFlowModel(spec)
        ctx = model.context(tree)
        with obs.capture() as sink:
            model.evaluate(tree, context=ctx)
        assert spans(sink).count("model.pass.datamovement") == 1
        movement = ctx.get("movement")
        direct = DataMovementAnalysis(tree, spec).run()
        assert set(movement.traffic) == set(direct.traffic)
        for level, lt in movement.traffic.items():
            other = direct.traffic[level]
            assert (lt.fill, lt.read, lt.update) == (
                other.fill, other.read, other.update)


class TestTunePathAttribution:
    def test_profiled_tune_spans_every_pass_once_per_point(self):
        """A genome tune prices every point on one re-armed context;
        under a profile each pass still records its own span, once per
        point that reaches it."""
        workload, spec = workloads.by_name("Bert-S"), arch.edge()
        engine = EvaluationEngine(workload, spec)
        with obs.capture() as sink:
            engine.tune_genome(Genome.unfused(workload), seed=3,
                               samples=20)
        names = spans(sink)
        stats = engine.stats
        assert stats.evaluations > 0 and stats.prescreen_rejects > 0
        passes = {p.name for p in (*DEFAULT_PASSES, *PRESCREEN_PASSES)}
        assert len(passes) == 7
        for name in passes:
            assert f"model.pass.{name}" in names, name
        for name in ("datamovement", "resources", "latency", "energy"):
            assert (names.count(f"model.pass.{name}")
                    == stats.evaluations), name
        screened = stats.evaluations + stats.prescreen_rejects
        for name in ("validate", "slices", "resource_bounds"):
            assert names.count(f"model.pass.{name}") == screened, name
