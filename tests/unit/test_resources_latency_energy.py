"""Unit tests for resource usage (§5.2), latency (§5.3), and energy."""

import pytest

from repro import obs
from repro.analysis import DEFAULT_PASSES, TileFlowModel
from repro.arch import edge, validation_accelerator
from repro.ir import Operator, Tensor, Workload, simple_access
from repro.tile import (AnalysisTree, Binding, FusionNode, OpTile, spatial,
                        temporal)
from repro.workloads import matmul


def _leaf(op, lanes=8):
    loops = [temporal(d, n) for d, n in op.dims.items() if n > 1]
    return OpTile(op, loops[:1] + [spatial("i", lanes)], level=0)


def _pair(binding, lanes=8):
    a = Tensor("A", (64,))
    b = Tensor("B", (64,))
    c = Tensor("C", (64,))
    op1 = Operator("p", {"i": 64}, [simple_access(a, "i")],
                   simple_access(b, "i"), kind="mac")
    op2 = Operator("q", {"i": 64}, [simple_access(b, "i")],
                   simple_access(c, "i"), kind="mac")
    wl = Workload("w", [op1, op2])
    l1 = OpTile(op1, [temporal("i", 64 // lanes, lanes),
                      spatial("i", lanes)], level=0)
    l2 = OpTile(op2, [temporal("i", 64 // lanes, lanes),
                      spatial("i", lanes)], level=0)
    root = FusionNode([], level=1, children=[l1, l2], binding=binding)
    return wl, AnalysisTree(wl, root)


class TestNumPE:
    def test_seq_takes_max(self):
        wl, tree = _pair(Binding.SEQ)
        r = TileFlowModel(edge()).evaluate(tree)
        assert r.resources.num_pe == 8

    def test_pipe_sums(self):
        wl, tree = _pair(Binding.PIPE)
        r = TileFlowModel(edge()).evaluate(tree)
        assert r.resources.num_pe == 16

    def test_vector_pool_separate(self):
        spec = validation_accelerator()
        a = Tensor("A", (64,))
        b = Tensor("B", (64,))
        op = Operator("e", {"i": 64}, [simple_access(a, "i")],
                      simple_access(b, "i"), kind="exp")
        wl = Workload("w", [op])
        leaf = OpTile(op, [temporal("i", 8, 8), spatial("i", 8)], level=0)
        r = TileFlowModel(spec).evaluate(AnalysisTree(wl, leaf))
        assert r.resources.num_pe == 0
        assert r.resources.num_vector_pe == 8

    def test_pe_violation_reported(self):
        wl, tree = _pair(Binding.PIPE, lanes=8)
        spec = edge().with_(pe_count=8, vector_pe_count=8)
        r = TileFlowModel(spec).evaluate(tree)
        assert any("compute" in v for v in r.violations)


class TestFootprint:
    def test_capacity_violation(self):
        wl, tree = _pair(Binding.SHAR)
        spec = edge().with_level("Reg", capacity_bytes=4)
        r = TileFlowModel(spec).evaluate(tree)
        assert any("memory" in v for v in r.violations)

    def test_shar_sums_and_seq_maxes(self):
        wl_s, tree_s = _pair(Binding.SEQ)
        wl_h, tree_h = _pair(Binding.SHAR)
        spec = edge()
        r_seq = TileFlowModel(spec).evaluate(tree_s)
        r_shar = TileFlowModel(spec).evaluate(tree_h)
        assert (r_shar.resources.footprint_bytes[0]
                >= r_seq.resources.footprint_bytes[0])

    def test_instances_bounded_by_fanout(self):
        wl = matmul(64, 64, 64)
        op = wl.operators[0]
        leaf = OpTile(op, [temporal("k", 64), spatial("i", 8),
                           spatial("j", 8)], level=0)
        top = OpTile(op, [spatial("i", 8, 8), temporal("j", 8, 8)],
                     level=1, child=leaf)
        r = TileFlowModel(edge()).evaluate(AnalysisTree(wl, top))
        assert any("fanout" in v for v in r.violations)


class TestLatency:
    def test_compute_bound_floor(self):
        wl, tree = _pair(Binding.SEQ)
        r = TileFlowModel(edge()).evaluate(tree)
        # two ops x 64 points / 8 lanes each, serialized
        assert r.latency_cycles >= 16

    def test_pipe_not_slower_than_shar(self):
        _, tree_p = _pair(Binding.PIPE)
        _, tree_h = _pair(Binding.SHAR)
        spec = edge()
        lat_p = TileFlowModel(spec).evaluate(tree_p).latency_cycles
        lat_h = TileFlowModel(spec).evaluate(tree_h).latency_cycles
        assert lat_p <= lat_h

    def test_bandwidth_bound_scales(self):
        wl, tree1 = _pair(Binding.SEQ)
        spec_slow = edge().with_level("DRAM", bandwidth_gbs=0.001)
        wl, tree2 = _pair(Binding.SEQ)
        spec_fast = edge()
        slow = TileFlowModel(spec_slow).evaluate(tree1).latency_cycles
        fast = TileFlowModel(spec_fast).evaluate(tree2).latency_cycles
        assert slow > fast

    def test_slowdown_metric_floored_at_one(self):
        wl, tree = _pair(Binding.SEQ)
        r = TileFlowModel(edge()).evaluate(tree)
        assert all(s >= 1.0 for s in r.slowdown.values())


class TestEnergy:
    def test_breakdown_components(self):
        wl, tree = _pair(Binding.SHAR)
        r = TileFlowModel(edge()).evaluate(tree)
        assert "MAC" in r.energy_breakdown_pj
        assert r.energy_pj == pytest.approx(
            sum(r.energy_breakdown_pj.values()))

    def test_dram_heavier_than_onchip_per_word(self):
        wl, tree = _pair(Binding.SEQ)
        r = TileFlowModel(edge()).evaluate(tree)
        assert r.energy_pj > 0

    def test_latency_seconds(self):
        wl, tree = _pair(Binding.SEQ)
        r = TileFlowModel(edge()).evaluate(tree)
        assert r.latency_seconds == pytest.approx(
            r.latency_cycles / (edge().frequency_ghz * 1e9))

    def test_infeasible_full_evaluation_runs_every_pass(self):
        wl, tree = _pair(Binding.PIPE)
        spec = edge().with_(pe_count=8, vector_pe_count=8)
        with obs.capture() as sink:
            r = TileFlowModel(spec).evaluate(tree)
        assert r.violations and not r.feasible
        assert r.latency_cycles > 0 and r.energy_pj > 0
        spans = [rec.name for rec in sink.records if rec.type == "span"]
        assert spans.count("model.evaluate") == 1
        for p in DEFAULT_PASSES:
            assert spans.count(f"model.pass.{p.name}") == 1
