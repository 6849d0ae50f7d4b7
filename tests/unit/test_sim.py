"""Unit tests for the simulated accelerator and program lowering."""

import pytest

from repro.analysis import DataMovementAnalysis, TileFlowModel
from repro.arch import validation_accelerator
from repro.dataflows import attention_dataflow
from repro.sim import SimulatedAccelerator, lower
from repro.workloads import self_attention


@pytest.fixture(scope="module")
def setup():
    spec = validation_accelerator()
    wl = self_attention(4, 128, 256, expand_softmax=True)
    tree = attention_dataflow("flat_rgran", wl, spec)
    model = TileFlowModel(spec)
    movement = DataMovementAnalysis(tree, spec).run()
    return spec, wl, tree, model, movement


class TestSimulator:
    def test_runs_and_is_positive(self, setup):
        spec, wl, tree, model, movement = setup
        report = SimulatedAccelerator(spec).run(tree, movement)
        assert report.cycles > 0
        assert report.energy_pj > 0

    def test_sim_close_to_model(self, setup):
        spec, wl, tree, model, movement = setup
        report = SimulatedAccelerator(spec).run(tree, movement)
        analytic = model.evaluate(tree)
        ratio = analytic.latency_cycles / report.cycles
        assert 0.3 < ratio < 1.5  # same regime, structured deviation

    def test_sim_never_faster_than_steady_state(self, setup):
        spec, wl, tree, model, movement = setup
        report = SimulatedAccelerator(spec).run(tree, movement)
        analytic = model.evaluate(tree)
        # fill/drain and integer effects only ever add time
        assert report.cycles >= 0.5 * analytic.latency_cycles

    def test_energy_close_to_model(self, setup):
        spec, wl, tree, model, movement = setup
        report = SimulatedAccelerator(spec).run(tree, movement)
        analytic = model.evaluate(tree)
        assert abs(report.energy_pj - analytic.energy_pj) \
            < 0.2 * analytic.energy_pj


class TestLowering:
    def test_phase_structure(self, setup):
        spec, wl, tree, model, movement = setup
        program = lower(tree, spec, movement)
        assert program.children  # fusion node with op chains

    def test_instruction_counts(self, setup):
        spec, wl, tree, model, movement = setup
        counts = lower(tree, spec, movement).instruction_counts()
        assert counts["matrix"] > 0   # qk / av tiles
        assert counts["vector"] > 0   # softmax tiles
        assert counts["load"] > 0 and counts["store"] > 0
