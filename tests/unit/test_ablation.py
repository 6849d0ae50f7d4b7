"""Unit tests for the model-ablation machinery."""

import pytest

from repro import arch
from repro.analysis import TileFlowModel
from repro.experiments.ablation import (binding_ablation,
                                        movement_rule_ablation)
from repro.dataflows import conv_dataflow
from repro.tile import Binding
from repro.workloads import conv_chain


class TestMovementAblation:
    def test_disabling_eviction_never_adds_traffic(self):
        rows = movement_rule_ablation("eviction", "ViT/16-B")
        assert all(r.ablated_dram <= r.full_dram + 1e-6 for r in rows)

    def test_disabling_rmw_never_adds_traffic(self):
        rows = movement_rule_ablation("rmw", "ViT/16-B")
        assert all(r.ablated_dram <= r.full_dram + 1e-6 for r in rows)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            movement_rule_ablation("telepathy")

    def test_eviction_matters_for_seq_conv(self):
        """§5.1.2: a Seq node with temporal loops evicts each conv's
        weights when the other conv runs, so every iteration of its
        loops refills them; without the rule they are reused."""
        wl = conv_chain(16, 28, 28, 32, 32)
        spec = arch.edge()

        def dram_words(model_eviction):
            tree = conv_dataflow("fused_layer", wl, spec)
            tree.root.binding = Binding.SEQ
            assert tree.root.split.temporal
            model = TileFlowModel(spec, model_eviction=model_eviction)
            return model.evaluate(tree).dram_words()

        assert dram_words(False) < dram_words(True)


class TestBindingAblation:
    def test_pipe_is_fastest(self):
        cycles = binding_ablation("ViT/16-B")
        assert cycles["Pipe"] <= min(cycles["Shar"], cycles["Seq"])

    def test_all_three_bindings_present(self):
        cycles = binding_ablation("ViT/16-B")
        assert set(cycles) == {"Pipe", "Shar", "Seq"}
