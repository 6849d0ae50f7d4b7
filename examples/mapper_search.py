"""Explore the 3D fusion-dataflow design space with the TileFlow mapper.

Runs the GA (compute ordering x resource binding) + MCTS (loop tiling)
search of §6 on a small self-attention layer and prints the exploration
trace and the champion mapping.

Run:  python examples/mapper_search.py

Set ``REPRO_PROFILE=1`` to print a profile summary (spans by self-time,
search counters) to stderr when the search finishes — the worked example
of docs/OBSERVABILITY.md.
"""

import contextlib
import os
import sys

from repro import arch, obs
from repro.mapper import TileFlowMapper
from repro.tile import render_notation
from repro.workloads import self_attention


def main() -> None:
    profiling = os.environ.get("REPRO_PROFILE") == "1"

    workload = self_attention(num_heads=8, seq_len=256, hidden=512,
                              name="attn-search")
    spec = arch.edge()
    mapper = TileFlowMapper(workload, spec, seed=7)
    with (obs.capture() if profiling else contextlib.nullcontext()) as sink:
        result = mapper.explore(generations=6, population=10,
                                mcts_samples=20)

    if sink is not None:
        print(obs.render_profile(sink.records), file=sys.stderr)

    print("exploration trace (best cost per generation):")
    for gen, cost in enumerate(result.trace):
        bar = "#" * max(1, int(40 * result.trace[-1] / cost))
        print(f"  gen {gen}: {cost:12.4g} {bar}")
    print()
    print(f"champion ordering/binding: "
          f"{result.best_genome.describe(workload)}")
    print(f"champion tiling factors  : {result.best_factors}")
    print()
    print(render_notation(result.best_tree))
    print()
    print(result.best_result.summary())


if __name__ == "__main__":
    main()
