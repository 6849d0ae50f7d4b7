"""Child processes the benchmark times or traces.

    python3 perfbench/child.py setup WORKLOAD WORKERS
        Import ``repro``, build the workload, edge architecture, engine
        and mapper the search workloads use, then print ``ready``.
    python3 perfbench/child.py serve-traced DUMP [serve options...]
        Run ``repro serve`` with the layer tracer installed; on exit
        write the tracer's totals to DUMP.

Both expect ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys
from pathlib import Path


def setup(workload_name: str, workers: str) -> int:
    from repro import arch, workloads
    from repro.engine import EvaluationEngine
    from repro.mapper import TileFlowMapper

    workload = workloads.by_name(workload_name)
    spec = arch.by_name("edge")
    engine = EvaluationEngine(workload, spec, workers=int(workers))
    TileFlowMapper(workload, spec, workers=int(workers), engine=engine)
    print("ready", flush=True)
    return 0


def serve_traced(dump: str, *serve_args: str) -> int:
    from layers import Tracer
    from repro import cli

    tracer = Tracer().install()
    try:
        return cli.main(["serve", *serve_args])
    finally:
        tracer.dump(Path(dump))


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "serve-traced": serve_traced}[mode](*rest))
