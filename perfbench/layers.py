"""Per-layer attribution for the benchmark, applied from outside the program.

:class:`Tracer` replaces public functions of ``repro`` modules with
wrappers that record, per layer name, inclusive time, self time (the
span minus the spans it directly contains) and call count.  Spans nest
per thread, so a pass run inside the prescreen counts as the
prescreen's child and the service's worker threads keep separate
stacks.  Nothing inside ``src/`` is edited.

Engine pool workers are forked from a traced parent, so they inherit
the wrappers.  A child resets its totals at fork, and after every task
it writes its cumulative totals to ``dump_dir``; the parent folds
those files into its own totals with :meth:`Tracer.merge_dumps`.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
import uuid
from collections import defaultdict
from pathlib import Path
from typing import Dict, Optional


class Tracer:
    """Span and count accumulators keyed by layer name."""

    def __init__(self, dump_dir: Optional[Path] = None):
        self.dump_dir = dump_dir
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.incl: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._dump_name = f"worker-{os.getpid()}-{uuid.uuid4().hex}.json"

    # -- wrapping --------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of ``owner.attr`` as layer ``name``.

        ``after()`` runs once the span is closed (worker dumps).
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    self.incl[name] += elapsed
                    self.self_s[name] += elapsed - frame[0]
                    self.calls[name] += 1
                if after is not None:
                    after()

        setattr(owner, attr, traced)

    def counter(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` as ``name`` without a span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def add_kind_counts(self, before: Dict, after: Dict) -> None:
        """Fold a per-kind subtree-cache ``(hits, misses, evictions)``
        delta into the totals."""
        with self._lock:
            for kind, (h, m, e) in after.items():
                bh, bm, be = before.get(kind, (0, 0, 0))
                self.counts[f"cache.{kind}.hits"] += h - bh
                self.counts[f"cache.{kind}.misses"] += m - bm
                self.counts[f"cache.{kind}.evictions"] += e - be

    def install(self) -> "Tracer":
        """Wrap the layer boundaries named in perfbench/README.md."""
        from repro.analysis import pipeline
        from repro.analysis.batched import sweep
        from repro.engine import core
        from repro.mapper import mapper

        Engine = core.EvaluationEngine
        self.span(Engine, "tune_genome", "mapper.tune")
        self.counter(Engine, "genome_cost", "mapper.evals")
        for attr in ("evaluate_genome", "evaluate_template",
                     "evaluate_tree"):
            self.span(Engine, attr, "engine.evaluate")
        # The engine looks these up as module globals at call time.
        self.span(core, "build_genome_tree", "tile.build")
        self.span(core, "mapping_signature", "engine.signature")
        self.span(core, "template_signature", "engine.signature")
        self.span(core, "prescreen", "engine.prescreen")
        for cls in pipeline.AnalysisPass.__subclasses__():
            self.span(cls, "run", f"analysis.{cls.name}")
        self.span(sweep.CohortEvaluator, "mcts_hook", "batched.hook")

        def explore_counts(original):
            @functools.wraps(original)
            def explore(mapper_self, *args, **kwargs):
                cache = mapper_self._engine.subtree_cache
                before = cache.counts_by_kind()
                try:
                    return original(mapper_self, *args, **kwargs)
                finally:
                    self.add_kind_counts(before, cache.counts_by_kind())
            return explore

        mapper.TileFlowMapper.explore = explore_counts(
            mapper.TileFlowMapper.explore)

        def worker_task(original):
            # Pickled by reference as repro.engine.core._worker_tune:
            # functools.wraps keeps that name resolvable to this wrapper.
            @functools.wraps(original)
            def task(*args, **kwargs):
                cache = core._WORKER_ENGINE.subtree_cache
                before = cache.counts_by_kind()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.add_kind_counts(before, cache.counts_by_kind())
            return task

        core._worker_tune = worker_task(core._worker_tune)
        self.span(core, "_worker_tune", "pool.task", after=self.dump)
        return self

    # -- cross-process totals -----------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {"incl": dict(self.incl), "self": dict(self.self_s),
                    "calls": dict(self.calls), "counts": dict(self.counts)}

    def dump(self, path: Optional[Path] = None) -> None:
        """Write the cumulative totals (atomically) for a parent to read."""
        path = path or self.dump_dir / self._dump_name
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.totals()))
        tmp.replace(path)

    def merge(self, totals: Dict[str, Dict[str, float]]) -> None:
        """Add another process's :meth:`totals` to these."""
        with self._lock:
            for key, target in (("incl", self.incl), ("self", self.self_s),
                                ("calls", self.calls),
                                ("counts", self.counts)):
                for name, value in totals.get(key, {}).items():
                    target[name] += value

    def merge_dumps(self) -> None:
        """Add every worker dump under ``dump_dir`` to these totals."""
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            self.merge(json.loads(path.read_text()))
            path.unlink()
