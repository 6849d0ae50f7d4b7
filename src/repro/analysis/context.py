"""Shared per-evaluation analysis state.

:class:`AnalysisContext` is the blackboard one pipeline run
(:mod:`repro.analysis.pipeline`) writes its artifacts into, plus a memo
layer for the per-node intermediates several analyses need:

* **slice geometry** (:class:`NodeSlices`) — the (leaf, access) pairs
  below a node grouped by tensor, their merged slice extents, and the
  per-tensor staged word counts.  Data movement (§5.1), the resource
  footprint (§5.2), and the feasibility bounds all consume these; the
  context computes them once per node.
* **loop products** — ``executions(node)`` (how many times a node's
  subtree runs over the whole execution) and the ``NumPE`` compute
  demand recursion of §5.2, both exact integer arithmetic.
* **tensor residency** — the LCA home node of each tensor and the
  "does this subtree use tensor X" predicate driving Seq eviction.

A context is valid for exactly one ``(tree, arch)`` pair.  With a
shared :class:`~repro.engine.cache.SubtreeArtifactCache`
(``artifact_cache``) subtree memos are keyed by the *structural subtree
fingerprint* (:mod:`repro.analysis.fingerprint`), so slice geometry
stays valid across trees and persists across evaluations — the
incremental-evaluation layer.  Without one they are keyed by node
identity and no fingerprint is computed.
Either way

* querying the context with a node from a *different* tree raises
  :class:`~repro.errors.ForeignNodeError` instead of silently returning
  stale geometry keyed by a recycled ``id()``;
* after mutating the context's own tree in place,
  :meth:`AnalysisContext.invalidate` re-arms it; a loops-only re-arm
  keeps every structure-only fact, which is how a per-genome tune
  prices each factor point on one tree.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..arch import Architecture
from ..errors import ForeignNodeError
from ..ir import TensorAccess
from ..tile.bindings import Binding
from ..tile.coverage import apply_loops
from ..tile.tree import AnalysisTree, FusionNode, OpTile, TileNode
from .fingerprint import cache_namespace, node_fingerprints
from .slices import box_volume, merged_extents

AccessPairs = List[Tuple[OpTile, TensorAccess]]
#: ``id(node) -> slice_coverage(node, leaf)`` along one leaf's path
#: (:meth:`AnalysisContext.path_coverage`).
PathCoverage = Dict[int, Dict[str, int]]


class NodeTensors:
    """The leaf accesses below one tree node, grouped by tensor.

    ``tensors`` is sorted so every float accumulation over it is
    deterministic; ``readers``/``writers`` hold the ``(leaf, access)``
    pairs reading/writing each tensor and ``accesses`` all of them, in
    leaf order.  Reads no loops: a context keeps it across loop
    changes (:meth:`AnalysisContext.invalidate`).
    """

    __slots__ = ("readers", "writers", "accesses", "tensors")

    def __init__(self, node: TileNode):
        self.readers: Dict[str, AccessPairs] = {}
        self.writers: Dict[str, AccessPairs] = {}
        self.accesses: Dict[str, AccessPairs] = {}
        for leaf in node.leaves():
            for pairs, accesses in ((self.readers, leaf.op.inputs),
                                    (self.writers, (leaf.op.output,))):
                for access in accesses:
                    name = access.tensor.name
                    pairs.setdefault(name, []).append((leaf, access))
                    self.accesses.setdefault(name, []).append((leaf, access))
        self.tensors: Tuple[str, ...] = tuple(sorted(self.accesses))


class NodeSlices:
    """Slice geometry of one tree node, grouped by tensor.

    ``readers``, ``writers`` and ``tensors`` come from the node's
    :class:`NodeTensors` (built here unless given); ``extents[t]``
    merges the slice bounding boxes of all reads and writes of ``t``
    below the node, and ``staged_words[t]`` is that box's volume (one
    buffer instance's residency per time step).

    Instances may be shared across structurally identical subtrees of
    different trees (the engine's subtree artifact cache does exactly
    that), so consumers must never mutate them; the ``(leaf, access)``
    pairs are only read for the shared :class:`~repro.ir.Operator` /
    :class:`~repro.ir.TensorAccess` objects, which are identical for
    equal-fingerprint subtrees of one workload.
    """

    __slots__ = ("readers", "writers", "tensors", "extents", "staged_words")

    def __init__(self, node: TileNode,
                 path_coverage: Callable[[OpTile], PathCoverage],
                 tensors: Optional[NodeTensors] = None):
        if tensors is None:
            tensors = NodeTensors(node)
        self.readers = tensors.readers
        self.writers = tensors.writers
        self.tensors = tensors.tensors
        self.extents: Dict[str, Tuple[int, ...]] = {}
        self.staged_words: Dict[str, float] = {}
        key = id(node)
        for name in self.tensors:
            extents = merged_extents(
                access.extents_over(path_coverage(leaf)[key])
                for leaf, access in tensors.accesses[name])
            self.extents[name] = extents
            self.staged_words[name] = float(box_volume(extents))


def num_pe_demand(node: TileNode,
                  demand: Optional[Callable[[TileNode], Tuple[int, int]]]
                  = None) -> Tuple[int, int]:
    """(MAC PEs, vector PEs) used concurrently by the subtree (§5.2).

    The single home of the paper's ``NumPE`` recursion: concurrent
    siblings (``Para``/``Pipe``) add their demands, time-shared siblings
    (``Seq``/``Shar``) take the max, spatial loops multiply.  Purely
    structural — needs no data-movement information — so the feasibility
    bounds and the resource analysis share it.  ``demand`` prices the
    children (default: this recursion; a context passes its memo).
    """
    if node.is_leaf():
        assert isinstance(node, OpTile)
        used = node.spatial_trip_count
        return (used, 0) if node.op.kind == "mac" else (0, used)
    demand = demand or num_pe_demand
    sp = node.spatial_trip_count
    if isinstance(node, OpTile):
        mac, vec = demand(node.child)
        return sp * mac, sp * vec
    assert isinstance(node, FusionNode)
    demands = [demand(c) for c in node.children]
    if node.binding.shares_compute_in_time:
        mac = max(d[0] for d in demands)
        vec = max(d[1] for d in demands)
    else:
        mac = sum(d[0] for d in demands)
        vec = sum(d[1] for d in demands)
    return sp * mac, sp * vec


class AnalysisContext:
    """Blackboard + memo store for one evaluation of one tree.

    Passes communicate exclusively through :meth:`put`/:meth:`get`
    artifacts (declared in their ``reads``/``writes``); the memoized
    accessors below are shared computation, not artifacts, and may be
    called by any pass.

    ``artifact_cache`` (duck-typed: ``store(namespace, kind)`` returning
    a dict-backed store, see
    :class:`~repro.engine.cache.SubtreeArtifactCache`) plugs in a
    persistent cross-evaluation store for subtree-local memos; stores
    are namespaced by
    :func:`~repro.analysis.fingerprint.cache_namespace` so one cache
    can serve many workloads/architectures.
    """

    def __init__(self, tree: AnalysisTree, arch: Architecture, *,
                 model_eviction: bool = True, model_rmw: bool = True,
                 check_memory: bool = True, artifact_cache: Any = None):
        self.tree = tree
        self.arch = arch
        self.model_eviction = model_eviction
        self.model_rmw = model_rmw
        #: Whether the resource-bounds pass checks buffer capacities
        #: (mappers with ``respect_memory=False`` switch it off).
        self.check_memory = check_memory
        #: Optional persistent cross-evaluation artifact store.
        self.artifact_cache = artifact_cache
        #: Names of passes that have finished, in execution order.
        self.completed: List[str] = []
        #: True when a run stopped at the first violation-producing pass.
        self.early_exit = False
        self._artifacts: Dict[str, Any] = {}
        #: ``id(node) -> memo key``: the structural fingerprint with a
        #: shared store, ``id(node)`` itself without one.
        self._fps: Optional[Dict[int, Any]] = None
        self._ns: Optional[str] = None
        #: kind -> bound KindStore of ``artifact_cache`` (lazy).
        self._kind_stores: Dict[str, Any] = {}
        #: Context-local memo hits (slices/NumPE served from this
        #: evaluation's own dicts, as opposed to the shared store or a
        #: fresh compute) — ``repro explain`` provenance attribution.
        self.memo_hits = 0
        # Loop-dependent memos, keyed by :meth:`fingerprint`; path
        # coverage is keyed by ``id(leaf)``.
        self._slices: Dict[Any, NodeSlices] = {}
        self._num_pe: Dict[Any, Tuple[int, int]] = {}
        self._executions: Dict[Any, int] = {}
        self._path_cov: Dict[int, PathCoverage] = {}
        # Structure-only memos (no loop counts), ``id``-keyed; a
        # loops-only :meth:`invalidate` keeps them.
        self._tensors: Dict[int, NodeTensors] = {}
        self._homes: Dict[str, Optional[TileNode]] = {}
        self._homes_built = False
        #: (id(node), tensor) -> crossing?
        self._crossing: Dict[Tuple[int, str], bool] = {}
        #: id(home) -> strict descendant ids.
        self._descendants: Dict[int, FrozenSet[int]] = {}
        #: (id(parent), id(child), tensor) -> Seq-evicted?  A child of
        #: ``None`` asks about the node's own iterations.
        self._evictions: Dict[Tuple[int, Optional[int], str], bool] = {}
        #: Verdict of the §4 rules that read no loop counts (None until
        #: :func:`~repro.tile.validate.validate_tree_local` checks).
        self.structure_ok: Optional[bool] = None

    # -- artifacts -------------------------------------------------------
    def put(self, name: str, value: Any) -> None:
        self._artifacts[name] = value

    def get(self, name: str, default: Any = None) -> Any:
        return self._artifacts.get(name, default)

    def has(self, name: str) -> bool:
        return name in self._artifacts

    def mark_completed(self, pass_name: str) -> None:
        """Record a pass as done without running it (resume / skip)."""
        if pass_name not in self.completed:
            self.completed.append(pass_name)

    # -- fingerprints / shared cache -------------------------------------
    def fingerprint(self, node: TileNode) -> Any:
        """The node's memo key: its structural subtree fingerprint when
        a shared store is attached, its ``id`` otherwise.

        Raises :class:`ForeignNodeError` for nodes outside this
        context's tree — including nodes spliced in by an in-place
        mutation the context has not been told about via
        :meth:`invalidate`.
        """
        if self._fps is None:
            self._fps = (node_fingerprints(self.tree.root)
                         if self.artifact_cache is not None
                         else {id(n): id(n) for n in self.tree.nodes()})
        try:
            return self._fps[id(node)]
        except KeyError:
            raise ForeignNodeError(
                f"node {node.label()!r} is not part of tree "
                f"{self.tree.name!r}; an AnalysisContext serves exactly one "
                f"tree — build a fresh context for other trees, or call "
                f"invalidate() after mutating this context's tree in place"
            ) from None

    def _namespace(self) -> str:
        if self._ns is None:
            self._ns = cache_namespace(self.tree.workload, self.arch,
                                       self.model_eviction, self.model_rmw)
        return self._ns

    def shared_store(self, kind: str) -> Any:
        """The bound per-kind store of the artifact cache (None without).

        The returned :class:`~repro.engine.cache.KindStore` is already
        namespaced to this context's workload/arch/flags; hot loops may
        probe its ``data`` dict directly (recording outcomes via
        ``store.touch(key)``/``store.miss()``) instead of paying
        :meth:`shared_get` dispatch per lookup.
        """
        if self.artifact_cache is None:
            return None
        store = self._kind_stores.get(kind)
        if store is None:
            store = self.artifact_cache.store(self._namespace(), kind)
            self._kind_stores[kind] = store
        return store

    def shared_get(self, kind: str, key: Any) -> Any:
        """Look ``key`` up in the cross-evaluation artifact cache."""
        store = self.shared_store(kind)
        if store is None:
            return None
        value = store.data.get(key)
        if value is None:
            store.miss()
        else:
            store.touch(key)
        return value

    def shared_put(self, kind: str, key: Any, value: Any) -> None:
        store = self.shared_store(kind)
        if store is not None:
            store.put(key, value)

    def invalidate(self, subtree: Optional[TileNode] = None, *,
                   loops_only: bool = False) -> None:
        """Re-arm the context after an in-place mutation of its tree.

        Drops pipeline artifacts, completed-pass bookkeeping, execution
        counts (they depend on *ancestor* loops) and path coverage.
        Subtree memos (slices, NumPE) survive where the mutation cannot
        have reached them: fingerprint-keyed with a shared store, so
        untouched subtrees keep their keys; ``id``-keyed without one,
        so the entries of ``subtree``, its descendants and ancestors
        (all of them when ``subtree`` is None) are dropped.

        ``loops_only=True`` promises that only loops changed, not levels
        or bindings: tensor homes, descendant and crossing sets,
        Seq-eviction decisions, :class:`NodeTensors` and the loop-free
        §4 verdict then survive too — a per-genome tune re-prices one
        tree at every factor point this way.

        ``subtree`` must belong to this context's tree (checked via
        parent pointers).  The mutation must preserve the tree's
        operator->leaf structure; splicing different *operators* in
        needs a new ``AnalysisTree`` and a new context.
        """
        if subtree is not None:
            top = subtree
            while top.parent is not None:
                top = top.parent
            if top is not self.tree.root:
                raise ForeignNodeError(
                    f"subtree {subtree.label()!r} does not belong to tree "
                    f"{self.tree.name!r}; invalidate() only covers this "
                    f"context's own tree")
        self._artifacts.clear()
        self.completed.clear()
        self.early_exit = False
        self._executions.clear()
        self._path_cov.clear()
        if self.artifact_cache is not None:
            self._fps = None
        elif subtree is None:
            self._slices.clear()
            self._num_pe.clear()
        else:
            for node in (*subtree.walk(), *subtree.ancestors()):
                self._slices.pop(id(node), None)
                self._num_pe.pop(id(node), None)
        if not loops_only:
            self._homes = {}
            self._homes_built = False
            self._crossing.clear()
            self._descendants.clear()
            self._evictions.clear()
            self.structure_ok = None

    # -- memoized per-node intermediates ---------------------------------
    def node_slices(self, node: TileNode) -> NodeSlices:
        fp = self.fingerprint(node)
        cached = self._slices.get(fp)
        if cached is None:
            cached = self.shared_get("slices", fp)
            if cached is None:
                cached = NodeSlices(node, self.path_coverage,
                                    self.node_tensors(node))
                self.shared_put("slices", fp, cached)
            self._slices[fp] = cached
        else:
            self.memo_hits += 1
        return cached

    def node_tensors(self, node: TileNode) -> NodeTensors:
        """The node's :class:`NodeTensors` (structure only, memoized)."""
        tensors = self._tensors.get(id(node))
        if tensors is None:
            tensors = self._tensors[id(node)] = NodeTensors(node)
        return tensors

    def path_coverage(self, leaf: OpTile) -> PathCoverage:
        """:func:`slice_coverage` of ``leaf`` at every node on its path.

        One upward walk per leaf per context, instead of one walk per
        (node, access) pair: the coverage strictly below a node is the
        coverage below its child plus the child's loops.
        """
        covs = self._path_cov.get(id(leaf))
        if covs is None:
            dims = leaf.op.dims
            covs = self._path_cov[id(leaf)] = {}
            below: Dict[str, int] = {d: 1 for d in dims}
            node: Optional[TileNode] = leaf
            while node is not None:
                lanes = [lp for lp in node.spatial_loops if lp.step == 1]
                covs[id(node)] = (apply_loops(below, lanes, dims) if lanes
                                  else below)
                below = apply_loops(below, node.loops, dims)
                node = node.parent
        return covs

    def num_pe(self, node: TileNode) -> Tuple[int, int]:
        fp = self.fingerprint(node)
        cached = self._num_pe.get(fp)
        if cached is None:
            cached = self._num_pe[fp] = num_pe_demand(node, self.num_pe)
        else:
            self.memo_hits += 1
        return cached

    def executions(self, node: TileNode) -> int:
        """How many times the node's subtree runs over the execution.

        The exact integer product of all ancestors' trip counts (the
        node's own loops are *inside* one execution).  Context-local
        only — the value depends on the node's ancestors, so an
        unchanged subtree fingerprint is no licence to reuse it across
        trees; :meth:`invalidate` clears it wholesale.
        """
        key = self.fingerprint(node)
        cached = self._executions.get(key)
        if cached is None:
            parent = node.parent
            cached = (1 if parent is None
                      else self.executions(parent) * parent.trip_count)
            self._executions[key] = cached
        return cached

    def subtree_uses(self, node: TileNode, tensor_name: str) -> bool:
        """Whether any leaf below ``node`` reads or writes the tensor.

        Membership in the node's tensors (every access is an input or
        the output of some leaf op).  It rides the slices memo, which a
        shared store may serve, but reads only its loop-free half.
        """
        return tensor_name in self.node_slices(node).tensors

    def self_evicts(self, node: TileNode, tensor_name: str) -> bool:
        """§5.1.2 Seq eviction applied to the node's own iterations: the
        sibling following the tensor's last user evicts it.  Memoized
        (it reads no loops)."""
        if (not self.model_eviction or not isinstance(node, FusionNode)
                or node.binding is not Binding.SEQ):
            return False
        key = (id(node), None, tensor_name)
        hit = self._evictions.get(key)
        if hit is None:
            users = [c for c in node.children
                     if self.subtree_uses(c, tensor_name)]
            hit = self._evictions[key] = bool(users) and self.evicted_at(
                node, users[-1], tensor_name)
        return hit

    def evicted_at(self, parent: TileNode, child: TileNode,
                   tensor_name: str) -> bool:
        """§5.1.2: ascending from ``child`` through a Seq ``parent``
        evicts slices the following sibling does not need.  Memoized
        (it reads no loops)."""
        if (not isinstance(parent, FusionNode)
                or parent.binding is not Binding.SEQ
                or len(parent.children) < 2):
            return False
        key = (id(parent), id(child), tensor_name)
        hit = self._evictions.get(key)
        if hit is None:
            idx = next(i for i, c in enumerate(parent.children)
                       if c is child)
            following = parent.children[(idx + 1) % len(parent.children)]
            hit = self._evictions[key] = not self.subtree_uses(
                following, tensor_name)
        return hit

    def home(self, tensor_name: str) -> Optional[TileNode]:
        """The tensor's LCA home node (None for workload inputs/outputs)."""
        if not self._homes_built:
            self._homes = {t.name: self.tree.tensor_home(t.name)
                           for t in self.tree.workload.tensors()}
            self._homes_built = True
        return self._homes.get(tensor_name)

    def tensor_crossing(self, node: TileNode, tensor_name: str) -> bool:
        """Whether the tensor's slice crosses into ``node``'s buffer.

        True iff the tensor lives above the node (external, or homed at
        a strict ancestor) *and* the node's level is below its fill
        source — exactly the condition under which the data-movement
        analysis records fills/updates for it at this node, and hence
        the resource analysis double-buffers it.
        """
        key = (id(node), tensor_name)
        hit = self._crossing.get(key)
        if hit is None:
            home = self.home(tensor_name)
            if home is not None and (node.parent is None
                                     or id(node) not in self._below(home)):
                hit = False
            else:
                source_level = (node.parent.level if node.parent is not None
                                else self.arch.dram_index)
                hit = node.level < source_level
            self._crossing[key] = hit
        return hit

    def _below(self, home: TileNode) -> FrozenSet[int]:
        """Ids of ``home``'s strict descendants (lazy, per home node)."""
        below = self._descendants.get(id(home))
        if below is None:
            below = self._descendants[id(home)] = frozenset(
                id(n) for n in home.walk() if n is not home)
        return below

    def staged_bytes_lower_bound(self, node: TileNode) -> float:
        """Byte floor of one buffer instance of ``node``.

        Crossing tensors are double-buffered by the resource analysis;
        with the :meth:`tensor_crossing` predicate this sum equals the
        full model's own-node staged bytes exactly, and the full
        footprint only *adds* child contributions on top — so the bound
        is sound for the feasibility screen while catching mappings
        that only violate capacity through double-buffered crossing
        tensors.
        """
        slices = self.node_slices(node)
        total = 0.0
        for tensor_name in slices.tensors:
            factor = 2.0 if self.tensor_crossing(node, tensor_name) else 1.0
            total += (factor * slices.staged_words[tensor_name]
                      * self.tree.workload.tensor(tensor_name).word_bytes)
        return total
