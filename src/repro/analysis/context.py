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

:class:`PlanContext` is that tune's context: it compiles the slice
geometry and the data-movement walks of its tree down to tables that
only the loop counts are substituted into.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..arch import Architecture
from ..errors import ForeignNodeError
from ..ir import TensorAccess
from ..tile.bindings import Binding
from ..tile.tree import AnalysisTree, FusionNode, OpTile, TileNode
from ..tile.validate import (fused_producers, raise_invalid,
                             structure_verdict, validate_tree_local)
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

    @classmethod
    def from_extents(cls, tensors: NodeTensors,
                     extents: Dict[str, Tuple[int, ...]],
                     staged_words: Dict[str, float]) -> "NodeSlices":
        """The slices of a node whose merged ``extents`` and their
        volumes are known (:class:`PlanContext` derives them from its
        slice rows); both are keyed in ``tensors.tensors`` order."""
        slices = cls.__new__(cls)
        slices.readers = tensors.readers
        slices.writers = tensors.writers
        slices.tensors = tensors.tensors
        slices.extents = extents
        slices.staged_words = staged_words
        return slices


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

    #: ``id(node) ->`` the node's crossing tensors with their compiled
    #: walk recipes, kept only by a :class:`PlanContext`.
    walk_recipes: Optional[Dict[int, Any]] = None
    #: The tree's nodes as the bound, resource and latency passes read
    #: them (:class:`PlanNode`), kept only by a :class:`PlanContext`.
    plan_nodes: Optional[Tuple["PlanNode", ...]] = None

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
        #: Tensor name -> bytes per word.
        self.word_bytes: Dict[str, int] = {
            t.name: t.word_bytes for t in tree.workload.tensors()}
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
        #: :func:`~repro.tile.validate.structure_verdict` checks).
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

    # -- validation ------------------------------------------------------
    def validate(self) -> None:
        """Check the tree against §4 (the validate pass): the loop-free
        rules once per context, loop rules and coverage every call."""
        validate_tree_local(self)

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
            path = [leaf, *leaf.ancestors()]
            # zip drops the trailing root coverage.
            covs = self._path_cov[id(leaf)] = dict(zip(
                map(id, path), _path_coverage(tuple(leaf.op.dims), path)))
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


#: One (leaf, access) pair of a slice row: the leaf's index in
#: :attr:`PlanContext._paths`, the node's depth on that leaf's path,
#: the access's dims when every tensor dim is one of them with
#: coefficient 1 (else None), and per tensor dim the access's
#: ``(iteration dim, |coefficient|)`` terms.
SliceRow = Tuple[int, int, Optional[Tuple[str, ...]],
                 Tuple[Tuple[Tuple[str, int], ...], ...]]


def _slice_terms(access: TensorAccess) -> Tuple[
        Optional[Tuple[str, ...]], Tuple[Tuple[Tuple[str, int], ...], ...]]:
    """The ``(plain dims, terms)`` half of an access's slice row: an
    extent is ``1 + sum(|c| * (cov_d - 1))`` over its terms, which is
    ``cov_d`` itself for a plain ``d`` index."""
    terms = tuple(tuple((d, abs(c)) for d, c in e.terms.items())
                  for e in access.exprs)
    plain = (tuple(row[0][0] for row in terms)
             if all(len(row) == 1 and row[0][1] == 1 for row in terms)
             else None)
    return plain, terms


class PlanNode:
    """One node of a plan's tree as the bound, resource and latency
    passes read it, fixed for the plan's life.

    ``children`` are pre-order positions in
    :attr:`PlanContext.plan_nodes`.  ``staged`` holds, in the node's
    tensor order, each tensor's ``(name, word bytes, buffering
    factor)``: 2.0 for a tensor crossing into the node's buffer
    (:meth:`AnalysisContext.tensor_crossing`, double-buffered), else
    1.0.  ``memory`` is the node's level and ``source_bandwidth`` its
    source level's aggregate bytes per cycle; ``pool`` and
    ``ops_per_point`` price a leaf's compute.
    """

    __slots__ = ("node", "children", "leaf", "fusion", "seq",
                 "shares_time", "mac", "level", "source_level", "memory",
                 "source_bandwidth", "staged", "pool", "ops_per_point")

    def __init__(self, ctx: "PlanContext", node: TileNode,
                 index: Dict[int, int]):
        arch = ctx.arch
        parent = node.parent
        self.node = node
        self.children = tuple(index[id(c)] for c in node.children_nodes())
        self.leaf = not self.children
        self.fusion = isinstance(node, FusionNode)
        self.seq = self.fusion and node.binding is Binding.SEQ
        self.shares_time = (self.fusion
                            and node.binding.shares_compute_in_time)
        self.level = node.level
        self.source_level = (parent.level if parent is not None
                             else arch.dram_index)
        self.memory = arch.level(node.level)
        source = arch.level(self.source_level)
        self.source_bandwidth = (source.bytes_per_cycle(arch.frequency_ghz)
                                 * source.fanout)
        word_bytes = ctx.word_bytes
        self.staged = tuple(
            (name, word_bytes[name],
             2.0 if ctx.tensor_crossing(node, name) else 1.0)
            for name in ctx.node_tensors(node).tensors)
        op = node.op if self.leaf else None
        self.mac = op is not None and op.kind == "mac"
        self.pool = arch.compute_units(op.kind) if op is not None else 0
        self.ops_per_point = op.ops_per_point if op is not None else 0.0


class PlanContext(AnalysisContext):
    """A context for one tree whose loops alone change between runs.

    A per-genome plan (:class:`~repro.engine.GenomePlan`) prices every
    point of a tune on one tree, re-armed loops-only.  This context
    compiles, once, what the analyses derive from the tree's structure:

    * **slice rows** — per node and tensor, every (leaf, access) pair
      below it as per-tensor-dim ``(iteration dim, |coefficient|)``
      terms.  A point's extent is ``1 + sum(|c| * (cov_d - 1))`` over
      the leaf's path coverage, max-merged over the pairs — what
      :meth:`AffineExpr.extent_over` and :func:`merged_extents` give.
    * **walk recipes** — per node, the tensors crossing into its
      buffer, each with its first reader's and first writer's ordered
      walk segments of §5.1.1/§5.1.2
      (:class:`~repro.analysis.datamovement.WalkRecipe`), compiled by
      the data-movement pass on first use into :attr:`walk_recipes`.
    * **fusion rules** — per fusion node, the dims its loops may
      iterate (those of the operators below it) and the §4.1 reduction
      dims they may not; :meth:`validate` checks a point's loops
      against them and its root coverage from the same per-leaf path
      coverage the slice rows read.
    * **plan nodes** — the pre-order :class:`PlanNode` table the
      bound, resource and latency passes walk instead of the tree
      (children before parents for the bottom-up recursions), with
      this point's ``NumPE`` demands and execution counts kept as
      lists indexed by position.

    A point then only substitutes the nodes' current loops.  The tables
    live as long as the context; a structural :meth:`invalidate` drops
    the recipes and plan nodes (they read bindings, levels and tensor
    homes), while the slice rows and fusion rules read only the
    operator->leaf structure every invalidation keeps.  It never serves
    a shared artifact store.
    """

    def __init__(self, tree: AnalysisTree, arch: Architecture, *,
                 model_eviction: bool = True, model_rmw: bool = True,
                 check_memory: bool = True):
        super().__init__(tree, arch, model_eviction=model_eviction,
                         model_rmw=model_rmw, check_memory=check_memory)
        #: id(node) -> its :data:`~repro.analysis.datamovement.Crossing`
        #: list.
        self.walk_recipes = {}
        #: id(node) -> pre-order position.
        self._position: Dict[int, int] = {
            id(n): i for i, n in enumerate(tree.nodes())}
        #: Per leaf, in leaf order: its op's dims and its path, leaf to
        #: root.
        self._paths: List[Tuple[Tuple[str, ...], List[TileNode]]] = []
        #: Per leaf, its op's ``(dim, size)`` pairs (root coverage).
        self._sizes: List[Tuple[Tuple[str, int], ...]] = []
        index: Dict[int, int] = {}
        depth: Dict[Tuple[int, int], int] = {}
        for leaf in tree.root.leaves():
            index[id(leaf)] = len(self._paths)
            path = [leaf, *leaf.ancestors()]
            depth.update(((id(leaf), id(n)), i) for i, n in enumerate(path))
            self._paths.append((tuple(leaf.op.dims), path))
            self._sizes.append(tuple(leaf.op.dims.items()))
        #: id(node) -> ((tensor, slice rows), ...) in tensor order.
        self._rows: Dict[int, Tuple[Tuple[str, Tuple[SliceRow, ...]],
                                    ...]] = {}
        #: (fusion node, allowed loop dims, forbidden loop dims).
        self._fusion_rules: List[Tuple[TileNode, FrozenSet[str],
                                       FrozenSet[str]]] = []
        for node in tree.nodes():
            tensors = self.node_tensors(node)
            self._rows[id(node)] = tuple(
                (name, tuple(
                    (index[id(leaf)], depth[id(leaf), id(node)])
                    + _slice_terms(access)
                    for leaf, access in tensors.accesses[name]))
                for name in tensors.tensors)
            if isinstance(node, FusionNode):
                ops = node.subtree_ops()
                self._fusion_rules.append((
                    node, frozenset(d for op in ops for d in op.dims),
                    frozenset(d for op in fused_producers(tree.workload, ops)
                              for d in op.reduction_dims)))
        self._plan_nodes: Optional[Tuple[PlanNode, ...]] = None
        # Per point (this point's loops; built on first use): per leaf
        # the coverage at each node of its path and at the root, and per
        # node position its NumPE demand and execution count.
        self._coverage: Optional[List[List[Dict[str, int]]]] = None
        self._demands: Optional[List[Tuple[int, int]]] = None
        self._executions_at: Optional[List[int]] = None

    def invalidate(self, subtree: Optional[TileNode] = None, *,
                   loops_only: bool = False) -> None:
        super().invalidate(subtree, loops_only=loops_only)
        self._coverage = self._demands = self._executions_at = None
        if not loops_only:
            self.walk_recipes.clear()
            self._plan_nodes = None

    @property
    def plan_nodes(self) -> Tuple[PlanNode, ...]:
        table = self._plan_nodes
        if table is None:
            table = self._plan_nodes = tuple(
                PlanNode(self, node, self._position)
                for node in self.tree.nodes())
        return table

    def _at(self, node: TileNode) -> int:
        """The node's pre-order position."""
        try:
            return self._position[id(node)]
        except KeyError:
            self.fingerprint(node)  # raises ForeignNodeError
            raise

    def _leaf_coverage(self) -> List[List[Dict[str, int]]]:
        coverage = self._coverage
        if coverage is None:
            coverage = self._coverage = [_path_coverage(dims, path)
                                         for dims, path in self._paths]
        return coverage

    def validate(self) -> None:
        """The §4 check from the compiled fusion rules and per-leaf path
        coverage; anything invalid raises the tree path's error."""
        if not (structure_verdict(self) and self._loops_valid()):
            raise_invalid(self.tree)

    def _loops_valid(self) -> bool:
        """Whether this point's loops pass the §4 loop rules (fusion
        loop dims, §4.1 reduction rule) and cover every operator."""
        for node, allowed, forbidden in self._fusion_rules:
            for lp in node.loops:
                if lp.dim not in allowed or lp.dim in forbidden:
                    return False
        for covs, sizes in zip(self._leaf_coverage(), self._sizes):
            root = covs[-1]
            for d, size in sizes:
                if root[d] < size:
                    return False
        return True

    def node_slices(self, node: TileNode) -> NodeSlices:
        cached = self._slices.get(id(node))
        if cached is not None:
            self.memo_hits += 1
            return cached
        rows = self._rows.get(id(node))
        if rows is None:
            self.fingerprint(node)  # raises ForeignNodeError
        coverage = self._leaf_coverage()
        extents: Dict[str, Tuple[int, ...]] = {}
        staged_words: Dict[str, float] = {}
        for name, pairs in rows:
            merged: Optional[List[int]] = None
            for leaf, depth, plain, terms in pairs:
                cov = coverage[leaf][depth]
                if plain is not None:
                    ext = list(map(cov.__getitem__, plain))
                else:
                    ext = []
                    for row in terms:
                        e = 1
                        for d, c in row:
                            e += c * (cov[d] - 1)
                        ext.append(e)
                merged = ext if merged is None else [
                    a if a >= b else b for a, b in zip(merged, ext)]
            extents[name] = box = tuple(merged)
            volume = 1
            for e in box:
                volume *= e
            staged_words[name] = float(volume)
        cached = self._slices[id(node)] = NodeSlices.from_extents(
            self.node_tensors(node), extents, staged_words)
        return cached

    def subtree_uses(self, node: TileNode, tensor_name: str) -> bool:
        return tensor_name in self.node_tensors(node).accesses

    def num_pe(self, node: TileNode) -> Tuple[int, int]:
        demands = self._demands
        if demands is None:
            # ``num_pe_demand`` over the plan nodes, children first.
            table = self.plan_nodes
            demands = self._demands = [(0, 0)] * len(table)
            for i in range(len(table) - 1, -1, -1):
                entry = table[i]
                sp = entry.node.spatial_trip_count
                if entry.leaf:
                    demands[i] = (sp, 0) if entry.mac else (0, sp)
                    continue
                mac = vec = 0  # demands are >= 0: max from 0 is exact
                for c in entry.children:
                    m, v = demands[c]
                    if not entry.shares_time:
                        mac, vec = mac + m, vec + v
                    else:
                        mac, vec = max(mac, m), max(vec, v)
                demands[i] = (sp * mac, sp * vec)
        return demands[self._at(node)]

    def executions(self, node: TileNode) -> int:
        counts = self._executions_at
        if counts is None:
            table = self.plan_nodes
            counts = self._executions_at = [1] * len(table)
            for i, entry in enumerate(table):
                if entry.children:
                    n = counts[i] * entry.node.trip_count
                    for c in entry.children:
                        counts[c] = n
        return counts[self._at(node)]

    def staged_bytes_lower_bound(self, node: TileNode) -> float:
        words = self.node_slices(node).staged_words
        entry = self.plan_nodes[self._at(node)]
        total = 0.0
        for name, word_bytes, factor in entry.staged:
            total += factor * words[name] * word_bytes
        return total


def _path_coverage(dims: Tuple[str, ...],
                   path: List[TileNode]) -> List[Dict[str, int]]:
    """``slice_coverage(node, leaf)`` at every node of a leaf's ``path``
    (leaf first, with the leaf op's ``dims``), in path order, then the
    root coverage the §4 rule checks: each node applies its unit-step
    spatial loops to the coverage below it, then all its loops for the
    next node up (``apply_loops``' arithmetic, inner loops first)."""
    below = dict.fromkeys(dims, 1)
    out: List[Dict[str, int]] = []
    for node in path:
        here = below
        for lp in reversed(node.spatial_loops):
            if lp.step == 1 and lp.dim in here:
                if here is below:
                    here = dict(below)
                here[lp.dim] += lp.count - 1
        out.append(here)
        if node.loops:
            below = dict(below)
            for lp in reversed(node.loops):
                if lp.dim in below:
                    below[lp.dim] += lp.step * (lp.count - 1)
    out.append(below)
    return out
