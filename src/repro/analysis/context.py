"""Shared per-evaluation analysis state.

:class:`AnalysisContext` is the blackboard one run of the §5 passes
(:mod:`repro.analysis.pipeline`) writes its artifacts into, and the one
place the §5 passes read a tree's structure from.  On first use it
compiles, for any tree, what the passes derive from the tree's
structure alone:

* **slice rows** — per node and tensor, every (leaf, access) pair below
  it as per-tensor-dim ``(iteration dim, |coefficient|)`` terms.  A
  point's extent is ``1 + sum(|c| * (cov_d - 1))`` over the leaf's path
  coverage, max-merged over the pairs — what
  :meth:`AffineExpr.extent_over` and :func:`merged_extents` give.
* **walk recipes** — per node, the tensors crossing into its buffer,
  each with its first reader's and first writer's ordered walk segments
  of §5.1.1/§5.1.2
  (:class:`~repro.analysis.datamovement.WalkRecipe`), compiled by the
  data-movement pass into :attr:`AnalysisContext.walk_recipes`.
* **fusion rules** — per fusion node, the dims its loops may iterate
  (those of the operators below it) and the §4.1 reduction dims they may
  not; :meth:`AnalysisContext.validate` checks the loops against them and
  the root coverage from the same per-leaf path coverage the slice rows
  read.
* **plan nodes** — the pre-order :class:`PlanNode` table the bound,
  resource and latency passes walk instead of the tree (children before
  parents for the bottom-up recursions).

The tree's current loops are then substituted into those tables: per
leaf its coverage along its path, per node its ``NumPE`` demand and
execution count, all exact integer arithmetic.  The tensor-residency
facts — each tensor's LCA home node, the Seq eviction verdicts — are
memoized too, and each plan node records the tensors crossing into its
buffer.

A context is valid for exactly one ``(tree, arch)`` pair:

* querying it with a node from a *different* tree raises
  :class:`~repro.errors.ForeignNodeError` instead of silently returning
  stale geometry keyed by a recycled ``id()``;
* after mutating the context's own tree in place,
  :meth:`AnalysisContext.invalidate` re-arms it.  A loops-only re-arm
  keeps every compiled table and every structure-only fact, which is
  how a per-genome tune (:class:`~repro.engine.GenomePlan`) prices each
  factor point on one tree.

An optional shared artifact store (``artifact_cache``, a
:class:`~repro.engine.cache.SubtreeArtifactCache`) is a memo on top:
slice geometry is looked up under the node's structural subtree
fingerprint (:mod:`repro.analysis.fingerprint`) and data-movement
volumes under their projected walk before they are computed from the
compiled tables, so trees that share subtrees share that work.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..arch import Architecture
from ..errors import ForeignNodeError
from ..ir import TensorAccess
from ..tile.bindings import Binding
from ..tile.tree import AnalysisTree, FusionNode, OpTile, TileNode
from ..tile.validate import fused_producers, raise_invalid, structure_verdict
from .fingerprint import cache_namespace, node_fingerprints

AccessPairs = List[Tuple[OpTile, TensorAccess]]


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

    ``tensors`` are the node's tensors in :class:`NodeTensors` order;
    ``extents[t]`` merges the slice bounding boxes of all reads and
    writes of ``t`` below the node, and ``staged_words[t]`` is that
    box's volume (one buffer instance's residency per time step).

    Instances may be shared across structurally identical subtrees of
    different trees (the engine's subtree artifact cache does exactly
    that), so consumers must never mutate them.
    """

    __slots__ = ("tensors", "extents", "staged_words")

    def __init__(self, tensors: Tuple[str, ...],
                 extents: Dict[str, Tuple[int, ...]],
                 staged_words: Dict[str, float]):
        self.tensors = tensors
        self.extents = extents
        self.staged_words = staged_words


#: One (leaf, access) pair of a slice row: the leaf's index in the
#: context's leaf order, the node's depth on that leaf's path, the
#: access's dims when every tensor dim is one of them with coefficient 1
#: (else None), and per tensor dim the access's ``(iteration dim,
#: |coefficient|)`` terms.
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
    """One node of a context's tree as the bound, resource and latency
    passes read it, fixed until a structural re-arm.

    ``children`` are pre-order positions in
    :attr:`AnalysisContext.plan_nodes`.  ``crossing`` names, in the
    node's tensor order, the tensors crossing into the node's buffer
    (:meth:`AnalysisContext.tensor_crossing`).  ``staged`` holds, in the
    same order, each tensor's ``(name, word bytes, buffering factor)``:
    2.0 for a crossing tensor (double-buffered), else 1.0.  ``memory``
    is the node's level and ``source_bandwidth`` its source level's
    aggregate bytes per cycle; ``pool`` and ``ops_per_point`` price a
    leaf's compute.
    """

    __slots__ = ("node", "children", "leaf", "fusion", "seq",
                 "shares_time", "mac", "level", "source_level", "memory",
                 "source_bandwidth", "crossing", "staged", "pool",
                 "ops_per_point")

    def __init__(self, ctx: "AnalysisContext", node: TileNode,
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
        tensors = ctx.node_tensors(node).tensors
        self.crossing = tuple(name for name in tensors
                              if ctx.tensor_crossing(node, name))
        self.staged = tuple(
            (name, word_bytes[name], 2.0 if name in self.crossing else 1.0)
            for name in tensors)
        op = node.op if self.leaf else None
        self.mac = op is not None and op.kind == "mac"
        self.pool = arch.compute_units(op.kind) if op is not None else 0
        self.ops_per_point = op.ops_per_point if op is not None else 0.0


class AnalysisContext:
    """Blackboard, compiled tables and memo store for one tree.

    Passes communicate exclusively through :meth:`put`/:meth:`get`
    artifacts; the memoized accessors below are shared computation, not
    artifacts, and may be called by any pass.

    ``artifact_cache`` (duck-typed: ``store(namespace, kind)`` returning
    a dict-backed store, see
    :class:`~repro.engine.cache.SubtreeArtifactCache`) plugs in a
    persistent cross-evaluation store for slice geometry and walk
    volumes; stores are namespaced by
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
        #: Tensor name -> bytes per word.
        self.word_bytes: Dict[str, int] = {
            t.name: t.word_bytes for t in tree.workload.tensors()}
        #: Names of passes that have finished, in execution order.
        self.completed: List[str] = []
        self._artifacts: Dict[str, Any] = {}
        #: id(node) -> structural fingerprint (with a shared store only).
        self._fps: Optional[Dict[int, str]] = None
        self._ns: Optional[str] = None
        #: kind -> bound KindStore of ``artifact_cache`` (lazy).
        self._kind_stores: Dict[str, Any] = {}
        #: Context-local slice memo hits (served from this context's own
        #: dict, as opposed to the shared store or a fresh compute) —
        #: ``repro explain`` provenance attribution.
        self.memo_hits = 0
        #: :meth:`fingerprint` -> this point's slices.
        self._slices: Dict[Any, NodeSlices] = {}
        # Structure-only memos (no loop counts), ``id``-keyed; a
        # loops-only :meth:`invalidate` keeps them.
        self._tensors: Dict[int, NodeTensors] = {}
        self._homes: Dict[str, Optional[TileNode]] = {}
        self._homes_built = False
        #: id(home) -> strict descendant ids.
        self._descendants: Dict[int, FrozenSet[int]] = {}
        #: (id(parent), id(child), tensor) -> Seq-evicted?  A child of
        #: ``None`` asks about the node's own iterations.
        self._evictions: Dict[Tuple[int, Optional[int], str], bool] = {}
        #: Verdict of the §4 rules that read no loop counts (None until
        #: :func:`~repro.tile.validate.structure_verdict` checks).
        self.structure_ok: Optional[bool] = None
        # Compiled tables, built on first use.  The tree's node set is
        # fixed (:meth:`AnalysisTree.nodes`), so positions, leaf paths,
        # slice rows and fusion rules live as long as the context; walk
        # recipes and plan nodes read levels, bindings and tensor homes,
        # which a structural re-arm drops.
        #: id(node) -> pre-order position.
        self._position: Dict[int, int] = {
            id(n): i for i, n in enumerate(tree.nodes())}
        #: Per leaf, in leaf order: its op's dims and its path, leaf to
        #: root; its op's ``(dim, size)`` pairs (root coverage); and per
        #: (leaf, path node) the node's depth on the path.
        self._paths: Optional[List[Tuple[Tuple[str, ...],
                                         List[TileNode]]]] = None
        self._sizes: List[Tuple[Tuple[str, int], ...]] = []
        self._leaf_index: Dict[int, int] = {}
        self._depth: Dict[Tuple[int, int], int] = {}
        #: id(node) -> ((tensor, slice rows), ...) in tensor order.
        self._rows: Dict[int, Tuple[Tuple[str, Tuple[SliceRow, ...]],
                                    ...]] = {}
        #: id(access) -> its :func:`_slice_terms` (shared by the rows of
        #: every node on its leaf's path).
        self._terms: Dict[int, Tuple[Any, Any]] = {}
        #: (fusion node, allowed loop dims, forbidden loop dims).
        self._fusion_rules: Optional[List[Tuple[
            TileNode, FrozenSet[str], FrozenSet[str]]]] = None
        #: id(node) -> its crossing tensors with their compiled walk
        #: recipes (:data:`~repro.analysis.datamovement.Crossing` list).
        self.walk_recipes: Dict[int, Any] = {}
        #: id(access) -> the access's walk moves per dim, shared by its
        #: recipes (:class:`~repro.analysis.datamovement.WalkRecipe`).
        self.access_moves: Dict[int, Dict[str, Any]] = {}
        self._plan_nodes: Optional[Tuple[PlanNode, ...]] = None
        # Per point (this point's loops; built on first use): per leaf
        # the coverage at each node of its path and at the root, and per
        # node position its NumPE demand and execution count.
        self._coverage: Optional[List[List[Dict[str, int]]]] = None
        self._demands: Optional[List[Tuple[int, int]]] = None
        self._executions_at: Optional[List[int]] = None

    # -- artifacts -------------------------------------------------------
    def put(self, name: str, value: Any) -> None:
        self._artifacts[name] = value

    def get(self, name: str, default: Any = None) -> Any:
        return self._artifacts.get(name, default)

    # -- node identity / shared cache ------------------------------------
    def _at(self, node: TileNode) -> int:
        """The node's pre-order position.

        Raises :class:`ForeignNodeError` for nodes outside this
        context's tree.
        """
        try:
            return self._position[id(node)]
        except KeyError:
            raise ForeignNodeError(
                f"node {node.label()!r} is not part of tree "
                f"{self.tree.name!r}; an AnalysisContext serves exactly one "
                f"tree — build a fresh context for other trees, or call "
                f"invalidate() after mutating this context's tree in place"
            ) from None

    def fingerprint(self, node: TileNode) -> Any:
        """The node's memo key: its structural subtree fingerprint when
        a shared store is attached, its ``id`` otherwise.

        Raises :class:`ForeignNodeError` for nodes outside this
        context's tree.
        """
        self._at(node)
        if self.artifact_cache is None:
            return id(node)
        if self._fps is None:
            self._fps = node_fingerprints(self.tree.root)
        return self._fps[id(node)]

    def shared_store(self, kind: str) -> Any:
        """The bound per-kind store of the artifact cache (None without).

        The returned :class:`~repro.engine.cache.KindStore` is already
        namespaced to this context's workload/arch/flags; hot loops
        probe its ``data`` dict directly, recording outcomes via
        ``store.touch(key)``/``store.miss()``.
        """
        if self.artifact_cache is None:
            return None
        store = self._kind_stores.get(kind)
        if store is None:
            if self._ns is None:
                self._ns = cache_namespace(self.tree.workload, self.arch,
                                           self.model_eviction,
                                           self.model_rmw)
            store = self.artifact_cache.store(self._ns, kind)
            self._kind_stores[kind] = store
        return store

    def invalidate(self, subtree: Optional[TileNode] = None, *,
                   loops_only: bool = False) -> None:
        """Re-arm the context after an in-place mutation of its tree.

        Drops pass artifacts, completed-pass bookkeeping and this
        point's path coverage, ``NumPE`` demands and execution counts
        (they depend on *ancestor* loops).  Slices survive where the
        mutation cannot have reached them: fingerprint-keyed with a
        shared store, so untouched subtrees keep their keys; ``id``-keyed
        without one, so the entries of ``subtree``, its descendants and
        ancestors (all of them when ``subtree`` is None) are dropped.

        ``loops_only=True`` promises that only loops changed, not levels
        or bindings: tensor homes, descendant sets,
        Seq-eviction decisions, :class:`NodeTensors`, walk recipes, plan
        nodes and the loop-free §4 verdict then survive too — a
        per-genome tune re-prices one tree at every factor point this
        way.  Slice rows and fusion rules read only the operator->leaf
        structure, which every mutation must keep.

        ``subtree`` must belong to this context's tree (checked via
        parent pointers).  Splicing different *operators* in needs a new
        ``AnalysisTree`` and a new context.
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
        self._coverage = self._demands = self._executions_at = None
        if self.artifact_cache is not None:
            self._fps = None
        elif subtree is None:
            self._slices.clear()
        else:
            for node in (*subtree.walk(), *subtree.ancestors()):
                self._slices.pop(id(node), None)
        if not loops_only:
            self._homes = {}
            self._homes_built = False
            self._descendants.clear()
            self._evictions.clear()
            self.structure_ok = None
            self.walk_recipes.clear()
            self._plan_nodes = None

    # -- compiled tables -------------------------------------------------
    @property
    def plan_nodes(self) -> Tuple[PlanNode, ...]:
        """The tree's :class:`PlanNode` table, in pre-order."""
        table = self._plan_nodes
        if table is None:
            table = self._plan_nodes = tuple(
                PlanNode(self, node, self._position)
                for node in self.tree.nodes())
        return table

    def plan_node(self, node: TileNode) -> PlanNode:
        """The node's :class:`PlanNode`."""
        return self.plan_nodes[self._at(node)]

    def _compile_leaves(self) -> List[Tuple[Tuple[str, ...],
                                            List[TileNode]]]:
        """Each leaf's op dims and path, and the slice rows' indexes."""
        paths: List[Tuple[Tuple[str, ...], List[TileNode]]] = []
        for leaf in self.tree.root.leaves():
            self._leaf_index[id(leaf)] = len(paths)
            path = [leaf, *leaf.ancestors()]
            self._depth.update(((id(leaf), id(n)), i)
                               for i, n in enumerate(path))
            paths.append((tuple(leaf.op.dims), path))
            self._sizes.append(tuple(leaf.op.dims.items()))
        self._paths = paths
        return paths

    def _leaf_coverage(self) -> List[List[Dict[str, int]]]:
        """This point's :func:`_path_coverage` of every leaf."""
        coverage = self._coverage
        if coverage is None:
            paths = self._paths
            if paths is None:
                paths = self._compile_leaves()
            coverage = self._coverage = [_path_coverage(dims, path)
                                         for dims, path in paths]
        return coverage

    def _compile_rows(self, node: TileNode) -> Tuple[
            Tuple[str, Tuple[SliceRow, ...]], ...]:
        """The node's slice rows, in tensor order."""
        if self._paths is None:
            self._compile_leaves()
        index, depth, terms = self._leaf_index, self._depth, self._terms
        tensors = self.node_tensors(node)
        for pairs in tensors.accesses.values():
            for _, access in pairs:
                if id(access) not in terms:
                    terms[id(access)] = _slice_terms(access)
        rows = self._rows[id(node)] = tuple(
            (name, tuple(
                (index[id(leaf)], depth[id(leaf), id(node)])
                + terms[id(access)]
                for leaf, access in tensors.accesses[name]))
            for name in tensors.tensors)
        return rows

    # -- validation ------------------------------------------------------
    def validate(self) -> None:
        """The §4 check (the validate pass): the loop-free rules once per
        context, the compiled fusion rules and the root coverage of this
        point's loops every call; anything invalid raises
        :func:`~repro.tile.validate.validate_tree`'s error."""
        if not (structure_verdict(self) and self._loops_valid()):
            raise_invalid(self.tree)

    def _loops_valid(self) -> bool:
        """Whether this point's loops pass the §4 loop rules (fusion
        loop dims, §4.1 reduction rule) and cover every operator."""
        rules = self._fusion_rules
        if rules is None:
            rules = self._fusion_rules = []
            for node in self.tree.nodes():
                if isinstance(node, FusionNode):
                    ops = node.subtree_ops()
                    rules.append((
                        node, frozenset(d for op in ops for d in op.dims),
                        frozenset(d for op in fused_producers(
                            self.tree.workload, ops)
                            for d in op.reduction_dims)))
        for node, allowed, forbidden in rules:
            for lp in node.loops:
                if lp.dim not in allowed or lp.dim in forbidden:
                    return False
        for covs, sizes in zip(self._leaf_coverage(), self._sizes):
            root = covs[-1]
            for d, size in sizes:
                if root[d] < size:
                    return False
        return True

    # -- memoized per-node intermediates ---------------------------------
    def node_slices(self, node: TileNode) -> NodeSlices:
        """The node's slice geometry at this point: from the context's
        memo, else the shared store, else its compiled slice rows."""
        if self.artifact_cache is None:
            cached = self._slices.get(id(node))
            if cached is not None:
                self.memo_hits += 1
                return cached
            self._at(node)  # a foreign node raises
            cached = self._slices[id(node)] = self._compute_slices(node)
            return cached
        key = self.fingerprint(node)
        cached = self._slices.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        store = self.shared_store("slices")
        cached = store.data.get(key)
        if cached is None:
            store.miss()
            cached = self._compute_slices(node)
            store.put(key, cached)
        else:
            store.touch(key)
        self._slices[key] = cached
        return cached

    def _compute_slices(self, node: TileNode) -> NodeSlices:
        """The node's slices from its slice rows (compiled on first
        use) and this point's leaf coverage."""
        rows = self._rows.get(id(node))
        if rows is None:
            rows = self._compile_rows(node)
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
        return NodeSlices(self._tensors[id(node)].tensors, extents,
                          staged_words)

    def node_tensors(self, node: TileNode) -> NodeTensors:
        """The node's :class:`NodeTensors` (structure only, memoized)."""
        tensors = self._tensors.get(id(node))
        if tensors is None:
            tensors = self._tensors[id(node)] = NodeTensors(node)
        return tensors

    def num_pe(self, node: TileNode) -> Tuple[int, int]:
        """(MAC PEs, vector PEs) used concurrently by the subtree (§5.2).

        The paper's ``NumPE`` recursion over the plan nodes, children
        first: concurrent siblings (``Para``/``Pipe``) add their
        demands, time-shared siblings (``Seq``/``Shar``) take the max,
        spatial loops multiply.  Purely structural — it needs no
        data-movement information — so the feasibility bounds and the
        resource analysis share it.
        """
        demands = self._demands
        if demands is None:
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
        """How many times the node's subtree runs over the execution.

        The exact integer product of all ancestors' trip counts (the
        node's own loops are *inside* one execution).  Context-local
        only — the value depends on the node's ancestors, so an
        unchanged subtree fingerprint is no licence to reuse it across
        trees; :meth:`invalidate` drops it.
        """
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

    def subtree_uses(self, node: TileNode, tensor_name: str) -> bool:
        """Whether any leaf below ``node`` reads or writes the tensor."""
        return tensor_name in self.node_tensors(node).accesses

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
        home = self.home(tensor_name)
        if home is not None and (node.parent is None
                                 or id(node) not in self._below(home)):
            return False
        source_level = (node.parent.level if node.parent is not None
                        else self.arch.dram_index)
        return node.level < source_level

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
        words = self.node_slices(node).staged_words
        total = 0.0
        for name, word_bytes, factor in self.plan_node(node).staged:
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
