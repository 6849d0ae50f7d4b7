"""Shared per-evaluation analysis state.

:class:`AnalysisContext` is the blackboard one run of the §5 passes
(:mod:`repro.analysis.pipeline`) writes its artifacts into, and the one
place the §5 passes read a tree's structure from.  Its tables are
indexed by *plan position*, a node's index in the pre-order
:meth:`~repro.tile.tree.AnalysisTree.nodes`.  On first use it compiles,
for any tree, what the passes derive from the tree's structure alone:

* **slice rows** — per position and tensor, every (leaf, access) pair
  below the node as per-tensor-dim ``(iteration dim, |coefficient|)``
  terms.  A point's extent is ``1 + sum(|c| * (cov_d - 1))`` over the
  leaf's path coverage, max-merged over the pairs — what
  :meth:`AffineExpr.extent_over` and :func:`merged_extents` give.
* **walk recipes** — per position, the tensors crossing into its
  buffer, each with its first reader's and first writer's walked
  positions and multiplied segments of §5.1.1/§5.1.2
  (:class:`~repro.analysis.datamovement.WalkRecipe`), compiled by the
  data-movement pass into :attr:`AnalysisContext.crossings`.
* **fusion rules** — per fusion node, the dims its loops may iterate
  (those of the operators below it) and the §4.1 reduction dims they may
  not; :meth:`AnalysisContext.validate` checks the loops against them and
  the root coverage from the same per-leaf path coverage the slice rows
  read.
* **plan nodes** — the pre-order :class:`PlanNode` table the bound,
  resource and latency passes walk instead of the tree (children before
  parents for the bottom-up recursions).

A point's loops enter as one :class:`~repro.tile.loops.LoopSplit` per
position — handed over by a per-genome tune
(:meth:`AnalysisContext.rearm`), read off the tree's nodes otherwise.
From them come, all exact integer arithmetic, per leaf its coverage
along its path (validation and the slice table both read it), per
position its slices, and in one :class:`LoopState` sweep per position
its ``NumPE`` demand and execution count.  The tensor-residency facts
— each tensor's LCA home node, the Seq eviction verdicts — are memoized
too, and each plan node records the tensors crossing into its buffer.

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

from typing import (Any, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

from ..arch import Architecture
from ..errors import ForeignNodeError
from ..ir import TensorAccess
from ..tile.bindings import Binding
from ..tile.loops import LoopSplit
from ..tile.tree import AnalysisTree, FusionNode, OpTile, TileNode
from ..tile.validate import fused_producers, raise_invalid, structure_verdict
from .fingerprint import cache_namespace, node_fingerprints

AccessPairs = List[Tuple[OpTile, TensorAccess]]


class NodeTensors:
    """The leaf accesses below one tree node, grouped by tensor.

    Built from the node's ``leaves``, in leaf order.  ``tensors`` is
    sorted so every float accumulation over it is deterministic;
    ``readers``/``writers`` hold the ``(leaf, access)`` pairs
    reading/writing each tensor and ``accesses`` all of them, in leaf
    order.  Reads no loops: a context keeps it across loop changes
    (:meth:`AnalysisContext.invalidate`).
    """

    __slots__ = ("readers", "writers", "accesses", "tensors")

    def __init__(self, leaves: Iterable[OpTile]):
        self.readers: Dict[str, AccessPairs] = {}
        self.writers: Dict[str, AccessPairs] = {}
        self.accesses: Dict[str, AccessPairs] = {}
        for leaf in leaves:
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


class LoopState:
    """What one point's loops give each plan position, from the
    position's :class:`~repro.tile.loops.LoopSplit` and its relatives'.

    ``executions[i]`` is how many times the subtree at position ``i``
    runs over the execution, the exact integer product of all its
    ancestors' trip counts (its own loops are *inside* one execution),
    parents first; ``demands[i]`` the ``(MAC PEs, vector PEs)`` the
    subtree uses concurrently (§5.2), children first: concurrent
    siblings (``Para``/``Pipe``) add their demands, time-shared siblings
    (``Seq``/``Shar``) take the max, spatial loops multiply.
    """

    __slots__ = ("executions", "demands")

    def __init__(self, table: Sequence[PlanNode],
                 splits: Sequence[LoopSplit]):
        n = len(table)
        executions = self.executions = [1] * n
        demands = self.demands = [(0, 0)] * n
        for i, entry in enumerate(table):
            if entry.children:
                split = splits[i]
                runs = (executions[i] * split.temporal_trip
                        * split.spatial_trip)
                for c in entry.children:
                    executions[c] = runs
        for i in range(n - 1, -1, -1):
            entry = table[i]
            sp = splits[i].spatial_trip
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


class AnalysisContext:
    """Blackboard, compiled tables and memo store for one tree.

    Passes communicate exclusively through :meth:`put`/:meth:`get`
    artifacts; the memoized tables below are shared computation, not
    artifacts, and may be read by any pass.

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
        #: Structural fingerprints by position (with a shared store only).
        self._fps: Optional[List[str]] = None
        self._ns: Optional[str] = None
        #: kind -> bound KindStore of ``artifact_cache`` (lazy).
        self._kind_stores: Dict[str, Any] = {}
        #: Context-local slice memo hits (served from this context's own
        #: table, as opposed to the shared store or a fresh compute) —
        #: ``repro explain`` provenance attribution.
        self.memo_hits = 0
        #: Fingerprint -> slices (with a shared store only).
        self._slices: Dict[str, NodeSlices] = {}
        # Structure-only memos (no loop counts), ``id``-keyed; a
        # loops-only :meth:`invalidate` keeps them.
        #: Per position, its :class:`NodeTensors` (built on first use).
        self._tensors: Optional[List[NodeTensors]] = None
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
        #: Per position, its parent's position (-1 at the root).
        self.parents: List[int] = [
            -1 if n.parent is None else self._position[id(n.parent)]
            for n in tree.nodes()]
        #: Every dim of the workload's operators, in operator order.
        self.workload_dims: Tuple[str, ...] = tuple(dict.fromkeys(
            d for op in tree.workload.operators for d in op.dims))
        #: Per leaf, in leaf order: its op's dims and its path's
        #: positions, leaf to root; and its op's ``(dim, size)`` pairs
        #: (root coverage).
        self._paths: Optional[List[Tuple[Tuple[str, ...],
                                         Tuple[int, ...]]]] = None
        self._sizes: List[Tuple[Tuple[str, int], ...]] = []
        #: Per position: its tensors and ((tensor, slice rows), ...) in
        #: tensor order.
        self._rows: Optional[List[Tuple[Tuple[str, ...], Tuple[
            Tuple[str, Tuple[SliceRow, ...]], ...]]]] = None
        #: (position, allowed loop dims, forbidden loop dims) per fusion
        #: node.
        self._fusion_rules: Optional[List[Tuple[
            int, FrozenSet[str], FrozenSet[str]]]] = None
        #: Per position, its crossing tensors with their compiled walk
        #: recipes (:data:`~repro.analysis.datamovement.Crossing` tuple),
        #: compiled by the data-movement pass.
        self.crossings: Optional[List[Any]] = None
        #: id(access) -> the access's walk moves per dim and the dims
        #: that move it, shared by its recipes
        #: (:class:`~repro.analysis.datamovement.WalkRecipe`).
        self.access_moves: Dict[int, Tuple[Dict[str, Any],
                                           FrozenSet[str]]] = {}
        self._plan_nodes: Optional[Tuple[PlanNode, ...]] = None
        # Per point (this point's loops; built on first use): per
        # position its loop split, then per leaf the coverage at each
        # node of its path and at the root, the loop state and per
        # position the slices.
        self._splits: Optional[Sequence[LoopSplit]] = None
        self._coverage: Optional[List[List[Dict[str, int]]]] = None
        self._state: Optional[LoopState] = None
        self._staged: Optional[List[float]] = None
        self._slice_table: Optional[List[Optional[NodeSlices]]] = None
        self._slices_ready = False

    # -- artifacts -------------------------------------------------------
    def put(self, name: str, value: Any) -> None:
        self._artifacts[name] = value

    def get(self, name: str, default: Any = None) -> Any:
        return self._artifacts.get(name, default)

    # -- node identity / shared cache ------------------------------------
    def position(self, node: TileNode) -> int:
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
        i = self.position(node)
        if self.artifact_cache is None:
            return id(node)
        return self._fingerprints()[i]

    def _fingerprints(self) -> List[str]:
        fps = self._fps
        if fps is None:
            by_id = node_fingerprints(self.tree.root)
            fps = self._fps = [by_id[id(n)] for n in self.tree.nodes()]
        return fps

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
        point's loop state and path coverage (they depend on *ancestor*
        loops).  Slices survive where the mutation cannot have reached
        them: fingerprint-keyed with a shared store, so untouched
        subtrees keep their keys; by position without one, so the
        entries of ``subtree``, its descendants and ancestors (all of
        them when ``subtree`` is None) are dropped.

        ``loops_only=True`` promises that only loops changed, not levels
        or bindings: tensor homes, descendant sets,
        Seq-eviction decisions, :class:`NodeTensors`, walk recipes, plan
        nodes and the loop-free §4 verdict then survive too — a
        per-genome tune re-prices one tree at every factor point this
        way (:meth:`rearm`).  Slice rows and fusion rules read only the
        operator->leaf structure, which every mutation must keep.

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
        self._splits = self._coverage = self._state = self._staged = None
        self._slices_ready = False
        table = self._slice_table
        if self.artifact_cache is not None:
            self._fps = None
            self._slice_table = None
        elif subtree is None:
            self._slice_table = None
        elif table is not None:
            for node in (*subtree.walk(), *subtree.ancestors()):
                table[self._position[id(node)]] = None
        if not loops_only:
            self._homes = {}
            self._homes_built = False
            self._descendants.clear()
            self._evictions.clear()
            self.structure_ok = None
            self.crossings = None
            self._plan_nodes = None

    def rearm(self, splits: Sequence[LoopSplit],
              changed: Iterable[int]) -> None:
        """Re-arm loops-only (:meth:`invalidate`) for a point whose
        per-position splits the caller already holds — the nodes' loops
        must equal them — and which differ from the last point's only at
        the ``changed`` positions.

        A node's slices read only its own and its descendants' loops, so
        without a shared store the slices of every position that is
        neither changed nor above a changed one stay in the table.
        """
        table = self._slice_table
        self.invalidate(loops_only=True)
        self._splits = splits
        if table is not None and self.artifact_cache is None:
            parent = self.parents
            for i in changed:
                # Dropped entries are closed upward: stop at the first.
                while i >= 0 and table[i] is not None:
                    table[i] = None
                    i = parent[i]
            self._slice_table = table

    # -- this point's loops ----------------------------------------------
    def splits(self) -> Sequence[LoopSplit]:
        """This point's :class:`LoopSplit` per position."""
        splits = self._splits
        if splits is None:
            splits = self._splits = [n.split for n in self.tree.nodes()]
        return splits

    def loop_state(self) -> LoopState:
        """This point's :class:`LoopState` (one sweep, on first use)."""
        state = self._state
        if state is None:
            state = self._state = LoopState(self.plan_nodes, self.splits())
        return state

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

    def _compile_leaves(self) -> List[Tuple[Tuple[str, ...],
                                            Tuple[int, ...]]]:
        """Each leaf's op dims and path positions."""
        position = self._position
        paths = self._paths = []
        for leaf in self.tree.root.leaves():
            paths.append((tuple(leaf.op.dims), tuple(
                position[id(n)] for n in (leaf, *leaf.ancestors()))))
            self._sizes.append(tuple(leaf.op.dims.items()))
        return paths

    def _leaf_coverage(self) -> List[List[Dict[str, int]]]:
        """This point's :func:`_path_coverage` of every leaf."""
        coverage = self._coverage
        if coverage is None:
            paths = self._paths
            if paths is None:
                paths = self._compile_leaves()
            at = self.splits().__getitem__
            coverage = self._coverage = [
                _path_coverage(dims, map(at, path)) for dims, path in paths]
        return coverage

    def _slice_rows(self):
        """Every position's tensors and slice rows, in tensor order."""
        rows = self._rows
        if rows is not None:
            return rows
        if self._paths is None:
            self._compile_leaves()
        leaf_index: Dict[int, int] = {}
        depth: Dict[Tuple[int, int], int] = {}
        for i, leaf in enumerate(self.tree.root.leaves()):
            leaf_index[id(leaf)] = i
            depth.update(((id(leaf), id(n)), d) for d, n in
                         enumerate((leaf, *leaf.ancestors())))
        terms: Dict[int, Tuple[Any, Any]] = {}
        rows = self._rows = []
        for node in self.tree.nodes():
            tensors = self.node_tensors(node)
            for pairs in tensors.accesses.values():
                for _, access in pairs:
                    if id(access) not in terms:
                        terms[id(access)] = _slice_terms(access)
            rows.append((tensors.tensors, tuple(
                (name, tuple(
                    (leaf_index[id(leaf)], depth[id(leaf), id(node)])
                    + terms[id(access)]
                    for leaf, access in tensors.accesses[name]))
                for name in tensors.tensors)))
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
            for i, node in enumerate(self.tree.nodes()):
                if isinstance(node, FusionNode):
                    ops = node.subtree_ops()
                    rules.append((
                        i, frozenset(d for op in ops for d in op.dims),
                        frozenset(d for op in fused_producers(
                            self.tree.workload, ops)
                            for d in op.reduction_dims)))
        splits = self.splits()
        for i, allowed, forbidden in rules:
            for lp in splits[i].loops:
                if lp.dim not in allowed or lp.dim in forbidden:
                    return False
        for covs, sizes in zip(self._leaf_coverage(), self._sizes):
            root = covs[-1]
            for d, size in sizes:
                if root[d] < size:
                    return False
        return True

    # -- slices ----------------------------------------------------------
    def slices(self) -> List[NodeSlices]:
        """This point's :class:`NodeSlices` per position: the slices
        pass fills the table, later passes read it from the memo."""
        table = self._slice_table
        if table is not None and self._slices_ready:
            self.memo_hits += len(table)
            return table
        return self._fill_slices()

    def node_slices(self, node: TileNode) -> NodeSlices:
        """The node's slice geometry at this point (see :meth:`slices`)."""
        i = self.position(node)
        table = self._slice_table
        if table is not None and self._slices_ready:
            self.memo_hits += 1
            return table[i]
        return self._fill_slices()[i]

    def _fill_slices(self) -> List[NodeSlices]:
        """Fill the slices table: by position from the context's memo,
        else (fingerprint-keyed) the shared store, else the compiled
        slice rows and this point's leaf coverage."""
        rows = self._slice_rows()
        if self.artifact_cache is None:
            table = self._slice_table
            if table is None:
                table = self._slice_table = [None] * len(rows)
            coverage = self._leaf_coverage()
            for i, kept in enumerate(table):
                if kept is None:
                    table[i] = _compute_slices(rows[i], coverage)
                else:
                    self.memo_hits += 1
        else:
            memo = self._slices
            store = self.shared_store("slices")
            table = self._slice_table = []
            for i, key in enumerate(self._fingerprints()):
                cached = memo.get(key)
                if cached is not None:
                    self.memo_hits += 1
                else:
                    cached = store.data.get(key)
                    if cached is None:
                        store.miss()
                        cached = _compute_slices(rows[i],
                                                 self._leaf_coverage())
                        store.put(key, cached)
                    else:
                        store.touch(key)
                    memo[key] = cached
                table.append(cached)
        self._slices_ready = True
        return table

    def staged_bytes(self) -> List[float]:
        """Per position, the bytes one buffer instance of the node
        stages at this point: its tensors' staged words, crossing
        tensors double-buffered (:attr:`PlanNode.staged`).

        The resource-bounds pass reads them as per-instance floors and
        the resource analysis as each node's own footprint; the
        buffering factor is 1 or 2, so either pass's order of the
        product gives these exact floats.
        """
        staged = self._staged
        if staged is None:
            staged = self._staged = []
            for entry, slices in zip(self.plan_nodes, self.slices()):
                words = slices.staged_words
                total = 0.0
                for name, word_bytes, factor in entry.staged:
                    total += factor * words[name] * word_bytes
                staged.append(total)
        return staged

    # -- memoized per-node intermediates ---------------------------------
    def node_tensors(self, node: TileNode) -> NodeTensors:
        """The node's :class:`NodeTensors` (structure only, memoized)."""
        table = self._tensors
        if table is None:
            # One sweep up every leaf's path gives each node its leaves
            # in leaf order.
            leaves: List[List[OpTile]] = [[] for _ in self.parents]
            for leaf in self.tree.root.leaves():
                i = self._position[id(leaf)]
                while i >= 0:
                    leaves[i].append(leaf)
                    i = self.parents[i]
            table = self._tensors = [NodeTensors(below) for below in leaves]
        return table[self.position(node)]

    def num_pe(self, node: TileNode) -> Tuple[int, int]:
        """(MAC PEs, vector PEs) used concurrently by the subtree (§5.2):
        the paper's ``NumPE`` recursion (:class:`LoopState`).  Purely
        structural — it needs no data-movement information — so the
        feasibility bounds and the resource analysis share it.
        """
        return self.loop_state().demands[self.position(node)]

    def executions(self, node: TileNode) -> int:
        """How many times the node's subtree runs over the execution
        (:class:`LoopState`).  Context-local only — the value depends on
        the node's ancestors, so an unchanged subtree fingerprint is no
        licence to reuse it across trees; :meth:`invalidate` drops it.
        """
        return self.loop_state().executions[self.position(node)]

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


def _compute_slices(rows, coverage: List[List[Dict[str, int]]]
                    ) -> NodeSlices:
    """One position's slices from its slice rows and this point's leaf
    coverage."""
    tensors, rows = rows
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
    return NodeSlices(tensors, extents, staged_words)


def _path_coverage(dims: Tuple[str, ...],
                   path: Iterable[LoopSplit]) -> List[Dict[str, int]]:
    """``slice_coverage(node, leaf)`` at every node of a leaf's path
    (the splits of its nodes, leaf first, with the leaf op's ``dims``),
    in path order, then the root coverage the §4 rule checks: each node
    applies its unit-step spatial loops to the coverage below it, then
    all its loops for the next node up (``apply_loops``' arithmetic,
    inner loops first)."""
    below = dict.fromkeys(dims, 1)
    out: List[Dict[str, int]] = []
    for split in path:
        here = below
        for lp in reversed(split.spatial):
            if lp.step == 1 and lp.dim in here:
                if here is below:
                    here = dict(below)
                here[lp.dim] += lp.count - 1
        out.append(here)
        if split.loops:
            below = dict(below)
            for lp in reversed(split.loops):
                if lp.dim in below:
                    below[lp.dim] += lp.step * (lp.count - 1)
    out.append(below)
    return out
