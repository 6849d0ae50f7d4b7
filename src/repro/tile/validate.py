"""Structural validation of analysis trees.

Checks (all from §4 of the paper):

1. **Level monotonicity** — memory levels never increase from root to leaf.
2. **Chain shape** — an :class:`OpTile`'s child must be an OpTile of the
   same operator (fusion happens only at :class:`FusionNode`s).
3. **Coverage** — the tree covers the full iteration space of every
   operator (over-coverage is legal: it is the halo/recompute of fused
   convolutions).
4. **Fusion loop dims** — a loop at a FusionNode must iterate a dim of at
   least one operator in its subtree.
5. **Reduction-loop rule** (§4.1) — when a producer is fused, its
   reduction dims must not appear as loops of any fusion node containing
   both the producer and a consumer of its output; otherwise the consumer
   could not start until the producer finished, breaking the pipeline.
6. **Sibling order** — within a FusionNode, producers execute before
   consumers of their tensors; ``Para`` siblings must be independent.

:func:`validate_tree` raises :class:`TreeValidationError` on the first
violation; :func:`check_tree` returns the list of all violation messages,
running each node-local rule (``_check_*``) over the nodes in pre-order,
rule by rule.  An analysis context
(:meth:`~repro.analysis.context.AnalysisContext.validate`) checks the
rules that read no loop counts (:data:`STRUCTURE_RULES`) once per
context (:func:`structure_verdict`) and the loop rules from its compiled
tables; whatever it finds invalid falls back to :func:`check_tree`
(:func:`raise_invalid`), so the error message lists problems in the
canonical order.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..errors import TreeValidationError
from ..ir import Operator
from .coverage import apply_loops
from .bindings import Binding
from .tree import AnalysisTree, FusionNode, OpTile, TileNode

#: Operator kinds whose reductions are associative and can be computed
#: online (running max / running sum), so tiling their reduction dim above
#: the fusion point is legal — the FlashAttention-style relaxation that
#: enables the paper's winning self-attention dataflow, which tiles the
#: column dimension of S/L/A (§7.5, Table 7 discussion).
ASSOCIATIVE_KINDS = frozenset({"max", "sum"})


def check_tree(tree: AnalysisTree) -> List[str]:
    """Return a list of structural-rule violations (empty when valid)."""
    problems: List[str] = []
    _apply((_check_levels, _check_chains), tree, problems)
    problems.extend(_coverage_problems(tree))
    _apply((_check_fusion_loops, _check_reduction_rule,
            _check_sibling_order), tree, problems)
    return problems


def validate_tree(tree: AnalysisTree) -> None:
    """Raise :class:`TreeValidationError` if the tree is malformed."""
    problems = check_tree(tree)
    if problems:
        raise TreeValidationError(
            f"tree {tree.name!r} is invalid:\n  - " + "\n  - ".join(problems))


def structure_verdict(ctx) -> bool:
    """Whether ``ctx.tree`` passes the rules that read no loop counts
    (:data:`STRUCTURE_RULES`), checked once per context: the verdict is
    kept in ``ctx.structure_ok``."""
    if ctx.structure_ok is None:
        problems: List[str] = []
        _apply(STRUCTURE_RULES, ctx.tree, problems)
        ctx.structure_ok = not problems
    return ctx.structure_ok


def _apply(rules, tree: AnalysisTree, problems: List[str]) -> None:
    """Run node-local rules over the tree, rule by rule, pre-order."""
    for rule in rules:
        for node in tree.nodes():
            rule(node, tree.workload, problems)


def raise_invalid(tree: AnalysisTree) -> None:
    """Raise the canonical error for a tree a context found invalid."""
    validate_tree(tree)  # canonical problem order; raises
    raise TreeValidationError(  # pragma: no cover - local/full skew
        f"tree {tree.name!r} is invalid (its analysis context found "
        f"problems the full check did not)")


def _coverage_problems(tree: AnalysisTree) -> List[str]:
    """Root coverage of every operator (§4 rule 3)."""
    problems: List[str] = []
    for op in tree.workload.operators:
        try:
            path = tree.op_path(op.name)
        except TreeValidationError:
            problems.append(f"subtree {tree.root.label()!r} has no leaf "
                            f"for operator {op.name!r}")
            continue
        cov: Dict[str, int] = {d: 1 for d in op.dims}
        for node in reversed(path):
            cov = apply_loops(cov, node.loops, op.dims)
        for d, size in op.dims.items():
            if cov.get(d, 1) < size:
                problems.append(
                    f"operator {op.name!r}: dim {d!r} covered {cov.get(d, 1)}"
                    f" < {size}")
    return problems


# ----------------------------------------------------------------------
# The node-local rules.  Each appends the problems of one node.
def _check_levels(node: TileNode, workload, problems: List[str]) -> None:
    for child in node.children_nodes():
        if child.level > node.level:
            problems.append(
                f"level increases from {node.label()} (L{node.level}) "
                f"to child {child.label()} (L{child.level})")


def _check_chains(node: TileNode, workload, problems: List[str]) -> None:
    if isinstance(node, OpTile) and node.child is not None:
        child = node.child
        if not isinstance(child, OpTile):
            problems.append(
                f"OpTile {node.label()} has non-OpTile child "
                f"{child.label()}; fusion requires a FusionNode")
        elif child.op.name != node.op.name:
            problems.append(
                f"OpTile chain switches operator: {node.label()} -> "
                f"{child.label()}")


def _check_fusion_loops(node: TileNode, workload,
                        problems: List[str]) -> None:
    if not isinstance(node, FusionNode) or not node.loops:
        return
    dims = set()
    for op in node.subtree_ops():
        dims.update(op.dims)
    for lp in node.loops:
        if lp.dim not in dims:
            problems.append(
                f"fusion node {node.label()}: loop dim {lp.dim!r} "
                f"belongs to no operator in its subtree")


def _check_reduction_rule(node: TileNode, workload,
                          problems: List[str]) -> None:
    if not isinstance(node, FusionNode) or not node.loops:
        return
    for op in fused_producers(workload, node.subtree_ops()):
        for lp in node.loops:
            if lp.dim in op.reduction_dims:
                problems.append(
                    f"fusion node {node.label()}: loop over {lp.dim!r} "
                    f"is a reduction dim of fused producer {op.name!r} "
                    f"(§4.1 forbids producer reduction loops above the "
                    f"fusion point)")


def fused_producers(workload, ops: Sequence[Operator]
                    ) -> List[Operator]:
    """The operators of ``ops`` whose reduction dims §4.1 forbids as
    loops above a fusion point holding all of ``ops``: the
    non-associative producers whose output another of ``ops`` consumes,
    in ``ops`` order."""
    names = {op.name for op in ops}
    return [op for op in ops if op.kind not in ASSOCIATIVE_KINDS
            and any(c.name in names
                    for c in workload.consumers(op.output.tensor.name))]


def _check_sibling_order(node: TileNode, workload,
                         problems: List[str]) -> None:
    if not isinstance(node, FusionNode):
        return
    position: Dict[str, int] = {}
    for idx, child in enumerate(node.children):
        for op in child.subtree_ops():
            position[op.name] = idx
    for producer, tensor, consumer in workload.dependency_chain():
        if producer in position and consumer in position:
            if position[producer] > position[consumer]:
                problems.append(
                    f"fusion node {node.label()}: child with consumer "
                    f"{consumer!r} precedes child with producer "
                    f"{producer!r} of tensor {tensor!r}")
            elif (position[producer] != position[consumer]
                  and node.binding is Binding.PARA):
                problems.append(
                    f"fusion node {node.label()}: Para siblings must be "
                    f"independent but {consumer!r} depends on "
                    f"{producer!r} via {tensor!r}")


#: Node-local rules that read no loop counts.
STRUCTURE_RULES = (_check_levels, _check_chains, _check_sibling_order)
