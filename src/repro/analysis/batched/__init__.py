"""Batched, array-native analysis kernels.

This package evaluates *cohorts* of factor candidates — sibling points of
one genome's :class:`~repro.mapper.factors.FactorSpace` that differ only
in tiling-factor values — in one vectorized NumPy int64 sweep instead of
one scalar tree walk per candidate.  The contract is byte-identity with
the scalar pipeline: every integer recursion (slice geometry, boundary
recursion walk volumes, coverage products, NumPE/footprint/instances) is
exact int64 arithmetic with an overflow guard that *raises* instead of
wrapping, and the float latency composition replays the scalar
accumulation order operation for operation, so a batched member's cost
equals the scalar cost bit for bit (cross-checked per structure class
against a real scalar evaluation, and oracle/property-tested).

Candidates are grouped into *structure classes*: members whose factor
values emit the same loop skeleton (same loops present, same unit-step
spatial lanes).  Within a class the scalar algorithms take identical
control-flow paths, so they can be re-executed once with ``(K,)`` arrays
in place of scalar loop counts/steps.  Classes that cannot be proven
identical (cross-check mismatch, int64 overflow) fall back to the scalar
path member by member — batching is purely a performance layer.

NumPy is an optional dependency of this package alone; everything else
in the repo stays NumPy-free.

No engine path calls this package: every genome tune prices its points
on its compiled ``GenomePlan``.  It stays, with its tests, only while
the benchmark still wraps ``CohortEvaluator.mcts_hook`` (ROADMAP:
deleted after the next benchmark change).
"""
