"""Monte Carlo Tree Search over tiling factors (§6).

The mapper assigns tiling factors loop by loop: each MCTS tree level fixes
one named factor, and a leaf (all factors decided) is a complete mapping
that is evaluated with the TileFlow model.  Rewards feed back through UCB
(upper confidence bound) statistics, exactly the scheme of Fig. 7c.

The search is deliberately small and dependency-free; it treats the
evaluation callback as a black box returning a *cost* (lower is better),
so the same machinery tunes analytical mappings, baseline models, and
tests.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs
from ..obs import events
from .factors import FactorSpace

Cost = float
Evaluator = Callable[[Dict[str, int]], Cost]

#: Cost assigned when the evaluator raises (malformed candidate).
FAILURE_COST = float("inf")


class _Node:
    """One MCTS node: a prefix of factor assignments."""

    __slots__ = ("depth", "children", "visits", "total_reward", "best_cost")

    def __init__(self, depth: int):
        self.depth = depth
        self.children: Dict[int, "_Node"] = {}
        self.visits = 0
        self.total_reward = 0.0
        self.best_cost = FAILURE_COST

    def ucb_child(self, num_choices: int, exploration: float,
                  rng: random.Random) -> int:
        """Index of the child to descend into (UCB1 with random ties)."""
        children = self.children
        unvisited = [i for i in range(num_choices) if i not in children
                     or children[i].visits == 0]
        if unvisited:
            return rng.choice(unvisited)
        log_visits = math.log(max(2, self.visits))
        best = -math.inf
        ties: List[int] = []
        for i in range(num_choices):
            child = children[i]
            score = (child.total_reward / child.visits
                     + exploration * math.sqrt(log_visits / child.visits))
            if score > best:
                best, ties = score, [i]
            elif score == best:
                ties.append(i)
        return rng.choice(ties)


class MCTSTuner:
    """Tunes a :class:`FactorSpace` against a cost evaluator."""

    def __init__(self, space: FactorSpace, evaluator: Evaluator,
                 exploration: float = 0.7, seed: int = 0):
        self.space = space
        self.evaluator = evaluator
        self.exploration = exploration
        self.rng = random.Random(seed)
        self.root = _Node(depth=0)
        self.best_point: Optional[Dict[str, int]] = None
        self.best_cost: Cost = FAILURE_COST
        self.history: List[Cost] = []
        self._cache: Dict[Tuple[int, ...], Cost] = {}
        #: Number of choices of the factor at each tree depth.
        self._counts = [len(space.choices[name]) for name in space.names]

    # ------------------------------------------------------------------
    def search(self, samples: int) -> Tuple[Optional[Dict[str, int]], Cost]:
        """Run ``samples`` select/rollout/backpropagate steps.

        Returns the best (point, cost) found; ``history`` records the
        best-so-far cost after each sample (the Fig. 9a convergence trace).
        """
        if not self.space.names:
            point: Dict[str, int] = {}
            cost = self._evaluate(())
            self.best_point, self.best_cost = point, cost
            self.history = [cost] * max(1, samples)
            return point, cost
        for i in range(samples):
            with obs.span("mcts.sample", "mapper"):
                cost = self._sample_once()
            self.history.append(self.best_cost)
            if events.is_enabled():
                events.emit("mcts.sample", sample=i,
                            cost=events.jsonable_cost(cost),
                            best_cost=events.jsonable_cost(self.best_cost))
        return self.best_point, self.best_cost

    # ------------------------------------------------------------------
    def _sample_once(self) -> Cost:
        counts = self._counts
        path: List[_Node] = [self.root]
        indices: List[int] = []
        node = self.root
        # Selection/expansion down the decided prefix.
        while node.depth < len(counts):
            idx = node.ucb_child(counts[node.depth], self.exploration,
                                 self.rng)
            child = node.children.get(idx)
            if child is None:
                child = _Node(node.depth + 1)
                node.children[idx] = child
            indices.append(idx)
            path.append(child)
            node = child
            if child.visits == 0:
                break
        # Rollout: random completion of the remaining factors.
        while len(indices) < len(counts):
            indices.append(self.rng.randrange(counts[len(indices)]))
        cost = self._evaluate(tuple(indices))
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_point = self.space.point_at(indices)
        reward = self._reward(cost)
        for visited in path:
            visited.visits += 1
            visited.total_reward += reward
            visited.best_cost = min(visited.best_cost, cost)
        return cost

    def _evaluate(self, indices: Tuple[int, ...]) -> Cost:
        cached = self._cache.get(indices)
        if cached is not None:
            obs.count("mcts.cache_hits")
            return cached
        point = self.space.point_at(indices)
        try:
            cost = float(self.evaluator(point))
        except Exception:
            cost = FAILURE_COST
            obs.count("mcts.failures")
        if cost == FAILURE_COST:
            obs.count("mcts.infeasible")
        self._cache[indices] = cost
        return cost

    def _reward(self, cost: Cost) -> float:
        """Map a cost to (0, 1]; infeasible candidates get 0."""
        if not math.isfinite(cost) or cost <= 0:
            return 0.0
        reference = self.best_cost if math.isfinite(self.best_cost) else cost
        return reference / max(cost, reference)
