"""Exhaustive decision procedures used as ground truth: existence of spanning
power-cycles, spanning power-paths between anchor cliques, and the
independence-number necessity pre-filter.

Backtracking over vertex orderings with bitmask adjacency; pruning order is the
independence pre-filter, then per-part arc capacity, then window cliques with
the most-constrained next vertex.  A `no` is exhaustive; budget exhaustion is a
distinct inconclusive value, never conflated with `no`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import GraphValidationError
from .graphs import MultipartiteGraph
from .paths import VertexSeq, is_path, is_walk, verify_ham_power_cycle

YES = "yes"
NO = "no"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int = 2_000_000

    def __post_init__(self):
        if self.node_limit < 1:
            raise GraphValidationError("node_limit must be at least 1")


@dataclass(frozen=True)
class OracleResult:
    answer: str
    witness: VertexSeq | None
    nodes: int

    def to_json_dict(self) -> dict:
        return {
            "answer": self.answer,
            "witness": self.witness.to_json() if self.witness else None,
            "nodes_expanded": self.nodes,
        }


class IndependenceCheck(NamedTuple):
    passed: bool
    part: int | None


def independence_necessity(graph: MultipartiteGraph, r: int) -> IndependenceCheck:
    """A part larger than n/r makes a spanning power-cycle impossible (the
    power of a cycle has independence number floor(n/r))."""
    for i, part in enumerate(graph.parts):
        if r * len(part) > graph.n:
            return IndependenceCheck(False, i)
    return IndependenceCheck(True, None)


class _Search:
    """Shared bitmask backtracking state for the two oracles."""

    def __init__(self, graph: MultipartiteGraph, r: int, budget: SearchBudget):
        self.graph = graph
        self.r = r
        self.budget = budget
        self.nodes = 0
        self.exhausted = False
        n = graph.n
        self.adj_mask = [0] * n
        for v in range(n):
            m = 0
            for u in graph.adj[v]:
                m |= 1 << u
            self.adj_mask[v] = m

    def tick(self) -> bool:
        self.nodes += 1
        if self.nodes > self.budget.node_limit:
            self.exhausted = True
        return self.exhausted

    def part_prune(self, remaining: Sequence[int], slots: int) -> bool:
        """Same-part vertices need distance >= r in the remaining arc of `slots`
        consecutive positions, so each part fits at most ceil(slots/r) more."""
        cap = -(-slots // self.r)
        return any(c > cap for c in remaining)

    def candidates(self, window: Sequence[int], used: int, allowed: int) -> list[int]:
        mask = allowed & ~used
        for u in window:
            mask &= self.adj_mask[u]
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        out.sort(key=lambda v: (self.adj_mask[v] & ~used).bit_count())
        return out


def ham_power_cycle_exists(
    graph: MultipartiteGraph, r: int, budget: SearchBudget | None = None
) -> OracleResult:
    """Exhaustive search for a spanning power-cycle; `yes` carries a witness
    that re-verifies, `no` is exhaustive, budget exhaustion is inconclusive."""
    budget = budget or SearchBudget()
    n = graph.n
    if n == 0:
        return OracleResult(YES, VertexSeq((), r), 0)
    check = independence_necessity(graph, r)
    if not check.passed:
        return OracleResult(NO, None, 0)

    search = _Search(graph, r, budget)
    all_mask = (1 << n) - 1
    remaining = [len(p) for p in graph.parts]
    order: list[int] = [0]
    remaining[graph.part_of(0)] -= 1

    def extend(used: int) -> bool:
        if search.tick():
            return False
        depth = len(order)
        if depth == n:
            return _wrap_ok(graph, order, r)
        if search.part_prune(remaining, n - depth):
            return False
        window = order[-(r - 1):]
        allowed = all_mask
        # positions within r-1 of the seam must also close with the head
        overhang = depth - (n - r + 1)
        if overhang >= 0:
            for i in range(overhang + 1):
                allowed &= search.adj_mask[order[i]]
        for v in search.candidates(window, used, allowed):
            p = graph.part_of(v)
            order.append(v)
            remaining[p] -= 1
            if extend(used | (1 << v)):
                return True
            order.pop()
            remaining[p] += 1
            if search.exhausted:
                return False
        return False

    found = extend(1)
    if found:
        witness = VertexSeq(tuple(order), r)
        assert verify_ham_power_cycle(graph, witness, r)
        return OracleResult(YES, witness, search.nodes)
    if search.exhausted:
        return OracleResult(BUDGET_EXCEEDED, None, search.nodes)
    return OracleResult(NO, None, search.nodes)


def _wrap_ok(graph: MultipartiteGraph, order: Sequence[int], r: int) -> bool:
    n = len(order)
    for i in range(r - 1):
        for j in range(max(i + 1, n - (r - 1) + i), n):
            if order[j] not in graph.adj[order[i]]:
                return False
    return True


def ham_power_path_between(
    graph: MultipartiteGraph,
    r: int,
    clique_a: Iterable[int],
    clique_b: Iterable[int],
    budget: SearchBudget | None = None,
) -> OracleResult:
    """Spanning power-path of the graph minus the two anchor cliques, splicing
    between them: anchor-a, path, anchor-b read in part order is a power-walk.

    The anchors must be transversal r-cliques, equal or disjoint.
    """
    budget = budget or SearchBudget()
    ka, kb = _ordered_clique(graph, r, clique_a), _ordered_clique(graph, r, clique_b)
    if set(ka) != set(kb) and set(ka) & set(kb):
        raise GraphValidationError("anchor cliques must be equal or disjoint")

    removed = set(ka) | set(kb)
    free = [v for v in range(graph.n) if v not in removed]
    m = len(free)
    search = _Search(graph, r, budget)
    remaining = [0] * graph.k
    for v in free:
        remaining[graph.part_of(v)] += 1
    free_mask = 0
    for v in free:
        free_mask |= 1 << v

    order: list[int] = []

    def tail_ok() -> bool:
        combined = list(ka) + order
        la = len(combined)
        for b, v in enumerate(kb, start=1):
            for a in range(1, r - b + 1):
                if a <= la and combined[la - a] not in graph.adj[v]:
                    return False
        return True

    def extend(used: int) -> bool:
        if search.tick():
            return False
        depth = len(order)
        if depth == m:
            return tail_ok()
        if search.part_prune(remaining, m - depth):
            return False
        window = (list(ka) + order)[-(r - 1):]
        for v in search.candidates(window, used, free_mask):
            p = graph.part_of(v)
            order.append(v)
            remaining[p] -= 1
            if extend(used | (1 << v)):
                return True
            order.pop()
            remaining[p] += 1
            if search.exhausted:
                return False
        return False

    found = extend(0)
    if found:
        witness = VertexSeq(tuple(order), r)
        assert is_path(graph, witness) and set(witness.vertices) == set(free)
        assert is_walk(graph, VertexSeq(ka + witness.vertices + kb, r))
        return OracleResult(YES, witness, search.nodes)
    if search.exhausted:
        return OracleResult(BUDGET_EXCEEDED, None, search.nodes)
    return OracleResult(NO, None, search.nodes)


def _ordered_clique(
    graph: MultipartiteGraph, r: int, clique: Iterable[int]
) -> tuple[int, ...]:
    vs = sorted(set(clique), key=graph.part_of)
    if len(vs) != r:
        raise GraphValidationError(f"anchor must have r={r} vertices")
    parts = [graph.part_of(v) for v in vs]
    if len(set(parts)) != r:
        raise GraphValidationError("anchor must be transversal: one vertex per part")
    for i in range(r):
        for j in range(i + 1, r):
            if vs[j] not in graph.adj[vs[i]]:
                raise GraphValidationError("anchor is not a clique")
    return tuple(vs)
