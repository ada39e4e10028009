"""Exhaustive decision procedures used as ground truth: existence of spanning
power-cycles, spanning power-paths between anchor cliques, and the
independence-number necessity pre-filter.

Both oracles run one depth-first search over vertex orderings, on an explicit
stack with bitmask adjacency, so no host size meets a recursion limit.  It
extends a witness between a lead anchor and a closing clique; a cycle is the
path anchored on its own first r-1 vertices.  Pruning order is the
independence pre-filter, then per-part arc capacity, then window and closing
cliques with the most-constrained next vertex.  A `no` is exhaustive; budget
exhaustion is a distinct inconclusive value, never conflated with `no`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import GraphValidationError, VerificationError
from .graphs import MultipartiteGraph, require_power
from .paths import VertexSeq, is_path, is_walk, splice_ok, verify_ham_power_cycle

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


def _anchored_search(
    graph: MultipartiteGraph,
    r: int,
    budget: SearchBudget,
    lead: Sequence[int],
    closing: Sequence[int] | None,
    head: Sequence[int],
) -> OracleResult:
    """Search for a witness over every vertex outside `lead` and `closing`,
    starting with `head`, such that lead + witness + closing is a power-walk.
    With `closing=None` the witness closes on its own first r-1 vertices.

    Each node of the search tree is one tick, the root included; the search
    stops at the first tick past the budget.  A node fails the part-capacity
    prune before its children are listed, and children are tried fewest
    unplaced neighbours first, ties by vertex id."""
    adj = graph.adj_mask
    part_of = graph.part_index
    limit = budget.node_limit
    seq = list(lead) + list(head)
    base = len(lead)
    close = seq if closing is None else closing
    taken = set(lead) | set(closing or ())
    free = [v for v in range(graph.n) if v not in taken]
    m = len(free)
    free_mask = 0
    remaining = [0] * graph.k
    for v in free:
        free_mask |= 1 << v
        remaining[part_of[v]] += 1
    used = 0
    for v in head:
        used |= 1 << v
        remaining[part_of[v]] -= 1

    nodes = 0
    stack: list[Iterator[int]] = []  # the untried children of each open node
    while True:
        nodes += 1
        if nodes > limit:
            return OracleResult(BUDGET_EXCEEDED, None, nodes)
        depth = len(seq) - base
        children = None
        if depth == m:
            if splice_ok(graph, seq, close, r):
                return OracleResult(YES, VertexSeq(tuple(seq[base:]), r), nodes)
        else:
            # same-part vertices sit >= r apart, so the `slots` positions left
            # take at most ceil(slots/r) more from any one part
            slots = m - depth
            cap = -(-slots // r)
            if not any(c > cap for c in remaining):
                mask = free_mask & ~used
                for u in seq[-(r - 1):]:
                    mask &= adj[u]
                # the last r-1 positions also precede the closing clique
                for b in range(r - slots):
                    mask &= adj[close[b]]
                children = []
                while mask:
                    low = mask & -mask
                    children.append(low.bit_length() - 1)
                    mask ^= low
                children.sort(key=lambda v: (adj[v] & ~used).bit_count())
        if children:
            stack.append(iter(children))
        elif stack:
            v = seq.pop()
            used ^= 1 << v
            remaining[part_of[v]] += 1
        else:
            return OracleResult(NO, None, nodes)
        while (v := next(stack[-1], None)) is None:
            stack.pop()
            if not stack:
                return OracleResult(NO, None, nodes)
            u = seq.pop()
            used ^= 1 << u
            remaining[part_of[u]] += 1
        seq.append(v)
        used |= 1 << v
        remaining[part_of[v]] -= 1


def ham_power_cycle_exists(
    graph: MultipartiteGraph, r: int, budget: SearchBudget | None = None
) -> OracleResult:
    """Exhaustive search for a spanning power-cycle; `yes` carries a witness
    that re-verifies, `no` is exhaustive, budget exhaustion is inconclusive."""
    require_power(r)
    if graph.n == 0:
        return OracleResult(YES, VertexSeq((), r), 0)
    if not independence_necessity(graph, r).passed:
        return OracleResult(NO, None, 0)
    res = _anchored_search(graph, r, budget or SearchBudget(), (), None, (0,))
    if res.witness is not None and not verify_ham_power_cycle(graph, res.witness, r):
        raise VerificationError("oracle cycle witness fails verification")
    return res


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
    require_power(r)
    ka, kb = _ordered_clique(graph, r, clique_a), _ordered_clique(graph, r, clique_b)
    if set(ka) != set(kb) and set(ka) & set(kb):
        raise GraphValidationError("anchor cliques must be equal or disjoint")
    res = _anchored_search(graph, r, budget or SearchBudget(), ka, kb, ())
    if res.witness is not None:
        w = res.witness
        if not is_path(graph, w) or set(w.vertices) != set(range(graph.n)) - set(ka) - set(kb):
            raise VerificationError("oracle path witness does not span the host minus the anchors")
        if not is_walk(graph, VertexSeq(ka + w.vertices + kb, r)):
            raise VerificationError("oracle path witness does not splice between its anchors")
    return res


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
