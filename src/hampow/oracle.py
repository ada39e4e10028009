"""Exhaustive decision procedures used as ground truth: existence of spanning
power-cycles, spanning power-paths between anchor cliques, and the
independence-number necessity pre-filter; `DepthFirst`, the budgeted
depth-first engine every exact search in the package runs on; and
`window_paths`, the search on it that lays one vertex per cell as a
power-path: the trim path, the bridges between groups, each clique of the
path cover, the anchor clique and every connector.

Both oracles extend a witness over vertex orderings, with bitmask adjacency,
between a lead anchor and a closing clique; a cycle is the path anchored on
its own first r-1 vertices.  Pruning order is the independence pre-filter,
then per-part arc capacity, then window and closing cliques with the
most-constrained next vertex.  The closing test at full depth and the check
that an anchor is a clique call `paths.is_walk`, on the seam and on the
anchor.  A `no` is exhaustive; budget exhaustion is a distinct inconclusive
value, never conflated with `no`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BudgetExhaustedError, GraphValidationError, VerificationError
from .graphs import MultipartiteGraph, require_power, shuffle
from .paths import is_path, is_walk, verify_ham_power_cycle

YES = "yes"
NO = "no"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int = 2_000_000

    def __post_init__(self):
        if self.node_limit < 1:
            raise GraphValidationError("node_limit must be at least 1")


class DepthFirst:
    """The one depth-first search engine, on an explicit stack.

    `children(prefix)` returns the ordered choices for the next position, or
    None when `prefix` is complete; the prefix is one list, cut and extended
    in place.  Iterating yields each complete prefix, as a tuple, in search
    order and lazily.  `nodes` counts the nodes entered, the root included;
    the node past `limit` raises `BudgetExhaustedError`, never a no.
    """

    def __init__(self, children: Callable[[list], Iterable | None], limit: int, prefix=()):
        self.children, self.limit, self.prefix = children, limit, list(prefix)
        self.nodes = 0

    def __iter__(self) -> Iterator[tuple]:
        children, limit, prefix = self.children, self.limit, self.prefix
        levels: list[Iterator] = []  # the untried choices at each open depth
        while True:
            self.nodes += 1
            if self.nodes > limit:
                raise BudgetExhaustedError(f"search budget of {limit} nodes exhausted")
            options = children(prefix)
            if options is None:
                yield tuple(prefix)
            levels.append(iter(options or ()))
            while (choice := next(levels[-1], None)) is None:
                levels.pop()
                if not levels:
                    return
                prefix.pop()
            prefix.append(choice)


def _window_fit(
    adj: Sequence[frozenset[int]],
    cell_sequence: Sequence[frozenset[int]],
    p: int,
    out: Sequence[int],
    used: set[int],
    r: int,
    after: Sequence[int] = (),
) -> frozenset[int]:
    """The candidates for pick p of a window path, where `out` is the last r-1
    vertices of `before` followed by the picks so far: cell p off `used` and
    `out`, adjacent to the last r-1 vertices of `out` and to the vertices of
    `after` that lie within distance r-1 of the pick."""
    fit = cell_sequence[p] - used
    # pick p sits len(cell_sequence) - p positions before after[0]; the end is
    # clamped because a negative slice end would select vertices
    for u in chain(out[-(r - 1):], after[:max(0, r - len(cell_sequence) + p)]):
        fit &= adj[u]
    return fit.difference(out)


def window_paths(
    graph: MultipartiteGraph,
    cell_sequence: Sequence[frozenset[int]],
    used: set[int],
    r: int,
    before: Sequence[int] = (),
    after: Sequence[int] = (),
    rng: random.Random | None = None,
) -> Iterator[tuple[int, ...]]:
    """Every pick list of one distinct vertex per cell, in order, off `used`,
    such that `before`, the picks and `after` read as one power-path: lazily,
    in search order, within the default search budget.

    The caller keeps `before` and `after` in `used`.  Each pick's candidates
    are found by set intersection (`_window_fit`) and tried in ascending
    order, shuffled by `rng` when one is given, so a seeded rng gives the same
    paths in the same order; without it the paths come in lexicographic
    order.  The search is exact: when it ends, no other pick list exists.
    """
    adj = graph.adj
    lead = before[-(r - 1):]

    def children(out: list[int]) -> Iterable[int] | None:
        p = len(out) - len(lead)
        if p == len(cell_sequence):
            return None
        options = sorted(_window_fit(adj, cell_sequence, p, out, used, r, after))
        if rng is not None:
            shuffle(rng, options)
        return options

    return (out[len(lead):] for out in DepthFirst(children, SearchBudget().node_limit, lead))


@dataclass(frozen=True)
class OracleResult:
    answer: str
    witness: tuple[int, ...] | None
    nodes: int

    def to_json_dict(self) -> dict:
        return {
            "answer": self.answer,
            "witness": self.witness,
            "nodes_expanded": self.nodes,
        }


def independence_necessity(graph: MultipartiteGraph, r: int) -> int | None:
    """The first part larger than n/r, or None.  Such a part makes a spanning
    power-cycle impossible (the power of a cycle has independence number
    floor(n/r))."""
    return next((i for i, part in enumerate(graph.parts) if r * len(part) > graph.n), None)


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

    A node fails the part-capacity prune before its children are listed, and
    children are tried fewest unplaced neighbours first, ties by vertex id."""
    adj = graph.adj_mask
    base = len(lead)
    taken = set(lead) | set(closing or ())
    free_in_part = [sum(1 << v for v in part if v not in taken) for part in graph.parts]
    free_mask = sum(free_in_part)
    full = (1 << graph.n) - 1
    m = free_mask.bit_count()
    start = len(head)
    used_at = [0] * (m + 1)  # used_at[d]: the witness's first d vertices
    used_at[start] = sum(1 << v for v in head)

    def children(seq: list[int]) -> list[int] | None:
        depth = len(seq) - base
        if depth > start:
            used_at[depth] = used_at[depth - 1] | 1 << seq[-1]
        used = used_at[depth]
        close = seq if closing is None else closing
        if depth == m:
            return None if is_walk(graph, (*seq[-(r - 1):], *close[:r - 1]), r) else []
        unused = full & ~used  # every mask below lies inside `full`
        # same-part vertices sit >= r apart, so the `slots` positions left
        # take at most ceil(slots/r) more from any one part; below the root,
        # where the parent passed, that can newly fail only where r | slots
        slots = m - depth
        if depth == start or slots % r == 0:
            cap = -(-slots // r)
            if any((free & unused).bit_count() > cap for free in free_in_part):
                return []
        mask = free_mask & unused
        for u in seq[-(r - 1):]:
            mask &= adj[u]
        # the last r-1 positions also precede the closing clique
        for b in range(r - slots):
            mask &= adj[close[b]]
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        out.sort(key=lambda v: (adj[v] & unused).bit_count())
        return out

    search = DepthFirst(children, budget.node_limit, (*lead, *head))
    try:
        for found in search:
            return OracleResult(YES, found[base:], search.nodes)
    except BudgetExhaustedError:
        return OracleResult(BUDGET_EXCEEDED, None, search.nodes)
    return OracleResult(NO, None, search.nodes)


def ham_power_cycle_exists(
    graph: MultipartiteGraph, r: int, budget: SearchBudget | None = None
) -> OracleResult:
    """Exhaustive search for a spanning power-cycle; `yes` carries a witness
    that re-verifies, `no` is exhaustive, budget exhaustion is inconclusive."""
    require_power(r)
    if graph.n == 0:
        return OracleResult(YES, (), 0)
    if independence_necessity(graph, r) is not None:
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
        if not is_path(graph, w, r) or set(w) != set(range(graph.n)) - set(ka) - set(kb):
            raise VerificationError("oracle path witness does not span the host minus the anchors")
        if not is_walk(graph, ka + w + kb, r):
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
    if not is_walk(graph, vs, r):
        raise GraphValidationError("anchor is not a clique")
    return tuple(vs)
