"""Exact counting of connecting walks between terminated walks, and an exact
search for one whose vertices are distinct.

The walk count is one layered dynamic program over the last r-1 chosen
vertices; no lower-bound constants are involved.  Each layer carries the
number of walks that end in each state, in the order the states are first
reached, and the last layer keeps the states that splice before the
right-hand walk: `paths.is_walk` holds on the state followed by P2's first
r-1 vertices, the seam test the oracle's closing check also makes.
`oracle._window_fit` applies the same rule to each pick of the connector
search.  Only `hampow connect` counts walks.

The connector search builds no table.  P1 ends in the sets' order, so step t
of a connector lies in set t mod r, and `oracle.window_paths`, the exact
search that also lays the trim path, the bridges, the cover cliques and the
anchor, lays one distinct vertex per step.  Each step's cell is first cut,
back from P2, to the vertices that fit P2's seam and have a neighbour in the
next step's cell.  The cut drops no vertex a connector can use and the search
is exact, so one that ends empty proves that no connecting walk is a path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import GraphValidationError, SearchExhaustedError, VerificationError
from .graphs import Config, MultipartiteGraph
from .oracle import window_paths
from .paths import final_respects, initial_respects, is_walk

NO_CONNECTOR = "no vertex-distinct connector exists"


# Default connecting length from the construction: r * (2r - 2).
def default_connector_length(r: int) -> int:
    return r * (2 * r - 2)


State = tuple[int, ...]


@dataclass(frozen=True)
class WalkDPTable:
    """Layered reachability: layers[t] holds the last r-1 vertices of each legal
    t-step extension of P1, in the order they are first reached; `final` keeps
    the states of the last layer that splice before P2."""

    layers: tuple[tuple[State, ...], ...]
    final: tuple[State, ...]


def _check_terminated(
    graph: MultipartiteGraph,
    seq: Sequence[int],
    part_order: list[int],
    which: str,
) -> None:
    r = len(part_order)
    if len(seq) < r:
        raise GraphValidationError(f"{which} has fewer than r={r} vertices")
    n = graph.n
    stray = next((v for v in seq if not 0 <= v < n), None)
    if stray is not None:
        raise GraphValidationError(f"{which} holds vertex {stray} outside 0..{n - 1}")
    if not is_walk(graph, seq, r):
        raise GraphValidationError(f"{which} is not a power-walk")
    sets = [graph.part_sets[i] for i in part_order]
    if not (initial_respects(seq, sets) and final_respects(seq, sets)):
        raise GraphValidationError(
            f"{which} is ill-terminated with respect to the given set sequence"
        )


def _connector_sets(
    graph: MultipartiteGraph,
    u_sets: Sequence[Iterable[int]],
    p1: Sequence[int],
    p2: Sequence[int],
    ell: int,
    r: int,
) -> list[frozenset[int]]:
    """The sets, frozen, once the length, the sets and both ends are checked:
    r nonempty sets in r distinct parts, and P1 and P2 each beginning and
    ending in the sets' parts, in the sets' order."""
    if ell < 1:
        raise GraphValidationError("connector length must be at least 1")
    u_frozen = [frozenset(u) for u in u_sets]
    if len(u_frozen) != r:
        raise GraphValidationError(f"expected r={r} sets")
    part_order = []
    part_index = graph.part_index
    for i, u in enumerate(u_frozen):
        if not u:
            raise GraphValidationError(f"set {i} is empty")
        owners = {part_index[v] for v in u}
        if len(owners) != 1:
            raise GraphValidationError(f"set {i} must lie inside a single part")
        part_order.append(owners.pop())
    if len(set(part_order)) != r:
        raise GraphValidationError("the sets must lie in r distinct parts")
    _check_terminated(graph, p1, part_order, "P1")
    _check_terminated(graph, p2, part_order, "P2")
    return u_frozen


def count_connecting_walks(
    graph: MultipartiteGraph,
    u_sets: Sequence[Iterable[int]],
    p1: Sequence[int],
    p2: Sequence[int],
    ell: int,
    r: int,
) -> tuple[int, WalkDPTable]:
    """Exact number of length-ell walks Q inside the union of the given sets
    such that p1 Q p2 is a power-walk, and the table of their layers.
    Repeated vertices are allowed in Q."""
    u_frozen = _connector_sets(graph, u_sets, p1, p2, ell, r)

    # The iteration order of these sets fixes each layer's order.
    pool = sorted(frozenset().union(*u_frozen))
    pool_set = frozenset(pool)
    in_pool = {v: graph.adj[v] & pool_set for v in pool}
    window = r - 1
    seed: State = tuple(p1[-window:])
    for v in seed:  # a state holds pool vertices and those of P1's tail only
        if v not in in_pool:
            in_pool[v] = graph.adj[v] & pool_set
    counts: dict[State, int] = {seed: 1}
    layers: list[tuple[State, ...]] = [(seed,)]
    for _ in range(ell):
        nxt: dict[State, int] = {}
        get = nxt.get
        for state, cnt in counts.items():
            tail = state[1:]
            for w in frozenset.intersection(*map(in_pool.__getitem__, state)):
                key = tail + (w,)
                nxt[key] = get(key, 0) + cnt
        counts = nxt
        layers.append(tuple(counts))

    head = tuple(p2[:window])
    final = tuple(state for state in counts if is_walk(graph, state + head, r))
    total = sum(map(counts.__getitem__, final))
    return total, WalkDPTable(layers=tuple(layers), final=final)


def find_connector(
    graph: MultipartiteGraph,
    u_sets: Sequence[Iterable[int]],
    p1: Sequence[int],
    p2: Sequence[int],
    ell: int,
    cfg: Config,
) -> tuple[int, ...]:
    """A length-ell walk Q of distinct vertices inside the given sets, off P1
    and P2, such that p1 Q p2 is a power-walk: the first that `window_paths`
    finds through the live cells, in an order seeded by `cfg.rng("connector")`,
    within the default search budget.

    P1 ends in the sets' order, so step t of Q lies in set t mod r.  The live
    cell of step t keeps the vertices of that set that are adjacent to every
    vertex of P2 within distance r-1 of the step and that have a neighbour in
    the next live cell: a sound prune, and exact co-reachability at r = 2.  A
    set with fewer vertices than the steps that land in it, or an empty search,
    raises SearchExhaustedError: no connector exists.  A spent budget raises
    BudgetExhaustedError.
    """
    r = cfg.r
    u_frozen = _connector_sets(graph, u_sets, p1, p2, ell, r)
    adj, head = graph.adj, p2[:r - 1]
    used = {*p1, *p2}
    pools = [u - used for u in u_frozen]
    if any(len(pool) < len(range(i, ell, r)) for i, pool in enumerate(pools)):
        raise SearchExhaustedError(NO_CONNECTOR)
    alive: list[frozenset[int]] = []  # the live cells, last step first
    for t in reversed(range(ell)):
        cell = pools[t % r]
        for u in head[:max(0, r - ell + t)]:  # P2's vertices within distance r-1
            cell &= adj[u]
        if alive:
            cell = frozenset(v for v in cell if not adj[v].isdisjoint(alive[-1]))
        alive.append(cell)
    found = next(window_paths(graph, alive[::-1], used, r, before=p1, after=p2,
                              rng=cfg.rng("connector")), None)
    if found is None:
        raise SearchExhaustedError(NO_CONNECTOR)
    # the search checked each pick against both ends: check the seams again
    if not is_walk(graph, (*p1[-(r - 1):], *found, *head), r):
        raise VerificationError("connector does not splice between its ends")
    return found
