"""Exact counting of connecting walks between terminated walks, and an exact
search for one whose vertices are distinct.

The walk table is dynamic programming over the last r-1 chosen vertices; no
lower-bound constants are involved.  Each state's successors are found once per
table, and each layer lists, in first-seen order, the successors of the
previous layer's states.  A layer depends only on the ordered layer before it,
so once an ordered layer repeats an earlier one, the layers cycle with that
period up to the connecting length, and the table stores each repeat as the
same dict.  The last layer keeps the states that splice before the right-hand
walk under `paths.splice_ok`, the one seam check the package uses.  The exact
count is propagated over the stored successor lists only when it is read.  The
search runs on `oracle.DepthFirst`: it walks back from the final states through
the table's layers, trying each state's predecessors in a seeded random order.
Every state of a layer is reachable from P1, so the search backtracks only
where a vertex would repeat, and one that ends empty proves that no connecting
walk is a path.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

from .errors import GraphValidationError, SearchExhaustedError, VerificationError
from .graphs import Config, MultipartiteGraph
from .oracle import DepthFirst, SearchBudget
from .paths import VertexSeq, final_respects, initial_respects, is_walk, splice_ok

# Default connecting length from the construction: r * (2r - 2).
def default_connector_length(r: int) -> int:
    return r * (2 * r - 2)


State = tuple[int, ...]


@dataclass(frozen=True)
class WalkDPTable:
    """Layered reachability: layers[t] maps the last r-1 vertices of each legal
    t-step extension of P1, in the order they are first reached, to the state's
    index in `successors`; the final layer keeps the states of layers[ell] that
    splice before P2.  Layers that repeat an earlier ordered layer are the same
    dict objects."""

    ell: int
    layers: tuple[dict[State, int], ...]
    final: dict[State, int]
    # successors[i]: the ids one step after state i; a state first reached in
    # layers[ell] has no entry
    successors: tuple[list[int], ...]

    @cached_property
    def total(self) -> int:
        """The exact number of connecting walks, repeated vertices allowed."""
        counts: dict[int, int] = {0: 1}
        for _ in range(self.ell):
            nxt: dict[int, int] = {}
            get = nxt.get
            for i, cnt in counts.items():
                for j in self.successors[i]:
                    nxt[j] = get(j, 0) + cnt
            counts = nxt
        return sum(counts[i] for i in self.final.values())

    @cached_property
    def first_vertices(self) -> tuple[list[int], ...]:
        """first_vertices[t] lists, ascending, the vertices that begin a state of
        layers[t] (t < ell): the only vertices a step back to layer t can add."""
        return tuple(sorted({state[0] for state in layer}) for layer in self.layers[:-1])


def _check_terminated(
    graph: MultipartiteGraph,
    seq: VertexSeq,
    part_order: Sequence[int],
    which: str,
) -> None:
    r = len(part_order)
    if len(seq) < r:
        raise GraphValidationError(f"{which} has fewer than r={r} vertices")
    stray = next((v for v in seq.vertices if not 0 <= v < graph.n), None)
    if stray is not None:
        raise GraphValidationError(f"{which} holds vertex {stray} outside 0..{graph.n - 1}")
    if not is_walk(graph, seq):
        raise GraphValidationError(f"{which} is not a power-walk")
    parts = [graph.parts[i] for i in part_order]
    head = initial_respects(seq.vertices, parts)
    tail = final_respects(seq.vertices, parts)
    if not (head and tail):
        raise GraphValidationError(
            f"{which} is ill-terminated with respect to the given set sequence"
        )


def build_walk_table(
    graph: MultipartiteGraph,
    u_sets: Sequence[Iterable[int]],
    p1: VertexSeq,
    p2: VertexSeq,
    ell: int,
) -> WalkDPTable:
    """The layers of the length-ell walks Q inside the union of the given sets
    such that p1 Q p2 is a power-walk.  Repeated vertices are allowed in Q."""
    r = p1.r
    if ell < 1:
        raise GraphValidationError("connector length must be at least 1")
    u_frozen = [frozenset(u) for u in u_sets]
    if len(u_frozen) != r:
        raise GraphValidationError(f"expected r={r} sets")
    part_order = []
    for i, u in enumerate(u_frozen):
        owners = {graph.part_of(v) for v in u}
        if len(owners) != 1:
            raise GraphValidationError(f"set {i} must lie inside a single part")
        part_order.append(owners.pop())
    if len(set(part_order)) != r:
        raise GraphValidationError("the sets must lie in r distinct parts")
    _check_terminated(graph, p1, part_order, "P1")
    _check_terminated(graph, p2, part_order, "P2")

    # The iteration order of these sets fixes each layer's order, hence the
    # seeded search order (tests/pinned_kernels.json): build them the same way.
    pool = sorted(frozenset().union(*u_frozen))
    pool_set = frozenset(pool)
    in_pool = {v: graph.adj[v] & pool_set for v in pool}
    window = r - 1
    seed: State = p1.vertices[-window:]
    for v in seed:  # a state holds pool vertices and those of P1's tail only
        if v not in in_pool:
            in_pool[v] = graph.adj[v] & pool_set
    # The same states recur from layer to layer, so each gets an integer id and
    # its successors' ids are found once.  A state's successors share its tail:
    # ids[tail] maps each vertex w that follows it to the id of tail + (w,).
    # A layer is first built as the tuple of its ids, which also keys the
    # layers already seen.
    states: list[State] = [seed]
    ids: dict[State, dict[int, int]] = {seed[:-1]: {seed[-1]: 0}}
    successors: list[list[int]] = []
    layers: list[dict[State, int]] = [{seed: 0}]
    order: tuple[int, ...] = (0,)
    seen: dict[tuple[int, ...], int] = {order: 0}
    for t in range(1, ell + 1):
        # the states first reached in layers[t - 1] are the ones not expanded yet
        for state in states[len(successors):]:
            tail = state[1:]
            following = ids.setdefault(tail, {})
            after = frozenset.intersection(*map(in_pool.__getitem__, state))
            for w in after.difference(following):
                following[w] = len(states)
                states.append(tail + (w,))
            successors.append(list(map(following.__getitem__, after)))
        order = tuple(dict.fromkeys(chain.from_iterable(map(successors.__getitem__, order))))
        first = seen.setdefault(order, t)
        if first < t:  # layers[t:] repeat layers[first:t]
            period = t - first
            layers.extend(layers[first + (s - first) % period] for s in range(t, ell + 1))
            break
        layers.append(dict(zip(map(states.__getitem__, order), order)))

    head = p2.vertices[:window]
    final = {state: i for state, i in layers[-1].items() if splice_ok(graph, state, head, r)}
    return WalkDPTable(ell=ell, layers=tuple(layers), final=final, successors=tuple(successors))


def count_connecting_walks(
    graph: MultipartiteGraph,
    u_sets: Sequence[Iterable[int]],
    p1: VertexSeq,
    p2: VertexSeq,
    ell: int,
) -> tuple[int, WalkDPTable]:
    """Exact number of length-ell walks Q inside the union of the given sets such
    that p1 Q p2 is a power-walk, and the table `build_walk_table` builds."""
    table = build_walk_table(graph, u_sets, p1, p2, ell)
    return table.total, table


def find_connector(
    graph: MultipartiteGraph,
    u_sets: Sequence[Iterable[int]],
    p1: VertexSeq,
    p2: VertexSeq,
    ell: int,
    cfg: Config,
) -> VertexSeq:
    """`search_connector` on the table that `build_walk_table` builds; the
    exact count is not computed unless the search proves that none exists."""
    return search_connector(graph, build_walk_table(graph, u_sets, p1, p2, ell), p1, p2, cfg)


def search_connector(
    graph: MultipartiteGraph,
    table: WalkDPTable,
    p1: VertexSeq,
    p2: VertexSeq,
    cfg: Config,
) -> VertexSeq:
    """A connecting walk of `table` whose vertices are distinct: a
    depth-first search back from the final layer, trying its choices in an
    order seeded by `cfg.rng("connector")`, within the default `SearchBudget`.

    The walk takes its vertices from the pools, which the caller keeps clear of
    p1, p2 and whatever else the connector must avoid.  An empty search raises
    SearchExhaustedError, quoting the exact walk count; a spent budget raises
    BudgetExhaustedError.
    """
    ell, r, rng = table.ell, p1.r, cfg.rng("connector")
    # seq[i] is a state of layers[ell - i].  A state of layer t holds walk
    # vertices t-r+2..t (those below 1 are P1's); its predecessor adds vertex
    # t-r+1, adjacent to the state's vertices: only later ones can repeat it.
    later_at = [0] * (ell + 1)  # later_at[d]: the last vertices of seq[:d]

    def children(seq: list[State]) -> list[State] | None:
        d = len(seq)
        if d == 0:
            options = list(table.final)
        else:
            later_at[d] = later_at[d - 1] | 1 << seq[-1][-1]
            if d == ell:
                return None
            t, cur = ell - d + 1, seq[-1]
            nb, tail, layer = graph.adj[cur[-1]], cur[:-1], table.layers[t - 1]
            later = later_at[d - 1] if t >= r else 0
            options = [prev for u in table.first_vertices[t - 1]
                       if u in nb and not later >> u & 1 and (prev := (u,) + tail) in layer]
        rng.shuffle(options)
        return options

    for found in DepthFirst(children, SearchBudget().node_limit):
        q = VertexSeq(tuple(state[-1] for state in reversed(found)), r)
        if not is_walk(graph, p1.concat(q).concat(p2)):
            raise VerificationError("connector does not splice between its ends")
        return q
    try:
        counted = f"exact count {table.total} connecting walks"
    except ValueError:  # more digits than int-to-str conversion allows
        counted = f"an exact count of more than {sys.get_int_max_str_digits()} digits"
    raise SearchExhaustedError(f"no vertex-distinct connector exists ({counted})")
