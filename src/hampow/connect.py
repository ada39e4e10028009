"""Exact counting and sampling of connecting walks between terminated walks.

The count is exact dynamic programming over the last r-1 chosen vertices; no
lower-bound constants are involved.  Each state's successors are found once per
count and reused on every layer.  The last layer keeps the states that splice
before the right-hand walk under `paths.splice_ok`, the one seam check the
package uses.  Sampling back-traces the DP table with probability proportional
to the counts, so every connecting walk is equally likely: each step walks back
through the predecessors of the current state that the table's layers hold,
tried in ascending order of the vertex they drop.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import GraphValidationError, SearchExhaustedError, VerificationError
from .graphs import Config, MultipartiteGraph
from .paths import VertexSeq, final_respects, initial_respects, is_walk, splice_ok

# Default connecting length from the construction: r * (2r - 2).
def default_connector_length(r: int) -> int:
    return r * (2 * r - 2)


State = tuple[int, ...]


@dataclass(frozen=True)
class WalkDPTable:
    """Layered exact counts: layers[t] maps the last r-1 vertices of a legal
    t-step extension to the number of such extensions; the final layer is
    filtered by the right-hand terminal, so its total is the connecting count."""

    ell: int
    layers: tuple[dict[State, int], ...]
    final: dict[State, int]

    @property
    def total(self) -> int:
        return sum(self.final.values())

    @cached_property
    def first_vertices(self) -> tuple[list[int], ...]:
        """first_vertices[t] lists, ascending, the vertices that begin a state of
        layers[t] (t < ell): the only vertices a step back to layer t can drop."""
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


def count_connecting_walks(
    graph: MultipartiteGraph,
    u_sets: Sequence[Iterable[int]],
    p1: VertexSeq,
    p2: VertexSeq,
    ell: int,
) -> tuple[int, WalkDPTable]:
    """Exact number of length-ell walks Q inside the union of the given sets such
    that p1 Q p2 is a power-walk.  Repeated vertices are allowed in Q."""
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
    # seeded samples (tests/pinned_kernels.json): build them the same way.
    pool = sorted(frozenset().union(*u_frozen))
    pool_set = frozenset(pool)
    in_pool = {v: graph.adj[v] & pool_set for v in pool}
    for v in set(p1.vertices) | set(p2.vertices):
        in_pool.setdefault(v, graph.adj[v] & pool_set)
    window = r - 1
    seed: State = p1.vertices[-window:]
    layers: list[dict[State, int]] = [{seed: 1}]
    # The same states recur from layer to layer, so each gets an integer id and
    # its successors' ids are found once; a layer is counted over ids and only
    # then keyed by the states themselves, in the same order.
    states: list[State] = [seed]
    ids: dict[State, int] = {seed: 0}
    successors: list[list[int] | None] = [None]
    counts: dict[int, int] = {0: 1}
    for _ in range(ell):
        nxt: dict[int, int] = {}
        get = nxt.get
        for i, cnt in counts.items():
            succ = successors[i]
            if succ is None:
                state = states[i]
                tail = state[1:]
                succ = successors[i] = []
                for w in frozenset.intersection(*(in_pool[u] for u in state)):
                    key = tail + (w,)
                    j = ids.get(key)
                    if j is None:
                        j = ids[key] = len(states)
                        states.append(key)
                        successors.append(None)
                    succ.append(j)
            for j in succ:
                nxt[j] = get(j, 0) + cnt
        layers.append(dict(zip(map(states.__getitem__, nxt), nxt.values())))
        counts = nxt

    head = p2.vertices[:window]
    final: dict[State, int] = {}
    for state, cnt in layers[-1].items():
        if splice_ok(graph, state, head, r):
            final[state] = cnt
    table = WalkDPTable(ell=ell, layers=tuple(layers), final=final)
    return table.total, table


def find_connector(
    graph: MultipartiteGraph,
    u_sets: Sequence[Iterable[int]],
    p1: VertexSeq,
    p2: VertexSeq,
    ell: int,
    forbidden: Iterable[int],
    cfg: Config,
) -> VertexSeq:
    """Sample connecting walks uniformly until one is a path avoiding `forbidden`.

    Raises SearchExhaustedError (quoting the exact walk count) when the retry
    budget runs out or no connecting walk exists at all.
    """
    _, table = count_connecting_walks(graph, u_sets, p1, p2, ell)
    return sample_connector(graph, table, p1, p2, forbidden, cfg)


def sample_connector(
    graph: MultipartiteGraph,
    table: WalkDPTable,
    p1: VertexSeq,
    p2: VertexSeq,
    forbidden: Iterable[int],
    cfg: Config,
) -> VertexSeq:
    """`find_connector` on the table that counted the walks from p1 to p2."""
    total = table.total
    if total == 0:
        raise SearchExhaustedError("no connecting walks exist (exact count 0)")
    bad = set(forbidden)
    rng = cfg.rng("connector")
    r = p1.r
    for _ in range(cfg.retry_limit):
        walk = _sample_walk(graph, table, rng)
        if len(set(walk)) != len(walk) or any(v in bad for v in walk):
            continue
        q = VertexSeq(walk, r)
        if not is_walk(graph, p1.concat(q).concat(p2)):
            raise VerificationError("sampled connector does not splice between its ends")
        return q
    raise SearchExhaustedError(
        f"no path connector found in {cfg.retry_limit} samples "
        f"({total} connecting walks exist)"
    )


def _sample_walk(graph: MultipartiteGraph, table: WalkDPTable, rng) -> State:
    """Back-trace the DP table proportionally to the counts."""
    state = _weighted_choice(rng, list(table.final), table.final.values())
    out = [state]
    for t in range(table.ell - 1, 0, -1):
        layer = table.layers[t]
        cur = out[-1]
        nb = graph.adj[cur[-1]]
        tail = cur[:-1]
        preds, counts = [], []
        for u in table.first_vertices[t]:
            # cur's last vertex had to be adjacent to all of prev; the shared
            # overlap is already certified by cur being reachable, only the
            # dropped u needs checking.
            if u in nb:
                prev = (u,) + tail
                cnt = layer.get(prev)
                if cnt:
                    preds.append(prev)
                    counts.append(cnt)
        out.append(_weighted_choice(rng, preds, counts))
    return tuple(state[-1] for state in reversed(out))


def _weighted_choice(rng, keys: Sequence[State], counts: Iterable[int]) -> State:
    """keys[i] with probability counts[i] / sum(counts), from one rng.randrange."""
    bounds = list(accumulate(counts))
    if not bounds:
        raise AssertionError("weights were empty")
    return keys[bisect_right(bounds, rng.randrange(bounds[-1]))]

