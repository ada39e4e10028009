"""Walk/path formalism for powers of paths and cycles in multipartite graphs,
and the one statement of a power-path's rules.

A sequence is a tuple of vertex ids, judged by the run's power r.  It is a
power-walk when every r consecutive vertices induce a clique; equivalently,
every two entries at distance at most r-1 are adjacent.  Sequences shorter
than r are vacuously walks and the empty sequence is a path.  A seam between
two walks of at least r-1 vertices each holds when `is_walk` holds on the
last r-1 vertices of the left walk followed by the first r-1 of the right
one; a vertex met on both sides fails, since no vertex is its own neighbour.
The oracle's closing test, the walk count's last layer, the oracle's anchor
check and the connector's end checks all call the predicates here.

The window checks run as one C-level pass per distance d: the neighbourhoods
of the vertices, shifted by d, are matched against the vertices with
`frozenset.__contains__`.  `is_walk` is that pass alone, so an id that is not
a vertex raises from it.  The cycle verifier scans position by position when
its pass fails, or raises on such an id, and the scan alone names the first
violation; so the kernel never changes what the verifier reports.
"""

from __future__ import annotations

from operator import contains, itemgetter
from typing import Container, Sequence

from .errors import GraphValidationError, ImproperOrderError
from .graphs import MultipartiteGraph, require_power

# 0/1 indicator of the parts a subsequence meets.
TypeVector = tuple[int, ...]


def is_walk(graph: MultipartiteGraph, vertices: Sequence[int], r: int) -> bool:
    """Every r consecutive vertices form a clique (vacuously true below length r)."""
    if len(vertices) < r:
        return True
    nbs = itemgetter(*vertices)(graph.adj)  # r >= 2 ids: a tuple of sets
    return all(all(map(frozenset.__contains__, nbs[d:], vertices)) for d in range(1, r))


def is_path(graph: MultipartiteGraph, vertices: Sequence[int], r: int) -> bool:
    return len(set(vertices)) == len(vertices) and is_walk(graph, vertices, r)


def initial_respects(seq: Sequence[int], parts_seq: Sequence[Container[int]]) -> bool:
    """The first vertices traverse the given disjoint sets in order, one each."""
    return len(seq) >= len(parts_seq) and all(map(contains, parts_seq, seq))


def final_respects(seq: Sequence[int], parts_seq: Sequence[Container[int]]) -> bool:
    """The last vertices traverse the given disjoint sets in order, one each."""
    return len(seq) >= len(parts_seq) and all(
        map(contains, parts_seq, seq[len(seq) - len(parts_seq):]))


def is_properly_terminated(graph: MultipartiteGraph, vertices: Sequence[int], r: int) -> bool:
    """Initial and final r vertices both traverse the graph's first r parts
    in order.  Raises GraphValidationError for a sequence shorter than r or a
    host with fewer than r parts."""
    if len(vertices) < r:
        raise GraphValidationError(f"sequence of length {len(vertices)} is shorter than r={r}")
    if graph.k < r:
        raise GraphValidationError(f"termination check needs r={r} parts, the host has {graph.k}")
    parts_seq = graph.part_sets[:r]
    return initial_respects(vertices, parts_seq) and final_respects(vertices, parts_seq)


def seq_type(graph: MultipartiteGraph, vertices: Sequence[int]) -> TypeVector:
    """0/1 vector over the graph's parts recording which parts the vertices meet."""
    z = [0] * graph.k
    for v in vertices:
        z[graph.part_of(v)] = 1
    return tuple(z)


def decompose(graph: MultipartiteGraph, vertices: Sequence[int], r: int) -> tuple[TypeVector, ...]:
    """The types of the greedy decomposition into maximal part-increasing runs
    of length r or r+1.

    The constructions only ever produce runs of exactly r or r+1 vertices, so a
    maximal run outside that range fails rather than searching for alternative
    breakpoints.  Raises ImproperOrderError naming the first offending
    breakpoint.
    """
    part_of = graph.part_of
    types = []
    start = 0
    while start < len(vertices):
        end = start + 1
        while end < len(vertices) and part_of(vertices[end]) > part_of(vertices[end - 1]):
            end += 1
        run = end - start
        if not r <= run <= r + 1:
            raise ImproperOrderError(
                f"not properly ordered: run of length {run} at breakpoint {start}")
        types.append(seq_type(graph, vertices[start:end]))
        start = end
    return tuple(types)


def is_valid_pair(z: TypeVector, z2: TypeVector, r: int) -> bool:
    """Whether two consecutive run types keep every same-part pair at distance >= r.

    For every shared index i the vertices after i in the first run plus those up
    to i in the second must number at least r.
    """
    if len(z) != len(z2):
        raise GraphValidationError("type vectors must have equal length")
    k = len(z)
    for i in range(k):
        if z[i] == 1 and z2[i] == 1:
            if sum(z[i + 1 :]) + sum(z2[: i + 1]) < r:
                return False
    return True


def verify_ham_power_cycle(graph: MultipartiteGraph, seq: Sequence[int], r: int) -> bool:
    ok, _, _ = verify_ham_power_cycle_report(graph, seq, r)
    return ok


def verify_ham_power_cycle_report(
    graph: MultipartiteGraph, seq: Sequence[int], r: int
) -> tuple[bool, str, int | None]:
    """Spanning check plus cyclic clique windows; returns (ok, reason, index)."""
    require_power(r)
    vs = tuple(seq)
    n = graph.n
    if len(vs) != n or set(vs) != set(range(n)):
        return False, "sequence does not cover every vertex exactly once", None
    if n > 1:  # `itemgetter` of one id gives its set, not a tuple
        try:
            # vs[t] against its successor at distance d, cyclically; where
            # d >= n a vertex meets itself, which no validated adjacency holds
            nbs = itemgetter(*vs)(graph.adj)
            for d in range(1, r):
                if not all(map(frozenset.__contains__, nbs, vs[d:] + vs[:d])):
                    break
            else:
                return True, "ok", None
        except TypeError:
            pass  # an id such as 1.0: the scan meets it in its own order
    for t in range(n):
        for d in range(1, r):
            u, v = vs[t], vs[(t + d) % n]
            if u == v or v not in graph.adj[u]:
                return False, f"cyclic window violation between positions {t} and {(t + d) % n}", t
    return True, "ok", None

