"""Walk/path formalism for powers of paths and cycles in multipartite graphs.

A sequence is a power-walk when every r consecutive vertices induce a clique;
equivalently, every two entries at distance at most r-1 are adjacent.  Sequences
shorter than r are vacuously walks and the empty sequence is a path, which keeps
the concatenation algebra total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import GraphValidationError, ImproperOrderError
from .graphs import MultipartiteGraph, require_power

# 0/1 indicator of the parts a subsequence meets.
TypeVector = tuple[int, ...]


@dataclass(frozen=True)
class VertexSeq:
    """An ordered vertex sequence together with the power parameter it is judged by."""

    vertices: tuple[int, ...]
    r: int

    def __post_init__(self):
        require_power(self.r)

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __getitem__(self, i):
        return self.vertices[i]

    @classmethod
    def of(cls, vertices: Iterable[int], r: int) -> "VertexSeq":
        return cls(tuple(vertices), r)

    def concat(self, other: "VertexSeq | Sequence[int]") -> "VertexSeq":
        tail = other.vertices if isinstance(other, VertexSeq) else tuple(other)
        return VertexSeq(self.vertices + tail, self.r)

    def to_json(self) -> list[int]:
        return list(self.vertices)


def _pairs_ok(graph: MultipartiteGraph, vertices: Sequence[int], r: int) -> int | None:
    """Index of the first window violation, or None.  Checks pairs at distance <= r-1."""
    n = len(vertices)
    for t in range(1, n):
        v = vertices[t]
        for d in range(1, min(r - 1, t) + 1):
            if vertices[t - d] not in graph.adj[v]:
                return t
    return None


def is_walk(graph: MultipartiteGraph, seq: VertexSeq) -> bool:
    """Every r consecutive vertices form a clique (vacuously true below length r)."""
    if len(seq) < seq.r:
        return True
    return _pairs_ok(graph, seq.vertices, seq.r) is None


def is_path(graph: MultipartiteGraph, seq: VertexSeq) -> bool:
    return len(set(seq.vertices)) == len(seq) and is_walk(graph, seq)


def initial_respects(seq: Sequence[int], parts_seq: Sequence[Iterable[int]]) -> bool:
    """First r vertices traverse the given r disjoint sets in order."""
    sets = [set(p) for p in parts_seq]
    if len(seq) < len(sets):
        return False
    return all(seq[i] in sets[i] for i in range(len(sets)))


def final_respects(seq: Sequence[int], parts_seq: Sequence[Iterable[int]]) -> bool:
    """Last r vertices traverse the given r disjoint sets in order."""
    sets = [set(p) for p in parts_seq]
    if len(seq) < len(sets):
        return False
    offset = len(seq) - len(sets)
    return all(seq[offset + i] in sets[i] for i in range(len(sets)))


def is_properly_terminated(
    graph: MultipartiteGraph,
    seq: VertexSeq,
    parts_seq: Sequence[Iterable[int]] | None = None,
) -> bool:
    """Initial and final r vertices both respect the given r-set sequence.

    Defaults to the first r parts of the graph's ordered partition.
    """
    r = seq.r
    if len(seq) < r:
        raise GraphValidationError(f"sequence of length {len(seq)} is shorter than r={r}")
    if parts_seq is None:
        parts_seq = graph.parts[:r]
    if len(parts_seq) != r:
        raise GraphValidationError(f"termination check needs exactly r={r} sets")
    return initial_respects(seq.vertices, parts_seq) and final_respects(seq.vertices, parts_seq)


def seq_type(graph: MultipartiteGraph, vertices: Sequence[int]) -> TypeVector:
    """0/1 vector over the graph's parts recording which parts the vertices meet."""
    z = [0] * graph.k
    for v in vertices:
        z[graph.part_of(v)] = 1
    return tuple(z)


@dataclass(frozen=True)
class ProperDecomposition:
    """Breakpoints and typed subsequences of a properly ordered sequence."""

    breakpoints: tuple[int, ...]
    subsequences: tuple[tuple[tuple[int, ...], TypeVector], ...]

    @property
    def q(self) -> int:
        return len(self.subsequences)

    def types(self) -> tuple[TypeVector, ...]:
        return tuple(z for _, z in self.subsequences)


def decompose(graph: MultipartiteGraph, seq: VertexSeq) -> ProperDecomposition:
    """Greedy decomposition into maximal part-increasing runs of length r or r+1.

    The constructions only ever produce runs of exactly r or r+1 vertices, so a
    maximal run outside that range fails rather than searching for alternative
    breakpoints.  Raises ImproperOrderError carrying the first offending
    breakpoint.
    """
    r = seq.r
    vs = seq.vertices
    breakpoints = [0]
    subsequences = []
    start = 0
    while start < len(vs):
        end = start + 1
        while end < len(vs) and graph.part_of(vs[end]) > graph.part_of(vs[end - 1]):
            end += 1
        run = end - start
        if not r <= run <= r + 1:
            raise ImproperOrderError(
                f"not properly ordered: run of length {run} at breakpoint {start}", start
            )
        chunk = vs[start:end]
        subsequences.append((chunk, seq_type(graph, chunk)))
        breakpoints.append(end)
        start = end
    return ProperDecomposition(tuple(breakpoints), tuple(subsequences))


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


def verify_ham_power_cycle(graph: MultipartiteGraph, seq: VertexSeq, r: int) -> bool:
    ok, _, _ = verify_ham_power_cycle_report(graph, seq, r)
    return ok


def verify_ham_power_cycle_report(
    graph: MultipartiteGraph, seq: VertexSeq | Sequence[int], r: int
) -> tuple[bool, str, int | None]:
    """Spanning check plus cyclic clique windows; returns (ok, reason, index)."""
    require_power(r)
    vs = tuple(seq.vertices if isinstance(seq, VertexSeq) else seq)
    n = graph.n
    if len(vs) != n or set(vs) != set(range(n)):
        return False, "sequence does not cover every vertex exactly once", None
    for t in range(n):
        for d in range(1, r):
            u, v = vs[t], vs[(t + d) % n]
            if u == v or v not in graph.adj[u]:
                return False, f"cyclic window violation between positions {t} and {(t + d) % n}", t
    return True, "ok", None


def splice_ok(
    graph: MultipartiteGraph, left: Sequence[int], right: Sequence[int], r: int
) -> bool:
    """All cross-seam pairs at distance <= r-1 between a tail and a head are adjacent."""
    la = len(left)
    for b, v in enumerate(right[: r - 1], start=1):
        for a in range(1, r - b + 1):
            if a > la:
                break
            u = left[la - a]
            if u == v or v not in graph.adj[u]:
                return False
    return True
