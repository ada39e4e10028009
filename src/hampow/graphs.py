"""Multipartite graph model, proportional degree statistics, generators, and part reductions.

Vertices are dense integers 0..n-1.  Parts are stored as sorted id tuples and the
part order is semantic: it is the ordered partition that every other module
(termination checks, templates, sequencing) refers to.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import ceil
from typing import IO, Iterable, NamedTuple, Sequence

from .errors import GraphFormatError, GraphValidationError, InfeasibleError


def require_power(r: int) -> None:
    """Raise GraphValidationError unless r is a power the windows are defined for."""
    if r < 2:
        raise GraphValidationError("power parameter r must be at least 2")


@dataclass(frozen=True)
class MultipartiteGraph:
    """A k-partite graph: ordered independent parts plus a symmetric adjacency."""

    parts: tuple[tuple[int, ...], ...]
    adj: tuple[frozenset[int], ...]
    name: str | None = None

    def __post_init__(self):
        self.validate()

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def k(self) -> int:
        return len(self.parts)

    @cached_property
    def part_index(self) -> tuple[int, ...]:
        """part_index[v] is the index of the part containing v."""
        idx = [-1] * self.n
        for i, part in enumerate(self.parts):
            for v in part:
                idx[v] = i
        return tuple(idx)

    @cached_property
    def adj_mask(self) -> tuple[int, ...]:
        """adj_mask[v] has bit u set exactly when u is adjacent to v."""
        pow2 = [1 << u for u in range(self.n)]
        return tuple(sum(map(pow2.__getitem__, nb)) for nb in self.adj)

    @cached_property
    def part_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(p) for p in self.parts)

    def part_of(self, v: int) -> int:
        return self.part_index[v]

    def edges(self) -> list[tuple[int, int]]:
        """Canonical edge list: each pair sorted ascending, list sorted lexicographically."""
        return sorted((min(u, v), max(u, v)) for u in range(self.n) for v in self.adj[u] if u < v)

    def validate(self) -> None:
        """Reject parts that are unsorted, overlap, leave a vertex uncovered or
        name an id outside 0..n-1, and adjacency with an id outside 0..n-1, a
        self-loop, a one-sided edge or an edge inside a part.

        The checks run set-wise first.  Only a graph that fails them is scanned
        part by part and then edge by edge, so the error names the first
        violation in that order.  Every construction runs them, symmetry
        included, except `from_edges` and `load_graph`: an adjacency built from
        an edge list holds each edge both ways, so they skip the symmetry scan.
        """
        if not self._passes_set_checks(known_symmetric=False):
            self._scan_for_violation()

    @classmethod
    def _from_symmetric(
        cls,
        parts: tuple[tuple[int, ...], ...],
        adj: tuple[frozenset[int], ...],
        name: str | None,
    ) -> "MultipartiteGraph":
        """The graph `cls(parts, adj, name)` builds, for an `adj` symmetric by
        construction: every check of `validate` runs but the per-edge
        symmetry scan, which could not fail."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "parts", parts)
        object.__setattr__(graph, "adj", adj)
        object.__setattr__(graph, "name", name)
        if not graph._passes_set_checks(known_symmetric=True):
            graph._scan_for_violation()
        return graph

    def _passes_set_checks(self, known_symmetric: bool) -> bool:
        """True only if the pair-by-pair scan would accept the graph; a
        `known_symmetric` adjacency is not checked edge by edge for its other side.
        A TypeError, from an id that is not an int, leaves the scan to raise
        whatever it raises."""
        n = self.n
        ids = frozenset(range(n))
        try:
            flat = list(chain.from_iterable(self.parts))
            if not (
                all(list(part) == sorted(part) for part in self.parts)
                and set(map(type, flat)) <= {int}
                and len(flat) == n
                and ids == set(flat)
            ):
                return False
            adj = self.adj
            own = [self.part_sets[i] for i in self.part_index]
            for u, nb in enumerate(adj):
                # u lies in its own part, so this also rules out a self-loop
                if not (ids.issuperset(nb) and own[u].isdisjoint(nb)):
                    return False
                if not known_symmetric:
                    for v in nb:
                        if u not in adj[v]:
                            return False
        except TypeError:
            return False
        return True

    def _scan_for_violation(self) -> None:
        """Raise for the first violation, part by part and then edge by edge."""
        n = self.n
        seen: set[int] = set()
        for part in self.parts:
            if list(part) != sorted(part):
                raise GraphValidationError("parts must be stored as sorted id lists")
            for v in part:
                if not 0 <= v < n:
                    raise GraphValidationError(f"vertex id {v} out of range 0..{n - 1}")
                if v in seen:
                    raise GraphValidationError(f"vertex {v} appears in more than one part")
                seen.add(v)
        if len(seen) != n:
            missing = next(v for v in range(n) if v not in seen)
            raise GraphValidationError(f"vertex {missing} is not covered by any part")
        part_of = [-1] * n
        for i, part in enumerate(self.parts):
            for v in part:
                part_of[v] = i
        for u in range(n):
            for v in self.adj[u]:
                if not 0 <= v < n:
                    raise GraphValidationError(f"edge ({u},{v}) references a dangling vertex id")
                if v == u:
                    raise GraphValidationError(f"self-loop at vertex {u}")
                if u not in self.adj[v]:
                    raise GraphValidationError(f"adjacency not symmetric on ({u},{v})")
                if part_of[u] == part_of[v]:
                    raise GraphValidationError(
                        f"edge inside part: ({u},{v}) both in part {part_of[u]}"
                    )

    @classmethod
    def from_edges(
        cls,
        parts: Sequence[Sequence[int]],
        edges: Iterable[Sequence[int]],
        name: str | None = None,
    ) -> "MultipartiteGraph":
        """Build from int ids and int pairs; `load_graph` checks a document's
        types before it gets here.

        Ids are range-checked once, over the finished adjacency: an edge end
        outside 0..n-1 either fails to index the adjacency list or is left in
        its partner's set.  Only then are the edges scanned in order, to name
        the first dangling one.  Each edge is added both ways, so the graph
        checks skip the symmetry scan; every other check of `validate` runs.
        """
        norm_parts = tuple(tuple(sorted(p)) for p in parts)
        n = sum(map(len, norm_parts))
        edges = edges if isinstance(edges, (list, tuple)) else list(edges)
        adj = _adjacency(n, edges)
        if adj is None or not frozenset(range(n)).issuperset(chain.from_iterable(adj)):
            adj = _checked_adjacency(n, edges)
        return cls._from_symmetric(norm_parts, tuple(map(frozenset, adj)), name)

    def with_parts(self, order: Sequence[int]) -> "MultipartiteGraph":
        """Same graph with its parts permuted into the given order."""
        if sorted(order) != list(range(self.k)):
            raise GraphValidationError("part order must be a permutation of 0..k-1")
        return replace(self, parts=tuple(self.parts[i] for i in order))

    def to_json_dict(self) -> dict:
        doc: dict = {
            "k": self.k,
            "parts": [list(p) for p in self.parts],
            "edges": [list(e) for e in self.edges()],
        }
        if self.name is not None:
            doc["name"] = self.name
        return doc


def _adjacency(n: int, edges: Iterable[Sequence[int]]) -> list[set[int]] | None:
    """The adjacency sets of `edges`, or None when an edge is not a pair of
    list indices below n.  Negative ids index from the end: callers rule them
    out."""
    adj: list[set[int]] = [set() for _ in range(n)]
    try:
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
    except (IndexError, TypeError, ValueError):
        return None
    return adj


def _checked_adjacency(n: int, edges: Iterable[Sequence[int]]) -> list[set[int]]:
    """The adjacency sets of `edges`, scanned in order: raises for the first
    edge with an end outside 0..n-1."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphValidationError(f"edge ({u},{v}) references a dangling vertex id")
        adj[u].add(v)
        adj[v].add(u)
    return adj


def save_graph(graph: MultipartiteGraph) -> str:
    """Serialize to the canonical JSON format (bit-exact: sorted edges, fixed key order)."""
    return json.dumps(graph.to_json_dict(), separators=(",", ":"))


def load_graph(source: bytes | str | IO, fmt: str = "json") -> MultipartiteGraph:
    """Parse and validate a graph from a byte stream / string in the declared format.

    Every type, range and structure check of the document is made, and each
    failure keeps its message; `from_edges` and `validate` do the graph checks.
    The adjacency holds each edge both ways, so, as in `from_edges`, those
    checks skip the symmetry scan.  Bytes that are not UTF-8 are a
    GraphFormatError.
    """
    if fmt != "json":
        raise GraphFormatError(f"unknown graph format tag {fmt!r}")
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"graph document is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    try:
        k = doc["k"]
        parts = doc["parts"]
        edges = doc["edges"]
    except KeyError as exc:
        raise GraphFormatError(f"missing required field {exc}") from exc
    name = doc.get("name")
    # `type(...) is int` rejects `true` and `1.0`; JSON yields no other int type
    if type(k) is not int:
        raise GraphFormatError("'k' must be an int")
    if not _int_rows(parts):
        raise GraphFormatError("'parts' must be an array of arrays of ints")
    # JSON text holds a boolean only where it spells `true` or `false`, and a
    # negative number only after a `-`.  Without those, building the adjacency
    # checks the edges by itself: any other non-int id, a row that is not a
    # pair, or an id of n or more stops the build.  Otherwise, or if the build
    # stops, the edges are scanned in full, in the order of the messages.
    adj = None
    if type(edges) is list and not ("-" in source or "true" in source or "false" in source):
        adj = _adjacency(sum(map(len, parts)), edges)
    if adj is None and not (_int_rows(edges) and set(map(len, edges)) <= {2}):
        raise GraphFormatError("'edges' must be an array of [int, int] pairs")
    if "name" in doc and type(name) is not str:
        raise GraphFormatError("'name' must be a string")
    if k != len(parts):
        raise GraphValidationError(f"declared k={k} but {len(parts)} parts given")
    if adj is None:
        return MultipartiteGraph.from_edges(parts, edges, name)
    norm_parts = tuple(tuple(sorted(p)) for p in parts)
    return MultipartiteGraph._from_symmetric(norm_parts, tuple(map(frozenset, adj)), name)


def _int_rows(value) -> bool:
    """`value` is a list of lists of ints; the type sets keep the scan out of
    the interpreter loop, which matters for large edge lists."""
    return (
        type(value) is list
        and set(map(type, value)) <= {list}
        and set(map(type, chain.from_iterable(value))) <= {int}
    )


@dataclass(frozen=True)
class DegreeProfile:
    """Minimum proportional degrees per ordered part pair, exact rationals."""

    delta_ij: tuple[tuple[Fraction | None, ...], ...]
    delta_p: Fraction

    def __post_init__(self):
        entries = [d for row in self.delta_ij for d in row if d is not None]
        if entries and (self.delta_p != min(entries) or not all(0 <= d <= 1 for d in entries)):
            raise GraphValidationError("inconsistent degree profile")


def degree_profile(graph: MultipartiteGraph) -> DegreeProfile:
    """Exact proportional minimum degree of every ordered part pair, and their minimum."""
    if graph.k < 2:
        raise GraphValidationError("degree profile needs at least two parts")
    for i, part in enumerate(graph.parts):
        if not part:
            raise GraphValidationError(f"part {i} is empty")
    rows: list[tuple[Fraction | None, ...]] = []
    overall: Fraction | None = None
    for i in range(graph.k):
        row: list[Fraction | None] = []
        for j in range(graph.k):
            if i == j:
                row.append(None)
                continue
            target = graph.part_sets[j]
            worst = min(len(graph.adj[v] & target) for v in graph.parts[i])
            d = Fraction(worst, len(target))
            row.append(d)
            overall = d if overall is None else min(overall, d)
        rows.append(tuple(row))
    assert overall is not None
    return DegreeProfile(tuple(rows), overall)


@dataclass(frozen=True)
class Config:
    """Slack constants, seed and retry budget shared by the randomized routines."""

    r: int
    gamma: Fraction
    sigma: Fraction
    beta: Fraction
    nu: Fraction
    seed: int = 0
    retry_limit: int = 200

    def __post_init__(self):
        require_power(self.r)
        if not (0 < self.beta < self.sigma < self.gamma <= Fraction(1, self.r)):
            raise GraphValidationError("constants must satisfy 0 < beta < sigma < gamma <= 1/r")
        if self.retry_limit < 1:
            raise GraphValidationError("retry_limit must be at least 1")

    @classmethod
    def default(cls, r: int, seed: int = 0, **overrides) -> "Config":
        """Desk-scale defaults; sigma is kept below 1/(2r(r+1)) so the trim index stays <= r."""
        require_power(r)  # before 1/(2r) divides by zero at r = 0
        sigma = Fraction(1, 2 * r * (r + 1) + 1)
        base = dict(
            r=r,
            gamma=Fraction(1, 2 * r),
            sigma=sigma,
            beta=sigma / 8,
            nu=sigma,
            seed=seed,
        )
        base.update(overrides)
        return cls(**base)

    def floor_m(self, n: int) -> int:
        """Integer stand-in for beta*n; floored at 1 so every group stays nonempty."""
        return max(1, ceil(self.beta * n))

    def rng(self, label: str) -> random.Random:
        """Deterministic per-purpose stream derived from the seed."""
        return random.Random(f"{self.seed}:{label}")


def gen_random(
    k: int, sizes: Sequence[int], target_delta: Fraction | float, seed: int
) -> MultipartiteGraph:
    """Independent cross-part edges with the given probability; deterministic per seed.

    The realized degree profile may deviate from the target; callers recheck via
    degree_profile.
    """
    if k != len(sizes):
        raise GraphValidationError(f"k={k} but {len(sizes)} sizes given")
    if not 0 <= target_delta <= 1:
        raise GraphValidationError("target_delta must lie in [0,1]")
    parts = _parts_from_sizes(sizes)
    rng = random.Random(seed)
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            for u in parts[i]:
                for v in parts[j]:
                    if rng.random() < target_delta:
                        edges.append((u, v))
    return MultipartiteGraph.from_edges(parts, edges)


def gen_extremal(k: int, sizes: Sequence[int], r: int) -> MultipartiteGraph:
    """Complete k-partite graph minus all edges inside a planted oversized independent set.

    The planted set takes floor(|V_i|/r)+1 vertices from each part, so its size
    exceeds floor(n/r) and the graph has no spanning power-of-a-cycle.
    """
    if k != len(sizes):
        raise GraphValidationError(f"k={k} but {len(sizes)} sizes given")
    if r < 2:
        raise GraphValidationError("r must be at least 2")
    parts = _parts_from_sizes(sizes)
    planted: set[int] = set()
    for part in parts:
        planted.update(part[: len(part) // r + 1])
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            for u in parts[i]:
                for v in parts[j]:
                    if u in planted and v in planted:
                        continue
                    edges.append((u, v))
    return MultipartiteGraph.from_edges(parts, edges)


def _parts_from_sizes(sizes: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    if any(s < 0 for s in sizes):
        raise GraphValidationError("part sizes must be nonnegative")
    parts = []
    next_id = 0
    for s in sizes:
        parts.append(tuple(range(next_id, next_id + s)))
        next_id += s
    return tuple(parts)


def balanced_sizes(n: int, k: int) -> list[int]:
    """Split n into k nearly equal descending sizes."""
    base, extra = divmod(n, k)
    return [base + 1] * extra + [base] * (k - extra)


class ReduceResult(NamedTuple):
    graph: MultipartiteGraph
    part_map: tuple[int, ...]


def reduce_parts(
    graph: MultipartiteGraph, r: int, tiny: Fraction | None = None
) -> ReduceResult:
    """Merge and split parts until r <= k' <= 2r-1 with no part below the tiny threshold.

    Merging takes the two smallest parts while their combined size is at most n/r
    (deleting the cross edges between them).  A part smaller than tiny*n is then
    dissolved greedily into the largest-remaining-capacity parts, subject to
    |V_i| <= n/r throughout.  Only deletions occur, so any spanning power-cycle of
    the output is one of the input.  Returns the graph (parts reordered by
    descending size) and the vertex-to-new-part mapping.  When nothing is merged
    or split and the parts already stand in that order, the input graph itself
    is returned, with its own `part_index` as the mapping.
    """
    n = graph.n
    for i, part in enumerate(graph.parts):
        if r * len(part) > n:
            raise GraphValidationError(f"part {i} has size {len(part)} > n/r")
    if tiny is None:
        tiny = Fraction(1, 2 * r) / (2 * r)  # gamma/(2r) at the default gamma

    groups: list[list[int]] = [list(p) for p in graph.parts]

    # Merge phase: smallest pair first.
    while len(groups) > 1:
        order = sorted(range(len(groups)), key=lambda g: (len(groups[g]), g))
        a, b = order[0], order[1]
        if r * (len(groups[a]) + len(groups[b])) > n:
            break
        keep, gone = min(a, b), max(a, b)
        groups[keep].extend(groups[gone])
        del groups[gone]

    # Split phase: dissolve tiny parts, smallest first, into largest remaining capacity.
    while True:
        tiny_idx = [g for g in range(len(groups)) if len(groups[g]) < tiny * n]
        if not tiny_idx:
            break
        g = min(tiny_idx, key=lambda t: (len(groups[t]), t))
        victims = groups.pop(g)
        capacity = {h: (n - r * len(groups[h])) // r for h in range(len(groups))}
        if sum(capacity.values()) < len(victims):
            raise InfeasibleError(
                f"infeasible split: part of size {len(victims)} cannot be dissolved "
                f"while keeping every part at most n/r"
            )
        for v in victims:
            h = max(capacity, key=lambda t: (capacity[t], -t))
            groups[h].append(v)
            capacity[h] -= 1

    if not (r <= len(groups) <= 2 * r - 1):
        raise InfeasibleError(
            f"reduction produced k'={len(groups)} outside [{r}, {2 * r - 1}]"
        )

    groups.sort(key=lambda g: (-len(g), min(g)))
    new_parts = tuple(tuple(sorted(g)) for g in groups)
    if new_parts == graph.parts:
        return ReduceResult(graph, graph.part_index)
    part_map = [-1] * n
    for idx, g in enumerate(groups):
        for v in g:
            part_map[v] = idx
    new_adj = tuple(
        frozenset(u for u in graph.adj[v] if part_map[u] != part_map[v]) for v in range(n)
    )
    reduced = MultipartiteGraph(new_parts, new_adj, graph.name)
    return ReduceResult(reduced, tuple(part_map))


def induced_subgraph(
    graph: MultipartiteGraph, parts: Sequence[Iterable[int]]
) -> tuple[MultipartiteGraph, tuple[int, ...]]:
    """Subgraph induced by the given ordered vertex sets, relabeled to 0..m-1.

    Returns the subgraph and old_ids, where old_ids[new] is the original id.
    """
    old_ids: list[int] = []
    new_parts: list[tuple[int, ...]] = []
    for part in parts:
        chunk = sorted(part)
        start = len(old_ids)
        old_ids.extend(chunk)
        new_parts.append(tuple(range(start, start + len(chunk))))
    rev = {old: new for new, old in enumerate(old_ids)}
    if len(rev) != len(old_ids):
        raise GraphValidationError("induced parts overlap")
    # Filtering keeps each neighbourhood's iteration order, and that fixes the
    # new set's: once ids outrun a set's hash table, its order depends on the
    # insertion order, and an intersection would insert in another.
    keep, relabel = rev.__contains__, rev.__getitem__
    adj = tuple(
        frozenset(map(relabel, filter(keep, graph.adj[old]))) for old in old_ids
    )
    return MultipartiteGraph(tuple(new_parts), adj), tuple(old_ids)
