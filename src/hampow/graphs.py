"""Multipartite graph model, proportional degree statistics, generators, and part reductions.

Vertices are dense integers 0..n-1.  Parts are stored as sorted id tuples and the
part order is semantic: it is the ordered partition that every other module
(termination checks, templates, sequencing) refers to.
"""

from __future__ import annotations

import gc
import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, combinations, compress, filterfalse, repeat
from math import ceil
from typing import IO, Iterable, Sequence

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
        """Canonical edge list: each pair (u, v) has u < v, and the list is
        sorted lexicographically.  It is `_upper_rows` read row by row, the
        order `save_graph` writes."""
        return [(u, v) for u, row in enumerate(self._upper_rows()) for v in row]

    def _upper_rows(self) -> list[list[int]]:
        """Row u holds the neighbours of u above u, ascending."""
        rows = []
        for u, nb in enumerate(self.adj):
            row = sorted(nb)
            rows.append(row[bisect_right(row, u):])
        return rows

    def validate(self) -> None:
        """Reject parts that are unsorted, overlap, leave a vertex uncovered or
        name an id outside 0..n-1, and adjacency with an id outside 0..n-1, a
        self-loop, a one-sided edge or an edge inside a part.

        Each part and then each neighbourhood is tested set-wise; only the
        first one that fails is scanned id by id, so the error names the first
        violation in that order.  Every construction runs these checks,
        symmetry included, except the builders whose adjacency is symmetric
        by construction, which skip the symmetry test: `from_edges` and
        `load_graph` add each edge both ways, `gen_random` fills both ends of
        each drawn pair, `gen_extremal` gives each part's vertices every
        vertex outside it but the planted pairs, and `reduce_parts` and
        `induced_subgraph` filter a graph's adjacency by a symmetric test.
        `hampow gen --name` output is checked in full.
        """
        self._check(symmetric=False)

    @classmethod
    def _from_symmetric(
        cls,
        parts: tuple[tuple[int, ...], ...],
        adj: tuple[frozenset[int], ...],
        name: str | None,
    ) -> "MultipartiteGraph":
        """The graph `cls(parts, adj, name)` builds, for an `adj` symmetric by
        construction: every check of `validate` runs but the symmetry test,
        which could not fail."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "parts", parts)
        object.__setattr__(graph, "adj", adj)
        object.__setattr__(graph, "name", name)
        graph._check(symmetric=True)
        return graph

    def _check(self, symmetric: bool) -> None:
        """Raise GraphValidationError for the first violation, part by part and
        then vertex by vertex.

        Each part, then each neighbourhood, is tested set-wise.  Only one that
        fails the test, or makes it raise TypeError, is scanned id by id, and
        the scan names its first bad id.  A part's scan also rejects an id that
        is not an int, such as `True`, which fails the test but no other check
        of the scan.  A `symmetric` adjacency is not tested for the other side
        of each edge."""
        n = self.n
        seen: set[int] = set()
        for part in self.parts:
            try:
                ok = (
                    set(map(type, part)) <= {int}
                    and list(part) == sorted(part)
                    and (not part or (0 <= part[0] and part[-1] < n))
                    and len(set(part)) == len(part)
                    and seen.isdisjoint(part)
                )
            except TypeError:
                ok = False
            if ok:
                seen.update(part)
                continue
            if list(part) != sorted(part):
                raise GraphValidationError("parts must be stored as sorted id lists")
            for v in part:
                if not 0 <= v < n:
                    raise GraphValidationError(f"vertex id {v} out of range 0..{n - 1}")
                if v in seen:
                    raise GraphValidationError(f"vertex {v} appears in more than one part")
                if type(v) is not int:
                    raise GraphValidationError(f"vertex id {v!r} is not an int")
                seen.add(v)
        if len(seen) != n:
            missing = next(v for v in range(n) if v not in seen)
            raise GraphValidationError(f"vertex {missing} is not covered by any part")
        adj, part_of = self.adj, self.part_index
        ids = frozenset(range(n))
        own = [self.part_sets[i] for i in part_of]
        for u, nb in enumerate(adj):
            try:
                # u lies in its own part, so this also rules out a self-loop
                ok = ids.issuperset(nb) and own[u].isdisjoint(nb)
                if ok and not symmetric:
                    for v in nb:
                        if u not in adj[v]:
                            ok = False
                            break
            except TypeError:
                ok = False
            if ok:
                continue
            for v in nb:
                if not 0 <= v < n:
                    raise GraphValidationError(f"edge ({u},{v}) references a dangling vertex id")
                if v == u:
                    raise GraphValidationError(f"self-loop at vertex {u}")
                if u not in adj[v]:
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
        the first dangling one; when none is, an end that is not an int
        stopped the build, and that is a TypeError.  Each edge is added both
        ways, so the graph checks skip the symmetry scan; every other check of
        `validate` runs.
        """
        norm_parts = tuple(tuple(sorted(p)) for p in parts)
        n = sum(map(len, norm_parts))
        edges = edges if isinstance(edges, (list, tuple)) else list(edges)
        adj = _adjacency(n, edges)
        if adj is None or not frozenset(range(n)).issuperset(chain.from_iterable(adj)):
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphValidationError(f"edge ({u},{v}) references a dangling vertex id")
            raise TypeError("edge ends must be int vertex ids")
        return cls._from_symmetric(norm_parts, tuple(map(frozenset, adj)), name)


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


def save_graph(graph: MultipartiteGraph) -> str:
    """Serialize to the canonical JSON text, byte-stable for a given graph.

    The text is compact JSON (no spaces) with the keys in the order `k`,
    `parts`, `edges`, then `name` when the graph has one.  `parts` lists each
    part's ids in the graph's part order; `edges` is `graph.edges()`, each
    pair as a 2-array.  The edges are written row by row from `_upper_rows`,
    one joined string per vertex; `parts` and `name` go through `json.dumps`,
    which gives the name its escaping (non-ASCII as `\\uXXXX`).
    """
    dumps = partial(json.dumps, separators=(",", ":"))
    # ids[v] is v as JSON writes an int; looking it up is cheaper than a
    # repr per edge end
    ids = list(map(int.__repr__, range(graph.n)))
    edges = ",".join(
        f"[{ids[u]}," + f"],[{ids[u]},".join(map(ids.__getitem__, row)) + "]"
        for u, row in enumerate(graph._upper_rows())
        if row
    )
    name = "" if graph.name is None else ',"name":' + dumps(graph.name)
    parts = dumps([list(p) for p in graph.parts])
    return f'{{"k":{graph.k},"parts":{parts},"edges":[{edges}]{name}}}'


def load_graph(source: bytes | str | IO) -> MultipartiteGraph:
    """Parse and validate a graph JSON document from a byte stream or a string.

    Every type, range and structure check of the document is made, and each
    failure keeps its message; `from_edges` and `validate` do the graph checks.
    The adjacency holds each edge both ways, so, as in `from_edges`, those
    checks skip the symmetry scan.  Bytes that are not UTF-8, and JSON that
    nests deeper than the decoder recurses or holds an int longer than
    Python's int-to-string limit, are a GraphFormatError.

    The cyclic collector is paused while the document is decoded and the
    graph built, and left as it was found: the decoded document is a tree
    and the graph's sets hold ints, so nothing made there can form a
    reference cycle, and a large host's per-edge lists would otherwise set
    off collection passes that find nothing.
    """
    if hasattr(source, "read"):
        source = source.read()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_graph(source)
    finally:
        if enabled:
            gc.enable()


def _parse_graph(source: bytes | str) -> MultipartiteGraph:
    """`load_graph` of the document's bytes or text."""
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"graph document is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(source)
    except (ValueError, RecursionError) as exc:  # ValueError: also the int digit limit
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
    """The power r and the seed shared by the randomized routines.

    The slack constants are desk-scale functions of r in the order the paper
    needs, 0 < beta < sigma < gamma <= 1/r: gamma stands in for the o(1) of
    the degree threshold, and sigma stays below 1/(2r(r+1)) so the trim
    index is at most r."""

    r: int
    seed: int = 0

    def __post_init__(self):
        require_power(self.r)

    @property
    def gamma(self) -> Fraction:
        return Fraction(1, 2 * self.r)

    @property
    def sigma(self) -> Fraction:
        return Fraction(1, 2 * self.r * (self.r + 1) + 1)

    @property
    def beta(self) -> Fraction:
        return self.sigma / 8

    def floor_m(self, n: int) -> int:
        """Least cell size of a group: the integer stand-in for beta*n, but at
        least 2, since every cell donates a vertex to each of the two seams
        (the connectors into and out of its group) whatever beta*n is."""
        return max(2, ceil(self.beta * n))

    def rng(self, label: str) -> random.Random:
        """Deterministic per-purpose stream derived from the seed."""
        return random.Random(f"{self.seed}:{label}")


def shuffle(rng: random.Random, x: list) -> None:
    """Shuffle `x` in place exactly as `rng.shuffle(x)` does: Fisher-Yates
    from the end, each index drawn by rejection from `getrandbits` of the
    bound's bit length, so the list and the state of `rng` come out the same.
    The draws are inlined, with no Python-level `_randbelow` call per element."""
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(x))):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def gen_random(
    k: int, sizes: Sequence[int], target_delta: Fraction | float, seed: int
) -> MultipartiteGraph:
    """Independent cross-part edges with the given probability; deterministic per seed.

    The seed must be nonnegative: `random.Random` seeds from its absolute
    value, so a negative seed would repeat another seed's host.  One
    `random()` is drawn per cross pair, and the pair is an edge when the draw
    is below `target_delta`.  The draws run over the part pairs i < j in
    ascending order, and within a pair over u in part i, then v in part j,
    both ascending.  The realized degree profile may deviate from the target;
    callers recheck via degree_profile.
    """
    if k != len(sizes):
        raise GraphValidationError(f"k={k} but {len(sizes)} sizes given")
    if not 0 <= target_delta <= 1:
        raise GraphValidationError("target_delta must lie in [0,1]")
    if seed < 0:
        raise GraphValidationError(f"seed must be nonnegative, got {seed}")
    parts = _parts_from_sizes(sizes)
    # random() returns a multiple of 2**-53, so rounding the density up to the
    # next such multiple changes no comparison; that multiple is an exact
    # float, which compares far faster than a Fraction
    threshold = ceil(Fraction(target_delta) * 2**53) / 2**53
    draw = random.Random(seed).random
    # Each part pair's draws form a block whose row a and column c are the
    # hits of u = rows[a] and v = cols[c].  The blocks come in ascending part
    # order, so every set gets its neighbours in ascending order, as
    # `from_edges` adds them from a sorted edge list: a set's iteration order
    # depends on its insertion order, and the searches follow it.
    adj: list[set[int]] = [set() for _ in range(sum(map(len, parts)))]
    for rows, cols in combinations(parts, 2):
        m = len(cols)
        hits = [draw() < threshold for _ in repeat(None, len(rows) * m)]
        for a, u in enumerate(rows):
            adj[u].update(compress(cols, hits[a * m:(a + 1) * m]))
        for c, v in enumerate(cols):
            adj[v].update(compress(rows, hits[c::m]))
    return MultipartiteGraph._from_symmetric(parts, tuple(map(frozenset, adj)), None)


def gen_extremal(k: int, sizes: Sequence[int], r: int) -> MultipartiteGraph:
    """Complete k-partite graph minus all edges inside a planted oversized independent set.

    The planted set takes floor(|V_i|/r)+1 vertices from each part, so its size
    exceeds floor(n/r) and the graph has no spanning power-of-a-cycle.  All
    unplanted vertices of a part share one neighbourhood, and all planted
    ones another.
    """
    if k != len(sizes):
        raise GraphValidationError(f"k={k} but {len(sizes)} sizes given")
    require_power(r)
    parts = _parts_from_sizes(sizes)
    planted: set[int] = set()
    for part in parts:
        planted.update(part[: len(part) // r + 1])
    adj: list[frozenset[int]] = []
    for i, part in enumerate(parts):
        outside = [v for j, other in enumerate(parts) if j != i for v in other]
        # each set filled in ascending order and then frozen, as `from_edges`
        # builds it from the sorted edge list, so it iterates in that order
        full = frozenset(set(outside))
        cut = frozenset(set(filterfalse(planted.__contains__, outside)))
        adj.extend(cut if v in planted else full for v in part)
    return MultipartiteGraph._from_symmetric(parts, tuple(adj), None)


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


def reduce_parts(graph: MultipartiteGraph, r: int) -> MultipartiteGraph:
    """Merge and split parts until r <= k' <= 2r-1 with no part below tiny*n,
    where tiny = gamma/(2r) = 1/(4r^2).  Raises GraphValidationError for an r
    below 2 or a part above n/r, and InfeasibleError when the parts cannot be
    brought within those bounds.

    Merging takes the two smallest parts while their combined size is at most n/r
    (deleting the cross edges between them).  A part smaller than tiny*n is then
    dissolved greedily into the largest-remaining-capacity parts, subject to
    |V_i| <= n/r throughout.  Only deletions occur, so any spanning power-cycle of
    the output is one of the input.  Returns the graph, parts reordered by
    descending size and equal sizes by smallest vertex id; its `part_index` maps
    each vertex to its new part.  When nothing is merged or split and the parts
    already stand in that order, the input graph itself is returned.
    """
    tiny = Config(r).gamma / (2 * r)
    n = graph.n
    for i, part in enumerate(graph.parts):
        if r * len(part) > n:
            raise GraphValidationError(f"part {i} has size {len(part)} > n/r")

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
        return graph
    part_map = [-1] * n
    for idx, g in enumerate(groups):
        for v in g:
            part_map[v] = idx
    new_adj = tuple(
        frozenset(u for u in graph.adj[v] if part_map[u] != part_map[v]) for v in range(n)
    )
    return MultipartiteGraph._from_symmetric(new_parts, new_adj, graph.name)


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
    return MultipartiteGraph._from_symmetric(tuple(new_parts), adj, None), tuple(old_ids)
