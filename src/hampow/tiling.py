"""Transversal clique enumeration, perfect fractional tilings by exact rational
LP with a dual certificate, exact-cover integral tilings, and a greedy path
cover that chains cliques.

Every feasibility and optimality decision is made in exact arithmetic; there is
no floating tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import GraphValidationError, SearchExhaustedError, VerificationError
from .graphs import Config, MultipartiteGraph
from .paths import VertexSeq, is_path, is_properly_terminated, splice_ok


def enumerate_cliques(graph: MultipartiteGraph, r: int) -> list[tuple[int, ...]]:
    """All r-cliques with one vertex in each of r distinct parts, in part order."""
    return list(iter_cliques(graph, r))


def iter_cliques(graph: MultipartiteGraph, r: int) -> Iterator[tuple[int, ...]]:
    """The cliques of `enumerate_cliques`, in the same order, found lazily.

    Backtracking over parts in ascending index with common-neighborhood pruning;
    the last vertex of a clique is picked straight from the common neighborhood.
    """
    k = graph.k
    adj, part_sets = graph.adj, graph.part_sets

    def rec(start: int, chosen: tuple[int, ...], common: frozenset[int] | None):
        depth = len(chosen)
        if depth == r:
            yield chosen
            return
        for p in range(start, k - (r - depth) + 1):
            # parts are sorted, so this is the part's order
            pool = graph.parts[p] if common is None else sorted(common & part_sets[p])
            if depth == r - 1:
                yield from [chosen + (v,) for v in pool]
                continue
            for v in pool:
                yield from rec(p + 1, chosen + (v,), adj[v] if common is None else common & adj[v])

    return rec(0, (), None)


def _simplex_max(
    columns: Sequence[Sequence[int]], m: int
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Maximize sum(x) over column-incidence constraints A x <= 1, x >= 0.

    columns[j] lists the rows with a one in column j.  Returns (value, x, y)
    where y is the dual certificate (row prices).  Bland's rule, exact rationals.
    """
    ncols = len(columns)
    width = ncols + m + 1
    rows: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(0)] * width
        row[-1] = Fraction(1)
        row[ncols + i] = Fraction(1)
        rows.append(row)
    for j, col in enumerate(columns):
        for i in col:
            rows[i][j] = Fraction(1)
    obj = [Fraction(-1)] * ncols + [Fraction(0)] * (m + 1)
    basis = [ncols + i for i in range(m)]

    while True:
        enter = next((j for j in range(ncols + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise VerificationError("the tiling LP is unbounded")
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter]:
                f = rows[i][enter]
                rows[i] = [v - f * p for v, p in zip(rows[i], rows[leave])]
        if obj[enter]:
            f = obj[enter]
            obj = [v - f * p for v, p in zip(obj, rows[leave])]
        basis[leave] = enter

    x = [Fraction(0)] * ncols
    for i, bi in enumerate(basis):
        if bi < ncols:
            x[bi] = rows[i][-1]
    y = [obj[ncols + i] for i in range(m)]
    return obj[-1], x, y


@dataclass(frozen=True)
class FractionalTiling:
    """Rational weights on transversal cliques with per-vertex load at most one,
    together with the LP optimum and its dual certificate."""

    n: int
    r: int
    weights: dict[tuple[int, ...], Fraction]
    value: Fraction
    dual: tuple[Fraction, ...]

    @property
    def is_perfect(self) -> bool:
        return self.value == Fraction(self.n, self.r)

    def load(self, v: int) -> Fraction:
        return sum((w for K, w in self.weights.items() if v in K), Fraction(0))

    def to_json_list(self) -> list[dict]:
        return [
            {"clique": list(K), "weight": str(w)}
            for K, w in sorted(self.weights.items())
        ]


def fractional_tiling(graph: MultipartiteGraph, r: int) -> FractionalTiling:
    """Exact LP relaxation of the perfect tiling problem; perfect iff the optimum
    equals n/r.  The dual certificate is audited before returning."""
    if graph.k != r:
        raise GraphValidationError("fractional tiling expects an r-partite graph")
    cliques = enumerate_cliques(graph, r)
    value, x, y = _simplex_max([K for K in cliques], graph.n)
    weights = {K: w for K, w in zip(cliques, x) if w > 0}
    tiling = FractionalTiling(
        n=graph.n, r=r, weights=weights, value=value, dual=tuple(y)
    )
    # Exact duality audit: primal feasible, dual feasible, objectives equal.
    if any(tiling.load(v) > 1 for v in range(graph.n)):
        raise VerificationError("tiling audit: a vertex load exceeds one")
    if any(p < 0 for p in y):
        raise VerificationError("tiling audit: a dual price is negative")
    if any(sum(y[v] for v in K) < 1 for K in cliques):
        raise VerificationError("tiling audit: a clique's dual constraint is violated")
    if not sum(y) == value == sum(weights.values(), Fraction(0)):
        raise VerificationError("tiling audit: primal, dual and optimum differ")
    return tiling


def perfect_tiling_bruteforce(
    graph: MultipartiteGraph, r: int
) -> list[tuple[int, ...]] | None:
    """Exact-cover search for a perfect tiling by transversal cliques.

    Branches on the uncovered vertex contained in the fewest remaining cliques.
    """
    if graph.n % r != 0:
        raise GraphValidationError(f"n={graph.n} is not divisible by r={r}")
    cliques = enumerate_cliques(graph, r)
    by_vertex: list[list[tuple[int, ...]]] = [[] for _ in range(graph.n)]
    for K in cliques:
        for v in K:
            by_vertex[v].append(K)

    chosen: list[tuple[int, ...]] = []
    covered: set[int] = set()

    def rec() -> bool:
        if len(covered) == graph.n:
            return True
        pivot, options = None, None
        for v in range(graph.n):
            if v in covered:
                continue
            opts = [K for K in by_vertex[v] if not covered.intersection(K)]
            if options is None or len(opts) < len(options):
                pivot, options = v, opts
                if not opts:
                    return False
        assert options is not None
        for K in options:
            chosen.append(K)
            covered.update(K)
            if rec():
                return True
            chosen.pop()
            covered.difference_update(K)
        return False

    return chosen if rec() else None


@dataclass(frozen=True)
class PathCover:
    """Disjoint properly terminated power-paths plus the balanced leftover."""

    paths: tuple[VertexSeq, ...]
    leftover: frozenset[int]

    def to_json_dict(self) -> dict:
        return {
            "paths": [p.to_json() for p in self.paths],
            "leftover": sorted(self.leftover),
        }


def cover_with_paths(
    graph: MultipartiteGraph, r: int, alpha: Fraction, cfg: Config
) -> PathCover:
    """Cover all but alpha*n vertices by properly terminated power-paths.

    Greedy clique chaining: the first attempt tries cliques in enumeration
    order, paths grow while the next clique splices legally, reshuffled retries
    on shortfall.  Within an attempt, a clique that meets a used vertex can
    never be picked again, so each scan drops those it passes from the
    attempt's list.  The leftover of a balanced host is automatically balanced
    because every path meets all parts equally.
    """
    if graph.k != r:
        raise GraphValidationError("path cover expects an r-partite graph")
    sizes = {len(p) for p in graph.parts}
    if len(sizes) != 1:
        raise GraphValidationError("path cover expects a balanced host")
    n = graph.n
    target = alpha * n

    ordered = enumerate_cliques(graph, r)

    rng = cfg.rng("cover")
    best: int | None = None
    for attempt in range(cfg.retry_limit):
        order = ordered[:]
        if attempt:
            rng.shuffle(order)
        used: set[int] = set()
        paths: list[VertexSeq] = []

        def next_clique(tail: Sequence[int]) -> tuple[int, ...] | None:
            """First clique of `order` off `used` that splices after `tail`;
            the cliques that meet `used` before it leave `order`."""
            live = 0
            for idx, K in enumerate(order):
                if not used.isdisjoint(K):
                    continue
                order[live] = K
                live += 1
                if splice_ok(graph, tail, K, r):
                    order[live:] = order[idx + 1:]
                    return K
            del order[live:]
            return None

        while n - len(used) > target:
            current: list[int] = []
            while True:
                K = next_clique(current[-r:])
                if K is None:
                    break
                current.extend(K)
                used.update(K)
                if n - len(used) <= target:
                    break
            if not current:
                break
            paths.append(VertexSeq(tuple(current), r))

        leftover = frozenset(v for v in range(n) if v not in used)
        if len(leftover) <= target and _balanced(graph, leftover):
            if not all(is_path(graph, p) and is_properly_terminated(graph, p) for p in paths):
                raise VerificationError("cover built a path that is not properly terminated")
            return PathCover(tuple(paths), leftover)
        if best is None or len(leftover) < best:
            best = len(leftover)
    raise SearchExhaustedError(
        f"cover shortfall after {cfg.retry_limit} attempts: best leftover {best} > {target}"
    )


def _balanced(graph: MultipartiteGraph, vertices: Iterable[int]) -> bool:
    counts = [0] * graph.k
    for v in vertices:
        counts[graph.part_of(v)] += 1
    return len(set(counts)) == 1
