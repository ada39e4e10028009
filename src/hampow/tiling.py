"""Transversal clique listing by the oracle's window-path search, perfect
fractional tilings by exact rational LP with a dual certificate, exact-cover
integral tilings, and a greedy path cover that chains cliques.

Every feasibility and optimality decision is made in exact arithmetic; there is
no floating tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Sequence

from .errors import GraphValidationError, SearchExhaustedError, VerificationError
from .graphs import Config, MultipartiteGraph, require_power
from .oracle import DepthFirst, SearchBudget, window_paths
from .paths import is_path, is_properly_terminated


def enumerate_cliques(graph: MultipartiteGraph, r: int) -> list[tuple[int, ...]]:
    """All r-cliques of an r-partite host with one vertex in each part, in
    part order and lexicographic order: the window paths through the parts,
    within the default search budget."""
    if graph.k != r:
        raise GraphValidationError(f"clique listing expects an r-partite graph, got k={graph.k}")
    return list(window_paths(graph, graph.part_sets, set(), r))


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
    require_power(r)
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
    """Exact-cover search for a perfect tiling by transversal cliques, within
    the default search budget.

    Branches on the uncovered vertex contained in the fewest remaining cliques.
    """
    require_power(r)
    if graph.n % r != 0:
        raise GraphValidationError(f"n={graph.n} is not divisible by r={r}")
    by_vertex: list[list[tuple[int, ...]]] = [[] for _ in range(graph.n)]
    for K in enumerate_cliques(graph, r):
        for v in K:
            by_vertex[v].append(K)

    def options(chosen: list[tuple[int, ...]]) -> list[tuple[int, ...]] | None:
        covered = set().union(*chosen)
        if len(covered) == graph.n:
            return None
        best: list[tuple[int, ...]] = []
        for v in range(graph.n):
            if v in covered:
                continue
            opts = [K for K in by_vertex[v] if covered.isdisjoint(K)]
            if not opts:
                return []
            if not best or len(opts) < len(best):
                best = opts
        return best

    tiling = next(iter(DepthFirst(options, SearchBudget().node_limit)), None)
    return None if tiling is None else list(tiling)


@dataclass(frozen=True)
class PathCover:
    """Disjoint properly terminated power-paths plus the balanced leftover."""

    paths: tuple[tuple[int, ...], ...]
    leftover: frozenset[int]

    def to_json_dict(self) -> dict:
        return {
            "paths": self.paths,
            "leftover": sorted(self.leftover),
        }


# Attempts of the cover: the first in ascending order, the rest reshuffled.
COVER_ATTEMPTS = 200


def cover_with_paths(
    graph: MultipartiteGraph,
    r: int,
    alpha: Fraction,
    cfg: Config,
    leave_out: AbstractSet[int] = frozenset(),
) -> PathCover:
    """Cover all but alpha*n vertices by properly terminated power-paths.

    Greedy clique chaining: each path grows by the first transversal clique
    off the used vertices that splices after its tail, picked by the window
    search `oracle.window_paths` through the parts in order, until none
    does.  The first attempt tries candidates in ascending order, so it
    picks the lexicographically first such clique; retries on shortfall,
    up to `COVER_ATTEMPTS` attempts in all, shuffle them with the cover's
    rng.  The leftover is balanced without a check: the host is, and every
    path chains transversal cliques, which meet all parts equally.  A
    negative alpha asks for a leftover below zero, which no cover has.

    `leave_out` names vertices to treat as absent: the cover is then the one
    of the subgraph the other vertices induce, mapped back to the host's
    ids, without building that subgraph.  It is the same cover because
    relabelling a part keeps its order and every pick draws from one part,
    in ascending order or shuffled as a list of the same length; n and
    alpha*n count only the other vertices.
    """
    require_power(r)
    if alpha < 0:
        raise GraphValidationError(f"cover leftover fraction must be at least 0, got {alpha}")
    if graph.k != r:
        raise GraphValidationError("path cover expects an r-partite graph")
    parts = [p - leave_out for p in graph.part_sets]
    sizes = set(map(len, parts))
    if len(sizes) != 1:
        raise GraphValidationError("path cover expects a balanced host")
    vertices = frozenset().union(*parts)
    n = len(vertices)
    target = alpha * n

    rng = cfg.rng("cover")
    best: int | None = None
    for attempt in range(COVER_ATTEMPTS):
        reshuffle = rng if attempt else None
        used: set[int] = set()
        paths: list[tuple[int, ...]] = []
        while n - len(used) > target:
            current: list[int] = []
            while n - len(used) > target:
                K = next(window_paths(graph, parts, used, r, before=current, rng=reshuffle), None)
                if K is None:
                    break
                current.extend(K)
                used.update(K)
            if not current:
                break
            paths.append(tuple(current))

        leftover = vertices - used
        if len(leftover) <= target:
            if not all(is_path(graph, p, r) and is_properly_terminated(graph, p, r)
                       for p in paths):
                raise VerificationError("cover built a path that is not properly terminated")
            return PathCover(tuple(paths), leftover)
        if best is None or len(leftover) < best:
            best = len(leftover)
    raise SearchExhaustedError(
        f"cover shortfall after {COVER_ATTEMPTS} attempts: best leftover {best} > {target}"
    )
