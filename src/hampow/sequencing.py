"""Partitioning-and-sequencing pipeline: trim template, template matrix, integer
solver for cell sizes, random refinement, connectors, and plan verification.

The pipeline takes a k-partite graph with r < k and descending part sizes and
cuts it into balanced r-partite groups joined by short connector paths, with an
initial trim path absorbing the divisibility slack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    GraphValidationError,
    InfeasibleError,
    ScaleInfeasibleError,
    SearchExhaustedError,
    VerificationError,
)
from .graphs import Config, MultipartiteGraph, degree_profile
from .paths import (
    TypeVector,
    VertexSeq,
    decompose,
    final_respects,
    initial_respects,
    is_path,
    is_valid_pair,
)


def z_vector(j: int, k: int, r: int) -> TypeVector:
    """Run-type templates: j=0 is ones on the first r+1 coordinates, j in [r+1]
    is the same with the j-th coordinate cleared."""
    if k < r + 1:
        raise GraphValidationError(f"need k >= r+1 for run templates, got k={k}, r={r}")
    if not 0 <= j <= r + 1:
        raise GraphValidationError(f"template index {j} outside 0..{r + 1}")
    z = [1] * (r + 1) + [0] * (k - r - 1)
    if j > 0:
        z[j - 1] = 0
    return tuple(z)


@dataclass(frozen=True)
class TrimTemplate:
    """Arithmetic template for the trim path: correction counts and run types."""

    r: int
    k: int
    n: int
    s: int
    c: tuple[int, ...]  # c_0 .. c_s
    type_sequence: tuple[TypeVector, ...]

    @property
    def q(self) -> int:
        return len(self.type_sequence)

    @property
    def p(self) -> int:
        """Number of vertices the trim path will use."""
        return self.c[0] + self.q * self.r

    def __post_init__(self):
        r, n, c = self.r, self.n, self.c
        if not (0 <= c[0] < r and (n - c[0]) % r == 0):
            raise InfeasibleError("c_0 must be n mod r")
        if list(c[1:]) != sorted(c[1:]) or any(ci < 0 for ci in c[1:]):
            raise InfeasibleError("correction counts must be nonnegative and nondecreasing")
        for za, zb in zip(self.type_sequence, self.type_sequence[1:]):
            if not is_valid_pair(za, zb, r):
                raise InfeasibleError(f"adjacent template types {za} -> {zb} are not valid")


def compute_trim_template(
    sizes: Sequence[int],
    r: int,
    sigma: Fraction,
    gamma: Fraction | None = None,
) -> TrimTemplate:
    """Derive the trim-path template from the part sizes.

    s is the number of leading parts within 2*sigma*n of n/r; each such part gets
    a correction count c_i = (n - c_0)/r - |V_i|.  Raises InfeasibleError when the
    instance and sigma are mismatched (s > r, corrections out of order, or the
    template would not fit in the graph).
    """
    k = len(sizes)
    n = sum(sizes)
    if any(sizes[i] < sizes[i + 1] for i in range(k - 1)):
        raise GraphValidationError("part sizes must be descending")
    if any(r * s > n for s in sizes):
        raise GraphValidationError("every part must have size at most n/r")
    if gamma is not None and any(s < gamma * n for s in sizes):
        raise GraphValidationError("every part must have size at least gamma*n")
    if k <= r:
        raise GraphValidationError(f"sequencing needs r < k, got k={k}, r={r}")

    threshold = Fraction(n, r) - 2 * sigma * n
    s = sum(1 for size in sizes if size >= threshold)
    if s > r:
        raise InfeasibleError(
            f"trim index s={s} exceeds r={r}: sigma={sigma} too large for these sizes"
        )
    c0 = n % r
    c = [c0] + [(n - c0) // r - sizes[i] for i in range(s)]
    if any(ci < 0 for ci in c[1:]) or any(c[i] > c[i + 1] for i in range(1, s)):
        raise InfeasibleError(f"correction counts {c[1:]} violate the trim ordering")
    if any(ci > 2 * sigma * n for ci in c[1:]):
        raise InfeasibleError(f"correction counts {c[1:]} exceed 2*sigma*n")

    types: list[TypeVector] = []
    types.extend([z_vector(0, k, r)] * c0)
    for j in range(r + 1, s, -1):
        types.append(z_vector(j, k, r))
    for i in range(s, 0, -1):
        types.extend([z_vector(i, k, r)] * c[i])
    types.append(z_vector(r + 1, k, r))

    tmpl = TrimTemplate(r=r, k=k, n=n, s=s, c=tuple(c), type_sequence=tuple(types))
    if tmpl.p > n:
        raise InfeasibleError(f"trim path needs {tmpl.p} vertices but the graph has {n}")
    return tmpl


def build_trim_path(
    graph: MultipartiteGraph,
    tmpl: TrimTemplate,
    cfg: Config,
    relaxed: bool = False,
) -> VertexSeq:
    """Greedily realize the template as a properly ordered, properly terminated path.

    In strict mode the degree precondition and the sigma-dependent residual slack
    conditions are enforced; relaxed mode keeps only the exact combinatorial
    identities (divisibility and the leading residual equalities).
    """
    r, n = tmpl.r, graph.n
    if not relaxed:
        if degree_profile(graph).delta_p < 1 - Fraction(1, r) + cfg.gamma:
            raise InfeasibleError("proportional minimum degree below 1 - 1/r + gamma")

    rng = cfg.rng("trim")
    last_exc: Exception | None = None
    for attempt in range(cfg.retry_limit):
        try:
            vertices = _realize_types(graph, tmpl.type_sequence, r, rng, set())
            break
        except SearchExhaustedError as exc:
            last_exc = exc
    else:
        raise SearchExhaustedError(
            f"trim path construction exhausted {cfg.retry_limit} restarts: {last_exc}"
        )

    p0 = VertexSeq(tuple(vertices), r)
    if not is_path(graph, p0):
        raise VerificationError("trim path is not a power-path")
    if decompose(graph, p0).types() != tmpl.type_sequence:
        raise VerificationError("trim path does not realize the template's type sequence")
    residual = [len(part) - sum(1 for v in vertices if graph.part_of(v) == i)
                for i, part in enumerate(graph.parts)]
    total = n - len(vertices)
    if total % r:
        raise VerificationError("residual size is not divisible by r")
    if any(residual[i] != total // r for i in range(tmpl.s)):
        raise VerificationError("leading residual equalities fail")
    if not relaxed:
        sigma_n = cfg.sigma * n
        for i in range(tmpl.s, tmpl.k):
            if residual[i] < sigma_n or residual[i] > Fraction(total, r) - sigma_n:
                raise ScaleInfeasibleError(
                    f"constants infeasible at this scale: residual part {i} has size "
                    f"{residual[i]} outside [sigma*n, |V'|/r - sigma*n]"
                )
        if total < (1 - 3 * r * r * cfg.sigma) * n:
            raise ScaleInfeasibleError("constants infeasible at this scale: trim path too long")
    return p0


def _realize_types(
    graph: MultipartiteGraph,
    types: Sequence[TypeVector],
    r: int,
    rng: random.Random,
    reserved: set[int],
) -> list[int]:
    """One greedy pass over the template; raises SearchExhaustedError on a dead end."""
    used: set[int] = set(reserved)
    out: list[int] = []
    for z in types:
        support = [i for i, zi in enumerate(z) if zi]
        chunk = _grow_run(graph, support, out, used, r, rng)
        if chunk is None:
            raise SearchExhaustedError(f"dead end while realizing run type {z}")
        out.extend(chunk)
        used.update(chunk)
    return out


def _grow_run(
    graph: MultipartiteGraph,
    support: Sequence[int],
    prefix: Sequence[int],
    used: set[int],
    r: int,
    rng: random.Random,
    tries: int = 8,
) -> list[int] | None:
    """Pick one unused vertex per part of the run, keeping all window adjacencies.

    Candidates are scored by remaining degree into the not-yet-chosen required
    parts, ties broken randomly; a handful of restarts per run.  The candidates
    are the part's vertices off `used` inside every window vertex's
    neighbourhood, in ascending order, as the sorted part lists them.  The
    parts in `support` are distinct.
    """
    adj = graph.adj
    for _ in range(tries):
        chunk: list[int] = []
        for pos, part_idx in enumerate(support):
            fit = graph.part_sets[part_idx] - used
            for u in (list(prefix[-(r - 1):]) + chunk)[-(r - 1):]:
                fit &= adj[u]
            pool = sorted(fit.difference(chunk))
            if not pool:
                break
            # the parts of `support` are distinct, so one intersection with
            # their union counts a vertex's degree into each of them
            rest = frozenset().union(*(graph.part_sets[i] for i in support[pos + 1:])) - used
            rng.shuffle(pool)
            chunk.append(max(pool, key=lambda v: len(adj[v] & rest)))
        else:
            return chunk
    return None


@dataclass(frozen=True)
class TemplateMatrix:
    """0/1 matrix whose columns enumerate the admissible group part-patterns in a
    seam-compatible order, plus the solved column multiplicities once known."""

    k: int
    r: int
    s: int
    cols: tuple[TypeVector, ...]
    x: tuple[int, ...] | None = None
    b: tuple[int, ...] | None = None

    @property
    def ell(self) -> int:
        return len(self.cols)

    def entry(self, i: int, j: int) -> int:
        return self.cols[j][i]

    def mul(self, x: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(col[i] * xj for col, xj in zip(self.cols, x)) for i in range(self.k))

    def with_solution(self, x: Sequence[int], b: Sequence[int]) -> "TemplateMatrix":
        return replace(self, x=tuple(x), b=tuple(b))

    def validate(self) -> None:
        k, r, s = self.k, self.r, self.s
        if self.ell != comb(k - s, r - s):
            raise InfeasibleError(f"expected {comb(k - s, r - s)} columns, got {self.ell}")
        if len(set(self.cols)) != self.ell:
            raise InfeasibleError("columns must be pairwise distinct")
        for col in self.cols:
            if len(col) != k or sum(col) != r or any(col[i] != 1 for i in range(s)):
                raise InfeasibleError(f"column {col} is not an admissible pattern")
        first = tuple([1] * r + [0] * (k - r))
        last = tuple([1] * s + [0] * (k - r) + [1] * (r - s))
        if self.cols[0] != first or self.cols[-1] != last:
            raise InfeasibleError("forced first/last columns missing")
        for j in range(self.ell - 1):
            a, b = self.cols[j], self.cols[j + 1]
            for i in range(k):
                if a[i] == 1 and b[i] == 1 and sum(a[: i + 1]) > sum(b[: i + 1]):
                    raise InfeasibleError(f"prefix-sum seam condition fails at columns {j},{j + 1}")


def build_template_matrix(k: int, r: int, s: int) -> TemplateMatrix:
    """Enumerate all 0/1 columns with ones on the first s rows and r-s ones below,
    ordered so adjacent columns satisfy the prefix-sum seam condition.

    Recursion on k-s: columns whose (s+1)-th entry is one come first (recurse with
    s+1), the rest are the patterns of the (k-s-1)-row subproblem prefixed by
    1^s 0 (recurse with k-s-1, r-s, 0).
    """
    if not 0 <= s <= r <= k:
        raise GraphValidationError(f"need 0 <= s <= r <= k, got k={k}, r={r}, s={s}")
    m = TemplateMatrix(k=k, r=r, s=s, cols=tuple(_matrix_columns(k, r, s)))
    m.validate()
    return m


def _matrix_columns(k: int, r: int, s: int) -> list[TypeVector]:
    if k == r or r == s:
        return [tuple([1] * r + [0] * (k - r))]
    with_one = _matrix_columns(k, r, s + 1)
    without = [
        tuple([1] * s + [0] + list(tail)) for tail in _matrix_columns(k - s - 1, r - s, 0)
    ]
    return with_one + without


def solve_part_sizes(
    matrix: TemplateMatrix, b: Sequence[int], floor_m: int
) -> tuple[int, ...]:
    """Positive integer column multiplicities x with A*x = b and x >= floor_m.

    Starts from the all-floor_m vector and repeatedly increments one column
    whose r-set holds every row with residual equal to residual-total/r and
    otherwise rows with positive residual.  Among those admissible columns it
    takes the one with the smallest current multiplicity, ties going to the
    extension with the largest residuals, then the lowest indices; this
    spreads the residual evenly instead of piling it onto a few columns while
    others stay at the floor.  The residual total drops by exactly r per
    iteration.
    """
    k, r, s = matrix.k, matrix.r, matrix.s
    if len(b) != k:
        raise GraphValidationError(f"b must have length k={k}")
    x = [floor_m] * matrix.ell
    res = [bi - axi for bi, axi in zip(b, matrix.mul(x))]
    total = sum(res)
    if total < 0 or total % r != 0:
        raise InfeasibleError(
            f"precondition P1 fails: residual total {total} negative or not divisible by r"
        )
    share = total // r
    for i in range(s):
        if res[i] != share:
            raise InfeasibleError(
                f"precondition P2 fails: residual {res[i]} at leading row {i} != total/r={share}"
            )
    for i in range(s, k):
        if not 0 <= res[i] <= share:
            raise InfeasibleError(
                f"precondition P3 fails: residual {res[i]} at row {i} outside [0, total/r={share}]"
            )

    by_support = {frozenset(i for i in range(k) if col[i]): j
                  for j, col in enumerate(matrix.cols)}
    while total > 0:
        share = total // r
        tight = [i for i in range(k) if res[i] == share]
        extend = sorted(
            (i for i in range(k) if 0 < res[i] < share),
            key=lambda i: (-res[i], i),
        )
        if len(tight) > r or len(tight) + len(extend) < r:
            raise VerificationError("no r-set of parts has positive residuals")
        options = [frozenset(tight).union(more)
                   for more in combinations(extend, r - len(tight))]
        if any(c not in by_support for c in options):
            raise VerificationError("the template matrix lacks an admissible pattern")
        # min keeps the first of equal multiplicities, i.e. the largest residuals
        chosen = min(options, key=lambda c: x[by_support[c]])
        x[by_support[chosen]] += 1
        for i in chosen:
            res[i] -= 1
        total -= r
    return tuple(x)


GroupSequences = tuple[tuple[int, ...], ...]
RefinedParts = dict[tuple[int, int], frozenset[int]]


def group_patterns(matrix: TemplateMatrix) -> GroupSequences:
    """Per-column ascending part indices carrying the nonempty cells."""
    return tuple(tuple(i for i in range(matrix.k) if col[i]) for col in matrix.cols)


def refine_partition(
    graph: MultipartiteGraph,
    residual_parts: Sequence[Iterable[int]],
    matrix: TemplateMatrix,
    x: Sequence[int],
    cfg: Config,
    check_degrees: bool = True,
) -> tuple[RefinedParts, GroupSequences]:
    """Randomly split each residual part into cells of size a_{i,j} * x_j.

    With check_degrees, every vertex of the graph must see at least a
    (1 - 1/r + gamma/2) fraction of every nonempty cell outside its own part;
    failing parts are resampled up to the retry budget.
    """
    k, r = matrix.k, matrix.r
    residual = [sorted(p) for p in residual_parts]
    if len(residual) != k:
        raise GraphValidationError(f"expected {k} residual parts")
    for i in range(k):
        want = sum(matrix.entry(i, j) * x[j] for j in range(matrix.ell))
        if want != len(residual[i]):
            raise GraphValidationError(
                f"row {i}: cells sum to {want} but residual part has {len(residual[i])}"
            )

    threshold = 1 - Fraction(1, r) + cfg.gamma / 2
    cells: RefinedParts = {}
    worst: tuple[Fraction, int, tuple[int, int]] | None = None
    for i in range(k):
        rng = cfg.rng(f"refine:{i}")
        for attempt in range(cfg.retry_limit):
            pool = residual[i][:]
            rng.shuffle(pool)
            row: dict[tuple[int, int], frozenset[int]] = {}
            at = 0
            for j in range(matrix.ell):
                size = matrix.entry(i, j) * x[j]
                row[(i, j)] = frozenset(pool[at : at + size])
                at += size
            if not check_degrees:
                cells.update(row)
                break
            bad = _worst_cell_violation(graph, row, threshold)
            if bad is None:
                cells.update(row)
                break
            if worst is None or bad[0] < worst[0]:
                worst = bad
        else:
            assert worst is not None
            frac, v, cell = worst
            raise SearchExhaustedError(
                f"refinement degree check exhausted {cfg.retry_limit} resamples; worst "
                f"violation: vertex {v} sees only {frac} of cell {cell}"
            )
    return cells, group_patterns(matrix)


def _least_degree_into(
    adj: Sequence[frozenset[int]], vertices: Iterable[int], cell: frozenset[int]
) -> tuple[int, int]:
    """The least int count len(adj[v] & cell) over the nonempty `vertices`,
    and the first v reaching it."""
    return min(((len(adj[v] & cell), v) for v in vertices), key=itemgetter(0))


def _worst_cell_violation(
    graph: MultipartiteGraph,
    row: Mapping[tuple[int, int], frozenset[int]],
    threshold: Fraction,
) -> tuple[Fraction, int, tuple[int, int]] | None:
    """The least proportional degree below `threshold` of a vertex outside a
    cell's part into that cell, with the first vertex and the cell reaching
    it, or None; a later cell replaces the minimum only when strictly smaller.
    """
    worst: tuple[Fraction, int, tuple[int, int]] | None = None
    for (i, j), cell in row.items():
        if not cell:
            continue
        outside = (v for v in range(graph.n) if graph.part_of(v) != i)
        low, v = _least_degree_into(graph.adj, outside, cell)
        frac = Fraction(low, len(cell))
        if frac < threshold and (worst is None or frac < worst[0]):
            worst = (frac, v, (i, j))
    return worst


@dataclass(frozen=True)
class SequencingPlan:
    """Everything the cutting produces: trim path, extended trim path, cells,
    per-group part patterns, and the connector paths."""

    r: int
    p0_prime: VertexSeq
    p0: VertexSeq
    refined_parts: RefinedParts
    group_sequences: GroupSequences
    connectors: tuple[VertexSeq, ...]

    @property
    def ell(self) -> int:
        return len(self.group_sequences)

    def group_cells(self, j: int) -> list[frozenset[int]]:
        """Ordered nonempty cells of group j (0-based)."""
        return [self.refined_parts[(i, j)] for i in self.group_sequences[j]]

    def to_json_dict(self) -> dict:
        return {
            "p0_prime": self.p0_prime.to_json(),
            "p0": self.p0.to_json(),
            "groups": [
                {
                    "cols": list(self.group_sequences[j]),
                    "cells": [sorted(c) for c in self.group_cells(j)],
                }
                for j in range(self.ell)
            ],
            "connectors": [c.to_json() for c in self.connectors],
        }


def build_connectors_and_p0(
    graph: MultipartiteGraph,
    p0_prime: VertexSeq,
    refined_parts: RefinedParts,
    group_sequences: GroupSequences,
    cfg: Config,
) -> SequencingPlan:
    """Greedy 2r-vertex connector paths between consecutive groups, then wrap the
    trim path with r prepended vertices (from the last group) and r appended
    vertices (from the first group).

    Connector 0 and the appended suffix each take one vertex from every cell of
    the first group.  When those cells are small they may have no room for
    both, and then every attempt fails: that is proved exactly before the
    attempts start (`_connector_0_fits`), and the refinement is given up at
    once with the same `SearchExhaustedError` the spent attempts would raise.
    """
    r = cfg.r
    ell = len(group_sequences)
    groups = [[refined_parts[(i, j)] for i in seq] for j, seq in enumerate(group_sequences)]
    if ell >= 2 and not _connector_0_fits(graph, p0_prime, groups[0], groups[1], r):
        raise SearchExhaustedError(
            f"no suffix of the trim path leaves connector 0 room in the first group's "
            f"cells (sizes {[len(c) for c in groups[0]]}); no attempt can succeed"
        )
    rng = cfg.rng("connectors")
    for attempt in range(cfg.retry_limit):
        used: set[int] = set(p0_prime.vertices)
        connectors: list[VertexSeq] = []
        ok = True
        for j in range(ell - 1):
            conn = _grow_window_path(graph, groups[j] + groups[j + 1], used, r, rng)
            if conn is None:
                ok = False
                break
            connectors.append(VertexSeq(tuple(conn), r))
            used.update(conn)
        if not ok:
            continue

        prefix = _grow_window_path(graph, groups[-1], used, r, rng, after=p0_prime.vertices)
        if prefix is None:
            continue
        used.update(prefix)
        suffix = _grow_window_path(graph, groups[0], used, r, rng,
                                   before=tuple(prefix) + p0_prime.vertices)
        if suffix is None:
            continue
        p0 = VertexSeq(tuple(prefix) + p0_prime.vertices + tuple(suffix), r)
        if not is_path(graph, p0):
            raise VerificationError("P0 with its affixes is not a power-path")
        return SequencingPlan(
            r=r,
            p0_prime=p0_prime,
            p0=p0,
            refined_parts=refined_parts,
            group_sequences=group_sequences,
            connectors=tuple(connectors),
        )
    raise SearchExhaustedError(
        f"connector/terminal construction exhausted {cfg.retry_limit} attempts"
    )


def _connector_0_fits(
    graph: MultipartiteGraph,
    p0_prime: VertexSeq,
    first: list[frozenset[int]],
    second: list[frozenset[int]],
    r: int,
) -> bool:
    """Whether some suffix through the cells `first` can follow `p0_prime` and
    leave room for a connector through `first + second` off both.

    An attempt that succeeds builds such a pair under stronger constraints (it
    uses more vertices, and the suffix also follows the prefix when
    `p0_prime` is shorter than r-1), so when this is False no attempt
    succeeds.  The suffixes are listed lazily; the first one that leaves room
    ends the search.  No rng is drawn.
    """
    used = set(p0_prime.vertices)
    return any(
        next(_window_paths(graph, first + second, used.union(suffix), r), None) is not None
        for suffix in _window_paths(graph, first, used, r, before=p0_prime.vertices)
    )


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


def _window_paths(
    graph: MultipartiteGraph,
    cell_sequence: Sequence[frozenset[int]],
    used: set[int],
    r: int,
    before: Sequence[int] = (),
) -> Iterator[list[int]]:
    """Every pick list `_grow_window_path` can return for a nonempty
    `cell_sequence` and no `after`, depth first and lazily."""
    adj = graph.adj
    m = len(cell_sequence)
    out = list(before[-(r - 1):])
    lead = len(out)
    # stack[p] iterates the candidates for pick p; out holds the picks before it
    stack = [iter(_window_fit(adj, cell_sequence, 0, out, used, r))]
    while stack:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            if stack:
                out.pop()
        elif len(stack) == m:
            yield out[lead:] + [v]
        else:
            out.append(v)
            stack.append(iter(_window_fit(adj, cell_sequence, len(stack), out, used, r)))


def _grow_window_path(
    graph: MultipartiteGraph,
    cell_sequence: Sequence[frozenset[int]],
    used: set[int],
    r: int,
    rng: random.Random,
    before: Sequence[int] = (),
    after: Sequence[int] = (),
    tries: int = 16,
) -> list[int] | None:
    """One vertex per cell, in order, such that `before`, the picks and `after`
    read as one power-path: each pick is adjacent to the last r-1 vertices of
    `before` plus the earlier picks, and to the vertices of `after` that lie
    within distance r-1 of it.

    Each pick's candidates are found by set intersection (`_window_fit`): the
    cell off `used`, narrowed to each window vertex's neighbourhood.  They are
    listed in the cell's own iteration order, so a seeded `rng` picks the same
    vertex as a vertex-by-vertex scan of the cell would.
    """
    adj = graph.adj
    lead = list(before[-(r - 1):])
    for _ in range(tries):
        out = lead[:]
        for p, cell in enumerate(cell_sequence):
            fit = _window_fit(adj, cell_sequence, p, out, used, r, after)
            if not fit:
                break
            out.append(rng.choice([v for v in cell if v in fit]))
        else:
            return out[len(lead):]
    return None


@dataclass(frozen=True)
class Stage:
    """One named pass/fail record: a plan condition here, a pipeline stage in
    `pipeline`; both serialize the same way."""

    name: str
    ok: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class PlanReport:
    conditions: tuple[Stage, ...]
    measured_group_slack: Fraction | None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions)

    def condition(self, name: str) -> Stage:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "conditions": [c.to_json_dict() for c in self.conditions],
            "measured_group_slack": (
                str(self.measured_group_slack)
                if self.measured_group_slack is not None
                else None
            ),
        }


def _group_degree_slack(
    graph: MultipartiteGraph, plan: SequencingPlan
) -> tuple[Fraction | None, str]:
    """The least proportional degree |N(v) & cell2| / |cell2| over the ordered
    pairs of distinct cells of a group and v in the first, and the detail that
    names the first vertex reaching it, or (None, "") for no such pair.

    Each pair's minimum is found over int counts (the first v reaching it kept)
    and only then made a Fraction; pairs are compared in order and a later one
    replaces the minimum only when strictly smaller.
    """
    adj = graph.adj
    slack: Fraction | None = None
    detail = ""
    for j in range(plan.ell):
        cells = plan.group_cells(j)
        for h, cell in enumerate(cells):
            for h2, cell2 in enumerate(cells):
                if h == h2 or not cell2 or not cell:
                    continue
                low, worst = _least_degree_into(adj, cell, cell2)
                d = Fraction(low, len(cell2))
                if slack is None or d < slack:
                    slack = d
                    detail = f"worst proportional degree {d} at vertex {worst} in group {j}"
    return slack, detail


def verify_plan(graph: MultipartiteGraph, plan: SequencingPlan, cfg: Config) -> PlanReport:
    """Check every plan invariant independently of how the plan was built.

    The equal-cell, terminal-extension, connector, and partition conditions are
    structural; the group degree condition is reported with the measured slack so
    callers can compare it against gamma/2 themselves.
    """
    r = plan.r
    n = graph.n
    conditions: list[Stage] = []

    # Equal nonempty cells per group, everything else empty.
    a1_ok, a1_detail = True, ""
    floor = cfg.floor_m(n)
    for j, pattern in enumerate(plan.group_sequences):
        sizes = {i: len(plan.refined_parts.get((i, j), frozenset())) for i in range(graph.k)}
        live = [sizes[i] for i in pattern]
        dead = [sizes[i] for i in range(graph.k) if i not in pattern]
        if len(set(live)) != 1 or live[0] < floor:
            a1_ok, a1_detail = False, f"group {j}: cell sizes {live} not equal or below {floor}"
            break
        if any(d != 0 for d in dead):
            a1_ok, a1_detail = False, f"group {j}: off-pattern cell is nonempty"
            break
    conditions.append(Stage("A1", a1_ok, a1_detail))

    # Group degree condition, measured exactly.
    slack, a2_detail = _group_degree_slack(graph, plan)
    threshold = 1 - Fraction(1, r) + cfg.gamma / 2
    conditions.append(
        Stage("A2", slack is not None and slack >= threshold, a2_detail)
    )

    # Terminal extension of the trim path.
    a3_ok, a3_detail = True, ""
    p0, p0p = plan.p0, plan.p0_prime
    if p0.vertices[r:-r] != p0p.vertices:
        a3_ok, a3_detail = False, "p0 does not extend p0_prime by r vertices on each side"
    elif not is_path(graph, p0):
        a3_ok, a3_detail = False, "p0 is not a power-path in the host graph"
    elif not initial_respects(p0.vertices, plan.group_cells(plan.ell - 1)):
        a3_ok, a3_detail = False, "initial r vertices of p0 do not respect the last group"
    elif not final_respects(p0.vertices, plan.group_cells(0)):
        a3_ok, a3_detail = False, "final r vertices of p0 do not respect the first group"
    conditions.append(Stage("A3", a3_ok, a3_detail))

    # Connectors: disjoint 2r-vertex power-paths respecting consecutive groups.
    a4_ok, a4_detail = True, ""
    taken = set(p0.vertices)
    if len(plan.connectors) != plan.ell - 1:
        a4_ok, a4_detail = False, f"expected {plan.ell - 1} connectors"
    for j, conn in enumerate(plan.connectors):
        if not a4_ok:
            break
        if len(conn) != 2 * r:
            a4_ok, a4_detail = False, f"connector {j} has {len(conn)} vertices, wanted {2 * r}"
        elif not is_path(graph, conn):
            a4_ok, a4_detail = False, f"connector {j} is not a power-path"
        elif not initial_respects(conn.vertices, plan.group_cells(j)):
            a4_ok, a4_detail = False, f"connector {j} does not start in group {j}"
        elif not final_respects(conn.vertices, plan.group_cells(j + 1)):
            a4_ok, a4_detail = False, f"connector {j} does not end in group {j + 1}"
        elif any(v in taken for v in conn.vertices):
            v = next(v for v in conn.vertices if v in taken)
            a4_ok, a4_detail = False, f"connector {j} reuses vertex {v}"
        if a4_ok:
            taken.update(conn.vertices)
    conditions.append(Stage("A4", a4_ok, a4_detail))

    # The trim path and the group cells partition the vertex set.
    part_ok, part_detail = True, ""
    seen: set[int] = set(p0p.vertices)
    if len(seen) != len(p0p.vertices):
        part_ok, part_detail = False, "trim path repeats a vertex"
    for (i, j), cell in plan.refined_parts.items():
        if not part_ok:
            break
        if cell & seen:
            v = next(iter(cell & seen))
            part_ok, part_detail = False, f"vertex {v} appears twice (cell {(i, j)})"
        seen.update(cell)
    if part_ok and seen != set(range(n)):
        part_ok, part_detail = False, "trim path and cells do not cover the graph"
    conditions.append(Stage("partition", part_ok, part_detail))

    return PlanReport(tuple(conditions), slack)


@dataclass(frozen=True)
class SequencingResult:
    template: TrimTemplate
    matrix: TemplateMatrix
    plan: SequencingPlan
    report: PlanReport


def run_sequencing(
    graph: MultipartiteGraph, cfg: Config, relaxed: bool = False
) -> SequencingResult:
    """Full pipeline: trim template, trim path, matrix, solver, refinement,
    connectors, and an independent verification report."""
    sizes = [len(p) for p in graph.parts]
    if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
        raise GraphValidationError("run_sequencing expects parts ordered by descending size")
    tmpl = compute_trim_template(sizes, cfg.r, cfg.sigma, None if relaxed else cfg.gamma)
    p0_prime = build_trim_path(graph, tmpl, cfg, relaxed=relaxed)
    on_path = set(p0_prime.vertices)
    residual = [[v for v in part if v not in on_path] for part in graph.parts]
    matrix = build_template_matrix(tmpl.k, tmpl.r, tmpl.s)
    b = [len(p) for p in residual]
    # Every cell donates a vertex to each of the two seams touching its group,
    # so the multiplicity floor must be at least 2 regardless of beta*n.  A
    # cell at that floor leaves its two connectors no choice, so the solver
    # spreads the remaining residual evenly and keeps few columns there.
    x = solve_part_sizes(matrix, b, max(2, cfg.floor_m(graph.n)))
    matrix = matrix.with_solution(x, b)
    # A refinement can strand a seam behind one missing edge; resampling the
    # cells is the retry lever, so re-refine when the connectors dead-end.
    plan = None
    last_exc: SearchExhaustedError | None = None
    for attempt in range(8):
        attempt_cfg = cfg if attempt == 0 else replace(cfg, seed=cfg.seed + 7919 * attempt)
        cells, patterns = refine_partition(
            graph, residual, matrix, x, attempt_cfg, check_degrees=not relaxed
        )
        try:
            plan = build_connectors_and_p0(graph, p0_prime, cells, patterns, attempt_cfg)
            break
        except SearchExhaustedError as exc:
            last_exc = exc
    if plan is None:
        assert last_exc is not None
        raise last_exc
    report = verify_plan(graph, plan, cfg)
    return SequencingResult(tmpl, matrix, plan, report)
