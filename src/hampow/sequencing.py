"""Partitioning-and-sequencing pipeline: trim template, template matrix, integer
solver for cell sizes, random refinement, connectors, and plan verification.

The pipeline takes a k-partite graph with r < k and descending part sizes and
cuts it into balanced r-partite groups joined by short connector paths, with an
initial trim path absorbing the divisibility slack.

The trim path is the first path through its run cells that an exact
depth-first search (`oracle.window_paths`) finds in a seeded order; that
search covers the whole graph, so when it ends empty no seed can help.  The
bridges between groups (each connector, and the two affixes that turn the
trim path into p0) are laid as one chain by one more exact search, whose
children are window paths.  What stays random is the refinement into cells,
which is re-drawn when the bridge search proves that none exist.

`run_sequencing` judges the finished plan once, with `verify_plan`, and
returns the plan and its one measurement.  The structural conditions (A1
equal cells, A3 p0 extending the trim path into the end groups, A4 disjoint
connectors, the partition of V) hold by construction, so a plan failing one
raises VerificationError.  The group degree slack A2 is measured and
reported, never enforced: the group-path searches decide.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, zip_longest
from math import comb
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import (
    BudgetExhaustedError,
    GraphValidationError,
    InfeasibleError,
    SearchExhaustedError,
    VerificationError,
)
from .graphs import Config, MultipartiteGraph, shuffle
from .oracle import DepthFirst, SearchBudget, window_paths
from .paths import (
    TypeVector,
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
        for za, zb in zip(self.type_sequence, self.type_sequence[1:]):
            if not is_valid_pair(za, zb, self.r):
                raise InfeasibleError(f"adjacent template types {za} -> {zb} are not valid")


def compute_trim_template(sizes: Sequence[int], r: int, sigma: Fraction) -> TrimTemplate:
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
    graph: MultipartiteGraph, tmpl: TrimTemplate, cfg: Config
) -> tuple[int, ...]:
    """Realize the template as a properly ordered, properly terminated path:
    the first path, in an order seeded by `cfg.rng("trim")`, through the run
    cells (each run type's parts in ascending order, one vertex each).

    The search is exact over the whole graph, so when it ends empty no trim
    path exists and SearchExhaustedError says so; a spent budget raises
    BudgetExhaustedError.  The host's degree is not checked against the
    paper's 1 - 1/r + gamma: the path is verified, and so are the exact
    combinatorial identities of its residual (divisibility by r and the
    leading residual equalities).
    """
    r, n = tmpl.r, graph.n
    cells = [graph.part_sets[i] for z in tmpl.type_sequence for i, zi in enumerate(z) if zi]
    vertices = next(window_paths(graph, cells, set(), r, rng=cfg.rng("trim")), None)
    if vertices is None:
        raise SearchExhaustedError(f"no power-path realizes the template's {tmpl.q} run types")
    if not is_path(graph, vertices, r):
        raise VerificationError("trim path is not a power-path")
    if decompose(graph, vertices, r) != tmpl.type_sequence:
        raise VerificationError("trim path does not realize the template's type sequence")
    residual = [len(part) - sum(1 for v in vertices if graph.part_of(v) == i)
                for i, part in enumerate(graph.parts)]
    total = n - len(vertices)
    if total % r:
        raise VerificationError("residual size is not divisible by r")
    if any(residual[i] != total // r for i in range(tmpl.s)):
        raise VerificationError("leading residual equalities fail")
    return vertices


@dataclass(frozen=True)
class TemplateMatrix:
    """0/1 matrix whose columns enumerate the admissible group part-patterns in a
    seam-compatible order."""

    k: int
    r: int
    s: int
    cols: tuple[TypeVector, ...]

    @property
    def ell(self) -> int:
        return len(self.cols)

    def entry(self, i: int, j: int) -> int:
        return self.cols[j][i]

    def mul(self, x: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(col[i] * xj for col, xj in zip(self.cols, x)) for i in range(self.k))

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
            if not is_valid_pair(self.cols[j], self.cols[j + 1], r):
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


def group_patterns(matrix: TemplateMatrix) -> tuple[tuple[int, ...], ...]:
    """Per-column ascending part indices: the parts group j takes cells from."""
    return tuple(tuple(i for i in range(matrix.k) if col[i]) for col in matrix.cols)


def refine_partition(
    graph: MultipartiteGraph,
    residual_parts: Sequence[Iterable[int]],
    matrix: TemplateMatrix,
    x: Sequence[int],
    cfg: Config,
) -> tuple[tuple[frozenset[int], ...], ...]:
    """Randomly split each residual part i into one cell of x_j vertices per
    column j whose pattern holds i, and return the groups: group j is column
    j's cells in the ascending part order of `group_patterns(matrix)[j]`.
    No cell is built for a part outside a pattern.

    Each part gets one split, seeded by `cfg.rng(f"refine:{i}")`.  No degree
    into the cells is required of it: `verify_plan` measures the group degree
    slack (A2), and the bridge and group-path searches decide whether the
    cells can be used.
    """
    k = matrix.k
    residual = [sorted(p) for p in residual_parts]
    if len(residual) != k:
        raise GraphValidationError(f"expected {k} residual parts")
    for i in range(k):
        want = sum(matrix.entry(i, j) * x[j] for j in range(matrix.ell))
        if want != len(residual[i]):
            raise GraphValidationError(
                f"row {i}: cells sum to {want} but residual part has {len(residual[i])}"
            )

    groups: list[list[frozenset[int]]] = [[] for _ in range(matrix.ell)]
    for i, pool in enumerate(residual):
        shuffle(cfg.rng(f"refine:{i}"), pool)
        at = 0
        # parts are split in ascending order, so each group's cells arrive in
        # its pattern's order
        for j in range(matrix.ell):
            if matrix.entry(i, j):
                groups[j].append(frozenset(pool[at : at + x[j]]))
                at += x[j]
    return tuple(map(tuple, groups))


def _least_degree_into(
    adj: Sequence[frozenset[int]], vertices: Iterable[int], cell: frozenset[int]
) -> tuple[int, int]:
    """The least int count len(adj[v] & cell) over the nonempty `vertices`,
    and the first v reaching it."""
    return min(((len(adj[v] & cell), v) for v in vertices), key=itemgetter(0))


@dataclass(frozen=True)
class SequencingPlan:
    """Everything the cutting produces: the trim path, the extended trim path
    p0, the groups, and the connector paths.

    The groups are the plan's cells: `groups[j]` holds group j's cells and
    `patterns[j]` the parts they come from, one cell per part in ascending
    part order.  Connector j joins group j to group j+1, and p0 joins the last
    group back to the first.
    """

    p0_prime: tuple[int, ...]
    p0: tuple[int, ...]
    groups: tuple[tuple[frozenset[int], ...], ...]
    patterns: tuple[tuple[int, ...], ...]
    connectors: tuple[tuple[int, ...], ...]

    @property
    def ell(self) -> int:
        return len(self.groups)

    def to_json_dict(self) -> dict:
        return {
            "p0_prime": self.p0_prime,
            "p0": self.p0,
            "groups": [
                {"cols": list(pattern), "cells": [sorted(c) for c in cells]}
                for pattern, cells in zip(self.patterns, self.groups)
            ],
            "connectors": self.connectors,
        }


def build_connectors_and_p0(
    graph: MultipartiteGraph,
    trim: tuple[int, ...],
    groups: tuple[tuple[frozenset[int], ...], ...],
    cfg: Config,
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The plan's bridges, as (p0, connectors): the trim path wrapped with r
    prepended vertices (the prefix, from the last group) and r appended
    vertices (the suffix, from the first group), and the 2r-vertex connector
    paths between consecutive groups.  The groups are the cells as
    `refine_partition` returns them.

    A group's cells feed only the two bridges beside it, so the bridges form
    a chain: the suffix, connector 0, ..., connector ell-2, the prefix.  One
    depth-first search lays them in that order.  A node's children are the
    next bridge's `window_paths` off the trim path and the bridges laid, in
    an order seeded by `cfg.rng("connectors")`.  What lies below a node
    depends only on what its last bridge took from the next group, so a
    (depth, those vertices) key whose subtree came up empty is not searched
    again.  The search is exact: when it ends empty this refinement has no
    bridges, and SearchExhaustedError says so; a spent budget raises
    BudgetExhaustedError.

    The affixes splice to the trim path only: a trim path of at least r-1
    vertices keeps every prefix vertex out of reach of every suffix vertex,
    and a shorter one raises GraphValidationError.
    """
    r = cfg.r
    if len(trim) < r - 1:
        raise GraphValidationError(
            f"the affixes need a trim path of at least r-1 = {r - 1} vertices, got {len(trim)}"
        )
    cells = [groups[0], *(a + b for a, b in zip(groups, groups[1:])), groups[-1]]
    context = [{"before": trim}, *({} for _ in groups[1:]), {"after": trim}]
    rng = cfg.rng("connectors")
    dead: set[tuple[int, frozenset[int]]] = set()

    def paths(key, found):
        yield from found
        dead.add(key)  # the search came back: nothing below any of them fits

    def children(laid: list[tuple[int, ...]]) -> Iterable[tuple[int, ...]] | None:
        depth = len(laid)
        if depth == len(cells):
            return None
        key = depth, frozenset(laid[-1][-r:] if laid else ())
        if key in dead:
            return ()
        used = set(trim).union(*laid)
        return paths(key, window_paths(graph, cells[depth], used, r, rng=rng, **context[depth]))

    search = DepthFirst(children, SearchBudget().node_limit)
    laid = next(iter(search), None)
    if laid is None:
        raise SearchExhaustedError(
            f"no suffix, connectors and prefix fit these {len(groups)} groups together "
            f"(search nodes: {search.nodes})"
        )
    suffix, *connectors, prefix = laid
    return prefix + trim + suffix, tuple(connectors)


@dataclass(frozen=True)
class PlanReport:
    """The group degree condition A2 as `verify_plan` measures it: whether
    the least proportional degree reaches 1 - 1/r + gamma/2, that degree
    (None when no group has two cells), and the vertex reaching it."""

    ok: bool
    measured_group_slack: Fraction | None
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "measured_group_slack": (
                str(self.measured_group_slack)
                if self.measured_group_slack is not None
                else None
            ),
            "detail": self.detail,
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
    for j, cells in enumerate(plan.groups):
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


def _cell_size_violation(graph: MultipartiteGraph, plan: SequencingPlan, cfg: Config) -> str:
    """A1: the first group whose cells are not one per part of its pattern,
    all of one size of at least the floor, or a group or pattern unpaired."""
    floor = cfg.floor_m(graph.n)
    for j, (pattern, cells) in enumerate(zip_longest(plan.patterns, plan.groups, fillvalue=())):
        live = [len(c) for c in cells]
        if len(live) != len(pattern):
            return f"group {j}: {len(live)} cells for pattern {list(pattern)}"
        if len(set(live)) != 1 or live[0] < floor:
            return f"group {j}: cell sizes {live} not equal or below {floor}"
    return ""


def _extension_violation(graph: MultipartiteGraph, plan: SequencingPlan, cfg: Config) -> str:
    """A3: how p0 fails to extend the trim path from the last group into the
    first as a power-path."""
    p0, r = plan.p0, cfg.r
    if p0[r:-r] != plan.p0_prime:
        return "p0 does not extend p0_prime by r vertices on each side"
    if not is_path(graph, p0, r):
        return "p0 is not a power-path in the host graph"
    if not initial_respects(p0, plan.groups[-1]):
        return "initial r vertices of p0 do not respect the last group"
    if not final_respects(p0, plan.groups[0]):
        return "final r vertices of p0 do not respect the first group"
    return ""


def _connector_violation(graph: MultipartiteGraph, plan: SequencingPlan, cfg: Config) -> str:
    """A4: the first connector that is not a 2r-vertex power-path from its
    group into the next, disjoint from p0 and the connectors before it."""
    r = cfg.r
    if len(plan.connectors) != plan.ell - 1:
        return f"expected {plan.ell - 1} connectors"
    taken = set(plan.p0)
    for j, conn in enumerate(plan.connectors):
        if len(conn) != 2 * r:
            return f"connector {j} has {len(conn)} vertices, wanted {2 * r}"
        if not is_path(graph, conn, r):
            return f"connector {j} is not a power-path"
        if not initial_respects(conn, plan.groups[j]):
            return f"connector {j} does not start in group {j}"
        if not final_respects(conn, plan.groups[j + 1]):
            return f"connector {j} does not end in group {j + 1}"
        reused = next((v for v in conn if v in taken), None)
        if reused is not None:
            return f"connector {j} reuses vertex {reused}"
        taken.update(conn)
    return ""


def _partition_violation(graph: MultipartiteGraph, plan: SequencingPlan, cfg: Config) -> str:
    """How the trim path and the cells fail to partition the vertex set."""
    seen: set[int] = set(plan.p0_prime)
    if len(seen) != len(plan.p0_prime):
        return "trim path repeats a vertex"
    for j, cells in enumerate(plan.groups):
        for cell in cells:
            twice = cell & seen
            if twice:
                v = next(iter(twice))
                return f"vertex {v} appears twice (cell {(graph.part_of(v), j)})"
            seen.update(cell)
    if seen != set(range(graph.n)):
        return "trim path and cells do not cover the graph"
    return ""


def verify_plan(graph: MultipartiteGraph, plan: SequencingPlan, cfg: Config) -> PlanReport:
    """Check every plan invariant independently of how the plan was built.

    A1, A3, A4 and the partition are structural and hold by construction:
    each helper returns its first violation's detail, or "" for none, and
    the first failing condition, in that order, raises VerificationError
    naming it.  A2, the group degree condition, is measured and returned,
    never enforced.
    """
    for name, violation in (("A1", _cell_size_violation), ("A3", _extension_violation),
                            ("A4", _connector_violation), ("partition", _partition_violation)):
        detail = violation(graph, plan, cfg)
        if detail:
            raise VerificationError(f"{name}: {detail}")
    slack, detail = _group_degree_slack(graph, plan)
    ok = slack is not None and slack >= 1 - Fraction(1, cfg.r) + cfg.gamma / 2
    return PlanReport(ok, slack, detail)


def run_sequencing(
    graph: MultipartiteGraph, cfg: Config
) -> tuple[SequencingPlan, PlanReport]:
    """Full pipeline: trim template, trim path, matrix, solver, refinement
    and connectors, then the plan and its group slack A2 as `verify_plan`
    judges it; a plan failing a structural condition raises
    VerificationError.

    `graph` is a host as `reduce_parts` returns it, parts in descending size;
    both `run_pipeline` and `hampow sequence` reduce first, so the k that the
    "sequencing needs r < k" check reports is the k after reduction."""
    tmpl = compute_trim_template([len(p) for p in graph.parts], cfg.r, cfg.sigma)
    p0_prime = build_trim_path(graph, tmpl, cfg)
    on_path = set(p0_prime)
    residual = [[v for v in part if v not in on_path] for part in graph.parts]
    matrix = build_template_matrix(tmpl.k, tmpl.r, tmpl.s)
    b = [len(p) for p in residual]
    # A cell at the floor of 2 leaves its two connectors no choice, so the
    # solver spreads the remaining residual evenly and keeps few columns there.
    x = solve_part_sizes(matrix, b, cfg.floor_m(graph.n))
    # A refinement can strand a seam behind one missing edge; resampling the
    # cells is the retry lever, so re-refine when no bridges exist.
    for attempt in range(8):
        attempt_cfg = cfg if attempt == 0 else replace(cfg, seed=cfg.seed + 7919 * attempt)
        groups = refine_partition(graph, residual, matrix, x, attempt_cfg)
        try:
            p0, connectors = build_connectors_and_p0(graph, p0_prime, groups, attempt_cfg)
            break
        except BudgetExhaustedError:
            raise  # inconclusive: not a proved none, so no refinement follows
        except SearchExhaustedError as exc:
            proved_none = exc
    else:
        raise proved_none
    plan = SequencingPlan(p0_prime, p0, groups, group_patterns(matrix), connectors)
    return plan, verify_plan(graph, plan, cfg)
