"""End-to-end cycle assembly: part reduction, sequencing into balanced groups,
per-group spanning paths, splicing, and independent verification; or, in
oracle mode, the whole-graph exact search alone.

The constructive per-group builder follows the balanced-case argument: absorbing
path of one gadget, a reservoir drawn from the vertices that gadget can absorb,
a perfect path cover of the rest, connectors inside the reservoir, then
absorption of the one r-set of the reservoir the connectors left over.  Its
constants do not scale down to tiny instances; when the exact vertex
accounting does not fit it reports scale-infeasibility and the caller may fall
back to the exhaustive oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .absorber import absorb, assemble_absorbing_path
from .connect import default_connector_length, find_connector
from .errors import (
    BudgetExhaustedError,
    CoverageError,
    GraphValidationError,
    InfeasibleError,
    SearchExhaustedError,
    VerificationError,
)
from .graphs import Config, MultipartiteGraph, induced_subgraph, reduce_parts
from .oracle import (
    BUDGET_EXCEEDED,
    YES,
    OracleResult,
    SearchBudget,
    ham_power_cycle_exists,
    ham_power_path_between,
    independence_necessity,
    window_paths,
)
from .paths import is_path, is_walk, verify_ham_power_cycle_report
from .sequencing import run_sequencing
from .tiling import cover_with_paths


@dataclass(frozen=True)
class Stage:
    """One named pass/fail record of a pipeline run."""

    name: str
    ok: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass
class PipelineReport:
    stages: list[Stage] = field(default_factory=list)
    cycle: tuple[int, ...] | None = None
    budget_exceeded: bool = False

    @property
    def ok(self) -> bool:
        return self.cycle is not None

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.stages.append(Stage(name, ok, detail))

    def add_oracle(self, name: str, res: OracleResult, found: str) -> tuple[int, ...] | None:
        """Record an oracle result as stage `name`: `found` and the witness on
        yes; otherwise a failure, flagging an exhausted budget."""
        if res.answer == YES:
            self.add(name, True, found)
            return res.witness
        if res.answer == BUDGET_EXCEEDED:
            self.budget_exceeded = True
        self.add(name, False, f"oracle answer: {res.answer}")
        return None

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "budget_exceeded": self.budget_exceeded,
            "stages": [s.to_json_dict() for s in self.stages],
            "cycle": self.cycle,
        }


def constructive_ham_path_between(
    graph: MultipartiteGraph,
    clique_a: Sequence[int],
    clique_b: Sequence[int],
    cfg: Config,
) -> tuple[int, ...]:
    """Spanning power-path of graph minus the anchors, built constructively.

    The absorbing path is one gadget, which absorbs one r-set, and the
    reservoir holds exactly one spare r-set beyond what its connectors use,
    drawn from the vertices the gadget can absorb; so the cover of the rest
    must be perfect.  The reservoir is sized for a number of cover paths that
    only grows: a cover of more paths sizes it again, and one of fewer is cut
    at clique boundaries.  Raises InfeasibleError when the exact accounting
    (anchors + absorbing path + reservoir) cannot fit in the parts.
    """
    r = cfg.r
    if graph.k != r:
        raise GraphValidationError("constructive builder expects an r-partite host")
    part_sizes = {len(p) for p in graph.parts}
    if len(part_sizes) != 1:
        raise GraphValidationError("constructive builder expects a balanced host")
    m_part = part_sizes.pop()

    ka = tuple(sorted(set(clique_a), key=graph.part_of))
    kb = tuple(sorted(set(clique_b), key=graph.part_of))
    anchors = set(ka) | set(kb)
    anchors_per_part = len(anchors) // r
    conn_len = default_connector_length(r)
    per_part_conn = conn_len // r  # 2(r-1)
    gadget_per_part = 3 * r - 1

    # anchors, the gadget, and a reservoir for the two connectors to the
    # anchors plus the spare r-set the gadget absorbs
    minimum = anchors_per_part + gadget_per_part + 2 * per_part_conn + 1
    if m_part < minimum:
        raise InfeasibleError(
            f"constants infeasible at this scale: parts of size {m_part} cannot hold "
            f"the absorbing machinery (needs at least {minimum} per part)"
        )

    p_abs = assemble_absorbing_path(graph, anchors, cfg)
    on_abs = set(p_abs.path)
    free0 = [
        [v for v in part if v not in anchors and v not in on_abs]
        for part in graph.parts
    ]
    # the connectors leave one spare vertex of the reservoir in each part,
    # and the gadget absorbs it only from its covers
    absorbable = [[v for v in f if v in cov] for f, cov in zip(free0, p_abs.cover)]

    # a rest beside the smallest reservoir needs at least one cover path; the
    # reservoir only grows, so the fit check below ends the loop
    m_paths = int(len(free0[0]) > 2 * per_part_conn + 1)
    while True:
        u_size = (m_paths + 2) * per_part_conn + 1
        if any(len(pool) < u_size for pool in absorbable):
            raise InfeasibleError(
                f"constants infeasible at this scale: absorbable reservoir of {u_size} "
                f"per part does not fit"
            )
        rng = cfg.rng("reservoir")
        u_sets = [sorted(rng.sample(pool, u_size)) for pool in absorbable]
        # the gadget absorbs the spare reservoir r-set, so none is left to
        # absorb a cover leftover: the cover of the rest must be perfect
        reserved = anchors.union(on_abs, *u_sets)
        paths = list(cover_with_paths(graph, r, Fraction(0), cfg, leave_out=reserved).paths)
        if len(paths) <= m_paths:
            break
        m_paths = len(paths)
    paths = _cut_paths(paths, m_paths, r)

    used: set[int] = set()
    connectors: list[tuple[int, ...]] = []
    left = ka  # the segment before the next connector
    for seg in [p_abs.path, *paths, kb]:
        pools = [
            [v for v in u if v not in used] for u in u_sets
        ]
        conn = find_connector(graph, pools, left, seg, conn_len, cfg)
        used.update(conn)
        connectors.append(conn)
        left = seg

    spare = {v for u in u_sets for v in u if v not in used}
    absorbed = absorb(graph, p_abs, sorted(spare))

    out: list[int] = [*connectors[0], *absorbed]
    for seg, conn in zip(paths + [()], connectors[1:]):
        out.extend(conn)
        out.extend(seg)
    result = tuple(out)
    if not is_path(graph, result, r):
        raise VerificationError("constructed spanning path is not a power-path")
    if set(result) != set(range(graph.n)) - anchors:
        raise VerificationError("constructed path does not span the host minus the anchors")
    if not is_walk(graph, ka + result + kb, r):
        raise VerificationError("constructed path does not join its anchors")
    return result


def _cut_paths(
    paths: Sequence[tuple[int, ...]], count: int, r: int
) -> list[tuple[int, ...]]:
    """`paths` cut into `count` pieces: the longest path, in half at a clique
    boundary, until there are `count`.  Each path of a cover runs through
    transversal cliques in part order, so both pieces of a cut are properly
    terminated power-paths.  Raises InfeasibleError when no path has two
    cliques left to cut."""
    out = list(paths)
    while len(out) < count:
        i = max(range(len(out)), key=lambda j: len(out[j]), default=None)
        if i is None or len(out[i]) < 2 * r:
            raise InfeasibleError(
                f"cover of {len(out)} paths has no path of two cliques to cut into {count}"
            )
        p = out[i]
        cut = len(p) // (2 * r) * r
        out[i:i + 1] = [p[:cut], p[cut:]]
    return out


def _constructive_group_path(
    group: MultipartiteGraph,
    clique_a: Sequence[int],
    clique_b: Sequence[int],
    mode: str,
    cfg: Config,
    report: PipelineReport,
    label: str,
) -> tuple[int, ...] | None:
    """The constructive spanning path of a balanced group between anchors,
    recorded as stage `label`.  A failed build is recorded as stage
    `label:constructive`; in constructive mode it ends the run, flagging a
    spent budget."""
    try:
        path = constructive_ham_path_between(group, clique_a, clique_b, cfg)
    except (InfeasibleError, SearchExhaustedError, CoverageError) as exc:
        report.add(f"{label}:constructive", False, str(exc))
        if mode == "constructive":
            report.budget_exceeded = isinstance(exc, BudgetExhaustedError)
        return None
    report.add(label, True, "constructive")
    return path


def run_pipeline(
    graph: MultipartiteGraph,
    cfg: Config,
    mode: str = "auto",
    budget: SearchBudget | None = None,
) -> PipelineReport:
    """Reduce, sequence, build per-group spanning paths, splice, and verify;
    auto mode falls back to the exact oracles where the build fails, and
    oracle mode runs only the whole-graph oracle on the host.

    A host with no vertices gets the empty cycle in every mode.  The report
    records every stage; the final cycle is only accepted after the
    independent cyclic-window verifier passes on the original graph.
    """
    if mode not in ("constructive", "oracle", "auto"):
        raise GraphValidationError(f"unknown mode {mode!r}")
    budget = budget or SearchBudget()
    report = PipelineReport()
    r = cfg.r

    oversized = independence_necessity(graph, r)
    if oversized is not None:
        report.add(
            "independence", False,
            f"part {oversized} larger than n/r: no spanning power-cycle exists",
        )
        return report
    report.add("independence", True)

    if graph.n == 0:
        # the empty cycle spans the empty host, as the oracle answers; there
        # is nothing to reduce or cut, and the verifier still checks it
        cycle: tuple[int, ...] | None = ()
    elif mode == "oracle":
        cycle = _whole_graph_oracle(graph, cfg, budget, report)
    else:
        try:
            reduced = reduce_parts(graph, r)
        except (GraphValidationError, InfeasibleError) as exc:
            report.add("reduce", False, str(exc))
            return report
        report.add("reduce", True, f"k'={reduced.k}, sizes={[len(p) for p in reduced.parts]}")
        # Constructive stages work on the reduced graph (a subgraph, so their
        # cycles carry over); oracle fallbacks must search the original,
        # because the reduction deletes edges a cycle might need.
        if reduced.k == r:
            cycle = _balanced_case(reduced, graph, mode, cfg, budget, report)
        else:
            cycle = _sequenced_case(reduced, graph, mode, cfg, budget, report)
    if cycle is None:
        return report

    ok, reason, _ = verify_ham_power_cycle_report(graph, cycle, r)
    report.add("verify", ok, reason)
    if ok:
        report.cycle = cycle
    return report


def _balanced_case(
    graph: MultipartiteGraph,
    original: MultipartiteGraph,
    mode: str,
    cfg: Config,
    budget: SearchBudget,
    report: PipelineReport,
) -> tuple[int, ...] | None:
    """k' == r: one balanced group; close a cycle through an anchor clique,
    or in auto mode ask the oracle for a cycle of the whole host."""
    r = cfg.r
    try:
        ka = next(window_paths(graph, graph.part_sets, set(), r), None)
    except BudgetExhaustedError as exc:
        report.add("anchor", False, str(exc))
        report.budget_exceeded = mode == "constructive"
    else:
        if ka is None:
            report.add("anchor", False, "no transversal clique exists")
        else:
            path = _constructive_group_path(graph, ka, ka, mode, cfg, report, "group_path")
            if path is not None:
                return ka + path
    if mode == "constructive":
        return None
    return _whole_graph_oracle(original, cfg, budget, report)


def _sequenced_case(
    graph: MultipartiteGraph,
    original: MultipartiteGraph,
    mode: str,
    cfg: Config,
    budget: SearchBudget,
    report: PipelineReport,
) -> tuple[int, ...] | None:
    """k' > r: cut into balanced groups and stitch the per-group paths."""
    r = cfg.r
    try:
        plan, plan_report = run_sequencing(graph, cfg)
    except (SearchExhaustedError, InfeasibleError) as exc:
        # the reduced host passed every size check sequencing makes, so a
        # GraphValidationError here, like a VerificationError such as a plan
        # failing a structural condition, is a fault of the construction: it
        # propagates, never hidden by a fallback
        report.add("sequencing", False, str(exc))
        report.budget_exceeded = mode == "constructive" and isinstance(exc, BudgetExhaustedError)
        # constructive mode never hands the whole graph to the oracle
        if mode == "constructive":
            return None
        return _whole_graph_oracle(original, cfg, budget, report)
    report.add(
        "sequencing", True,
        f"ell={plan.ell}, measured group slack {plan_report.measured_group_slack}",
    )

    # group j runs from bridge j to bridge j+1, the last group back to p0
    bridges = (plan.p0, *plan.connectors)
    out: list[int] = []
    for j, (before, cells) in enumerate(zip(bridges, plan.groups)):
        after = bridges[(j + 1) % len(bridges)]
        sub, old_ids = induced_subgraph(graph, cells)
        back = {old: new for new, old in enumerate(old_ids)}
        ka = tuple(back[v] for v in before[-r:])
        kb = tuple(back[v] for v in after[:r])
        label = f"group_path[{j}]"
        q = _constructive_group_path(sub, ka, kb, mode, cfg, report, label)
        if q is None and mode == "auto":
            res = ham_power_path_between(sub, r, ka, kb, budget)
            q = report.add_oracle(label, res, f"oracle ({res.nodes} nodes)")
            if q is None and not report.budget_exceeded:
                # a no through these fixed anchors does not certify anything
                # about the whole graph; auto mode retries without the cutting
                return _whole_graph_oracle(original, cfg, budget, report)
        if q is None:
            return None
        out.extend(before)
        out.extend(old_ids[v] for v in q)
    return tuple(out)


def _whole_graph_oracle(
    graph: MultipartiteGraph,
    cfg: Config,
    budget: SearchBudget,
    report: PipelineReport,
) -> tuple[int, ...] | None:
    res = ham_power_cycle_exists(graph, cfg.r, budget)
    return report.add_oracle("whole_graph_oracle", res, f"{res.nodes} nodes")
