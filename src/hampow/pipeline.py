"""End-to-end cycle assembly: part reduction, sequencing into balanced groups,
per-group spanning paths (constructive machinery with exact-oracle fallback),
splicing, and independent verification.

The constructive per-group builder follows the balanced-case argument: absorbing
path, reservoir sets, a perfect path cover of the rest, connectors inside the
reservoir, then absorption of the reservoir vertices the connectors left over,
one r-set per gadget.  Its constants do not scale down to tiny instances;
when the exact vertex accounting does not fit it reports scale-infeasibility and
the caller may fall back to the exhaustive oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import ceil
from typing import Sequence

from .absorber import absorb, assemble_absorbing_path
from .connect import default_connector_length, find_connector
from .errors import (
    CoverageError,
    GraphValidationError,
    InfeasibleError,
    ScaleInfeasibleError,
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
)
from .paths import VertexSeq, is_path, is_walk, verify_ham_power_cycle_report
from .sequencing import SequencingResult, Stage, run_sequencing
from .tiling import cover_with_paths, iter_cliques


@dataclass
class PipelineReport:
    stages: list[Stage] = field(default_factory=list)
    cycle: VertexSeq | None = None
    budget_exceeded: bool = False

    @property
    def ok(self) -> bool:
        return self.cycle is not None and all(s.ok for s in self.stages if s.name == "verify")

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.stages.append(Stage(name, ok, detail))

    def add_oracle(self, name: str, res: OracleResult, found: str) -> VertexSeq | None:
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
            "cycle": self.cycle.to_json() if self.cycle else None,
        }


def constructive_ham_path_between(
    graph: MultipartiteGraph,
    clique_a: Sequence[int],
    clique_b: Sequence[int],
    cfg: Config,
) -> VertexSeq:
    """Spanning power-path of graph minus the anchors, built constructively.

    The absorbing path's gadgets absorb one r-set each, and the reservoir holds
    exactly that many spare r-sets beyond what its connectors use, so the cover
    of the rest must be perfect.  Raises ScaleInfeasibleError when the exact
    accounting (anchors + absorbing path + reservoir) cannot fit in the parts.
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
    # One gadget suffices for r=2; longer connectors need more reservoir slack
    # at the seams, and the slack must be absorbable (r vertices per gadget).
    g_target = 1 if r == 2 else 2 * r - 3

    minimum = (
        anchors_per_part
        + g_target * gadget_per_part
        + (g_target - 1) * per_part_conn
        + 2 * per_part_conn
        + g_target
    )
    if m_part < minimum:
        raise ScaleInfeasibleError(
            f"constants infeasible at this scale: parts of size {m_part} cannot hold "
            f"the absorbing machinery (needs at least {minimum} per part)"
        )

    p_abs = assemble_absorbing_path(graph, anchors, cfg, g_target)
    on_abs = set(p_abs.path.vertices)
    slack = len(p_abs.gadgets)

    free0 = [
        [v for v in part if v not in anchors and v not in on_abs]
        for part in graph.parts
    ]

    u_sets: list[list[int]] = []
    m_paths = 0
    for _ in range(6):
        u_size = (m_paths + 2) * per_part_conn + slack
        if any(len(f) < u_size for f in free0):
            raise ScaleInfeasibleError(
                f"constants infeasible at this scale: reservoir of {u_size} per part "
                f"does not fit"
            )
        u_sets = _sample_reservoir(graph, free0, u_size, cfg)
        rest = [
            [v for v in f if v not in set(u)] for f, u in zip(free0, u_sets)
        ]
        sub, old_ids = induced_subgraph(graph, rest)
        # every gadget absorbs a spare reservoir r-set, so none is left to
        # absorb a cover leftover: the cover must be perfect
        cover = cover_with_paths(sub, r, Fraction(0), cfg)
        paths = [VertexSeq(tuple(old_ids[v] for v in p.vertices), r) for p in cover.paths]
        if len(paths) == m_paths:
            break
        m_paths = len(paths)
    else:
        raise ScaleInfeasibleError("cover size did not stabilize against the reservoir")

    segments: list[VertexSeq] = [p_abs.path] + paths
    used: set[int] = set()
    connectors: list[VertexSeq] = []
    left = VertexSeq(ka, r)
    for seg in segments + [VertexSeq(kb, r)]:
        pools = [
            [v for v in u if v not in used] for u in u_sets
        ]
        conn = find_connector(graph, pools, left, seg, conn_len, used, cfg)
        used.update(conn.vertices)
        connectors.append(conn)
        left = left.concat(conn).concat(seg)

    spare = {v for u in u_sets for v in u if v not in used}
    absorbed = absorb(graph, p_abs, sorted(spare))

    out: list[int] = list(connectors[0].vertices) + list(absorbed.vertices)
    for seg, conn in zip(paths + [None], connectors[1:]):
        out.extend(conn.vertices)
        if seg is not None:
            out.extend(seg.vertices)
    result = VertexSeq(tuple(out), r)
    if not is_path(graph, result):
        raise VerificationError("constructed spanning path is not a power-path")
    if set(result.vertices) != set(range(graph.n)) - anchors:
        raise VerificationError("constructed path does not span the host minus the anchors")
    if not is_walk(graph, VertexSeq(ka + result.vertices + kb, r)):
        raise VerificationError("constructed path does not join its anchors")
    return result


def _sample_reservoir(
    graph: MultipartiteGraph,
    free: Sequence[Sequence[int]],
    u_size: int,
    cfg: Config,
) -> list[list[int]]:
    """Per-part reservoir subsets satisfying the proportional-degree condition:
    every vertex outside part i has at least (1 - 1/r + nu) * u_size
    neighbours in reservoir i."""
    r = cfg.r
    # an int count reaches the rational bound exactly when it reaches its ceiling
    need = ceil((1 - Fraction(1, r) + cfg.nu) * u_size)
    outside = [[v for v in range(graph.n) if graph.part_of(v) != i] for i in range(r)]
    adj = graph.adj
    rng = cfg.rng("reservoir")
    last = None
    for _ in range(cfg.retry_limit):
        u_sets = [sorted(rng.sample(list(f), u_size)) for f in free]
        for i, u in enumerate(u_sets):
            uset = set(u)
            last = next(((v, i) for v in outside[i] if len(adj[v] & uset) < need), None)
            if last is not None:
                break
        else:
            return u_sets
    raise SearchExhaustedError(
        f"reservoir degree condition failed for {cfg.retry_limit} samples "
        f"(last violation: vertex {last[0]} into part {last[1]})"
    )


def _per_group_path(
    group: MultipartiteGraph,
    clique_a: Sequence[int],
    clique_b: Sequence[int],
    mode: str,
    cfg: Config,
    budget: SearchBudget,
    report: PipelineReport,
    label: str,
) -> VertexSeq | None:
    """Spanning path of a balanced group between anchors, honoring the mode."""
    if mode in ("constructive", "auto"):
        try:
            path = constructive_ham_path_between(group, clique_a, clique_b, cfg)
            report.add(label, True, "constructive")
            return path
        except (ScaleInfeasibleError, InfeasibleError, SearchExhaustedError, CoverageError) as exc:
            if mode == "constructive":
                report.add(label, False, f"constructive: {exc}")
                return None
            report.add(f"{label}:constructive", False, str(exc))
    res = ham_power_path_between(group, cfg.r, clique_a, clique_b, budget)
    return report.add_oracle(label, res, f"oracle ({res.nodes} nodes)")


def run_pipeline(
    graph: MultipartiteGraph,
    cfg: Config,
    mode: str = "auto",
    relaxed: bool = False,
    budget: SearchBudget | None = None,
) -> PipelineReport:
    """Reduce, sequence, build per-group spanning paths, splice, and verify.

    The report records every stage; the final cycle is only accepted after the
    independent cyclic-window verifier passes on the original graph.
    """
    if mode not in ("constructive", "oracle", "auto"):
        raise GraphValidationError(f"unknown mode {mode!r}")
    budget = budget or SearchBudget()
    report = PipelineReport()
    r = cfg.r

    check = independence_necessity(graph, r)
    if not check.passed:
        report.add(
            "independence", False,
            f"part {check.part} larger than n/r: no spanning power-cycle exists",
        )
        return report
    report.add("independence", True)

    try:
        reduced, part_map = reduce_parts(graph, r, tiny=cfg.gamma / (2 * r))
    except (GraphValidationError, InfeasibleError) as exc:
        report.add("reduce", False, str(exc))
        return report
    report.add("reduce", True, f"k'={reduced.k}, sizes={[len(p) for p in reduced.parts]}")

    # Constructive stages work on the reduced graph (a subgraph, so their
    # cycles carry over); oracle fallbacks must search the original, because
    # the reduction deletes edges a cycle might need.
    if reduced.k == r:
        cycle = _balanced_case(reduced, graph, mode, cfg, budget, report)
    else:
        cycle = _sequenced_case(reduced, graph, mode, relaxed, cfg, budget, report)
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
) -> VertexSeq | None:
    """k' == r: one balanced group; close a cycle through an anchor clique."""
    r = cfg.r
    if mode in ("constructive", "auto"):
        ka = next(iter_cliques(graph, r), None)
        if ka is None:
            report.add("anchor", False, "no transversal clique exists")
            if mode == "constructive":
                return None
        else:
            try:
                path = constructive_ham_path_between(graph, ka, ka, cfg)
                report.add("group_path", True, "constructive")
                return VertexSeq(ka + path.vertices, r)
            except (ScaleInfeasibleError, InfeasibleError, SearchExhaustedError, CoverageError) as exc:
                report.add("group_path:constructive", False, str(exc))
                if mode == "constructive":
                    return None
    res = ham_power_cycle_exists(original, r, budget)
    return report.add_oracle("group_path", res, f"oracle ({res.nodes} nodes)")


def _sequenced_case(
    graph: MultipartiteGraph,
    original: MultipartiteGraph,
    mode: str,
    relaxed: bool,
    cfg: Config,
    budget: SearchBudget,
    report: PipelineReport,
) -> VertexSeq | None:
    """k' > r: cut into balanced groups and stitch the per-group paths."""
    r = cfg.r
    seq: SequencingResult | None = None
    last_exc: Exception | None = None
    for attempt in range(3):
        try:
            seq = run_sequencing(
                graph,
                cfg if attempt == 0 else replace(cfg, seed=cfg.seed + attempt),
                relaxed=relaxed,
            )
            break
        except SearchExhaustedError as exc:
            # only a spent search budget may go another way under a new seed
            last_exc = exc
        except (GraphValidationError, InfeasibleError, ScaleInfeasibleError) as exc:
            # template arithmetic, precondition P1 and the residual bounds do
            # not depend on the seed; a VerificationError is a fault of the
            # construction: it propagates instead of being retried or hidden
            last_exc = exc
            break
    if seq is None:
        failure = str(last_exc)
    else:
        bad = next((c for c in seq.report.conditions if c.name != "A2" and not c.ok), None)
        failure = None if bad is None else f"{bad.name}: {bad.detail}"
    if failure is not None:
        report.add("sequencing", False, failure)
        # constructive mode never hands the whole graph to the oracle
        if mode == "constructive":
            return None
        return _whole_graph_fallback(original, cfg, budget, report)
    report.add(
        "sequencing", True,
        f"ell={seq.plan.ell}, measured group slack {seq.report.measured_group_slack}",
    )

    plan = seq.plan
    ell = plan.ell
    pieces: list[VertexSeq] = [plan.p0]
    for j in range(ell):
        cells = plan.group_cells(j)
        sub, old_ids = induced_subgraph(graph, cells)
        back = {old: new for new, old in enumerate(old_ids)}
        before = plan.p0 if j == 0 else plan.connectors[j - 1]
        after = plan.p0 if j == ell - 1 else plan.connectors[j]
        ka = tuple(back[v] for v in before.vertices[-r:])
        kb = tuple(back[v] for v in after.vertices[:r])
        q = _per_group_path(sub, ka, kb, mode, cfg, budget, report, f"group_path[{j}]")
        if q is None:
            # a failure through these fixed anchors does not certify anything
            # about the whole graph; auto mode retries without the cutting
            if mode == "auto" and not report.budget_exceeded:
                return _whole_graph_fallback(original, cfg, budget, report)
            return None
        pieces.append(VertexSeq(tuple(old_ids[v] for v in q.vertices), r))
        if j < ell - 1:
            pieces.append(plan.connectors[j])
    return VertexSeq(tuple(v for p in pieces for v in p.vertices), r)


def _whole_graph_fallback(
    graph: MultipartiteGraph,
    cfg: Config,
    budget: SearchBudget,
    report: PipelineReport,
) -> VertexSeq | None:
    res = ham_power_cycle_exists(graph, cfg.r, budget)
    return report.add_oracle("whole_graph_oracle", res, f"{res.nodes} nodes")
