"""Absorber gadgets: the two-routing blow-up path that can swallow a balanced
r-set, search for embedded copies, assembly into one absorbing path, and the
absorption itself.

A gadget is a blow-up of a properly ordered path on r*r cells; cell (i,j) lives
in part i and has three slots a/b/c except the diagonal cells, which have two
(a/c).  The passive routing visits every slot; the active routing additionally
threads the absorbed vertex x_i through row i.  Both routings share their first
and last r slots, so swapping one for the other is invisible at the seams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from math import ceil
from typing import Iterable, Sequence

from .connect import default_connector_length, find_connector
from .errors import CoverageError, GraphValidationError, InfeasibleError, VerificationError
from .graphs import Config, MultipartiteGraph, degree_profile
from .paths import VertexSeq, is_path, is_properly_terminated

# A label is ("a"|"b"|"c", part i, block j) for slots, or ("x", i) for the
# absorbed vertices; i and j are 1-based as in the slot names a_i^j.
Label = tuple


def label_str(label: Label) -> str:
    if label[0] == "x":
        return f"x_{label[1]}"
    return f"{label[0]}_{label[1]}^{label[2]}"


def label_part(label: Label) -> int:
    """0-based part index of the label."""
    return label[1] - 1


def _slot_labels(r: int, i: int, j: int) -> list[Label]:
    letters = ("a", "c") if i == j else ("a", "b", "c")
    return [(ch, i, j) for ch in letters]


@dataclass(frozen=True)
class GadgetTemplate:
    """The two label routings of the absorber gadget for a given r."""

    r: int
    q1: tuple[Label, ...]
    q2: tuple[Label, ...]

    def __post_init__(self):
        r = self.r
        if len(self.q2) != 3 * r * r - r:
            raise InfeasibleError(f"passive routing must have {3 * r * r - r} labels")
        if len(self.q1) != len(self.q2) + r:
            raise InfeasibleError("active routing must have exactly r extra labels")
        if self.q1[:r] != self.q2[:r] or self.q1[-r:] != self.q2[-r:]:
            raise InfeasibleError("the two routings must share their first and last r labels")

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "q1": [label_str(l) for l in self.q1],
            "q2": [label_str(l) for l in self.q2],
        }


@cache
def build_gadget(r: int) -> GadgetTemplate:
    """Emit the two routings exactly per the construction.

    Active block i: a-row, then the b-row with x_i in place of the missing b_i^i,
    then the c-row.  Passive: T_1 .. T_r with the interleaved a/c hand-off
    between consecutive blocks.  The template depends on r alone and is built
    and verified once per r.
    """
    if r < 2:
        raise GraphValidationError("gadgets need r >= 2")
    q1: list[Label] = []
    for i in range(1, r + 1):
        q1 += [("a", h, i) for h in range(1, r + 1)]
        q1 += [("b", h, i) for h in range(1, i)]
        q1.append(("x", i))
        q1 += [("b", h, i) for h in range(i + 1, r + 1)]
        q1 += [("c", h, i) for h in range(1, r + 1)]

    q2: list[Label] = []
    # T_1
    q2 += [("a", h, 1) for h in range(1, r + 1)]
    q2.append(("c", 1, 1))
    q2 += [("b", h, 1) for h in range(2, r + 1)]
    q2.append(("a", 1, 2))
    q2 += [("c", h, 1) for h in range(2, r + 1)]
    # T_i for 2 <= i <= r-1
    for i in range(2, r):
        q2 += [("b", h, i) for h in range(1, i)]
        q2 += [("a", h, i) for h in range(i, r + 1)]
        q2 += [("c", h, i) for h in range(1, i + 1)]
        q2 += [("b", h, i) for h in range(i + 1, r + 1)]
        q2 += [("a", h, i + 1) for h in range(1, i + 1)]
        q2 += [("c", h, i) for h in range(i + 1, r + 1)]
    # T_r
    q2 += [("b", h, r) for h in range(1, r)]
    q2.append(("a", r, r))
    q2 += [("c", h, r) for h in range(1, r + 1)]

    template = GadgetTemplate(r=r, q1=tuple(q1), q2=tuple(q2))
    if not verify_gadget(template):
        raise InfeasibleError(f"generated gadget for r={r} fails verification")
    return template


def _blowup_adjacent(r: int, u: Label, v: Label) -> bool:
    """Adjacency in the blow-up of the properly ordered r*r cell path, with the
    absorbed vertices attached to their rows."""
    if u == v:
        return False
    if u[0] == "x" and v[0] == "x":
        return False
    if u[0] == "x" or v[0] == "x":
        x, d = (u, v) if u[0] == "x" else (v, u)
        i = x[1]
        return d[2] == i and d[1] != i
    if (u[1], u[2]) == (v[1], v[2]):
        return False
    pos_u = (u[2] - 1) * r + u[1]
    pos_v = (v[2] - 1) * r + v[1]
    return abs(pos_u - pos_v) <= r - 1


def verify_gadget(template: GadgetTemplate) -> bool:
    """Materialize the blow-up and check both routings are power-paths with
    matching terminal r-tuples."""
    return gadget_violation(template) is None


def gadget_violation(template: GadgetTemplate) -> str | None:
    """First failing condition of the gadget, or None when it verifies."""
    r = template.r
    expected = {lab for i in range(1, r + 1) for j in range(1, r + 1)
                for lab in _slot_labels(r, i, j)}
    if set(template.q2) != expected or len(set(template.q2)) != len(template.q2):
        return "passive routing is not a permutation of the slots"
    if set(template.q1) != expected | {("x", i) for i in range(1, r + 1)}:
        return "active routing does not cover slots plus absorbed labels"
    if len(set(template.q1)) != len(template.q1):
        return "active routing repeats a label"
    if template.q1[:r] != template.q2[:r] or template.q1[-r:] != template.q2[-r:]:
        return "terminal r-tuples differ between routings"
    for name, seq in (("active", template.q1), ("passive", template.q2)):
        for t in range(1, len(seq)):
            for d in range(1, min(r - 1, t) + 1):
                if not _blowup_adjacent(r, seq[t - d], seq[t]):
                    return (
                        f"{name} routing window breaks between positions {t - d} and {t}: "
                        f"{label_str(seq[t - d])} !~ {label_str(seq[t])}"
                    )
    first_parts = [label_part(l) for l in template.q1[:r]]
    last_parts = [label_part(l) for l in template.q1[-r:]]
    if first_parts != list(range(r)) or last_parts != list(range(r)):
        return "terminal r-tuples do not traverse the parts in order"
    return None


@dataclass(frozen=True)
class AbsorberInstance:
    """An embedding of the gadget slots into a host graph for a target r-set."""

    template: GadgetTemplate
    assignment: tuple[tuple[Label, int], ...]  # slot label -> host vertex
    target: tuple[int, ...]  # x_1..x_r, one vertex per part in part order

    @cached_property
    def mapping(self) -> dict[Label, int]:
        return dict(self.assignment)

    def vertex_of(self, label: Label) -> int:
        if label[0] == "x":
            return self.target[label[1] - 1]
        return self.mapping[label]

    def q1_vertices(self) -> tuple[int, ...]:
        return tuple(self.vertex_of(l) for l in self.template.q1)

    def q2_vertices(self) -> tuple[int, ...]:
        return tuple(self.vertex_of(l) for l in self.template.q2)


@cache
def _earlier_neighbours(template: GadgetTemplate) -> tuple[tuple[int, ...], ...]:
    """Per position of the passive routing: the earlier positions whose slots
    the blow-up makes adjacent to its slot."""
    r, slots = template.r, template.q2
    return tuple(
        tuple(p for p in range(idx) if _blowup_adjacent(r, slots[p], lab))
        for idx, lab in enumerate(slots)
    )


def verify_instance(graph: MultipartiteGraph, inst: AbsorberInstance) -> bool:
    """Re-check an embedding adjacency-by-adjacency against the host graph."""
    r = inst.template.r
    m = inst.mapping
    if len(set(m.values())) != len(m):
        return False
    if set(m.values()) & set(inst.target):
        return False
    for label, v in m.items():
        if graph.part_of(v) != label_part(label):
            return False
    for i, x in enumerate(inst.target):
        if graph.part_of(x) != i:
            return False
    slots = inst.template.q2
    if m.keys() != set(slots):
        return False
    for lab, earlier in zip(slots, _earlier_neighbours(inst.template)):
        nb = graph.adj[m[lab]]
        if any(m[slots[p]] not in nb for p in earlier):
            return False
    for i in range(1, r + 1):
        x = inst.target[i - 1]
        for h in range(1, r + 1):
            if h == i:
                continue
            for lab in _slot_labels(r, h, i):
                if m[lab] not in graph.adj[x]:
                    return False
    return is_path(graph, VertexSeq(inst.q1_vertices(), r)) and is_path(
        graph, VertexSeq(inst.q2_vertices(), r)
    )


def find_absorbers(
    graph: MultipartiteGraph,
    target: Sequence[int],
    limit: int | None,
    cfg: Config,
    avoid: Iterable[int] = (),
) -> list[AbsorberInstance]:
    """Backtracking embeddings of the gadget for the given balanced r-set.

    Each slot's candidates are the free vertices of its part adjacent to the
    slot's absorbed vertex and to every earlier slot it must touch, in ascending
    vertex order; when limit is None (exhaustive count) they are visited in that
    order, otherwise in that order shuffled by the seeded rng.  Instances avoid
    the target set and `avoid` but may overlap each other.
    """
    r = cfg.r
    if graph.k != r:
        raise GraphValidationError("absorber embedding expects an r-partite host")
    x_by_part: dict[int, int] = {}
    for v in target:
        x_by_part[graph.part_of(v)] = v
    if sorted(x_by_part) != list(range(r)) or len(target) != r:
        raise GraphValidationError("target must contain exactly one vertex per part")
    xs = tuple(x_by_part[i] for i in range(r))

    template = build_gadget(r)
    slots = template.q2  # every slot label, in position order
    earlier = _earlier_neighbours(template)

    rng = cfg.rng(f"absorber:{xs}")
    blocked = set(xs) | set(avoid)
    adj = graph.adj
    # per slot: its part's vertices off the blocked set, narrowed to the
    # neighbours of the absorbed vertex its row attaches to
    base = []
    for lab in slots:
        free = graph.part_sets[label_part(lab)] - blocked
        base.append(free & adj[xs[lab[2] - 1]] if lab[1] != lab[2] else free)
    out: list[AbsorberInstance] = []
    chosen: list[int] = []  # chosen[p]: the host vertex of slot p

    def candidates(idx: int) -> list[int]:
        fit = base[idx].intersection(*(adj[chosen[p]] for p in earlier[idx]))
        pool = sorted(fit.difference(chosen))
        if limit is not None:
            rng.shuffle(pool)
        return pool

    def backtrack(idx: int) -> bool:
        if limit is not None and len(out) >= limit:
            return True
        if idx == len(slots):
            inst = AbsorberInstance(
                template=template,
                assignment=tuple(sorted(zip(slots, chosen))),
                target=xs,
            )
            if not verify_instance(graph, inst):
                raise VerificationError("embedded gadget fails its template check")
            out.append(inst)
            return limit is not None and len(out) >= limit
        for v in candidates(idx):
            chosen.append(v)
            if backtrack(idx + 1):
                return True
            chosen.pop()
        return False

    backtrack(0)
    return out


@dataclass(frozen=True)
class PlacedGadget:
    """A kept gadget: its embedding plus which r-sets it can still absorb,
    namely those whose vertex in part i lies in cover[i] for every i."""

    instance: AbsorberInstance
    cover: tuple[frozenset[int], ...]  # per part: vertices whose neighborhood spans the row


@dataclass(frozen=True)
class AbsorbingPath:
    """Pairwise disjoint gadgets joined by connector paths into one properly
    terminated power-path, with the bookkeeping needed to absorb later."""

    r: int
    segments: tuple[tuple[str, int, tuple[int, ...]], ...]  # (kind, gadget idx or -1, vertices)
    gadgets: tuple[PlacedGadget, ...]

    @property
    def path(self) -> VertexSeq:
        out: list[int] = []
        for _, _, vs in self.segments:
            out.extend(vs)
        return VertexSeq(tuple(out), self.r)

    @property
    def capacity(self) -> int:
        """Vertices absorbable: r per gadget."""
        return self.r * len(self.gadgets)


def assemble_absorbing_path(
    graph: MultipartiteGraph,
    reservoir_exclusions: Iterable[int],
    cfg: Config,
    gadgets: int,
    budget: int = 64,
) -> AbsorbingPath:
    """Sample disjoint gadget embeddings and connect them into one absorbing path.

    Sampling stops once `gadgets` embeddings are kept or `budget` targets are
    spent; a path with fewer gadgets absorbs fewer r-sets.  Each kept gadget
    records, per part, the vertices off the path it could absorb; whether the
    leftover can actually be absorbed is decided by `absorb` once that leftover
    exists.
    """
    r, n = cfg.r, graph.n
    if graph.k != r:
        raise GraphValidationError("absorbing path assembly expects an r-partite host")
    if degree_profile(graph).delta_p < 1 - Fraction(1, r) + cfg.gamma:
        raise InfeasibleError("proportional minimum degree below 1 - 1/r + gamma")

    conn_len = default_connector_length(r)
    excluded = frozenset(reservoir_exclusions)

    rng = cfg.rng("assemble")
    used: set[int] = set()
    kept: list[AbsorberInstance] = []
    for _ in range(budget):
        if len(kept) == gadgets:
            break
        free = [
            [v for v in part if v not in used and v not in excluded]
            for part in graph.parts
        ]
        if any(not f for f in free):
            break
        target = tuple(rng.choice(f) for f in free)
        found = find_absorbers(graph, target, 1, cfg, avoid=used | excluded)
        if found:
            kept.append(found[0])
            used.update(found[0].q2_vertices())
    if not kept:
        raise CoverageError("coverage shortfall: no gadget could be embedded within budget")

    # Connector reservoirs are sampled subsets; small pools keep the exact DP
    # cheap while staying far above the per-connector consumption.
    pool_cap = max(ceil(cfg.nu * n), 2 * conn_len // r + 2)
    segments: list[tuple[str, int, tuple[int, ...]]] = []
    for idx, inst in enumerate(kept):
        if idx > 0:
            prev = VertexSeq(kept[idx - 1].q2_vertices(), r)
            nxt = VertexSeq(inst.q2_vertices(), r)
            u_sets = []
            for part in graph.parts:
                free = [v for v in part if v not in used and v not in excluded]
                rng.shuffle(free)
                u_sets.append(sorted(free[:pool_cap]))
            conn = find_connector(graph, u_sets, prev, nxt, conn_len, used | excluded, cfg)
            used.update(conn.vertices)
            segments.append(("connector", -1, conn.vertices))
        segments.append(("gadget", idx, inst.q2_vertices()))

    placed = []
    path_vertices = {v for _, _, vs in segments for v in vs}
    for inst in kept:
        cover = []
        for i in range(r):
            row = [inst.mapping[lab] for h in range(1, r + 1) if h != i + 1
                   for lab in _slot_labels(r, h, i + 1)]
            cover.append(graph.part_sets[i].intersection(*(graph.adj[u] for u in row))
                         - path_vertices)
        placed.append(PlacedGadget(instance=inst, cover=tuple(cover)))

    result = AbsorbingPath(r=r, segments=tuple(segments), gadgets=tuple(placed))
    p = result.path
    if not (is_path(graph, p) and is_properly_terminated(graph, p)):
        raise VerificationError("assembled absorbing path is not a properly terminated path")
    return result


def _assign_gadgets(
    gadgets: Sequence[PlacedGadget], by_part: Sequence[Sequence[int]]
) -> dict[int, tuple[int, ...]] | None:
    """Gadget index -> the r-set it absorbs, covering every vertex of by_part
    once, or None when no such assignment exists.

    Which r-sets a gadget absorbs is a product condition, so the vertices may
    be grouped into r-sets freely: a gadget set works exactly when, for every
    part i, the vertices of by_part[i] have a perfect matching into it along
    `cover[i]`.  Gadget sets are tried in index order, and each matching is
    grown by augmenting paths over by_part[i] in the order given.
    """
    q = len(by_part[0])
    for chosen in itertools.combinations(range(len(gadgets)), q):
        rows = []
        for i, zi in enumerate(by_part):
            row = _perfect_matching(zi, [gadgets[g].cover[i] for g in chosen])
            if row is None:
                break
            rows.append(row)
        else:
            return {g: tuple(row[j] for row in rows) for j, g in enumerate(chosen)}
    return None


def _perfect_matching(
    vertices: Sequence[int], covers: Sequence[frozenset[int]]
) -> dict[int, int] | None:
    """Slot -> vertex matching every vertex, where vertex v may take slot j
    when v is in covers[j], or None.

    Kuhn's augmenting paths, each vertex taking its first free slot when it
    has one, so that where every vertex fits every slot the k-th vertex gets
    the k-th slot.  A path visits each slot at most once, so the recursion is
    no deeper than len(covers).
    """
    owner: dict[int, int] = {}  # slot -> vertex

    def augment(v: int, seen: set[int]) -> bool:
        fits = [j for j, cov in enumerate(covers) if v in cov]
        free = next((j for j in fits if j not in owner), None)
        if free is not None:
            owner[free] = v
            return True
        for j in fits:
            if j not in seen:
                seen.add(j)
                if augment(owner[j], seen):
                    owner[j] = v
                    return True
        return False

    for v in vertices:
        if not augment(v, set()):
            return None
    return owner


def absorb(
    graph: MultipartiteGraph, p_abs: AbsorbingPath, z: Iterable[int]
) -> VertexSeq:
    """Splice a balanced set into the absorbing path by switching gadgets from
    their passive to their active routing.

    This is the coverage check: the set is split into r-sets and each is given
    its own gadget by an exact search (`_assign_gadgets`), and CoverageError
    means no grouping and choice of gadgets absorbs it.  The result is a
    power-path on V(path) + Z with the same initial and final r vertices.
    """
    r = p_abs.r
    zs = sorted(set(z))
    base = p_abs.path
    if not zs:
        return base
    on_path = set(base.vertices)
    if on_path & set(zs):
        raise GraphValidationError("absorbed set must be disjoint from the absorbing path")
    by_part: list[list[int]] = [[] for _ in range(r)]
    for v in zs:
        by_part[graph.part_of(v)].append(v)
    sizes = {len(vs) for vs in by_part}
    if len(sizes) != 1:
        raise GraphValidationError("absorbed set must be balanced across the parts")
    if len(zs) > p_abs.capacity:
        raise GraphValidationError(
            f"absorbed set of size {len(zs)} exceeds capacity {p_abs.capacity}"
        )

    taken = _assign_gadgets(p_abs.gadgets, by_part)
    if taken is None:
        raise CoverageError(
            f"coverage shortfall: no {len(zs) // r} of the {len(p_abs.gadgets)} gadgets "
            f"absorb the balanced set {tuple(zs)}"
        )

    out: list[int] = []
    for kind, idx, vs in p_abs.segments:
        if kind == "gadget" and idx in taken:
            inst = p_abs.gadgets[idx].instance
            routed = AbsorberInstance(
                template=inst.template,
                assignment=inst.assignment,
                target=taken[idx],
            )
            out.extend(routed.q1_vertices())
        else:
            out.extend(vs)
    result = VertexSeq(tuple(out), r)
    if not is_path(graph, result):
        raise VerificationError("absorbed path is not a power-path")
    if result.vertices[:r] != base.vertices[:r] or result.vertices[-r:] != base.vertices[-r:]:
        raise VerificationError("absorption moved the ends of the absorbing path")
    if set(result.vertices) != on_path | set(zs):
        raise VerificationError("absorbed path does not cover its path and the absorbed vertices")
    return result
