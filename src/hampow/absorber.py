"""Absorber gadgets: the two-routing blow-up path that can swallow a balanced
r-set, the search for one embedded copy per target r-set, assembly of a path of
gadgets and connectors, and the absorption itself, which gives every gadget one
r-set of the leftover.

A gadget is a blow-up of a properly ordered path on r*r cells; cell (i,j) lives
in part i and has three slots a/b/c except the diagonal cells, which have two
(a/c).  The passive routing visits every slot; the active routing additionally
threads the absorbed vertex x_i through row i.  Both routings share their first
and last r slots, so swapping one for the other is invisible at the seams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import ceil
from typing import Iterable, Sequence

from .connect import default_connector_length, find_connector
from .errors import CoverageError, GraphValidationError, InfeasibleError, VerificationError
from .graphs import Config, MultipartiteGraph, degree_profile, require_power
from .oracle import DepthFirst, SearchBudget
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
    require_power(r)
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
    slots: tuple[int, ...]  # the host vertex at each position of template.q2
    target: tuple[int, ...]  # x_1..x_r, one vertex per part in part order

    def q1_vertices(self) -> tuple[int, ...]:
        at = dict(zip(self.template.q2, self.slots))
        at.update((("x", i), x) for i, x in enumerate(self.target, 1))
        return tuple(at[l] for l in self.template.q1)


def _attached(lab: Label) -> bool:
    """Whether slot (letter, i, j) lies in row j off its diagonal cell, so
    that the absorbed vertex x_j must be adjacent to it."""
    return lab[1] != lab[2]


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
    labels, slots = inst.template.q2, inst.slots
    if len(slots) != len(labels) or len(set(slots)) != len(slots):
        return False
    if set(slots) & set(inst.target):
        return False
    if any(graph.part_of(v) != label_part(lab) for lab, v in zip(labels, slots)):
        return False
    if any(graph.part_of(x) != i for i, x in enumerate(inst.target)):
        return False
    for v, earlier in zip(slots, _earlier_neighbours(inst.template)):
        nb = graph.adj[v]
        if any(slots[p] not in nb for p in earlier):
            return False
    if any(_attached(lab) and v not in graph.adj[inst.target[lab[2] - 1]]
           for lab, v in zip(labels, slots)):
        return False
    return is_path(graph, VertexSeq(inst.q1_vertices(), r)) and is_path(
        graph, VertexSeq(slots, r)
    )


def find_absorbers(
    graph: MultipartiteGraph,
    target: Sequence[int],
    cfg: Config,
    avoid: Iterable[int] = (),
) -> list[AbsorberInstance]:
    """The first embedding of the gadget for the given balanced r-set, as a
    list of at most one.

    A depth-first search over the slots in passive-routing order, within the
    default search budget.  Each slot's candidates are the free vertices of
    its part adjacent to the slot's absorbed vertex and to every earlier slot
    it must touch, in ascending vertex order shuffled by the seeded rng.  The
    embedding avoids the target set and `avoid`.
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
    labels = template.q2  # every slot label, in position order
    blocked = set(xs) | set(avoid)
    free_in = [part - blocked for part in graph.part_sets]
    # a part holds r cells of three slots, the diagonal one of two
    if any(len(free) < 3 * r - 1 for free in free_in):
        return []
    earlier = _earlier_neighbours(template)

    rng = cfg.rng(f"absorber:{xs}")
    adj = graph.adj
    # per slot: its part's free vertices, narrowed to the neighbours of the
    # absorbed vertex its row attaches to
    base = []
    for lab in labels:
        free = free_in[label_part(lab)]
        base.append(free & adj[xs[lab[2] - 1]] if _attached(lab) else free)

    def candidates(chosen: list[int]) -> list[int] | None:  # chosen[p]: slot p's vertex
        idx = len(chosen)
        if idx == len(labels):
            return None
        fit = base[idx].intersection(*(adj[chosen[p]] for p in earlier[idx]))
        pool = sorted(fit.difference(chosen))
        rng.shuffle(pool)
        return pool

    for slots in DepthFirst(candidates, SearchBudget().node_limit):
        inst = AbsorberInstance(template=template, slots=slots, target=xs)
        if not verify_instance(graph, inst):
            raise VerificationError("embedded gadget fails its template check")
        return [inst]
    return []


@dataclass(frozen=True)
class PlacedGadget:
    """A kept gadget: its embedding plus which r-sets it can still absorb,
    namely those whose vertex in part i lies in cover[i] for every i."""

    instance: AbsorberInstance
    cover: tuple[frozenset[int], ...]  # per part: vertices whose neighborhood spans the row


def _chain(
    r: int, routings: Sequence[Sequence[int]], connectors: Sequence[Sequence[int]]
) -> VertexSeq:
    """The routings in order, connector j between routing j and routing j+1."""
    out = list(routings[0])
    for conn, routing in zip(connectors, routings[1:]):
        out += conn
        out += routing
    return VertexSeq(tuple(out), r)


@dataclass(frozen=True)
class AbsorbingPath:
    """Pairwise disjoint gadgets in their passive routing, joined into one
    properly terminated power-path: connector j runs from gadget j to gadget
    j+1."""

    r: int
    gadgets: tuple[PlacedGadget, ...]
    connectors: tuple[tuple[int, ...], ...]

    @property
    def path(self) -> VertexSeq:
        return _chain(self.r, [g.instance.slots for g in self.gadgets], self.connectors)

    @property
    def capacity(self) -> int:
        """Vertices absorbed: r per gadget."""
        return self.r * len(self.gadgets)


def assemble_absorbing_path(
    graph: MultipartiteGraph,
    reservoir_exclusions: Iterable[int],
    cfg: Config,
    gadgets: int,
) -> AbsorbingPath:
    """Sample disjoint gadget embeddings and connect them into one absorbing path.

    Sampling stops once `gadgets` embeddings are kept or 64 targets are spent;
    a path with fewer gadgets absorbs fewer r-sets.  Each kept gadget records,
    per part, the vertices off the path it could absorb; whether the leftover
    can actually be absorbed is decided by `absorb` once that leftover exists.
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
    for _ in range(64):
        if len(kept) == gadgets:
            break
        free = [
            [v for v in part if v not in used and v not in excluded]
            for part in graph.parts
        ]
        if any(not f for f in free):
            break
        target = tuple(rng.choice(f) for f in free)
        found = find_absorbers(graph, target, cfg, avoid=used | excluded)
        if found:
            kept.append(found[0])
            used.update(found[0].slots)
    if not kept:
        raise CoverageError("coverage shortfall: no gadget could be embedded within budget")

    # Connector reservoirs are sampled subsets; small pools keep the exact DP
    # cheap while staying far above the per-connector consumption.
    pool_cap = max(ceil(cfg.nu * n), 2 * conn_len // r + 2)
    connectors: list[tuple[int, ...]] = []
    for prev, nxt in zip(kept, kept[1:]):
        u_sets = []
        for part in graph.parts:
            free = [v for v in part if v not in used and v not in excluded]
            rng.shuffle(free)
            u_sets.append(sorted(free[:pool_cap]))
        conn = find_connector(graph, u_sets, VertexSeq(prev.slots, r), VertexSeq(nxt.slots, r),
                              conn_len, cfg)
        used.update(conn.vertices)
        connectors.append(conn.vertices)

    # `used` now holds exactly the path's vertices
    placed = []
    for inst in kept:
        cover = []
        for i in range(r):
            row = [v for lab, v in zip(inst.template.q2, inst.slots)
                   if lab[2] == i + 1 and _attached(lab)]
            cover.append(graph.part_sets[i].intersection(*(graph.adj[u] for u in row)) - used)
        placed.append(PlacedGadget(instance=inst, cover=tuple(cover)))

    result = AbsorbingPath(r=r, gadgets=tuple(placed), connectors=tuple(connectors))
    p = result.path
    if not (is_path(graph, p) and is_properly_terminated(graph, p)):
        raise VerificationError("assembled absorbing path is not a properly terminated path")
    return result


def _assign_gadgets(
    gadgets: Sequence[PlacedGadget], by_part: Sequence[Sequence[int]]
) -> list[tuple[int, ...]] | None:
    """The r-set each gadget absorbs, in gadget order, covering every vertex of
    by_part once, or None when there are no such r-sets.  Each by_part[i]
    holds one vertex per gadget.

    Which r-sets a gadget absorbs is a product condition, so the vertices may
    be grouped into r-sets freely: such r-sets exist exactly when, for every
    part i, the vertices of by_part[i] have a perfect matching onto the
    gadgets along `cover[i]`.  Each matching is grown by augmenting paths over
    by_part[i] in the order given.
    """
    rows = []
    for i, zi in enumerate(by_part):
        row = _perfect_matching(zi, [g.cover[i] for g in gadgets])
        if row is None:
            return None
        rows.append(row)
    return [tuple(row[j] for row in rows) for j in range(len(gadgets))]


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
    """Splice a balanced set holding one r-set per gadget into the absorbing
    path by switching every gadget from its passive to its active routing.

    This is the coverage check: `_assign_gadgets` gives each gadget its r-set
    through one perfect matching per part, and CoverageError means no grouping
    of the set into r-sets gives every gadget one it absorbs.  The result is a
    power-path on V(path) + Z with the same initial and final r vertices.
    """
    r = p_abs.r
    zs = sorted(set(z))
    base = p_abs.path
    on_path = set(base.vertices)
    if on_path & set(zs):
        raise GraphValidationError("absorbed set must be disjoint from the absorbing path")
    by_part: list[list[int]] = [[] for _ in range(r)]
    for v in zs:
        by_part[graph.part_of(v)].append(v)
    sizes = {len(vs) for vs in by_part}
    if len(sizes) != 1:
        raise GraphValidationError("absorbed set must be balanced across the parts")
    if len(zs) != p_abs.capacity:
        raise GraphValidationError(
            f"absorbed set of size {len(zs)} differs from capacity {p_abs.capacity}"
        )

    taken = _assign_gadgets(p_abs.gadgets, by_part)
    if taken is None:
        raise CoverageError(
            f"coverage shortfall: no {len(zs) // r} of the {len(p_abs.gadgets)} gadgets "
            f"absorb the balanced set {tuple(zs)}"
        )

    routings = [
        AbsorberInstance(template=g.instance.template, slots=g.instance.slots, target=rset)
        .q1_vertices()
        for g, rset in zip(p_abs.gadgets, taken)
    ]
    result = _chain(r, routings, p_abs.connectors)
    if not is_path(graph, result):
        raise VerificationError("absorbed path is not a power-path")
    if result.vertices[:r] != base.vertices[:r] or result.vertices[-r:] != base.vertices[-r:]:
        raise VerificationError("absorption moved the ends of the absorbing path")
    if set(result.vertices) != on_path | set(zs):
        raise VerificationError("absorbed path does not cover its path and the absorbed vertices")
    return result
