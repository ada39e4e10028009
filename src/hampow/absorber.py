"""Absorber gadgets: the two-routing blow-up path that can swallow a balanced
r-set, the search for one embedded copy per target r-set, the absorbing path,
which is one embedded gadget in its passive routing, and the absorption
itself, which switches that gadget to its active routing through the one
leftover r-set.

A gadget is a blow-up of a properly ordered path on r*r cells; cell (i,j) lives
in part i and has three slots a/b/c except the diagonal cells, which have two
(a/c).  The passive routing visits every slot; the active routing additionally
threads the absorbed vertex x_i through row i.  Both routings share their first
and last r slots, so swapping one for the other is invisible at the seams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

from .errors import CoverageError, GraphValidationError, InfeasibleError, VerificationError
from .graphs import Config, MultipartiteGraph, require_power, shuffle
from .oracle import DepthFirst, SearchBudget
from .paths import is_path, is_properly_terminated

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
    violation = gadget_violation(template)
    if violation is not None:
        raise InfeasibleError(f"generated gadget for r={r} fails verification: {violation}")
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


def gadget_violation(template: GadgetTemplate) -> str | None:
    """First failing condition of the gadget, or None when both routings are
    power-paths of the blow-up with matching terminal r-tuples."""
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
    return is_path(graph, inst.q1_vertices(), r) and is_path(graph, slots, r)


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
        shuffle(rng, pool)
        return pool

    for slots in DepthFirst(candidates, SearchBudget().node_limit):
        inst = AbsorberInstance(template=template, slots=slots, target=xs)
        if not verify_instance(graph, inst):
            raise VerificationError("embedded gadget fails its template check")
        return [inst]
    return []


@dataclass(frozen=True)
class AbsorbingPath:
    """One gadget in its passive routing: a properly terminated power-path
    that absorbs one r-set, namely one whose vertex in part i lies in
    cover[i] for every i.  `gadgets` holds that gadget's embedding alone."""

    gadgets: tuple[AbsorberInstance]
    cover: tuple[frozenset[int], ...]  # per part: vertices whose neighborhood spans the row

    @property
    def path(self) -> tuple[int, ...]:
        return self.gadgets[0].slots


def assemble_absorbing_path(
    graph: MultipartiteGraph,
    reservoir_exclusions: Iterable[int],
    cfg: Config,
) -> AbsorbingPath:
    """Embed one gadget off the exclusions, for one seeded target r-set.

    The path records, per part, the vertices off it that its gadget could absorb;
    whether the leftover can actually be absorbed is decided by `absorb` once
    that leftover exists.
    """
    r = cfg.r
    if graph.k != r:
        raise GraphValidationError("absorbing path assembly expects an r-partite host")

    excluded = frozenset(reservoir_exclusions)
    free = [[v for v in part if v not in excluded] for part in graph.parts]
    found: list[AbsorberInstance] = []
    if all(free):
        rng = cfg.rng("assemble")
        found = find_absorbers(graph, tuple(rng.choice(f) for f in free), cfg, avoid=excluded)
    if not found:
        raise CoverageError("coverage shortfall: no gadget could be embedded within budget")

    (inst,) = found
    on_path = set(inst.slots)
    cover = tuple(
        graph.part_sets[i].intersection(*(
            graph.adj[v] for lab, v in zip(inst.template.q2, inst.slots)
            if lab[2] == i + 1 and _attached(lab)
        )) - on_path
        for i in range(r)
    )
    result = AbsorbingPath(gadgets=(inst,), cover=cover)
    p = result.path
    if not (is_path(graph, p, r) and is_properly_terminated(graph, p, r)):
        raise VerificationError("assembled absorbing path is not a properly terminated path")
    return result


def absorb(
    graph: MultipartiteGraph, p_abs: AbsorbingPath, z: Iterable[int]
) -> tuple[int, ...]:
    """Splice a balanced r-set into the absorbing path by switching its gadget
    from the passive to the active routing.

    This is the coverage check: CoverageError means a vertex of the r-set
    lies outside its part's `cover`, so the gadget cannot absorb it.  The
    result is a power-path on V(path) + Z with the same initial and final r
    vertices.
    """
    (inst,) = p_abs.gadgets
    r = inst.template.r
    zs = sorted(set(z))
    base = p_abs.path
    on_path = set(base)
    if on_path & set(zs):
        raise GraphValidationError("absorbed set must be disjoint from the absorbing path")
    by_part: list[list[int]] = [[] for _ in range(r)]
    for v in zs:
        by_part[graph.part_of(v)].append(v)
    sizes = {len(vs) for vs in by_part}
    if len(sizes) != 1:
        raise GraphValidationError("absorbed set must be balanced across the parts")
    if len(zs) != r:
        raise GraphValidationError(f"absorbed set of size {len(zs)} differs from capacity {r}")

    rset = tuple(vs[0] for vs in by_part)
    if any(v not in cov for v, cov in zip(rset, p_abs.cover)):
        raise CoverageError(
            f"coverage shortfall: the gadget does not absorb the balanced set {rset}"
        )

    result = AbsorberInstance(template=inst.template, slots=inst.slots, target=rset).q1_vertices()
    if not is_path(graph, result, r):
        raise VerificationError("absorbed path is not a power-path")
    if result[:r] != base[:r] or result[-r:] != base[-r:]:
        raise VerificationError("absorption moved the ends of the absorbing path")
    if set(result) != on_path | set(zs):
        raise VerificationError("absorbed path does not cover its path and the absorbed vertices")
    return result
