import itertools
import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from conftest import absorbable_by_brute_force, complete
from hampow.absorber import (
    AbsorberInstance,
    GadgetTemplate,
    PlacedGadget,
    _assign_gadgets,
    absorb,
    assemble_absorbing_path,
    build_gadget,
    find_absorbers,
    gadget_violation,
    label_part,
    label_str,
    verify_gadget,
    verify_instance,
)
from hampow.errors import CoverageError, GraphValidationError
from hampow.graphs import Config, MultipartiteGraph
from hampow.paths import VertexSeq, is_path, is_properly_terminated

EXAMPLE_Q1 = (
    "a_1^1 a_2^1 a_3^1 x_1 b_2^1 b_3^1 c_1^1 c_2^1 c_3^1 "
    "a_1^2 a_2^2 a_3^2 b_1^2 x_2 b_3^2 c_1^2 c_2^2 c_3^2 "
    "a_1^3 a_2^3 a_3^3 b_1^3 b_2^3 x_3 c_1^3 c_2^3 c_3^3"
).split()
EXAMPLE_Q2 = (
    "a_1^1 a_2^1 a_3^1 c_1^1 b_2^1 b_3^1 a_1^2 c_2^1 c_3^1 "
    "b_1^2 a_2^2 a_3^2 c_1^2 c_2^2 b_3^2 a_1^3 a_2^3 c_3^2 "
    "b_1^3 b_2^3 a_3^3 c_1^3 c_2^3 c_3^3"
).split()


class TestGadget:
    def test_r3_matches_printed_sequences(self):
        t = build_gadget(3)
        assert [label_str(l) for l in t.q1] == EXAMPLE_Q1
        assert [label_str(l) for l in t.q2] == EXAMPLE_Q2
        assert len(t.q1) == 27 and len(t.q2) == 24

    def test_verifies_for_small_r(self):
        for r in range(2, 7):
            t = build_gadget(r)
            assert verify_gadget(t)
            assert len(t.q1) - len(t.q2) == r
            assert t.q1[:r] == t.q2[:r] == tuple(("a", h, 1) for h in range(1, r + 1))
            assert t.q1[-r:] == t.q2[-r:] == tuple(("c", h, r) for h in range(1, r + 1))

    def test_swapped_labels_fail(self):
        t = build_gadget(3)
        q2 = list(t.q2)
        q2[4], q2[10] = q2[10], q2[4]
        broken = GadgetTemplate(r=3, q1=t.q1, q2=tuple(q2))
        assert not verify_gadget(broken)
        assert "window" in (gadget_violation(broken) or "")

    def test_missing_absorbed_vertex_fails(self):
        t = build_gadget(3)
        q1 = tuple(l for l in t.q1 if l != ("x", 1))
        with pytest.raises(Exception):
            # length invariant breaks in the constructor
            GadgetTemplate(r=3, q1=q1, q2=t.q2)

    def test_label_parts(self):
        assert label_part(("a", 2, 3)) == 1
        assert label_part(("x", 3)) == 2

    def test_cell_structure(self):
        t = build_gadget(4)
        cells = Counter((lab[1], lab[2]) for lab in t.q2)
        assert len(cells) == 16
        for (i, j), size in cells.items():
            assert size == (2 if i == j else 3)
        assert len(t.q2) == 3 * 16 - 4


class TestFindAbsorbers:
    def test_complete_host_finds_instances(self):
        cfg = Config.default(3, seed=0)
        g = complete(3, [9, 9, 9])
        for x in [(0, 9, 18), (5, 13, 22)]:
            found = find_absorbers(g, x, 3, cfg)
            assert len(found) == 3
            for inst in found:
                assert verify_instance(g, inst)
                assert not set(inst.mapping.values()) & set(x)
                # both routings are properly terminated paths in the host
                assert is_properly_terminated(g, VertexSeq(inst.q1_vertices(), 3))
                assert is_properly_terminated(g, VertexSeq(inst.q2_vertices(), 3))

    def test_isolated_target_has_no_instances(self):
        # x in part 0 with no neighbors in part 1: row conditions unsatisfiable
        g0 = complete(3, [9, 9, 9])
        edges = [e for e in g0.edges() if not (e[0] == 0 and 9 <= e[1] < 18)]
        g = MultipartiteGraph.from_edges([list(p) for p in g0.parts], edges)
        cfg = Config.default(3, seed=0)
        assert find_absorbers(g, (0, 9, 18), 1, cfg) == []

    def test_exhaustive_count_matches_permutation_enumeration(self):
        cfg = Config.default(2, seed=0)
        g = complete(2, [6, 6])
        x = (0, 6)
        found = find_absorbers(g, x, None, cfg)
        # independent count: assign 5 slot labels per part injectively into the
        # 5 non-target vertices; on a complete host every assignment is legal
        assert len(found) == math.perm(5, 5) * math.perm(5, 5)
        assert len({inst.assignment for inst in found}) == len(found)

    def test_exhaustive_count_sparse_host(self):
        cfg = Config.default(2, seed=0)
        g0 = complete(2, [6, 6])
        removed = {(1, 7), (2, 8)}
        edges = [e for e in g0.edges() if tuple(e) not in removed]
        g = MultipartiteGraph.from_edges([list(p) for p in g0.parts], edges)
        found = find_absorbers(g, (0, 6), None, cfg)
        template = build_gadget(2)
        slots = template.q2
        part_slots = [[l for l in slots if label_part(l) == i] for i in range(2)]
        count = 0
        for left in itertools.permutations([1, 2, 3, 4, 5]):
            for right in itertools.permutations([7, 8, 9, 10, 11]):
                mapping = dict(zip(part_slots[0], left)) | dict(zip(part_slots[1], right))
                inst = AbsorberInstance(
                    template=template,
                    assignment=tuple(sorted(mapping.items())),
                    target=(0, 6),
                )
                if verify_instance(g, inst):
                    count += 1
        assert len(found) == count > 0

    def test_k_mismatch_rejected(self):
        g = complete(3, [6, 6, 6])
        with pytest.raises(GraphValidationError):
            find_absorbers(g, (0, 6), 1, Config.default(2, seed=0))


class TestAssembleAbsorb:
    def test_round_trip_on_complete_host(self):
        g = complete(3, [11, 11, 11])
        cfg = Config.default(3, seed=7)
        pa = assemble_absorbing_path(g, (), cfg, 1)
        path = pa.path
        assert is_path(g, path) and is_properly_terminated(g, path)
        assert len(path) == (3 * 9 - 3) * len(pa.gadgets) + 3 * 4 * (len(pa.gadgets) - 1)
        outside = [v for v in range(g.n) if v not in set(path.vertices)]
        rng = random.Random(1)
        z = [rng.choice([v for v in outside if g.part_of(v) == i]) for i in range(3)]
        merged = absorb(g, pa, z)
        assert set(merged.vertices) == set(path.vertices) | set(z)
        assert merged.vertices[:3] == path.vertices[:3]
        assert merged.vertices[-3:] == path.vertices[-3:]
        assert is_path(g, merged)

    def test_absorb_empty_set_is_identity(self):
        g = complete(3, [9, 9, 9])
        cfg = Config.default(3, seed=2)
        pa = assemble_absorbing_path(g, (), cfg, 1)
        assert absorb(g, pa, ()) == pa.path

    def test_single_rset_extends_by_r(self):
        g = complete(3, [9, 9, 9])
        cfg = Config.default(3, seed=2)
        pa = assemble_absorbing_path(g, (), cfg, 1)
        outside = [v for v in range(g.n) if v not in set(pa.path.vertices)]
        z = [next(v for v in outside if g.part_of(v) == i) for i in range(3)]
        merged = absorb(g, pa, z)
        assert len(merged) == len(pa.path) + 3

    def test_determinism(self):
        g = complete(3, [10, 10, 10])
        a = assemble_absorbing_path(g, (), Config.default(3, seed=5), 1)
        b = assemble_absorbing_path(g, (), Config.default(3, seed=5), 1)
        assert a.path == b.path
        z = sorted({0, 10, 20} - set(a.path.vertices)) or None
        if z and len(z) == 3:
            assert absorb(g, a, z) == absorb(g, b, z)

    def test_budget_zero_is_coverage_shortfall(self):
        g = complete(3, [9, 9, 9])
        with pytest.raises(CoverageError, match="shortfall"):
            assemble_absorbing_path(g, (), Config.default(3, seed=0), 1, budget=0)

    def test_multi_gadget_assembly_and_matching(self):
        # two gadgets joined by a connector, both switched during absorption
        g = complete(2, [16, 16])
        cfg = Config.default(2, seed=6)
        pa = assemble_absorbing_path(g, (), cfg, 2)
        assert len(pa.gadgets) == 2
        assert pa.capacity == 4
        assert len(pa.path) == 24
        outside = [v for v in range(g.n) if v not in set(pa.path.vertices)]
        by_part = [[v for v in outside if g.part_of(v) == i] for i in range(2)]
        z = [p[t] for t in range(2) for p in by_part]
        merged = absorb(g, pa, z)
        assert len(merged) == 24 + 4
        assert set(merged.vertices) == set(pa.path.vertices) | set(z)

    def test_exclusions_respected(self):
        g = complete(3, [11, 11, 11])
        cfg = Config.default(3, seed=3)
        excl = {0, 11, 22}
        pa = assemble_absorbing_path(g, excl, cfg, 1)
        assert not set(pa.path.vertices) & excl

    def test_oversized_z_rejected(self):
        g = complete(3, [11, 11, 11])
        cfg = Config.default(3, seed=7)
        pa = assemble_absorbing_path(g, (), cfg, 1)
        outside = [v for v in range(g.n) if v not in set(pa.path.vertices)]
        by_part = [[v for v in outside if g.part_of(v) == i] for i in range(3)]
        if pa.capacity // 3 + 1 <= min(len(p) for p in by_part):
            z = [v for p in by_part for v in p[: pa.capacity // 3 + 1]]
            with pytest.raises(GraphValidationError, match="capacity"):
                absorb(g, pa, z)

    def test_unbalanced_z_rejected(self):
        g = complete(3, [9, 9, 9])
        cfg = Config.default(3, seed=2)
        pa = assemble_absorbing_path(g, (), cfg, 1)
        outside = [v for v in range(g.n) if v not in set(pa.path.vertices)]
        z = [v for v in outside if g.part_of(v) == 0][:1]
        with pytest.raises(GraphValidationError, match="balanced"):
            absorb(g, pa, z)

    def test_leftover_absorbed_under_another_grouping(self):
        # sorted-zip grouping pairs (a0, b0) and (a1, b1), which no gadget takes;
        # (a0, b1) and (a1, b0) each have a gadget
        g = complete(2, [16, 16])
        pa = assemble_absorbing_path(g, (), Config.default(2, seed=6), 2)
        outside = [v for v in range(g.n) if v not in set(pa.path.vertices)]
        a0, a1 = [v for v in outside if g.part_of(v) == 0][:2]
        b0, b1 = [v for v in outside if g.part_of(v) == 1][:2]
        covers = ((a0, b1), (a1, b0))
        pa = replace(pa, gadgets=tuple(
            replace(gad, cover=tuple(frozenset({v}) for v in cov))
            for gad, cov in zip(pa.gadgets, covers)
        ))
        merged = absorb(g, pa, [a0, a1, b0, b1])
        assert set(merged.vertices) == set(pa.path.vertices) | {a0, a1, b0, b1}
        assert is_path(g, merged)
        # gadget 0 comes first on the path and takes x_1 = a0, x_2 = b1
        assert [v for v in merged.vertices if v not in set(pa.path.vertices)] == [a0, b1, a1, b0]

    def test_unabsorbable_leftover_is_coverage_error(self):
        g = complete(2, [16, 16])
        pa = assemble_absorbing_path(g, (), Config.default(2, seed=6), 2)
        outside = [v for v in range(g.n) if v not in set(pa.path.vertices)]
        a0, a1 = [v for v in outside if g.part_of(v) == 0][:2]
        b0, b1 = [v for v in outside if g.part_of(v) == 1][:2]
        # both gadgets can take a0 only: a1 has nowhere to go
        pa = replace(pa, gadgets=tuple(
            replace(gad, cover=(frozenset({a0}), frozenset({b0, b1}))) for gad in pa.gadgets
        ))
        with pytest.raises(CoverageError, match="shortfall"):
            absorb(g, pa, [a0, a1, b0, b1])


def test_assignment_matches_brute_force_over_groupings():
    """The exact assignment finds a gadget set exactly when some grouping of the
    leftover into r-sets and some injective gadget choice work, and it picks the
    first such gadget set in index order."""
    outcomes = Counter()
    for trial in range(400):
        rng = random.Random(trial)
        r = rng.choice([2, 3])
        n_gadgets = rng.randint(1, 4)
        q = rng.randint(1, min(3, n_gadgets))
        universe = [list(range(10 * i, 10 * i + 5)) for i in range(r)]
        by_part = [sorted(rng.sample(u, q)) for u in universe]
        density = rng.choice([0.4, 0.6, 0.8])
        gadgets = [
            PlacedGadget(instance=None, cover=tuple(
                frozenset(v for v in u if rng.random() < density) for u in universe))
            for _ in range(n_gadgets)
        ]
        want = absorbable_by_brute_force(gadgets, by_part)
        got = _assign_gadgets(gadgets, by_part)
        outcomes[got is not None] += 1
        if want is None:
            assert got is None, trial
            continue
        assert got is not None and tuple(sorted(got)) == want, trial
        for gi, rset in got.items():
            assert all(v in gadgets[gi].cover[i] for i, v in enumerate(rset))
        for i in range(r):
            assert sorted(rset[i] for rset in got.values()) == by_part[i]
    assert outcomes[True] >= 50 and outcomes[False] >= 50
