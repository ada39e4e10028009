import itertools
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import complete
from hampow import absorber
from hampow.absorber import (
    GadgetTemplate,
    _blowup_adjacent,
    absorb,
    assemble_absorbing_path,
    build_gadget,
    find_absorbers,
    gadget_violation,
    label_part,
    label_str,
    verify_instance,
)
from hampow.errors import (
    BudgetExhaustedError,
    CoverageError,
    GraphValidationError,
    InfeasibleError,
)
from hampow.graphs import Config, MultipartiteGraph, gen_random
from hampow.oracle import SearchBudget
from hampow.paths import is_path, is_properly_terminated

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
            assert gadget_violation(t) is None
            assert len(t.q1) - len(t.q2) == r
            assert t.q1[:r] == t.q2[:r] == tuple(("a", h, 1) for h in range(1, r + 1))
            assert t.q1[-r:] == t.q2[-r:] == tuple(("c", h, r) for h in range(1, r + 1))

    def test_swapped_labels_fail(self):
        t = build_gadget(3)
        q2 = list(t.q2)
        q2[4], q2[10] = q2[10], q2[4]
        broken = GadgetTemplate(r=3, q1=t.q1, q2=tuple(q2))
        assert "window" in (gadget_violation(broken) or "")

    def test_a_gadget_that_fails_its_check_names_the_violation(self, monkeypatch):
        monkeypatch.setattr(absorber, "gadget_violation", lambda t: "active routing repeats a label")
        build_gadget.cache_clear()  # an error is not cached, so nothing stale is left behind
        with pytest.raises(InfeasibleError, match="r=3 fails verification: active routing repeats"):
            build_gadget(3)

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
        g = complete(3, [9, 9, 9])
        for seed, x in [(0, (0, 9, 18)), (0, (5, 13, 22)), (4, (0, 9, 18))]:
            found = find_absorbers(g, x, Config(3, seed=seed))
            assert len(found) == 1
            inst = found[0]
            assert verify_instance(g, inst)
            assert inst.target == x and not set(inst.slots) & set(x)
            # both routings are properly terminated paths in the host
            assert is_properly_terminated(g, inst.q1_vertices(), 3)
            assert is_properly_terminated(g, inst.slots, 3)

    def test_isolated_target_has_no_instances(self):
        # x in part 0 with no neighbors in part 1: row conditions unsatisfiable
        g0 = complete(3, [9, 9, 9])
        edges = [e for e in g0.edges() if not (e[0] == 0 and 9 <= e[1] < 18)]
        g = MultipartiteGraph.from_edges([list(p) for p in g0.parts], edges)
        cfg = Config(3, seed=0)
        assert find_absorbers(g, (0, 9, 18), cfg) == []

    def test_avoided_vertices_are_left_out(self):
        # an r=2 gadget fills 5 vertices of each part besides its target's
        cfg = Config(2, seed=0)
        g = complete(2, [6, 6])
        (inst,) = find_absorbers(g, (0, 6), cfg)
        assert set(inst.slots) == set(g.parts[0][1:]) | set(g.parts[1][1:])
        assert find_absorbers(g, (0, 6), cfg, avoid=[3]) == []
        g = complete(2, [7, 7])
        (inst,) = find_absorbers(g, (0, 7), cfg, avoid=[3, 9])
        assert verify_instance(g, inst) and not {3, 9} & set(inst.slots)

    def test_too_few_free_vertices_answers_without_a_search(self):
        # an r=3 gadget has 8 slots in each part, and each part of 8 keeps 7
        # vertices off the target
        start = time.perf_counter()
        assert find_absorbers(complete(3, [8, 8, 8]), (0, 8, 16), Config(3)) == []
        assert time.perf_counter() - start < 1

    def test_spent_budget_is_not_a_no(self, monkeypatch):
        monkeypatch.setattr(absorber, "SearchBudget", lambda: SearchBudget(2))
        with pytest.raises(BudgetExhaustedError, match="budget of 2 nodes exhausted"):
            find_absorbers(complete(3, [9, 9, 9]), (0, 9, 18), Config(3))

    def test_finds_an_embedding_exactly_when_brute_force_does(self):
        """On sparse r=2 hosts with parts of 6, the 5 free vertices of each part
        fill its 5 slots: brute force tries every bijection against every
        adjacency the blow-up asks for, the absorbed vertices' included."""
        template = build_gadget(2)
        labels = template.q2 + (("x", 1), ("x", 2))
        needed = [(a, b) for a, b in itertools.combinations(labels, 2)
                  if _blowup_adjacent(2, a, b)]
        part_slots = [[l for l in template.q2 if label_part(l) == i] for i in range(2)]
        outcomes = Counter()
        for density in (Fraction(9, 10), Fraction(19, 20)):
            for seed in range(12):
                g = gen_random(2, [6, 6], density, seed)
                exists = any(
                    all(m[b] in g.adj[m[a]] for a, b in needed)
                    for left in itertools.permutations([1, 2, 3, 4, 5])
                    for right in itertools.permutations([7, 8, 9, 10, 11])
                    for m in [dict(zip(part_slots[0], left)) | dict(zip(part_slots[1], right))
                              | {("x", 1): 0, ("x", 2): 6}]
                )
                found = find_absorbers(g, (0, 6), Config(2, seed=seed))
                assert bool(found) == exists, (density, seed)
                assert all(verify_instance(g, inst) for inst in found)
                outcomes[exists] += 1
        assert outcomes[True] >= 5 and outcomes[False] >= 5

    def test_r19_gadget_needs_no_recursion_depth(self):
        # 1064 slots, more than the default recursion limit of 1000 frames
        g = complete(19, [57] * 19)
        x = tuple(part[0] for part in g.parts)
        found = find_absorbers(g, x, Config(19))
        assert len(found) == 1 and verify_instance(g, found[0])
        assert len(found[0].slots) == 3 * 19 * 19 - 19

    def test_k_mismatch_rejected(self):
        g = complete(3, [6, 6, 6])
        with pytest.raises(GraphValidationError):
            find_absorbers(g, (0, 6), Config(2, seed=0))


class TestAssembleAbsorb:
    def test_round_trip_on_complete_host(self):
        g = complete(3, [11, 11, 11])
        cfg = Config(3, seed=7)
        pa = assemble_absorbing_path(g, (), cfg)
        path = pa.path
        assert is_path(g, path, 3) and is_properly_terminated(g, path, 3)
        assert len(pa.gadgets) == 1 and len(path) == 3 * 9 - 3
        outside = [v for v in range(g.n) if v not in set(path)]
        rng = random.Random(1)
        z = [rng.choice([v for v in outside if g.part_of(v) == i]) for i in range(3)]
        merged = absorb(g, pa, z)
        assert set(merged) == set(path) | set(z)
        assert merged[:3] == path[:3]
        assert merged[-3:] == path[-3:]
        assert is_path(g, merged, 3)

    def test_absorbed_set_must_fill_every_gadget(self):
        g = complete(2, [16, 16])
        pa = assemble_absorbing_path(g, (), Config(2, seed=6))
        with pytest.raises(GraphValidationError, match="capacity"):
            absorb(g, pa, ())

    def test_single_rset_extends_by_r(self):
        g = complete(3, [9, 9, 9])
        cfg = Config(3, seed=2)
        pa = assemble_absorbing_path(g, (), cfg)
        outside = [v for v in range(g.n) if v not in set(pa.path)]
        z = [next(v for v in outside if g.part_of(v) == i) for i in range(3)]
        merged = absorb(g, pa, z)
        assert len(merged) == len(pa.path) + 3

    def test_determinism(self):
        g = complete(3, [10, 10, 10])
        a = assemble_absorbing_path(g, (), Config(3, seed=5))
        b = assemble_absorbing_path(g, (), Config(3, seed=5))
        assert a.path == b.path
        z = sorted({0, 10, 20} - set(a.path)) or None
        if z and len(z) == 3:
            assert absorb(g, a, z) == absorb(g, b, z)

    def test_no_gadget_fits_is_coverage_shortfall(self):
        # an r=2 gadget takes 5 vertices of each part besides its target's
        g = complete(2, [5, 5])
        with pytest.raises(CoverageError, match="no gadget could be embedded"):
            assemble_absorbing_path(g, (), Config(2, seed=0))

    def test_a_target_without_an_embedding_is_not_retried(self, monkeypatch):
        calls = []

        def none_fits(*args, **kwargs):
            calls.append(args)
            return []

        monkeypatch.setattr(absorber, "find_absorbers", none_fits)
        with pytest.raises(CoverageError, match="^coverage shortfall: no gadget could be "
                                                "embedded within budget$"):
            assemble_absorbing_path(complete(3, [11, 11, 11]), (), Config(3, seed=0))
        assert len(calls) == 1

    def test_exclusions_respected(self):
        g = complete(3, [11, 11, 11])
        cfg = Config(3, seed=3)
        excl = {0, 11, 22}
        pa = assemble_absorbing_path(g, excl, cfg)
        assert not set(pa.path) & excl

    def test_oversized_z_rejected(self):
        g = complete(3, [11, 11, 11])
        cfg = Config(3, seed=7)
        pa = assemble_absorbing_path(g, (), cfg)
        outside = [v for v in range(g.n) if v not in set(pa.path)]
        by_part = [[v for v in outside if g.part_of(v) == i] for i in range(3)]
        z = [v for p in by_part for v in p[:2]]
        with pytest.raises(GraphValidationError, match="capacity"):
            absorb(g, pa, z)

    def test_unbalanced_z_rejected(self):
        g = complete(3, [9, 9, 9])
        cfg = Config(3, seed=2)
        pa = assemble_absorbing_path(g, (), cfg)
        outside = [v for v in range(g.n) if v not in set(pa.path)]
        z = [v for v in outside if g.part_of(v) == 0][:1]
        with pytest.raises(GraphValidationError, match="balanced"):
            absorb(g, pa, z)

    def test_unabsorbable_leftover_is_coverage_error(self):
        g = complete(2, [16, 16])
        pa = assemble_absorbing_path(g, (), Config(2, seed=6))
        outside = [v for v in range(g.n) if v not in set(pa.path)]
        a0, a1 = [v for v in outside if g.part_of(v) == 0][:2]
        b0 = next(v for v in outside if g.part_of(v) == 1)
        # the gadget can take a0 only
        pa = replace(pa, cover=(frozenset({a0}), frozenset({b0})))
        assert is_path(g, absorb(g, pa, [a0, b0]), 2)
        with pytest.raises(CoverageError, match="shortfall"):
            absorb(g, pa, [a1, b0])


@pytest.mark.parametrize("r, size, density", [
    (2, 12, Fraction(19, 20)), (3, 16, Fraction(97, 100)), (4, 24, Fraction(97, 100))])
def test_covers_are_exactly_what_the_gadget_absorbs(r, size, density):
    """Over seeded hosts, every r-set drawn from the gadget's covers is
    absorbed into a power-path with the same ends, and swapping in a vertex
    off the path and outside its part's cover is a CoverageError."""
    assembled = rejected = 0
    for seed in range(12):
        g = gen_random(r, [size] * r, density, seed)
        try:
            pa = assemble_absorbing_path(g, (), Config(r, seed=seed))
        except InfeasibleError:  # the host misses the minimum degree the gadget asks for
            continue
        assembled += 1
        path = pa.path
        rng = random.Random(seed)
        for _ in range(5):
            z = [rng.choice(sorted(cover)) for cover in pa.cover]
            merged = absorb(g, pa, z)
            assert is_path(g, merged, r) and set(merged) == set(path) | set(z)
            assert merged[:r] == path[:r] and merged[-r:] == path[-r:]
            outside = [(i, v) for i in range(r) for v in g.parts[i]
                       if v not in pa.cover[i] and v not in path]
            if outside:
                i, v = rng.choice(outside)
                with pytest.raises(CoverageError, match="does not absorb"):
                    absorb(g, pa, z[:i] + [v] + z[i + 1:])
                rejected += 1
    assert assembled >= 2 and rejected >= 10
