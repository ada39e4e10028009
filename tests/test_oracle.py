import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from conftest import complete, naive_cycle_exists, naive_is_walk, naive_path_between
from hampow.errors import BudgetExhaustedError, GraphValidationError
from hampow.graphs import MultipartiteGraph, gen_extremal, gen_random
from hampow.oracle import (
    BUDGET_EXCEEDED,
    NO,
    YES,
    DepthFirst,
    SearchBudget,
    ham_power_cycle_exists,
    ham_power_path_between,
    independence_necessity,
)
from hampow.paths import verify_ham_power_cycle, verify_ham_power_cycle_report


def spread(n):
    """Children for the orderings of range(n) whose neighbours differ by more than 1."""
    def children(prefix):
        if len(prefix) == n:
            return None
        return [v for v in range(n) if v not in prefix and (not prefix or abs(v - prefix[-1]) > 1)]
    return children


def spread_prefixes(n):
    """The nodes of the whole search tree of `spread(n)`, counted from the definition."""
    return sum(all(abs(a - b) > 1 for a, b in zip(p, p[1:]))
               for length in range(n + 1) for p in itertools.permutations(range(n), length))


class TestDepthFirst:
    def test_yes_with_its_witness(self):
        search = DepthFirst(spread(4), 100)
        assert next(iter(search)) == (1, 3, 0, 2)
        # (), 0, 02, 03, 031, 1, 13, 130, 1302
        assert search.nodes == 9
        search = DepthFirst(spread(4), 100, prefix=(1,))
        assert next(iter(search)) == (1, 3, 0, 2) and search.nodes == 4

    def test_exhaustive_no_counts_every_node(self):
        search = DepthFirst(spread(3), 100)
        assert list(search) == []
        assert search.nodes == spread_prefixes(3) == 6

    def test_running_out_raises_at_limit_plus_one_and_is_never_a_no(self):
        for limit in range(1, spread_prefixes(3)):
            search = DepthFirst(spread(3), limit)
            with pytest.raises(BudgetExhaustedError, match=f"budget of {limit} nodes exhausted"):
                list(search)
            assert search.nodes == limit + 1
        assert list(DepthFirst(spread(3), spread_prefixes(3))) == []

    def test_enumeration_is_lazy_and_in_order(self):
        n = 5
        search = DepthFirst(lambda p: None if len(p) == n else [v for v in range(n) if v not in p],
                            1000)
        found = iter(search)
        assert next(found) == (0, 1, 2, 3, 4) and search.nodes == n + 1
        assert [(0, 1, 2, 3, 4), *found] == list(itertools.permutations(range(n)))
        search = DepthFirst(spread(n), 1000)
        assert list(search) == [p for p in itertools.permutations(range(n))
                                if all(abs(a - b) > 1 for a, b in zip(p, p[1:]))]
        assert search.nodes == spread_prefixes(n)


class TestIndependence:
    def test_balanced_passes(self):
        assert independence_necessity(complete(3, [2, 2, 2]), 3) is None

    def test_oversized_part_fails_with_witness(self):
        assert independence_necessity(complete(2, [5, 4]), 2) == 0

    def test_failure_implies_oracle_no(self):
        for sizes, r in [((5, 4), 2), ((5, 2, 2), 3), ((4, 3, 2), 3)]:
            for seed in range(3):
                g = gen_random(len(sizes), list(sizes), Fraction(9, 10), seed)
                if independence_necessity(g, r) is None:
                    continue
                assert ham_power_cycle_exists(g, r).answer == NO


class TestCycleOracle:
    def test_k22_yes(self):
        res = ham_power_cycle_exists(complete(2, [2, 2]), 2)
        assert res.answer == YES
        assert res.witness == (0, 2, 1, 3)

    def test_unbalanced_pruned_immediately(self):
        res = ham_power_cycle_exists(complete(2, [3, 2]), 2)
        assert res.answer == NO and res.nodes == 0

    def test_extremal_instances_are_no(self):
        assert ham_power_cycle_exists(gen_extremal(3, (4, 4, 4), 3), 3).answer == NO
        assert ham_power_cycle_exists(gen_extremal(2, (4, 4), 2), 2).answer == NO

    def test_witness_reverifies(self):
        for seed in range(5):
            g = gen_random(3, [3, 3, 3], Fraction(19, 20), seed)
            res = ham_power_cycle_exists(g, 3)
            if res.answer == YES:
                assert verify_ham_power_cycle(g, res.witness, 3)

    def test_agrees_with_naive_enumeration(self):
        checked_yes = checked_no = 0
        for seed in range(40):
            r = 2 + seed % 2
            sizes = {2: [4, 4], 3: [2, 2, 2]}[r] if seed % 3 else {2: [3, 3], 3: [3, 3, 2]}[r]
            g = gen_random(len(sizes), sizes, Fraction(3, 5), seed)
            res = ham_power_cycle_exists(g, r)
            expected = naive_cycle_exists(g, r)
            assert (res.answer == YES) == expected
            checked_yes += expected
            checked_no += not expected
        assert checked_yes and checked_no
        # the spec pins exhaustiveness up to n = 9
        for seed in (0, 1):
            g = gen_random(3, [3, 3, 3], Fraction(7, 10), seed)
            assert (ham_power_cycle_exists(g, 3).answer == YES) == naive_cycle_exists(g, 3)

    # (k, sizes, density, seed, r, node_limit) -> (answer, nodes, witness); the
    # tick rule and the candidate order fix all three, so they must not drift
    PINNED = [
        (2, [7, 7], Fraction(7, 10), 5, 2, None, YES, 130,
         (0, 13, 4, 8, 5, 10, 2, 9, 1, 11, 3, 12, 6, 7)),
        (2, [7, 7], Fraction(7, 10), 2, 2, None, NO, 26227, None),
        (3, [4, 4, 4], Fraction(4, 5), 1, 3, None, YES, 546,
         (0, 7, 8, 1, 4, 9, 2, 5, 10, 3, 6, 11)),
        (3, [4, 4, 4], Fraction(4, 5), 2, 3, None, NO, 366, None),
        (4, [3, 3, 3, 3], Fraction(17, 20), 0, 3, None, YES, 385,
         (0, 3, 6, 2, 10, 4, 8, 9, 1, 7, 5, 11)),
        (3, [5, 5, 5], Fraction(17, 20), 2, 3, None, YES, 975,
         (0, 11, 7, 3, 10, 8, 1, 14, 5, 4, 12, 6, 2, 13, 9)),
        (4, [3, 3, 3, 3], Fraction(17, 20), 3, 3, 1000, BUDGET_EXCEEDED, 1001, None),
    ]

    @pytest.mark.parametrize("k, sizes, density, seed, r, limit, answer, nodes, witness", PINNED)
    def test_pinned_answer_nodes_and_witness(self, k, sizes, density, seed, r, limit,
                                             answer, nodes, witness):
        g = gen_random(k, sizes, density, seed)
        res = ham_power_cycle_exists(g, r, SearchBudget(limit) if limit else None)
        assert (res.answer, res.nodes) == (answer, nodes)
        assert res.witness == witness

    def test_budget_exceeded_is_inconclusive(self):
        g = complete(3, [4, 4, 4])
        res = ham_power_cycle_exists(g, 3, SearchBudget(node_limit=2))
        assert res.answer == BUDGET_EXCEEDED
        assert res.witness is None

    def test_monotone_under_edge_addition(self):
        rng = random.Random(0)
        flips = 0
        for seed in range(20):
            g = gen_random(2, [3, 3], Fraction(1, 2), seed)
            before = ham_power_cycle_exists(g, 2)
            missing = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if g.part_of(u) != g.part_of(v) and v not in g.adj[u]
            ]
            if before.answer != YES or not missing:
                continue
            extra = missing[rng.randrange(len(missing))]
            g2 = MultipartiteGraph.from_edges(
                [list(p) for p in g.parts], g.edges() + [list(extra)]
            )
            after = ham_power_cycle_exists(g2, 2)
            assert after.answer == YES
            flips += 1
        assert flips


class TestPathOracle:
    def test_complete_host_k_equals_k2(self):
        g = complete(3, [4, 4, 4])
        K = (0, 4, 8)
        res = ham_power_path_between(g, 3, K, K)
        assert res.answer == YES
        assert len(res.witness) == 12 - 3

    def test_empty_interior_checks_direct_splice(self):
        g = complete(2, [2, 2])
        res = ham_power_path_between(g, 2, (0, 2), (1, 3))
        assert res.answer == YES and res.witness == ()
        # remove the only seam edge: 3-0 distance is 2 within the walk k_a+k_b?
        # seam needs 2~1 (adjacent positions) only, so break edge (1,2):
        edges = [e for e in complete(2, [2, 2]).edges() if e != (1, 2)]
        g2 = MultipartiteGraph.from_edges([[0, 1], [2, 3]], edges)
        res2 = ham_power_path_between(g2, 2, (0, 2), (1, 3))
        assert res2.answer == NO

    def test_overlapping_anchors_rejected(self):
        g = complete(3, [4, 4, 4])
        with pytest.raises(GraphValidationError, match="equal or disjoint"):
            ham_power_path_between(g, 3, (0, 4, 8), (0, 5, 9))

    def test_non_clique_anchor_rejected(self):
        g = gen_random(3, [2, 2, 2], 0, 0)
        with pytest.raises(GraphValidationError, match="clique"):
            ham_power_path_between(g, 3, (0, 2, 4), (0, 2, 4))
        # only the pair at distance r-1, the anchor's ends, is not an edge
        edges = [e for e in complete(3, [2, 2, 2]).edges() if e != (0, 4)]
        g = MultipartiteGraph.from_edges([[0, 1], [2, 3], [4, 5]], edges)
        with pytest.raises(GraphValidationError, match="^anchor is not a clique$"):
            ham_power_path_between(g, 3, (4, 2, 0), (1, 3, 5))

    def test_yes_with_equal_anchors_implies_cycle(self):
        for seed in range(8):
            g = gen_random(3, [3, 3, 3], Fraction(9, 10), seed)
            anchors = [
                (a, b, c)
                for a in g.parts[0]
                for b in g.parts[1]
                for c in g.parts[2]
                if b in g.adj[a] and c in g.adj[a] and c in g.adj[b]
            ]
            if not anchors:
                continue
            K = anchors[0]
            res = ham_power_path_between(g, 3, K, K)
            if res.answer != YES:
                continue
            cycle = K + res.witness
            assert verify_ham_power_cycle(g, cycle, 3)
            assert ham_power_cycle_exists(g, 3).answer == YES

    def test_agrees_with_naive_enumeration(self):
        rng = random.Random(3)
        seen = Counter()
        for seed in range(60):
            r = 2 + seed % 2
            m = rng.randint(2, 9 // r)
            sizes = [m] * (r - 1) + [m - seed % 5 // 4]  # every fifth host unbalanced
            g = gen_random(r, sizes, Fraction(rng.choice([7, 8, 9, 10]), 10), seed)
            cliques = [
                c for c in itertools.product(*g.parts)
                if all(b in g.adj[a] for a, b in itertools.combinations(c, 2))
            ]
            if not cliques:
                continue
            ka = rng.choice(cliques)
            disjoint = [c for c in cliques if not set(c) & set(ka)]
            kb = rng.choice(disjoint) if disjoint and seed % 4 < 2 else ka
            res = ham_power_path_between(g, r, ka, kb)
            expected = naive_path_between(g, r, ka, kb)
            assert res.answer == (YES if expected else NO)
            if expected:
                assert naive_is_walk(g, ka + res.witness + kb, r)
            seen[res.answer, ka == kb] += 1
        assert all(seen[answer, equal] for answer in (YES, NO) for equal in (True, False))

    def test_splice_walk_postcondition(self):
        g = complete(3, [4, 4, 4])
        K, K2 = (0, 4, 8), (1, 5, 9)
        res = ham_power_path_between(g, 3, K, K2)
        assert res.answer == YES
        assert naive_is_walk(g, K + res.witness + K2, 3)


class TestLargeHost:
    """K_{600,600} is deeper than the default recursion limit; the search has
    no recursion, so both oracles answer it."""

    @pytest.fixture(scope="class")
    def host(self):
        assert sys.getrecursionlimit() < 1200
        return complete(2, [600, 600])

    def test_cycle(self, host):
        res = ham_power_cycle_exists(host, 2)
        assert res.answer == YES and len(res.witness) == 1200

    def test_path_between(self, host):
        res = ham_power_path_between(host, 2, (0, 600), (1, 601))
        assert res.answer == YES and len(res.witness) == 1196


def test_budget_validation():
    with pytest.raises(GraphValidationError):
        SearchBudget(node_limit=0)


@pytest.mark.parametrize("r", [1, 0, -1])
def test_power_below_two_is_rejected(r):
    """With r < 2 there is no window to check: the oracles used to answer a
    false `no` (r = 1) or divide by zero (r = 0), and the verifier accepted any
    ordering."""
    g = complete(3, [4, 4, 4])
    with pytest.raises(GraphValidationError, match="at least 2"):
        ham_power_cycle_exists(g, r)
    with pytest.raises(GraphValidationError, match="at least 2"):
        ham_power_path_between(g, r, (0,), (4,))
    with pytest.raises(GraphValidationError, match="at least 2"):
        verify_ham_power_cycle_report(g, tuple(range(12)), r)
