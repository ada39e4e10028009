import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import hampow.oracle
from conftest import complete, reference_cliques, reference_cover_with_paths
from hampow import tiling
from hampow.errors import (
    BudgetExhaustedError,
    GraphValidationError,
    SearchExhaustedError,
    VerificationError,
)
from hampow.graphs import (
    Config,
    MultipartiteGraph,
    degree_profile,
    gen_extremal,
    gen_random,
    induced_subgraph,
)
from hampow.oracle import SearchBudget, window_paths
from hampow.paths import is_path, is_properly_terminated
from hampow.tiling import (
    cover_with_paths,
    enumerate_cliques,
    fractional_tiling,
    perfect_tiling_bruteforce,
)


class TestEnumerate:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_cliques_in_the_same_order_as_the_reference(self, seed):
        rng = random.Random(seed)
        r = rng.choice([2, 3, 4])
        k = rng.randint(r, r + 2)
        g = gen_random(k, [rng.randint(1, 6) for _ in range(k)],
                       rng.choice([Fraction(1, 2), Fraction(4, 5), 1]), seed)
        # cliques are listed on r-partite hosts: the host of the first r parts
        head, _ = induced_subgraph(g, g.parts[:r])
        assert enumerate_cliques(head, r) == reference_cliques(head, r)
        # the pipeline's anchor on that host: its first clique
        anchor = next(window_paths(head, head.part_sets, set(), r), None)
        assert anchor == next(iter(reference_cliques(head, r)), None)

    def test_complete_222(self):
        g = complete(3, [2, 2, 2])
        cliques = enumerate_cliques(g, 3)
        assert len(cliques) == 8
        for K in cliques:
            assert len({g.part_of(v) for v in K}) == 3

    def test_matches_naive_enumeration(self):
        for seed in range(10):
            g = gen_random(3, [4, 3, 2], Fraction(3, 5), seed)
            got = set(enumerate_cliques(g, 3))
            naive = set()
            for combo in itertools.combinations(range(g.n), 3):
                parts = {g.part_of(v) for v in combo}
                if len(parts) == 3 and all(
                    b in g.adj[a] for a, b in itertools.combinations(combo, 2)
                ):
                    naive.add(tuple(sorted(combo)))
            assert got == naive

    def test_extremal_planted_set_has_no_clique(self):
        g = gen_extremal(3, (6, 6, 6), 3)
        planted = {v for part in g.parts for v in part[: len(part) // 3 + 1]}
        for K in enumerate_cliques(g, 3):
            assert len(set(K) & planted) <= 1

    def test_empty_graph(self):
        g = gen_random(3, [2, 2, 2], 0, 0)
        assert enumerate_cliques(g, 3) == []

    @pytest.mark.parametrize("k", [2, 4])
    def test_only_r_partite_hosts_are_listed(self, k):
        with pytest.raises(GraphValidationError, match=f"got k={k}"):
            enumerate_cliques(complete(k, [2] * k), 3)

    def test_spent_budget_is_not_an_empty_list(self, monkeypatch):
        # 8 cliques sit below 1 + 2 + 4 inner nodes: 15 nodes in all
        monkeypatch.setattr(hampow.oracle, "SearchBudget", lambda: SearchBudget(14))
        with pytest.raises(BudgetExhaustedError, match="budget of 14 nodes exhausted"):
            enumerate_cliques(complete(3, [2, 2, 2]), 3)
        monkeypatch.setattr(hampow.oracle, "SearchBudget", lambda: SearchBudget(15))
        assert len(enumerate_cliques(complete(3, [2, 2, 2]), 3)) == 8


class TestFractionalTiling:
    def test_k222_perfect_with_certificate(self):
        g = complete(3, [2, 2, 2])
        ft = fractional_tiling(g, 3)
        assert ft.value == 2 == Fraction(g.n, 3)
        assert ft.is_perfect
        assert sum(ft.dual) == ft.value
        assert all(y >= 0 for y in ft.dual)
        for K in enumerate_cliques(g, 3):
            assert sum(ft.dual[v] for v in K) >= 1
        # the uniform 1/4 weighting is a feasible perfect certificate by hand
        for v in range(6):
            assert sum(Fraction(1, 4) for K in enumerate_cliques(g, 3) if v in K) == 1

    def test_isolated_vertex_not_perfect(self):
        g0 = complete(2, [3, 3])
        edges = [e for e in g0.edges() if 0 not in e]
        g = MultipartiteGraph.from_edges([list(p) for p in g0.parts], edges)
        ft = fractional_tiling(g, 2)
        assert not ft.is_perfect
        assert ft.load(0) == 0
        assert ft.value < Fraction(g.n, 2)

    def test_loads_never_exceed_one(self):
        for seed in range(8):
            g = gen_random(3, [4, 4, 4], Fraction(7, 10), seed)
            ft = fractional_tiling(g, 3)
            for v in range(g.n):
                assert ft.load(v) <= 1

    def test_dense_random_hosts_are_perfect(self):
        found = 0
        seed = 0
        while found < 10:
            seed += 1
            g = gen_random(3, [4, 4, 4], Fraction(9, 10), seed)
            if degree_profile(g).delta_p < Fraction(2, 3):
                continue
            assert fractional_tiling(g, 3).is_perfect
            found += 1

    def test_requires_r_partite(self):
        g = complete(4, [2, 2, 2, 2])
        with pytest.raises(GraphValidationError):
            fractional_tiling(g, 3)

    def test_bad_dual_fails_the_audit(self, monkeypatch):
        g = complete(3, [2, 2, 2])
        value, x, y = tiling._simplex_max(enumerate_cliques(g, 3), g.n)
        bad = [Fraction(0)] * (len(y) - 1) + [value]  # right total, infeasible
        monkeypatch.setattr(tiling, "_simplex_max", lambda cols, m: (value, x, bad))
        with pytest.raises(VerificationError, match="dual"):
            fractional_tiling(g, 3)

    def test_fractional_optimum_is_exact(self):
        # odd triangle structure: the optimum is a genuine non-integer rational
        g = gen_random(3, [2, 2, 2], Fraction(3, 5), 222)
        ft = fractional_tiling(g, 3)
        assert ft.value == Fraction(3, 2)
        assert sum(ft.dual) == Fraction(3, 2)
        assert sum(ft.weights.values()) == Fraction(3, 2)
        for v in range(g.n):
            assert ft.load(v) <= 1


class TestBruteForceTiling:
    def test_k222_two_triangles(self):
        g = complete(3, [2, 2, 2])
        tiles = perfect_tiling_bruteforce(g, 3)
        assert tiles is not None and len(tiles) == 2
        assert sorted(v for K in tiles for v in K) == list(range(6))

    def test_extremal_has_none(self):
        g = gen_extremal(3, (4, 4, 4), 3)
        assert perfect_tiling_bruteforce(g, 3) is None

    def test_divisibility_required(self):
        g = complete(2, [3, 4])
        with pytest.raises(GraphValidationError):
            perfect_tiling_bruteforce(g, 2)

    def test_deep_host_needs_no_recursion_depth(self):
        # 1100 + 1100 vertices whose only edges are a perfect matching: the
        # search chooses 1100 cliques, more than the default recursion limit
        assert sys.getrecursionlimit() < 1100
        matching = [(v, 1100 + v) for v in range(1100)]
        g = MultipartiteGraph.from_edges([list(range(1100)), list(range(1100, 2200))], matching)
        assert sorted(perfect_tiling_bruteforce(g, 2)) == matching

    def test_spent_budget_is_not_a_no(self, monkeypatch):
        monkeypatch.setattr(tiling, "SearchBudget", lambda: SearchBudget(2))
        with pytest.raises(BudgetExhaustedError, match="budget of 2 nodes exhausted"):
            perfect_tiling_bruteforce(complete(3, [2, 2, 2]), 3)

    def test_integral_implies_fractional_perfect(self):
        for seed in range(20):
            g = gen_random(3, [3, 3, 3], Fraction(4, 5), seed)
            tiles = perfect_tiling_bruteforce(g, 3)
            if tiles is not None:
                assert fractional_tiling(g, 3).is_perfect


def _cover_is_valid(cover, g, alpha):
    """Disjoint properly terminated paths and a balanced leftover of at most
    alpha*n vertices that together cover every vertex.  The host is
    r-partite, so r is its number of parts."""
    seen = set(cover.leftover)
    for p in cover.paths:
        assert is_path(g, p, g.k) and is_properly_terminated(g, p, g.k)
        assert not seen & set(p)
        seen.update(p)
    assert seen == set(range(g.n)) and len(cover.leftover) <= alpha * g.n
    assert len({len(cover.leftover & set(part)) for part in g.parts}) == 1


class TestCover:
    def test_complete_host_single_hamiltonian_path(self):
        g = complete(3, [3, 3, 3])
        cfg = Config(3, seed=0)
        cov = cover_with_paths(g, 3, Fraction(0), cfg)
        assert len(cov.paths) == 1
        assert len(cov.paths[0]) == 9
        assert cov.leftover == frozenset()
        assert is_properly_terminated(g, cov.paths[0], 3)

    def test_alpha_one_trivial(self):
        g = complete(3, [3, 3, 3])
        cov = cover_with_paths(g, 3, Fraction(1), Config(3, seed=0))
        assert cov.paths == ()
        assert len(cov.leftover) == 9

    def test_cover_soundness(self):
        for seed in range(5):
            g = gen_random(2, [6, 6], Fraction(9, 10), seed)
            if degree_profile(g).delta_p < Fraction(1, 2):
                continue
            cfg = Config(2, seed=seed)
            _cover_is_valid(cover_with_paths(g, 2, Fraction(1, 3), cfg), g, Fraction(1, 3))

    def test_unbalanced_host_rejected(self):
        g = complete(2, [3, 4])
        with pytest.raises(GraphValidationError):
            cover_with_paths(g, 2, Fraction(1), Config(2, seed=0))

    @pytest.mark.parametrize("alpha", [Fraction(-1), Fraction(-1, 100)])
    def test_negative_alpha_is_rejected_before_any_attempt(self, alpha, monkeypatch):
        def no_search(*a, **kw):
            raise AssertionError("the cover searched for a clique")

        monkeypatch.setattr(tiling, "window_paths", no_search)
        with pytest.raises(GraphValidationError, match=f"at least 0, got {alpha}$"):
            cover_with_paths(complete(3, [4, 4, 4]), 3, alpha, Config(3, seed=0))

    def test_shortfall_reports_best(self):
        g = gen_random(2, [4, 4], 0, 0)  # empty graph: no cliques at all
        with pytest.raises(SearchExhaustedError, match="shortfall"):
            cover_with_paths(g, 2, Fraction(1, 8), Config(2, seed=0))


@pytest.mark.parametrize("r", [-1, 0, 1])
@pytest.mark.parametrize("sizes", [[], [1], [2, 2]])
def test_r_below_two_is_rejected_by_every_tiling(r, sizes):
    """Before the part count, the divisibility test or the cover's Config is
    looked at: an r-partite host with r = 1 passes them all, and r = 0
    divides by zero."""
    g = complete(len(sizes), sizes)
    cfg = Config(2)
    for call in (lambda: fractional_tiling(g, r), lambda: perfect_tiling_bruteforce(g, r),
                 lambda: cover_with_paths(g, r, Fraction(0), cfg)):
        with pytest.raises(GraphValidationError, match="r must be at least 2"):
            call()


def _cover_outcome(cover, g, r, alpha, cfg):
    try:
        return cover(g, r, alpha, cfg)
    except SearchExhaustedError as exc:
        return str(exc)


def test_cover_matches_the_rescanning_reference(monkeypatch):
    """A first attempt gives the same PathCover, or the same shortfall text,
    as the greedy that rescans every clique at every step.  Reshuffled
    retries give a valid cover, the same one for the same seed, or the
    shortfall text.  The attempt limit is patched to 1, 4 or 20."""
    seen = Counter()
    for trial in range(80):
        rng = random.Random(trial)
        r = (2, 3)[trial % 2]
        m = rng.randint(3, 8)
        g = gen_random(r, [m] * r, rng.choice([Fraction(1, 2), Fraction(3, 5), Fraction(4, 5), 1]),
                       trial)
        alpha = Fraction(rng.randint(0, 2), m)
        cfg = Config(r, seed=trial)
        monkeypatch.setattr(tiling, "COVER_ATTEMPTS", 1)
        first = _cover_outcome(cover_with_paths, g, r, alpha, cfg)
        assert first == _cover_outcome(reference_cover_with_paths, g, r, alpha, cfg), trial
        limit = rng.choice([1, 4, 20])
        monkeypatch.setattr(tiling, "COVER_ATTEMPTS", limit)
        got = _cover_outcome(cover_with_paths, g, r, alpha, cfg)
        assert got == _cover_outcome(cover_with_paths, g, r, alpha, cfg), trial
        if isinstance(got, str):
            assert got.startswith(f"cover shortfall after {limit} attempts"), trial
            seen["exhausted"] += 1
        else:
            _cover_is_valid(got, g, alpha)
            seen["first" if got == first else "retried"] += 1
    assert min(seen["first"], seen["retried"], seen["exhausted"]) >= 5, seen


def test_leave_out_cover_is_the_induced_copy_cover_mapped_back(monkeypatch):
    """Covering a balanced host with a balanced set left out gives the cover
    of the subgraph the rest induces, relabelled back: the same paths and
    leftover, or the same shortfall text.  Sparse hosts and alpha 0 make
    first attempts fall short, so the reshuffled retries run."""
    seen = Counter()
    for trial in range(60):
        rng = random.Random(trial)
        r = (2, 3)[trial % 2]
        m = rng.randint(4, 9)
        g = gen_random(r, [m] * r, rng.choice([Fraction(3, 5), Fraction(7, 10), 1]), trial)
        drop = rng.randint(0, m - 2)
        leave_out = frozenset(v for p in g.parts for v in rng.sample(p, drop))
        rest = [[v for v in p if v not in leave_out] for p in g.parts]
        sub, old_ids = induced_subgraph(g, rest)
        alpha = Fraction(rng.choice([0, 0, 1]), m - drop)
        cfg = Config(r, seed=trial)
        monkeypatch.setattr(tiling, "COVER_ATTEMPTS", rng.choice([5, 20]))
        want = _cover_outcome(cover_with_paths, sub, r, alpha, cfg)
        if not isinstance(want, str):
            want = tiling.PathCover(
                tuple(tuple(old_ids[v] for v in p) for p in want.paths),
                frozenset(old_ids[v] for v in want.leftover),
            )
        got = _cover_outcome(lambda *a: cover_with_paths(*a, leave_out=leave_out), g, r, alpha, cfg)
        assert got == want, trial
        monkeypatch.setattr(tiling, "COVER_ATTEMPTS", 1)
        first_ok = not isinstance(_cover_outcome(cover_with_paths, sub, r, alpha, cfg), str)
        seen["first" if first_ok else "exhausted" if isinstance(got, str) else "retried"] += 1
    assert min(seen["first"], seen["retried"], seen["exhausted"]) >= 5, seen


def test_leave_out_must_leave_a_balanced_rest():
    g = complete(2, [4, 4])
    with pytest.raises(GraphValidationError, match="balanced host"):
        cover_with_paths(g, 2, Fraction(0), Config(2), leave_out={0})
