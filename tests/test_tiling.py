import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import complete, reference_cliques, reference_cover_with_paths
from hampow import tiling
from hampow.errors import GraphValidationError, SearchExhaustedError, VerificationError
from hampow.graphs import Config, MultipartiteGraph, degree_profile, gen_extremal, gen_random
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
        assert enumerate_cliques(g, r) == reference_cliques(g, r)
        assert next(tiling.iter_cliques(g, r), None) == next(iter(reference_cliques(g, r)), None)

    def test_complete_222(self):
        g = complete(3, [2, 2, 2])
        cliques = enumerate_cliques(g, 3)
        assert len(cliques) == 8
        for K in cliques:
            assert len({g.part_of(v) for v in K}) == 3

    def test_matches_naive_enumeration(self):
        for seed in range(10):
            g = gen_random(4, [3, 3, 2, 2], Fraction(3, 5), seed)
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

    def test_integral_implies_fractional_perfect(self):
        for seed in range(20):
            g = gen_random(3, [3, 3, 3], Fraction(4, 5), seed)
            tiles = perfect_tiling_bruteforce(g, 3)
            if tiles is not None:
                assert fractional_tiling(g, 3).is_perfect


class TestCover:
    def test_complete_host_single_hamiltonian_path(self):
        g = complete(3, [3, 3, 3])
        cfg = Config.default(3, seed=0)
        cov = cover_with_paths(g, 3, Fraction(0), cfg)
        assert len(cov.paths) == 1
        assert len(cov.paths[0]) == 9
        assert cov.leftover == frozenset()
        assert is_properly_terminated(g, cov.paths[0])

    def test_alpha_one_trivial(self):
        g = complete(3, [3, 3, 3])
        cov = cover_with_paths(g, 3, Fraction(1), Config.default(3, seed=0))
        assert cov.paths == ()
        assert len(cov.leftover) == 9

    def test_cover_soundness(self):
        for seed in range(5):
            g = gen_random(2, [6, 6], Fraction(9, 10), seed)
            if degree_profile(g).delta_p < Fraction(1, 2):
                continue
            cfg = Config.default(2, seed=seed)
            cov = cover_with_paths(g, 2, Fraction(1, 3), cfg)
            seen = set(cov.leftover)
            for p in cov.paths:
                assert is_path(g, p) and is_properly_terminated(g, p)
                assert not seen & set(p.vertices)
                seen.update(p.vertices)
            assert seen == set(range(g.n))
            counts = [len(set(cov.leftover) & set(part)) for part in g.parts]
            assert len(set(counts)) == 1
            assert len(cov.leftover) <= Fraction(1, 3) * g.n

    def test_unbalanced_host_rejected(self):
        g = complete(2, [3, 4])
        with pytest.raises(GraphValidationError):
            cover_with_paths(g, 2, Fraction(1), Config.default(2, seed=0))

    def test_shortfall_reports_best(self):
        g = gen_random(2, [4, 4], 0, 0)  # empty graph: no cliques at all
        with pytest.raises(SearchExhaustedError, match="shortfall"):
            cover_with_paths(g, 2, Fraction(1, 8), Config.default(2, seed=0))


def _cover_outcome(cover, g, r, alpha, cfg):
    try:
        return cover(g, r, alpha, cfg)
    except SearchExhaustedError as exc:
        return str(exc)


def test_cover_matches_the_rescanning_reference():
    """Same PathCover, or the same shortfall text, as the greedy that rescans
    every clique at every step, over first attempts, reshuffled retries and
    exhausted budgets."""
    seen = Counter()
    for trial in range(80):
        rng = random.Random(trial)
        r = (2, 3)[trial % 2]
        m = rng.randint(3, 8)
        g = gen_random(r, [m] * r, rng.choice([Fraction(1, 2), Fraction(3, 5), Fraction(4, 5), 1]),
                       trial)
        alpha = Fraction(rng.randint(0, 2), m)
        cfg = Config.default(r, seed=trial, retry_limit=rng.choice([1, 4, 20]))
        got = _cover_outcome(cover_with_paths, g, r, alpha, cfg)
        assert got == _cover_outcome(reference_cover_with_paths, g, r, alpha, cfg), trial
        first = _cover_outcome(reference_cover_with_paths, g, r, alpha,
                               Config.default(r, seed=trial, retry_limit=1))
        seen["exhausted" if isinstance(got, str) else "first" if got == first else "retried"] += 1
    assert min(seen["first"], seen["retried"], seen["exhausted"]) >= 5, seen
