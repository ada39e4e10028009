import itertools
import random
import sys
from fractions import Fraction

import pytest

from conftest import complete, naive_is_walk, reference_count_connecting_walks
import hampow.connect
from hampow.connect import (
    build_walk_table,
    count_connecting_walks,
    default_connector_length,
    find_connector,
)
from hampow.errors import (
    BudgetExhaustedError,
    GraphValidationError,
    SearchExhaustedError,
    VerificationError,
)
from hampow.graphs import Config, MultipartiteGraph, gen_random
from hampow.oracle import SearchBudget
from hampow.paths import VertexSeq, is_path, is_walk


def _terminated_pair(graph, r, seed):
    """Two properly terminated walks picked at random, or None."""
    rng = random.Random(seed)
    out = []
    for _ in range(2):
        for _ in range(300):
            seq = tuple(rng.choice(graph.parts[i]) for i in range(r))
            vs = VertexSeq(seq, r)
            if is_walk(graph, vs):
                out.append(vs)
                break
        else:
            return None
    return out


class TestCount:
    def test_k22_example(self):
        g = complete(2, [2, 2])
        p1, p2 = VertexSeq((0, 2), 2), VertexSeq((1, 3), 2)
        total, table = count_connecting_walks(g, [g.parts[0], g.parts[1]], p1, p2, 2)
        assert total == 4
        assert table.total == 4

    def test_head_isolated_from_reservoir_gives_zero(self):
        # P2 is a legal walk but its first vertex has no neighbor inside U
        g = MultipartiteGraph.from_edges([[0, 1], [2, 3]], [[0, 2], [0, 3], [1, 3]])
        p1, p2 = VertexSeq((0, 2), 2), VertexSeq((1, 3), 2)
        total, _ = count_connecting_walks(g, [[0], [2]], p1, p2, 2)
        assert total == 0

    def test_matches_naive_enumeration(self):
        checked = 0
        trial = 0
        while checked < 80:
            trial += 1
            rng = random.Random(trial)
            r = rng.choice([2, 3])
            g = gen_random(r, [rng.randint(2, 3)] * r, Fraction(4, 5), trial)
            pair = _terminated_pair(g, r, trial)
            if pair is None:
                continue
            p1, p2 = pair
            ell = rng.randint(1, 4)
            u_sets = [list(g.parts[i]) for i in range(r)]
            total, _ = count_connecting_walks(g, u_sets, p1, p2, ell)
            pool = sorted({v for u in u_sets for v in u})
            naive = sum(
                1
                for q in itertools.product(pool, repeat=ell)
                if naive_is_walk(g, p1.vertices + q + p2.vertices, r)
            )
            assert total == naive, (trial, total, naive)
            checked += 1
        assert checked == 80

    def test_monotone_under_edge_addition(self):
        rng = random.Random(3)
        for trial in range(20):
            g = gen_random(3, [3, 3, 3], Fraction(3, 5), trial)
            pair = _terminated_pair(g, 3, trial)
            if pair is None:
                continue
            p1, p2 = pair
            u_sets = [list(g.parts[i]) for i in range(3)]
            before, _ = count_connecting_walks(g, u_sets, p1, p2, 3)
            missing = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if g.part_of(u) != g.part_of(v) and v not in g.adj[u]
            ]
            if not missing:
                continue
            extra = missing[rng.randrange(len(missing))]
            g2 = MultipartiteGraph.from_edges(
                [list(p) for p in g.parts], g.edges() + [list(extra)]
            )
            after, _ = count_connecting_walks(g2, u_sets, p1, p2, 3)
            assert after >= before

    def test_table_matches_the_counting_dp(self):
        """The reachability table keeps the counting DP's layers in the same
        order, its final states and its total, and stores each layer that
        repeats an earlier ordered layer as that layer's dict."""
        seen = {"repeats": set(), "no repeat": set(), "dies out": set()}
        for trial in range(90):
            rng = random.Random(trial)
            r = (2, 3, 4)[trial % 3]
            kind = ("dense", "sparse", "dying")[trial // 3 % 3]
            density, keep = {"dense": (Fraction(9, 10), 1.0), "sparse": (Fraction(6, 10), 0.6),
                             "dying": (Fraction(4, 10), 0.4)}[kind]
            g = gen_random(r, [rng.randint(4, 7)] * r, density, trial)
            pair = _terminated_pair(g, r, trial)
            if pair is None:
                continue
            p1, p2 = pair
            terminal = set(p1.vertices) | set(p2.vertices)
            u_sets = [[v for v in g.parts[i] if v not in terminal and rng.random() < keep]
                      for i in range(r)]
            if not all(u_sets):
                continue
            for ell in range(1, 2 * default_connector_length(r) + 3):
                table = build_walk_table(g, u_sets, p1, p2, ell)
                total, layers, final = reference_count_connecting_walks(g, u_sets, p1, p2, ell)
                assert [list(layer) for layer in table.layers] == [list(layer) for layer in layers]
                assert list(table.final) == list(final)
                assert table.total == total
                assert count_connecting_walks(g, u_sets, p1, p2, ell)[0] == total
                first_at: dict = {}
                for t, layer in enumerate(table.layers):
                    assert layer is table.layers[first_at.setdefault(tuple(layer), t)], (trial, t)
                repeats = len(first_at) < len(table.layers)
                seen["repeats" if repeats else "no repeat"].add(r)
                if not table.layers[-1]:
                    seen["dies out"].add(r)
        assert seen == {name: {2, 3, 4} for name in seen}

    def test_ill_terminated_rejected(self):
        g = complete(2, [2, 2])
        p_bad = VertexSeq((2, 0), 2)  # starts in the second part
        with pytest.raises(GraphValidationError, match="ill-terminated"):
            count_connecting_walks(g, [g.parts[0], g.parts[1]], p_bad, p_bad, 2)

    def test_u_set_spanning_two_parts_rejected(self):
        g = complete(2, [2, 2])
        p1 = VertexSeq((0, 2), 2)
        with pytest.raises(GraphValidationError, match="single part"):
            count_connecting_walks(g, [[0, 2], [3]], p1, p1, 2)


class TestFindConnector:
    def test_complete_host_returns_verified_path(self):
        g = complete(3, [12, 12, 12])
        cfg = Config.default(3, seed=4)
        p1 = VertexSeq((0, 12, 24), 3)
        p2 = VertexSeq((1, 13, 25), 3)
        ell = default_connector_length(3)
        terminal = (0, 1, 12, 13, 24, 25)
        u_sets = [[v for v in g.parts[i] if v not in terminal] for i in range(3)]
        q = find_connector(g, u_sets, p1, p2, ell, cfg)
        assert len(q) == ell
        assert is_path(g, q)
        assert is_walk(g, p1.concat(q).concat(p2))
        assert all(any(v in u for u in map(set, u_sets)) for v in q.vertices)

    def test_only_repeating_walks_is_a_proved_none(self):
        # the one connecting walk in these pools is 2, 5, 2, 5
        g = complete(2, [3, 3])
        cfg = Config.default(2, seed=0)
        p1, p2 = VertexSeq((0, 3), 2), VertexSeq((1, 4), 2)
        with pytest.raises(SearchExhaustedError) as info:
            find_connector(g, [[2], [5]], p1, p2, 4, cfg)
        assert type(info.value) is SearchExhaustedError
        assert str(info.value) == \
            "no vertex-distinct connector exists (exact count 1 connecting walks)"

    def test_count_too_long_to_write_is_named_not_written(self):
        g = complete(2, [6, 6])
        p1, p2 = VertexSeq((0, 6), 2), VertexSeq((1, 7), 2)
        u_sets = [[2, 3, 4, 5], [8, 9, 10, 11]]
        with pytest.raises(SearchExhaustedError) as info:
            find_connector(g, u_sets, p1, p2, 7500, Config.default(2, seed=0))
        assert str(info.value) == ("no vertex-distinct connector exists (an exact count of "
                                   f"more than {sys.get_int_max_str_digits()} digits)")

    def test_no_walks_at_all(self):
        g = MultipartiteGraph.from_edges([[0, 1], [2, 3]], [[0, 2], [1, 3]])
        cfg = Config.default(2, seed=0)
        p1, p2 = VertexSeq((0, 2), 2), VertexSeq((1, 3), 2)
        with pytest.raises(SearchExhaustedError, match="count 0"):
            find_connector(g, [[1], [2]], p1, p2, 2, cfg)

    def test_search_agrees_with_brute_force(self):
        found = none = 0
        trial = 0
        while found < 40 or none < 40:
            trial += 1
            rng = random.Random(trial)
            r = rng.choice([2, 3])
            g = gen_random(r, [rng.randint(3, 5)] * r, Fraction(rng.choice([6, 8, 10]), 10), trial)
            pair = _terminated_pair(g, r, trial)
            if pair is None:
                continue
            p1, p2 = pair
            terminal = set(p1.vertices) | set(p2.vertices)
            u_sets = [[v for v in g.parts[i] if v not in terminal and rng.random() < 0.8]
                      for i in range(r)]
            if not all(u_sets):
                continue
            ell = rng.randint(1, 2 * r)
            pool = sorted(v for u in u_sets for v in u)
            exists = any(
                len(set(q)) == ell and naive_is_walk(g, p1.vertices + q + p2.vertices, r)
                for q in itertools.product(pool, repeat=ell)
            )
            try:
                q = find_connector(g, u_sets, p1, p2, ell, Config.default(r, seed=trial))
            except SearchExhaustedError as exc:
                assert type(exc) is SearchExhaustedError
                assert not exists, trial
                none += 1
                continue
            assert exists, trial
            assert len(set(q.vertices)) == ell and set(q.vertices) <= set(pool)
            assert naive_is_walk(g, p1.vertices + q.vertices + p2.vertices, r), trial
            found += 1

    def test_search_is_seed_deterministic(self):
        g = complete(3, [5, 5, 5])
        p1 = VertexSeq((0, 5, 10), 3)
        p2 = VertexSeq((1, 6, 11), 3)
        terminal = (0, 1, 5, 6, 10, 11)
        u_sets = [[v for v in g.parts[i] if v not in terminal] for i in range(3)]
        a = find_connector(g, u_sets, p1, p2, 6, Config.default(3, seed=9))
        b = find_connector(g, u_sets, p1, p2, 6, Config.default(3, seed=9))
        assert a == b

    def test_spent_budget_is_not_a_none(self, monkeypatch):
        g = complete(3, [5, 5, 5])
        p1, p2 = VertexSeq((0, 5, 10), 3), VertexSeq((1, 6, 11), 3)
        terminal = (0, 1, 5, 6, 10, 11)
        u_sets = [[v for v in g.parts[i] if v not in terminal] for i in range(3)]
        monkeypatch.setattr(hampow.connect, "SearchBudget", lambda: SearchBudget(5))
        with pytest.raises(BudgetExhaustedError, match="budget of 5 nodes"):
            find_connector(g, u_sets, p1, p2, 6, Config.default(3, seed=9))

    def test_walk_that_does_not_splice_fails_verification(self, monkeypatch):
        g = complete(3, [5, 5, 5])
        p1 = VertexSeq((0, 5, 10), 3)
        p2 = VertexSeq((1, 6, 11), 3)
        terminal = (0, 1, 5, 6, 10, 11)
        u_sets = [[v for v in g.parts[i] if v not in terminal] for i in range(3)]
        # with the seam filter off, the final layer keeps walks of length 5,
        # whose last vertex shares a part with P2's first
        monkeypatch.setattr(hampow.connect, "splice_ok", lambda *a: True)
        with pytest.raises(VerificationError, match="does not splice"):
            find_connector(g, u_sets, p1, p2, 5, Config.default(3, seed=9))
