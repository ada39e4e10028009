import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    complete,
    connectors_by_brute_force,
    naive_is_walk,
    reference_count_connecting_walks,
)
import hampow.connect
import hampow.oracle
from hampow.connect import (
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
from hampow.paths import is_path, is_walk


def _terminated_pair(graph, r, seed, order=None):
    """Two walks through the parts of `order` (the first r parts by default),
    in that order, picked at random, or None."""
    rng = random.Random(seed)
    order = range(r) if order is None else order
    out = []
    for _ in range(2):
        for _ in range(300):
            seq = tuple(rng.choice(graph.parts[i]) for i in order)
            if is_walk(graph, seq, r):
                out.append(seq)
                break
        else:
            return None
    return out


class TestCount:
    def test_k22_example(self):
        g = complete(2, [2, 2])
        p1, p2 = (0, 2), (1, 3)
        total, _ = count_connecting_walks(g, [g.parts[0], g.parts[1]], p1, p2, 2, 2)
        assert total == 4

    def test_head_isolated_from_reservoir_gives_zero(self):
        # P2 is a legal walk but its first vertex has no neighbor inside U
        g = MultipartiteGraph.from_edges([[0, 1], [2, 3]], [[0, 2], [0, 3], [1, 3]])
        p1, p2 = (0, 2), (1, 3)
        total, _ = count_connecting_walks(g, [[0], [2]], p1, p2, 2, 2)
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
            total, _ = count_connecting_walks(g, u_sets, p1, p2, ell, r)
            pool = sorted({v for u in u_sets for v in u})
            naive = sum(
                1
                for q in itertools.product(pool, repeat=ell)
                if naive_is_walk(g, p1 + q + p2, r)
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
            before, _ = count_connecting_walks(g, u_sets, p1, p2, 3, 3)
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
            after, _ = count_connecting_walks(g2, u_sets, p1, p2, 3, 3)
            assert after >= before

    def test_table_matches_the_counting_dp(self):
        """The table keeps the reference counting DP's layers in the same
        order, its final states and its total, on tables whose ordered layers
        repeat, on tables whose layers never repeat and on tables that die out."""
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
            terminal = set(p1) | set(p2)
            u_sets = [[v for v in g.parts[i] if v not in terminal and rng.random() < keep]
                      for i in range(r)]
            if not all(u_sets):
                continue
            for ell in range(1, 2 * default_connector_length(r) + 3):
                count, table = count_connecting_walks(g, u_sets, p1, p2, ell, r)
                total, layers, final = reference_count_connecting_walks(g, u_sets, p1, p2, ell, r)
                assert [list(layer) for layer in table.layers] == [list(layer) for layer in layers]
                assert list(table.final) == list(final)
                assert count == total
                repeats = len(set(table.layers)) < len(table.layers)
                seen["repeats" if repeats else "no repeat"].add(r)
                if not table.layers[-1]:
                    seen["dies out"].add(r)
        assert seen == {name: {2, 3, 4} for name in seen}

    def test_ill_terminated_rejected(self):
        g = complete(2, [2, 2])
        p_bad = (2, 0)  # starts in the second part
        with pytest.raises(GraphValidationError, match="ill-terminated"):
            count_connecting_walks(g, [g.parts[0], g.parts[1]], p_bad, p_bad, 2, 2)

    @pytest.mark.parametrize("p1, p2, which", [
        ((8, 4, 0, 5), (1, 6), "P1"),  # only the first vertex is off its set
        ((0, 4, 1, 8), (2, 6), "P1"),  # only the last vertex is off its set
        ((0, 4), (9, 5, 1, 6), "P2"),
        ((0, 4), (1, 5, 2, 10), "P2"),
    ])
    def test_each_end_of_each_walk_is_checked(self, p1, p2, which):
        g = complete(3, [4, 4, 4])  # parts 0-3, 4-7, 8-11; the sets lie in parts 0 and 1
        sets = [[3], [7]]
        with pytest.raises(GraphValidationError, match=f"^{which} is ill-terminated"):
            count_connecting_walks(g, sets, p1, p2, 2, 2)
        with pytest.raises(GraphValidationError, match=f"^{which} is ill-terminated"):
            find_connector(g, sets, p1, p2, 2, Config(r=2))

    @pytest.mark.parametrize("p2, bad", [
        ((1, 3, 99, -1), "99"),  # the first stray is named, not the smallest or largest
        ((1, -1, 99, 3), "-1"),
        ((1, 3, float("nan"), 3), "nan"),  # passes a min/max range test, fails the scan
    ])
    def test_stray_terminal_vertex_is_named_as_the_scan_names_it(self, p2, bad):
        g = complete(2, [2, 2])
        p1 = (0, 2)
        with pytest.raises(GraphValidationError, match=f"^P2 holds vertex {bad} outside 0..3$"):
            count_connecting_walks(g, [g.parts[0], g.parts[1]], p1, p2, 2, 2)

    def test_u_set_spanning_two_parts_rejected(self):
        g = complete(2, [2, 2])
        p1 = (0, 2)
        with pytest.raises(GraphValidationError, match="single part"):
            count_connecting_walks(g, [[0, 2], [3]], p1, p1, 2, 2)


class TestFindConnector:
    def test_complete_host_returns_verified_path(self):
        g = complete(3, [12, 12, 12])
        cfg = Config(3, seed=4)
        p1 = (0, 12, 24)
        p2 = (1, 13, 25)
        ell = default_connector_length(3)
        terminal = (0, 1, 12, 13, 24, 25)
        u_sets = [[v for v in g.parts[i] if v not in terminal] for i in range(3)]
        q = find_connector(g, u_sets, p1, p2, ell, cfg)
        assert len(q) == ell
        assert is_path(g, q, 3)
        assert is_walk(g, p1 + q + p2, 3)
        assert all(any(v in u for u in map(set, u_sets)) for v in q)

    def test_only_repeating_walks_is_a_proved_none(self, monkeypatch):
        # the one connecting walk in these pools is 2, 6, 2, 6: vertex 3 has
        # no neighbour in the second pool and 7 none after P1 or before P2
        g = MultipartiteGraph.from_edges(
            [[0, 1, 2, 3], [4, 5, 6, 7]], [[0, 4], [1, 5], [4, 2], [2, 6], [6, 1], [3, 7]]
        )
        p1, p2 = (0, 4), (1, 5)
        u_sets = [[2, 3], [6, 7]]
        assert count_connecting_walks(g, u_sets, p1, p2, 4, 2)[0] == 1
        searches = _record_searches(monkeypatch)
        with pytest.raises(SearchExhaustedError) as info:
            find_connector(g, u_sets, p1, p2, 4, Config(2, seed=0))
        assert type(info.value) is SearchExhaustedError
        assert str(info.value) == "no vertex-distinct connector exists"
        assert [s.nodes for s in searches] == [3]  # the root, 2 and 6

    def test_count_too_long_to_write_is_named_not_written(self, monkeypatch):
        """A connector of 7500 steps through 8 free vertices: the message
        names no walk count, and none is computed."""
        monkeypatch.setattr(hampow.connect, "count_connecting_walks", _refuse)
        g = complete(2, [6, 6])
        p1, p2 = (0, 6), (1, 7)
        u_sets = [[2, 3, 4, 5], [8, 9, 10, 11]]
        with pytest.raises(SearchExhaustedError) as info:
            find_connector(g, u_sets, p1, p2, 7500, Config(2, seed=0))
        assert type(info.value) is SearchExhaustedError
        assert str(info.value) == "no vertex-distinct connector exists"

    def test_no_walks_at_all(self):
        # the pools' only vertices, 2 and 5, are not adjacent
        g = MultipartiteGraph.from_edges([[0, 1, 2], [3, 4, 5]], [[0, 3], [1, 4], [3, 2], [5, 1]])
        p1, p2 = (0, 3), (1, 4)
        assert count_connecting_walks(g, [[2], [5]], p1, p2, 2, 2)[0] == 0
        with pytest.raises(SearchExhaustedError) as info:
            find_connector(g, [[2], [5]], p1, p2, 2, Config(2, seed=0))
        assert type(info.value) is SearchExhaustedError
        assert str(info.value) == "no vertex-distinct connector exists"

    def test_search_agrees_with_brute_force(self):
        """At r = 2, 3 and 4, on r-partite hosts and on hosts with two more
        parts than r, whose sets lie in r parts taken in a random order."""
        for r, extra in itertools.product((2, 3, 4), (0, 2)):
            k = r + extra
            found = none = 0
            trial = 0
            while found < 12 or none < 12:
                trial += 1
                rng = random.Random(trial)
                g = gen_random(k, [rng.randint(3, 5)] * k, Fraction(rng.choice([6, 8, 10]), 10),
                               trial)
                order = rng.sample(range(k), r)
                pair = _terminated_pair(g, r, trial, order)
                if pair is None:
                    continue
                p1, p2 = pair
                terminal = set(p1) | set(p2)
                u_sets = [[v for v in g.parts[i] if v not in terminal and rng.random() < 0.8]
                          for i in order]
                if not all(u_sets):
                    continue
                ell = rng.choice([rng.randint(1, 2 * r), r * rng.randint(1, 2)])
                want = connectors_by_brute_force(g, u_sets, p1, p2, ell, r)
                try:
                    q = find_connector(g, u_sets, p1, p2, ell, Config(r, seed=trial))
                except SearchExhaustedError as exc:
                    assert type(exc) is SearchExhaustedError
                    assert not want, (r, k, trial)
                    none += 1
                    continue
                assert q in want, (r, k, trial)
                found += 1

    def test_no_walk_at_r2_is_proved_none_at_the_root(self, monkeypatch):
        """At r = 2 the live cells are exactly the vertices a walk can reach
        P2 from, so with no connecting walk the root has no child."""
        searches = _record_searches(monkeypatch)
        proved = 0
        for trial in range(200):
            rng = random.Random(trial)
            g = gen_random(2, [rng.randint(4, 7)] * 2, Fraction(3, 10), trial)
            pair = _terminated_pair(g, 2, trial)
            if pair is None:
                continue
            p1, p2 = pair
            terminal = set(p1) | set(p2)
            u_sets = [[v for v in part if v not in terminal] for part in g.parts]
            ell = 2 * rng.randint(1, 2)
            if count_connecting_walks(g, u_sets, p1, p2, ell, 2)[0] or \
                    min(map(len, u_sets)) < ell // 2:
                continue
            del searches[:]
            with pytest.raises(SearchExhaustedError):
                find_connector(g, u_sets, p1, p2, ell, Config(2, seed=trial))
            assert [s.nodes for s in searches] == [1], trial
            proved += 1
        assert proved >= 20

    @pytest.mark.parametrize("ell", [9, 12])
    def test_seam_cut_off_from_its_pool_is_proved_none_in_a_few_nodes(self, monkeypatch, ell):
        """P2's first vertex has no neighbour in the third pool of a complete
        12 + 12 + 12 host, so no connector ends there."""
        g = complete(3, [12, 12, 12])
        p1, p2 = (0, 12, 24), (1, 13, 25)
        terminal = (0, 1, 12, 13, 24, 25)
        u_sets = [[v for v in g.parts[i] if v not in terminal] for i in range(3)]
        cut = MultipartiteGraph.from_edges(
            [list(p) for p in g.parts],
            [(u, v) for u, v in g.edges() if not (u == 1 and v in u_sets[2])],
        )
        searches = _record_searches(monkeypatch)
        with pytest.raises(SearchExhaustedError) as info:
            find_connector(cut, u_sets, p1, p2, ell, Config(3, seed=1))
        assert type(info.value) is SearchExhaustedError
        assert [s.nodes for s in searches] == [1]

    def test_pigeonhole_proves_none_without_a_search(self, monkeypatch):
        """Six steps take three vertices from each pool of two."""
        monkeypatch.setattr(hampow.connect, "window_paths", _refuse)
        g = complete(2, [4, 4])
        p1, p2 = (0, 4), (1, 5)
        with pytest.raises(SearchExhaustedError) as info:
            find_connector(g, [[2, 3], [6, 7]], p1, p2, 6, Config(2, seed=0))
        assert str(info.value) == "no vertex-distinct connector exists"
        # four steps take two vertices from each pool
        monkeypatch.undo()
        assert len(find_connector(g, [[2, 3], [6, 7]], p1, p2, 4, Config(2, seed=0))) == 4

    def test_search_is_seed_deterministic(self):
        g = complete(3, [5, 5, 5])
        p1 = (0, 5, 10)
        p2 = (1, 6, 11)
        terminal = (0, 1, 5, 6, 10, 11)
        u_sets = [[v for v in g.parts[i] if v not in terminal] for i in range(3)]
        a = find_connector(g, u_sets, p1, p2, 6, Config(3, seed=9))
        b = find_connector(g, u_sets, p1, p2, 6, Config(3, seed=9))
        assert a == b

    def test_spent_budget_is_not_a_none(self, monkeypatch):
        g = complete(3, [5, 5, 5])
        p1, p2 = (0, 5, 10), (1, 6, 11)
        terminal = (0, 1, 5, 6, 10, 11)
        u_sets = [[v for v in g.parts[i] if v not in terminal] for i in range(3)]
        # the search needs the root and six picks
        monkeypatch.setattr(hampow.oracle, "SearchBudget", lambda: SearchBudget(5))
        with pytest.raises(BudgetExhaustedError, match="budget of 5 nodes"):
            find_connector(g, u_sets, p1, p2, 6, Config(3, seed=9))

    def test_walk_that_does_not_splice_fails_verification(self, monkeypatch):
        g = complete(3, [5, 5, 5])
        p1 = (0, 5, 10)
        p2 = (1, 6, 11)
        terminal = (0, 1, 5, 6, 10, 11)
        u_sets = [[v for v in g.parts[i] if v not in terminal] for i in range(3)]
        # a search that forgets P2 lays 5 steps, the last two before P2's
        # first vertex, and the fourth in its part
        cells = [frozenset(u_sets[t % 3]) for t in range(5)]
        real = hampow.connect.window_paths
        monkeypatch.setattr(hampow.connect, "window_paths",
                            lambda graph, _, used, r, before, after, rng:
                                real(graph, cells, used, r, before=before, rng=rng))
        with pytest.raises(VerificationError, match="does not splice"):
            find_connector(g, u_sets, p1, p2, 5, Config(3, seed=9))


def _refuse(*args, **kwargs):
    raise AssertionError("called")


def _record_searches(monkeypatch):
    """The depth-first searches started from now on, to read their node counts."""
    searches = []

    class Recorded(hampow.oracle.DepthFirst):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(hampow.oracle, "DepthFirst", Recorded)
    return searches
