import itertools
import random
from fractions import Fraction

import pytest

from conftest import complete, naive_is_walk
import hampow.connect
from hampow.connect import (
    count_connecting_walks,
    default_connector_length,
    find_connector,
)
from hampow.errors import GraphValidationError, SearchExhaustedError, VerificationError
from hampow.graphs import Config, MultipartiteGraph, gen_random
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
        q = find_connector(g, u_sets, p1, p2, ell, terminal, cfg)
        assert len(q) == ell
        assert is_path(g, q)
        assert is_walk(g, p1.concat(q).concat(p2))
        assert all(any(v in u for u in map(set, u_sets)) for v in q.vertices)

    def test_everything_forbidden_exhausts(self):
        g = complete(2, [3, 3])
        cfg = Config.default(2, seed=0)
        p1, p2 = VertexSeq((0, 3), 2), VertexSeq((1, 4), 2)
        with pytest.raises(SearchExhaustedError) as info:
            find_connector(g, [g.parts[0], g.parts[1]], p1, p2, 2, range(6), cfg)
        assert "walks exist" in str(info.value)

    def test_no_walks_at_all(self):
        g = gen_random(2, [2, 2], 0, 0)
        cfg = Config.default(2, seed=0)
        # terminated pair needs a walk; build it on an edgeless graph is fine for r=2 len 2? no
        g = MultipartiteGraph.from_edges([[0, 1], [2, 3]], [[0, 2], [1, 3]])
        p1, p2 = VertexSeq((0, 2), 2), VertexSeq((1, 3), 2)
        with pytest.raises(SearchExhaustedError, match="count 0"):
            find_connector(g, [[1], [2]], p1, p2, 2, (), cfg)

    def test_sampling_is_seed_deterministic(self):
        g = complete(3, [5, 5, 5])
        p1 = VertexSeq((0, 5, 10), 3)
        p2 = VertexSeq((1, 6, 11), 3)
        forbidden = (0, 1, 5, 6, 10, 11)
        u_sets = [[v for v in g.parts[i] if v not in forbidden] for i in range(3)]
        a = find_connector(g, u_sets, p1, p2, 6, forbidden, Config.default(3, seed=9))
        b = find_connector(g, u_sets, p1, p2, 6, forbidden, Config.default(3, seed=9))
        assert a == b

    def test_sample_that_does_not_splice_fails_verification(self, monkeypatch):
        g = complete(3, [5, 5, 5])
        p1 = VertexSeq((0, 5, 10), 3)
        p2 = VertexSeq((1, 6, 11), 3)
        forbidden = (0, 1, 5, 6, 10, 11)
        u_sets = [[v for v in g.parts[i] if v not in forbidden] for i in range(3)]
        # a path off the forbidden set whose first two vertices share a part
        monkeypatch.setattr(hampow.connect, "_sample_walk", lambda *a: (2, 3, 7, 8, 12, 13))
        with pytest.raises(VerificationError):
            find_connector(g, u_sets, p1, p2, 6, forbidden, Config.default(3, seed=9))
