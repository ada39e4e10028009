import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    build_outcome,
    complete,
    reference_from_edges,
    reference_load_graph,
    scan_validate,
)
from hampow.errors import GraphFormatError, GraphValidationError
from hampow.graphs import (
    Config,
    MultipartiteGraph,
    degree_profile,
    gen_extremal,
    gen_random,
    induced_subgraph,
    load_graph,
    reduce_parts,
    save_graph,
)


class TestLoadSave:
    def test_k22_document(self):
        doc = {"k": 2, "parts": [[0, 1], [2, 3]], "edges": [[0, 2], [0, 3], [1, 2], [1, 3]]}
        g = load_graph(json.dumps(doc))
        assert g.k == 2 and g.n == 4
        assert degree_profile(g).delta_p == 1

    def test_edge_inside_part_rejected(self):
        doc = {"k": 2, "parts": [[0, 1], [2, 3]], "edges": [[0, 1]]}
        with pytest.raises(GraphValidationError, match="inside part"):
            load_graph(json.dumps(doc))

    def test_overlapping_parts_rejected(self):
        doc = {"k": 2, "parts": [[0, 1], [1, 2]], "edges": []}
        with pytest.raises(GraphValidationError):
            load_graph(json.dumps(doc))

    def test_dangling_vertex_rejected(self):
        doc = {"k": 2, "parts": [[0], [1]], "edges": [[0, 5]]}
        with pytest.raises(GraphValidationError, match="dangling"):
            load_graph(json.dumps(doc))

    def test_wrapped_negative_neighbour_rejected(self):
        # adj[-1] is vertex 1's set, which holds 0: only a range check catches it
        with pytest.raises(GraphValidationError, match=r"edge \(0,-1\) references a dangling"):
            MultipartiteGraph(((0,), (1,)), (frozenset({1, -1}), frozenset({0})))

    def test_malformed_json(self):
        with pytest.raises(GraphFormatError):
            load_graph("{not json")

    def test_unknown_format_tag(self):
        with pytest.raises(GraphFormatError):
            load_graph("{}", fmt="dimacs")

    def test_round_trip_identity(self):
        g = gen_random(3, [3, 2, 2], Fraction(1, 2), 42)
        assert load_graph(save_graph(g)) == g
        assert save_graph(load_graph(save_graph(g))) == save_graph(g)


class TestDegreeProfile:
    def test_complete_three_partite(self):
        assert degree_profile(complete(3, [2, 2, 2])).delta_p == 1

    def test_k22_minus_edge(self):
        g = MultipartiteGraph.from_edges([[0, 1], [2, 3]], [[0, 2], [0, 3], [1, 2]])
        assert degree_profile(g).delta_p == Fraction(1, 2)

    def test_single_edge_deletion_is_local(self):
        g = complete(4, [2, 2, 2, 2])
        before = degree_profile(g).delta_ij
        edges = [e for e in g.edges() if e != (0, 2)]
        g2 = MultipartiteGraph.from_edges([list(p) for p in g.parts], edges)
        after = degree_profile(g2).delta_ij
        touched = {g.part_of(0), g.part_of(2)}
        for i in range(4):
            for j in range(4):
                if i != j and i not in touched and j not in touched:
                    assert before[i][j] == after[i][j]

    def test_empty_part_rejected(self):
        g = MultipartiteGraph((tuple(), (0, 1)), (frozenset(), frozenset()))
        with pytest.raises(GraphValidationError, match="empty"):
            degree_profile(g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 4))
    def test_monotone_under_edge_addition(self, seed, k):
        g = gen_random(k, [3] * k, Fraction(1, 2), seed)
        missing = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if g.part_of(u) != g.part_of(v) and v not in g.adj[u]
        ]
        if not missing:
            return
        before = degree_profile(g)
        g2 = MultipartiteGraph.from_edges(
            [list(p) for p in g.parts], g.edges() + [list(missing[seed % len(missing)])]
        )
        after = degree_profile(g2)
        assert after.delta_p >= before.delta_p
        for i in range(k):
            for j in range(k):
                if i != j:
                    assert after.delta_ij[i][j] >= before.delta_ij[i][j]


class TestGenerators:
    def test_delta_one_is_complete(self):
        g = gen_random(3, [2, 3, 2], 1, 9)
        assert len(g.edges()) == 2 * 3 + 2 * 2 + 3 * 2

    def test_delta_zero_is_empty(self):
        g = gen_random(3, [2, 2, 2], 0, 9)
        assert g.edges() == []
        assert degree_profile(g).delta_p == 0

    def test_same_seed_same_graph(self):
        a = gen_random(3, [4, 4, 4], Fraction(3, 4), 7)
        b = gen_random(3, [4, 4, 4], Fraction(3, 4), 7)
        assert a == b
        c = gen_random(3, [4, 4, 4], Fraction(3, 4), 8)
        assert a != c

    def test_size_mismatch(self):
        with pytest.raises(GraphValidationError):
            gen_random(2, [2, 2, 2], 1, 0)

    @pytest.mark.parametrize("k, sizes", [(2, [2, 2, 2]), (3, [1]), (3, [])])
    def test_extremal_size_mismatch(self, k, sizes):
        with pytest.raises(GraphValidationError, match=f"k={k} but {len(sizes)} sizes given"):
            gen_extremal(k, sizes, 2)

    def test_extremal_666(self):
        g = gen_extremal(3, (6, 6, 6), 3)
        assert degree_profile(g).delta_p == Fraction(1, 2)
        planted = {v for part in g.parts for v in part[: len(part) // 3 + 1]}
        assert len(planted) == 9 > 18 // 3
        for u in planted:
            assert not g.adj[u] & planted

    def test_extremal_44(self):
        g = gen_extremal(2, (4, 4), 2)
        planted = {v for part in g.parts for v in part[: len(part) // 2 + 1]}
        assert len(planted) == 6 > 8 // 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(3, 7))
    def test_extremal_independent_set_beats_bound(self, r, size):
        k = r
        g = gen_extremal(k, [size] * k, r)
        planted = {v for part in g.parts for v in part[: len(part) // r + 1]}
        assert len(planted) > g.n // r
        for u in planted:
            assert not g.adj[u] & planted


class TestReduceParts:
    def test_merge_example(self):
        g = complete(4, [5, 5, 3, 2])
        res = reduce_parts(g, 3)
        assert sorted(len(p) for p in res.graph.parts) == [5, 5, 5]
        assert res.graph.k == 3

    def test_balanced_input_unchanged(self):
        g = complete(3, [4, 4, 4])
        res = reduce_parts(g, 3)
        assert [len(p) for p in res.graph.parts] == [4, 4, 4]
        assert sorted(res.graph.edges()) == sorted(g.edges())

    def test_output_is_subgraph(self):
        g = gen_random(5, [4, 4, 4, 2, 1], Fraction(4, 5), 3)
        res = reduce_parts(g, 3)
        assert set(map(tuple, res.graph.edges())) <= set(map(tuple, g.edges()))
        assert res.graph.n == g.n

    def test_k_bounds_and_mapping(self):
        for seed in range(6):
            g = gen_random(6, [3, 3, 3, 3, 2, 1], Fraction(1, 2), seed)
            res = reduce_parts(g, 3)
            assert 3 <= res.graph.k <= 5
            for v in range(g.n):
                assert v in res.graph.parts[res.part_map[v]]

    def test_split_path_dissolves_tiny_part(self):
        # two smallest parts exceed n/r together, so the tiny part must be
        # dissolved across the others instead of merged
        g = complete(4, [25, 24, 24, 2])
        res = reduce_parts(g, 3)
        assert sorted(len(p) for p in res.graph.parts) == [25, 25, 25]
        assert set(map(tuple, res.graph.edges())) <= set(map(tuple, g.edges()))
        for v in range(g.n):
            assert v in res.graph.parts[res.part_map[v]]

    def test_merge_never_decreases_delta(self):
        # merge-only reduction (no tiny parts): measured profile cannot drop
        g = gen_random(4, [4, 4, 2, 2], Fraction(9, 10), 5)
        before = degree_profile(g).delta_p
        res = reduce_parts(g, 3, tiny=Fraction(0))
        assert degree_profile(res.graph).delta_p >= before

    def test_precondition_part_too_big(self):
        g = complete(2, [5, 2])
        with pytest.raises(GraphValidationError):
            reduce_parts(g, 2)

    @pytest.mark.parametrize("k, r, sizes", [(3, 3, [9, 9, 9]), (5, 3, [6, 6, 6, 6, 6])])
    def test_unchanged_parts_return_the_input(self, k, r, sizes):
        # k = r, and k = 2r-1 where any two parts together exceed n/r
        g = gen_random(k, sizes, Fraction(9, 10), 7)
        res = reduce_parts(g, r)
        assert res.graph is g
        assert res.part_map == g.part_index

    def test_reordered_parts_get_a_new_graph(self):
        # no two parts fit together under n/r, but they stand in ascending size
        g = gen_random(4, [4, 5, 5, 6], Fraction(9, 10), 4)
        res = reduce_parts(g, 3)
        assert res.graph is not g
        assert res.graph.parts == (g.parts[3], g.parts[1], g.parts[2], g.parts[0])
        assert res.graph.adj == g.adj
        assert res.part_map == tuple((3, 1, 2, 0)[i] for i in g.part_index)

    def test_merged_parts_get_a_new_validated_graph(self, monkeypatch):
        g = gen_random(4, [5, 5, 3, 2], Fraction(9, 10), 2)
        checked = []
        real = MultipartiteGraph.validate
        monkeypatch.setattr(MultipartiteGraph, "validate",
                            lambda self: checked.append(self.parts) or real(self))
        res = reduce_parts(g, 3)
        assert res.graph is not g
        assert checked == [res.graph.parts]
        assert sorted(len(p) for p in res.graph.parts) == [5, 5, 5]


def test_induced_subgraph_relabels():
    g = complete(3, [3, 3, 3])
    sub, old_ids = induced_subgraph(g, [g.parts[0][:2], g.parts[2][:2]])
    assert sub.n == 4 and sub.k == 2
    for new, old in enumerate(old_ids):
        assert {old_ids[u] for u in sub.adj[new]} <= g.adj[old]


@pytest.mark.parametrize("seed", range(8))
def test_induced_subgraph_sets_iterate_as_when_built_vertex_by_vertex(seed):
    # sparse hosts: small sets in tables smaller than the largest id, where the
    # insertion order decides the iteration order
    rng = random.Random(seed)
    g = gen_random(3, [60, 60, 60], Fraction(1, 10), seed)
    chosen = [rng.sample(p, rng.randint(20, 60)) for p in g.parts]
    rng.shuffle(chosen)
    sub, old_ids = induced_subgraph(g, chosen)
    rev = {old: new for new, old in enumerate(old_ids)}
    want = [list(frozenset(rev[u] for u in g.adj[old] if u in rev)) for old in old_ids]
    assert [list(a) for a in sub.adj] == want


class TestConfig:
    def test_defaults_satisfy_chain(self):
        for r in range(2, 7):
            cfg = Config.default(r)
            assert 0 < cfg.beta < cfg.sigma < cfg.gamma <= Fraction(1, r)

    def test_invalid_chain_rejected(self):
        with pytest.raises(GraphValidationError):
            Config(
                r=3,
                gamma=Fraction(1, 10),
                sigma=Fraction(1, 5),
                beta=Fraction(1, 20),
                nu=Fraction(1, 10),
            )

    def test_floor_is_at_least_one(self):
        cfg = Config.default(3)
        assert cfg.floor_m(10) == 1
        assert cfg.floor_m(10_000) >= cfg.beta * 10_000

    @pytest.mark.parametrize("r", [-1, 0, 1])
    def test_default_rejects_r_below_two_before_dividing_by_it(self, r):
        with pytest.raises(GraphValidationError, match="at least 2"):
            Config.default(r)

    def test_rng_streams_are_deterministic(self):
        cfg = Config.default(3, seed=5)
        assert cfg.rng("x").random() == cfg.rng("x").random()
        assert cfg.rng("x").random() != cfg.rng("y").random()


@pytest.mark.parametrize("seed", range(8))
def test_adj_mask_matches_the_shift_per_neighbour_sum(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 6)
    g = gen_random(k, [rng.randint(1, 40) for _ in range(k)], rng.choice([0, 0.3, 0.9, 1]), seed)
    assert g.adj_mask == tuple(sum(1 << u for u in nb) for nb in g.adj)


def _corruptions(g, rng):
    """(label, parts, adj) copies of a valid graph, each with one defect."""
    parts = [list(p) for p in g.parts]
    adj = [set(a) for a in g.adj]
    n = g.n
    u = rng.randrange(n)
    i = g.part_of(u)
    other = [v for v in range(n) if g.part_of(v) != i and v not in g.adj[u]]
    mate = [w for w in g.parts[i] if w != u]

    def variant(label, new_parts=parts, new_adj=adj):
        return label, tuple(tuple(p) for p in new_parts), tuple(frozenset(a) for a in new_adj)

    out = [variant("valid")]
    out.append(variant("self-loop", new_adj=[a | {u} if v == u else a for v, a in enumerate(adj)]))
    if other:
        w = rng.choice(other)
        out.append(variant("one-sided edge",
                           new_adj=[a | {w} if v == u else a for v, a in enumerate(adj)]))
    if mate:
        w = rng.choice(mate)
        out.append(variant("edge inside a part", new_adj=[
            a | {w} if v == u else a | {u} if v == w else a for v, a in enumerate(adj)]))
        out.append(variant("unsorted part", new_parts=[
            p[::-1] if j == i else p for j, p in enumerate(parts)]))
    j = (i + 1) % len(parts)
    out.append(variant("repeated vertex", new_parts=[
        sorted(p + [u]) if h == j else p for h, p in enumerate(parts)]))
    out.append(variant("uncovered vertex", new_parts=[
        [v for v in p if v != u] for p in parts]))
    out.append(variant("part id out of range", new_parts=[
        p + [n] if h == len(parts) - 1 else p for h, p in enumerate(parts)]))
    out.append(variant("negative id in adjacency",
                       new_adj=[a | {-1} if v == u else a for v, a in enumerate(adj)]))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_validate_matches_pair_scan_reference(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    sizes = [rng.randint(1, 6) for _ in range(k)]
    g = gen_random(k, sizes, rng.choice([Fraction(1, 3), Fraction(2, 3), Fraction(1)]), seed)
    for label, parts, adj in _corruptions(g, rng):
        ours = build_outcome(lambda: MultipartiteGraph(parts, adj, "h"))
        ref = build_outcome(lambda: scan_validate(parts, adj) or (parts, adj, "h"))
        assert ours == ref, label


@pytest.mark.parametrize("seed", range(12))
def test_from_edges_and_load_graph_match_references(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 4)
    g = gen_random(k, [rng.randint(1, 5) for _ in range(k)], Fraction(2, 3), seed)
    n = g.n
    edges = [list(e) for e in g.edges()]
    rng.shuffle(edges)
    bad_ids = [(0, n), (n + 3, 0), (-1, 0), (0, -n), (-n - 1, 0)]
    cases = [edges, [e[::-1] for e in edges], edges + [[0, 0]]]
    for a, b in bad_ids:
        at = rng.randint(0, len(edges))
        cases.append(edges[:at] + [[a, b]] + edges[at:])
        cases.append(edges[:at] + [[a, b]] + edges[at:] + [[n, n]])
    parts = [list(p) for p in g.parts]
    for case in cases:
        assert build_outcome(lambda: MultipartiteGraph.from_edges(parts, case, "h")) == \
            build_outcome(lambda: reference_from_edges(parts, case, "h"))
    # rows only a document can hold: wrong types and lengths
    for bad in ([True, 0], [0, False], [1.0, 0], [0, "1"], [0, None], [0, 1, 2], [0], "01"):
        at = rng.randint(0, len(edges))
        cases.append(edges[:at] + [bad] + edges[at:])
    for case in cases:
        for name in ({}, {"name": "plain"}, {"name": "a-b true"}):
            text = json.dumps({"k": k, "parts": parts, "edges": case, **name})
            ours = build_outcome(lambda: load_graph(text))
            assert ours == build_outcome(lambda: reference_load_graph(text))


def _sparse_host(seed: int) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Up to 5000 vertices with a few edges each: every adjacency set is far
    smaller than the largest id, so its iteration order follows the order the
    edges were added in."""
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    sizes = [rng.randint(1, 1000) for _ in range(k)]
    part_of = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(part_of)
    edges = set()
    while len(edges) < 2 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if part_of[u] != part_of[v]:
            edges.add((u, v))
    parts = [[v for v in range(n) if part_of[v] == i] for i in range(k)]
    return parts, sorted(edges)


def _dense_host(seed: int) -> tuple[list[list[int]], list[tuple[int, int]]]:
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    g = gen_random(k, [rng.randint(1, 30) for _ in range(k)], Fraction(9, 10), seed)
    return [list(p) for p in g.parts], g.edges()


@pytest.mark.parametrize("host", [_sparse_host, _dense_host])
@pytest.mark.parametrize("seed", range(6))
def test_edge_built_hosts_match_the_fully_checked_build(host, seed):
    """`from_edges` and `load_graph` skip the symmetry scan: the adjacency
    they build, its iteration order included, is the one the edge-by-edge
    reference build checks in full, and an explicit full check accepts it."""
    parts, edges = host(seed)
    rng = random.Random(seed)
    edges = [list(e) if rng.random() < 0.5 else [e[1], e[0]] for e in edges]
    rng.shuffle(edges)
    want = build_outcome(lambda: reference_from_edges(parts, edges, "h"))
    g = MultipartiteGraph.from_edges(parts, edges, "h")
    assert build_outcome(lambda: g) == want
    g.validate()
    text = json.dumps({"k": len(parts), "parts": parts, "edges": edges, "name": "h"})
    assert build_outcome(lambda: load_graph(text)) == want
    assert build_outcome(lambda: load_graph(save_graph(g))) == \
        build_outcome(lambda: reference_load_graph(save_graph(g)))


def test_only_edge_built_hosts_skip_the_full_check(monkeypatch):
    """Direct construction and every derived graph run `validate`, symmetry
    scan included; the edge-list builds do not call it."""
    g = gen_random(3, [4, 3, 3], Fraction(2, 3), 5)
    checked = []
    real = MultipartiteGraph.validate
    monkeypatch.setattr(MultipartiteGraph, "validate",
                        lambda self: checked.append(self.parts) or real(self))
    MultipartiteGraph.from_edges(g.parts, g.edges())
    load_graph(save_graph(g))
    assert checked == []
    MultipartiteGraph(g.parts, g.adj)
    g.with_parts([2, 0, 1])
    induced_subgraph(g, [g.parts[0], g.parts[1]])
    assert len(checked) == 3


def test_bytes_that_are_not_utf8_are_a_format_error():
    with pytest.raises(GraphFormatError, match="not UTF-8"):
        load_graph(b"\xff\xfe\x7b")
