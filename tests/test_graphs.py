import dataclasses
import gc
import json
import random
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    build_outcome,
    complete,
    reference_from_edges,
    reference_gen_extremal,
    reference_gen_random,
    reference_load_graph,
    reference_degree_profile,
    reference_save_graph,
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
    shuffle,
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

    def test_edge_end_that_is_not_an_int_is_a_type_error(self):
        with pytest.raises(TypeError, match="edge ends must be int vertex ids"):
            MultipartiteGraph.from_edges([[0], [1]], [[0, 1.0]])

    def test_malformed_json(self):
        with pytest.raises(GraphFormatError):
            load_graph("{not json")

    def test_part_id_that_is_not_an_int_rejected_so_every_graph_round_trips(self):
        # `True` equals 1, so only the per-id scan can tell; saved, it would
        # read `true`, which `load_graph` rejects
        with pytest.raises(GraphValidationError, match="vertex id True is not an int"):
            MultipartiteGraph(((0,), (True,)), (frozenset({1}), frozenset({0})))
        with pytest.raises(GraphValidationError, match="vertex id True is not an int"):
            MultipartiteGraph.from_edges([[0], [True]], [(0, 1)])
        g = MultipartiteGraph.from_edges([[0], [1]], [(0, 1)])
        assert load_graph(save_graph(g)) == g

    def test_round_trip_identity(self):
        g = gen_random(3, [3, 2, 2], Fraction(1, 2), 42)
        assert load_graph(save_graph(g)) == g
        assert save_graph(load_graph(save_graph(g))) == save_graph(g)


def _serialised_hosts():
    hosts = [MultipartiteGraph((), ())]
    for k in range(7):
        for sizes in ([0] * k, [1] * k, [4, 0, 3, 2, 5, 1][:k], [6] * k):
            for delta in (Fraction(0), Fraction(1, 2), Fraction(1)):
                hosts.append(gen_random(k, sizes, delta, k + sum(sizes)))
    g = gen_random(3, [3, 2, 2], Fraction(1, 2), 42)
    for name in ('a "quoted" name', "back\\slash", "non-ASCII \u00e9 \u2603", ""):
        hosts.append(MultipartiteGraph(g.parts, g.adj, name))
    hosts += [gen_extremal(3, (6, 6, 6), 3), gen_extremal(4, (5, 4, 4, 3), 2)]
    return list(dict.fromkeys(hosts))


@pytest.mark.parametrize("g", _serialised_hosts(), ids=lambda g: f"k{g.k}-n{g.n}-e{len(g.edges())}")
def test_save_graph_and_edges_match_the_reference_serialiser(g):
    text = reference_save_graph(g)
    assert save_graph(g) == text
    assert [list(e) for e in g.edges()] == json.loads(text)["edges"]


@pytest.mark.parametrize("delta", [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(97, 100), 0.9,
                                   Fraction(9, 10)])
@pytest.mark.parametrize("k, sizes, seed", [
    (2, [7, 5], 0), (3, [6, 6, 6], 4), (5, [5, 4, 3, 0, 2], 9),
    # k from 0 to 5, empty and unequal parts, and sets in tables smaller than
    # their largest id, where a set's iteration order depends on the order
    # its ids were added in: sparse sets on parts of 60, and the middle part
    # of [3, 60, 3], whose neighbours are the three ids at each end
    (0, [], 1), (1, [7], 2), (2, [0, 5], 3), (2, [33, 70], 5), (3, [60, 60, 60], 6),
    (3, [3, 60, 3], 7), (4, [5, 0, 12, 3], 8), (5, [50, 3, 0, 41, 20], 10),
])
def test_gen_random_matches_the_fraction_comparing_reference(k, sizes, seed, delta):
    """Comparing each draw with the density rounded up to a multiple of 2**-53,
    and filling the sets part pair by part pair, gives the graph of the
    reference, which compares each draw with the density itself and adds the
    pairs drawn edge by edge: the same adjacency, iteration order included,
    and the same file text.  The searches downstream follow set order."""
    got, want = gen_random(k, sizes, delta, seed), reference_gen_random(k, sizes, delta, seed)
    assert build_outcome(lambda: got) == build_outcome(lambda: want)
    assert save_graph(got) == save_graph(want)


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("sizes", [[], [7], [0, 5], [33, 70], [3, 60, 3], [5, 0, 12, 3],
                                   [50, 3, 0, 41, 20]], ids=str)
def test_gen_extremal_matches_the_edge_by_edge_reference(sizes, r):
    got, want = gen_extremal(len(sizes), sizes, r), reference_gen_extremal(len(sizes), sizes, r)
    assert build_outcome(lambda: got) == build_outcome(lambda: want)
    assert save_graph(got) == save_graph(want)


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

    @pytest.mark.parametrize("seed", [-1, -7])
    def test_negative_seed_rejected(self, seed):
        # random.Random seeds from |seed|: -7 would repeat the host of seed 7
        assert random.Random(seed).random() == random.Random(-seed).random()
        with pytest.raises(GraphValidationError, match=f"seed must be nonnegative, got {seed}"):
            gen_random(2, [2, 2], Fraction(1, 2), seed)

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
        assert sorted(len(p) for p in res.parts) == [5, 5, 5]
        assert res.k == 3

    def test_balanced_input_unchanged(self):
        g = complete(3, [4, 4, 4])
        res = reduce_parts(g, 3)
        assert [len(p) for p in res.parts] == [4, 4, 4]
        assert sorted(res.edges()) == sorted(g.edges())

    def test_output_is_subgraph(self):
        g = gen_random(5, [4, 4, 4, 2, 1], Fraction(4, 5), 3)
        res = reduce_parts(g, 3)
        assert set(map(tuple, res.edges())) <= set(map(tuple, g.edges()))
        assert res.n == g.n

    def test_k_bounds_and_mapping(self):
        for seed in range(6):
            g = gen_random(6, [3, 3, 3, 3, 2, 1], Fraction(1, 2), seed)
            res = reduce_parts(g, 3)
            assert 3 <= res.k <= 5
            for v in range(g.n):
                assert v in res.parts[res.part_index[v]]

    def test_split_path_dissolves_tiny_part(self):
        # two smallest parts exceed n/r together, so the tiny part must be
        # dissolved across the others instead of merged
        g = complete(4, [25, 24, 24, 2])
        res = reduce_parts(g, 3)
        assert sorted(len(p) for p in res.parts) == [25, 25, 25]
        assert set(map(tuple, res.edges())) <= set(map(tuple, g.edges()))
        for v in range(g.n):
            assert v in res.parts[res.part_index[v]]

    def test_merge_never_decreases_delta(self):
        # merge-only reduction (no tiny parts): measured profile cannot drop
        g = gen_random(4, [4, 4, 2, 2], Fraction(9, 10), 5)
        before = degree_profile(g).delta_p
        res = reduce_parts(g, 3)
        assert degree_profile(res).delta_p >= before

    def test_precondition_part_too_big(self):
        g = complete(2, [5, 2])
        with pytest.raises(GraphValidationError):
            reduce_parts(g, 2)

    @pytest.mark.parametrize("r", [1, 0, -1])
    def test_power_below_two_is_a_validation_error(self, r):
        # as every other entry that takes r: no one-part "reduction", no
        # division by zero, no k' range with negative ends
        g = complete(3, [4, 4, 4])
        with pytest.raises(GraphValidationError, match="at least 2"):
            reduce_parts(g, r)

    @pytest.mark.parametrize("k, r, sizes", [(3, 3, [9, 9, 9]), (5, 3, [6, 6, 6, 6, 6])])
    def test_unchanged_parts_return_the_input(self, k, r, sizes):
        # k = r, and k = 2r-1 where any two parts together exceed n/r
        g = gen_random(k, sizes, Fraction(9, 10), 7)
        res = reduce_parts(g, r)
        assert res is g

    def test_reordered_parts_get_a_new_graph(self):
        # no two parts fit together under n/r, but they stand in ascending size
        g = gen_random(4, [4, 5, 5, 6], Fraction(9, 10), 4)
        res = reduce_parts(g, 3)
        assert res is not g
        assert res.parts == (g.parts[3], g.parts[1], g.parts[2], g.parts[0])
        assert res.adj == g.adj
        assert res.part_index == tuple((3, 1, 2, 0)[i] for i in g.part_index)

    def test_merged_parts_get_a_new_validated_graph(self):
        # the reduction skips the symmetry scan; an explicit full check accepts its graph
        g = gen_random(4, [5, 5, 3, 2], Fraction(9, 10), 2)
        res = reduce_parts(g, 3)
        assert res is not g
        assert sorted(len(p) for p in res.parts) == [5, 5, 5]
        res.validate()
        scan_validate(res.parts, res.adj)


def test_induced_subgraph_relabels():
    g = complete(3, [3, 3, 3])
    sub, old_ids = induced_subgraph(g, [g.parts[0][:2], g.parts[2][:2]])
    assert sub.n == 4 and sub.k == 2
    for new, old in enumerate(old_ids):
        assert {old_ids[u] for u in sub.adj[new]} <= g.adj[old]


@pytest.mark.parametrize("seed", range(4))
def test_induced_subgraph_passes_the_full_check(seed):
    rng = random.Random(seed)
    g = gen_random(4, [9, 7, 5, 3], Fraction(2, 3), seed)
    chosen = [rng.sample(p, rng.randint(0, len(p))) for p in g.parts]
    rng.shuffle(chosen)
    sub, _ = induced_subgraph(g, chosen)
    sub.validate()
    scan_validate(sub.parts, sub.adj)


def test_overlapping_induced_parts_rejected():
    g = complete(3, [3, 3, 3])
    with pytest.raises(GraphValidationError, match="induced parts overlap"):
        induced_subgraph(g, [[0, 1], [3, 1]])


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
        """The constants are the desk-scale defaults of r that the pipeline
        has always used, in the order 0 < beta < sigma < gamma <= 1/r."""
        for r in range(2, 7):
            cfg = Config(r, seed=r)
            sigma = Fraction(1, 2 * r * (r + 1) + 1)
            assert (cfg.gamma, cfg.sigma, cfg.beta) == (Fraction(1, 2 * r), sigma, sigma / 8)
            assert 0 < cfg.beta < cfg.sigma < cfg.gamma <= Fraction(1, r)
            for n in (0, 1, 2, 100, 8 * (2 * r * (r + 1) + 1) * 2, 10_000):
                assert cfg.floor_m(n) == max(2, ceil(n * sigma / 8)), (r, n)

    def test_only_r_and_seed_are_settable(self):
        assert [f.name for f in dataclasses.fields(Config)] == ["r", "seed"]
        with pytest.raises(TypeError):
            Config(3, gamma=Fraction(1, 10))
        cfg = Config(3)
        with pytest.raises(AttributeError):
            cfg.sigma = Fraction(1, 5)

    def test_floor_is_at_least_two(self):
        cfg = Config(3)
        assert cfg.floor_m(0) == cfg.floor_m(10) == cfg.floor_m(400) == 2
        assert cfg.floor_m(401) == 3
        assert cfg.floor_m(10_000) >= cfg.beta * 10_000

    @pytest.mark.parametrize("r", [-1, 0, 1])
    def test_default_rejects_r_below_two_before_dividing_by_it(self, r):
        with pytest.raises(GraphValidationError, match="at least 2"):
            Config(r)

    def test_rng_streams_are_deterministic(self):
        cfg = Config(3, seed=5)
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
    out.append(variant("repeated id inside a part", new_parts=[
        sorted(p + [u]) if h == i else p for h, p in enumerate(parts)]))
    out.append(variant("unhashable id alone in a part", new_parts=parts + [[[u]]]))
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
def test_validate_names_the_first_one_sided_edge_as_the_scan_does(seed):
    """One-sided edges planted at two vertices, on frozenset and on plain set
    neighbourhoods: the same graph or the same first message as the
    pair-by-pair scan."""
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    g = gen_random(k, [rng.randint(1, 6) for _ in range(k)], Fraction(1, 2), seed)
    for _ in range(10):
        adj = [set(a) for a in g.adj]
        for u in rng.sample(range(g.n), min(2, g.n)):
            other = [v for v in range(g.n) if g.part_of(v) != g.part_of(u) and v not in adj[u]]
            if other:
                adj[u].add(rng.choice(other))
        for wrap in (frozenset, set):
            wrapped = tuple(map(wrap, adj))
            ours = build_outcome(lambda: MultipartiteGraph(g.parts, wrapped))
            ref = build_outcome(lambda: scan_validate(g.parts, wrapped) or (g.parts, wrapped, None))
            assert ours == ref


@pytest.mark.parametrize("seed", range(16))
def test_degree_profile_matches_the_vertex_by_vertex_reference(seed):
    """Random hosts, isolated vertices and single-vertex parts included, and
    the two refusals: one part, and an empty part."""
    rng = random.Random(seed)
    k = rng.randint(1, 5)
    sizes = [rng.randint(0 if seed % 4 == 0 else 1, 7) for _ in range(k)]
    g = gen_random(k, sizes, rng.choice([0, Fraction(1, 3), Fraction(4, 5), 1]), seed)

    def outcome(profile):
        try:
            return profile()
        except GraphValidationError as exc:
            return str(exc)

    def ours():
        profile = degree_profile(g)
        return profile.delta_ij, profile.delta_p

    assert outcome(ours) == outcome(lambda: reference_degree_profile(g))


def test_shuffle_draws_as_random_shuffle():
    """The same list and the same next draw as `random.Random.shuffle`, for
    every size 0..64 and 200 seeds."""
    for size in range(65):
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            got, want = list(range(size)), list(range(size))
            shuffle(ours, got)
            theirs.shuffle(want)
            assert (got, ours.random()) == (want, theirs.random()), (size, seed)


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


def test_only_builds_symmetric_by_construction_skip_the_full_check(monkeypatch):
    """Direct construction runs `validate`, symmetry scan included; the
    edge-list builds, the generators, the reduction and the induced subgraph
    do not call it."""
    g = gen_random(4, [5, 5, 3, 2], Fraction(2, 3), 5)
    checked = []
    real = MultipartiteGraph.validate
    monkeypatch.setattr(MultipartiteGraph, "validate",
                        lambda self: checked.append(self.parts) or real(self))
    MultipartiteGraph.from_edges(g.parts, g.edges())
    load_graph(save_graph(g))
    gen_random(3, [4, 3, 3], Fraction(2, 3), 5)
    gen_extremal(3, [4, 3, 3], 2)
    assert reduce_parts(g, 3) is not g
    induced_subgraph(g, [g.parts[0], g.parts[1]])
    assert checked == []
    MultipartiteGraph(g.parts, g.adj)
    assert len(checked) == 1


def test_bytes_that_are_not_utf8_are_a_format_error():
    with pytest.raises(GraphFormatError, match="not UTF-8"):
        load_graph(b"\xff\xfe\x7b")


K22_TEXT = '{"k":2,"parts":[[0,1],[2,3]],"edges":[[0,2],[0,3],[1,2],[1,3]]}'


@pytest.mark.parametrize("collector_on", [True, False])
@pytest.mark.parametrize(
    "source, error",
    [
        (K22_TEXT, None),
        ("{not json", GraphFormatError),
        ("[" * 100_000 + "]" * 100_000, GraphFormatError),
        (b"\xff\xfe\x7b", GraphFormatError),
        ('{"k":2,"parts":[[0,1],[2,3]],"edges":[[0,1]]}', GraphValidationError),
    ],
    ids=["good", "malformed", "nested", "not-utf8", "invalid"],
)
def test_load_graph_leaves_the_collector_as_it_found_it(collector_on, source, error):
    was_on = gc.isenabled()
    try:
        (gc.enable if collector_on else gc.disable)()
        if error is None:
            assert load_graph(source).n == 4
        else:
            with pytest.raises(error):
                load_graph(source)
        assert gc.isenabled() is collector_on
    finally:
        (gc.enable if was_on else gc.disable)()
