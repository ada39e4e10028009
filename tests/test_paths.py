import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete,
    naive_is_walk,
    naive_seam_ok,
    reference_verify_report,
)
from hampow.errors import GraphValidationError, ImproperOrderError
from hampow.graphs import MultipartiteGraph, gen_random
from hampow.paths import (
    decompose,
    final_respects,
    initial_respects,
    is_path,
    is_properly_terminated,
    is_valid_pair,
    is_walk,
    seq_type,
    verify_ham_power_cycle,
    verify_ham_power_cycle_report,
)
from hampow.sequencing import z_vector


class TestWalkPath:
    def test_short_sequences_are_walks(self):
        g = gen_random(3, [2, 2, 2], 0, 0)  # empty graph
        assert is_walk(g, (0, 2), 3)
        assert is_walk(g, (), 3)

    def test_alternating_parts_in_complete_host(self):
        g = complete(3, [2, 2, 2])
        s = (0, 2, 4, 1, 3, 5)
        assert is_walk(g, s, 3) and naive_is_walk(g, s, 3)

    def test_same_part_within_window_fails(self):
        g = complete(3, [2, 2, 2])
        assert not is_walk(g, (0, 2, 1), 3)

    def test_walk_agrees_with_naive_on_random_sequences(self):
        rng = random.Random(0)
        for trial in range(200):
            g = gen_random(3, [3, 3, 3], Fraction(3, 5), trial)
            seq = tuple(rng.randrange(9) for _ in range(rng.randint(0, 7)))
            assert is_walk(g, seq, 3) == naive_is_walk(g, seq, 3)

    def test_path_rejects_repeats(self):
        g = complete(2, [2, 2])
        assert is_walk(g, (0, 2, 0), 2)
        assert not is_path(g, (0, 2, 0), 2)

    def test_hamiltonian_path_of_k22(self):
        g = complete(2, [2, 2])
        assert is_path(g, (0, 2, 1, 3), 2)

    def test_empty_sequence_is_path(self):
        g = complete(2, [2, 2])
        assert is_path(g, (), 2)


class TestProperlyTerminated:
    def test_length_r_window(self):
        g = complete(3, [2, 2, 2])
        assert is_properly_terminated(g, (0, 2, 4), 3)

    def test_wrong_first_part(self):
        g = complete(3, [2, 2, 2])
        assert not is_properly_terminated(g, (2, 0, 4), 3)

    def test_too_short_raises(self):
        g = complete(3, [2, 2, 2])
        with pytest.raises(GraphValidationError):
            is_properly_terminated(g, (0, 2), 3)

    def test_long_sequence_checks_both_ends(self):
        g = complete(3, [2, 2, 2])
        assert is_properly_terminated(g, (0, 2, 4, 1, 3, 5), 3)
        assert not is_properly_terminated(g, (0, 2, 4, 3, 1, 5), 3)

    def test_respects_helpers(self):
        seq = (0, 2, 4, 1)
        assert initial_respects(seq, [[0], [2], [4]])
        assert final_respects(seq, [[2], [4], [1]])
        assert not final_respects(seq, [[0], [2], [4]])


class TestDecompose:
    def test_two_runs(self):
        g = complete(4, [2, 2, 2, 2])
        s = (0, 2, 4, 6, 1, 3, 5)  # parts 1,2,3,4 | 1,2,3
        assert decompose(g, s, 3) == ((1, 1, 1, 1), (1, 1, 1, 0))

    def test_short_run_fails_with_index(self):
        g = complete(4, [2, 2, 2, 2])
        s = (0, 2, 4, 1, 3)  # parts 1,2,3 | 1,2
        with pytest.raises(ImproperOrderError, match="run of length 2 at breakpoint 3"):
            decompose(g, s, 3)

    def test_single_run(self):
        g = complete(4, [2, 2, 2, 2])
        assert decompose(g, (0, 2, 4), 3) == ((1, 1, 1, 0),)

    def test_overlong_run_fails(self):
        g = complete(5, [2, 2, 2, 2, 2])
        s = (0, 2, 4, 6, 8)  # increasing run of 5 > r+1
        with pytest.raises(ImproperOrderError):
            decompose(g, s, 3)


class TestValidPair:
    def test_equal_vectors_all_checks_hit_r(self):
        assert is_valid_pair((1, 1, 1, 0), (1, 1, 1, 0), 3)

    def test_paper_invalid_combination(self):
        z4 = z_vector(4, 5, 3)
        z2 = z_vector(2, 5, 3)
        assert z4 == (1, 1, 1, 0, 0) and z2 == (1, 0, 1, 1, 0)
        assert not is_valid_pair(z4, z2, 3)

    def test_disjoint_supports_vacuous(self):
        assert is_valid_pair((1, 1, 0, 0), (0, 0, 1, 1), 2)

    def test_prefix_sum_reformulation_exhaustively(self):
        # popcount-r vectors: validity == prefix-sum domination at shared indices
        for k in range(2, 9):
            for r in range(2, 6):
                if r > k:
                    continue
                vectors = [
                    tuple(1 if i in c else 0 for i in range(k))
                    for c in itertools.combinations(range(k), r)
                ]
                for z, z2 in itertools.product(vectors, repeat=2):
                    expected = all(
                        sum(z[: i + 1]) <= sum(z2[: i + 1])
                        for i in range(k)
                        if z[i] == 1 and z2[i] == 1
                    )
                    assert is_valid_pair(z, z2, r) == expected

    def test_length_mismatch_rejected(self):
        with pytest.raises(GraphValidationError):
            is_valid_pair((1, 0), (1, 0, 1), 2)


class TestVerifyCycle:
    def test_alternating_complete(self):
        g = complete(3, [2, 2, 2])
        assert verify_ham_power_cycle(g, (0, 2, 4, 1, 3, 5), 3)

    def test_missing_vertex(self):
        g = complete(3, [2, 2, 2])
        ok, reason, _ = verify_ham_power_cycle_report(g, (0, 2, 4, 1, 3), 3)
        assert not ok and "cover" in reason

    def test_rotation_and_reversal_invariance(self):
        g = complete(3, [3, 3, 3])
        base = (0, 3, 6, 1, 4, 7, 2, 5, 8)
        assert verify_ham_power_cycle(g, base, 3)
        for shift in range(9):
            rotated = base[shift:] + base[:shift]
            assert verify_ham_power_cycle(g, rotated, 3)
            assert verify_ham_power_cycle(g, rotated[::-1], 3)

    def test_non_cycle_rejected(self):
        g = gen_random(3, [2, 2, 2], 0, 0)
        assert not verify_ham_power_cycle(g, (0, 2, 4, 1, 3, 5), 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 5))
def test_concatenation_soundness_on_complete_hosts(seed, r):
    """Realizing two properly ordered runs whose seam types are valid yields a
    walk in a complete multipartite host, and same-part seam pairs sit >= r apart."""
    rng = random.Random(seed)
    k = rng.randint(r + 1, 2 * r - 1)
    g = complete(k, [r + 2] * k)
    js = [rng.randint(0, r + 1), rng.randint(0, r + 1)]
    za, zb = z_vector(js[0], k, r), z_vector(js[1], k, r)
    if not is_valid_pair(za, zb, r):
        return
    used: set[int] = set()
    chunks = []
    for z in (za, zb):
        chunk = []
        for part, bit in enumerate(z):
            if bit:
                v = next(v for v in g.parts[part] if v not in used)
                used.add(v)
                chunk.append(v)
        chunks.append(chunk)
    combined = chunks[0] + chunks[1]
    assert naive_is_walk(g, combined, r)
    assert is_walk(g, (*chunks[0][-(r - 1):], *chunks[1][:r - 1]), r)
    for i, u in enumerate(chunks[0]):
        for j, v in enumerate(chunks[1]):
            if g.part_of(u) == g.part_of(v):
                assert (len(chunks[0]) - i) + j >= r


def test_seq_type_counts_parts():
    g = complete(3, [2, 2, 2])
    assert seq_type(g, (0, 2)) == (1, 1, 0)
    assert seq_type(g, ()) == (0, 0, 0)


def _random_walk(g, order, offset, length, r, rng, first=None):
    """A random power-walk of `length` vertices whose t-th vertex lies in part
    order[(offset + t) % k], starting at `first` when one is given; None when
    a pick has no candidate.  Adjacency is read directly, not through `paths`."""
    walk = [] if first is None else [first]
    while len(walk) < length:
        part = g.parts[order[(offset + len(walk)) % len(order)]]
        fits = [v for v in part if all(v in g.adj[u] for u in walk[-(r - 1):])]
        if not fits:
            return None
        walk.append(rng.choice(fits))
    return walk


def test_is_walk_on_the_joined_seam_matches_naive_seam_ok():
    """The seam test of the oracle's closing check and of the walk count's
    last layer, `is_walk` on the last r-1 vertices of one walk followed by the
    first r-1 of another, against the pairwise definition, on the callers'
    preconditions: both sides are walks of at least r-1 vertices.  Sometimes
    the right walk starts with a vertex of the left walk's tail."""
    seen = Counter()
    for seed in range(90):
        rng = random.Random(seed)
        r = (2, 3, 4)[seed % 3]
        k = rng.randint(r, 2 * r - 1)
        g = gen_random(k, [rng.randint(3, 6) for _ in range(k)],
                       rng.choice([Fraction(4, 5), Fraction(9, 10)]), seed)
        order = rng.sample(range(k), k)
        for _ in range(60):
            n_left, n_right = rng.randint(r - 1, 2 * r), rng.randint(r - 1, 2 * r)
            left = _random_walk(g, order, 0, n_left, r, rng)
            if left is None:
                continue
            first = rng.choice(left[-(r - 1):]) if rng.random() < 0.1 else None
            right = _random_walk(g, order, n_left, n_right, r, rng, first)
            if right is None:
                continue
            got = is_walk(g, (*left[-(r - 1):], *right[:r - 1]), r)
            assert got == naive_seam_ok(g, left, right, r)
            seen[got, first is not None] += 1
    assert set(seen) == {(True, False), (False, False), (False, True)}, seen
    assert min(seen.values()) >= 100, seen


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the comparison is over every exception type
        return type(exc), str(exc)


def _without_edge(g, u, v):
    return MultipartiteGraph.from_edges(g.parts, [e for e in g.edges() if {u, v} != set(e)])


def _assert_windows_match_the_references(g, r, seqs, cycles):
    for seq in seqs:
        assert is_walk(g, seq, r) == naive_is_walk(g, seq, r), seq
    for cycle in cycles:
        assert _outcome(lambda: verify_ham_power_cycle_report(g, cycle, r)) == \
            _outcome(lambda: reference_verify_report(g, cycle, r)), cycle


@pytest.mark.parametrize("r", [2, 3, 4])
def test_window_kernels_name_each_planted_violation_as_the_scan_does(r):
    """One missing edge at every position and distance of a spanning cyclic
    order of a complete host, wrap-around included: the walk check agrees
    with the window-by-window definition, and the cycle verifier reports the
    index and reason the scan reports."""
    rng = random.Random(r)
    m = 3
    g = complete(r, [m] * r)
    order = [v for column in zip(*(rng.sample(p, m) for p in g.parts)) for v in column]
    n = len(order)
    seen = Counter()
    for t in range(n):
        for d in range(1, r):
            h = _without_edge(g, order[t], order[(t + d) % n])
            prefix = order[:rng.randint(r, n)]
            _assert_windows_match_the_references(h, r, [order, prefix, order[::-1]], [order])
            ok, reason, index = verify_ham_power_cycle_report(h, order, r)
            assert not ok and index is not None
            seen[t + d >= n] += 1
    assert seen[True] and seen[False], seen


@pytest.mark.parametrize("seed", range(24))
def test_window_kernels_match_the_scan_on_random_hosts_and_odd_ids(seed):
    """Random orders with any number of violations, repeated vertices and
    hosts smaller than a window: the walk check agrees with the definition,
    and the cycle verifier, also on orders holding a float id, gives the
    scan's index or the scan's exception."""
    rng = random.Random(seed)
    r = (2, 3, 4)[seed % 3]
    k = rng.randint(1, 2 * r - 1)
    g = gen_random(k, [rng.randint(1, 4) for _ in range(k)],
                   rng.choice([Fraction(1, 2), Fraction(9, 10), 1]), seed)
    n = g.n
    seqs, cycles = [], []
    for _ in range(30):
        order = rng.sample(range(n), n)
        seqs += [order, order[:rng.randint(0, n)], [rng.randrange(n) for _ in range(rng.randint(0, 8))]]
        cycles.append(order)
        if n > 1:
            at = rng.randrange(n)
            cycles.append([float(v) if i == at else v for i, v in enumerate(order)])
    _assert_windows_match_the_references(g, r, seqs, cycles)
