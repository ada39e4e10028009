import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _accepts, _splices, complete, naive_is_walk, naive_seam_ok
from hampow.errors import GraphValidationError, ImproperOrderError
from hampow.graphs import gen_random
from hampow.paths import (
    VertexSeq,
    decompose,
    final_respects,
    initial_respects,
    is_path,
    is_properly_terminated,
    is_valid_pair,
    is_walk,
    seq_type,
    splice_ok,
    verify_ham_power_cycle,
    verify_ham_power_cycle_report,
)
from hampow.sequencing import z_vector


class TestWalkPath:
    def test_short_sequences_are_walks(self):
        g = gen_random(3, [2, 2, 2], 0, 0)  # empty graph
        assert is_walk(g, VertexSeq((0, 2), 3))
        assert is_walk(g, VertexSeq((), 3))

    def test_alternating_parts_in_complete_host(self):
        g = complete(3, [2, 2, 2])
        s = VertexSeq((0, 2, 4, 1, 3, 5), 3)
        assert is_walk(g, s) and naive_is_walk(g, s, 3)

    def test_same_part_within_window_fails(self):
        g = complete(3, [2, 2, 2])
        assert not is_walk(g, VertexSeq((0, 2, 1), 3))

    def test_walk_agrees_with_naive_on_random_sequences(self):
        rng = random.Random(0)
        for trial in range(200):
            g = gen_random(3, [3, 3, 3], Fraction(3, 5), trial)
            seq = VertexSeq(tuple(rng.randrange(9) for _ in range(rng.randint(0, 7))), 3)
            assert is_walk(g, seq) == naive_is_walk(g, seq, 3)

    def test_path_rejects_repeats(self):
        g = complete(2, [2, 2])
        assert is_walk(g, VertexSeq((0, 2, 0), 2))
        assert not is_path(g, VertexSeq((0, 2, 0), 2))

    def test_hamiltonian_path_of_k22(self):
        g = complete(2, [2, 2])
        assert is_path(g, VertexSeq((0, 2, 1, 3), 2))

    def test_empty_sequence_is_path(self):
        g = complete(2, [2, 2])
        assert is_path(g, VertexSeq((), 2))


class TestProperlyTerminated:
    def test_length_r_window(self):
        g = complete(3, [2, 2, 2])
        s = VertexSeq((0, 2, 4), 3)
        assert is_properly_terminated(g, s)

    def test_wrong_first_part(self):
        g = complete(3, [2, 2, 2])
        s = VertexSeq((2, 0, 4), 3)
        assert not is_properly_terminated(g, s)

    def test_too_short_raises(self):
        g = complete(3, [2, 2, 2])
        with pytest.raises(GraphValidationError):
            is_properly_terminated(g, VertexSeq((0, 2), 3))

    def test_long_sequence_checks_both_ends(self):
        g = complete(3, [2, 2, 2])
        s = VertexSeq((0, 2, 4, 1, 3, 5), 3)
        assert is_properly_terminated(g, s)
        assert not is_properly_terminated(g, VertexSeq((0, 2, 4, 3, 1, 5), 3))

    def test_respects_helpers(self):
        seq = (0, 2, 4, 1)
        assert initial_respects(seq, [[0], [2], [4]])
        assert final_respects(seq, [[2], [4], [1]])
        assert not final_respects(seq, [[0], [2], [4]])


class TestDecompose:
    def test_two_runs(self):
        g = complete(4, [2, 2, 2, 2])
        s = VertexSeq((0, 2, 4, 6, 1, 3, 5), 3)  # parts 1,2,3,4 | 1,2,3
        dec = decompose(g, s)
        assert dec.breakpoints == (0, 4, 7)
        assert dec.types() == ((1, 1, 1, 1), (1, 1, 1, 0))

    def test_short_run_fails_with_index(self):
        g = complete(4, [2, 2, 2, 2])
        s = VertexSeq((0, 2, 1, 3), 3)  # parts 1,2 | 1,2
        with pytest.raises(ImproperOrderError) as info:
            decompose(g, s)
        assert info.value.index == 0

    def test_single_run(self):
        g = complete(4, [2, 2, 2, 2])
        dec = decompose(g, VertexSeq((0, 2, 4), 3))
        assert dec.q == 1

    def test_overlong_run_fails(self):
        g = complete(5, [2, 2, 2, 2, 2])
        s = VertexSeq((0, 2, 4, 6, 8), 3)  # increasing run of 5 > r+1
        with pytest.raises(ImproperOrderError):
            decompose(g, s)


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
        assert verify_ham_power_cycle(g, VertexSeq((0, 2, 4, 1, 3, 5), 3), 3)

    def test_missing_vertex(self):
        g = complete(3, [2, 2, 2])
        ok, reason, _ = verify_ham_power_cycle_report(g, (0, 2, 4, 1, 3), 3)
        assert not ok and "cover" in reason

    def test_rotation_and_reversal_invariance(self):
        g = complete(3, [3, 3, 3])
        base = (0, 3, 6, 1, 4, 7, 2, 5, 8)
        assert verify_ham_power_cycle(g, VertexSeq(base, 3), 3)
        for shift in range(9):
            rotated = base[shift:] + base[:shift]
            assert verify_ham_power_cycle(g, VertexSeq(rotated, 3), 3)
            assert verify_ham_power_cycle(g, VertexSeq(rotated[::-1], 3), 3)

    def test_non_cycle_rejected(self):
        g = gen_random(3, [2, 2, 2], 0, 0)
        assert not verify_ham_power_cycle(g, VertexSeq((0, 2, 4, 1, 3, 5), 3), 3)


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
    combined = VertexSeq(tuple(chunks[0] + chunks[1]), r)
    assert naive_is_walk(g, combined, r)
    assert splice_ok(g, chunks[0], chunks[1], r)
    for i, u in enumerate(chunks[0]):
        for j, v in enumerate(chunks[1]):
            if g.part_of(u) == g.part_of(v):
                assert (len(chunks[0]) - i) + j >= r


def test_seq_type_counts_parts():
    g = complete(3, [2, 2, 2])
    assert seq_type(g, (0, 2)) == (1, 1, 0)
    assert seq_type(g, ()) == (0, 0, 0)


def _seam_case(g, k, r, rng, n_left, n_right):
    """Two sequences whose concatenation meets the parts in a cyclic order of
    all k, so any r in a row lie in distinct parts; sometimes right repeats
    the last vertex of left."""
    order = rng.sample(range(k), k)
    seq = [rng.choice(g.parts[order[t % k]]) for t in range(n_left + n_right)]
    left, right = seq[:n_left], seq[n_left:]
    if left and right and rng.random() < 0.1:
        right[0] = left[-1]
    return left, right


def test_splice_ok_matches_the_seam_checks_it_replaced():
    """splice_ok against the cover's `_splices` on the tails it was given (empty
    or one clique long), the connector DP's `_accepts` on states of r-1
    vertices and heads of every length up to r-1, and the pairwise definition
    on every length, empty and short tails included."""
    seen = Counter()
    for seed in range(90):
        rng = random.Random(seed)
        r = (2, 3, 4)[seed % 3]
        k = rng.randint(r, 2 * r - 1)
        g = gen_random(k, [rng.randint(3, 6) for _ in range(k)],
                       rng.choice([Fraction(4, 5), Fraction(9, 10)]), seed)
        for _ in range(20):
            tail, clique = _seam_case(g, k, r, rng, rng.choice([0, r]), r)
            got = splice_ok(g, tail, clique, r)
            assert got == (not tail or _splices(g, tail, clique, r))
            seen["splices", got] += 1

            state, head = _seam_case(g, k, r, rng, r - 1, rng.randint(0, r - 1))
            got = splice_ok(g, state, head, r)
            assert got == _accepts(g, state, head)
            seen["accepts", got] += 1

            left, right = _seam_case(g, k, r, rng, rng.randint(0, 2 * r), rng.randint(0, 2 * r))
            got = splice_ok(g, left, right, r)
            assert got == naive_seam_ok(g, left, right, r)
            seen["naive", got, len(left) < r] += 1
    assert len(seen) == 8 and min(seen.values()) >= 100, seen
