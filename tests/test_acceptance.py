"""Acceptance criteria, one test per criterion, each printing a pass/fail line
with its runtime.  Expected values are exact; anything randomized is seeded."""

import itertools
import json
import random
import time
from fractions import Fraction
from math import comb

from conftest import naive_is_walk
from hampow.absorber import (
    absorb,
    assemble_absorbing_path,
    build_gadget,
    gadget_violation,
    label_str,
)
from hampow.cli import EXIT_OK, EXIT_STAGE, main
from hampow.connect import count_connecting_walks
from hampow.errors import InfeasibleError
from hampow.graphs import (
    Config,
    balanced_sizes,
    degree_profile,
    gen_extremal,
    gen_random,
    save_graph,
)
from hampow.oracle import NO, ham_power_cycle_exists, independence_necessity
from hampow.paths import decompose, is_properly_terminated, is_valid_pair, is_walk, verify_ham_power_cycle
from hampow.sequencing import (
    build_template_matrix,
    compute_trim_template,
    run_sequencing,
    solve_part_sizes,
    z_vector,
)
from hampow.tiling import enumerate_cliques, fractional_tiling


class _Timer:
    def __init__(self, number, name, limit):
        self.number, self.name, self.limit = number, name, limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and dt < self.limit else "FAIL"
        print(f"criterion {self.number:2d} [{self.name}]: {status} ({dt:.2f}s, limit {self.limit}s)")
        assert dt < self.limit, f"criterion {self.number} exceeded {self.limit}s ({dt:.2f}s)"


EXAMPLE_Q1 = (
    "a_1^1 a_2^1 a_3^1 x_1 b_2^1 b_3^1 c_1^1 c_2^1 c_3^1 "
    "a_1^2 a_2^2 a_3^2 b_1^2 x_2 b_3^2 c_1^2 c_2^2 c_3^2 "
    "a_1^3 a_2^3 a_3^3 b_1^3 b_2^3 x_3 c_1^3 c_2^3 c_3^3"
).split()
EXAMPLE_Q2 = (
    "a_1^1 a_2^1 a_3^1 c_1^1 b_2^1 b_3^1 a_1^2 c_2^1 c_3^1 "
    "b_1^2 a_2^2 a_3^2 c_1^2 c_2^2 b_3^2 a_1^3 a_2^3 c_3^2 "
    "b_1^3 b_2^3 a_3^3 c_1^3 c_2^3 c_3^3"
).split()


def test_criterion_01_gadget_fidelity():
    with _Timer(1, "gadget fidelity", 1.0):
        t3 = build_gadget(3)
        assert [label_str(l) for l in t3.q1] == EXAMPLE_Q1
        assert [label_str(l) for l in t3.q2] == EXAMPLE_Q2
        assert len(t3.q1) == 27 and len(t3.q2) == 24
        for r in range(2, 7):
            assert gadget_violation(build_gadget(r)) is None


def test_criterion_02_run_type_validity_exhaustion():
    with _Timer(2, "run-type validity exhaustion", 1.0):
        for r in range(2, 7):
            for k in range(r + 1, 2 * r):
                z0 = z_vector(0, k, r)
                for j in range(1, r + 2):
                    assert is_valid_pair(z0, z_vector(j, k, r), r)
                for j in range(1, r + 2):
                    for j2 in range(1, r + 2):
                        expected = j <= j2 + 1
                        got = is_valid_pair(z_vector(j, k, r), z_vector(j2, k, r), r)
                        assert got == expected, (r, k, j, j2)


def test_criterion_03_template_matrix_exhaustion():
    with _Timer(3, "template matrix exhaustion", 1.0):
        for r in range(2, 6):
            for k in range(r, 2 * r):
                for s in range(0, r + 1):
                    m = build_template_matrix(k, r, s)
                    assert m.ell == comb(k - s, r - s)
                    assert m.cols[0] == tuple([1] * r + [0] * (k - r))
                    assert m.cols[-1] == tuple([1] * s + [0] * (k - r) + [1] * (r - s))
                    assert len(set(m.cols)) == m.ell
                    for col in m.cols:
                        assert sum(col) == r and all(col[i] == 1 for i in range(s))
                    for a, b in zip(m.cols, m.cols[1:]):
                        for i in range(k):
                            if a[i] == 1 and b[i] == 1:
                                assert sum(a[: i + 1]) <= sum(b[: i + 1])


def test_criterion_04_solver_soundness():
    with _Timer(4, "integer solver soundness", 10.0):
        rng = random.Random(2024)
        for _ in range(1000):
            r = rng.randint(2, 5)
            k = rng.randint(r, 2 * r - 1)
            s = rng.randint(0, r)
            m = build_template_matrix(k, r, s)
            floor = rng.randint(1, 3)
            xstar = [floor + rng.randint(0, 4) for _ in range(m.ell)]
            b = m.mul(xstar)
            x = solve_part_sizes(m, b, floor)
            assert m.mul(x) == b
            assert all(xj >= floor for xj in x)
            iterations = sum(xj - floor for xj in x)
            assert iterations == (sum(b) - r * m.ell * floor) // r


def _a5_instances(count=100):
    """Deterministic stream of arithmetically feasible (sizes, delta, seed)."""
    rng = random.Random(515)
    out = []
    attempts = 0
    while len(out) < count and attempts < 4000:
        attempts += 1
        n = rng.randrange(45, 61)
        sizes = sorted(balanced_sizes(n, 4), reverse=True)
        for _ in range(rng.randint(0, 4)):
            i, j = rng.randrange(4), rng.randrange(4)
            if i != j and sizes[j] > 2 and 3 * (sizes[i] + 1) <= n:
                sizes[i] += 1
                sizes[j] -= 1
        sizes.sort(reverse=True)
        sigma = Config(3).sigma
        try:
            tmpl = compute_trim_template(sizes, 3, sigma)
        except InfeasibleError:
            continue
        hits = [sum(z[i] for z in tmpl.type_sequence) for i in range(4)]
        b = [sizes[i] - hits[i] for i in range(4)]
        m = build_template_matrix(4, 3, tmpl.s)
        try:
            solve_part_sizes(m, b, 2)  # the pipeline's desk-scale cell floor
        except InfeasibleError:
            continue
        delta = rng.choice([Fraction(1), Fraction(97, 100), Fraction(94, 100)])
        out.append((tuple(sizes), delta, rng.randrange(10_000)))
    assert len(out) == count
    return out


def test_criterion_05_sequencing_identities():
    with _Timer(5, "sequencing identities", 60.0):
        for sizes, delta, seed in _a5_instances():
            g = gen_random(4, list(sizes), delta, seed)
            cfg = Config(3, seed=seed)
            plan, report = run_sequencing(g, cfg)  # raises on a failed A1, A3, A4 or partition
            tmpl = compute_trim_template([len(p) for p in g.parts], 3, cfg.sigma)
            p0p = plan.p0_prime
            used = set(p0p)
            residual = [len([v for v in p if v not in used]) for p in g.parts]
            total = g.n - len(p0p)
            assert total % 3 == 0  # T1
            for i in range(tmpl.s):  # T2
                assert residual[i] == total // 3
            assert is_properly_terminated(g, p0p, 3)  # T6
            assert decompose(g, p0p, 3) == tmpl.type_sequence  # T6
            assert report.measured_group_slack is not None  # A2, measured


def test_criterion_06_connecting_dp_oracle_equivalence():
    with _Timer(6, "connecting DP vs enumeration", 30.0):
        rng = random.Random(606)
        checked = 0
        while checked < 200:
            trial = rng.randrange(100_000)
            r = rng.choice([2, 3])
            per = rng.randint(2, 10 // r)
            g = gen_random(r, [per] * r, Fraction(4, 5), trial)
            term = []
            for _ in range(2):
                for _ in range(120):
                    seq = tuple(rng.choice(g.parts[i]) for i in range(r))
                    if is_walk(g, seq, r):
                        term.append(seq)
                        break
            if len(term) != 2:
                continue
            ell = rng.randint(1, 4)
            u_sets = [list(g.parts[i]) for i in range(r)]
            total, _ = count_connecting_walks(g, u_sets, term[0], term[1], ell, r)
            pool = sorted(range(g.n))
            naive = sum(
                1
                for q in itertools.product(pool, repeat=ell)
                if all(v in set().union(*map(set, u_sets)) for v in q)
                and naive_is_walk(g, term[0] + q + term[1], r)
            )
            assert total == naive
            checked += 1


def test_criterion_07_fractional_tiling():
    with _Timer(7, "fractional tiling LP", 60.0):
        k222 = gen_random(3, [2, 2, 2], 1, 0)
        ft = fractional_tiling(k222, 3)
        assert ft.value == 2 and ft.is_perfect

        verified = 0
        for r, deltas, ns in ((2, Fraction(4, 5), (8, 10, 12, 14, 16, 18)),
                              (3, Fraction(14, 15), (9, 12, 15, 18))):
            threshold = 1 - Fraction(1, r)
            seed = 0
            goal = 25
            got = 0
            while got < goal and seed < 3000:
                seed += 1
                n = ns[seed % len(ns)]
                g = gen_random(r, balanced_sizes(n, r), deltas, seed)
                if degree_profile(g).delta_p < threshold:
                    continue
                ft = fractional_tiling(g, r)
                assert ft.value == Fraction(n, r), (r, n, seed)
                assert sum(ft.dual) == ft.value
                assert all(y >= 0 for y in ft.dual)
                for K in enumerate_cliques(g, r):
                    assert sum(ft.dual[v] for v in K) >= 1
                got += 1
            verified += got
        assert verified >= 50


def test_criterion_08_extremal_necessity():
    with _Timer(8, "extremal necessity", 60.0):
        assert ham_power_cycle_exists(gen_extremal(3, (4, 4, 4), 3), 3).answer == NO
        assert ham_power_cycle_exists(gen_extremal(2, (4, 4), 2), 2).answer == NO
        # independence failure always implies oracle `no` on scan-style cells
        rng = random.Random(808)
        checked = 0
        for sizes, r in [((5, 4), 2), ((4, 3, 2), 3), ((5, 2, 2), 3), ((6, 5), 2)]:
            for _ in range(5):
                g = gen_random(len(sizes), list(sizes), Fraction(9, 10), rng.randrange(10**6))
                if independence_necessity(g, r) is None:
                    continue
                assert ham_power_cycle_exists(g, r).answer == NO
                checked += 1
        assert checked >= 10


def test_criterion_09_absorption_round_trip():
    with _Timer(9, "absorption round trip", 60.0):
        sizes_cycle = (9, 10, 11, 12, 13, 14, 15)
        for run in range(50):
            per = sizes_cycle[run % len(sizes_cycle)]
            g = gen_random(3, [per] * 3, 1, 0)
            cfg = Config(3, seed=run)
            pa = assemble_absorbing_path(g, (), cfg)
            path = pa.path
            on_path = set(path)
            rng = random.Random(run)
            z = []
            for i in range(3):
                outside = [v for v in g.parts[i] if v not in on_path]
                z.extend(rng.sample(outside, 1))
            merged = absorb(g, pa, z)
            assert set(merged) == on_path | set(z)
            assert merged[:3] == path[:3]
            assert merged[-3:] == path[-3:]
            assert is_properly_terminated(g, merged, 3)


def _a10_instances(count=25):
    rng = random.Random(1010)
    out = []
    seed = 0
    while len(out) < count and seed < 5000:
        seed += 1
        n = (9, 12, 15)[seed % 3]
        target = rng.choice([Fraction(1), Fraction(199, 200)])
        g = gen_random(3, balanced_sizes(n, 3), target, seed)
        if degree_profile(g).delta_p >= Fraction(85, 100):
            out.append((g, seed))
    assert len(out) == count
    return out


def test_criterion_10_end_to_end(tmp_path, capsys):
    with _Timer(10, "end-to-end pipeline", 300.0):
        for g, seed in _a10_instances():
            gpath = tmp_path / f"g{seed}.json"
            gpath.write_text(save_graph(g))
            rc = main(["pipeline", "--graph", str(gpath), "--r", "3", "--seed", str(seed)])
            out = capsys.readouterr().out
            assert rc == EXIT_OK
            doc = json.loads(out)
            assert doc["ok"]
            assert verify_ham_power_cycle(g, doc["cycle"], 3)
        for sizes, r in (((4, 4, 4), 3), ((4, 4), 2)):
            ge = gen_extremal(len(sizes), sizes, r)
            gpath = tmp_path / f"extremal{r}.json"
            gpath.write_text(save_graph(ge))
            rc = main(["pipeline", "--graph", str(gpath), "--r", str(r)])
            capsys.readouterr()
            assert rc == EXIT_STAGE
