import random
from collections import Counter
from dataclasses import replace
from itertools import combinations
from types import SimpleNamespace
from fractions import Fraction
from math import comb

import pytest

from conftest import (
    complete,
    reference_choose_affix,
    reference_group_degree_slack,
    reference_grow_run,
    reference_grow_window_path,
    reference_build_connectors_and_p0,
    reference_worst_cell_violation,
    suffix_and_connector_by_brute_force,
)
from hampow import sequencing
from hampow.errors import GraphValidationError, InfeasibleError, SearchExhaustedError
from hampow.graphs import Config, MultipartiteGraph, gen_random
from hampow.paths import VertexSeq, decompose, is_path, is_properly_terminated, is_valid_pair
from hampow.sequencing import (
    _connector_0_fits,
    _group_degree_slack,
    _grow_run,
    _grow_window_path,
    _worst_cell_violation,
    build_connectors_and_p0,
    build_template_matrix,
    build_trim_path,
    compute_trim_template,
    group_patterns,
    run_sequencing,
    solve_part_sizes,
    verify_plan,
    z_vector,
)


class TestTrimTemplate:
    def test_c0_is_n_mod_r(self):
        t = compute_trim_template([11, 11, 11, 11], 3, Fraction(1, 100))
        assert sum([11, 11, 11, 11]) % 3 == 2
        assert t.c[0] == 2
        assert (44 - t.c[0]) % 3 == 0

    def test_worked_example_s1(self):
        t = compute_trim_template([5, 4, 3, 3], 3, Fraction(1, 40))
        assert t.s == 1
        assert t.type_sequence == (
            z_vector(4, 4, 3),
            z_vector(3, 4, 3),
            z_vector(2, 4, 3),
            z_vector(4, 4, 3),
        )
        assert t.q == 4 and t.p == 12

    def test_balanced_zero_corrections(self):
        # n divisible by r, all parts well below n/r - 2*sigma*n: plain descent
        t = compute_trim_template([6, 6, 6, 6], 3, Fraction(1, 100))
        assert t.s == 0 and t.c == (0,)
        assert t.type_sequence[0] == z_vector(4, 4, 3)
        assert t.type_sequence[-1] == z_vector(4, 4, 3)

    def test_adjacent_types_always_valid(self):
        rng = random.Random(1)
        for _ in range(50):
            r = rng.randint(2, 5)
            k = rng.randint(r + 1, 2 * r - 1)
            top = rng.randint(6, 12)
            sizes = sorted((rng.randint(3, top) for _ in range(k)), reverse=True)
            n = sum(sizes)
            if any(r * s > n for s in sizes):
                continue
            try:
                t = compute_trim_template(sizes, r, Fraction(1, 2 * r * (r + 1) + 1))
            except InfeasibleError:
                continue
            for za, zb in zip(t.type_sequence, t.type_sequence[1:]):
                assert is_valid_pair(za, zb, r)

    def test_sigma_too_large_rejected(self):
        with pytest.raises(InfeasibleError, match="s="):
            compute_trim_template([6, 6, 6, 6], 3, Fraction(1, 4))

    def test_ascending_sizes_rejected(self):
        with pytest.raises(GraphValidationError):
            compute_trim_template([3, 4, 5, 5], 3, Fraction(1, 30))


class TestTemplateMatrix:
    def test_k4_r3_s2(self):
        m = build_template_matrix(4, 3, 2)
        assert m.ell == 2
        assert m.cols == ((1, 1, 1, 0), (1, 1, 0, 1))

    def test_k5_r3_s1(self):
        m = build_template_matrix(5, 3, 1)
        assert m.ell == comb(4, 2) == 6
        assert m.cols[0] == (1, 1, 1, 0, 0)
        assert m.cols[-1] == (1, 0, 0, 1, 1)

    def test_s_equals_r_single_column(self):
        m = build_template_matrix(5, 3, 3)
        assert m.ell == 1 and m.cols == ((1, 1, 1, 0, 0),)

    def test_full_exhaustion(self):
        # validate() checks distinctness, forced ends, and the seam condition
        for r in range(2, 6):
            for k in range(r, 2 * r):
                for s in range(0, r + 1):
                    m = build_template_matrix(k, r, s)
                    assert m.ell == comb(k - s, r - s)


class TestSolver:
    def _matrix(self):
        return build_template_matrix(4, 3, 2)

    def test_worked_example(self):
        x = solve_part_sizes(self._matrix(), (10, 10, 6, 4), 1)
        assert x == (6, 4)
        assert self._matrix().mul(x) == (10, 10, 6, 4)

    def test_already_solved(self):
        m = self._matrix()
        b = m.mul((5, 5))
        assert solve_part_sizes(m, b, 5) == (5, 5)

    def test_column_sum_identity(self):
        m = build_template_matrix(5, 3, 1)
        rng = random.Random(0)
        xstar = [rng.randint(2, 9) for _ in range(m.ell)]
        b = m.mul(xstar)
        x = solve_part_sizes(m, b, 2)
        assert sum(x) * 3 == sum(b)

    def test_precondition_failures_report_property(self):
        m = self._matrix()
        with pytest.raises(InfeasibleError, match="P1"):
            solve_part_sizes(m, (1, 1, 1, 1), 1)
        with pytest.raises(InfeasibleError, match="P2"):
            solve_part_sizes(m, (10, 13, 6, 4), 1)  # rows 1,2 must match exactly
        with pytest.raises(InfeasibleError, match="P3"):
            solve_part_sizes(m, (12, 12, 13, -1), 1)

    def test_residual_spread_evenly(self):
        # a column at the floor of 2 leaves both connectors of its group the
        # same two vertices per cell, so few columns may stay there
        m = build_template_matrix(6, 4, 0)
        x = solve_part_sizes(m, (35, 35, 35, 35, 36, 40), 2)
        assert m.mul(x) == (35, 35, 35, 35, 36, 40)
        assert sum(1 for xj in x if xj == 2) <= 1

    def test_unique_solution_when_k_is_r_plus_one(self):
        m = build_template_matrix(5, 4, 0)
        assert solve_part_sizes(m, (43, 43, 43, 43, 44), 2) == (10, 11, 11, 11, 11)

    def test_random_feasible_instances(self):
        rng = random.Random(7)
        for _ in range(200):
            r = rng.randint(2, 5)
            k = rng.randint(r, 2 * r - 1)
            s = rng.randint(0, r)
            m = build_template_matrix(k, r, s)
            floor = rng.randint(1, 3)
            xstar = [floor + rng.randint(0, 5) for _ in range(m.ell)]
            b = m.mul(xstar)
            x = solve_part_sizes(m, b, floor)
            assert m.mul(x) == b
            assert all(xj >= floor for xj in x)
            # progress identity: one iteration per r residual units
            assert sum(xj - floor for xj in x) == (sum(b) - 3 * 0 - m.ell * floor * r) // r


def _pipeline_fixture(seed=0, relaxed=True, delta=1, sizes=(12, 12, 12, 12)):
    g = gen_random(4, list(sizes), delta, seed)
    cfg = Config.default(3, seed=seed)
    return g, cfg, run_sequencing(g, cfg, relaxed=relaxed)


class TestTrimPath:
    def test_postconditions_on_complete_host(self):
        g = complete(4, [9, 9, 9, 8])
        cfg = Config.default(3, seed=2)
        tmpl = compute_trim_template([9, 9, 9, 8], 3, cfg.sigma)
        p0 = build_trim_path(g, tmpl, cfg, relaxed=True)
        assert is_path(g, p0)
        assert is_properly_terminated(g, p0)
        dec = decompose(g, p0)
        assert dec.types() == tmpl.type_sequence
        for za, zb in zip(dec.types(), dec.types()[1:]):
            assert is_valid_pair(za, zb, 3)

    def test_residual_identities(self):
        g = complete(4, [9, 9, 9, 8])
        cfg = Config.default(3, seed=2)
        tmpl = compute_trim_template([9, 9, 9, 8], 3, cfg.sigma)
        p0 = build_trim_path(g, tmpl, cfg, relaxed=True)
        used = set(p0.vertices)
        residual = [len([v for v in p if v not in used]) for p in g.parts]
        total = g.n - len(p0)
        assert total % 3 == 0
        for i in range(tmpl.s):
            assert residual[i] == total // 3


class TestRefineAndPlan:
    def test_cells_sum_to_rows(self):
        g, cfg, res = _pipeline_fixture()
        m = res.matrix
        for i in range(4):
            cells = [len(res.plan.refined_parts[(i, j)]) for j in range(m.ell)]
            assert cells == [m.entry(i, j) * m.x[j] for j in range(m.ell)]

    def test_single_column_refinement_is_identity(self):
        g = complete(4, [16, 16, 15, 4])
        cfg = Config.default(3, seed=1)
        res = run_sequencing(g, cfg, relaxed=True)
        assert res.plan.ell == 1
        assert res.report.ok

    def test_complete_host_passes_first_attempt(self):
        g, cfg, res = _pipeline_fixture()
        assert res.report.ok
        assert res.report.measured_group_slack == 1

    def test_group_patterns_ascend(self):
        m = build_template_matrix(5, 3, 1)
        for pattern in group_patterns(m):
            assert list(pattern) == sorted(pattern)
            assert len(pattern) == 3


class TestVerifyPlanFaults:
    def test_pipeline_plan_verifies(self):
        g, cfg, res = _pipeline_fixture(seed=3)
        assert res.report.ok

    def test_connector_vertex_moved_into_group_breaks_a4(self):
        g, cfg, res = _pipeline_fixture(seed=3)
        plan = res.plan
        conn = plan.connectors[0]
        stolen = plan.p0.vertices[0]  # lives in p0: reuse breaks disjointness
        broken = replace(
            plan,
            connectors=(VertexSeq((stolen,) + conn.vertices[1:], 3),) + plan.connectors[1:],
        )
        rep = verify_plan(g, broken, cfg)
        assert not rep.condition("A4").ok

    def test_emptied_cell_breaks_a1(self):
        g, cfg, res = _pipeline_fixture(seed=3)
        plan = res.plan
        (i, j) = next(
            (i, j)
            for (i, j), cell in plan.refined_parts.items()
            if cell and j == 0 and i in plan.group_sequences[0]
        )
        cells = dict(plan.refined_parts)
        cells[(i, j)] = frozenset()
        rep = verify_plan(g, replace(plan, refined_parts=cells), cfg)
        assert not rep.condition("A1").ok

    def test_truncated_p0_breaks_a3(self):
        g, cfg, res = _pipeline_fixture(seed=3)
        plan = res.plan
        rep = verify_plan(
            g, replace(plan, p0=VertexSeq(plan.p0.vertices[1:], 3)), cfg
        )
        assert not rep.condition("A3").ok


class TestRunSequencingRandom:
    def test_dense_random_instances_relaxed(self):
        done = 0
        seed = 0
        while done < 10:
            seed += 1
            g = gen_random(4, [13, 13, 12, 10], Fraction(9, 10), seed)
            cfg = Config.default(3, seed=seed)
            try:
                res = run_sequencing(g, cfg, relaxed=True)
            except InfeasibleError:
                continue
            structural = [c for c in res.report.conditions if c.name != "A2"]
            assert all(c.ok for c in structural)
            done += 1

    @pytest.mark.parametrize("seed", range(6))
    def test_connectors_do_not_dead_end(self, seed):
        g = gen_random(6, [40] * 6, Fraction(9, 10), seed)
        res = run_sequencing(g, Config.default(4), relaxed=True)
        assert all(c.ok for c in res.report.conditions if c.name != "A2")

    def test_strict_mode_rejects_sparse(self):
        g = gen_random(4, [12, 12, 12, 12], Fraction(1, 2), 0)
        cfg = Config.default(3, seed=0)
        with pytest.raises(InfeasibleError):
            run_sequencing(g, cfg, relaxed=False)

    def test_other_powers(self):
        # r=2 with k=3, and r=4 at both ends of its k range
        res = run_sequencing(
            complete(3, [12, 12, 12]), Config.default(2, seed=0), relaxed=True
        )
        assert res.report.ok and res.plan.ell == 3
        res = run_sequencing(
            complete(5, [20] * 5), Config.default(4, seed=2), relaxed=True
        )
        assert res.report.ok and res.plan.ell == 5
        res = run_sequencing(
            complete(7, [48] * 7), Config.default(4, seed=3), relaxed=True
        )
        assert res.report.ok and res.plan.ell == 35
        assert len(res.plan.connectors) == 34


def _kernel_case(seed):
    """A random small host with r <= k <= 2r-1, random cells (disjoint part
    subsets, as frozensets) and a random used set."""
    rng = random.Random(seed)
    r = (2, 3, 4)[seed % 3]
    k = rng.randint(r, 2 * r - 1)
    g = gen_random(k, [rng.randint(6, 10) for _ in range(k)], rng.choice([0.7, 0.9, 1]), seed)
    free = [list(p) for p in g.parts]
    for p in free:
        rng.shuffle(p)
    order = rng.sample(range(k), k)  # any r cells in a row lie in distinct parts
    cells = []
    for t in range(2 * r):
        i = order[t % k]
        take = rng.randint(2, 4)
        cells.append(frozenset(free[i][:take]))
        free[i] = free[i][take:]
    cells = [c for c in cells if c]
    used = set(rng.sample(range(g.n), g.n // 10))
    return rng, r, k, g, cells, used


@pytest.mark.parametrize("seed", range(60))
def test_window_kernels_pick_what_the_scans_picked(seed):
    """Same rng seed, same vertices, same rng state after, as the reference scans."""
    rng, r, k, g, cells, used = _kernel_case(seed)
    ours, ref = random.Random(seed), random.Random(seed)
    assert _grow_window_path(g, cells, used, r, ours) == \
        reference_grow_window_path(g, cells, [], used, r, ref)
    assert ours.getstate() == ref.getstate()

    support = rng.sample(range(k), rng.randint(1, k))
    prefix = rng.sample(range(g.n), rng.randint(0, r))
    assert _grow_run(g, support, prefix, used | set(prefix), r, ours) == \
        reference_grow_run(g, support, prefix, used | set(prefix), r, ref)
    assert ours.getstate() == ref.getstate()

    anchor = tuple(rng.choice(g.parts[i]) for i in rng.sample(range(k), r))
    for prepend in (True, False):
        context = {"after": anchor} if prepend else {"before": anchor}
        got = _grow_window_path(g, cells[:r], used | set(anchor), r, ours, **context)
        want = reference_choose_affix(g, cells[:r], anchor, used | set(anchor), r, ref, prepend)
        assert got == want
        assert ours.getstate() == ref.getstate()


def test_window_path_needs_only_the_after_vertices_within_reach():
    """With more cells than r, the first picks lie too far before `after` to
    need any of its vertices."""
    # K_{3,3} minus the edge {0, 4}: 0 may not sit within r-1 = 1 of 4
    g = MultipartiteGraph.from_edges(
        [[0, 1, 2], [3, 4, 5]], [(u, v) for u in (0, 1, 2) for v in (3, 4, 5) if (u, v) != (0, 4)]
    )
    cells = [frozenset({0}), frozenset({3}), frozenset({1})]
    path = _grow_window_path(g, cells, set(), 2, random.Random(0), after=(4, 2))
    assert path == [0, 3, 1]
    assert is_path(g, VertexSeq((0, 3, 1, 4, 2), 2))


@pytest.mark.parametrize("seed", range(30))
def test_a2_minimum_matches_the_per_vertex_fraction_loop(seed):
    """Same least proportional degree and the same named vertex, on random
    cell groups with ties and empty cells and on real sequencing plans."""
    rng, r, k, g, cells, used = _kernel_case(seed)
    cells = cells + [frozenset()]
    groups = [rng.sample(cells, rng.randint(1, len(cells))) for _ in range(3)]
    plan = SimpleNamespace(ell=len(groups), group_cells=groups.__getitem__)
    assert _group_degree_slack(g, plan) == reference_group_degree_slack(g, plan)
    host = gen_random(4, [13, 13, 12, 10], Fraction(9, 10), seed)
    try:
        res = run_sequencing(host, Config.default(3, seed=seed), relaxed=True)
    except InfeasibleError:
        return
    assert _group_degree_slack(host, res.plan) == reference_group_degree_slack(host, res.plan)


def test_refinement_violation_matches_the_per_pair_fraction_loop():
    """Same worst (fraction, vertex, cell), or None, as the reference on random
    rows of random hosts: empty cells, ties, and rows with no violation."""
    none_seen = violations_seen = 0
    for seed in range(80):
        rng = random.Random(seed)
        k = rng.randint(3, 5)
        g = gen_random(k, [rng.randint(4, 9) for _ in range(k)], rng.choice([0.5, 0.8, 1]), seed)
        i = rng.randrange(k)
        pool = rng.sample(g.parts[i], len(g.parts[i]))
        row = {}
        for j in range(rng.randint(1, 4)):
            take = rng.randint(0, 3)
            row[(i, j)] = frozenset(pool[:take])
            pool = pool[take:]
        threshold = rng.choice([Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(1)])
        want = reference_worst_cell_violation(g, row, threshold)
        assert _worst_cell_violation(g, row, threshold) == want, seed
        none_seen += want is None
        violations_seen += want is not None
    assert none_seen >= 10 and violations_seen >= 10


def _refinement_case(seed):
    """A random small host, a trim path of up to 2r vertices and ell random
    groups off it.  The trim path ends in the first group's parts, in order,
    and each next group swaps one part of the last, so every r cells in a row
    lie in distinct parts.  The first group's cells often hold 2 vertices,
    the others 2 or 3."""
    rng = random.Random(seed)
    r = (2, 3, 4)[seed % 3]
    k = rng.randint(r + 1, max(r + 1, 2 * r - 1))
    ell = rng.choice([1, 2, 2, 3, 4])
    g = gen_random(k, [3 * ell + 2 * r] * k, rng.choice([0.7, 0.85, 1]), seed)
    cfg = Config.default(r, seed=seed)
    free = [rng.sample(part, len(part)) for part in g.parts]
    order = rng.sample(range(k), r)
    length = rng.randint(0, 2 * r)
    trim = _grow_window_path(
        g, [frozenset(free[order[(t - length) % r]]) for t in range(length)], set(), r, rng
    ) or []
    free = [[v for v in part if v not in trim] for part in free]
    cells, patterns = {}, []
    for j in range(ell):
        if j:
            order = order[:]
            order[rng.randrange(r)] = rng.choice([i for i in range(k) if i not in order])
        for i in order:
            take = 2 if j == 0 and rng.random() < 0.6 else rng.randint(2, 3)
            cells[(i, j)] = frozenset(free[i][:take])
            free[i] = free[i][take:]
        patterns.append(tuple(order))
    return g, VertexSeq(tuple(trim), r), cells, tuple(patterns), cfg


def _plan_or_exhausted(build, *args):
    try:
        return build(*args)
    except SearchExhaustedError:
        return SearchExhaustedError


class TestDoomedRefinements:
    def test_same_plan_or_same_error_as_the_spent_attempts(self):
        """Against the builder that spends every attempt: the same plan, or
        SearchExhaustedError from both, on doomed and feasible refinements.
        50 attempts instead of 200 keep the reference's doomed runs short; the
        check does not read the limit."""
        outcomes = Counter()
        for seed in range(240):
            g, trim, cells, patterns, cfg = _refinement_case(seed)
            case = g, trim, cells, patterns, replace(cfg, retry_limit=50)
            got = _plan_or_exhausted(build_connectors_and_p0, *case)
            assert got == _plan_or_exhausted(reference_build_connectors_and_p0, *case), seed
            outcomes[got is SearchExhaustedError] += 1
        assert outcomes[False] >= 40 and outcomes[True] >= 40, outcomes

    def test_doomed_means_no_suffix_and_connector_exist(self):
        """The check answers what brute force over every suffix and connector
        answers, and says doomed often enough to matter."""
        answers = Counter()
        for seed in range(240):
            g, trim, cells, patterns, cfg = _refinement_case(seed)
            if len(patterns) < 2:
                continue
            first, second = ([cells[(i, j)] for i in patterns[j]] for j in (0, 1))
            got = _connector_0_fits(g, trim, first, second, cfg.r)
            pair = suffix_and_connector_by_brute_force(g, trim.vertices, first, second, cfg.r)
            assert got == (pair is not None), seed
            answers[got] += 1
        assert answers[False] >= 30 and answers[True] >= 30, answers

    def test_a_doomed_refinement_never_reaches_the_grower(self, monkeypatch):
        """K_{3,3,1} with three edges gone, r=2: the trim path is t, which sees
        only a of the first cell {a, a2}, and a2 sees nothing of the second
        cell {b, b2}.  The suffix and connector 0 would both need a."""
        a, a2, a3, b, b2, b3, t = range(7)
        parts = [[a, a2, a3], [b, b2, b3], [t]]
        missing = {(a2, t), (a2, b), (a2, b2)}
        edges = [(u, v) for p, q in combinations(parts, 2) for u in p for v in q
                 if (u, v) not in missing]
        g = MultipartiteGraph.from_edges(parts, edges)
        cells = {(0, 0): frozenset({a, a2}), (1, 0): frozenset({b, b2}),
                 (0, 1): frozenset({a3}), (1, 1): frozenset({b3})}
        calls = []
        monkeypatch.setattr(sequencing, "_grow_window_path",
                            lambda *args, **kw: calls.append(args))
        with pytest.raises(SearchExhaustedError, match="no attempt can succeed"):
            build_connectors_and_p0(g, VertexSeq((t,), 2), cells, ((0, 1), (0, 1)),
                                    Config.default(2))
        assert calls == []
        first, second = [cells[(0, 0)], cells[(1, 0)]], [cells[(0, 1)], cells[(1, 1)]]
        assert suffix_and_connector_by_brute_force(g, (t,), first, second, 2) is None
        # with the edge a2-b back, a2 b starts connector 0 beside the suffix a b2
        g = MultipartiteGraph.from_edges(parts, edges + [(a2, b)])
        assert _connector_0_fits(g, VertexSeq((t,), 2), first, second, 2)
