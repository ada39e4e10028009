import random
import re
from collections import Counter
from dataclasses import replace
from itertools import combinations
from types import SimpleNamespace
from fractions import Fraction
from math import comb, prod

import pytest

from conftest import (
    bridge_choices_by_brute_force,
    complete,
    disjoint_choice_by_brute_force,
    reference_group_degree_slack,
    window_paths_by_brute_force,
)
from hampow import oracle, sequencing
from hampow.cli import main
from hampow.errors import (
    BudgetExhaustedError,
    GraphValidationError,
    InfeasibleError,
    SearchExhaustedError,
    VerificationError,
)
from hampow.graphs import Config, MultipartiteGraph, gen_random, induced_subgraph, save_graph
from hampow.oracle import SearchBudget, window_paths
from hampow.paths import decompose, is_path, is_properly_terminated, is_valid_pair
from hampow.sequencing import (
    SequencingPlan,
    _connector_violation,
    _extension_violation,
    _group_degree_slack,
    _partition_violation,
    build_connectors_and_p0,
    build_template_matrix,
    build_trim_path,
    compute_trim_template,
    group_patterns,
    refine_partition,
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

    def test_swapped_columns_break_the_seam_condition(self):
        m = build_template_matrix(5, 3, 1)
        cols = list(m.cols)
        cols[3], cols[4] = cols[4], cols[3]
        with pytest.raises(InfeasibleError, match="columns 4,5"):
            replace(m, cols=tuple(cols)).validate()

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


def _pipeline_fixture(seed=0, delta=1, sizes=(12, 12, 12, 12)):
    g = gen_random(4, list(sizes), delta, seed)
    cfg = Config(3, seed=seed)
    return g, cfg, *run_sequencing(g, cfg)


class TestTrimPath:
    def test_postconditions_on_complete_host(self):
        g = complete(4, [9, 9, 9, 8])
        cfg = Config(3, seed=2)
        tmpl = compute_trim_template([9, 9, 9, 8], 3, cfg.sigma)
        p0 = build_trim_path(g, tmpl, cfg)
        assert is_path(g, p0, 3)
        assert is_properly_terminated(g, p0, 3)
        types = decompose(g, p0, 3)
        assert types == tmpl.type_sequence
        for za, zb in zip(types, types[1:]):
            assert is_valid_pair(za, zb, 3)

    def test_residual_identities(self):
        g = complete(4, [9, 9, 9, 8])
        cfg = Config(3, seed=2)
        tmpl = compute_trim_template([9, 9, 9, 8], 3, cfg.sigma)
        p0 = build_trim_path(g, tmpl, cfg)
        used = set(p0)
        residual = [len([v for v in p if v not in used]) for p in g.parts]
        total = g.n - len(p0)
        assert total % 3 == 0
        for i in range(tmpl.s):
            assert residual[i] == total // 3

    def test_no_realizing_path_is_proved(self):
        """Parts 0 and 1 share no edge, and every run of type z_0 puts a part-0
        vertex right before a part-1 vertex: no trim path exists, and the
        search says so as a proof, not as a spent budget."""
        full = complete(4, [9, 9, 9, 8])
        g = MultipartiteGraph.from_edges(
            full.parts, [(u, v) for u, v in full.edges() if not (u < 9 <= v < 18)])
        cfg = Config(3, seed=2)
        tmpl = compute_trim_template([9, 9, 9, 8], 3, cfg.sigma)
        assert tmpl.type_sequence[0] == z_vector(0, 4, 3)
        with pytest.raises(SearchExhaustedError, match="no power-path realizes") as exc:
            build_trim_path(g, tmpl, cfg)
        assert not isinstance(exc.value, BudgetExhaustedError)

    def test_a_spent_budget_is_inconclusive_and_sequence_exits_5(
        self, monkeypatch, tmp_path, capsys
    ):
        g = complete(4, [9, 9, 9, 8])
        cfg = Config(3, seed=2)
        tmpl = compute_trim_template([9, 9, 9, 8], 3, cfg.sigma)
        monkeypatch.setattr(oracle, "SearchBudget", lambda: SearchBudget(1))
        with pytest.raises(BudgetExhaustedError, match="budget of 1 nodes exhausted"):
            build_trim_path(g, tmpl, cfg)
        gpath = tmp_path / "g.json"
        gpath.write_text(save_graph(g))
        assert main(["sequence", "--graph", str(gpath), "--r", "3"]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "search budget exhausted: search budget of 1 nodes exhausted\n"


class TestRefineAndPlan:
    def test_cells_sum_to_rows(self):
        g, cfg, plan, _ = _pipeline_fixture()
        tmpl = compute_trim_template([len(p) for p in g.parts], cfg.r, cfg.sigma)
        m = build_template_matrix(tmpl.k, tmpl.r, tmpl.s)
        on_path = set(plan.p0_prime)
        b = [sum(v not in on_path for v in part) for part in g.parts]
        x = solve_part_sizes(m, b, cfg.floor_m(g.n))
        assert plan.patterns == group_patterns(m)
        for i in range(4):
            cells = [len(group[pattern.index(i)]) if i in pattern else 0
                     for pattern, group in zip(plan.patterns, plan.groups)]
            assert cells == [m.entry(i, j) * x[j] for j in range(m.ell)]

    def test_single_column_refinement_is_identity(self):
        g = complete(4, [16, 16, 15, 4])
        cfg = Config(3, seed=1)
        plan, report = run_sequencing(g, cfg)
        assert plan.ell == 1
        assert report.ok

    def test_complete_host_passes_first_attempt(self):
        g, cfg, plan, report = _pipeline_fixture()
        assert report.ok
        assert report.measured_group_slack == 1

    def test_group_patterns_ascend(self):
        m = build_template_matrix(5, 3, 1)
        for pattern in group_patterns(m):
            assert list(pattern) == sorted(pattern)
            assert len(pattern) == 3


def _raises_structural(name, detail):
    """pytest.raises for `verify_plan` naming condition `name` with exactly
    `detail`."""
    return pytest.raises(VerificationError, match=f"^{re.escape(f'{name}: {detail}')}$")


class TestVerifyPlanFaults:
    def test_pipeline_plan_verifies(self):
        g, cfg, plan, report = _pipeline_fixture(seed=3)
        assert verify_plan(g, plan, cfg) == report

    def test_connector_vertex_moved_into_group_breaks_a4(self):
        g, cfg, plan, _ = _pipeline_fixture(seed=3)
        conn = plan.connectors[0]
        stolen = plan.p0[0]  # lives in p0: reuse breaks disjointness
        broken = replace(
            plan,
            connectors=((stolen,) + conn[1:],) + plan.connectors[1:],
        )
        with _raises_structural("A4", "connector 0 is not a power-path"):
            verify_plan(g, broken, cfg)

    def test_emptied_cell_breaks_a1(self):
        """An emptied cell fails A1, A3, A4 and the partition; A1 is named."""
        g, cfg, plan, _ = _pipeline_fixture(seed=3)
        first = (frozenset(),) + plan.groups[0][1:]
        with _raises_structural("A1", "group 0: cell sizes [0, 2, 2] not equal or below 2"):
            verify_plan(g, replace(plan, groups=(first,) + plan.groups[1:]), cfg)

    def test_a1_is_named_before_the_partition(self):
        """A cell that drops a vertex no bridge uses fails A1 and the
        partition, and only those: `verify_plan` raises A1."""
        g, cfg, plan, _ = _pipeline_fixture(seed=3, sizes=(30, 30, 30, 30))
        bridged = set(plan.p0).union(*plan.connectors)
        j, h, v = next((j, h, v) for j, cells in enumerate(plan.groups)
                       for h, cell in enumerate(cells) for v in sorted(cell) if v not in bridged)
        cells = plan.groups[j]
        dropped = cells[:h] + (cells[h] - {v},) + cells[h + 1:]
        broken = replace(plan, groups=plan.groups[:j] + (dropped,) + plan.groups[j + 1:])
        assert _extension_violation(g, broken, cfg) == _connector_violation(g, broken, cfg) == ""
        assert _partition_violation(g, broken, cfg) == "trim path and cells do not cover the graph"
        sizes = [len(c) for c in dropped]
        with _raises_structural("A1", f"group {j}: cell sizes {sizes} not equal or below 2"):
            verify_plan(g, broken, cfg)

    def test_one_vertex_cells_break_a1(self):
        """A one-vertex cell cannot feed both seams of its group, however
        small beta*n is."""
        g, cfg, plan, _ = _pipeline_fixture(seed=3)
        assert cfg.beta * g.n < 1
        first = tuple(frozenset([min(cell)]) for cell in plan.groups[0])
        live = [1] * len(plan.patterns[0])
        with _raises_structural("A1", f"group 0: cell sizes {live} not equal or below 2"):
            verify_plan(g, replace(plan, groups=(first,) + plan.groups[1:]), cfg)

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_cell_count_off_its_pattern_breaks_a1(self, change):
        """A group with one cell too few or too many for its pattern fails A1,
        and so do groups and patterns without partners."""
        g, cfg, plan, _ = _pipeline_fixture(seed=3)
        cells = plan.groups[1]
        cells = cells[:-1] if change == "drop" else cells + (frozenset(),)
        with _raises_structural(
            "A1", f"group 1: {len(cells)} cells for pattern {list(plan.patterns[1])}"
        ):
            verify_plan(g, replace(plan, groups=(plan.groups[0], cells) + plan.groups[2:]), cfg)
        with _raises_structural(
            "A1", f"group {plan.ell - 1}: {len(plan.groups[-1])} cells for pattern []"
        ):
            verify_plan(g, replace(plan, patterns=plan.patterns[:-1]), cfg)
        with _raises_structural(
            "A1", f"group {plan.ell - 1}: 0 cells for pattern {list(plan.patterns[-1])}"
        ):
            verify_plan(g, replace(plan, groups=plan.groups[:-1]), cfg)

    def test_vertex_in_two_groups_breaks_the_partition(self):
        """A vertex of group 0 swapped into group 1 for one no bridge uses
        keeps every cell's size and every bridge in place: only the partition
        fails."""
        g, cfg, plan, _ = _pipeline_fixture(seed=3, sizes=(30, 30, 30, 30))
        bridged = set(plan.p0).union(*plan.connectors)
        i = next(i for i in plan.patterns[0] if i in plan.patterns[1])
        v = min(plan.groups[0][plan.patterns[0].index(i)])
        h = plan.patterns[1].index(i)
        w = min(plan.groups[1][h] - bridged)
        cells = plan.groups[1][:h] + (plan.groups[1][h] - {w} | {v},) + plan.groups[1][h + 1:]
        with _raises_structural("partition", f"vertex {v} appears twice (cell {(i, 1)})"):
            verify_plan(g, replace(plan, groups=(plan.groups[0], cells) + plan.groups[2:]), cfg)

    def test_truncated_p0_breaks_a3(self):
        g, cfg, plan, _ = _pipeline_fixture(seed=3)
        with _raises_structural("A3", "p0 does not extend p0_prime by r vertices on each side"):
            verify_plan(g, replace(plan, p0=plan.p0[1:]), cfg)


class TestRunSequencingRandom:
    def test_dense_random_instances_pass_the_structural_conditions(self):
        """`run_sequencing` raises VerificationError for a plan failing a
        structural condition, so ten plans returned are ten that pass."""
        done = 0
        seed = 0
        while done < 10:
            seed += 1
            g = gen_random(4, [13, 13, 12, 10], Fraction(9, 10), seed)
            cfg = Config(3, seed=seed)
            try:
                run_sequencing(g, cfg)
            except InfeasibleError:
                continue
            done += 1

    @pytest.mark.parametrize("seed", range(6))
    def test_connectors_do_not_dead_end(self, seed):
        g = gen_random(6, [40] * 6, Fraction(9, 10), seed)
        plan, _ = run_sequencing(g, Config(4))
        assert len(plan.connectors) == plan.ell - 1

    def test_other_powers(self):
        # r=2 with k=3, and r=4 at both ends of its k range
        plan, report = run_sequencing(complete(3, [12, 12, 12]), Config(2, seed=0))
        assert report.ok and plan.ell == 3
        plan, report = run_sequencing(complete(5, [20] * 5), Config(4, seed=2))
        assert report.ok and plan.ell == 5
        plan, report = run_sequencing(complete(7, [48] * 7), Config(4, seed=3))
        assert report.ok and plan.ell == 35
        assert len(plan.connectors) == 34


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


def _window_case(seed):
    """A `_kernel_case` cut to at most r+1 cells, with a `before` and an
    `after` of up to r-1 vertices each, kept in `used` as every caller keeps
    them.  In about half the cases each context vertex comes from a part none
    of the r-1 cells next to it is in, so that the context may leave a path."""
    rng, r, k, g, cells, used = _kernel_case(seed)
    cells = cells[:rng.randint(1, r + 1)]

    def context(near):
        far = rng.random() < 0.5
        parts = [i for i in range(k)
                 if not far or not any(g.part_of(v) == i for c in near for v in c)]
        return [rng.choice(g.parts[i]) for i in rng.sample(parts, rng.randint(0, len(parts)))]

    before, after = context(cells[:r - 1])[:r - 1], context(cells[-(r - 1):])[:r - 1]
    return g, cells, used | set(before) | set(after), r, before, after


@pytest.mark.parametrize("seed", range(60))
def test_window_kernels_pick_what_the_scans_picked(seed):
    """The window-path search yields each path the brute-force scan finds,
    once, and no other, so it finds one exactly when one exists; a seeded
    order lists the same paths, the same way for the same seed."""
    g, cells, used, r, before, after = _window_case(seed)
    want = window_paths_by_brute_force(g, cells, used, r, before, after)
    got = list(window_paths(g, cells, used, r, before, after))
    assert len(set(got)) == len(got) and sorted(got) == sorted(want)
    seeded = list(window_paths(g, cells, used, r, before, after, random.Random(seed)))
    assert sorted(seeded) == sorted(want)
    assert seeded == list(window_paths(g, cells, used, r, before, after, random.Random(seed)))


def test_window_cases_hold_paths_and_dead_ends():
    found = Counter(bool(window_paths_by_brute_force(*_window_case(seed))) for seed in range(60))
    assert found[True] >= 15 and found[False] >= 15, found


def test_window_path_needs_only_the_after_vertices_within_reach():
    """With more cells than r, the first picks lie too far before `after` to
    need any of its vertices."""
    # K_{3,3} minus the edge {0, 4}: 0 may not sit within r-1 = 1 of 4
    g = MultipartiteGraph.from_edges(
        [[0, 1, 2], [3, 4, 5]], [(u, v) for u in (0, 1, 2) for v in (3, 4, 5) if (u, v) != (0, 4)]
    )
    cells = [frozenset({0}), frozenset({3}), frozenset({1})]
    assert list(window_paths(g, cells, set(), 2, after=(4, 2))) == [(0, 3, 1)]
    assert is_path(g, (0, 3, 1, 4, 2), 2)


@pytest.mark.parametrize("seed", range(30))
def test_a2_minimum_matches_the_per_vertex_fraction_loop(seed):
    """Same least proportional degree and the same named vertex, on random
    cell groups with ties and empty cells and on real sequencing plans."""
    rng, r, k, g, cells, used = _kernel_case(seed)
    cells = cells + [frozenset()]
    groups = [rng.sample(cells, rng.randint(1, len(cells))) for _ in range(3)]
    plan = SimpleNamespace(groups=groups)
    assert _group_degree_slack(g, plan) == reference_group_degree_slack(g, plan)
    host = gen_random(4, [13, 13, 12, 10], Fraction(9, 10), seed)
    try:
        plan, _ = run_sequencing(host, Config(3, seed=seed))
    except InfeasibleError:
        return
    assert _group_degree_slack(host, plan) == reference_group_degree_slack(host, plan)


def test_refinement_makes_one_seeded_split_per_part_whatever_the_degrees():
    """Vertex 20 of part 3 sees only vertices 0 and 1 of part 0, below 3/4 of
    any cell of 4 from part 0; the refinement still makes each part's one
    split, drawn by its own seeded stream, and the cells partition the host."""
    full = complete(4, [8, 8, 4, 4])
    g = MultipartiteGraph.from_edges(
        full.parts, [e for e in full.edges() if not (e[1] == 20 and e[0] in range(2, 8))])
    matrix = build_template_matrix(4, 3, 2)
    cfg = Config(3, seed=1)
    want = [[] for _ in range(matrix.ell)]
    for i, part in enumerate(g.parts):
        pool = list(part)
        cfg.rng(f"refine:{i}").shuffle(pool)
        for j in (j for j in range(matrix.ell) if matrix.entry(i, j)):
            want[j].append(frozenset(pool[:4]))
            pool = pool[4:]
    groups = refine_partition(g, g.parts, matrix, (4, 4), cfg)
    assert groups == tuple(map(tuple, want))
    assert sorted(v for cells in groups for cell in cells for v in cell) == list(range(g.n))


def _refinement_case(seed):
    """A random small host, a trim path of up to 2r vertices and ell random
    groups off it, with the host cut down to the trim path and the cells.
    The trim path ends in the first group's parts, in order, and each next
    group swaps one part of the last, so every r cells in a row lie in
    distinct parts.  The first group's cells often hold 2 vertices, the
    others 2 or 3."""
    rng = random.Random(seed)
    r = (2, 3, 4)[seed % 3]
    k = rng.randint(r + 1, max(r + 1, 2 * r - 1))
    ell = rng.choice([1, 2, 2, 3, 4])
    g = gen_random(k, [3 * ell + 2 * r] * k, rng.choice([0.7, 0.85, 1]), seed)
    cfg = Config(r, seed=seed)
    free = [rng.sample(part, len(part)) for part in g.parts]
    order = rng.sample(range(k), r)
    length = rng.randint(0, 2 * r)
    trim = next(window_paths(
        g, [frozenset(free[order[(t - length) % r]]) for t in range(length)], set(), r, rng=rng
    ), ())
    free = [[v for v in part if v not in trim] for part in free]
    groups, patterns = [], []
    for j in range(ell):
        if j:
            order = order[:]
            order[rng.randrange(r)] = rng.choice([i for i in range(k) if i not in order])
        cells = []
        for i in order:
            take = 2 if j == 0 and rng.random() < 0.6 else rng.randint(2, 3)
            cells.append(frozenset(free[i][:take]))
            free[i] = free[i][take:]
        groups.append(cells)
        patterns.append(tuple(order))
    keep = set(trim).union(*(cell for cells in groups for cell in cells))
    sub, old_ids = induced_subgraph(g, [[v for v in part if v in keep] for part in g.parts])
    new = {old: v for v, old in enumerate(old_ids)}
    groups = tuple(tuple(frozenset(map(new.get, cell)) for cell in cells) for cells in groups)
    return sub, tuple(map(new.get, trim)), groups, tuple(patterns), cfg


def _bridges_or_none(*case):
    """The p0 and connectors `build_connectors_and_p0` lays, or None when its
    search proves that none exists; a spent budget propagates."""
    try:
        return build_connectors_and_p0(*case)
    except BudgetExhaustedError:
        raise
    except SearchExhaustedError:
        return None


def _record_bridge_searches(monkeypatch) -> list:
    """Every bridge search `build_connectors_and_p0` runs from now on, with its
    node count once it has run."""
    searches = []

    class Recording(sequencing.DepthFirst):
        def __init__(self, children, *args):
            super().__init__(children, *args)
            if children.__qualname__.startswith("build_connectors_and_p0."):
                searches.append(self)

    monkeypatch.setattr(sequencing, "DepthFirst", Recording)
    return searches


def _doomed_prefix_chain(ell):
    """r=2, ell groups of two 3-vertex cells, one in part 0 and one in part 1,
    and the trim path t alone in part 2.  The host is complete but for the
    edges from t to the last group's cell in part 1, so no prefix fits
    before t, while every suffix and connector fits."""
    parts = [list(range(3 * ell)), list(range(3 * ell, 6 * ell)), [6 * ell]]
    t = 6 * ell
    cut = set(parts[1][-3:])
    edges = [(u, v) for p, q in combinations(parts, 2) for u in p for v in q
             if not (v == t and u in cut)]
    groups = tuple((frozenset(parts[0][3 * j:3 * j + 3]), frozenset(parts[1][3 * j:3 * j + 3]))
                   for j in range(ell))
    return MultipartiteGraph.from_edges(parts, edges), (t,), groups


class TestDoomedRefinements:
    def test_same_plan_or_same_error_as_the_spent_attempts(self):
        """Against brute force, which spends every joint choice of suffix,
        connectors and prefix: each bridge of a laid plan is one of brute
        force's window paths for that bridge, no vertex is laid twice, and the
        plan passes the terminal-extension, connector and partition
        conditions (A1 asks more of the cells than these random ones hold);
        a second run with the same seed lays the same plan, or raises the
        same SearchExhaustedError."""
        outcomes = Counter()
        for seed in range(240):
            g, trim, groups, patterns, cfg = _refinement_case(seed)
            if len(trim) < cfg.r - 1:
                continue
            case = g, trim, groups, cfg
            try:
                p0, connectors = build_connectors_and_p0(*case)
            except SearchExhaustedError as exc:
                with pytest.raises(SearchExhaustedError, match=f"^{re.escape(str(exc))}$"):
                    build_connectors_and_p0(*case)
                outcomes["none"] += 1
                continue
            assert build_connectors_and_p0(*case) == (p0, connectors), seed
            laid = [p0[cfg.r + len(trim):], *connectors, p0[:cfg.r]]
            assert p0[cfg.r:cfg.r + len(trim)] == trim, seed
            choices = bridge_choices_by_brute_force(g, trim, groups, cfg.r)
            assert all(path in paths for path, paths in zip(laid, choices, strict=True)), seed
            flat = [v for path in laid for v in path]
            assert len(set(flat)) == len(flat), seed
            plan = SequencingPlan(trim, p0, groups, patterns, connectors)
            for violation in (_extension_violation, _connector_violation, _partition_violation):
                assert violation(g, plan, cfg) == "", (seed, violation.__name__)
            outcomes["found"] += 1
        assert outcomes["found"] >= 40 and outcomes["none"] >= 40, outcomes

    def test_doomed_means_no_suffix_and_connector_exist(self):
        """The bridge search proves a refinement doomed exactly when brute
        force over every joint choice of suffix, connectors and prefix finds
        none.  Brute force is asked where the joint choices number at most
        10^5 (all but about one case in 14; some of the rest number 10^13).
        A trim path shorter than r-1 vertices is refused, because then a
        prefix vertex and a suffix vertex could share a window."""
        outcomes = Counter()
        for seed in range(240):
            g, trim, groups, _, cfg = _refinement_case(seed)
            if len(trim) < cfg.r - 1:
                with pytest.raises(GraphValidationError, match="at least r-1"):
                    build_connectors_and_p0(g, trim, groups, cfg)
                outcomes["short"] += 1
                continue
            bridges = _bridges_or_none(g, trim, groups, cfg)
            choices = bridge_choices_by_brute_force(g, trim, groups, cfg.r)
            if prod(map(len, choices)) > 10**5:
                outcomes["beyond brute force"] += 1
                continue
            assert (bridges is None) == (disjoint_choice_by_brute_force(choices) is None), seed
            outcomes["none" if bridges is None else "found"] += 1
        assert outcomes["found"] >= 40 and outcomes["none"] >= 40, outcomes
        assert outcomes["beyond brute force"] <= 20, outcomes

    def test_a_dead_bridge_is_not_searched_again_below_every_earlier_one(self, monkeypatch):
        """No prefix fits, so every connector's choice is searched to a dead
        end: 1 root, 9 suffixes, and below each of them 36 choices of each
        next connector, of which only the first 9 (one per way of leaving
        the next group's cells) are searched further.  The count grows by
        9 * 36 per group; searching each dead end again would multiply it by
        36 instead."""
        searches = _record_bridge_searches(monkeypatch)
        for ell in (2, 3, 4):
            g, trim, groups = _doomed_prefix_chain(ell)
            assert _bridges_or_none(g, trim, groups, Config(2, seed=ell)) is None
        assert [s.nodes for s in searches] == [1 + 9 + 9 * 36 * (ell - 1) for ell in (2, 3, 4)]
        g, trim, groups = _doomed_prefix_chain(2)
        assert disjoint_choice_by_brute_force(
            bridge_choices_by_brute_force(g, trim, groups, 2)) is None

    def test_a_doomed_refinement_is_proved_none_and_a_spent_budget_is_not(self, monkeypatch):
        """K_{3,3,1} with three edges gone, r=2: the trim path is t, which sees
        only a of the first cell {a, a2}, and a2 sees nothing of the second
        cell {b, b2}.  The suffix and connector 0 would both need a, so the
        search ends after the root and the two suffixes.  With the edge a2-b
        back, connector 0 fits beside the suffix a b2, but it takes a3 and
        b3, and then no prefix fits."""
        a, a2, a3, b, b2, b3, t = range(7)
        parts = [[a, a2, a3], [b, b2, b3], [t]]
        missing = {(a2, t), (a2, b), (a2, b2)}
        edges = [(u, v) for p, q in combinations(parts, 2) for u in p for v in q
                 if (u, v) not in missing]
        groups = (frozenset({a, a2}), frozenset({b, b2})), (frozenset({a3}), frozenset({b3}))
        case = (t,), groups, Config(2)
        searches = _record_bridge_searches(monkeypatch)
        for g, nodes in ((MultipartiteGraph.from_edges(parts, edges), 3),
                         (MultipartiteGraph.from_edges(parts, edges + [(a2, b)]), 4)):
            with pytest.raises(SearchExhaustedError, match=rf"\(search nodes: {nodes}\)$"):
                build_connectors_and_p0(g, *case)
            assert searches[-1].nodes == nodes
            choices = bridge_choices_by_brute_force(g, (t,), groups, 2)
            assert disjoint_choice_by_brute_force(choices) is None
        # a spent search budget proves nothing, so it is not read as doomed
        monkeypatch.setattr(sequencing, "SearchBudget", lambda: SearchBudget(1))
        with pytest.raises(BudgetExhaustedError, match="budget of 1 nodes exhausted"):
            build_connectors_and_p0(g, *case)


@pytest.mark.parametrize("first, rc, calls, err", [
    (BudgetExhaustedError("search budget of 1 nodes exhausted"), 5, 1,
     "search budget exhausted: search budget of 1 nodes exhausted\n"),
    (SearchExhaustedError("proved none"), 4, 8, "stage failure: proved none\n"),
])
def test_a_spent_bridge_budget_ends_the_refinements(
    tmp_path, capsys, monkeypatch, first, rc, calls, err
):
    """A spent budget proves nothing, so it is not read as a refinement with
    no bridges: `sequence` stops at once and exits 5, where eight proved
    nones exit 4."""
    seen = []

    def bridges(*args):
        seen.append(args)
        raise first if len(seen) == 1 else SearchExhaustedError("proved none")

    monkeypatch.setattr(sequencing, "build_connectors_and_p0", bridges)
    gpath = tmp_path / "g.json"
    gpath.write_text(save_graph(gen_random(5, [24] * 5, Fraction(19, 20), 1)))
    assert main(["sequence", "--graph", str(gpath), "--r", "3"]) == rc
    assert len(seen) == calls
    assert capsys.readouterr().err == err
