"""Tests of the benchmark's own code: percentile rule, cell weights, host
calibration, instance lists, checkers, tracing."""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from fractions import Fraction

import pytest

import calibrate
import checks
import stats
import tracing
import workloads
from hampow import cli
from hampow.graphs import gen_random, save_graph

INF = math.inf


# -- percentile rule ---------------------------------------------------------

def test_tail_needs_more_than_ten_samples():
    assert stats.tail([1.0] * 10) is None
    assert stats.tail([float(i) for i in range(11)]) == (0.0, 100 / 11)


def test_tail_is_rank_n_minus_ten():
    samples = [float(i) for i in range(1, 73)]  # 72 samples
    value, pct = stats.tail(samples[::-1])
    assert value == 62.0 and sum(x > value for x in samples) == 10
    assert pct == pytest.approx(100 * 62 / 72)


def test_unsolved_count_as_infinite():
    finite = [float(i) for i in range(1, 21)]
    assert stats.tail(finite + [INF] * 10)[0] == 20.0  # ten beyond: all infinite
    assert stats.tail(finite + [INF] * 11)[0] == INF
    assert stats.median([1.0, 2.0, 3.0, INF]) == 2.5
    assert stats.median([1.0, 2.0, INF, INF]) == INF
    assert stats.median([1.0, INF, INF]) == INF


def test_spread_is_quartile_distance_over_median():
    assert stats.spread([10.0] * 10) == 0
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3)


def test_per_pass_weighs_every_cell_equally():
    # cell a: 4 instances, half solved, 1 s each; cell b: 1 instance, solved, 3 s
    cells = ["a", "a", "a", "a", "b"]
    solved = [True, False, True, False, True]
    seconds = [1.0, 1.0, 1.0, 1.0, 3.0]
    assert stats.per_pass(cells, solved, seconds) == (1.5, 4.0, 2)


# -- host calibration --------------------------------------------------------

def test_factor_is_mean_kernel_time_over_nominal():
    cal = calibrate.Calibrator()
    cal.samples = [calibrate.REF_NOMINAL_S, 3 * calibrate.REF_NOMINAL_S]
    assert cal.factor() == pytest.approx(2.0)
    assert calibrate.kernel() == calibrate.kernel()  # a fixed amount of work


def test_maybe_samples_only_after_the_interval(monkeypatch):
    calls = []
    monkeypatch.setattr(calibrate, "kernel", lambda: calls.append(1))
    monkeypatch.setattr(calibrate, "SAMPLE_EVERY_S", 3600.0)
    cal = calibrate.Calibrator()
    cal.maybe()
    assert calls == [] and cal.samples == []
    assert cal.factor() > 0 and len(calls) == 1  # a phase with no sample takes one
    monkeypatch.setattr(calibrate, "SAMPLE_EVERY_S", 0.0)
    cal.maybe()
    assert len(calls) == 2 and len(cal.samples) == 2


# -- instance lists ----------------------------------------------------------

def test_instances_follow_the_per_cell_counts():
    for workload in workloads.WORKLOADS.values():
        listed = workloads.instances(workload, 3)
        assert listed == workloads.instances(workload, 3)
        assert listed != workloads.instances(workload, 4)
        for cell in workload.cells:
            mine = [i for i in listed if i.cell == cell]
            assert len(mine) == workload.graphs(cell) * workload.runs_per_graph
            assert len({i.graph for i in mine}) == workload.graphs(cell)
    # why density-1 cells get few hosts: every seed gives the same graph
    assert len({save_graph(gen_random(2, [5, 5], 1.0, seed)) for seed in range(4)}) == 1


def test_edge_probability_gives_the_fraction_s_graphs():
    for density in (Fraction(1), Fraction(97, 100), Fraction(9, 10), Fraction(13, 20)):
        cell = workloads.Cell(3, 3, (9, 9, 9), density)
        assert cell.edge_probability >= density
        for seed in range(3):
            assert (save_graph(gen_random(3, [9, 9, 9], cell.edge_probability, seed))
                    == save_graph(gen_random(3, [9, 9, 9], density, seed)))


# -- checkers ----------------------------------------------------------------

def _host(k, sizes, density, seed):
    text = save_graph(gen_random(k, sizes, density, seed))
    return text, checks.Host.from_json(text)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.fixture
def complete_k444(tmp_path):
    text, host = _host(3, [4, 4, 4], 1, 0)
    path = tmp_path / "g.json"
    path.write_text(text)
    return path, host


def test_cycle_check_accepts_pipeline_output_and_rejects_a_corruption(complete_k444):
    path, host = complete_k444
    rc, out = _run(["pipeline", "--graph", str(path), "--r", "3", "--mode", "oracle"])
    outcome = checks.check_pipeline(host, 3, rc, out)
    assert rc == 0 and outcome.solved and outcome.problem is None

    doc = json.loads(out)
    cycle = doc["cycle"]
    # two same-part vertices side by side break a window
    j = next(j for j in range(1, len(cycle)) if host.part_of[cycle[j]] == host.part_of[cycle[0]])
    cycle[1], cycle[j] = cycle[j], cycle[1]
    outcome = checks.check_pipeline(host, 3, 0, json.dumps(doc))
    assert not outcome.solved and "not adjacent" in outcome.problem

    doc["cycle"] = cycle[:-1]
    assert "permutation" in checks.check_pipeline(host, 3, 0, json.dumps(doc)).problem


def test_unsolved_pipeline_is_not_a_problem(complete_k444):
    _, host = complete_k444
    doc = {"ok": False, "budget_exceeded": False, "stages": [], "cycle": None}
    outcome = checks.check_pipeline(host, 3, 4, json.dumps(doc))
    assert not outcome.solved and outcome.problem is None
    assert checks.check_pipeline(host, 3, 5, json.dumps(doc)).problem is not None


def test_tile_audit_accepts_cli_output_and_rejects_a_bad_dual(tmp_path):
    text, host = _host(2, [4, 4], Fraction(3, 4), 3)
    path = tmp_path / "g.json"
    path.write_text(text)
    rc, out = _run(["tile", "--integral", "--graph", str(path), "--r", "2"])
    assert checks.check_tile(host, 2, rc, out) == checks.Outcome(True)

    doc = json.loads(out)
    # lower one dual entry of a vertex on some clique below what covers that clique
    clique = next(checks.transversal_cliques(host, 2))
    dual = [Fraction(y) for y in doc["dual"]]
    slack = sum(dual[v] for v in clique) - 1
    dual[clique[0]] -= slack + Fraction(1, 7)
    doc["dual"] = [str(max(y, Fraction(0))) for y in dual]
    problem = checks.tile_problem(host, 2, doc)
    assert problem is not None and ("below 1" in problem or "duals sum" in problem)


def test_tile_audit_rejects_overload_and_a_wrong_flag():
    _, host = _host(2, [2, 2], 1, 0)
    good = {"optimum": "2", "perfect": True, "dual": ["1/2"] * 4,
            "tiling": [{"clique": [0, 2], "weight": "1"}, {"clique": [1, 3], "weight": "1"}],
            "integral": [[0, 2], [1, 3]]}
    assert checks.tile_problem(host, 2, good) is None
    overloaded = dict(good, tiling=good["tiling"] + [{"clique": [0, 3], "weight": "1/2"}],
                      optimum="5/2", dual=["5/8"] * 4)
    assert "load above 1" in checks.tile_problem(host, 2, overloaded)
    assert "perfect flag" in checks.tile_problem(host, 2, dict(good, perfect=False))
    bad_cover = dict(good, integral=[[0, 2], [0, 3]])
    assert "partition" in checks.tile_problem(host, 2, bad_cover)


def test_search_check_rejects_a_flipped_verdict():
    _, host = _host(2, [2, 2], 1, 0)
    yes = json.dumps({"answer": "yes", "witness": [0, 2, 1, 3], "nodes_expanded": 4})
    no = json.dumps({"answer": "no", "witness": None, "nodes_expanded": 9})
    exhausted = json.dumps({"answer": "budget_exceeded", "witness": None, "nodes_expanded": 11})
    assert checks.check_search(host, 2, 0, yes, "yes", 10).solved
    assert "flipped" in checks.check_search(host, 2, 0, no, "yes", 10).problem
    assert "flipped" in checks.check_search(host, 2, 0, yes, "no", 10).problem
    # exhausted at the baseline may become decided later, never the reverse flip
    assert checks.check_search(host, 2, 0, no, "budget_exceeded", 10) == checks.Outcome(True)
    assert checks.check_search(host, 2, 5, exhausted, "no", 10) == checks.Outcome(False)
    assert checks.check_search(host, 2, 0, no, None, 10).unrecorded
    broken = json.dumps({"answer": "yes", "witness": [0, 1, 2, 3], "nodes_expanded": 4})
    assert "witness" in checks.check_search(host, 2, 0, broken, None, 10).problem


def test_malformed_output_is_a_problem():
    _, host = _host(2, [2, 2], 1, 0)
    assert "malformed" in checks.check("tile", host, 2, 0, "").problem
    assert "unknown answer" in checks.check("search", host, 2, 0, "{}").problem
    assert "exit code 2" in checks.check("tile", host, 2, 2, "").problem


# -- tracing -----------------------------------------------------------------

def _hampow_bindings():
    return {(name, key): value for name, module in sys.modules.items()
            if name == "hampow" or name.startswith("hampow.")
            for key, value in vars(module).items() if callable(value)}


def test_wrappers_rebind_callers_and_restore_every_attribute(complete_k444):
    import hampow.pipeline
    import hampow.tiling

    path, _ = complete_k444
    before = _hampow_bindings()
    original = hampow.pipeline.cover_with_paths
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert hampow.pipeline.cover_with_paths is not original
            assert hampow.tiling.cover_with_paths is hampow.pipeline.cover_with_paths
            tracer.instance = 0
            _run(["tile", "--graph", str(path), "--r", "3"])
            raise RuntimeError("leave the context by an exception")
    after = _hampow_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and "tiling.fractional_tiling" in names
    lp = next(s for s in tracer.spans if s.name == "tiling.fractional_tiling")
    cliques = next(s for s in tracer.spans if s.parent == lp.id)
    assert cliques.name == "tiling.enumerate_cliques" and cliques.count == 64
    own = tracer.self_ns()
    assert sum(own) == tracer.spans[0].ns  # self times partition the root span
    metrics = tracing.layer_metrics(tracer)
    assert metrics["tiling.lp_calls"][0] == 1 and metrics["tiling.lp_columns"][0] == 64
