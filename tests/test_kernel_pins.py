"""Outputs pinned to the values in `pinned_kernels.json`: the walks of
`find_connector`, the first gadget embedding of `find_absorbers`, the
reports of `pipeline --mode constructive`, the exit code, stdout and stderr
of `sequence` and `pipeline --relaxed` on hosts with k > r, the output of
`hampow connect`, and the SHA-256 of the graph text `gen` writes.

A faster kernel or a refactor reproduces every pin exactly.  A change that
alters a pin re-records it and says why in CHANGES.md, which keeps the
history of every re-recording."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

import hampow.connect
from hampow import sequencing
from hampow.absorber import find_absorbers
from hampow.cli import main
from hampow.connect import find_connector
from hampow.errors import BudgetExhaustedError, SearchExhaustedError
from hampow.graphs import Config, gen_random, save_graph

PINS = json.loads((Path(__file__).with_name("pinned_kernels.json")).read_text())


def _case_id(case):
    return f"r{case['r']}-m{case['size']}-d{case['density'].replace('/', '_')}-g{case['graph_seed']}"


def _host(case):
    r = case["r"]
    return gen_random(r, [case["size"]] * r, Fraction(case["density"]), case["graph_seed"])


def _free_parts(graph, r, taken):
    return [[v for v in graph.parts[i] if v not in taken] for i in range(r)]


def _connector_walk(case):
    g, r = _host(case), case["r"]
    p1, p2 = tuple(case["p1"]), tuple(case["p2"])
    terminal = set(p1) | set(p2)
    q = find_connector(g, _free_parts(g, r, terminal), p1, p2, case["ell"],
                       Config(r, seed=case["seed"]))
    return list(q)


@pytest.mark.parametrize("case", PINS["connector"], ids=_case_id)
def test_find_connector_walks_pinned(case):
    assert _connector_walk(case) == case["walk"]


def test_find_connector_never_counts_walks(monkeypatch):
    def refuse(*args):
        raise AssertionError("the walk table was built")

    monkeypatch.setattr(hampow.connect, "count_connecting_walks", refuse)
    assert [_connector_walk(case) for case in PINS["connector"]] == \
        [case["walk"] for case in PINS["connector"]]


@pytest.mark.parametrize("case", PINS["absorber"], ids=_case_id)
def test_find_absorbers_first_embedding_pinned(case):
    found = find_absorbers(_host(case), case["target"], Config(case["r"], seed=case["seed"]))
    assert [list(inst.slots) for inst in found] == case["q2"]


@pytest.mark.parametrize("case", PINS["pipeline"], ids=_case_id)
def test_constructive_pipeline_report_pinned(case, tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(save_graph(_host(case)))
    rc = main(["pipeline", "--mode", "constructive", "--graph", str(gpath),
               "--r", str(case["r"]), "--seed", str(case["seed"])])
    assert rc == case["rc"]
    assert capsys.readouterr().out == case["out"]


def _sequenced_id(case):
    return (f"{'-'.join(case['args'])}-k{case['k']}-r{case['r']}-n{sum(case['sizes'])}"
            f"-d{case['density'].replace('/', '_')}-g{case['graph_seed']}")


def _run_sequenced(case, tmp_path, capsys):
    gpath = tmp_path / "g.json"
    host = gen_random(case["k"], case["sizes"], Fraction(case["density"]), case["graph_seed"])
    gpath.write_text(save_graph(host))
    rc = main(case["args"] + ["--graph", str(gpath), "--r", str(case["r"])])
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("case", PINS["sequenced"], ids=_sequenced_id)
def test_sequenced_outputs_pinned(case, tmp_path, capsys):
    assert _run_sequenced(case, tmp_path, capsys) == (case["rc"], case["out"], case["err"])


def test_sequenced_pins_hold_a_long_plan_a_failure_and_a_doomed_refinement(
    tmp_path, capsys, monkeypatch
):
    """The pins include a plan of at least 10 groups, runs that exit 4, and a
    run with a refinement whose bridge search proves that none exist, so it
    is re-refined."""
    plans = [json.loads(c["out"])["plan"] for c in PINS["sequenced"]
             if c["args"][0] == "sequence" and c["out"]]
    assert max(len(plan["groups"]) for plan in plans) >= 10
    assert any(c["rc"] == 4 for c in PINS["sequenced"])
    raised = []
    real = sequencing.build_connectors_and_p0

    def spy(*args):
        try:
            return real(*args)
        except SearchExhaustedError as exc:
            raised.append(type(exc))
            raise

    monkeypatch.setattr(sequencing, "build_connectors_and_p0", spy)
    for case in PINS["sequenced"]:
        assert _run_sequenced(case, tmp_path, capsys)[0] == case["rc"]
    assert SearchExhaustedError in raised and BudgetExhaustedError not in raised


def test_connect_command_counts_once_and_output_pinned(tmp_path, capsys, monkeypatch):
    case = PINS["cli_connect"]
    gpath = tmp_path / "g.json"
    gpath.write_text(save_graph(gen_random(3, [10] * 3, Fraction(9, 10), 4)))
    counted = []
    real = hampow.connect.count_connecting_walks

    def counting(*args):
        counted.append(args)
        return real(*args)

    monkeypatch.setattr(hampow.connect, "count_connecting_walks", counting)
    rc = main(["connect", "--graph", str(gpath), "--r", "3", "--p1", json.dumps(case["p1"]),
               "--p2", json.dumps(case["p2"]), "--seed", "7"])
    assert rc == case["rc"]
    assert capsys.readouterr().out == case["out"]
    assert len(counted) == 1


@pytest.mark.parametrize("case", PINS["gen"], ids=lambda case: " ".join(case["argv"][1:]))
def test_gen_output_pinned(case, capsys):
    assert main(case["argv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == case["sha256"]
