"""Outputs of the connector and absorber kernels and of the constructive
pipeline and of the sequenced path (`sequence` and `pipeline --relaxed` on
hosts with k > r), pinned to the values in `pinned_kernels.json`.  They were recorded
with the plain kernels (successors searched again on every DP layer, absorber
candidates scanned vertex by vertex); a faster kernel must reproduce them
exactly.  The connector walks, the constructive pipeline reports, the `connect`
command's output and the `pipeline --relaxed` pin at k=3, r=2, n=120 were
re-recorded when the seeded depth-first connector search replaced rejection
sampling of uniform walks: every pipeline pin still ends in a verified cycle.
The constructive pipeline pin r=3 m=44 density 97/100 was re-recorded earlier,
when absorption began to check coverage on the real leftover only: it now ends
in a verified cycle, where the check over every balanced r-set stopped it with
a coverage shortfall.  The sequenced pins were recorded while the plan still
kept a (part, column) cell table, before it became its groups; ten of them
were re-recorded when one exact, seeded window-path search replaced the
randomized growers of the trim path, the connectors and the affixes, and
again when one exact search began to lay all of a plan's bridges as a chain
(suffix, connectors, prefix) instead of seeded attempts; each kept its exit
code.  The four r=3 constructive pipeline pins and four `pipeline --relaxed`
pins were re-recorded, each keeping its exit code, when the absorbing path
became one gadget with its reservoir drawn from the vertices that gadget
absorbs, and the cover began to pick its cliques by window search.  The
connector walks, the constructive pipeline reports, the `connect` command's
output (the same count) and the `pipeline --relaxed` pin at k=3, r=2, n=120
were re-recorded when the connector search became a window-path search
through cells cut back from P2, with no walk table: each pipeline pin kept
its stages and exit code, and only its cycle changed.  The two
`sequence --relaxed` pins whose only failing plan condition is the group
slack A2 went from exit 4 to exit 0, their output unchanged, when
`--relaxed` began to judge a plan as the pipeline does.  The three
`sequence` pins that stopped at the degree hypotheses (the proportional
minimum degree test of the trim path) were re-recorded when those tests were
deleted along with `--relaxed`: each `sequence` pin now gives what
`sequence --relaxed` gave.  The `sequence --relaxed` pins keep their names
and their recorded outputs; they are run as `sequence` (their `run` field),
which must reproduce exactly what the deleted flag gave.  The
constructive pipeline pin r=3 m=44 density 97/100 and the `pipeline
--relaxed` pin at k=3, r=2, n=120 were re-recorded when the reservoir's
degree-sample gate was deleted and the number of cover paths it is sized
for began only to grow, a cover of fewer paths being cut at clique
boundaries: both keep exit 0 with a verified cycle, and the second's first
group path is constructive again where the cover-size loop had given up
and the oracle built it.  The
`gen` pins hash the graph text that `json.dumps` of
the whole document wrote, with each draw of `gen_random` compared with the
Fraction density."""

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
from hampow.paths import VertexSeq

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
    p1, p2 = VertexSeq(tuple(case["p1"]), r), VertexSeq(tuple(case["p2"]), r)
    terminal = set(case["p1"]) | set(case["p2"])
    q = find_connector(g, _free_parts(g, r, terminal), p1, p2, case["ell"],
                       Config(r, seed=case["seed"]))
    return list(q.vertices)


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
    rc = main(case.get("run", case["args"]) + ["--graph", str(gpath), "--r", str(case["r"])])
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
