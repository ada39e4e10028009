"""Outputs of the connector and absorber kernels and of the constructive
pipeline, pinned to the values in `pinned_kernels.json`.  They were recorded
with the plain kernels (successors searched again on every DP layer, the
sampler scanning every vertex, absorber candidates scanned vertex by vertex);
a faster kernel must reproduce them exactly.  The constructive pipeline pin
r=3 m=44 density 97/100 was re-recorded when absorption began to check
coverage on the real leftover only: it now ends in a verified cycle, where the
check over every balanced r-set stopped it with a coverage shortfall."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import full_scan_sample_walk
import hampow.connect
from hampow.absorber import find_absorbers
from hampow.cli import main
from hampow.connect import _sample_walk, count_connecting_walks, find_connector
from hampow.graphs import Config, gen_random, save_graph
from hampow.paths import VertexSeq, is_walk

PINS = json.loads((Path(__file__).with_name("pinned_kernels.json")).read_text())


def _case_id(case):
    return f"r{case['r']}-m{case['size']}-d{case['density'].replace('/', '_')}-g{case['graph_seed']}"


def _host(case):
    r = case["r"]
    return gen_random(r, [case["size"]] * r, Fraction(case["density"]), case["graph_seed"])


def _free_parts(graph, r, taken):
    return [[v for v in graph.parts[i] if v not in taken] for i in range(r)]


@pytest.mark.parametrize("case", PINS["connector"], ids=_case_id)
def test_find_connector_walks_pinned(case):
    g, r = _host(case), case["r"]
    p1, p2 = VertexSeq(tuple(case["p1"]), r), VertexSeq(tuple(case["p2"]), r)
    terminal = set(case["p1"]) | set(case["p2"])
    q = find_connector(g, _free_parts(g, r, terminal), p1, p2, case["ell"], terminal,
                       Config.default(r, seed=case["seed"]))
    assert list(q.vertices) == case["walk"]


@pytest.mark.parametrize("case", PINS["absorber"], ids=_case_id)
def test_find_absorbers_first_embedding_pinned(case):
    found = find_absorbers(_host(case), case["target"], 1, Config.default(case["r"], seed=case["seed"]))
    assert [list(inst.q2_vertices()) for inst in found] == case["q2"]


@pytest.mark.parametrize("case", PINS["absorber_count"], ids=_case_id)
def test_find_absorbers_exhaustive_count_pinned(case):
    found = find_absorbers(_host(case), case["target"], None, Config.default(case["r"]))
    assert len(found) == case["count"]


@pytest.mark.parametrize("case", PINS["pipeline"], ids=_case_id)
def test_constructive_pipeline_report_pinned(case, tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text(save_graph(_host(case)))
    rc = main(["pipeline", "--mode", "constructive", "--graph", str(gpath),
               "--r", str(case["r"]), "--seed", str(case["seed"])])
    assert rc == case["rc"]
    assert capsys.readouterr().out == case["out"]


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


def _terminated_pair(graph, r, rng):
    out = []
    for _ in range(2):
        for _ in range(300):
            vs = VertexSeq(tuple(rng.choice(graph.parts[i]) for i in range(r)), r)
            if is_walk(graph, vs):
                out.append(vs)
                break
        else:
            return None
    return out


def test_sampler_matches_full_scan_reference():
    checked = 0
    for trial in range(200):
        rng = random.Random(trial)
        r = rng.choice([2, 3])
        g = gen_random(r, [rng.randint(3, 6)] * r, Fraction(rng.choice([7, 8, 9, 10]), 10), trial)
        pair = _terminated_pair(g, r, rng)
        if pair is None:
            continue
        u_sets = [list(g.parts[i]) for i in range(r)]
        total, table = count_connecting_walks(g, u_sets, pair[0], pair[1], rng.randint(1, 2 * r))
        if total == 0:
            continue
        ours, ref = random.Random(trial), random.Random(trial)
        for draw in range(4):
            assert _sample_walk(g, table, ours) == full_scan_sample_walk(g, table, ref), (trial, draw)
        checked += 1
        if checked == 60:
            break
    assert checked == 60
