import argparse
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

import hampow.connect
import hampow.pipeline
import hampow.sequencing
from conftest import complete, reference_sample_reservoir
from hampow import cli
from hampow.cli import EXIT_BUDGET, EXIT_OK, EXIT_PARSE, EXIT_STAGE, EXIT_VALIDATION, build_parser, main
from hampow.errors import SearchExhaustedError
from hampow.graphs import Config, balanced_sizes, gen_extremal, gen_random
from hampow.paths import verify_ham_power_cycle
from hampow.pipeline import _sample_reservoir, constructive_ham_path_between, run_pipeline
from hampow.oracle import SearchBudget


class TestPipeline:
    def test_complete_balanced_three_partite(self):
        g = complete(3, [4, 4, 4])
        rep = run_pipeline(g, Config.default(3, seed=0))
        assert rep.ok
        assert verify_ham_power_cycle(g, rep.cycle, 3)

    def test_extremal_fails_with_stage_diagnosis(self):
        g = gen_extremal(3, (4, 4, 4), 3)
        rep = run_pipeline(g, Config.default(3, seed=0))
        assert not rep.ok
        assert any(not s.ok for s in rep.stages)

    def test_oversized_part_reported_at_independence(self):
        g = complete(2, [5, 3])
        rep = run_pipeline(g, Config.default(2, seed=0))
        assert not rep.ok
        assert rep.stages[0].name == "independence" and not rep.stages[0].ok

    def test_oracle_mode(self):
        g = complete(3, [3, 3, 3])
        rep = run_pipeline(g, Config.default(3, seed=1), mode="oracle")
        assert rep.ok

    def test_budget_exhaustion_reported(self):
        g = complete(3, [4, 4, 4])
        rep = run_pipeline(
            g, Config.default(3, seed=0), mode="oracle", budget=SearchBudget(1)
        )
        assert not rep.ok and rep.budget_exceeded

    def test_multi_part_instance_via_sequencing(self):
        g = complete(4, [12, 12, 12, 12])
        rep = run_pipeline(g, Config.default(3, seed=0), relaxed=True)
        assert rep.ok
        assert any(s.name == "sequencing" and s.ok for s in rep.stages)
        assert verify_ham_power_cycle(g, rep.cycle, 3)

    def test_sequencing_infeasible_falls_back_to_whole_graph_oracle(self):
        # n too small for the integer solver: fallback still delivers the cycle
        g = complete(4, [4, 4, 4, 3])
        rep = run_pipeline(g, Config.default(3, seed=0), relaxed=True)
        assert rep.ok
        assert any(s.name == "whole_graph_oracle" for s in rep.stages)

    @pytest.mark.parametrize("mode, tail", [
        ("constructive", []),
        ("auto", [("whole_graph_oracle", True, "126 nodes"), ("verify", True, "ok")]),
    ])
    def test_seed_independent_sequencing_failure_is_not_retried(self, monkeypatch, mode, tail):
        g = gen_random(6, balanced_sizes(120, 6), Fraction(9, 10), 1)
        calls = []
        real = hampow.pipeline.run_sequencing

        def counting(*args, **kwargs):
            calls.append(args[1].seed)
            return real(*args, **kwargs)

        monkeypatch.setattr(hampow.pipeline, "run_sequencing", counting)
        rep = run_pipeline(g, Config.default(4, seed=1), mode=mode, relaxed=True)
        assert calls == [1]
        p1 = "precondition P1 fails: residual total -24 negative or not divisible by r"
        assert [(s.name, s.ok, s.detail) for s in rep.stages] == [
            ("independence", True, ""),
            ("reduce", True, "k'=6, sizes=[20, 20, 20, 20, 20, 20]"),
            ("sequencing", False, p1),
        ] + tail

    def test_exhausted_sequencing_is_retried_with_new_seeds(self, monkeypatch):
        calls = []

        def exhausted(graph, cfg, relaxed):
            calls.append(cfg.seed)
            raise SearchExhaustedError(f"spent under seed {cfg.seed}")

        monkeypatch.setattr(hampow.pipeline, "run_sequencing", exhausted)
        rep = run_pipeline(complete(4, [12, 12, 12, 12]), Config.default(3, seed=5),
                           mode="constructive", relaxed=True)
        assert calls == [5, 6, 7]
        assert (rep.stages[-1].name, rep.stages[-1].detail) == ("sequencing", "spent under seed 7")

    def test_dense_random_reproducible(self):
        g = gen_random(3, [4, 4, 4], Fraction(19, 20), 3)
        a = run_pipeline(g, Config.default(3, seed=5))
        b = run_pipeline(g, Config.default(3, seed=5))
        assert a.to_json_dict() == b.to_json_dict()

    def test_fallback_searches_the_unreduced_graph(self):
        # merging parts deletes edges; a cycle may need one of them, so the
        # oracle fallback must run on the input graph, not the reduction
        from hampow.oracle import YES, ham_power_cycle_exists
        from hampow.graphs import reduce_parts

        g = gen_random(5, [3, 3, 3, 2, 2], Fraction(7, 10), 79)
        assert ham_power_cycle_exists(g, 3).answer == YES
        reduced = reduce_parts(g, 3).graph
        assert ham_power_cycle_exists(reduced, 3).answer != YES
        rep = run_pipeline(g, Config.default(3, seed=79), relaxed=True)
        assert rep.ok
        assert verify_ham_power_cycle(g, rep.cycle, 3)

    def test_auto_mode_agrees_with_exhaustive_oracle(self):
        # exit behavior must match ground truth exactly on small instances
        from hampow.oracle import YES, ham_power_cycle_exists

        cases = [
            (3, [4, 4, 4], Fraction(4, 5)),
            (3, [3, 3, 3], Fraction(7, 10)),
            (4, [3, 3, 3, 3], Fraction(9, 10)),
            (4, [4, 4, 3, 3], Fraction(17, 20)),
        ]
        for seed in range(12):
            k, sizes, delta = cases[seed % len(cases)]
            g = gen_random(k, sizes, delta, seed)
            rep = run_pipeline(g, Config.default(3, seed=seed), relaxed=True)
            assert not rep.budget_exceeded
            truth = ham_power_cycle_exists(g, 3)
            assert rep.ok == (truth.answer == YES), (seed, k, sizes)


class TestConstructive:
    def test_r2_full_machinery(self):
        g = complete(2, [20, 20])
        cfg = Config.default(2, seed=3)
        K, K2 = (0, 20), (1, 21)
        path = constructive_ham_path_between(g, K, K2, cfg)
        assert len(path) == 36

    def test_r3_full_machinery(self, monkeypatch):
        from hampow import tiling

        def no_lp(*args):
            raise AssertionError("the constructive path solves no LP")

        monkeypatch.setattr(tiling, "fractional_tiling", no_lp)
        g = complete(3, [50, 50, 50])
        cfg = Config.default(3, seed=1)
        rep = run_pipeline(g, cfg, mode="constructive")
        assert rep.ok
        assert verify_ham_power_cycle(g, rep.cycle, 3)
        assert any(s.name == "group_path" and s.detail == "constructive" for s in rep.stages)

    def test_small_host_is_scale_infeasible(self):
        from hampow.errors import ScaleInfeasibleError

        g = complete(2, [5, 5])
        with pytest.raises(ScaleInfeasibleError):
            constructive_ham_path_between(g, (0, 5), (1, 6), Config.default(2, seed=0))


class TestCli:
    def _gen(self, tmp_path, args_extra, name="g.json"):
        path = tmp_path / name
        rc = main(["gen", "--out", str(path)] + args_extra)
        assert rc == EXIT_OK
        return path

    def test_gen_and_pipeline_roundtrip(self, tmp_path, capsys):
        gpath = self._gen(tmp_path, ["--k", "3", "--sizes", "4,4,4", "--delta", "1"])
        rc = main(["pipeline", "--graph", str(gpath), "--r", "3"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and len(doc["cycle"]) == 12

    def test_constructive_mode_never_calls_the_oracle(self, tmp_path, capsys):
        # sequencing fails on this host; auto mode would run the whole-graph oracle
        gpath = self._gen(tmp_path, ["--k", "5", "--sizes", "20,20,20,20,20", "--delta", "1"])
        rc = main(["pipeline", "--graph", str(gpath), "--r", "3", "--mode", "constructive"])
        assert rc == EXIT_STAGE
        stages = json.loads(capsys.readouterr().out)["stages"]
        assert any(s["name"] == "sequencing" and not s["ok"] for s in stages)
        assert not any("oracle" in s["name"] or "oracle" in s["detail"] for s in stages)

    def test_sequencing_self_check_failure_is_not_hidden(self, tmp_path, capsys, monkeypatch):
        gpath = self._gen(tmp_path, ["--k", "4", "--sizes", "12,12,12,12", "--delta", "1"])
        monkeypatch.setattr(hampow.sequencing, "is_path", lambda *a: False)

        def no_oracle(*a, **kw):
            raise AssertionError("the whole-graph oracle ran")

        monkeypatch.setattr(hampow.pipeline, "ham_power_cycle_exists", no_oracle)
        rc = main(["pipeline", "--graph", str(gpath), "--r", "3"])
        assert rc == EXIT_STAGE
        out = capsys.readouterr()
        assert "whole_graph_oracle" not in out.out
        assert "trim path is not a power-path" in out.err

    def test_report_json_keys(self, tmp_path, capsys):
        gpath = self._gen(tmp_path, ["--k", "4", "--sizes", "12,12,12,12", "--delta", "1"])
        assert main(["pipeline", "--graph", str(gpath), "--r", "3", "--relaxed"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["ok", "budget_exceeded", "stages", "cycle"]
        assert all(list(s) == ["name", "ok", "detail"] for s in doc["stages"])
        assert main(["sequence", "--graph", str(gpath), "--r", "3", "--relaxed"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["plan", "report"]
        assert list(doc["report"]) == ["ok", "conditions", "measured_group_slack"]
        assert all(list(c) == ["name", "ok", "detail"] for c in doc["report"]["conditions"])

    def test_pipeline_extremal_nonzero(self, tmp_path, capsys):
        gpath = self._gen(tmp_path, ["--k", "3", "--sizes", "4,4,4", "--extremal", "--r", "3"])
        rc = main(["pipeline", "--graph", str(gpath), "--r", "3"])
        assert rc == EXIT_STAGE

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["pipeline", "--graph", str(bad), "--r", "3"]) == EXIT_PARSE

    def test_directory_as_graph_is_a_parse_error(self, tmp_path, capsys):
        assert main(["pipeline", "--graph", str(tmp_path), "--r", "2"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: [Errno 21] Is a directory")
        assert "Traceback" not in err

    def test_graph_that_is_not_utf8_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x7b")
        assert main(["pipeline", "--graph", str(bad), "--r", "2"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: graph document is not UTF-8")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "cycle", ["0", "x", "null", "[[0]]", "[1e400]", '{"a": 1}', '"0213"', "[0.9,2,1,3]",
                  "[0,2,true,3]"])
    def test_cycle_that_is_not_an_int_list_is_a_usage_error(self, tmp_path, capsys, cycle):
        gpath = self._gen(tmp_path, ["--k", "2", "--sizes", "2,2", "--delta", "1"])
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--graph", str(gpath), "--r", "2", "--cycle", cycle])
        assert exc.value.code == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"argument --cycle: not a JSON int array or comma list: {cycle!r}" in err

    def test_validation_error_exit_code(self, tmp_path):
        doc = {"k": 2, "parts": [[0, 1], [2, 3]], "edges": [[0, 1]]}
        bad = tmp_path / "inv.json"
        bad.write_text(json.dumps(doc))
        assert main(["search", "--graph", str(bad), "--r", "2"]) == EXIT_VALIDATION

    # K_{2,2}, whose cycle 0,2,1,3 verifies, with one field of the wrong JSON type
    K22 = {"k": 2, "parts": [[0, 1], [2, 3]], "edges": [[0, 2], [0, 3], [1, 2], [1, 3]]}

    @pytest.mark.parametrize(
        "change",
        [
            {"edges": [[0, 2.7], [0, 3], [1, 2], [1, 3]]},
            {"edges": [["0", 2], [0, 3], [1, 2], [1, 3]]},
            {"edges": [[0, 2], [0, 3], [True, 2], [1, 3]]},
            {"edges": [[0, 2], [0, 3], [1, 2], [1, 3, 0]]},
            {"edges": 5},
            {"edges": [5]},
            {"name": 5},
            {"k": 2.0},
            {"k": True, "parts": [[0, 1, 2, 3]], "edges": []},
            {"parts": [[0.5], [1]], "edges": []},
            {"parts": [["a"], [1]], "edges": []},
            {"parts": [[0, 1], [False, 3]]},
        ],
    )
    def test_wrongly_typed_document_is_rejected(self, tmp_path, capsys, change):
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps({**self.K22, **change}))
        rc = main(["verify", "--graph", str(bad), "--r", "2", "--cycle", "[0,2,1,3]"])
        assert rc in (EXIT_PARSE, EXIT_VALIDATION)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--graph", "{g}", "--r", "1"],
            ["search", "--graph", "{g}", "--r", "0"],
            ["scan", "--r", "1", "--k", "3", "--n", "12", "--delta", "1"],
            ["scan", "--r", "2", "--k", "0", "--n", "6", "--delta", "1"],
            ["connect", "--graph", "{g}", "--r", "5", "--p1", "[0,4,8]", "--p2", "[1,5,9]"],
            ["pipeline", "--graph", "{g}", "--r", "0"],
            ["sequence", "--graph", "{g}", "--r", "0"],
            ["connect", "--graph", "{g}", "--r", "0", "--p1", "[0,4]", "--p2", "[1,5]"],
        ],
    )
    def test_out_of_range_r_is_a_validation_error(self, tmp_path, capsys, argv):
        """r < 2 has no windows to search; connectors need r parts of the host."""
        gpath = self._gen(tmp_path, ["--k", "3", "--sizes", "4,4,4", "--delta", "1"])
        rc = main([str(gpath) if a == "{g}" else a for a in argv])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("p1, bad", [("[0,4,99]", 99), ("[0,4,-1]", -1)])
    def test_connect_terminal_outside_the_host_is_a_validation_error(
        self, tmp_path, capsys, p1, bad
    ):
        """A negative id is not read as a vertex counted from the end."""
        gpath = self._gen(tmp_path, ["--k", "3", "--sizes", "4,4,4", "--delta", "1"])
        rc = main(["connect", "--graph", str(gpath), "--r", "3", "--p1", p1, "--p2", "[1,5,9]"])
        assert rc == EXIT_VALIDATION
        out = capsys.readouterr()
        assert out.out == ""
        assert f"P1 holds vertex {bad} outside 0..11" in out.err

    def test_budget_exit_code(self, tmp_path):
        gpath = self._gen(tmp_path, ["--k", "3", "--sizes", "4,4,4", "--delta", "1"])
        rc = main(["search", "--graph", str(gpath), "--r", "3", "--budget", "1"])
        assert rc == EXIT_BUDGET

    def test_verify_command(self, tmp_path, capsys):
        gpath = self._gen(tmp_path, ["--k", "2", "--sizes", "2,2", "--delta", "1"])
        rc = main(["verify", "--graph", str(gpath), "--r", "2", "--cycle", "[0,2,1,3]"])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["ok"]
        rc = main(["verify", "--graph", str(gpath), "--r", "2", "--cycle", "[0,1,2,3]"])
        assert rc == EXIT_STAGE

    def test_absorber_print(self, capsys):
        assert main(["absorber", "--r", "3"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["q1"]) == 27 and len(doc["q2"]) == 24
        assert doc["q1"][:3] == ["a_1^1", "a_2^1", "a_3^1"]

    def test_connect_command(self, tmp_path, capsys):
        gpath = self._gen(tmp_path, ["--k", "2", "--sizes", "6,6", "--delta", "1"])
        rc = main(
            ["connect", "--graph", str(gpath), "--r", "2",
             "--p1", "[0,6]", "--p2", "[1,7]", "--ell", "2"]
        )
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 16  # 4x4 free choices in a complete host
        assert len(doc["connector"]) == 2

    def test_connect_splice_failure_is_not_hidden(self, tmp_path, capsys, monkeypatch):
        gpath = self._gen(tmp_path, ["--k", "2", "--sizes", "6,6", "--delta", "1"])
        # two vertices of one part cannot sit next to each other on the walk
        monkeypatch.setattr(hampow.connect, "_sample_walk", lambda *a: (2, 3))
        rc = main(
            ["connect", "--graph", str(gpath), "--r", "2",
             "--p1", "[0,6]", "--p2", "[1,7]", "--ell", "2"]
        )
        assert rc == EXIT_STAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert "does not splice" in out.err

    def test_tile_command(self, tmp_path, capsys):
        gpath = self._gen(tmp_path, ["--k", "3", "--sizes", "2,2,2", "--delta", "1"])
        rc = main(["tile", "--graph", str(gpath), "--r", "3", "--integral", "--cover", "0"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["optimum"] == "2" and doc["perfect"]
        assert len(doc["integral"]) == 2
        assert doc["cover"]["leftover"] == []
        assert sorted(v for p in doc["cover"]["paths"] for v in p) == list(range(6))

    def test_sequence_command(self, tmp_path, capsys):
        gpath = self._gen(tmp_path, ["--k", "4", "--sizes", "12,12,12,12", "--delta", "1"])
        rc = main(["sequence", "--graph", str(gpath), "--r", "3", "--relaxed"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["ok"]
        assert doc["plan"]["groups"]

    def test_scan_rows_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["scan", "--r", "3", "--k", "3", "--n", "6,9", "--delta", "1,1/2",
                "--samples", "2", "--seed", "0"]
        assert main(argv + ["--out", str(out1)]) == EXIT_OK
        assert main(argv + ["--out", str(out2)]) == EXIT_OK
        a, b = out1.read_bytes(), out2.read_bytes()
        assert a == b
        lines = a.decode().strip().split("\n")
        assert len(lines) == 1 + 2 * 2 * 2  # header + cells x samples
        header = lines[0].split(",")
        assert header == ["n", "k", "r", "sizes", "target_delta",
                          "measured_delta", "answer", "nodes", "seed"]
        for line in lines[1:]:
            assert line.split(",")[-3] in ("yes", "no", "budget_exceeded") or '"' in line

    def test_scan_complete_column_all_yes(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["scan", "--r", "2", "--k", "2", "--n", "4,6", "--delta", "1",
              "--samples", "2", "--seed", "1", "--out", str(out)])
        rows = out.read_text().strip().split("\n")[1:]
        assert all(",yes," in row for row in rows)

    def test_scan_independence_failing_cells_all_no(self, tmp_path):
        # n=10 over k=3 gives a part of 4 > 10/3, so every sample answers no
        out = tmp_path / "d.csv"
        main(["scan", "--r", "3", "--k", "3", "--n", "10", "--delta", "1,1/2",
              "--samples", "3", "--seed", "2", "--out", str(out)])
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 6
        assert all(",no," in row for row in rows)


def _reservoir_outcome(sample, *args):
    try:
        return sample(*args)
    except SearchExhaustedError as exc:
        return str(exc)


def test_reservoir_matches_the_fraction_bound_reference():
    """One integer ceiling per call decides as the Fraction bound did per vertex:
    the same samples, or the same exhaustion text, including nu that makes the
    bound an integer."""
    seen = Counter()
    for trial in range(120):
        rng = random.Random(trial)
        r = rng.choice([2, 3])
        m = rng.randint(5, 12)
        g = gen_random(r, [m] * r, rng.choice([Fraction(7, 10), Fraction(9, 10), 1]), trial)
        free = [sorted(rng.sample(p, rng.randint(3, m))) for p in g.parts]
        u_size = rng.randint(1, min(map(len, free)))
        nu = rng.choice([Fraction(0), Fraction(1, 2 * r), Fraction(1, 12), Fraction(1, 7)])
        cfg = Config.default(r, seed=trial, nu=nu, retry_limit=rng.choice([1, 5]))
        got = _reservoir_outcome(_sample_reservoir, g, free, u_size, cfg)
        assert got == _reservoir_outcome(reference_sample_reservoir, g, free, u_size, cfg), trial
        seen[isinstance(got, str)] += 1
    assert seen[True] >= 20 and seen[False] >= 20, seen


class _ReadLog(argparse.Namespace):
    """A namespace that records the name of every public attribute read from it."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def test_every_option_is_read_by_its_command(tmp_path):
    """Each option a subcommand defines is read by that subcommand's command on
    at least one of these invocations: an option no command reads decides nothing."""
    g, g4, out = (str(tmp_path / name) for name in ("g.json", "g4.json", "out"))
    common = ["--graph", g, "--r", "3", "--out", out]
    constants = ["--gamma", "1/6", "--sigma", "1/25", "--beta", "1/200"]
    invocations = [
        ["gen", "--k", "3", "--sizes", "4,4,4", "--delta", "1", "--seed", "1", "--name", "h",
         "--out", g],
        ["gen", "--k", "4", "--sizes", "12,12,12,12", "--delta", "1", "--out", g4],
        ["gen", "--k", "3", "--sizes", "4,4,4", "--extremal", "--r", "3", "--out", out],
        ["verify", *common, "--cycle", "[0,4,8,1,5,9,2,6,10,3,7,11]"],
        ["sequence", "--graph", g4, "--r", "3", "--out", out, "--relaxed", "--seed", "1",
         *constants],
        ["absorber", "--r", "3", "--out", out],
        ["connect", "--graph", g, "--r", "2", "--out", out, "--p1", "[0,4]", "--p2", "[1,5]",
         "--ell", "2", "--seed", "1"],
        ["tile", *common, "--integral", "--cover", "0", "--seed", "1"],
        ["search", *common, "--budget", "1000"],
        ["scan", "--r", "2", "--k", "2", "--n", "4", "--delta", "1", "--samples", "1",
         "--budget", "1000", "--seed", "1", "--jobs", "1", "--out", out],
        ["pipeline", *common, "--mode", "oracle", "--budget", "1000", "--relaxed", "--seed", "1",
         *constants, "--nu", "1/25"],
    ]
    parser = build_parser()
    read = set()
    for argv in invocations:
        args = parser.parse_args(argv, namespace=_ReadLog())
        command = args.command
        args._reads.clear()  # argparse reads the namespace while it fills it
        assert cli._COMMANDS[command](args) == EXIT_OK, argv
        read |= {(command, name) for name in args._reads}
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        (command, action.dest)
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        if action.dest != "help"
    }
    assert defined - read == set()
