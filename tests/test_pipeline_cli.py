import argparse
import json
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import hampow.connect
import hampow.oracle
import hampow.pipeline
import hampow.sequencing
from conftest import complete
from hampow import cli
from hampow.absorber import assemble_absorbing_path
from hampow.cli import EXIT_BUDGET, EXIT_OK, EXIT_PARSE, EXIT_STAGE, EXIT_VALIDATION, build_parser, main
from hampow.errors import BudgetExhaustedError, InfeasibleError, SearchExhaustedError
from hampow.graphs import (
    Config,
    balanced_sizes,
    degree_profile,
    gen_extremal,
    gen_random,
    load_graph,
    reduce_parts,
    save_graph,
)
from hampow.paths import is_path, is_properly_terminated, verify_ham_power_cycle
from hampow.pipeline import _cut_paths, constructive_ham_path_between, run_pipeline
from hampow.oracle import SearchBudget, window_paths
from hampow.tiling import cover_with_paths


class TestPipeline:
    def test_complete_balanced_three_partite(self):
        g = complete(3, [4, 4, 4])
        rep = run_pipeline(g, Config(3, seed=0))
        assert rep.ok
        assert verify_ham_power_cycle(g, rep.cycle, 3)

    def test_extremal_fails_with_stage_diagnosis(self):
        g = gen_extremal(3, (4, 4, 4), 3)
        rep = run_pipeline(g, Config(3, seed=0))
        assert not rep.ok
        assert any(not s.ok for s in rep.stages)

    def test_oversized_part_reported_at_independence(self):
        g = complete(2, [5, 3])
        rep = run_pipeline(g, Config(2, seed=0))
        assert not rep.ok
        assert rep.stages[0].name == "independence" and not rep.stages[0].ok

    def test_oracle_mode(self):
        g = complete(3, [3, 3, 3])
        rep = run_pipeline(g, Config(3, seed=1), mode="oracle")
        assert rep.ok

    def test_budget_exhaustion_reported(self):
        g = complete(3, [4, 4, 4])
        rep = run_pipeline(
            g, Config(3, seed=0), mode="oracle", budget=SearchBudget(1)
        )
        assert not rep.ok and rep.budget_exceeded

    def test_multi_part_instance_via_sequencing(self):
        g = complete(4, [12, 12, 12, 12])
        rep = run_pipeline(g, Config(3, seed=0))
        assert rep.ok
        assert any(s.name == "sequencing" and s.ok for s in rep.stages)
        assert verify_ham_power_cycle(g, rep.cycle, 3)

    def test_sequencing_infeasible_falls_back_to_whole_graph_oracle(self):
        # n too small for the integer solver: fallback still delivers the cycle
        g = complete(4, [4, 4, 4, 3])
        rep = run_pipeline(g, Config(3, seed=0))
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
        rep = run_pipeline(g, Config(4, seed=1), mode=mode)
        assert calls == [1]
        p1 = "precondition P1 fails: residual total -24 negative or not divisible by r"
        assert [(s.name, s.ok, s.detail) for s in rep.stages] == [
            ("independence", True, ""),
            ("reduce", True, "k'=6, sizes=[20, 20, 20, 20, 20, 20]"),
            ("sequencing", False, p1),
        ] + tail

    def test_exhausted_sequencing_is_not_retried(self, monkeypatch):
        # the trim search is exact and the refinement re-draws its own cells,
        # so another seed would repeat work run_sequencing has already done
        calls = []

        def exhausted(graph, cfg):
            calls.append(cfg.seed)
            raise SearchExhaustedError(f"spent under seed {cfg.seed}")

        monkeypatch.setattr(hampow.pipeline, "run_sequencing", exhausted)
        rep = run_pipeline(complete(4, [12, 12, 12, 12]), Config(3, seed=5),
                           mode="constructive")
        assert calls == [5]
        assert (rep.stages[-1].name, rep.stages[-1].detail) == ("sequencing", "spent under seed 5")

    def test_dense_random_reproducible(self):
        g = gen_random(3, [4, 4, 4], Fraction(19, 20), 3)
        a = run_pipeline(g, Config(3, seed=5))
        b = run_pipeline(g, Config(3, seed=5))
        assert a.to_json_dict() == b.to_json_dict()

    def test_fallback_searches_the_unreduced_graph(self):
        # merging parts deletes edges; a cycle may need one of them, so the
        # oracle fallback must run on the input graph, not the reduction
        from hampow.oracle import YES, ham_power_cycle_exists
        from hampow.graphs import reduce_parts

        g = gen_random(5, [3, 3, 3, 2, 2], Fraction(7, 10), 79)
        assert ham_power_cycle_exists(g, 3).answer == YES
        reduced = reduce_parts(g, 3)
        assert ham_power_cycle_exists(reduced, 3).answer != YES
        rep = run_pipeline(g, Config(3, seed=79))
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
            rep = run_pipeline(g, Config(3, seed=seed))
            assert not rep.budget_exceeded
            truth = ham_power_cycle_exists(g, 3)
            assert rep.ok == (truth.answer == YES), (seed, k, sizes)


class TestConstructive:
    def test_r2_full_machinery(self):
        g = complete(2, [20, 20])
        cfg = Config(2, seed=3)
        K, K2 = (0, 20), (1, 21)
        path = constructive_ham_path_between(g, K, K2, cfg)
        assert len(path) == 36

    def test_r3_full_machinery(self, monkeypatch):
        from hampow import tiling

        def no_lp(*args):
            raise AssertionError("the constructive path solves no LP")

        monkeypatch.setattr(tiling, "fractional_tiling", no_lp)
        g = complete(3, [50, 50, 50])
        cfg = Config(3, seed=1)
        rep = run_pipeline(g, cfg, mode="constructive")
        assert rep.ok
        assert verify_ham_power_cycle(g, rep.cycle, 3)
        assert any(s.name == "group_path" and s.detail == "constructive" for s in rep.stages)

    def test_no_clique_list_is_built(self, monkeypatch):
        from hampow import tiling

        def no_list(*args):
            raise AssertionError("the constructive path listed every clique")

        monkeypatch.setattr(tiling, "enumerate_cliques", no_list)
        g = complete(3, [24, 24, 24])
        rep = run_pipeline(g, Config(3, seed=1), mode="constructive")
        assert rep.ok and verify_ham_power_cycle(g, rep.cycle, 3)
        assert any(s.name == "group_path" and s.detail == "constructive" for s in rep.stages)

    def test_reservoir_is_drawn_from_what_the_gadget_absorbs(self):
        # each part keeps 10 vertices off the anchor and the gadget, more than
        # the 7 the reservoir takes, but the gadget absorbs fewer of part 1's
        g = gen_random(2, [16, 16], Fraction(19, 20), 10)
        cfg = Config(2, seed=10)
        anchor = next(window_paths(g, g.part_sets, set(), 2))
        p_abs = assemble_absorbing_path(g, anchor, cfg)
        free = [set(p) - set(anchor) - set(p_abs.path) for p in g.parts]
        assert [len(f) for f in free] == [10, 10]
        assert min(len(f & cover) for f, cover in zip(free, p_abs.cover)) < 7
        with pytest.raises(InfeasibleError,
                           match="absorbable reservoir of 7 per part does not fit"):
            constructive_ham_path_between(g, anchor, anchor, cfg)

    @pytest.mark.parametrize("r, size", [(2, 11), (3, 18), (4, 25)])
    def test_parts_of_the_minimum_size_are_spanned(self, r, size):
        # the anchor, the gadget and the reservoir of the two connectors fill
        # each part, so the cover has nothing to cover
        g = complete(r, [size] * r)
        rep = run_pipeline(g, Config(r, seed=1), mode="constructive")
        assert rep.ok and verify_ham_power_cycle(g, rep.cycle, r)
        small = complete(r, [size - 1] * r)
        anchor = tuple(part[0] for part in small.parts)
        with pytest.raises(InfeasibleError, match=f"needs at least {size} per part"):
            constructive_ham_path_between(small, anchor, anchor, Config(r))

    def test_host_below_the_degree_threshold_is_built(self):
        # the theorem's 1 - 1/r + o(1) is not checked, nor a degree condition
        # on the reservoir draw: the exact searches decide
        g = gen_random(2, [18, 18], Fraction(17, 20), 18153)
        assert degree_profile(g).delta_p == Fraction(13, 18) < Fraction(3, 4)
        rep = run_pipeline(g, Config(2, seed=4), mode="constructive")
        assert rep.ok and verify_ham_power_cycle(g, rep.cycle, 2)
        assert ("group_path", True, "constructive") in [(s.name, s.ok, s.detail) for s in rep.stages]
        # this host's rest needs two cover paths, so a reservoir of
        # (2 + 2) * 2 + 1 = 9 per part, which the gadget's covers cannot hold
        g = gen_random(2, [16, 16], Fraction(9, 10), 10)
        assert degree_profile(g).delta_p == Fraction(11, 16)
        rep = run_pipeline(g, Config(2, seed=0), mode="constructive")
        assert not rep.ok
        assert [(s.name, s.ok, s.detail) for s in rep.stages][-1] == (
            "group_path:constructive", False,
            "constants infeasible at this scale: absorbable reservoir of 9 per part does not fit",
        )

    def test_cover_size_loop_cannot_oscillate(self, monkeypatch):
        # sized for one cover path this host's rest takes two, and sized for
        # two the smaller rest takes one: the count only grows, and the one
        # path is cut in two
        cuts = []

        def spy(paths, count, r):
            cuts.append((len(paths), count))
            return _cut_paths(paths, count, r)

        monkeypatch.setattr(hampow.pipeline, "_cut_paths", spy)
        g = gen_random(2, [18, 18], Fraction(97, 100), 18216)
        assert degree_profile(g).delta_p == Fraction(8, 9)
        rep = run_pipeline(g, Config(2, seed=7), mode="constructive")
        assert rep.ok and verify_ham_power_cycle(g, rep.cycle, 2)
        assert ("group_path", True, "constructive") in [(s.name, s.ok, s.detail) for s in rep.stages]
        assert cuts == [(1, 2)]

    @pytest.mark.parametrize("r, size, delta, seed", [(2, 12, 1, 0), (3, 10, Fraction(19, 20), 2),
                                                       (4, 8, 1, 1)])
    def test_every_piece_of_a_cut_is_a_terminated_power_path(self, r, size, delta, seed):
        g = gen_random(r, [size] * r, delta, seed)
        cover = list(cover_with_paths(g, r, Fraction(0), Config(r, seed=seed)).paths)
        cliques = sum(len(p) for p in cover) // r
        for count in range(len(cover), cliques + 1):
            pieces = _cut_paths(cover, count, r)
            assert len(pieces) == count
            assert sorted(v for p in pieces for v in p) == list(range(g.n))
            for p in pieces:
                assert len(p) % r == 0
                assert is_path(g, p, r) and is_properly_terminated(g, p, r)
        with pytest.raises(InfeasibleError, match="no path of two cliques to cut"):
            _cut_paths(cover, cliques + 1, r)

    def test_an_empty_cover_cannot_be_cut(self):
        with pytest.raises(InfeasibleError, match="cover of 0 paths"):
            _cut_paths([], 1, 2)
        assert _cut_paths([], 0, 2) == []

    def test_small_host_is_scale_infeasible(self):
        g = complete(2, [5, 5])
        with pytest.raises(InfeasibleError):
            constructive_ham_path_between(g, (0, 5), (1, 6), Config(2, seed=0))


# a k=5 host for r=3 whose sequencing plan fails only the group slack A2
_A2_ONLY_HOST = ["--k", "5", "--sizes", "30,30,30,30,30", "--delta", "49/50", "--seed", "1"]


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

    def test_failed_constructive_group_path_is_one_stage(self, tmp_path, capsys):
        # the groups are too small for the absorbing machinery; auto mode
        # would hand the group to the oracle
        gpath = self._gen(tmp_path, ["--k", "4", "--sizes", "12,12,12,12", "--delta", "1"])
        rc = main(["pipeline", "--graph", str(gpath), "--r", "3", "--mode", "constructive"])
        assert rc == EXIT_STAGE
        stages = json.loads(capsys.readouterr().out)["stages"]
        assert [s["name"] for s in stages if not s["ok"]] == ["group_path[0]:constructive"]
        assert stages[-1]["detail"].startswith("constants infeasible at this scale")
        assert not any("oracle" in s["name"] or "oracle" in s["detail"] for s in stages)

    @pytest.mark.parametrize("mode, rc, tail", [
        ("constructive", EXIT_BUDGET, []),
        ("auto", EXIT_OK, [("whole_graph_oracle", True, "18 nodes"), ("verify", True, "ok")]),
    ])
    def test_spent_anchor_search_is_a_failed_stage(self, tmp_path, capsys, monkeypatch,
                                                   mode, rc, tail):
        """The anchor is found by a budgeted window-path search; spending its
        budget ends a constructive run with exit 5 and a report, and auto
        mode goes on to the whole-graph oracle."""
        gpath = self._gen(tmp_path, ["--k", "3", "--sizes", "6,6,6", "--delta", "1", "--seed", "1"])
        monkeypatch.setattr(hampow.oracle, "SearchBudget",
                            lambda node_limit=2: SearchBudget(node_limit))
        assert main(["pipeline", "--graph", str(gpath), "--r", "3", "--mode", mode]) == rc
        doc = json.loads(capsys.readouterr().out)
        assert doc["budget_exceeded"] == (rc == EXIT_BUDGET)
        assert [(s["name"], s["ok"], s["detail"]) for s in doc["stages"]] == [
            ("independence", True, ""),
            ("reduce", True, "k'=3, sizes=[6, 6, 6]"),
            ("anchor", False, "search budget of 2 nodes exhausted"),
        ] + tail

    def test_oracle_mode_answers_as_search_does(self, tmp_path, capsys):
        """Differential check on small seeded hosts, r in {2, 3}, k from r to
        2r-1 and densities 7/10 to 1: oracle mode runs only the whole-graph
        oracle, and exits 0 with the cycle `search` finds, which `verify`
        accepts, exactly when `search` says yes, 4 when it says no and 5
        when the same budget runs out.  On the first host, with k > r, the
        oracle through sequencing's fixed anchors says no."""
        hosts = [(2, ["--k", "3", "--sizes", "8,8,8", "--delta", "9/10"], 2_000_000)]
        for i in range(30):
            rng = random.Random(i)
            r = 2 + i % 2
            k = r + (i // 2) % r
            sizes = [rng.randint(2, 5)] * r if k == r else [rng.randint(2, 5) for _ in range(k)]
            delta = rng.choice(["7/10", "4/5", "9/10", "1"])
            host = ["--k", str(k), "--sizes", ",".join(map(str, sizes)), "--delta", delta,
                    "--seed", str(i)]
            hosts.append((r, host, 30 if i % 10 == 9 else 20_000))
        want_rc = {"yes": EXIT_OK, "no": EXIT_STAGE, "budget_exceeded": EXIT_BUDGET}
        seen = Counter()
        for i, (r, host, budget) in enumerate(hosts):
            gpath = str(self._gen(tmp_path, host, name=f"g{i}.json"))
            common = ["--graph", gpath, "--r", str(r), "--budget", str(budget)]
            main(["search", *common])
            found = json.loads(capsys.readouterr().out)
            answer = found["answer"]
            rc = main(["pipeline", *common, "--mode", "oracle"])
            doc = json.loads(capsys.readouterr().out)
            assert rc == want_rc[answer], (i, host)
            assert [s["name"] for s in doc["stages"]] == [
                "independence", "whole_graph_oracle"] + ["verify"] * (answer == "yes"), (i, host)
            assert doc["budget_exceeded"] == (answer == "budget_exceeded"), (i, host)
            assert doc["cycle"] == found["witness"], (i, host)
            if answer == "yes":
                cycle = json.dumps(doc["cycle"])
                assert main(["verify", "--graph", gpath, "--r", str(r), "--cycle", cycle]) == EXIT_OK
                capsys.readouterr()
            seen[answer] += 1
        assert min(seen["yes"], seen["no"], seen["budget_exceeded"]) >= 2, seen

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
        assert main(["pipeline", "--graph", str(gpath), "--r", "3"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["ok", "budget_exceeded", "stages", "cycle"]
        assert all(list(s) == ["name", "ok", "detail"] for s in doc["stages"])
        assert main(["sequence", "--graph", str(gpath), "--r", "3"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["plan", "report"]
        assert list(doc["report"]) == ["ok", "measured_group_slack", "detail"]

    def test_relaxed_sequence_is_judged_as_the_pipeline_judges_it(self, tmp_path, capsys,
                                                                   monkeypatch):
        """A plan failing the group slack A2 exits 0, and the report shows A2
        failing; a plan failing a structural condition is a construction
        fault: exit 4, named on stderr, no plan."""
        gpath = self._gen(tmp_path, _A2_ONLY_HOST)
        argv = ["sequence", "--graph", str(gpath), "--r", "3"]
        assert main(argv) == EXIT_OK
        report = json.loads(capsys.readouterr().out)["report"]
        assert not report["ok"]
        assert (report["measured_group_slack"], report["detail"]) == \
            ("1/2", "worst proportional degree 1/2 at vertex 87 in group 6")

        real_verify = hampow.sequencing.verify_plan

        def a3_fails(graph, plan, cfg):
            return real_verify(graph, replace(plan, p0=plan.p0[1:]), cfg)

        monkeypatch.setattr(hampow.sequencing, "verify_plan", a3_fails)
        assert main(argv) == EXIT_STAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == \
            "stage failure: A3: p0 does not extend p0_prime by r vertices on each side\n"

    def test_structurally_failed_plan_is_a_fault_not_an_oracle_fallback(
        self, tmp_path, capsys, monkeypatch
    ):
        """A plan whose connector 0 starts on p0 fails A4.  That is a fault of
        the construction, so no mode hands the host to the whole-graph
        oracle: `pipeline` and `sequence` exit 4 and print nothing."""
        gpath = self._gen(tmp_path, _A2_ONLY_HOST)
        real_verify = hampow.sequencing.verify_plan

        def a4_fails(graph, plan, cfg):
            first = (plan.p0[0], *plan.connectors[0][1:])
            return real_verify(graph, replace(plan, connectors=(first, *plan.connectors[1:])), cfg)

        monkeypatch.setattr(hampow.sequencing, "verify_plan", a4_fails)
        monkeypatch.setattr(hampow.pipeline, "ham_power_cycle_exists",
                            lambda *a, **kw: pytest.fail("the whole-graph oracle ran"))
        for argv in (["pipeline"], ["pipeline", "--mode", "constructive"], ["sequence"]):
            assert main([*argv, "--graph", str(gpath), "--r", "3"]) == EXIT_STAGE, argv
            out = capsys.readouterr()
            assert out.out == "", argv
            assert out.err == "stage failure: A4: connector 0 is not a power-path\n", argv

    def test_wrong_part_sizes_are_a_fault_not_an_oracle_fallback(
        self, tmp_path, capsys, monkeypatch
    ):
        """The reduced host passed every size check sequencing makes, so cell
        sizes that do not sum to the residual parts can only come from a
        wrong solver result: `pipeline` exits 3, prints no report and never
        runs the whole-graph oracle."""
        gpath = self._gen(tmp_path, ["--k", "4", "--sizes", "12,12,12,12", "--delta", "1"])
        real_solve = hampow.sequencing.solve_part_sizes

        def one_too_many(*args):
            x = real_solve(*args)
            return (x[0] + 1, *x[1:])

        monkeypatch.setattr(hampow.sequencing, "solve_part_sizes", one_too_many)
        monkeypatch.setattr(hampow.pipeline, "ham_power_cycle_exists",
                            lambda *a, **kw: pytest.fail("the whole-graph oracle ran"))
        assert main(["pipeline", "--graph", str(gpath), "--r", "3"]) == EXIT_VALIDATION
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "validation error: row 0: cells sum to 9 but residual part has 8\n"

    def test_pipeline_relaxed_is_accepted_and_ignored(self, tmp_path, capsys):
        """`pipeline --relaxed` still parses and changes nothing, on a host
        whose plan fails the group slack A2: the pipeline builds its cycle
        through that plan either way."""
        gpath = self._gen(tmp_path, _A2_ONLY_HOST)
        argv = ["pipeline", "--graph", str(gpath), "--r", "3"]
        rc = main(argv)
        out = capsys.readouterr().out
        assert (main(argv + ["--relaxed"]), capsys.readouterr().out) == (rc, out)
        assert rc == EXIT_OK
        stages = json.loads(out)["stages"]
        assert (stages[2]["name"], stages[2]["ok"]) == ("sequencing", True)
        assert not any("oracle" in s["name"] for s in stages)

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
        "text",
        [
            pytest.param("[" * 100_000 + "]" * 100_000, id="nested-arrays"),
            pytest.param('{"k":0,"parts":[],"edges":[],"name":' + "[" * 3000 + "]" * 3000 + "}",
                         id="nested-name"),
            pytest.param('{"k":' + "1" * 5000 + ',"parts":[],"edges":[]}', id="oversized-int"),
        ],
    )
    def test_json_the_decoder_cannot_hold_is_a_parse_error(self, tmp_path, capsys, text):
        """Nesting deeper than the decoder recurses, or an int longer than
        Python's int-to-string limit, is malformed JSON, not a traceback."""
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["pipeline", "--graph", str(bad), "--r", "2"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: malformed JSON: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "cycle", ["0", "x", "null", "[[0]]", "[1e400]", '{"a": 1}', '"0213"', "[0.9,2,1,3]",
                  "[0,2,true,3]", pytest.param("[" * 3000 + "]" * 3000, id="nested"),
                  pytest.param("[" + "1" * 5000 + "]", id="oversized-int")])
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

    def test_connect_with_an_emptied_set_names_it(self, tmp_path, capsys):
        """P1 takes every vertex of part 0 but one and P2 that one, so the
        first connector set is empty: a validation error that says so."""
        gpath = self._gen(tmp_path, ["--k", "3", "--sizes", "3,3,3", "--delta", "1"])
        rc = main(["connect", "--graph", str(gpath), "--r", "3",
                   "--p1", "[0,3,6,1,4,7]", "--p2", "[2,5,8]"])
        assert rc == EXIT_VALIDATION
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "validation error: set 0 is empty\n"

    def test_budget_exit_code(self, tmp_path):
        gpath = self._gen(tmp_path, ["--k", "3", "--sizes", "4,4,4", "--delta", "1"])
        rc = main(["search", "--graph", str(gpath), "--r", "3", "--budget", "1"])
        assert rc == EXIT_BUDGET

    def test_pipeline_budget_exit_code(self, tmp_path, capsys):
        gpath = self._gen(tmp_path, ["--k", "4", "--sizes", "12,12,12,12", "--delta", "1"])
        rc = main(["pipeline", "--graph", str(gpath), "--r", "3", "--mode", "oracle",
                   "--budget", "1"])
        assert rc == EXIT_BUDGET
        doc = json.loads(capsys.readouterr().out)
        assert doc["budget_exceeded"] is True and doc["cycle"] is None

    @pytest.mark.parametrize("mode, rc, tail", [
        ("constructive", EXIT_BUDGET, []),
        ("auto", EXIT_OK, ["whole_graph_oracle", "verify"]),
    ])
    def test_a_spent_sequencing_budget_ends_only_a_constructive_run(
        self, tmp_path, capsys, monkeypatch, mode, rc, tail
    ):
        """A spent budget proves nothing: constructive mode, which has no
        fallback, ends inconclusive and exits 5, while auto mode still hands
        the whole graph to the oracle."""
        gpath = tmp_path / "g.json"
        gpath.write_text(save_graph(gen_random(5, [24] * 5, Fraction(19, 20), 1)))
        monkeypatch.setattr(hampow.sequencing, "SearchBudget", lambda: SearchBudget(1))
        assert main(["pipeline", "--graph", str(gpath), "--r", "3", "--mode", mode]) == rc
        doc = json.loads(capsys.readouterr().out)
        assert doc["budget_exceeded"] is (mode == "constructive")
        assert [(s["name"], s["detail"]) for s in doc["stages"]][2] == \
            ("sequencing", "search budget of 1 nodes exhausted")
        assert [s["name"] for s in doc["stages"][3:]] == tail

    @pytest.mark.parametrize("mode, rc", [("constructive", EXIT_BUDGET), ("auto", EXIT_OK)])
    def test_a_spent_group_path_budget_ends_only_a_constructive_run(
        self, tmp_path, capsys, monkeypatch, mode, rc
    ):
        gpath = self._gen(tmp_path, ["--k", "3", "--sizes", "4,4,4", "--delta", "1"])

        def spent(*args):
            raise BudgetExhaustedError("search budget of 1 nodes exhausted")

        monkeypatch.setattr(hampow.pipeline, "constructive_ham_path_between", spent)
        assert main(["pipeline", "--graph", str(gpath), "--r", "3", "--mode", mode]) == rc
        doc = json.loads(capsys.readouterr().out)
        assert doc["budget_exceeded"] is (mode == "constructive")
        assert [(s["name"], s["ok"]) for s in doc["stages"][2:]] == [
            ("group_path:constructive", False)
        ] + [("whole_graph_oracle", True), ("verify", True)] * (mode == "auto")

    @pytest.mark.parametrize("where, reason", [
        ("a directory", "[Errno 21] Is a directory"),
        ("a missing directory", "[Errno 2] No such file or directory"),
    ])
    def test_unwritable_out_is_a_parse_error(self, tmp_path, capsys, where, reason):
        out = tmp_path if where == "a directory" else tmp_path / "missing" / "out.json"
        assert main(["absorber", "--r", "2", "--out", str(out)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {reason}: {str(out)!r}\n"

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
        # no one-vertex connector splices, so the count is 0; patched to 1, it
        # sends the command to a search that forgets P2 and lays one from
        # part 0, though it sits next to P2's first vertex, also in part 0
        real_count = hampow.connect.count_connecting_walks
        monkeypatch.setattr(hampow.connect, "count_connecting_walks",
                            lambda *args: (1, real_count(*args)[1]))
        real = hampow.connect.window_paths
        monkeypatch.setattr(hampow.connect, "window_paths",
                            lambda graph, _, used, r, before, after, rng:
                                real(graph, [graph.part_sets[0] - used], used, r,
                                     before=before, rng=rng))
        rc = main(
            ["connect", "--graph", str(gpath), "--r", "2",
             "--p1", "[0,6]", "--p2", "[1,7]", "--ell", "1"]
        )
        assert rc == EXIT_STAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert "does not splice" in out.err

    def test_connect_proved_none_is_null(self, tmp_path, capsys):
        gpath = self._gen(tmp_path, ["--k", "2", "--sizes", "3,3", "--delta", "1"])
        # one connecting walk through the free vertices 2 and 5: 2, 5, 2, 5
        rc = main(
            ["connect", "--graph", str(gpath), "--r", "2",
             "--p1", "[0,3]", "--p2", "[1,4]", "--ell", "4"]
        )
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"count": 1, "connector": None}

    def test_connect_no_walk_is_null_without_a_search(self, tmp_path, capsys, monkeypatch):
        # K_{3,3} without the edge 2-5 between the free vertices
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"k": 2, "parts": [[0, 1, 2], [3, 4, 5]],
                                     "edges": [[0, 3], [1, 4], [2, 3], [1, 5]]}))
        monkeypatch.setattr(hampow.connect, "find_connector", lambda *a: pytest.fail("searched"))
        rc = main(["connect", "--graph", str(gpath), "--r", "2", "--p1", "[0,3]", "--p2", "[1,4]"])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"count": 0, "connector": None}

    def test_connect_count_too_long_to_write_exits_3(self, tmp_path, capsys):
        gpath = self._gen(tmp_path, ["--k", "2", "--sizes", "6,6", "--delta", "1"])
        # a proved none: 7500 > the 8 free vertices
        rc = main(["connect", "--graph", str(gpath), "--r", "2",
                   "--p1", "[0,6]", "--p2", "[1,7]", "--ell", "7500"])
        assert rc == EXIT_VALIDATION
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"validation error: the exact count has more than "
                           f"{sys.get_int_max_str_digits()} digits and cannot be written\n")

    def test_connect_found_with_count_too_long_to_write_exits_3(
        self, tmp_path, capsys, monkeypatch
    ):
        gpath = self._gen(tmp_path, ["--k", "2", "--sizes", "6,6", "--delta", "1"])
        real = hampow.connect.count_connecting_walks
        monkeypatch.setattr(hampow.connect, "count_connecting_walks",
                            lambda *args: (10 ** 5000, real(*args)[1]))
        rc = main(["connect", "--graph", str(gpath), "--r", "2",
                   "--p1", "[0,6]", "--p2", "[1,7]", "--ell", "2"])
        assert rc == EXIT_VALIDATION
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1
        assert out.err.startswith("validation error: the exact count has more than")

    def test_connect_spent_budget_exits_5(self, tmp_path, capsys, monkeypatch):
        gpath = self._gen(tmp_path, ["--k", "2", "--sizes", "6,6", "--delta", "1"])
        monkeypatch.setattr(hampow.oracle, "SearchBudget", lambda: SearchBudget(1))
        rc = main(
            ["connect", "--graph", str(gpath), "--r", "2",
             "--p1", "[0,6]", "--p2", "[1,7]", "--ell", "2"]
        )
        assert rc == EXIT_BUDGET
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and "Traceback" not in out.err
        assert out.err.startswith("search budget exhausted:")

    def test_tile_command(self, tmp_path, capsys):
        gpath = self._gen(tmp_path, ["--k", "3", "--sizes", "2,2,2", "--delta", "1"])
        rc = main(["tile", "--graph", str(gpath), "--r", "3", "--integral", "--cover", "0"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["optimum"] == "2" and doc["perfect"]
        assert len(doc["integral"]) == 2
        assert doc["cover"]["leftover"] == []
        assert sorted(v for p in doc["cover"]["paths"] for v in p) == list(range(6))

    def test_tile_spent_clique_listing_exits_5(self, tmp_path, capsys, monkeypatch):
        gpath = self._gen(tmp_path, ["--k", "3", "--sizes", "2,2,2", "--delta", "1"])
        monkeypatch.setattr(hampow.oracle, "SearchBudget", lambda: SearchBudget(14))
        assert main(["tile", "--graph", str(gpath), "--r", "3"]) == EXIT_BUDGET
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "search budget exhausted: search budget of 14 nodes exhausted\n"

    @pytest.mark.parametrize("host, args, reason", [
        (["--k", "1", "--sizes", "1"], ["--r", "1"], "power parameter r must be at least 2"),
        (["--k", "0", "--sizes", ""], ["--r", "0"], "power parameter r must be at least 2"),
        (["--k", "3", "--sizes", "4,4,4"], ["--r", "3", "--cover", "-1"],
         "cover leftover fraction must be at least 0, got -1"),
    ])
    def test_tile_out_of_range_r_or_alpha_is_a_validation_error(
        self, tmp_path, capsys, host, args, reason
    ):
        gpath = self._gen(tmp_path, host + ["--delta", "1"])
        assert main(["tile", "--graph", str(gpath), *args]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"validation error: {reason}\n"

    @pytest.mark.parametrize("argv", [
        ["absorber", "--r", "1"],
        ["gen", "--k", "2", "--sizes", "2,2", "--extremal", "--r", "1"],
    ])
    def test_gadget_and_extremal_host_reject_r_below_two(self, capsys, argv):
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation error: power parameter r must be at least 2\n"

    @pytest.mark.parametrize("argv, seed", [
        (["gen", "--k", "2", "--sizes", "2,2", "--delta", "1", "--seed", "-1"], -1),
        (["gen", "--k", "3", "--sizes", "4,4,4", "--delta", "9/10", "--seed", "-7"], -7),
        (["scan", "--r", "2", "--k", "2", "--n", "4", "--delta", "1", "--seed", "-1"], -1),
        # the samples' seeds run -2..2: without the check, rows -2 and 2 and
        # rows -1 and 1 would test the same hosts
        (["scan", "--r", "2", "--k", "2", "--n", "4", "--delta", "1/2", "--seed", "-2",
          "--samples", "5"], -2),
    ])
    def test_negative_seed_is_a_validation_error(self, tmp_path, capsys, argv, seed):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"validation error: seed must be nonnegative, got {seed}\n"
        assert not out.exists()

    def test_negative_sample_count_is_a_validation_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["scan", "--r", "2", "--k", "2", "--n", "4", "--delta", "1"]
        assert main([*argv, "--samples", "-1", "--out", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation error: sample count must be nonnegative, got -1\n"
        assert not out.exists()
        # no samples is a valid scan of no rows
        assert main([*argv, "--samples", "0", "--out", str(out)]) == EXIT_OK
        assert out.read_text() == "n,k,r,sizes,target_delta,measured_delta,answer,nodes,seed\n"

    def test_search_on_the_empty_host_prints_an_empty_witness(self, tmp_path, capsys):
        gpath = self._gen(tmp_path, ["--k", "0", "--sizes", "", "--delta", "1"])
        assert main(["search", "--graph", str(gpath), "--r", "2"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {
            "answer": "yes", "witness": [], "nodes_expanded": 0}

    @pytest.mark.parametrize("mode", ["auto", "oracle", "constructive"])
    @pytest.mark.parametrize("k, sizes", [("0", ""), ("3", "0,0,0")])
    def test_pipeline_on_the_empty_host_agrees_with_search(self, tmp_path, capsys, k, sizes, mode):
        gpath = self._gen(tmp_path, ["--k", k, "--sizes", sizes, "--delta", "1"])
        assert main(["search", "--graph", str(gpath), "--r", "2"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["witness"] == []
        assert main(["pipeline", "--graph", str(gpath), "--r", "2", "--mode", mode]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["cycle"] == [] and doc["ok"]
        assert [(s["name"], s["ok"]) for s in doc["stages"]] == [
            ("independence", True), ("verify", True)]

    @pytest.mark.parametrize("argv, rc, line", [
        (["tile", "--r", "3", "--cover", "-1/2"], EXIT_PARSE,
         "hampow tile: error: argument --cover: expected one argument"),
        (["tile", "--r", "3", "--cover=-1/2"], EXIT_VALIDATION,
         "validation error: cover leftover fraction must be at least 0, got -1/2"),
    ])
    def test_a_negative_rational_option_needs_the_equals_form(
        self, tmp_path, capsys, argv, rc, line
    ):
        """argparse reads a separate `-1/2` as an option, so only `--opt=-p/q`
        reaches the range check."""
        gpath = self._gen(tmp_path, ["--k", "3", "--sizes", "4,4,4", "--delta", "1"])
        try:
            got = main([*argv, "--graph", str(gpath)])
        except SystemExit as exc:
            got = exc.code
        captured = capsys.readouterr()
        assert got == rc
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == line
        assert "Traceback" not in captured.err

    def test_empty_cycle_prints_as_an_empty_list(self):
        rep = hampow.pipeline.PipelineReport(cycle=())
        assert json.dumps(rep.to_json_dict()["cycle"]) == "[]"

    def test_sequence_command(self, tmp_path, capsys):
        gpath = self._gen(tmp_path, ["--k", "4", "--sizes", "12,12,12,12", "--delta", "1"])
        rc = main(["sequence", "--graph", str(gpath), "--r", "3"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["ok"]
        assert doc["plan"]["groups"]

    def test_sequence_plans_the_pipelines_reduced_host(self, tmp_path, capsys):
        """`sequence` reduces as the pipeline does, so listing equal parts in
        another order in the file changes nothing it prints."""
        gpath = self._gen(tmp_path, ["--k", "4", "--sizes", "30,30,30,30",
                                     "--delta", "49/50", "--seed", "1"])
        doc = json.loads(gpath.read_text())
        doc["parts"].reverse()
        rpath = tmp_path / "reversed.json"
        rpath.write_text(json.dumps(doc))
        printed = []
        for path in (gpath, rpath):
            assert main(["sequence", "--graph", str(path), "--r", "3"]) == EXIT_OK
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        plan, report = hampow.sequencing.run_sequencing(
            reduce_parts(load_graph(rpath.read_text()), 3), Config(3))
        doc = {"plan": plan.to_json_dict(), "report": report.to_json_dict()}
        assert printed[1] == json.dumps(doc) + "\n"

    def test_sequence_judges_the_host_after_reduction(self, tmp_path, capsys):
        """Reduction folds the part of 2 into the two of 40, leaving k' = r:
        `pipeline` closes the balanced group and `sequence` has nothing to
        sequence."""
        gpath = self._gen(tmp_path, ["--k", "3", "--sizes", "40,40,2", "--delta", "1"])
        assert main(["pipeline", "--graph", str(gpath), "--r", "2"]) == EXIT_OK
        capsys.readouterr()
        assert main(["sequence", "--graph", str(gpath), "--r", "2"]) == EXIT_VALIDATION
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "validation error: sequencing needs r < k, got k=2, r=2\n"

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


class _ReadLog(argparse.Namespace):
    """A namespace that records the name of every public attribute read from it."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def test_the_seed_decides_the_constructive_cycle(tmp_path, capsys):
    """The `pipeline --seed` that the next test counts as read on a constructive
    run decides that run's cycle: on the complete 22,22 host seeds 0, 1 and 2
    give three different verified cycles."""
    g = complete(2, [22, 22])
    gpath = tmp_path / "g22.json"
    gpath.write_text(save_graph(g))
    cycles = set()
    for seed in ("0", "1", "2"):
        argv = ["pipeline", "--graph", str(gpath), "--r", "2", "--mode", "constructive"]
        assert main([*argv, "--seed", seed]) == EXIT_OK
        cycle = tuple(json.loads(capsys.readouterr().out)["cycle"])
        assert verify_ham_power_cycle(g, cycle, 2)
        cycles.add(cycle)
    assert len(cycles) == 3


def test_every_option_is_read_by_its_command(tmp_path):
    """Each option a subcommand defines is read by that subcommand's command on
    at least one of these invocations: an option no command reads decides nothing."""
    g, g4, g22, out = (str(tmp_path / name) for name in ("g.json", "g4.json", "g22.json", "out"))
    common = ["--graph", g, "--r", "3", "--out", out]
    invocations = [
        ["gen", "--k", "3", "--sizes", "4,4,4", "--delta", "1", "--seed", "1", "--name", "h",
         "--out", g],
        ["gen", "--k", "4", "--sizes", "12,12,12,12", "--delta", "1", "--out", g4],
        ["gen", "--k", "2", "--sizes", "22,22", "--delta", "1", "--out", g22],
        ["gen", "--k", "3", "--sizes", "4,4,4", "--extremal", "--r", "3", "--out", out],
        ["verify", *common, "--cycle", "[0,4,8,1,5,9,2,6,10,3,7,11]"],
        ["sequence", "--graph", g4, "--r", "3", "--out", out, "--seed", "1"],
        ["absorber", "--r", "3", "--out", out],
        ["connect", "--graph", g, "--r", "2", "--out", out, "--p1", "[0,4]", "--p2", "[1,5]",
         "--ell", "2", "--seed", "1"],
        ["tile", *common, "--integral", "--cover", "0", "--seed", "1"],
        ["search", *common, "--budget", "1000"],
        ["scan", "--r", "2", "--k", "2", "--n", "4", "--delta", "1", "--samples", "1",
         "--budget", "1000", "--seed", "1", "--out", out],
        ["pipeline", *common, "--mode", "oracle", "--budget", "1000", "--relaxed"],
        # the whole-graph oracle takes no seed, so the seed is read where it decides
        ["pipeline", "--graph", g22, "--r", "2", "--out", out, "--mode", "constructive",
         "--seed", "1"],
    ]
    parser = build_parser()
    read = set()
    for argv in invocations:
        args = parser.parse_args(argv, namespace=_ReadLog())
        command = args.command
        args._reads.clear()  # argparse reads the namespace while it fills it
        _, _, run = cli._COMMANDS[command]
        assert run(args) == EXIT_OK, argv
        read |= {(command, name) for name in args._reads}
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        (command, action.dest)
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        if action.dest != "help"
    }
    # `pipeline --relaxed` is accepted so that older command lines still
    # parse, and is ignored: it is the one option that may decide nothing
    assert defined - read == {("pipeline", "relaxed")}
