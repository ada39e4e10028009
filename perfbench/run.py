"""Desk-scale benchmark of the `hampow` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  Each instance is one in-process call of
`hampow.cli.main([...])` on a graph file written during set-up; the program is
imported from `src/`.  One process, no threads.  `--workload all` runs every
workload in a child process of its own, one after another.

Set-up (repeated, median reported): generate the seeded instances, write their
graph files, make one warm-up call.  Measurement: calls round-robin over the
instance list, each instance at least once, until `--seconds` are spent; an
instance's time is the median of its calls.  Each call starts after a full
garbage collection, as a fresh CLI process would.  The first output of each
instance is checked by `checks.py`; its later calls must reproduce it exactly.
With `--trace 1` one more pass runs with spans recorded around each layer's
public functions, and its outputs must equal the untraced ones.

Every time reported is wall time scaled to a reference host speed: between
calls (never inside one) the run times a fixed kernel that does not use the
program (`calibrate.py`), and each phase's times are divided by that phase's
mean kernel time over the kernel's nominal time.  The shared host's speed
drifts by up to a factor of two over minutes; the scaling takes that drift out
of the metrics, and the report keeps the unscaled figures beside them
(`wall_*`, `host_factor_*`).

An instance is solved when `main` returns 0 and its output passes the check.
Exit 4 or 5 with a well-formed report is unsolved, not failed: `failed` in the
result line counts outputs the checks reject, exceptions escaping `main` and
calls whose output differs from the instance's first one.

End-to-end metrics (report; those in BENCHMARK.json also in the result line):
  solved_per_s     solved instances / summed instance time, each grid cell
                   weighed equally: the sum over cells of the cell's solved
                   share over the sum over cells of its mean instance time
  solved_share     solved / instances, each grid cell weighed equally
  instance_s_p50   median instance time, unsolved counted as +inf, over
                   instances (a cell with more instances weighs more here)
  instance_s_tail  the same sample at the highest percentile with >= 10 beyond
  setup_s          process start to the first timed call: import, plus the
                   median set-up (generate, write, warm up), scaled by the
                   kernel samples taken around the set-ups
  peak_rss_mb      ru_maxrss of the workload's process at the end
The two latency metrics can be +inf, which the result line cannot carry; they
are printed here and kept in the report file, not bounded.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`.  The lines before it are the full report,
also written to `.bench_build/perfbench/report-<workload>-s<seed>-t<trace>.json`
with per-cell tables and the output digest; the traced run's spans go to
`.bench_build/perfbench/trace-<workload>-s<seed>.jsonl`.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import SEARCH_BUDGET, WORKLOADS, Instance, Workload, instances  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
VERDICTS = HERE / "verdicts.json"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 175
# the metric names the result line carries, as BENCHMARK.json lists them
BENCH = {key: [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]]
         for key in ("end_to_end", "per_layer")}


@dataclass
class Call:
    rc: int | None
    ns: int
    out: str
    error: str | None = None


def load_program():
    """Import the CLI from the checkout's own sources, never from elsewhere."""
    if not (SRC / "hampow" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC / 'hampow'}")
    sys.path.insert(0, str(SRC))
    import hampow.cli

    return hampow.cli


def timed_call(cli, argv: list[str]) -> Call:
    """One `main(argv)` call with stdout captured; only the call is timed.
    A full collection first, so no call pays for garbage left before it."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its argv
            rc, error = None, f"SystemExit({exc.code})"
        except Exception as exc:  # anything escaping main is a failed call
            rc, error = None, repr(exc)
        ns = time.perf_counter_ns() - start
    return Call(rc, ns, out.getvalue(), error)


@dataclass
class Prepared:
    instance: Instance
    path: Path  # relative to the checkout root
    recorded: str | None  # verdict recorded at the baseline commit, search only

    def host(self) -> checks.Host:
        return checks.Host.from_json((ROOT / self.path).read_text(encoding="utf-8"))

    def argv(self, workload: Workload) -> list[str]:
        return workload.argv(self.path, self.instance.cell, self.instance.run_seed)


def set_up(cli, workload: Workload, seed: int, work: Path, verdicts: dict) -> list[Prepared]:
    from hampow.graphs import gen_random, save_graph

    work.mkdir(parents=True, exist_ok=True)
    prepared = []
    for inst in instances(workload, seed):
        cell = inst.cell
        path = work / f"g{inst.graph:04d}.json"
        if not prepared or prepared[-1].instance.graph != inst.graph:
            text = save_graph(gen_random(cell.k, list(cell.sizes), cell.edge_probability, inst.graph_seed))
            path.write_text(text, encoding="utf-8")
        recorded = verdicts.get(checks.graph_key(text, cell.r)) if verdicts else None
        prepared.append(Prepared(inst, path.relative_to(ROOT), recorded))
    timed_call(cli, prepared[0].argv(workload))  # warm-up
    return prepared


@dataclass
class Result:
    call: Call  # the first call
    outcome: checks.Outcome
    seconds: list[float]  # every timed call of this instance

    @property
    def median_s(self) -> float:
        return stats.median(self.seconds)


def measure(cli, workload: Workload, prepared: list[Prepared], seconds: float,
            cal: calibrate.Calibrator) -> tuple[list[Result], int, int]:
    """Call the instances round-robin: every one at least once, then on until
    `seconds` have passed.  The first call of each is checked; later calls
    must repeat its output exactly.  `cal` samples the host speed between
    calls.  Returns results, calls made, problems."""
    results: list[Result] = []
    calls = problems = 0
    start = time.perf_counter()
    while calls < len(prepared) or time.perf_counter() - start < seconds:
        i = calls % len(prepared)
        p = prepared[i]
        call = timed_call(cli, p.argv(workload))
        calls += 1
        if i == len(results):
            if call.error is not None:
                outcome = checks.Outcome(False, f"exception escaped main: {call.error}")
            else:
                outcome = checks.check(workload.command, p.host(), p.instance.cell.r, call.rc,
                                       call.out, p.recorded, SEARCH_BUDGET)
            results.append(Result(call, outcome, []))
            problems += outcome.problem is not None
        elif (call.rc, call.out, call.error) != (results[i].call.rc, results[i].call.out,
                                                 results[i].call.error):
            results[i].outcome = checks.Outcome(False, "output differs between calls")
            problems += 1
        results[i].seconds.append(call.ns / 1e9)
        cal.maybe()
    return results, calls, problems


def digest(results: list[Result]) -> str:
    h = hashlib.sha256()
    for i, r in enumerate(results):
        h.update(f"{i}\t{r.call.rc}\t{r.call.error}\t{r.call.out}\n".encode())
    return h.hexdigest()


def end_to_end(prepared: list[Prepared], results: list[Result], setup_s: float, factor: float
               ) -> dict[str, tuple[float, str]]:
    """The six end-to-end metrics, each instance timed by its median call
    divided by the host factor of the measuring phase."""
    times = [r.median_s / factor for r in results]
    solved = [r.outcome.solved for r in results]
    with_inf = [t if ok else math.inf for t, ok in zip(times, solved)]
    tail = stats.tail(with_inf)
    solved_pass, seconds_pass, cells = stats.per_pass(
        [p.instance.cell.key() for p in prepared], solved, times)
    return {
        "solved_per_s": (solved_pass / seconds_pass, "instances/s"),
        "solved_share": (solved_pass / cells, "fraction"),
        "instance_s_p50": (stats.median(with_inf), "s"),
        "instance_s_tail": (tail[0] if tail else math.nan, "s"),
        "instance_tail_percentile": (tail[1] if tail else math.nan, "%"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def cell_table(workload: Workload, prepared: list[Prepared], results: list[Result]) -> list[dict]:
    """Per grid cell: the gates the roadmap items name (checked outputs only)."""
    rows: dict[str, dict] = {}
    for p, r in zip(prepared, results):
        row = rows.setdefault(p.instance.cell.key(), {"cell": p.instance.cell.key(),
                                                      "instances": 0, "solved": 0, "seconds": []})
        row["instances"] += 1
        row["solved"] += r.outcome.solved
        row["seconds"].append(round(r.median_s, 4))
        if r.outcome.problem is not None:
            continue
        if workload.command == "search":
            doc = json.loads(r.call.out)
            row.setdefault("answers", []).append(doc["answer"])
            row.setdefault("nodes", []).append(doc["nodes_expanded"])
        if workload.command == "tile":
            doc = json.loads(r.call.out)
            row.setdefault("optimum", []).append(doc["optimum"])
            row.setdefault("perfect", []).append(doc["perfect"])
    for row in rows.values():
        row["solved_share"] = row["solved"] / row["instances"]
    return list(rows.values())


def cycle_sources(workload: Workload, results: list[Result]) -> dict[str, tuple[float, str]]:
    counts = {"constructive": 0, "group_oracle": 0, "whole_graph_oracle": 0}
    solved = [r for r in results if r.outcome.solved and workload.command in ("construct", "auto")]
    for r in solved:
        counts[checks.cycle_source(r.call.out)] += 1
    shares = {f"pipeline.cycle_from.{k}": (v / len(solved) if solved else 0.0, "fraction")
              for k, v in counts.items()}
    shares["pipeline.cycle_from.solved"] = (len(solved), "count")  # the base of the shares
    return shares


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    try:
        cli = load_program()
    except (SystemExit, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0
    verdicts = {}
    if workload.command == "search":
        verdicts = checks.load_verdicts(VERDICTS, SEARCH_BUDGET)
    work = WORK / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    try:
        setups, setup_cal = [], calibrate.Calibrator()
        setup_cal.sample()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            prepared = set_up(cli, workload, args.seed, work, verdicts)
            setups.append(time.perf_counter() - start)
            setup_cal.sample()
        wall_setup_s = import_s + stats.median(setups)
        setup_factor = setup_cal.factor()

        cal = calibrate.Calibrator()
        first, attempted, failed = measure(cli, workload, prepared, args.seconds, cal)
        factor = cal.factor()
        metrics = end_to_end(prepared, first, wall_setup_s / setup_factor, factor)
        report = {
            "workload": workload.name,
            "seed": args.seed,
            "instances": len(prepared),
            "calls": attempted,
            "digest": digest(first),
            "setup_repeats_s": [round(s, 4) for s in setups],
            "import_s": round(import_s, 4),
            "wall_setup_s": wall_setup_s,
            "wall_solved_per_s": metrics["solved_per_s"][0] / factor,
            "host_factor_setup": setup_factor,
            "host_factor_measure": factor,
            "kernel_samples": len(cal.samples),
            "unrecorded_no": sum(r.outcome.unrecorded for r in first),
            "problems": [f"instance {i}: {r.outcome.problem}" for i, r in enumerate(first)
                         if r.outcome.problem][:20],
            "cells": cell_table(workload, prepared, first),
        }

        layer = None
        if args.trace:
            tracer = tracing.Tracer()
            traced: list[Result] = []
            traced_cal = calibrate.Calibrator()
            with tracer.installed():
                for p, untraced in zip(prepared, first):
                    tracer.instance = p.instance.index
                    call = timed_call(cli, p.argv(workload))
                    traced.append(Result(call, untraced.outcome, [call.ns / 1e9]))
                    traced_cal.maybe()
            report["traced_digest"] = digest(traced)
            if report["traced_digest"] != report["digest"]:
                failed += 1
                report["problems"].append("traced outputs differ from untraced outputs")
            attempted += len(traced)
            traced_factor = traced_cal.factor()
            solved_pass, seconds_pass, _ = stats.per_pass(
                [p.instance.cell.key() for p in prepared], [r.outcome.solved for r in traced],
                [r.call.ns / 1e9 / traced_factor for r in traced])
            traced_rate = solved_pass / seconds_pass
            layer = tracing.layer_metrics(tracer, traced_factor)
            layer.update(cycle_sources(workload, first))
            layer["trace.overhead"] = (1 - traced_rate / metrics["solved_per_s"][0], "fraction")
            report["self_s_by_span"] = {k: round(v, 4) for k, v in tracing.self_by_name(tracer).items()}
            slow = sorted(range(len(traced)), key=lambda i: -traced[i].call.ns)[:stats.TAIL_BEYOND]
            report["tail_instances"] = [prepared[i].instance.cell.key() for i in slow]
            report["self_s_by_span_tail"] = {
                k: round(v, 4) for k, v in tracing.self_by_name(tracer, set(slow)).items()}
            report["host_factor_traced"] = traced_factor
            report["per_layer"] = {k: v[0] for k, v in layer.items()}
            tracer.write_jsonl(WORK / f"trace-{workload.name}-s{args.seed}.jsonl")
            shown = {k: layer[k] for k in BENCH["per_layer"]}
        else:
            shown = {k: metrics[k] for k in BENCH["end_to_end"]}
        report["end_to_end"] = {k: v[0] for k, v in metrics.items()}
        (WORK / f"report-{workload.name}-s{args.seed}-t{int(args.trace)}.json").write_text(
            json.dumps(report, indent=1, default=str))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print_report(report, metrics, layer)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(report: dict, metrics: dict, layer) -> None:
    print(f"== {report['workload']} seed={report['seed']} instances={report['instances']} "
          f"calls={report['calls']}")
    print(f"  digest {report['digest']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {_fmt(value):>14} {unit}")
    for row in report["cells"]:
        extra = {k: row[k] for k in ("answers", "nodes", "optimum", "perfect") if k in row}
        print(f"  cell {row['cell']:<34} solved {row['solved']}/{row['instances']} "
              f"s={row['seconds']} {json.dumps(extra) if extra else ''}")
    for problem in report["problems"]:
        print(f"  PROBLEM {problem}")
    if layer:
        for name, (value, unit) in layer.items():
            print(f"  {name:<36} {_fmt(value):>14} {unit}")
        top = list(report["self_s_by_span"].items())[:5]
        print(f"  largest self times: {top}")
        print(f"  tail instances' largest self times: {list(report['self_s_by_span_tail'].items())[:5]}")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to that workload."""
    summary, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        for metric, value in last["metrics"].items():
            summary[f"{name}:{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
