"""Command-line surface: generators, verifiers, the sequencing pipeline, the
gadget printer, connector counting, tilings, exact search, and the threshold
scanner.

`pipeline --mode` picks one strategy: `constructive` builds and never calls
an oracle, `oracle` is the whole-graph exact search that `search` runs, and
`auto` builds with the oracles as fallback.  The slack constants are fixed
functions of r, so no command takes them.

Exit codes: 0 success, 2 parse error, 3 validation error (also a `connect`
count too long to write), 4 stage failure, 5 budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import replace
from fractions import Fraction

from . import absorber, connect, oracle, pipeline, sequencing, tiling
from .errors import (
    BudgetExhaustedError,
    GraphFormatError,
    GraphValidationError,
    HampowError,
    SearchExhaustedError,
)
from .graphs import (
    Config,
    MultipartiteGraph,
    balanced_sizes,
    degree_profile,
    gen_extremal,
    gen_random,
    load_graph,
    reduce_parts,
    save_graph,
)
from .paths import verify_ham_power_cycle_report

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_STAGE = 4
EXIT_BUDGET = 5


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational p/q: {text!r}") from exc


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(x) for x in text.split(",") if x]


def _emit(args, payload: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise GraphFormatError(str(exc)) from exc
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _read_graph(args) -> MultipartiteGraph:
    try:
        with open(args.graph, "rb") as fh:
            return load_graph(fh)
    except OSError as exc:  # missing, a directory, unreadable; load_graph raises none
        raise GraphFormatError(str(exc)) from exc


def _config(args) -> Config:
    return Config(args.r, seed=args.seed)


def _seq_arg(text: str) -> tuple[int, ...]:
    """A JSON array of ints, or ints separated by commas."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError):  # not JSON, nested too deep, or an over-long int
        try:
            data = _int_list(text)
        except ValueError:
            data = None
    if type(data) is not list or not set(map(type, data)) <= {int}:
        raise argparse.ArgumentTypeError(f"not a JSON int array or comma list: {text!r}")
    return tuple(data)


def _add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
    """--graph, --r and --out, plus --seed for the commands whose computation
    reads it."""
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--r", type=int, required=True, help="power parameter")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write output to this file")


def _gen_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sizes", type=_int_list, required=True, help="comma-separated part sizes")
    p.add_argument("--delta", type=_fraction, default=None, help="edge probability p/q")
    p.add_argument("--extremal", action="store_true", help="planted independent-set instance")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default=None)
    p.add_argument("--out", default=None)


def _verify_options(p: argparse.ArgumentParser) -> None:
    _add_common(p, seed=False)
    p.add_argument("--cycle", type=_seq_arg, required=True, help="JSON int array or comma list")


def _absorber_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", default=None)


def _connect_options(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--p1", type=_seq_arg, required=True)
    p.add_argument("--p2", type=_seq_arg, required=True)
    p.add_argument("--ell", type=int, default=None)


def _tile_options(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--integral", action="store_true")
    p.add_argument("--cover", type=_fraction, default=None, metavar="ALPHA",
                   help="also cover by terminated paths, leftover at most ALPHA*n")


def _search_options(p: argparse.ArgumentParser) -> None:
    _add_common(p, seed=False)
    p.add_argument("--budget", type=int, default=oracle.SearchBudget().node_limit)


def _scan_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=_int_list, required=True, help="comma-separated n values")
    p.add_argument("--delta", type=_fraction_list, required=True, help="comma-separated p/q")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--budget", type=int, default=oracle.SearchBudget().node_limit)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)


def _pipeline_options(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--mode", choices=["constructive", "oracle", "auto"], default="auto")
    p.add_argument("--budget", type=int, default=oracle.SearchBudget().node_limit)
    p.add_argument("--relaxed", action="store_true",
                   help="accepted and ignored: the paper's degree hypotheses are never enforced")


_PROG = "hampow"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog=_PROG)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (summary, add_options, _) in _COMMANDS.items():
        add_options(sub.add_parser(command, help=summary))
    return ap


@functools.cache
def _command_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, with the prog, usage, help and errors
    that subcommand has in the full parser.  It depends on the subcommand
    alone, so a process that calls `main` many times builds it once."""
    _, add_options, _ = _COMMANDS[command]
    p = argparse.ArgumentParser(prog=f"{_PROG} {command}")
    add_options(p)
    return p


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """What `build_parser().parse_args(argv)` returns, parsing with only the
    parser of the subcommand `argv[0]` names.  Without a subcommand, or with
    arguments the subcommand leaves over, the full parser parses: its usage,
    printed with the error, lists every command."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        return build_parser().parse_args(argv)
    args, extras = _command_parser(command).parse_known_args(
        argv[1:], argparse.Namespace(command=command))
    if extras:
        return build_parser().parse_args(argv)
    return args


def cmd_gen(args) -> int:
    if args.extremal:
        if args.r is None:
            raise GraphValidationError("--extremal requires --r")
        g = gen_extremal(args.k, args.sizes, args.r)
    else:
        if args.delta is None:
            raise GraphValidationError("need --delta or --extremal")
        g = gen_random(args.k, args.sizes, args.delta, args.seed)
    if args.name:
        g = replace(g, name=args.name)
    _emit(args, save_graph(g))
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _read_graph(args)
    ok, reason, index = verify_ham_power_cycle_report(g, args.cycle, args.r)
    _emit(args, json.dumps({"ok": ok, "reason": reason, "index": index}))
    return EXIT_OK if ok else EXIT_STAGE


def cmd_sequence(args) -> int:
    g = _read_graph(args)
    cfg = _config(args)
    plan, report = sequencing.run_sequencing(reduce_parts(g, cfg.r), cfg)
    doc = {"plan": plan.to_json_dict(), "report": report.to_json_dict()}
    _emit(args, json.dumps(doc))
    return EXIT_OK


def cmd_absorber(args) -> int:
    template = absorber.build_gadget(args.r)
    _emit(args, json.dumps(template.to_json_dict()))
    return EXIT_OK


def cmd_connect(args) -> int:
    g = _read_graph(args)
    cfg = _config(args)
    r = args.r
    ell = args.ell if args.ell is not None else connect.default_connector_length(r)
    p1, p2 = args.p1, args.p2
    if r > g.k:
        raise GraphValidationError(f"connectors need r={r} parts but the host has k={g.k}")
    terminal = set(p1) | set(p2)
    u_sets = [[v for v in g.parts[i] if v not in terminal] for i in range(r)]
    total, _ = connect.count_connecting_walks(g, u_sets, p1, p2, ell, r)
    doc: dict = {"count": total, "connector": None}
    try:
        if total:
            doc["connector"] = connect.find_connector(g, u_sets, p1, p2, ell, cfg)
    except BudgetExhaustedError:
        raise  # inconclusive: not a proved none, so main exits 5
    except SearchExhaustedError:
        pass  # proved: no connecting walk is a path
    try:
        text = json.dumps(doc)
    except ValueError as exc:  # more digits than int-to-str conversion allows
        raise GraphValidationError(
            f"the exact count has more than {sys.get_int_max_str_digits()} digits"
            " and cannot be written"
        ) from exc
    _emit(args, text)
    return EXIT_OK


def cmd_tile(args) -> int:
    g = _read_graph(args)
    ft = tiling.fractional_tiling(g, args.r)
    doc: dict = {
        "optimum": str(ft.value),
        "perfect": ft.is_perfect,
        "dual": [str(y) for y in ft.dual],
        "tiling": ft.to_json_list(),
    }
    if args.integral:
        integral = tiling.perfect_tiling_bruteforce(g, args.r)
        doc["integral"] = [list(K) for K in integral] if integral else None
    if args.cover is not None:
        cover = tiling.cover_with_paths(g, args.r, args.cover, _config(args))
        doc["cover"] = cover.to_json_dict()
    _emit(args, json.dumps(doc))
    return EXIT_OK


def cmd_search(args) -> int:
    g = _read_graph(args)
    res = oracle.ham_power_cycle_exists(g, args.r, oracle.SearchBudget(args.budget))
    _emit(args, json.dumps(res.to_json_dict()))
    if res.answer == oracle.BUDGET_EXCEEDED:
        return EXIT_BUDGET
    return EXIT_OK


def _scan_cell(
    n: int, k: int, r: int, sizes: list[int], delta: Fraction, node_limit: int, seed: int
) -> list[str]:
    g = gen_random(k, sizes, delta, seed)
    measured = degree_profile(g).delta_p
    res = oracle.ham_power_cycle_exists(g, r, oracle.SearchBudget(node_limit))
    return [
        str(n),
        str(k),
        str(r),
        ",".join(map(str, sizes)),
        str(delta),
        str(measured),
        res.answer,
        str(res.nodes),
        str(seed),
    ]


def cmd_scan(args) -> int:
    """One row per (n, delta, sample), in that order: generate, measure, run
    the oracle.  The i-th row's host is generated with seed `--seed` + i.
    Each row holds the host's `degree_profile` minimum and the oracle's answer
    as they are returned: both are checked where they are computed."""
    if args.k < 1:
        raise GraphValidationError(f"a host needs at least one part, got k={args.k}")
    if args.samples < 0:
        raise GraphValidationError(f"sample count must be nonnegative, got {args.samples}")
    rows = []
    seed = args.seed
    for n in args.n:
        sizes = balanced_sizes(n, args.k)
        for delta in args.delta:
            for _ in range(args.samples):
                rows.append(_scan_cell(n, args.k, args.r, sizes, delta, args.budget, seed))
                seed += 1
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["n", "k", "r", "sizes", "target_delta", "measured_delta", "answer", "nodes", "seed"]
    )
    writer.writerows(rows)
    _emit(args, buf.getvalue())
    return EXIT_OK


def cmd_pipeline(args) -> int:
    g = _read_graph(args)
    cfg = _config(args)
    rep = pipeline.run_pipeline(
        g,
        cfg,
        mode=args.mode,
        budget=oracle.SearchBudget(args.budget),
    )
    _emit(args, json.dumps(rep.to_json_dict()))
    if rep.ok:
        return EXIT_OK
    if rep.budget_exceeded:
        return EXIT_BUDGET
    return EXIT_STAGE


# subcommand -> (its line in the top-level help, what defines its options, its handler)
_COMMANDS = {
    "gen": ("generate an instance", _gen_options, cmd_gen),
    "verify": ("check a spanning power-cycle", _verify_options, cmd_verify),
    "sequence": ("run the pipeline's reduction, then partition and sequence;"
                 " k is counted after the reduction", _add_common, cmd_sequence),
    "absorber": ("print the gadget routings", _absorber_options, cmd_absorber),
    "connect": ("count connecting walks and find one that is a path", _connect_options, cmd_connect),
    "tile": ("fractional (and optionally integral) tiling", _tile_options, cmd_tile),
    "search": ("exact spanning power-cycle search", _search_options, cmd_search),
    "scan": ("threshold scan over random instances", _scan_options, cmd_scan),
    "pipeline": ("end-to-end cycle construction", _pipeline_options, cmd_pipeline),
}


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        _, _, run = _COMMANDS[args.command]
        return run(args)
    except GraphFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GraphValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExhaustedError as exc:
        print(f"search budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except HampowError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
