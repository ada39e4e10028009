"""Command-line surface: generators, verifiers, the sequencing pipeline, the
gadget printer, connector counting, tilings, exact search, and the threshold
scanner.

Exit codes: 0 success, 2 parse error, 3 validation error, 4 stage failure,
5 budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import absorber, connect, oracle, pipeline, sequencing, tiling
from .errors import GraphFormatError, GraphValidationError, HampowError, SearchExhaustedError
from .graphs import (
    Config,
    MultipartiteGraph,
    balanced_sizes,
    degree_profile,
    gen_extremal,
    gen_random,
    load_graph,
    save_graph,
)
from .paths import VertexSeq, verify_ham_power_cycle_report

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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
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


# Config constants a command may override; each subcommand defines only those
# its computation reads.
_CONSTANTS = ("gamma", "sigma", "beta", "nu")


def _config(args) -> Config:
    overrides = {}
    for name in _CONSTANTS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return Config.default(args.r, seed=args.seed, **overrides)


def _seq_arg(text: str) -> tuple[int, ...]:
    """A JSON array of ints, or ints separated by commas."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        try:
            data = _int_list(text)
        except ValueError:
            data = None
    if type(data) is not list or not set(map(type, data)) <= {int}:
        raise argparse.ArgumentTypeError(f"not a JSON int array or comma list: {text!r}")
    return tuple(data)


def _add_common(
    p: argparse.ArgumentParser, seed: bool = True, constants: tuple[str, ...] = ()
) -> None:
    """--graph, --r and --out, plus --seed and the Config constants for the
    commands whose computation reads them."""
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--r", type=int, required=True, help="power parameter")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    for name in constants:
        p.add_argument(f"--{name}", type=_fraction, default=None, help="rational p/q")
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


def _sequence_options(p: argparse.ArgumentParser) -> None:
    _add_common(p, constants=("gamma", "sigma", "beta"))
    p.add_argument("--relaxed", action="store_true")


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
    p.add_argument("--budget", type=int, default=2_000_000)


def _scan_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=_int_list, required=True, help="comma-separated n values")
    p.add_argument("--delta", type=_fraction_list, required=True, help="comma-separated p/q")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--out", default=None)


def _pipeline_options(p: argparse.ArgumentParser) -> None:
    _add_common(p, constants=_CONSTANTS)
    p.add_argument("--mode", choices=["constructive", "oracle", "auto"], default="auto")
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--relaxed", action="store_true")


# subcommand -> (its line in the top-level help, what defines its options)
_SUBCOMMANDS = {
    "gen": ("generate an instance", _gen_options),
    "verify": ("check a spanning power-cycle", _verify_options),
    "sequence": ("run the partition-and-sequence pipeline", _sequence_options),
    "absorber": ("print the gadget routings", _absorber_options),
    "connect": ("count and sample connecting walks", _connect_options),
    "tile": ("fractional (and optionally integral) tiling", _tile_options),
    "search": ("exact spanning power-cycle search", _search_options),
    "scan": ("threshold scan over random instances", _scan_options),
    "pipeline": ("end-to-end cycle construction", _pipeline_options),
}
_PROG = "hampow"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog=_PROG)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (summary, add_options) in _SUBCOMMANDS.items():
        add_options(sub.add_parser(command, help=summary))
    return ap


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """What `build_parser().parse_args(argv)` returns, building only the
    parser of the subcommand `argv[0]` names, with the prog, usage, help and
    errors that subcommand has in the full parser.  Without a subcommand, or
    with arguments the subcommand leaves over, the full parser parses: its
    usage, printed with the error, lists every command."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    if command not in _SUBCOMMANDS:
        return build_parser().parse_args(argv)
    _, add_options = _SUBCOMMANDS[command]
    p = argparse.ArgumentParser(prog=f"{_PROG} {command}")
    add_options(p)
    args, extras = p.parse_known_args(argv[1:], argparse.Namespace(command=command))
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
        g = MultipartiteGraph(g.parts, g.adj, args.name)
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
    order = sorted(range(g.k), key=lambda i: (-len(g.parts[i]), i))
    res = sequencing.run_sequencing(g.with_parts(order), cfg, relaxed=args.relaxed)
    doc = {"plan": res.plan.to_json_dict(), "report": res.report.to_json_dict()}
    _emit(args, json.dumps(doc))
    return EXIT_OK if res.report.ok else EXIT_STAGE


def cmd_absorber(args) -> int:
    template = absorber.build_gadget(args.r)
    _emit(args, json.dumps(template.to_json_dict()))
    return EXIT_OK


def cmd_connect(args) -> int:
    g = _read_graph(args)
    cfg = _config(args)
    r = args.r
    ell = args.ell if args.ell is not None else connect.default_connector_length(r)
    p1 = VertexSeq(args.p1, r)
    p2 = VertexSeq(args.p2, r)
    if r > g.k:
        raise GraphValidationError(f"connectors need r={r} parts but the host has k={g.k}")
    terminal = set(p1.vertices) | set(p2.vertices)
    u_sets = [[v for v in g.parts[i] if v not in terminal] for i in range(r)]
    total, table = connect.count_connecting_walks(g, u_sets, p1, p2, ell)
    doc: dict = {"count": total, "connector": None}
    if total:
        try:
            q = connect.sample_connector(g, table, p1, p2, terminal, cfg)
            doc["connector"] = q.to_json()
        except SearchExhaustedError:
            pass
    _emit(args, json.dumps(doc))
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


@dataclass(frozen=True)
class ScanRow:
    n: int
    k: int
    r: int
    sizes: tuple[int, ...]
    target_delta: Fraction
    measured_delta: Fraction
    answer: str
    nodes: int
    seed: int

    def __post_init__(self):
        if not 0 <= self.measured_delta <= 1:
            raise GraphValidationError("measured delta outside [0,1]")
        if self.answer not in (oracle.YES, oracle.NO, oracle.BUDGET_EXCEEDED):
            raise GraphValidationError(f"unknown answer {self.answer!r}")

    def to_csv(self) -> list[str]:
        return [
            str(self.n),
            str(self.k),
            str(self.r),
            ",".join(str(s) for s in self.sizes),
            str(self.target_delta),
            str(self.measured_delta),
            self.answer,
            str(self.nodes),
            str(self.seed),
        ]


def _scan_cell(task) -> list[str]:
    n, k, r, sizes, delta, node_limit, seed = task
    g = gen_random(k, sizes, delta, seed)
    measured = degree_profile(g).delta_p
    res = oracle.ham_power_cycle_exists(g, r, oracle.SearchBudget(node_limit))
    row = ScanRow(
        n=n,
        k=k,
        r=r,
        sizes=tuple(sizes),
        target_delta=delta,
        measured_delta=measured,
        answer=res.answer,
        nodes=res.nodes,
        seed=seed,
    )
    return row.to_csv()


def cmd_scan(args) -> int:
    """One row per (n, delta, sample): generate, measure, run the oracle.

    Cells are independent, so they fan out over worker processes with --jobs;
    rows are always emitted in cell order, byte-identical for a given seed.
    """
    if args.k < 1:
        raise GraphValidationError(f"a host needs at least one part, got k={args.k}")
    tasks = []
    counter = 0
    for n in args.n:
        sizes = balanced_sizes(n, args.k)
        for delta in args.delta:
            for _ in range(args.samples):
                tasks.append(
                    (n, args.k, args.r, sizes, delta, args.budget, args.seed + counter)
                )
                counter += 1
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_scan_cell, tasks))
    else:
        rows = [_scan_cell(t) for t in tasks]
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
        relaxed=args.relaxed,
        budget=oracle.SearchBudget(args.budget),
    )
    _emit(args, json.dumps(rep.to_json_dict()))
    if rep.ok:
        return EXIT_OK
    if rep.budget_exceeded:
        return EXIT_BUDGET
    return EXIT_STAGE


_COMMANDS = {
    "gen": cmd_gen,
    "verify": cmd_verify,
    "sequence": cmd_sequence,
    "absorber": cmd_absorber,
    "connect": cmd_connect,
    "tile": cmd_tile,
    "search": cmd_search,
    "scan": cmd_scan,
    "pipeline": cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except GraphFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GraphValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except HampowError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
