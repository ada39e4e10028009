"""Fuzzed graph documents and argument lists: every CLI run ends in a
documented exit code, no exception escapes `main`, `load_graph` agrees with the
reference loader, and parsing with one subcommand's parser does what the full
parser does."""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_outcome, reference_load_graph
from hampow import cli
from hampow.cli import build_parser, main
from hampow.graphs import gen_random, load_graph, save_graph

DOCUMENTED = {0, 2, 3, 4, 5}

SCALARS = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3), st.integers(-3, 15),
)


@st.composite
def documents(draw) -> str:
    """A small valid host (n <= 12) as JSON text, then one of: no change, a
    mistyped field, a bool id, a wrong `k`, a dangling id, or a cut text."""
    k = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    density = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]))
    g = gen_random(k, sizes, density, draw(st.integers(0, 9)))
    doc = g.to_json_dict()
    if draw(st.booleans()):
        doc["name"] = draw(st.sampled_from(["h", "a-b", "true"]))
    n = g.n
    kind = draw(st.sampled_from(
        ["valid", "mistyped", "bool id", "wrong k", "dangling", "truncated"]))
    if kind == "mistyped":
        field = draw(st.sampled_from(["k", "parts", "edges", "name"]))
        doc[field] = draw(st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                                    st.lists(st.lists(SCALARS, max_size=3), max_size=3)))
    elif kind == "bool id":
        rows = [row for row in doc["parts"] + doc["edges"] if row]
        if rows:
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(0, len(row) - 1))] = draw(st.booleans())
    elif kind == "wrong k":
        doc["k"] = k + draw(st.sampled_from([-2, -1, 1, 2]))
    elif kind == "dangling":
        bad = draw(st.sampled_from([n, n + 5, -1, -n - 1]))
        doc["edges"].insert(draw(st.integers(0, len(doc["edges"]))), [0, bad])
    text = json.dumps(doc)
    if kind == "truncated":
        text = text[: draw(st.integers(0, max(0, len(text) - 1)))]
    return text


@settings(max_examples=80, deadline=None)
@given(documents(), st.integers(2, 3))
def test_fuzzed_documents_end_in_documented_exit_codes(text, r):
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "g.json"
        graph.write_text(text, encoding="utf-8")
        out = str(Path(tmp) / "out.json")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc_verify = main(["verify", "--graph", str(graph), "--r", str(r),
                              "--cycle", "[0,1,2,3]", "--out", out])
            rc_pipeline = main(["pipeline", "--mode", "constructive", "--graph", str(graph),
                                "--r", str(r), "--out", out])
    assert rc_verify in DOCUMENTED
    assert rc_pipeline in DOCUMENTED
    assert "Traceback" not in err.getvalue()


@settings(max_examples=150, deadline=None)
@given(documents())
def test_fuzzed_documents_load_as_the_reference_loads(text):
    assert build_outcome(lambda: load_graph(text)) == \
        build_outcome(lambda: reference_load_graph(text))


# A valid argument list for each subcommand on the K_{4,4} host, as (option,
# value) pairs; None is a flag.  Every run stays tiny: small hosts, n and
# budgets, and never more than one worker process.
def _valid_options(graph: str) -> dict[str, list[tuple[str, str | None]]]:
    common = [("--graph", graph), ("--r", "2")]
    return {
        "gen": [("--k", "3"), ("--sizes", "2,2,2"), ("--delta", "1/2"), ("--extremal", None),
                ("--r", "2"), ("--seed", "1"), ("--name", "h")],
        "verify": [*common, ("--cycle", "[0,4,1,5,2,6,3,7]")],
        "sequence": [*common, ("--seed", "1"), ("--gamma", "1/4"), ("--sigma", "1/13"),
                     ("--beta", "1/104"), ("--relaxed", None)],
        "absorber": [("--r", "2")],
        "connect": [*common, ("--p1", "[0,4]"), ("--p2", "[1,5]"), ("--ell", "2"),
                    ("--seed", "1")],
        "tile": [*common, ("--integral", None), ("--cover", "0"), ("--seed", "1")],
        "search": [*common, ("--budget", "300")],
        "scan": [("--r", "2"), ("--k", "2"), ("--n", "4"), ("--delta", "1,1/2"),
                 ("--samples", "1"), ("--budget", "300"), ("--seed", "1"), ("--jobs", "1")],
        "pipeline": [*common, ("--mode", "auto"), ("--budget", "300"), ("--seed", "1"),
                     ("--nu", "1/13"), ("--relaxed", None)],
    }


OTHER_VALUES = ["0", "1", "3", "-1", "x", "", "1/0", "2/3", "[0,1]", "0,1"]
JOBS_VALUES = ["1", "0", "-1", "x"]  # never more than one worker
STRAY = ["--bogus", "-x", "extra", "--", "--gra", "--r=2", "-h", "--help"]
NO_COMMAND = [[], ["--help"], ["-h"], ["bogus"], ["Pipeline"], ["--r", "2"], ["-h", "pipeline"],
              ["--bogus", "gen"]]


@st.composite
def argvs(draw, graph: str) -> list[str]:
    """No command, an unknown one or --help; or a subcommand whose options are
    each kept, dropped, given another value, left without a value or
    repeated, in any order, with stray tokens put in."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(NO_COMMAND))
    command = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    chunks = []
    for option, value in _valid_options(graph)[command]:
        fate = draw(st.sampled_from(["keep"] * 12 + ["drop", "other", "bare", "repeat"]))
        if fate == "drop":
            continue
        if fate == "other" and value is not None:
            value = draw(st.sampled_from(JOBS_VALUES if option == "--jobs" else OTHER_VALUES))
        chunk = [option] if value is None or fate == "bare" else [option, value]
        chunks.append(chunk)
        if fate == "repeat":
            chunks.append(chunk)
    chunks = draw(st.permutations(chunks))
    if draw(st.integers(0, 2)) == 0:
        chunks.insert(draw(st.integers(0, len(chunks))), [draw(st.sampled_from(STRAY))])
    return [command, *(token for chunk in chunks for token in chunk)]


def _run(argv: list[str]) -> tuple[tuple[str, object], str, str]:
    """(how main ended, stdout, stderr) for one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            end = ("return", main(argv))
        except SystemExit as exc:  # argparse: usage error or --help
            end = ("exit", exc.code)
    return end, out.getvalue(), err.getvalue()


def _full_parser_parse(argv):
    return build_parser().parse_args(argv)


@pytest.fixture(scope="module")
def k44(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("argv") / "g.json"
    path.write_text(save_graph(gen_random(2, [4, 4], Fraction(1), 0)), encoding="utf-8")
    return str(path)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_parses_as_the_full_parser_parses(k44, data):
    """`main` builds one subcommand's parser; stdout, stderr and the exit are
    those of a run parsed by the full parser, and the exit is documented."""
    argv = data.draw(argvs(k44), label="argv")
    got = _run(argv)
    with mock.patch.object(cli, "_parse_args", _full_parser_parse):
        want = _run(argv)
    assert got == want
    end, _, err = got
    assert end in {("exit", 0), ("exit", 2)} or (end[0] == "return" and end[1] in DOCUMENTED)
    assert "Traceback" not in err
