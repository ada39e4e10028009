"""Fuzzed graph documents: every CLI run ends in a documented exit code, no
exception escapes `main`, and `load_graph` agrees with the reference loader."""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_outcome, reference_load_graph
from hampow.cli import main
from hampow.graphs import gen_random, load_graph

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
