"""The benchmark's tracer names functions of `hampow` and reads counts off
their return values.  These tests hold the package to that contract: every
traced name resolves, and every counter reads the return value the function
really gives on a small seeded host, including functions that no benchmark
workload calls."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import complete
from hampow.absorber import assemble_absorbing_path, find_absorbers
from hampow.connect import count_connecting_walks
from hampow.graphs import Config
from hampow.oracle import ham_power_cycle_exists, ham_power_path_between
from hampow.tiling import enumerate_cliques

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _resolve(name):
    home, attr = name.split(".")
    return getattr(importlib.import_module(f"hampow.{home}"), attr)


def test_every_traced_name_resolves_to_a_function(tracing):
    for name in tracing.TRACED:
        assert callable(_resolve(name)), name


def test_every_bound_in_module_binds_the_traced_function(tracing):
    for name, modules in tracing.BOUND_IN.items():
        original = _resolve(name)
        for module in modules:
            assert original in vars(importlib.import_module(module)).values(), (name, module)


# one real call per counted name, on small seeded hosts
_CALLS = {
    "connect.count_connecting_walks": lambda: count_connecting_walks(
        complete(3, [4, 4, 4]), [[1, 2], [5, 6], [9, 10]], (0, 4, 8), (3, 7, 11), 3, 3),
    "absorber.find_absorbers": lambda: find_absorbers(
        complete(3, [9, 9, 9]), (0, 9, 18), Config(3, seed=0)),
    "absorber.assemble_absorbing_path": lambda: assemble_absorbing_path(
        complete(3, [11, 11, 11]), (), Config(3, seed=7)),
    "tiling.enumerate_cliques": lambda: enumerate_cliques(complete(3, [2, 2, 2]), 3),
    "oracle.ham_power_cycle_exists": lambda: ham_power_cycle_exists(complete(3, [3, 3, 3]), 3),
    "oracle.ham_power_path_between": lambda: ham_power_path_between(
        complete(3, [4, 4, 4]), 3, (0, 4, 8), (0, 4, 8)),
}


def test_every_counter_reads_the_real_return_value(tracing):
    counted = {name for name, counter in tracing.TRACED.items() if counter is not None}
    assert counted == set(_CALLS)
    for name in sorted(counted):
        result = _CALLS[name]()
        count = tracing.TRACED[name](result)
        assert isinstance(count, int) and count > 0, (name, count)
        if name.startswith("oracle."):  # the tracer records oracle answers too
            assert result.answer == "yes", name
