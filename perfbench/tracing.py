"""Spans recorded from outside the program, around each layer's public functions.

`Tracer.installed()` rebinds every module attribute of the `hampow` package that
holds a traced function, so a caller that did `from .x import f` goes through
the wrapper too, and restores every attribute on exit.  Spans stay in memory
until the run writes them out as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns

# span name -> how to read a count off the return value
TRACED: dict[str, object] = {
    "cli.main": None,
    "graphs.load_graph": None,
    "graphs.reduce_parts": None,
    "graphs.induced_subgraph": None,
    "graphs.degree_profile": None,
    "paths.verify_ham_power_cycle_report": None,
    "pipeline.run_pipeline": None,
    "pipeline.constructive_ham_path_between": None,
    "sequencing.run_sequencing": None,
    "sequencing.compute_trim_template": None,
    "sequencing.build_trim_path": None,
    "sequencing.refine_partition": None,
    "sequencing.build_connectors_and_p0": None,
    "sequencing.verify_plan": None,
    "connect.count_connecting_walks": lambda res: sum(len(layer) for layer in res[1].layers),
    "connect.find_connector": None,
    "absorber.find_absorbers": len,
    "absorber.assemble_absorbing_path": lambda res: len(res.gadgets),
    "absorber.absorb": None,
    "tiling.enumerate_cliques": len,
    "tiling.fractional_tiling": None,
    "tiling.perfect_tiling_bruteforce": None,
    "tiling.cover_with_paths": None,
    "oracle.ham_power_cycle_exists": lambda res: res.nodes,
    "oracle.ham_power_path_between": lambda res: res.nodes,
}
# Traced only where these modules call them: `paths.verify_s` is the pipeline's
# final check, not the oracle's re-check of its own witness.
BOUND_IN = {"paths.verify_ham_power_cycle_report": ("hampow.pipeline",)}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    instance: int | None
    start_ns: int
    end_ns: int = 0
    error: str | None = None  # exception type that left the call
    count: int | None = None  # read off the return value, see TRACED
    answer: str | None = None  # oracle answers

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class Tracer:
    package: str = "hampow"
    spans: list[Span] = field(default_factory=list)
    instance: int | None = None
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn):
        counter = TRACED[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                        self.instance, perf_counter_ns())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end_ns = perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                span.count = counter(result)
            if name.startswith("oracle."):
                span.answer = result.answer
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every binding of every traced function; restore them all after."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        saved: list[tuple[object, str, object]] = []
        try:
            for name in TRACED:
                home, attr = name.split(".")
                original = getattr(importlib.import_module(f"{self.package}.{home}"), attr)
                wrapper = self.wrap(name, original)
                for module in modules:
                    if name in BOUND_IN and module.__name__ not in BOUND_IN[name]:
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, original in reversed(saved):
                setattr(module, key, original)

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the time its direct children cover."""
        own = [s.ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.ns
        return own

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, separators=(",", ":")) + "\n")


def layer_metrics(tracer: Tracer, factor: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-layer totals of one traced pass: self seconds, counts and ratios.
    Seconds are divided by `factor`, the pass's host factor (`calibrate.py`)."""
    own = tracer.self_ns()
    spans = tracer.spans

    def of(name):
        return [s for s in spans if s.name == name]

    def secs(*names):
        return sum(own[s.id] for s in spans if s.name in names) / 1e9 / factor

    def calls(name):
        return len(of(name))

    def failures(name, error=None):
        return sum(1 for s in of(name) if s.error and (error is None or s.error == error))

    def total(name, under=None):
        return sum(s.count or 0 for s in of(name)
                   if under is None or (s.parent is not None and spans[s.parent].name == under))

    def ratio(a, b):
        return a / b if b else 0.0

    oracle = ("oracle.ham_power_cycle_exists", "oracle.ham_power_path_between")
    oracle_spans = [s for s in spans if s.name in oracle]
    embeds = of("absorber.find_absorbers")
    constructive = calls("pipeline.constructive_ham_path_between")
    constructive_ok = constructive - failures("pipeline.constructive_ham_path_between")
    m = {
        "tiling.lp_s": (secs("tiling.fractional_tiling"), "s"),
        "tiling.lp_calls": (calls("tiling.fractional_tiling"), "count"),
        "tiling.lp_columns": (total("tiling.enumerate_cliques", under="tiling.fractional_tiling"), "count"),
        "tiling.cliques_s": (secs("tiling.enumerate_cliques"), "s"),
        "tiling.cliques_enumerated": (total("tiling.enumerate_cliques"), "count"),
        "tiling.cover_s": (secs("tiling.cover_with_paths"), "s"),
        "tiling.cover_failures": (failures("tiling.cover_with_paths"), "count"),
        "tiling.exact_cover_s": (secs("tiling.perfect_tiling_bruteforce"), "s"),
        "absorber.assemble_s": (secs("absorber.assemble_absorbing_path"), "s"),
        "absorber.embed_s": (secs("absorber.find_absorbers"), "s"),
        "absorber.embed_calls": (len(embeds), "count"),
        "absorber.embed_yield": (ratio(sum(1 for s in embeds if s.count), len(embeds)), "fraction"),
        "absorber.gadgets_kept": (total("absorber.assemble_absorbing_path"), "count"),
        "absorber.coverage_failures": (
            failures("absorber.assemble_absorbing_path", "CoverageError")
            + failures("absorber.absorb", "CoverageError"), "count"),
        "absorber.absorb_s": (secs("absorber.absorb"), "s"),
        "connect.calls": (calls("connect.find_connector"), "count"),
        "connect.failures": (failures("connect.find_connector"), "count"),
        "connect.dp_s": (secs("connect.count_connecting_walks"), "s"),
        "connect.dp_states": (total("connect.count_connecting_walks"), "count"),
        "connect.sample_s": (secs("connect.find_connector"), "s"),
        "pipeline.self_s": (secs("pipeline.run_pipeline"), "s"),
        "pipeline.constructive_calls": (constructive, "count"),
        "pipeline.constructive_ok": (constructive_ok, "count"),
        "pipeline.constructive_yield": (ratio(constructive_ok, constructive), "fraction"),
        "pipeline.constructive_self_s": (secs("pipeline.constructive_ham_path_between"), "s"),
        "sequencing.run_calls": (calls("sequencing.run_sequencing"), "count"),
        "sequencing.run_failures": (failures("sequencing.run_sequencing"), "count"),
        "sequencing.run_s": (secs("sequencing.run_sequencing"), "s"),
        "sequencing.trim_s": (secs("sequencing.compute_trim_template", "sequencing.build_trim_path"), "s"),
        "sequencing.refine_s": (secs("sequencing.refine_partition"), "s"),
        "sequencing.refine_calls": (calls("sequencing.refine_partition"), "count"),
        "sequencing.connectors_s": (secs("sequencing.build_connectors_and_p0"), "s"),
        "sequencing.connector_failures": (failures("sequencing.build_connectors_and_p0"), "count"),
        "sequencing.verify_plan_s": (secs("sequencing.verify_plan"), "s"),
        "oracle.cycle_s": (secs(oracle[0]), "s"),
        "oracle.path_s": (secs(oracle[1]), "s"),
        "oracle.calls": (len(oracle_spans), "count"),
        "oracle.nodes": (total(oracle[0]) + total(oracle[1]), "count"),
        "oracle.budget_exhausted": (sum(1 for s in oracle_spans if s.answer == "budget_exceeded"), "count"),
        "oracle.answer_no": (sum(1 for s in oracle_spans if s.answer == "no"), "count"),
        "graphs.load_s": (secs("graphs.load_graph"), "s"),
        "graphs.reduce_s": (secs("graphs.reduce_parts"), "s"),
        "graphs.induced_s": (secs("graphs.induced_subgraph"), "s"),
        "graphs.induced_calls": (calls("graphs.induced_subgraph"), "count"),
        "graphs.degree_profile_s": (secs("graphs.degree_profile"), "s"),
        "paths.verify_s": (secs("paths.verify_ham_power_cycle_report"), "s"),
        "cli.self_s": (secs("cli.main"), "s"),
    }
    oracle_s = m["oracle.cycle_s"][0] + m["oracle.path_s"][0]
    m["oracle.nodes_per_s"] = (ratio(m["oracle.nodes"][0], oracle_s), "1/s")
    return m


def self_by_name(tracer: Tracer, instances=None) -> dict[str, float]:
    """Self seconds per span name, largest first, optionally for some instances."""
    own = tracer.self_ns()
    out: dict[str, float] = {}
    for s in tracer.spans:
        if instances is None or s.instance in instances:
            out[s.name] = out.get(s.name, 0.0) + own[s.id] / 1e9
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
