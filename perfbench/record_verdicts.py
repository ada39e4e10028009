"""Record the oracle's verdicts on the decide-threshold instances of some seeds.

    python3 perfbench/record_verdicts.py FIRST_SEED LAST_SEED

Run from the repository root.  Adds one entry per instance graph to
`perfbench/verdicts.json`, keyed like `checks.graph_key`.  The table is taken
at one commit and then kept: later commits must not flip a decided verdict
(`yes` <-> `no`); an instance exhausted here may become decided later.
"""

from __future__ import annotations

import json
import sys

import checks
from run import SRC, VERDICTS as TABLE, load_program, timed_call
from workloads import SEARCH_BUDGET, WORKLOADS, instances


def main(first: int, last: int) -> None:
    cli = load_program()
    from hampow.graphs import gen_random, save_graph

    workload = WORKLOADS["decide-threshold"]
    table = checks.load_verdicts(TABLE, SEARCH_BUDGET)
    scratch = SRC.parent / ".bench_build" / "perfbench" / "verdict-graph.json"
    scratch.parent.mkdir(parents=True, exist_ok=True)
    for seed in range(first, last + 1):
        for inst in instances(workload, seed):
            cell = inst.cell
            text = save_graph(gen_random(cell.k, list(cell.sizes), cell.edge_probability, inst.graph_seed))
            scratch.write_text(text)
            call = timed_call(cli, workload.argv(scratch, cell, inst.run_seed))
            table[checks.graph_key(text, cell.r)] = json.loads(call.out)["answer"]
        print(f"seed {seed}: {len(table)} verdicts", flush=True)
    scratch.unlink()
    doc = {"budget": SEARCH_BUDGET}
    for answer in ("yes", "no", "budget_exceeded"):
        doc[answer] = sorted(k for k, v in table.items() if v == answer)
    TABLE.write_text(json.dumps(doc, indent=0) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
