#!/usr/bin/env python
"""Local-engine microbenchmark: µs per iteration and per firing.

Times :meth:`repro.core.LocalEngine.step` on two graphs — the
benchmark's filter chain (``perfbench/workloads.py::chain_graph``:
Wave → 4 × LowPass/HighPass → Grapher) and the Case-1 galaxy graph
(:func:`repro.apps.galaxy.build_galaxy_graph`) — next to

* ``reference_step``, the uncompiled loop the engine tests hold it to
  (``tests/test_core_engine.py``), and
* the bare chain of ``unit.process`` calls with the wiring resolved up
  front and no accounting at all — the floor any engine pays.

``overhead_us_per_firing`` is ``(step - bare) / tasks``: what the
engine adds around each unit body.  Each figure is the best of
``--repeat`` timed loops of ``--number`` iterations; every round times
every (graph, loop) cell once, so a slow spell of a shared host does not
land on a single row.  Results are printed as a table and written as
JSON (default ``benchmarks/results/MICROBENCH_engine.json``) for the CI
artifact upload.  Wall-clock numbers are **ungated**: machine speed must
never fail CI.

Usage::

    PYTHONPATH=src python benchmarks/microbench_engine.py
    PYTHONPATH=src python benchmarks/microbench_engine.py --number 200 --repeat 5
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import timeit

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "perfbench")]

from repro.apps.galaxy import (  # noqa: E402
    build_galaxy_graph,
    generate_snapshots,
    register_dataset,
)
from repro.core import LocalEngine  # noqa: E402
from tests.test_core_engine import reference_step  # noqa: E402
from workloads import chain_graph  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
COLUMNS = ("step_us", "reference_step_us", "bare_us")


def bare_loop(engine: LocalEngine):
    """One iteration as bare ``unit.process`` calls on ``engine``'s units."""
    graph = engine.graph
    plan = [
        (
            engine.units[name],
            [(name, node) for node in range(graph.task(name).num_inputs)],
            [(c.src_node, (c.dst, c.dst_node)) for c in graph.out_connections(name)],
        )
        for name in engine.order
    ]

    def iterate():
        pending = {}
        for unit, in_keys, outgoing in plan:
            outputs = unit.process([pending.pop(key) for key in in_keys])
            for node, key in outgoing:
                pending[key] = outputs[node]

    return iterate


def graphs(particles: int, iterations: int):
    """The two graphs; the galaxy reader gets ``iterations`` frames to
    read (eight snapshots, repeated)."""
    frames = generate_snapshots(n_frames=8, n_particles=particles, seed=0)
    register_dataset("microbench-galaxy", frames * (iterations // 8 + 1))
    return {
        "chain": chain_graph(),
        "galaxy": build_galaxy_graph("microbench-galaxy"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, default=400,
                        help="iterations per timed loop (default 400)")
    parser.add_argument("--repeat", type=int, default=9,
                        help="timed loops per figure; the best is kept (default 9)")
    parser.add_argument("--particles", type=int, default=500,
                        help="particles per galaxy snapshot (default 500)")
    parser.add_argument("--out", default=str(RESULTS_DIR / "MICROBENCH_engine.json"),
                        help="output JSON path")
    args = parser.parse_args(argv)

    timers = {}
    tasks = {}
    for name, graph in graphs(args.particles, args.number).items():
        # One engine per loop, reset before each timed loop: the units
        # are stateful (the reader's cursor, the sinks' frame lists).
        fast, slow, bare = LocalEngine(graph), LocalEngine(graph), LocalEngine(graph)
        tasks[name] = len(fast.order)
        calls = (
            (fast, fast.step),
            (slow, lambda slow=slow: reference_step(slow)),
            (bare, bare_loop(bare)),
        )
        for column, (engine, fn) in zip(COLUMNS, calls):
            timers[name, column] = timeit.Timer(fn, setup=engine.reset)
    best = dict.fromkeys(timers, float("inf"))
    for _ in range(args.repeat):
        for cell, timer in timers.items():
            best[cell] = min(best[cell], timer.timeit(args.number) / args.number * 1e6)

    rows = {}
    print(f"engine microbench (best of {args.repeat} x {args.number} iterations, us)")
    print(f"{'graph':8s} {'tasks':>5s} {'step':>9s} {'reference':>9s} {'bare':>9s} "
          f"{'us/firing':>9s} {'overhead':>9s}")
    for name, n in tasks.items():
        row = {column: best[name, column] for column in COLUMNS}
        row["us_per_firing"] = row["step_us"] / n
        row["overhead_us_per_firing"] = (row["step_us"] - row["bare_us"]) / n
        row["reference_overhead_us_per_firing"] = (
            row["reference_step_us"] - row["bare_us"]) / n
        rows[name] = {"tasks": n, **{k: round(v, 2) for k, v in row.items()}}
        print(f"{name:8s} {n:>5d} {row['step_us']:>9.1f} {row['reference_step_us']:>9.1f} "
              f"{row['bare_us']:>9.1f} {row['us_per_firing']:>9.2f} "
              f"{row['overhead_us_per_firing']:>9.2f}")

    result = {"schema": 1, "number": args.number, "repeat": args.repeat,
              "particles": args.particles, "graphs": rows}
    out = pathlib.Path(args.out)
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"[saved to {out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
