"""The benchmark's three workloads, built only from ``repro``'s public API.

Each workload turns a seed into inputs (snapshots, a chaos plan, a grid
seed), builds a :class:`repro.ConsumerGrid` from them, and knows how to
compute its reference digests with a fault-free simulated run.  Each one
puts most of its host time into a different group of layers:

* ``galaxy_render`` -- the SPH column-density kernel (``apps``);
* ``volunteer_chaos`` -- kernel, fabric, recovery and voting
  (``simkernel``, ``p2p``, ``service``, ``faults``, ``core``);
* ``tcp_loopback`` -- the same service code on real sockets through the
  canonical codec (``transport``).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro import ConsumerGrid, TaskGraph, chaos
from repro.apps.galaxy import build_galaxy_graph, generate_snapshots, register_dataset
from repro.p2p.network import DSL_PROFILE, LAN_PROFILE
from repro.transport.wire import result_checksum

__all__ = ["WORKLOADS", "chain_graph", "digests"]


def digests(report) -> list[str]:
    """One canonical SHA-256 per iteration of the run's group results."""
    return [result_checksum(outputs) for outputs in report.group_results]


def chain_graph(stages: int = 4, samples: int = 256, policy: str = "parallel") -> TaskGraph:
    """Fig. 4's LowPass/HighPass chain (``pipeline_graph``'s shape) as one
    group under ``policy``.

    The chain is deterministic, so every replica of an iteration returns
    the same digest and ``replicate-2`` voting never overturns an honest
    ballot.  (``fig1_grouped`` cannot be used under voting: its
    ``GaussianNoise`` differs per replica.)
    """
    g = TaskGraph(f"pipeline-{stages}")
    g.add_task("Source", "Wave", samples=samples)
    prev, names = "Source", []
    for i in range(stages):
        name = f"Stage{i}"
        if i % 2 == 0:
            g.add_task(name, "LowPass", cutoff=400.0 - i)
        else:
            g.add_task(name, "HighPass", cutoff=1.0 + i)
        g.connect(prev, 0, name, 0)
        prev = name
        names.append(name)
    g.add_task("Sink", "Grapher")
    g.connect(prev, 0, "Sink", 0)
    g.group_tasks("Chain", names, policy=policy)
    return g


class Workload:
    """One named workload: inputs from a seed, a grid, a graph, a reference."""

    name = ""
    iterations = 0
    verification = "none"
    #: True when the grid runs on the deterministic simulator, so the
    #: makespan must repeat exactly for a given seed.
    simulated = True
    #: Seeded input cases per run (``case`` argument of :meth:`inputs`).
    cases = 1

    def inputs(self, seed: int, case: int = 0) -> dict[str, Any]:
        raise NotImplementedError

    def build(self, inputs: dict[str, Any], trace: bool = False) -> ConsumerGrid:
        raise NotImplementedError

    def graph(self, inputs: dict[str, Any]) -> TaskGraph:
        raise NotImplementedError

    def reference(self, inputs: dict[str, Any]) -> list[str]:
        """Per-iteration digests from a fault-free simulated run."""
        raise NotImplementedError

    def run(self, grid: ConsumerGrid, graph: TaskGraph):
        return grid.run(graph, iterations=self.iterations, verification=self.verification)

    def close(self, grid: ConsumerGrid) -> None:
        """Release what the grid holds beyond the heap (sockets, loops)."""


class GalaxyRender(Workload):
    """Case-1 galaxy render farm: 8 frames of ~8000 particles at 64x64
    on 8 LAN workers with link contention.  The SPH kernel dominates."""

    name = "galaxy_render"
    iterations = 8
    particles = 8000
    resolution = 64
    key = "perfbench-galaxy"

    def inputs(self, seed, case=0):
        # The particle count is drawn from the seed (8000..8063) so the
        # payload sizes, and with them the simulated makespan, differ by
        # seed while the host work stays within one percent.
        n = self.particles + int(np.random.default_rng([seed, 1]).integers(64))
        return {
            "snapshots": generate_snapshots(self.iterations, n, seed=seed),
            "particles": n,
            "grid_seed": seed,
        }

    def _grid(self, inputs, **kwargs) -> ConsumerGrid:
        register_dataset(self.key, inputs["snapshots"])
        return ConsumerGrid(
            seed=inputs["grid_seed"],
            worker_profile=LAN_PROFILE,
            controller_profile=LAN_PROFILE,
            worker_efficiency=1e-4,
            **kwargs,
        )

    def build(self, inputs, trace=False):
        return self._grid(inputs, n_workers=8, contention=True, trace=trace)

    def graph(self, inputs):
        return build_galaxy_graph(self.key, resolution=self.resolution)

    def reference(self, inputs):
        grid = self._grid(inputs, n_workers=1)
        return digests(grid.run(self.graph(inputs), iterations=self.iterations))


class VolunteerChaos(Workload):
    """The filter chain on 64 DSL volunteers under moderate chaos with
    replicate-2 voting and replicated module distribution.  Compute is
    tiny; the kernel, fabric, recovery and voting do the work."""

    name = "volunteer_chaos"
    iterations = 1000
    workers = 64
    verification = "replicate-2"
    # One plan's makespan is set by its unluckiest iteration and comes in
    # retry-timeout steps: over 237 plans it ran from 78 to 413 sim s
    # (deciles 104..188).  A run covers 24 plans drawn from its seed and
    # reports their mean, which spread 11% (quartiles over median) across
    # seeds 1-10.
    cases = 24

    def inputs(self, seed, case=0):
        ids = [f"worker-{i}" for i in range(self.workers)]
        case_seed = seed * 1000 + case
        return {
            "plan": chaos("moderate", seed=case_seed, workers=ids, start=5.0, horizon=60.0),
            "grid_seed": case_seed,
        }

    def build(self, inputs, trace=False):
        return ConsumerGrid(
            n_workers=self.workers,
            seed=inputs["grid_seed"],
            worker_profile=DSL_PROFILE,
            controller_profile=LAN_PROFILE,
            worker_efficiency=1e-4,
            fault_plan=inputs["plan"],
            heartbeat_interval=5.0,
            # With the default 900 s, one lost frame stretches the
            # makespan to 900-1800 sim s of simulated heartbeats.
            retry_timeout=60.0,
            retry_interval=20.0,
            module_replicas=2,
            module_chunk_bytes=16 * 1024,
            trace=trace,
        )

    def graph(self, inputs):
        return chain_graph()

    def reference(self, inputs):
        grid = ConsumerGrid(n_workers=4, seed=inputs["grid_seed"])
        return digests(grid.run(self.graph(inputs), iterations=self.iterations))


class TcpLoopback(Workload):
    """The same chain without chaos on 2 workers over real loopback
    sockets (one process, one asyncio loop, one listening socket, one
    pooled link).  The TCP transport rejects chaos knobs."""

    name = "tcp_loopback"
    iterations = 1500
    workers = 2
    simulated = False

    def inputs(self, seed, case=0):
        return {"grid_seed": seed}

    def build(self, inputs, trace=False):
        return ConsumerGrid(
            n_workers=self.workers,
            seed=inputs["grid_seed"],
            transport="tcp",
            query_window=0.2,
            trace=trace,
        )

    def graph(self, inputs):
        return chain_graph()

    def reference(self, inputs):
        # The sim twin: same grid shape and graph on the simulated fabric.
        grid = ConsumerGrid(n_workers=self.workers, seed=inputs["grid_seed"])
        return digests(grid.run(self.graph(inputs), iterations=self.iterations))

    def close(self, grid):
        grid.transport.close()


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (GalaxyRender(), VolunteerChaos(), TcpLoopback())
}
