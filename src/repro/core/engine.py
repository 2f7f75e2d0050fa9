"""The local data-flow execution engine.

"In the case where no local resource manager is available, the Triana
server component can itself be used to launch the application" — this is
that component's execution core.  The engine takes a (possibly grouped)
task graph, flattens it, instantiates one unit per task, and fires units
in topological order once per iteration, moving payloads along
connections.

It also provides:

* **external inputs** — a deployed group sub-graph has boundary input
  nodes fed from the network rather than from local connections; the
  engine accepts per-iteration values for them (:meth:`LocalEngine.step`);
* **probes** — observers attached to any output node (how Fig. 2's
  grapher output is captured programmatically);
* **checkpoint/restore** of all stateful units (migration support);
* **cost accounting** — modelled flops and bytes per task, reused by the
  simulated execution plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from .errors import GraphError, UnitError
from .taskgraph import TaskGraph
from .units import Unit

__all__ = ["Probe", "RunStats", "LocalEngine", "run_graph"]


@dataclass
class Probe:
    """Collects every payload seen on one task output node."""

    task: str
    node: int = 0
    values: list[Any] = field(default_factory=list)

    def __call__(self, value: Any) -> None:
        self.values.append(value)

    @property
    def last(self) -> Any:
        if not self.values:
            raise UnitError(f"probe {self.task}:{self.node} saw no data")
        return self.values[-1]


@dataclass
class RunStats:
    """Accounting for one engine run."""

    iterations: int = 0
    firings: int = 0
    modelled_flops: float = 0.0
    bytes_moved: int = 0
    per_task_flops: dict[str, float] = field(default_factory=dict)


def _payload_bytes(value: Any) -> int:
    return value.payload_nbytes() if hasattr(value, "payload_nbytes") else 8


class LocalEngine:
    """Executes a task graph in-process.

    Parameters
    ----------
    graph:
        The graph to execute; groups are flattened automatically.
    external_inputs:
        ``(task, node)`` pairs (flattened names) that will be fed from
        outside per iteration instead of by a local connection.
    """

    def __init__(
        self,
        graph: TaskGraph,
        external_inputs: Iterable[tuple[str, int]] = (),
    ):
        self.graph = graph.flattened()
        self.external = {(t, int(n)) for t, n in external_inputs}
        self.order = self.graph.topological_order()  # raises on cycles
        self._check_fedness()
        self.units: dict[str, Unit] = {
            name: task.instantiate() for name, task in self.graph.tasks.items()
        }
        self.probes: list[Probe] = []
        self.stats = RunStats()
        self._sink_outputs: dict[str, list[Any]] = {}
        # The firing plan, compiled once: the flattened graph is frozen
        # from here on.  One row per task in topological order; each
        # row's probe list is shared with attach_probe.
        self._probes_of: dict[str, list[Probe]] = {name: [] for name in self.order}
        plan = []
        for name in self.order:
            task = self.graph.task(name)
            fanout: dict[int, list[tuple[str, int]]] = {}
            for c in self.graph.out_connections(name):
                fanout.setdefault(c.src_node, []).append((c.dst, c.dst_node))
            outgoing = tuple((node, tuple(keys)) for node, keys in fanout.items())
            plan.append((
                name,
                self.units[name],
                task,
                task.num_outputs,
                tuple((name, node) for node in range(task.num_inputs)),
                outgoing,
                self._probes_of[name],
                not outgoing and task.num_inputs > 0,
            ))
        self._plan = tuple(plan)

    def _check_fedness(self) -> None:
        for t, n in self.external:
            if t not in self.graph.tasks:
                raise GraphError(f"external input names unknown task {t!r}")
            if not 0 <= n < self.graph.task(t).num_inputs:
                raise GraphError(f"external input {t}:{n} out of range")
        for name, task in self.graph.tasks.items():
            fed = {c.dst_node for c in self.graph.in_connections(name)}
            overlap = fed & {n for t, n in self.external if t == name}
            if overlap:
                raise GraphError(
                    f"input {name}:{sorted(overlap)} is both connected and external"
                )
            fed |= {n for t, n in self.external if t == name}
            missing = set(range(task.num_inputs)) - fed
            if fed and missing:
                raise GraphError(
                    f"task {name!r} has unconnected input nodes {sorted(missing)}"
                )

    # -- probes -------------------------------------------------------------
    def attach_probe(self, task: str, node: int = 0) -> Probe:
        """Observe the given output node; returns the collecting probe."""
        if task not in self.graph.tasks:
            # Accept unflattened names like "FFT" only if unambiguous.
            matches = [t for t in self.graph.tasks if t.endswith(f"/{task}") or t == task]
            if len(matches) != 1:
                raise GraphError(
                    f"probe target {task!r} not found in flattened graph "
                    f"(candidates: {matches})"
                )
            task = matches[0]
        t = self.graph.task(task)
        if not 0 <= node < t.num_outputs:
            raise GraphError(f"{task!r} has no output node {node}")
        probe = Probe(task, node)
        self.probes.append(probe)
        self._probes_of[task].append(probe)
        return probe

    # -- execution ------------------------------------------------------------
    def run(self, iterations: int = 1) -> dict[str, list[Any]]:
        """Run the graph ``iterations`` times (no external inputs).

        Returns a mapping of sink-task name to the list of payloads its
        *inputs* received on the final iteration — the natural "result" of
        a workflow whose sinks are display/output units.
        """
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        for _ in range(iterations):
            self.step()
        return dict(self._sink_outputs)

    def step(
        self, external: Optional[dict[tuple[str, int], Any]] = None
    ) -> dict[str, list[Any]]:
        """Run one iteration; returns every task's output payload list.

        ``external`` must supply a value for each declared external input.
        """
        if external is None:
            external = {}
        if external.keys() != self.external:
            self._reject_externals(external)
        # Every payload is sized once, when it enters ``pending``.
        pending: dict[tuple[str, int], tuple[Any, int]] = {
            key: (value, _payload_bytes(value)) for key, value in external.items()
        }
        outputs_map: dict[str, list[Any]] = {}
        self._sink_outputs = {}
        stats = self.stats
        per_task_flops = stats.per_task_flops
        for name, unit, task, num_outputs, in_keys, outgoing, probes, is_sink in self._plan:
            inputs = []
            in_bytes = 0
            for key in in_keys:
                try:
                    value, nbytes = pending.pop(key)
                except KeyError:
                    raise GraphError(
                        f"task {name!r} fired before input {key[1]} arrived; "
                        "graph is under-connected"
                    ) from None
                inputs.append(value)
                in_bytes += nbytes
            outputs = unit.process(inputs)
            if outputs is None:
                outputs = []
            if len(outputs) != num_outputs:
                raise UnitError(
                    f"unit {task.unit_name} returned {len(outputs)} outputs, "
                    f"declared {num_outputs}"
                )
            outputs_map[name] = list(outputs)
            stats.firings += 1
            flops = unit.estimated_flops(in_bytes)
            stats.modelled_flops += flops
            per_task_flops[name] = per_task_flops.get(name, 0.0) + flops
            for probe in probes:
                probe(outputs[probe.node])
            for src_node, dst_keys in outgoing:
                value = outputs[src_node]
                nbytes = _payload_bytes(value)
                for dst_key in dst_keys:
                    pending[dst_key] = (value, nbytes)
                    stats.bytes_moved += nbytes
            if is_sink:
                self._sink_outputs[name] = list(inputs)
        stats.iterations += 1
        return outputs_map

    def _reject_externals(self, external: dict[tuple[str, int], Any]) -> None:
        missing = self.external - set(external)
        if missing:
            raise GraphError(f"missing external inputs: {sorted(missing)}")
        unknown = set(external) - self.external
        raise GraphError(f"undeclared external inputs supplied: {sorted(unknown)}")

    # -- migration support -----------------------------------------------------
    def checkpoint(self) -> dict[str, dict[str, Any]]:
        """Snapshot state of every unit (empty dicts for stateless ones)."""
        return {name: unit.checkpoint() for name, unit in self.units.items()}

    def restore(self, state: dict[str, dict[str, Any]]) -> None:
        """Restore unit state saved by :meth:`checkpoint`."""
        unknown = set(state) - set(self.units)
        if unknown:
            raise GraphError(f"checkpoint references unknown tasks {sorted(unknown)}")
        for name, unit_state in state.items():
            self.units[name].restore(unit_state)

    def reset(self) -> None:
        """Reset all units and statistics for a fresh run."""
        for unit in self.units.values():
            unit.reset()
        for probe in self.probes:
            probe.values.clear()
        self.stats = RunStats()


def run_graph(
    graph: TaskGraph,
    iterations: int = 1,
    probes: Optional[list[tuple[str, int]]] = None,
    on_iteration: Optional[Callable[[int], None]] = None,
) -> tuple[dict[str, list[Any]], list[Probe]]:
    """Convenience one-shot runner returning (sink outputs, probes)."""
    engine = LocalEngine(graph)
    attached = [engine.attach_probe(t, n) for t, n in (probes or [])]
    if on_iteration is None:
        outputs = engine.run(iterations)
    else:
        outputs = {}
        for i in range(iterations):
            outputs = engine.run(1)
            on_iteration(i)
    return outputs, attached
