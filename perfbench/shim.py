"""Layer shim: wrap each layer's entry points with an in-memory span recorder.

The benchmark's traced repetition installs a :class:`LayerShim` before it
builds the grid and removes it afterwards.  Every wrapped call records a
span (name, start, end, parent) in flat arrays; nothing inside ``src/``
changes and the program never sees the recorder.

Self time of a span is its duration minus the time its child spans
cover.  Summing self time per *group* (``simkernel``, ``service.worker``,
``core.units`` ...) attributes every host second of the traced
``grid.run`` to one layer.  Service process bodies are generators that
the kernel resumes, so the time they spend outside any wrapped call
lands in the self time of ``Simulator.step`` (``simkernel``); the report
states that share instead of hiding it.

Only plain functions are wrapped: a wrapper around a generator or
coroutine function would time its creation, not its work.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from importlib import import_module
from typing import Callable, Optional

#: The nine measured layers (packages of ``repro``), in report order.
LAYERS = (
    "simkernel", "p2p", "transport", "service", "mobility",
    "core", "apps", "faults", "observe",
)

#: Span group of the benchmark's own root span around ``grid.run``.
ROOT_GROUP = "grid"

#: Cheap accessors (``is_online`` runs ~10^5 times per run) and sampler
#: hooks left unwrapped: the recorder's own cost would swamp their work,
#: so their time stays with the caller.
_SKIP = frozenset({"is_online", "profile", "rng", "_now", "telemetry_sample"})

# (group, target).  A target is ``module:function`` (rebound in every
# ``repro`` module that imported it), ``module:Class.method``, or
# ``module:Class.*`` for every plain method defined on the class;
# ``module:Class.*+`` also covers every subclass.
TARGETS: tuple[tuple[str, str], ...] = (
    # simkernel: the event loop and the primitives processes call into.
    ("simkernel", "repro.simkernel.sim:Simulator.run"),
    ("simkernel", "repro.simkernel.sim:Simulator.step"),
    ("simkernel", "repro.simkernel.sim:Simulator.event"),
    ("simkernel", "repro.simkernel.sim:Simulator.timeout"),
    ("simkernel", "repro.simkernel.sim:Simulator.process"),
    ("simkernel", "repro.simkernel.sim:Simulator.call_at"),
    ("simkernel", "repro.simkernel.sim:Simulator.any_of"),
    ("simkernel", "repro.simkernel.sim:Simulator.all_of"),
    ("simkernel", "repro.simkernel.sim:Event.succeed"),
    ("simkernel", "repro.simkernel.sim:Event.fail"),
    ("simkernel", "repro.simkernel.queues:Store.*"),
    # The wall-clock kernel inlines step() into _tick().
    ("simkernel", "repro.transport.runtime:RealtimeSimulator._tick"),
    # p2p: the simulated fabric, peers and discovery.
    ("p2p", "repro.p2p.network:SimNetwork.send"),
    ("p2p", "repro.p2p.network:SimNetwork.broadcast"),
    ("p2p", "repro.p2p.network:SimNetwork.set_online"),
    ("p2p", "repro.p2p.network:SimNetwork.partition"),
    ("p2p", "repro.p2p.network:SimNetwork.heal"),
    ("p2p", "repro.p2p.network:SimNetwork.transfer_time"),
    ("p2p", "repro.p2p.peer:Peer.send"),
    ("p2p", "repro.p2p.peer:Peer._dispatch"),
    ("p2p", "repro.p2p.discovery:DiscoveryService.*+"),
    ("p2p", "repro.p2p.pipes:PipeManager.*"),
    ("p2p", "repro.p2p.pipes:OutputPipe.send"),
    # transport: the canonical codec and the TCP backend.
    ("transport.encode", "repro.transport.wire:encode_message"),
    ("transport.decode", "repro.transport.wire:decode_message"),
    ("transport.io", "repro.transport.tcp:TcpTransport.pump"),
    ("transport.other", "repro.transport.tcp:TcpTransport.send"),
    ("transport.other", "repro.transport.tcp:TcpTransport._on_frame"),
    ("transport.other", "repro.transport.tcp:TcpTransport._dispatch"),
    # service: controller, distribution policies, detector, integrity,
    # worker daemons.
    ("service.controller", "repro.service.controller:TrianaController.*"),
    ("service.controller", "repro.service.deploy:DeploymentManager.*"),
    ("service.controller", "repro.service.partition:StageRouter.*"),
    ("service.controller", "repro.service.partition:partition_stages"),
    ("service.policy", "repro.service.policies.base:DistributionPolicy.*+"),
    ("service.policy", "repro.service.policies.base:DispatchContext.*"),
    ("service.policy", "repro.service.placement:DispatchPolicy.*+"),
    ("service.detector", "repro.service.detector:HeartbeatFailureDetector.*"),
    ("service.integrity", "repro.service.integrity:VerificationStrategy.*+"),
    ("service.integrity", "repro.service.integrity:ReputationLedger.*"),
    ("service.integrity", "repro.service.integrity:canonical_digest"),
    ("service.worker", "repro.service.worker:TrianaService.*"),
    # mobility: module caches, the repository, the sandbox.
    ("mobility", "repro.mobility.cache:ModuleCache.*"),
    ("mobility", "repro.mobility.repository:ModuleRepository.*"),
    ("mobility", "repro.mobility.repository:send_package"),
    ("mobility", "repro.mobility.sandbox:SandboxPolicy.*"),
    # core: the local engine and graph (de)serialisation; unit bodies
    # are added per class by _unit_targets().
    ("core.engine", "repro.core.engine:LocalEngine.*"),
    ("core.engine", "repro.core.xml_io:graph_to_string"),
    ("core.engine", "repro.core.xml_io:graph_from_string"),
    # apps: the SPH kernel.
    ("apps.sph", "repro.apps.galaxy:sph_column_density"),
    # faults: the injector and compute-fault models.
    ("faults", "repro.faults.injector:FaultInjector.*"),
    ("faults", "repro.faults.compute:ComputeFaultModel.*"),
    # observe: the recording tracer and its metrics.
    ("observe", "repro.observe.tracer:Tracer.*"),
    ("observe", "repro.observe.tracer:SpanHandle.*"),
    ("observe", "repro.observe.metrics:MetricsRegistry.counter"),
    ("observe", "repro.observe.metrics:MetricsRegistry.gauge"),
    ("observe", "repro.observe.metrics:MetricsRegistry.histogram"),
    ("observe", "repro.observe.metrics:Counter.inc"),
    ("observe", "repro.observe.metrics:Gauge.set"),
    ("observe", "repro.observe.metrics:Histogram.observe"),
)

#: Results summed at the span boundary: bytes of every encoded frame.
MEASURES: dict[str, Callable] = {"encode_message": len}


class SpanRecorder:
    """Flat in-memory span store: one row per call, parents by index."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.groups: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: span name -> sum of ``measure(result)`` (e.g. encoded frame bytes)
        self.measured: dict[str, int] = {}

    def intern(self, name: str, group: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return nid

    def wrap(self, fn: Callable, name: str, group: str,
             measure: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so every call records one span.

        ``measure`` (optional) is applied to each result and summed into
        :attr:`measured` under ``name``.
        """
        nid = self.intern(name, group)
        original = fn
        if measure is not None:
            measured = self.measured
            measured.setdefault(name, 0)

            def fn(*args, **kwargs):
                result = original(*args, **kwargs)
                measured[name] += measure(result)
                return result

        clock, stack = self.clock, self._stack
        name_ix, parent, start, end = self.name_ix, self.parent, self.start, self.end

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            i = len(name_ix)
            name_ix.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return spanned

    def __len__(self) -> int:
        return len(self.name_ix)

    # -- analysis -----------------------------------------------------------
    def attribute(self, root: int) -> dict:
        """Self time and call count per group over ``root``'s subtree.

        Spans are recorded in call order and strictly nested (one
        thread, plain functions), so a subtree is a contiguous index
        range and each child's duration is covered by its parent.
        """
        n = len(self.name_ix)
        stop = root + 1
        root_end = self.end[root]
        while stop < n and self.start[stop] < root_end:
            stop += 1
        start, end, parent, name_ix = self.start, self.end, self.parent, self.name_ix
        child = [0.0] * (stop - root)
        for i in range(root + 1, stop):
            child[parent[i] - root] += end[i] - start[i]
        per_name_self = [0.0] * len(self.names)
        per_name_calls = [0] * len(self.names)
        for i in range(root, stop):
            nid = name_ix[i]
            per_name_self[nid] += end[i] - start[i] - child[i - root]
            per_name_calls[nid] += 1
        groups: dict[str, float] = {}
        calls: dict[str, int] = {}
        for nid, name in enumerate(self.names):
            g = self.groups[nid]
            groups[g] = groups.get(g, 0.0) + per_name_self[nid]
            calls[name] = per_name_calls[nid]
        return {
            "total_s": end[root] - start[root],
            "spans": stop - root,
            "self_s": groups,
            "calls": calls,
        }

    def write(self, path, meta: dict) -> None:
        """Write every span (name, start, end, parent) as gzipped JSON."""
        t0 = self.start[0] if len(self) else 0.0
        doc = {
            "meta": meta,
            "names": self.names,
            "groups": self.groups,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [self.name_ix[i], round(self.start[i] - t0, 9),
                 round(self.end[i] - t0, 9), self.parent[i]]
                for i in range(len(self))
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _resolve(target: str) -> list[tuple[object, str, Callable, str]]:
    """Expand a target into (owner, attribute, original, span name) rows."""
    module_name, _, path = target.partition(":")
    module = import_module(module_name)
    if "." not in path:
        fn = getattr(module, path)
        return [(None, path, fn, path)]
    cls_name, _, attr = path.partition(".")
    cls = getattr(module, cls_name)
    classes = [cls]
    if attr == "*+":
        classes += _subclasses(cls)
    rows = []
    for klass in classes:
        if attr in ("*", "*+"):
            names = [
                k for k, v in vars(klass).items()
                if inspect.isfunction(v) and not k.startswith("__") and k not in _SKIP
            ]
        else:
            names = [attr]
        for name in names:
            fn = vars(klass)[name]
            if inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn):
                continue
            rows.append((klass, name, fn, f"{klass.__name__}.{name}"))
    return rows


def _subclasses(cls: type) -> list[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub.__module__.startswith("repro.") and sub not in out:
            out.append(sub)
        todo.extend(sub.__subclasses__())
    return sorted(out, key=lambda c: (c.__module__, c.__qualname__))


def _unit_targets() -> list[tuple[object, str, Callable, str, str]]:
    """Every ``Unit.process`` override: apps units vs toolbox units."""
    from repro.core.units import Unit

    rows = []
    for klass in _subclasses(Unit):
        fn = vars(klass).get("process")
        if fn is None or not inspect.isfunction(fn):
            continue
        group = "apps.units" if klass.__module__.startswith("repro.apps") else "core.units"
        rows.append((klass, "process", fn, f"{klass.__name__}.process", group))
    return rows


class LayerShim:
    """Install/remove span wrappers on every entry point in :data:`TARGETS`.

    Use as a context manager; :attr:`patched` lists every
    ``(owner, attribute, original)`` replaced, so a caller can check that
    :meth:`remove` put each original object back.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.patched: list[tuple[object, str, Callable]] = []

    def install(self) -> "LayerShim":
        import repro  # noqa: F401  (imports every layer, registers units)

        rows = [
            (owner, attr, fn, name, group)
            for group, target in TARGETS
            for owner, attr, fn, name in _resolve(target)
        ] + _unit_targets()
        seen = set()
        for owner, attr, fn, name, group in rows:
            key = (id(fn if owner is None else owner), attr)
            if key in seen:
                continue
            seen.add(key)
            wrapped = self.recorder.wrap(fn, name, group, MEASURES.get(name))
            if owner is None:
                self._rebind_function(fn, wrapped)
            else:
                self.patched.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
        return self

    def _rebind_function(self, fn: Callable, wrapped: Callable) -> None:
        # ``from .wire import encode_message`` copies the reference, so
        # every repro module holding the same object is rebound.
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self.patched.append((module, key, fn))
                    setattr(module, key, wrapped)

    def remove(self) -> None:
        for owner, attr, fn in reversed(self.patched):
            setattr(owner, attr, fn)

    def restored(self) -> bool:
        """True when every patched attribute is its original object again."""
        return all(vars(owner)[attr] is fn for owner, attr, fn in self.patched)

    def __enter__(self) -> "LayerShim":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


def layer_totals(self_s: dict[str, float]) -> dict[str, float]:
    """Fold group self times (``service.worker`` ...) into layer totals."""
    totals = {layer: 0.0 for layer in LAYERS}
    for group, seconds in self_s.items():
        layer = group.split(".", 1)[0]
        if layer in totals:
            totals[layer] += seconds
    return totals
