"""Tests for the local data-flow engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GraphError, LocalEngine, TaskGraph, UnitError
from repro.core.types import SampleSet
from repro.service.integrity import canonical_digest
from tests.test_core_taskgraph import fig1_graph


class TestExecution:
    def test_fig1_runs_and_finds_peak(self):
        g = fig1_graph()
        engine = LocalEngine(g)
        probe = engine.attach_probe("Accum")
        engine.run(iterations=20)
        spec = probe.last
        peak_hz = spec.frequencies()[spec.data.argmax()]
        assert peak_hz == pytest.approx(64.0)

    def test_probe_collects_every_iteration(self):
        engine = LocalEngine(fig1_graph())
        probe = engine.attach_probe("Accum")
        engine.run(iterations=7)
        assert len(probe.values) == 7

    def test_empty_probe_last_raises(self):
        engine = LocalEngine(fig1_graph())
        probe = engine.attach_probe("Accum")
        with pytest.raises(UnitError):
            _ = probe.last

    def test_probe_suffix_matching_in_flat_graph(self):
        g = fig1_graph()
        g.group_tasks("GroupTask", ["Gaussian", "FFT"])
        engine = LocalEngine(g)
        probe = engine.attach_probe("FFT")  # matches GroupTask/FFT
        engine.run(1)
        assert probe.task == "GroupTask/FFT"
        assert len(probe.values) == 1

    def test_probe_unknown_task(self):
        engine = LocalEngine(fig1_graph())
        with pytest.raises(GraphError):
            engine.attach_probe("Ghost")

    def test_probe_bad_node(self):
        engine = LocalEngine(fig1_graph())
        with pytest.raises(GraphError):
            engine.attach_probe("Wave", node=3)

    def test_sink_outputs_returned(self):
        engine = LocalEngine(fig1_graph())
        outputs = engine.run(iterations=2)
        assert "Grapher" in outputs
        assert len(outputs["Grapher"]) == 1  # one input payload last iteration

    def test_grapher_frames_accumulate(self):
        engine = LocalEngine(fig1_graph())
        engine.run(iterations=4)
        grapher = engine.units["Grapher"]
        assert len(grapher.frames) == 4

    def test_iterations_must_be_positive(self):
        engine = LocalEngine(fig1_graph())
        with pytest.raises(ValueError):
            engine.run(iterations=0)

    def test_invalid_graph_rejected_at_engine_build(self):
        g = TaskGraph("bad")
        g.add_task("W", "Wave")
        g.add_task("M", "Mixer")
        g.connect("W", 0, "M", 0)  # Mixer input 1 unfed
        with pytest.raises(GraphError):
            LocalEngine(g)

    def test_stats_accounting(self):
        engine = LocalEngine(fig1_graph())
        engine.run(iterations=3)
        s = engine.stats
        assert s.iterations == 3
        assert s.firings == 3 * 6
        assert s.modelled_flops > 0
        assert s.bytes_moved > 0
        assert "FFT" in s.per_task_flops

    def test_unit_output_arity_checked(self):
        from repro.core import Unit, UnitRegistry

        class Liar(Unit):
            NUM_INPUTS = 0
            NUM_OUTPUTS = 2

            def process(self, inputs):
                return [None]  # promises 2, returns 1

        reg = UnitRegistry()
        reg.register(Liar)
        g = TaskGraph("liar", registry=reg)
        g.add_task("L", "Liar")
        with pytest.raises(UnitError):
            LocalEngine(g).run(1)

    def test_deterministic_across_engines(self):
        p1 = LocalEngine(fig1_graph()).attach_probe  # noqa: F841
        e1, e2 = LocalEngine(fig1_graph()), LocalEngine(fig1_graph())
        pr1, pr2 = e1.attach_probe("Accum"), e2.attach_probe("Accum")
        e1.run(5)
        e2.run(5)
        np.testing.assert_array_equal(pr1.last.data, pr2.last.data)


class TestStateAndCheckpoint:
    def test_accumstat_state_advances(self):
        engine = LocalEngine(fig1_graph())
        engine.run(iterations=5)
        assert engine.units["Accum"].count == 5

    def test_checkpoint_restore_resumes_exactly(self):
        # Run 20 iterations straight.
        e_full = LocalEngine(fig1_graph())
        p_full = e_full.attach_probe("Accum")
        e_full.run(20)

        # Run 10, checkpoint, restore into a fresh engine, run 10 more.
        e_a = LocalEngine(fig1_graph())
        e_a.run(10)
        snapshot = e_a.checkpoint()

        e_b = LocalEngine(fig1_graph())
        p_b = e_b.attach_probe("Accum")
        e_b.restore(snapshot)
        e_b.run(10)

        np.testing.assert_allclose(p_b.last.data, p_full.last.data)

    def test_restore_unknown_task_rejected(self):
        engine = LocalEngine(fig1_graph())
        with pytest.raises(GraphError):
            engine.restore({"Ghost": {}})

    def test_reset_clears_everything(self):
        engine = LocalEngine(fig1_graph())
        probe = engine.attach_probe("Accum")
        engine.run(3)
        engine.reset()
        assert engine.stats.iterations == 0
        assert probe.values == []
        assert engine.units["Accum"].count == 0

    def test_reset_then_rerun_is_reproducible(self):
        engine = LocalEngine(fig1_graph())
        probe = engine.attach_probe("Accum")
        engine.run(5)
        first = probe.last.data.copy()
        engine.reset()
        engine.run(5)
        np.testing.assert_array_equal(probe.last.data, first)


class TestRunGraphHelper:
    def test_run_graph_returns_probes(self):
        from repro.core import run_graph

        outputs, probes = run_graph(fig1_graph(), iterations=3, probes=[("Accum", 0)])
        assert len(probes) == 1
        assert len(probes[0].values) == 3
        assert "Grapher" in outputs

    def test_run_graph_iteration_callback(self):
        from repro.core import run_graph

        ticks = []
        run_graph(fig1_graph(), iterations=4, on_iteration=ticks.append)
        assert ticks == [0, 1, 2, 3]


# -- the firing-plan oracle ----------------------------------------------------
#
# ``reference_step`` is the engine's per-iteration loop as it stood before
# the firing plan was compiled once at construction: it re-reads the graph
# for every task on every step, scans every probe and sizes each payload
# where it is consumed.  The compiled ``LocalEngine.step`` must agree with
# it on everything observable, bit for bit.


def _payload_bytes(value):
    return value.payload_nbytes() if hasattr(value, "payload_nbytes") else 8


def reference_step(engine, external=None):
    """One iteration of ``engine`` by the uncompiled loop."""
    external = external or {}
    missing = engine.external - set(external)
    if missing:
        raise GraphError(f"missing external inputs: {sorted(missing)}")
    unknown = set(external) - engine.external
    if unknown:
        raise GraphError(f"undeclared external inputs supplied: {sorted(unknown)}")

    pending = dict(external)
    outputs_map = {}
    engine._sink_outputs = {}
    for name in engine.order:
        task = engine.graph.task(name)
        unit = engine.units[name]
        inputs = []
        for node in range(task.num_inputs):
            key = (name, node)
            if key not in pending:
                raise GraphError(
                    f"task {name!r} fired before input {node} arrived; "
                    "graph is under-connected"
                )
            inputs.append(pending.pop(key))
        in_bytes = sum(_payload_bytes(v) for v in inputs)
        outputs = unit.process(inputs)
        if outputs is None:
            outputs = []
        if len(outputs) != task.num_outputs:
            raise UnitError(
                f"unit {task.unit_name} returned {len(outputs)} outputs, "
                f"declared {task.num_outputs}"
            )
        outputs_map[name] = list(outputs)
        engine.stats.firings += 1
        flops = unit.estimated_flops(in_bytes)
        engine.stats.modelled_flops += flops
        engine.stats.per_task_flops[name] = (
            engine.stats.per_task_flops.get(name, 0.0) + flops
        )
        for probe in engine.probes:
            if probe.task == name:
                probe(outputs[probe.node])
        outgoing = engine.graph.out_connections(name)
        for conn in outgoing:
            value = outputs[conn.src_node]
            pending[(conn.dst, conn.dst_node)] = value
            engine.stats.bytes_moved += _payload_bytes(value)
        if not outgoing and task.num_inputs:
            engine._sink_outputs.setdefault(name, []).extend(inputs)
    engine.stats.iterations += 1
    return outputs_map


#: SampleSet -> SampleSet units, by input count; any wiring type-checks.
_ONE_IN = ("Gain", "Offset", "LowPass", "HighPass", "Reverse", "MovingAverage")
_TWO_IN = ("Concatenate", "Correlate")
_TWO_OUT = ("SplitHalf", "Duplicate")


@st.composite
def engine_cases(draw):
    """A random DAG plus externals, probe targets and per-step inputs.

    Layers of SampleSet units grow from ``Wave`` sources and from tasks
    whose input is declared external; two-input units give fan-in, a
    source read by several tasks gives fan-out, two-output units give
    multi-output tasks, and an optional FFT -> PowerSpectrum -> AccumStat
    branch adds a stateful unit.  Leftover outputs end in a ``Grapher``
    sink or stay unconnected.
    """
    g = TaskGraph("oracle")
    ports: list[tuple[str, int]] = []  # output nodes available to wire
    external: list[tuple[str, int]] = []
    n = 0

    def add(unit, **params):
        nonlocal n
        name = f"T{n}"
        n += 1
        g.add_task(name, unit, **params)
        return name

    for _ in range(draw(st.integers(1, 2))):
        src = add("Wave", frequency=draw(st.sampled_from([5.0, 50.0, 125.0])),
                  samples=draw(st.sampled_from([32, 64])))
        ports.append((src, 0))
    for _ in range(draw(st.integers(0, 2))):
        ext = add("Gain", factor=draw(st.sampled_from([0.5, 2.0])))
        external.append((ext, 0))
        ports.append((ext, 0))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["one", "one", "two_in", "two_out", "ext_in"]))
        if kind == "one":
            name = add(draw(st.sampled_from(_ONE_IN)))
            g.connect(*draw(st.sampled_from(ports)), name, 0)
            ports.append((name, 0))
        elif kind == "two_in":
            name = add(draw(st.sampled_from(_TWO_IN)))
            g.connect(*draw(st.sampled_from(ports)), name, 0)
            g.connect(*draw(st.sampled_from(ports)), name, 1)
            ports.append((name, 0))
        elif kind == "two_out":
            name = add(draw(st.sampled_from(_TWO_OUT)))
            g.connect(*draw(st.sampled_from(ports)), name, 0)
            ports += [(name, 0), (name, 1)]
        else:  # one input wired, the other fed from outside
            name = add("Concatenate")
            g.connect(*draw(st.sampled_from(ports)), name, 0)
            external.append((name, 1))
            ports.append((name, 0))
    if draw(st.booleans()):
        fft = add("FFT")
        g.connect(*draw(st.sampled_from(ports)), fft, 0)
        power = add("PowerSpectrum")
        g.connect(fft, 0, power, 0)
        accum = add("AccumStat")
        g.connect(power, 0, accum, 0)
        ports.append((accum, 0))
    fed = {(c.src, c.src_node) for c in g.connections}
    for src, node in ports:
        if (src, node) not in fed and draw(st.booleans()):
            g.connect(src, node, add("Grapher"), 0)

    probe_at = st.sampled_from(ports)
    early = draw(st.lists(probe_at, max_size=3))
    late = draw(st.lists(probe_at, max_size=2))
    samples = draw(st.sampled_from([16, 48]))
    feeds = [
        {
            key: SampleSet(data=np.arange(samples, dtype=float)
                           * draw(st.sampled_from([1.0, -0.5])), sampling_rate=1024.0)
            for key in external
        }
        for _ in range(draw(st.integers(1, 4)))
    ]
    return g, external, early, late, feeds


def _digest(values):
    return canonical_digest(list(values))


def _observed(engine, outputs_map, probes):
    return (
        {name: _digest(vals) for name, vals in outputs_map.items()},
        {name: _digest(vals) for name, vals in engine._sink_outputs.items()},
        [_digest(p.values) for p in probes],
        engine.stats.iterations,
        engine.stats.firings,
        engine.stats.bytes_moved,
        dict(engine.stats.per_task_flops),
        engine.stats.modelled_flops,
    )


class TestFiringPlanMatchesOracle:
    @given(engine_cases())
    @settings(max_examples=60, deadline=None)
    def test_step_equals_reference(self, case):
        g, external, early, late, feeds = case
        fast = LocalEngine(g, external_inputs=external)
        slow = LocalEngine(g, external_inputs=external)
        fast_probes = [fast.attach_probe(t, n) for t, n in early]
        slow_probes = [slow.attach_probe(t, n) for t, n in early]
        for i, feed in enumerate(feeds):
            if i == 1:
                fast_probes += [fast.attach_probe(t, n) for t, n in late]
                slow_probes += [slow.attach_probe(t, n) for t, n in late]
            got = _observed(fast, fast.step(dict(feed)), fast_probes)
            want = _observed(slow, reference_step(slow, dict(feed)), slow_probes)
            assert got == want

    def test_fan_out_value_is_sized_once(self):
        sized = []

        class Counted(SampleSet):
            def payload_nbytes(self):
                sized.append(1)
                return super().payload_nbytes()

        g = TaskGraph("fan")
        g.add_task("In", "ScopeProbe")  # forwards the very object it got
        for name in ("A", "B", "C"):
            g.add_task(name, "Gain")
            g.connect("In", 0, name, 0)
        engine = LocalEngine(g, external_inputs=[("In", 0)])
        engine.step({("In", 0): Counted(data=np.ones(8), sampling_rate=1.0)})
        # Once on entry, once when In produces it; never per consumer.
        assert len(sized) == 2
        assert engine.stats.bytes_moved == 3 * (8 * 8 + 8 + 8)


class TestErrorsMatchOracle:
    def _both(self, build, *steps):
        """Run ``steps`` on two engines; the same error text, same stats."""
        fast, slow = build(), build()
        for feed in steps:
            errors = []
            for step in (fast.step, lambda f: reference_step(slow, f)):
                with pytest.raises((GraphError, UnitError)) as info:
                    step(feed)
                errors.append((type(info.value), str(info.value)))
            assert errors[0] == errors[1]
        assert _observed(fast, {}, []) == _observed(slow, {}, [])
        return errors[0]

    def _concat_with_external(self):
        g = TaskGraph("ext")
        g.add_task("W", "Wave", samples=16)
        g.add_task("C", "Concatenate")
        g.connect("W", 0, "C", 0)
        return LocalEngine(g, external_inputs=[("C", 1)])

    def test_missing_external(self):
        kind, text = self._both(self._concat_with_external, {}, None)
        assert kind is GraphError and text.startswith("missing external inputs: [('C', 1)]")

    def test_unknown_external(self):
        value = SampleSet(data=np.zeros(4), sampling_rate=1.0)
        kind, text = self._both(
            self._concat_with_external,
            {("C", 1): value, ("W", 0): value},
        )
        assert text == "undeclared external inputs supplied: [('W', 0)]"

    def test_under_connected_fires_upstream_first(self):
        def build():
            g = TaskGraph("loose")
            g.add_task("W", "Wave", samples=16)
            g.add_task("G", "Gain")
            g.add_task("Loose", "Grapher")  # input never fed
            g.connect("W", 0, "G", 0)
            return LocalEngine(g)

        kind, text = self._both(build, None)
        assert "fired before input 0 arrived; graph is under-connected" in text

    def test_output_arity(self):
        from repro.core import Unit, UnitRegistry

        class Liar(Unit):
            NUM_INPUTS = 1
            NUM_OUTPUTS = 2

            def process(self, inputs):
                return inputs

        reg = UnitRegistry()
        reg.register(Liar)

        def build():
            g = TaskGraph("liar", registry=reg)
            g.add_task("L", "Liar")
            return LocalEngine(g, external_inputs=[("L", 0)])

        kind, text = self._both(build, {("L", 0): 1.0})
        assert kind is UnitError and text == "unit Liar returned 1 outputs, declared 2"
