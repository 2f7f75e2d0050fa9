"""TcpTransport: real sockets carrying the unchanged protocol.

Loopback unit tests (two transports in one process, frames crossing
127.0.0.1) plus the acceptance e2e: a localhost multi-process galaxy
run must produce the *same* ``result_checksum`` as the deterministic
simulation — the protocol result is transport-invariant.

Every blocking test arms a SIGALRM hard timeout so a wedged socket
path fails the suite instead of hanging it.
"""

import logging
import signal
import time

import pytest

from repro import ConsumerGrid, TaskGraph
from repro.apps.galaxy import build_galaxy_graph, generate_snapshots
from repro.deployment import run_tcp_localhost
from repro.p2p.network import Message
from repro.transport import RealtimeSimulator, TcpTransport
from repro.transport.wire import result_checksum


@pytest.fixture(autouse=True)
def hard_timeout():
    """Kill any wedged test after 120 s of wall clock."""

    def boom(signum, frame):
        raise TimeoutError("tcp transport test exceeded the hard timeout")

    old = signal.signal(signal.SIGALRM, boom)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def make_transport(**kw):
    sim = RealtimeSimulator(seed=kw.pop("seed", 0))
    return sim, TcpTransport(sim, **kw)


def pump_until(sims, predicate, deadline_s=30.0):
    """Alternately pump each kernel until ``predicate()`` or timeout."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate():
            return
        for sim in sims:
            sim.run(until=sim.wall_now + 0.05)
    raise AssertionError("condition not reached before deadline")


class TestLoopback:
    def test_ping_pong_across_real_sockets(self):
        sim_b, tb = make_transport()
        got_b = []

        def on_b(msg):
            got_b.append(msg)
            tb.send(Message("pong", "b", "a", payload=msg.payload + 1))

        tb.add_node("b", on_b)

        sim_a, ta = make_transport(peers={"b": ("127.0.0.1", tb.port)})
        got_a = []
        ta.add_node("a", got_a.append)
        tb.register_peer("a", "127.0.0.1", ta.port)

        ta.send(Message("ping", "a", "b", payload=41))
        try:
            pump_until([sim_a, sim_b], lambda: got_a)
            assert got_b[0].payload == 41
            assert got_a[0].kind == "pong"
            assert got_a[0].payload == 42
            assert ta.stats.sent == 1 and ta.stats.delivered == 1
            assert tb.stats.sent == 1 and tb.stats.delivered == 1
        finally:
            ta.close()
            tb.close()

    def test_connection_pooling_one_link_per_address(self):
        sim_b, tb = make_transport()
        got = []
        tb.add_node("b", got.append)
        sim_a, ta = make_transport(peers={"b": ("127.0.0.1", tb.port)})
        ta.add_node("a", lambda m: None)
        try:
            for i in range(20):
                ta.send(Message("tick", "a", "b", payload=i))
            pump_until([sim_a, sim_b], lambda: len(got) == 20)
            # all 20 frames rode one pooled outbound connection
            assert len(ta._links) == 1
            assert [m.payload for m in got] == list(range(20))
        finally:
            ta.close()
            tb.close()

    def test_reconnect_backoff_delivers_to_late_listener(self):
        # Reserve an address nobody is listening on yet.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        sim_a, ta = make_transport(
            peers={"b": ("127.0.0.1", port)},
            backoff_base=0.02,
            max_retries=50,
        )
        ta.add_node("a", lambda m: None)
        ta.send(Message("early", "a", "b", payload="hello"))
        # Let a few connection attempts fail before the listener exists.
        sim_a.run(until=sim_a.wall_now + 0.2)

        sim_b, tb = make_transport(port=port)
        got = []
        tb.add_node("b", got.append)
        try:
            pump_until([sim_a, sim_b], lambda: got)
            assert got[0].payload == "hello"
            assert ta.stats.dropped_offline == 0
        finally:
            ta.close()
            tb.close()

    def test_drop_after_max_retries_counts_offline(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # dead address: connections always refused

        sim_a, ta = make_transport(
            peers={"b": ("127.0.0.1", port)},
            backoff_base=0.01,
            backoff_max=0.02,
            max_retries=2,
        )
        ta.add_node("a", lambda m: None)
        try:
            ta.send(Message("doomed", "a", "b"))
            pump_until([sim_a], lambda: ta.stats.dropped_offline == 1)
        finally:
            ta.close()

    def test_offline_source_drops_without_socket_io(self):
        sim_a, ta = make_transport()
        ta.add_node("a", lambda m: None)
        try:
            ta.set_online("a", False)
            ta.send(Message("mute", "a", "b"))
            assert ta.stats.dropped_offline == 1
            assert not ta._links  # nothing was queued
        finally:
            ta.close()

    def test_corrupt_frame_counted_not_fatal(self):
        sim_a, ta = make_transport()
        got = []
        ta.add_node("a", got.append)
        try:
            ta._on_frame(b"garbage that is not a wire frame")
            assert ta.stats.corrupted == 1
            # the transport still works afterwards
            ta.send(Message("ok", "a", "a", payload=1))
            pump_until([sim_a], lambda: got)
            assert got[0].payload == 1
        finally:
            ta.close()

    def test_corrupt_body_keeps_the_connection(self, caplog):
        # A well-framed body that is not valid wire data (here a string
        # that is not UTF-8) is counted; the next frame on the same
        # inbound connection is still delivered.
        import socket
        import struct

        from repro.transport.wire import MAGIC, WIRE_VERSION, encode_message

        sim_a, ta = make_transport()
        got = []
        ta.add_node("a", got.append)
        bad = MAGIC + bytes([WIRE_VERSION]) + b"s" + (2).to_bytes(4, "big") + b"\xff\xfe"
        good = encode_message(Message("ok", "x", "a", payload=7))
        raw = socket.create_connection(("127.0.0.1", ta.port))
        try:
            with caplog.at_level(logging.WARNING, logger="asyncio"):
                for body in (bad, good):
                    raw.sendall(struct.pack(">I", len(body)) + body)
                pump_until([sim_a], lambda: got)
            assert ta.stats.corrupted == 1
            assert got[0].kind == "ok" and got[0].payload == 7
            assert ta.stats.delivered == 1
            assert not [
                r for r in caplog.records
                if r.name == "asyncio" and r.levelno >= logging.WARNING
            ]
        finally:
            raw.close()
            ta.close()


class TestGridOverTcp:
    def test_single_process_grid_matches_sim_checksum(self):
        generate_snapshots(
            n_frames=3, n_particles=80, seed=5, register_as="tcp-loopback"
        )
        graph = build_galaxy_graph("tcp-loopback", resolution=8)

        sim_grid = ConsumerGrid(n_workers=2, seed=0)
        sim_report = sim_grid.run(graph, iterations=3)
        want = result_checksum(sim_report.group_results)

        tcp_grid = ConsumerGrid(
            n_workers=2, seed=0, transport="tcp",
            query_window=0.4, heartbeat_interval=5.0,
        )
        try:
            tcp_report = tcp_grid.run(graph, iterations=3)
        finally:
            tcp_grid.transport.close()
        assert result_checksum(tcp_report.group_results) == want
        assert tcp_report.placements == sim_report.placements


    def test_grid_left_idle_before_run_still_discovers(self):
        # The discovery window is scheduled at ``sim.now + window`` from
        # outside the kernel; a clock left at its last tick would close
        # the window before any reply could arrive.
        graph = TaskGraph("idle-chain")
        graph.add_task("Source", "Wave", samples=64)
        graph.add_task("Low", "LowPass", cutoff=300.0)
        graph.add_task("High", "HighPass", cutoff=2.0)
        graph.add_task("Sink", "Grapher")
        graph.connect("Source", 0, "Low", 0)
        graph.connect("Low", 0, "High", 0)
        graph.connect("High", 0, "Sink", 0)
        graph.group_tasks("Chain", ["Low", "High"], policy="parallel")

        sim_report = ConsumerGrid(n_workers=2, seed=0).run(graph, iterations=20)
        want = [result_checksum(outputs) for outputs in sim_report.group_results]

        tcp_grid = ConsumerGrid(
            n_workers=2, seed=0, transport="tcp", query_window=0.2,
        )
        try:
            time.sleep(0.5)
            tcp_report = tcp_grid.run(graph, iterations=20)
        finally:
            tcp_grid.transport.close()
        assert [result_checksum(o) for o in tcp_report.group_results] == want


class TestRealtimeClock:
    def test_clock_read_between_runs_follows_the_wall(self):
        sim = RealtimeSimulator()
        sim.run(until=0.01)
        time.sleep(0.2)
        assert sim.now >= 0.2
        assert sim.now <= sim.wall_now

    def test_clock_inside_a_callback_is_the_tick_stamp(self):
        sim = RealtimeSimulator()
        seen = []
        ev = sim.timeout(0.05)
        ev.callbacks.append(lambda _ev: seen.append((sim.now, sim.now)))
        sim.run(until=ev)
        (first, second), = seen
        assert first == second >= 0.05


class TestMultiProcessE2E:
    """The acceptance smoke: controller + 2 worker OS processes."""

    def test_three_process_galaxy_checksum_matches_sim(self):
        generate_snapshots(
            n_frames=4, n_particles=200, seed=7, register_as="tcp-e2e"
        )
        graph = build_galaxy_graph("tcp-e2e", resolution=16)

        sim_grid = ConsumerGrid(n_workers=2, seed=0)
        sim_report = sim_grid.run(graph, iterations=4)
        want = result_checksum(sim_report.group_results)

        report = run_tcp_localhost(
            graph, iterations=4, n_workers=2, query_window=0.5,
        )
        assert result_checksum(report.group_results) == want
        assert report.placements == sim_report.placements
        assert len(report.group_results) == 4
