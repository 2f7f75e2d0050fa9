"""Consumer-grid benchmark: one workload, one seed, one JSON result line.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload volunteer_chaos --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics untraced: after a reference
run and one discarded warm-up repetition, it repeats set-up + ``grid.run``
for ``--seconds`` (cycling through the workload's seeded input cases),
times the reference kernel of :mod:`calibrate` between repetitions, and
reports medians of the host times in reference seconds.  ``--trace 1``
times untraced repetitions for half the budget, then runs one repetition
with the recording tracer and the layer shim (:mod:`shim`) installed, and
reports per-layer metrics.  Every repetition's per-iteration digests are checked
against the reference; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Span files of
traced repetitions go to ``.bench_out/`` in the checkout.

``python3 perfbench/report.py`` runs every workload and prints the table.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from calibrate import REFERENCE_S, Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
#: Timed repetitions per run at least, however short ``--seconds`` is.
MIN_REPS = 3


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}; run from a repository checkout")
    sys.path[:0] = [str(src), str(HERE)]


class _LogCounter(logging.Handler):
    """Counts asyncio warnings/errors, e.g. 'Task was destroyed but it is pending!'."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.records: list[str] = []

    def emit(self, record):
        self.records.append(record.getMessage())


def _open_sockets() -> int:
    """Sockets this process holds open (0 where /proc is unavailable)."""
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        return 0
    count = 0
    for fd in os.listdir(fd_dir):
        try:
            count += os.readlink(f"{fd_dir}/{fd}").startswith("socket:")
        except OSError:
            pass
    return count


@dataclass
class Rep:
    """One repetition: set-up, ``grid.run``, oracle and hygiene checks."""

    case: int
    run_s: float
    #: Process CPU time of set-up and of ``grid.run``.
    setup_cpu_s: float
    run_cpu_s: float
    makespan: float
    digests: list[str]
    errors: int
    leaks: list[str]
    grid: Any = None
    report: Any = None
    before: dict = field(default_factory=dict)
    #: CPU time of the reference kernel around this repetition.
    kernel_s: float = REFERENCE_S

    def reference_s(self, host_s: float) -> float:
        """``host_s`` seconds of this repetition in reference seconds."""
        return host_s * REFERENCE_S / self.kernel_s


def run_rep(wl, seed: int, case: int, reference: list[str], recorder=None,
            keep: bool = False) -> Rep:
    """Set up and run ``wl`` once; ``recorder`` makes it the traced repetition."""
    from shim import ROOT_GROUP, LayerShim

    gc.collect()
    log = _LogCounter()
    logging.getLogger("asyncio").addHandler(log)
    sockets_before = _open_sockets()
    shim = LayerShim(recorder) if recorder is not None else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        if shim is not None:
            shim.install()
        try:
            c0 = time.process_time()
            inputs = wl.inputs(seed, case)
            grid = wl.build(inputs, trace=recorder is not None)
            graph = wl.graph(inputs)
            c1 = time.process_time()
            try:
                before = _counters(grid)
                run = wl.run
                if recorder is not None:
                    before["root_span"] = len(recorder)
                    run = recorder.wrap(wl.run, "ConsumerGrid.run", ROOT_GROUP)
                t2, c2 = time.perf_counter(), time.process_time()
                report = run(grid, graph)
                t3, c3 = time.perf_counter(), time.process_time()
            finally:
                wl.close(grid)
        finally:
            if shim is not None:
                shim.remove()
        gc.collect()
    logging.getLogger("asyncio").removeHandler(log)
    leaks = [f"asyncio: {m}" for m in log.records]
    leaks += [f"{w.category.__name__}: {w.message}" for w in caught
              if issubclass(w.category, ResourceWarning)]
    open_now = _open_sockets()
    if open_now > sockets_before:
        leaks.append(f"{open_now - sockets_before} socket(s) left open")
    if shim is not None and not shim.restored():
        leaks.append("layer shim left a wrapped attribute behind")
    from workloads import digests

    got = digests(report)
    errors = sum(1 for i, ref in enumerate(reference) if i >= len(got) or got[i] != ref)
    if leaks:
        errors = len(reference)
    return Rep(
        case=case,
        run_s=t3 - t2,
        setup_cpu_s=c1 - c0,
        run_cpu_s=c3 - c2,
        makespan=report.makespan,
        digests=got,
        errors=errors,
        leaks=leaks,
        grid=grid if keep else None,
        report=report if keep else None,
        before=before if keep else {},
    )


def _counters(grid) -> dict:
    """Fabric and kernel counters before ``grid.run`` (deltas are per run)."""
    s = grid.network.stats
    return {
        "events": grid.sim.events_executed,
        "sent": s.sent,
        "bytes": s.bytes_sent,
        "dropped": s.dropped_offline + s.dropped_loss + s.dropped_partition + s.corrupted,
    }


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- end-to-end ----------------------------------------------------------------


def end_to_end(wl, reps: list[Rep], attempted: int, failed: int) -> dict[str, tuple[float, str]]:
    """End-to-end metrics over a run's timed repetitions.

    Host times are process CPU times (the benchmark is one thread and
    ``grid.run`` never waits: on tcp_loopback its CPU and wall times
    agree within a few milliseconds), so time the VM's vCPU is stolen does not
    count, and each is put in reference seconds by the kernel timed
    around its repetition (:mod:`calibrate`).  ``iterations_per_s``
    divides all cases' iterations by the sum over cases of each case's
    median run time, so every seeded case weighs the same however often
    it ran.  ``setup_s`` is the median set-up time; on tcp_loopback that
    leaves out the fixed 0.25 s of waiting in set-up.
    ``makespan_sim_s`` is the mean of the cases' makespans on the
    simulator (each repeats exactly); on the wall-clock kernel it is a
    host time like the others, the median in reference seconds.
    """
    by_case: dict[int, list[Rep]] = {}
    for r in reps:
        by_case.setdefault(r.case, []).append(r)
    run_s = sum(statistics.median(r.reference_s(r.run_cpu_s) for r in rs)
                for rs in by_case.values())
    if wl.simulated:
        makespan = statistics.fmean(rs[0].makespan for rs in by_case.values())
    else:
        makespan = statistics.median(r.reference_s(r.makespan) for r in reps)
    return {
        "iterations_per_s": (wl.iterations * len(by_case) / run_s, "1/s"),
        "makespan_sim_s": (makespan, "sim_s"),
        "setup_s": (statistics.median(r.reference_s(r.setup_cpu_s) for r in reps), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
        "correct_fraction": (1.0 - failed / attempted, "fraction"),
    }


# -- per layer -------------------------------------------------------------------


def per_layer(wl, untraced: Rep, traced: Rep, baseline_run_s: float, recorder, inputs) -> tuple[dict, dict]:
    """Per-layer metrics: counts from the untraced run, times from the traced one."""
    from repro.observe.analyze import analyze
    from repro.transport import TcpTransport
    from shim import LAYERS, ROOT_GROUP, layer_totals

    attr = recorder.attribute(traced.before["root_span"])
    selfs, calls = attr["self_s"], attr["calls"]
    layers = layer_totals(selfs)
    traced_s = attr["total_s"]
    g = lambda group: selfs.get(group, 0.0)  # noqa: E731
    per = lambda num, den, scale=1.0: num / den * scale if den else 0.0  # noqa: E731

    grid, report, before = untraced.grid, untraced.report, untraced.before
    stats = grid.network.stats
    events = grid.sim.events_executed - before["events"]
    messages = stats.sent - before["sent"]
    dropped = stats.dropped_offline + stats.dropped_loss + stats.dropped_partition + stats.corrupted
    tcp = isinstance(grid.transport, TcpTransport)
    frames = messages if tcp else 0
    executions = sum(w.stats.iterations for w in grid.workers.values())
    caches = [w.cache.stats for w in grid.workers.values()]
    requests = sum(c.requests for c in caches)
    steps = calls.get("LocalEngine.step", 0)
    sph_calls = calls.get("sph_column_density", 0)
    codec_s = g("transport.encode") + g("transport.decode")
    injector = grid.fault_injector

    m: dict[str, tuple[float, str]] = {
        "simkernel.events": (events, "count"),
        "simkernel.self_s": (layers["simkernel"], "s"),
        "simkernel.us_per_event": (per(layers["simkernel"], events, 1e6), "us"),
        "p2p.messages": (messages, "count"),
        "p2p.bytes": (stats.bytes_sent - before["bytes"], "bytes"),
        "p2p.dropped": (dropped - before["dropped"], "count"),
        "p2p.self_s": (layers["p2p"], "s"),
        "p2p.us_per_message": (per(layers["p2p"], messages, 1e6), "us"),
        "transport.frames": (frames, "count"),
        "transport.frame_bytes": (recorder.measured.get("encode_message", 0), "bytes"),
        "transport.self_s": (layers["transport"], "s"),
        "transport.encode_self_s": (g("transport.encode"), "s"),
        "transport.decode_self_s": (g("transport.decode"), "s"),
        "transport.us_per_frame": (per(codec_s, calls.get("encode_message", 0), 1e6), "us"),
        "transport.io_wait_s": (g("transport.io"), "s"),
        "service.self_s": (layers["service"], "s"),
        "service.controller_self_s": (g("service.controller"), "s"),
        "service.policy_self_s": (g("service.policy"), "s"),
        "service.detector_self_s": (g("service.detector"), "s"),
        "service.integrity_self_s": (g("service.integrity"), "s"),
        "service.worker_self_s": (g("service.worker"), "s"),
        "service.executions": (executions, "count"),
        "service.redispatches": (report.redispatches, "count"),
        "service.wasted_executions": (executions - wl.iterations, "count"),
        "service.useful_exec_ratio": (per(wl.iterations, executions), "ratio"),
        "service.deploy_sim_s": (report.deploy_time, "sim_s"),
        "mobility.self_s": (layers["mobility"], "s"),
        "mobility.repo_bytes": (grid.repository.stats.bytes_served, "bytes"),
        "mobility.peer_fetches": (sum(c.peer_fetches for c in caches), "count"),
        "mobility.revalidations": (sum(c.revalidations for c in caches), "count"),
        "mobility.cache_hit_ratio": (per(sum(c.hits for c in caches), requests), "ratio"),
        "core.steps": (steps, "count"),
        "core.self_s": (g("core.engine"), "s"),
        "core.units_self_s": (g("core.units"), "s"),
        "core.us_per_step": (per(g("core.engine"), steps, 1e6), "us"),
        "apps.self_s": (layers["apps"], "s"),
        "apps.sph_calls": (sph_calls, "count"),
        "apps.sph_self_s": (g("apps.sph"), "s"),
        "apps.particles_per_s": (
            per(sph_calls * inputs.get("particles", 0), g("apps.sph")), "1/s"),
        "faults.injected": (injector.faults_injected if injector else 0, "count"),
        "faults.self_s": (layers["faults"], "s"),
        "observe.self_s": (layers["observe"], "s"),
        "observe.trace_overhead": (per(traced.run_s, baseline_run_s), "ratio"),
        "grid.self_s": (g(ROOT_GROUP), "s"),
        "grid.traced_run_s": (traced_s, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = (per(layers[layer], traced_s), "fraction")

    a = analyze(traced.grid.sim.tracer)
    fr = a["bottlenecks"]["fractions"]
    m["analyze.critical_path_sim_s"] = (a["critical_path"]["path_s"], "sim_s")
    for share in ("compute", "network_transfer", "redispatch_recovery",
                  "verification_overhead", "discovery"):
        m[f"analyze.share.{share}"] = (fr.get(share, 0.0), "fraction")
    m["analyze.share.module_fetch"] = (
        sum(fr.get(b, 0.0) for b in ("repo_fetch", "peer_fetch", "revalidate")), "fraction")

    dominant = max(LAYERS, key=lambda layer: layers[layer])
    summary = {
        "traced_run_s": traced_s,
        "spans": attr["spans"],
        "layers_self_s": layers,
        "groups_self_s": selfs,
        "unattributed_s": g(ROOT_GROUP),
        "dominant_layer": dominant,
        "dominant_share": per(layers[dominant], traced_s),
        "simkernel_share": per(layers["simkernel"], traced_s),
    }
    return m, summary


# -- driver ------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from shim import SpanRecorder
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    inputs = wl.inputs(seed)
    reference = wl.reference(inputs)
    # The warm-up absorbs import-time compilation and first-touch costs;
    # it is checked like every other repetition but not timed.
    checked = [run_rep(wl, seed, 0, reference)]
    timed: list[Rep] = []
    # A traced run times case 0 untraced for half the budget: the
    # baseline of observe.trace_overhead and the source of the counts.
    budget = seconds / 2.0 if trace else seconds
    at_least = 1 if trace else max(MIN_REPS, wl.cases)
    if trace:
        deadline = time.perf_counter() + budget
        while len(timed) < at_least or time.perf_counter() < deadline:
            timed.append(run_rep(wl, seed, 0, reference, keep=not timed))
    else:
        with Calibrator() as cal:
            cal.measure()  # warm-up, like the workload's
            before = cal.measure()
            deadline = time.perf_counter() + budget
            while len(timed) < at_least or time.perf_counter() < deadline:
                rep = run_rep(wl, seed, len(timed) % wl.cases, reference)
                after = cal.measure()
                rep.kernel_s = (before + after) / 2.0
                before = after
                timed.append(rep)
    checked += timed
    notes: list[str] = []
    traced = None
    if trace:
        recorder = SpanRecorder()
        traced = run_rep(wl, seed, 0, reference, recorder=recorder, keep=True)
        checked.append(traced)

    attempted = wl.iterations * len(checked)
    failed = sum(r.errors for r in checked)
    for r in checked:
        notes += r.leaks
    if wl.simulated:
        for case in range(wl.cases):
            makespans = {r.makespan for r in checked if r.case == case}
            if len(makespans) > 1:
                notes.append(f"case {case}: makespan differs between repetitions: {sorted(makespans)}")
    digest_sets = {tuple(r.digests) for r in checked}
    if len(digest_sets) != 1:
        notes.append("digests differ between repetitions")

    if trace:
        metrics, summary = per_layer(
            wl, timed[0], traced, min(r.run_s for r in timed), recorder, inputs)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{workload}-seed{seed}.json.gz"
        recorder.write(span_file, {"workload": workload, "seed": seed, **summary})
        print(f"# {workload}: dominant layer {summary['dominant_layer']} "
              f"({summary['dominant_share']:.1%} of {summary['traced_run_s']:.3f} s traced grid.run); "
              f"simkernel self incl. resumed process bodies {summary['simkernel_share']:.1%}; "
              f"unattributed {summary['unattributed_s'] * 1e3:.2f} ms; "
              f"{summary['spans']} spans -> {span_file.relative_to(ROOT)}")
    else:
        metrics = end_to_end(wl, timed, attempted, failed)
    for note in notes:
        print(f"# {workload}: {note}", file=sys.stderr)
    return {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; know {sorted(WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{args.workload:16s} {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
