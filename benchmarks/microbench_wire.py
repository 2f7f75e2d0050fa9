#!/usr/bin/env python
"""Wire-codec microbenchmark: encode and decode µs per frame, per message kind.

Times :func:`repro.transport.wire.encode_message` and
:func:`~repro.transport.wire.decode_message` on one frame of every
protocol message kind — the payloads of the codec's round-trip tests
(``tests/test_transport_wire.py::protocol_messages``) — next to the
recursive reference codec those tests hold it to, so the per-kind cost
and the speed-up over the reference are both visible.

Each figure is the best of ``--repeat`` timed loops of ``--number``
calls, in µs per frame; every round times every (kind, codec) cell once,
so a slow spell of a shared host does not land on a single row.  Results are printed as a table and written as
JSON (default ``benchmarks/results/MICROBENCH_wire.json``) for the CI
artifact upload.  Wall-clock numbers are **ungated**: machine speed must
never fail CI.

Usage::

    PYTHONPATH=src python benchmarks/microbench_wire.py
    PYTHONPATH=src python benchmarks/microbench_wire.py --number 100 --repeat 5
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import timeit

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.transport.wire import decode_message, encode_message  # noqa: E402
from tests.test_transport_wire import (  # noqa: E402
    oracle_decode,
    oracle_encode,
    protocol_messages,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
COLUMNS = ("encode_us", "decode_us", "reference_encode_us", "reference_decode_us")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, default=300,
                        help="calls per timed loop (default 300)")
    parser.add_argument("--repeat", type=int, default=9,
                        help="timed loops per figure; the best is kept (default 9)")
    parser.add_argument("--out", default=str(RESULTS_DIR / "MICROBENCH_wire.json"),
                        help="output JSON path")
    args = parser.parse_args(argv)

    timers = {}
    sizes = {}
    for kind, message in protocol_messages().items():
        frame = encode_message(message)
        sizes[kind] = len(frame)
        calls = (
            (encode_message, message), (decode_message, frame),
            (oracle_encode, message), (oracle_decode, frame),
        )
        for column, (fn, arg) in zip(COLUMNS, calls):
            timers[kind, column] = timeit.Timer(lambda fn=fn, arg=arg: fn(arg))
    best = dict.fromkeys(timers, float("inf"))
    for _ in range(args.repeat):
        for cell, timer in timers.items():
            best[cell] = min(best[cell], timer.timeit(args.number) / args.number * 1e6)

    kinds = {}
    print(f"wire-codec microbench (best of {args.repeat} x {args.number} calls, us/frame)")
    print(f"{'kind':20s} {'bytes':>7s} {'encode':>8s} {'decode':>8s} "
          f"{'ref enc':>8s} {'ref dec':>8s} {'speed-up':>8s}")
    for kind, size in sizes.items():
        row = {column: best[kind, column] for column in COLUMNS}
        row["speedup"] = (row["reference_encode_us"] + row["reference_decode_us"]) / (
            row["encode_us"] + row["decode_us"])
        kinds[kind] = {"frame_bytes": size, **{k: round(v, 2) for k, v in row.items()}}
        print(f"{kind:20s} {size:>7d} {row['encode_us']:>8.2f} {row['decode_us']:>8.2f} "
              f"{row['reference_encode_us']:>8.2f} {row['reference_decode_us']:>8.2f} "
              f"{row['speedup']:>7.2f}x")

    result = {"schema": 1, "number": args.number, "repeat": args.repeat, "kinds": kinds}
    out = pathlib.Path(args.out)
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"[saved to {out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
