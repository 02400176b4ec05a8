"""One workload in a fresh interpreter; started by run.py, never by hand.

It times `import trigcheck` plus building the workload's fixed inputs (the
set-up), then runs whole rounds of operations, timing each call alone. After
each round it sends the outputs to run.py and waits for a reply: `k` to run
another round, `s` to stop. run.py checks the outputs and decides when the
run is long enough, so the checks never run while an operation is being
timed.

With --trace, odd rounds run with the tracer installed and even rounds
without, so the two throughputs give the tracing overhead.
"""

import os
import sys
import time

# Only modules that a bare interpreter has already loaded come before the
# clock, so the import costs what it costs in a fresh process. run.py puts
# ./src on PYTHONPATH.
STARTED = time.perf_counter()
import trigcheck  # noqa: E402

IMPORT_S = time.perf_counter() - STARTED

import argparse  # noqa: E402
import pickle  # noqa: E402
import random  # noqa: E402
import struct  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def send(channel, message):
    data = pickle.dumps(message)
    channel.write(struct.pack("<Q", len(data)) + data)
    channel.flush()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args()

    # replies go over a private copy of stdout; the program's own prints go to stderr
    channel = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)

    started = time.perf_counter()
    workload = WORKLOADS[args.workload](trigcheck, args.root, in_process=bool(args.trace))
    setup_s = IMPORT_S + time.perf_counter() - started
    if args.setup_only:
        send(channel, {"setup_s": setup_s})
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(trigcheck)
    rng = random.Random(args.seed)
    rounds = {False: 0, True: 0}
    while True:
        traced = tracer is not None and rounds[False] > rounds[True]
        batch = workload.round(rng)
        items, outputs = [], []
        previous = None
        if traced:
            tracer.install()
        try:
            for op in batch:
                call_args = (previous,) + op.args if op.chain else op.args
                fn = getattr(op.owner, op.attr)
                error = None
                t0 = time.perf_counter()
                try:
                    out = tracer.run_op(fn, call_args) if traced else fn(*call_args)
                except Exception as exc:  # the op failed; report it, keep running
                    out = None
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
                outputs.append((op, call_args, out, error, elapsed))
                previous = out
        finally:
            if traced:
                tracer.uninstall()
        for op, call_args, out, error, elapsed in outputs:
            plain = workload.export(op.meta, call_args, out) if error is None else None
            items.append((op.meta, plain, error, elapsed))
        rounds[traced] += 1
        send(channel, {"round": items, "traced": traced})
        reply = sys.stdin.buffer.read(1)
        if reply == b"s":
            break
        if reply != b"k":
            return 1

    final = {"setup_s": setup_s, "peak_rss_kb": workload.peak_rss_kb(), "rounds": rounds}
    if tracer is not None:
        spans = args.root / "perfbench" / "out" / f"spans-{args.workload}-{args.seed}.pkl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans)
        final["trace"] = tracer.summary()
    send(channel, final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
