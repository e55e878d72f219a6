"""One workload in one process: set up, run timed passes, check outputs.

Started by `run.py`, which pins numpy/BLAS to one thread in the environment
and passes its clock reading at spawn time as `--t0`, so `setup_s` covers
interpreter start, imports, input generation and a discarded warm-up item.
Modes: `setup` stops at the first timed item; `run` times whole passes for
`--seconds`; `trace` times passes untraced for half the time, then traced
for the other half, and reports per-layer metrics.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

MIN_PASSES = 2
SAMPLE_PERIOD_S = 0.05
# Time of `reference_kernel` on an idle core of the machine that measured
# the README figures; scaled item times read as seconds on that core.
REFERENCE_S = 6.0e-4


def reference_kernel():
    """Fixed pure-Python work (integer list loop, float math, JSON) of about 0.6 ms."""
    row = list(range(64))
    acc = 0
    for t in range(72):
        for j in range(64):
            row[j] = (row[j] * 3 + t) & 0xFFFF
        acc += sum(row)
    x = 0.0
    for k in range(1800):
        x += math.sin(k * 1e-3) * math.cos(k * 2e-3)
    return acc, json.dumps({"k": row[:16], "x": x})


class Contention:
    """Samples how fast this core runs Python, every SAMPLE_PERIOD_S.

    Other tenants of a shared machine slow every item of a run alike, by up
    to 1.7x for tens of seconds.  A SIGALRM handler times `reference_kernel`,
    which never touches the program, so its time tracks only the machine.
    `scaled` removes the sampling from an item's wall time and rescales the
    rest by REFERENCE_S over the mean kernel time around the item.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def _sample(self, signum, frame):
        t = perf_counter()
        reference_kernel()
        self.at.append(t)
        self.took.append(perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def wall(self, start: float, end: float) -> float:
        """Item wall time without the samples taken inside it."""
        i, j = bisect_left(self.at, start), bisect_left(self.at, end)
        return end - start - sum(self.took[i:j])

    def scaled(self, start: float, end: float) -> float:
        i = bisect_left(self.at, start - SAMPLE_PERIOD_S)
        j = bisect_right(self.at, end + SAMPLE_PERIOD_S)
        near = self.took[i:j]
        speed = REFERENCE_S * len(near) / sum(near) if near else 1.0
        return self.wall(start, end) * speed

    def scaled_setup(self, wall: float) -> float:
        """Set-up time net of sampling, scaled by every sample taken so far."""
        speed = REFERENCE_S * len(self.took) / sum(self.took) if self.took else 1.0
        return (wall - sum(self.took)) * speed


class Outputs:
    """First output per item, for checking; later outputs must equal it.

    Only the first output of each item is kept, so memory stays flat over
    a run and `peak_rss_mb` reflects the program, not the bookkeeping.
    """

    def __init__(self, wl):
        self.wl = wl
        self.first: dict = {}
        self.failed = 0
        self.errors: list[str] = []

    def observe(self, key, out, err) -> None:
        if err is not None:
            self.failed += 1
            if key not in self.wl.known_faults:
                self.errors.append(f"{key}: raised {err}")
        elif key not in self.first:
            self.first[key] = out
        elif out != self.first[key]:
            self.errors.append(f"{key}: output differs from its first run")

    def check(self, inputs) -> None:
        for key, out in self.first.items():
            try:
                self.wl.check(key, out, inputs)
            except Exception as exc:  # a check failure or a malformed output
                self.errors.append(f"{type(exc).__name__}: {exc}")


def run_passes(wl, seed, inputs, rng, seconds, outputs, traced=False):
    """Closed loop over whole passes; each item starts after the last ends.

    Returns (item records, passes, wall seconds, inputs); a record is
    (key, start, end).  A traced run regenerates its inputs every pass, so
    input generation is traced too; its extra split calls run outside the
    item timing.  It may stop after one pass: on torus-builds the split
    calls make a traced pass four times as long.
    """
    records = []
    passes = 0
    start = perf_counter()
    while True:
        if traced:
            inputs = wl.make_inputs(seed)
        items = wl.items(inputs)
        if wl.shuffle:
            rng.shuffle(items)
        for key, fn in items:
            t = perf_counter()
            try:
                out, err = fn(), None
            except Exception as exc:  # counted and reported per item
                out, err = None, type(exc).__name__
            records.append((key, t, perf_counter()))
            outputs.observe(key, out, err)
            if traced and err is None:
                try:
                    wl.traced_extra(key, out, inputs)
                except Exception as exc:  # reported like a failed check
                    outputs.errors.append(f"{key} split calls: {type(exc).__name__}: {exc}")
        passes += 1
        if passes >= (1 if traced else MIN_PASSES) and perf_counter() - start >= seconds:
            return records, passes, perf_counter() - start, inputs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", required=True, help="directory for work files and traces")
    args = ap.parse_args()
    contention = Contention()
    contention.start()

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.size)
    work = Path(args.out) / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        inputs = wl.make_inputs(args.seed)
        wl.warmup(inputs)
        setup_wall = time.monotonic() - args.t0
        setup_s = contention.scaled_setup(setup_wall)
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "wall_setup_s": setup_wall}))
            return 0
        rng = random.Random(args.seed)
        seconds = args.seconds if args.mode == "run" else args.seconds / 2
        outputs = Outputs(wl)
        records, passes, wall, _ = run_passes(wl, args.seed, inputs, rng, seconds, outputs)
        contention.stop()
        walls = [contention.wall(s, e) for _, s, e in records]
        scaled = [contention.scaled(s, e) for _, s, e in records]
        result = {
            "setup_s": setup_s,
            "wall_setup_s": setup_wall,
            "passes": passes,
            "timed_s": wall,
            "items_per_s": len(records) / sum(scaled),
            "item_s.p50": statistics.median(scaled),
            "wall_items_per_s": len(records) / wall,
            "wall_item_s.p50": statistics.median(walls),
            "reference_s.p50": statistics.median(contention.took),
            "items": [[k, w, s] for (k, _, _), w, s in zip(records, walls, scaled)],
        }
        attempted = len(records)
        if args.mode == "trace":
            from tracing import Tracer

            wl.prepare_trace(inputs)
            tracer = Tracer()
            tracer.install()
            wl.tracer = tracer
            try:
                traced, t_passes, _, inputs = run_passes(
                    wl, args.seed, inputs, rng, seconds, outputs, traced=True
                )
            finally:
                wl.tracer = None
                tracer.uninstall()
            attempted += len(traced)
            layers = tracer.layer_metrics(t_passes)
            traced_rate = len(traced) / sum(e - s for _, s, e in traced)
            layers["trace.overhead_items_per_s"] = len(walls) / sum(walls) - traced_rate
            result.update(traced_passes=t_passes, layers=layers, spans=len(tracer.spans))
            tracer.write(Path(args.out) / f"trace-{args.workload}-seed{args.seed}.json")
        outputs.check(inputs)
        result.update(
            attempted=attempted,
            failed=outputs.failed,
            errors=outputs.errors,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        print(json.dumps(result))
        return 0
    finally:
        contention.stop()
        os.chdir(args.out)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
