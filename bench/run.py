"""Benchmark of the morseflow package: three in-process workloads.

    python3 bench/run.py --workload torus-builds --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports the package from its `src/`.
Each workload runs alone, in its own single-threaded process (numpy/BLAS
pinned to one thread), as a closed loop of whole passes over its items.
With `--trace 0` it prints the end-to-end metrics: `setup_s` is the median
over five processes (four that stop at the first timed item, plus the
measured one), the rest come from the measured process.  With `--trace 1`
it makes one separate traced run and prints the per-layer metrics and the
tracing overhead.  Without `--workload` it runs all three, one at a time.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Raw results and traces go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("torus-builds", "homology-grid", "cli-session")
END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "item_s.p50": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{m: "s" if kind == "self" else "count" for m, (kind, _) in LAYER_METRICS.items()},
    "trace.overhead_items_per_s": "1/s",
}
SETUP_ONLY = 4  # extra processes per run that stop at the first timed item
DEADLINE_S = 170.0  # one workload, set-up processes included


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def spawn(workload, seed, seconds, mode, size, deadline) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError(f"{workload}: out of time before the {mode} process")
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--size", size, "--out", str(OUT),
    ]
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(time.monotonic())],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload}: {mode} process overran the deadline") from None
    finally:
        for stale in OUT.glob(f"work-{workload}-*"):
            shutil.rmtree(stale, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload}: {mode} process exited {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, size) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        raw = spawn(workload, seed, seconds, "trace", size, deadline)
        metrics = {m: {"value": raw["layers"][m], "unit": u} for m, u in PER_LAYER.items()}
    else:
        setups = [spawn(workload, seed, seconds, "setup", size, deadline) for _ in range(SETUP_ONLY)]
        raw = spawn(workload, seed, seconds, "run", size, deadline)
        setups.append(raw)
        raw["setup_samples_s"] = [s["setup_s"] for s in setups]
        raw["wall_setup_samples_s"] = [s["wall_setup_s"] for s in setups]
        raw["wall_setup_s"] = statistics.median(raw["wall_setup_samples_s"])
        values = dict(raw, setup_s=statistics.median(raw["setup_samples_s"]))
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(raw))
    info = {k: raw[k] for k in ("wall_setup_s", "wall_items_per_s", "wall_item_s.p50", "reference_s.p50") if k in raw and not trace}
    return {
        "info": info,
        "correct": not raw["errors"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
        "errors": raw["errors"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all three)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    args = ap.parse_args()

    if not (ROOT / "src" / "morseflow" / "__init__.py").is_file():
        print(f"error: no morseflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    selected = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for w in selected:
            results[w] = run_workload(w, args.seed, args.seconds, bool(args.trace), args.size)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for w, res in results.items():
        for name, m in res["metrics"].items():
            print(f"{w:14} {name:40} {m['value']:.6g} {m['unit']}")
        for name, value in res["info"].items():
            print(f"{w:14} {name:40} {value:.6g} (unscaled)")
        print(f"{w:14} {'attempted':40} {res['attempted']}")
        print(f"{w:14} {'failed':40} {res['failed']}")
        for err in res["errors"]:
            print(f"{w:14} CHECK FAILED: {err}")
    if args.workload:
        res = results[args.workload]
        metrics = res["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, res in results.items() for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
