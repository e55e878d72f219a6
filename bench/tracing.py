"""Span tracing of the morseflow package, installed from outside it.

`Tracer.install` wraps every public function of the layer modules and
rebinds the wrapper at every module attribute that held the original, so
calls the package makes to itself (for example `morseflow.bank` calling
`find_critical_points`) are recorded without editing the package.  Spans
(name, start, end, parent) stay in memory until `write`.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("morse", "flowcat", "coeff", "realization", "corners", "bank", "cli")

# Per-layer metrics: name -> (kind, key).  "self" sums self time of the spans
# named `key`, "calls" counts them, "count" reads a counter.  Values are
# reported per traced pass of the workload.
LAYER_METRICS = {
    "morse.find_critical_points.s": ("self", "morse.find_critical_points"),
    "morse.find_critical_points.calls": ("calls", "morse.find_critical_points"),
    "morse.build_flow_category.self_s": ("self", "morse.build_flow_category"),
    "morse.connecting_orbits.saddle_s": ("self", "morse.connecting_orbits.saddle"),
    "morse.connecting_orbits.max_s": ("self", "morse.connecting_orbits.max"),
    "morse.moduli_family.s": ("self", "morse.moduli_family"),
    "morse.flow_lines.s": ("self", "morse.flow_lines"),
    "morse.trajectory_samples": ("count", "morse.trajectory_samples"),
    "flowcat.validate_morse_smale.s": ("self", "flowcat.validate_morse_smale"),
    "flowcat.check_orientation_coherence.s": ("self", "flowcat.check_orientation_coherence"),
    "flowcat.floer_complex.s": ("self", "flowcat.floer_complex"),
    "coeff.homology.self_s": ("self", "coeff.homology"),
    "coeff.invariant_factors.s": ("self", "coeff.invariant_factors"),
    "coeff.invariant_factors.calls": ("calls", "coeff.invariant_factors"),
    "coeff.invariant_factors.entries": ("count", "coeff.invariant_factors.entries"),
    "coeff.smith_normal_form.s": ("self", "coeff.smith_normal_form"),
    "realization.all_homology.self_s": ("self", "realization.all_homology"),
    "realization.realize.s": ("self", "realization.realize"),
    "realization.check_realization.s": ("self", "realization.check_realization"),
    "realization.total_homology.self_s": ("self", "realization.total_homology"),
    "corners.strata.s": ("self", "corners.strata"),
    "corners.face_decomposition.s": ("self", "corners.face_decomposition"),
    "bank.perturbed_torus_seeds.s": ("self", "bank.perturbed_torus_seeds"),
    "cli.main.self_s": ("self", "cli.main"),
    "cli.report_bytes": ("count", "cli.report_bytes"),
}

# Helpers called in inner loops; a span per call would cost more than the work.
UNTRACED = {"morse.torus_distance"}


def _span_name(name: str, args) -> str:
    if name == "morse.connecting_orbits":
        return name + (".saddle" if args[1].index == 1 else ".max")
    return name


def _count(counts: Counter, name: str, args, result) -> None:
    if name == "coeff.invariant_factors":
        counts["coeff.invariant_factors.entries"] += args[0].rows * args[0].cols
    elif name in ("morse.connecting_orbits", "morse.flow_lines"):
        counts["morse.trajectory_samples"] += sum(len(fl.trajectory) for fl in result)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [_span_name(name, args), 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            _count(counts, name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "morseflow" or k.startswith("morseflow.")]
        for layer in LAYERS:
            mod = sys.modules[f"morseflow.{layer}"]
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNTRACED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._wrap(name, fn)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapper)
                            self._undo.append((m, key, fn))

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._undo):
            setattr(m, key, fn)
        self._undo.clear()

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def self_times(self) -> tuple[dict, Counter]:
        """Total self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            total[name] += end - start - inner
            calls[name] += 1
        return total, calls

    def layer_metrics(self, passes: int) -> dict[str, float]:
        total, calls = self.self_times()
        out = {}
        for metric, (kind, key) in LAYER_METRICS.items():
            if kind == "self":
                v = total.get(key, 0.0)
            elif kind == "calls":
                v = calls.get(key, 0)
            else:
                v = self.counts.get(key, 0)
            out[metric] = v / passes
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "names": names,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [code[n], round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
