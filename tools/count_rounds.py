"""Count the lane work of the departure-circle bisection, build by build.

For the torus and `perturbed_torus(0..N-1)` (N = 25 by default) it builds
the flow category and prints, per build:

- runs: classification runs, the calls of `_Analysis._classify_angles`
  (the circle samples, every bisection round and any arc midpoint);
- rounds: the classification runs made from inside `_Analysis._bisect_all`;
- iters: lane iterations, the calls of `_dp_step`, one per iteration of
  every `land_lanes` run, recorded and framed runs included;
- lane-steps: the rows of those calls, lanes summed over iterations.

It wraps the three names from outside, so the same script measures any tree
that has them:

    PYTHONPATH=old/src python tools/count_rounds.py > old.txt
    PYTHONPATH=new/src python tools/count_rounds.py > new.txt
    diff old.txt new.txt

`--seeds N` changes the number of perturbed tori and `--samples K` sets
`circle_samples`.  The counts are deterministic; no timing is taken.
"""

from __future__ import annotations

import argparse
import contextlib

from morseflow import MorseflowError, bank, morse
from morseflow.morse import NumericalConfig, _Analysis, build_flow_category


@contextlib.contextmanager
def counting(tally: dict):
    """Count classification runs, bisection rounds, iterations and lane-steps into `tally`."""
    classify, bisect, step = _Analysis._classify_angles, _Analysis._bisect_all, morse._dp_step
    inside = [0]

    def counted_classify(self, a, thetas):
        tally["runs"] += 1
        tally["rounds"] += inside[0] > 0
        return classify(self, a, thetas)

    def counted_bisect(self, *args, **kwargs):
        inside[0] += 1
        try:
            return bisect(self, *args, **kwargs)
        finally:
            inside[0] -= 1

    def counted_step(comp, x, *args):
        tally["iters"] += 1
        tally["lane-steps"] += len(x)
        return step(comp, x, *args)

    _Analysis._classify_angles = counted_classify
    _Analysis._bisect_all = counted_bisect
    morse._dp_step = counted_step
    try:
        yield tally
    finally:
        _Analysis._classify_angles = classify
        _Analysis._bisect_all = bisect
        morse._dp_step = step


COLUMNS = ("runs", "rounds", "iters", "lane-steps")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=25, help="perturbed tori 0..N-1")
    parser.add_argument("--samples", type=int, default=NumericalConfig().circle_samples)
    args = parser.parse_args(argv)
    cfg = NumericalConfig(circle_samples=args.samples)
    functions = [("torus", bank.torus_function())] + [
        (f"perturbed_torus({s})", bank.perturbed_torus(s)) for s in range(args.seeds)
    ]
    print(f"{'function':<20}" + "".join(f"{c:>12}" for c in COLUMNS))
    total = dict.fromkeys(COLUMNS, 0)
    for name, f in functions:
        with counting(dict.fromkeys(COLUMNS, 0)) as tally:
            try:
                build_flow_category(f, cfg)
            except MorseflowError as exc:
                name += f" [{type(exc).__name__}]"
        print(f"{name:<20}" + "".join(f"{tally[c]:>12}" for c in COLUMNS))
        for c in COLUMNS:
            total[c] += tally[c]
    print(f"{'total':<20}" + "".join(f"{total[c]:>12}" for c in COLUMNS))


if __name__ == "__main__":
    main()
