"""Count the lane work of the departure-circle partitions, build by build.

For the torus and `perturbed_torus(0..N-1)` (N = 25 by default) it builds
the flow category and prints, per build:

- runs: the partition's own lane runs, the calls of
  `_Analysis._classify_angles` (the check runs of a tree whose circle
  samples run apart from the separatrices, the midpoint runs of one whose
  samples ride in the separatrix run);
- check: the lanes that may trap, those whose landing class alone is read,
  wherever they run: the circle samples, and the lanes beside each
  boundary or the arc midpoints that check the partition;
- iters: lane iterations, the calls of `_dp_step`, one per iteration of
  every `land_lanes` run, recorded runs included;
- lane-steps: the rows of those calls, lanes summed over iterations;
- lane-runs: the calls of `_Analysis.land_lanes`, check, midpoint and
  separatrix runs alike;
- shots: the `_dp_step` calls made inside `_Analysis._separatrices`, the
  recorded run of all four separatrices of every saddle (the stable ones
  backward) and the halving of the backward lanes' last steps, which give
  the saddle flows, the boundaries and the flows out of the index-2
  points; `iters` includes them;
- grad-rows: the rows passed to the gradient evaluators of `_Compiled`
  (`grad_batch` and `value_grad_batch`) inside `land_lanes` or inside a
  `_dp_step`, so the halving steps count and the rest of the pipeline
  does not;
- hess-rows: the rows passed to `_Compiled.hess_batch` there, the
  Hessians that carrying a frame along a lane would take.

It wraps those names from outside, so the same script measures any tree
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

import numpy as np

from morseflow import MorseflowError, bank, morse
from morseflow.morse import NumericalConfig, _Analysis, _Compiled, build_flow_category


@contextlib.contextmanager
def counting(tally: dict):
    """Count runs, check lanes, iterations, lane-steps, lane runs, shot iterations and rows."""
    classify, step, land = _Analysis._classify_angles, morse._dp_step, _Analysis.land_lanes
    shots = _Analysis._separatrices
    evaluators = {
        name: (getattr(_Compiled, name), column)
        for name, column in (
            ("grad_batch", "grad-rows"),
            ("value_grad_batch", "grad-rows"),
            ("hess_batch", "hess-rows"),
        )
    }
    shooting, stepping = [0], [0]

    def counted_classify(self, a, thetas):
        tally["runs"] += 1
        return classify(self, a, thetas)

    def counted_shots(self, *args, **kwargs):
        shooting[0] += 1
        try:
            return shots(self, *args, **kwargs)
        finally:
            shooting[0] -= 1

    def counted_land(self, seeds, record=False, trap=False, senses=None):
        tally["lane-runs"] += 1
        tally["check"] += int(np.broadcast_to(trap, len(seeds)).sum())
        stepping[0] += 1
        try:
            return land(self, seeds, record, trap, senses)
        finally:
            stepping[0] -= 1

    def counted_step(comp, x, *args):
        tally["iters"] += 1
        tally["lane-steps"] += len(x)
        tally["shots"] += shooting[0] > 0
        stepping[0] += 1
        try:
            return step(comp, x, *args)
        finally:
            stepping[0] -= 1

    def rows_counted(evaluate, column):
        def counted(comp, x):
            if stepping[0]:
                tally[column] += len(x)
            return evaluate(comp, x)

        return counted

    _Analysis._classify_angles = counted_classify
    morse._dp_step = counted_step
    _Analysis.land_lanes = counted_land
    _Analysis._separatrices = counted_shots
    for name, (evaluate, column) in evaluators.items():
        setattr(_Compiled, name, rows_counted(evaluate, column))
    try:
        yield tally
    finally:
        _Analysis._classify_angles = classify
        morse._dp_step = step
        _Analysis.land_lanes = land
        _Analysis._separatrices = shots
        for name, (evaluate, _) in evaluators.items():
            setattr(_Compiled, name, evaluate)


COLUMNS = (
    "runs", "check", "iters", "lane-steps", "lane-runs", "shots", "grad-rows", "hess-rows"
)


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
