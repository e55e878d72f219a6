"""Count the lane work of the departure-circle partitions and the critical-point search.

For the torus and `perturbed_torus(0..N-1)` (N = 25 by default) it builds
the flow category and prints, per build:

- runs: the partition's own lane runs, the calls of
  `_Analysis._classify_angles`, the midpoint runs of the arcs that no
  circle sample checks;
- check: the lanes that may trap, those whose landing class alone is read,
  wherever they run: the circle samples, and the lanes beside each
  boundary or the arc midpoints that check the partition;
- iters: lane iterations, the calls of `_taylor_jet`, one per iteration
  of every `land_lanes` run, recorded runs included;
- lane-steps: the rows of those calls, lanes summed over iterations;
- lane-runs: the calls of `_Analysis.land_lanes`, check, midpoint and
  separatrix runs alike;
- shots: the `_taylor_jet` calls made inside `_Analysis._separatrices`,
  the recorded run of all four separatrices of every saddle (the stable
  ones backward), which gives the saddle flows, the boundaries and the
  flows out of the index-2 points; `iters` includes them;
- grad-rows: the rows passed to the evaluators of `_Compiled` that take
  the cos and sin of the phases (`grad_batch` and `trig_batch`) inside
  `land_lanes`, so the rest of the pipeline does not count;
- jet-rows: the rows passed to `_taylor_jet`, each a Taylor series of the
  tree's order;
- cross-rows: the evaluator and jet rows of the refinement of the crossing
  of the departure circles, those inside `morse._crossing`; it reads the
  step polynomials the backward lanes kept (`_Landing.entry`), so a tree
  that evaluates nothing there counts 0;
- recorded, only with `--recorded`: the lane iterations in which a lane
  that does not trap still runs, those of a run of the recorded lanes
  alone (each lane takes one step attempt per iteration, so it leaves a
  run at the same iteration in any batch), made outside the other counts.
  A recorded lane stops at its first point in the ball of a sink of its
  flow: a forward one in its sink's certificate ball, a backward one
  inside the departure sphere it crosses.  Where `recorded` is below
  `iters`, a check lane sets the length of the run.

A second table counts the critical-point search of each build, and of the
cosine sum on T^3, from the evaluator calls made inside
`find_critical_points`:

- grid: the rows of the search's first gradient call, the seed grid;
- seeds: the rows the Newton loop starts from, those of the gradient call
  before the first Hessian call, the live cells;
- newton-iters and newton-rows: the Hessian calls of the Newton loop and
  their rows, every Hessian call but the last, which gives the
  eigenvalues of the found points;
- cells: the cells the certificate examines at each depth, the live cells
  it starts from and then the rows of each of its gradient calls, joined
  by `/`.

It wraps those names from outside, so the same script measures any tree
that has them:

    PYTHONPATH=old/src python tools/count_rounds.py > old.txt
    PYTHONPATH=new/src python tools/count_rounds.py > new.txt
    diff old.txt new.txt

`--seeds N` changes the number of perturbed tori, `--samples K` sets
`circle_samples` and `--recorded` adds the `recorded` column.  The counts
are deterministic; no timing is taken.
"""

from __future__ import annotations

import argparse
import contextlib

import numpy as np

from morseflow import MorseflowError, bank, morse
from morseflow.morse import (
    NumericalConfig,
    TrigPolynomial,
    TrigTerm,
    _Analysis,
    _Compiled,
    build_flow_category,
)


@contextlib.contextmanager
def counting(tally: dict, search: list):
    """Count runs, check lanes, iterations, lane-steps, lane runs, shot iterations and rows.

    The evaluator calls made inside the critical-point search are appended
    to `search` as (column, rows), with column "cells" inside the
    certificate.  With a "recorded" column in `tally`, each `land_lanes`
    run with recorded lanes is run again with those alone, and its
    iterations go to that column only.
    """
    classify, land = _Analysis._classify_angles, _Analysis.land_lanes
    shots, step = _Analysis._separatrices, morse._taylor_jet
    find, certify, crossing = morse.find_critical_points, morse._certify, morse._crossing
    # The Hessian rows are logged for the search alone.
    evaluators = {
        name: (getattr(_Compiled, name), column)
        for name, column in (
            ("grad_batch", "grad-rows"),
            ("trig_batch", "grad-rows"),
            ("hess_batch", "hess"),
        )
    }
    shooting, landing, refining, replaying = [0], [0], [0], [False]
    finding, certifying = [False], [False]

    def counted_classify(self, a, thetas):
        tally["runs"] += 1
        return classify(self, a, thetas)

    def nested(flag, call):
        def counted(*args, **kwargs):
            flag[0] += 1
            try:
                return call(*args, **kwargs)
            finally:
                flag[0] -= 1

        return counted

    # Every caller passes `trap` by keyword; the rest is forwarded as given,
    # so trees whose `land_lanes` takes other parameters count alike.
    def counted_land(self, seeds, *args, **kwargs):
        traps = np.broadcast_to(kwargs.get("trap", False), len(seeds))
        tally["lane-runs"] += 1
        tally["check"] += int(traps.sum())
        out = nested(landing, land)(self, seeds, *args, **kwargs)
        if "recorded" in tally and not traps.all():
            kept = np.flatnonzero(~traps)
            senses = kwargs.get("senses")
            alone = dict(kwargs, trap=False)
            if senses is not None:
                alone["senses"] = np.asarray(senses)[kept]
            replaying[0] = True
            try:
                land(self, np.asarray(seeds, dtype=float)[kept], *args, **alone)
            finally:
                replaying[0] = False
        return out

    def refinement(rows):
        if refining[0]:
            tally["cross-rows"] += rows

    def counted_step(comp, cs, *args):
        if replaying[0]:
            tally["recorded"] += 1
            return step(comp, cs, *args)
        rows = cs.shape[-1]
        tally["iters"] += 1
        tally["lane-steps"] += rows
        tally["shots"] += shooting[0] > 0
        tally["jet-rows"] += rows
        refinement(rows)
        return step(comp, cs, *args)

    def counted_find(*args, **kwargs):
        finding[0] = True
        try:
            return find(*args, **kwargs)
        finally:
            finding[0] = False

    def counted_certify(comp, cells, *args):
        search.append(("cells", len(cells)))
        certifying[0] = True
        try:
            return certify(comp, cells, *args)
        finally:
            certifying[0] = False

    def rows_counted(evaluate, column):
        def counted(comp, x):
            if replaying[0]:
                return evaluate(comp, x)
            if landing[0] and column in tally:
                tally[column] += len(x)
            refinement(len(x))
            if finding[0]:
                search.append(("cells" if certifying[0] else column, len(x)))
            return evaluate(comp, x)

        return counted

    _Analysis._classify_angles = counted_classify
    morse._taylor_jet = counted_step
    _Analysis.land_lanes = counted_land
    _Analysis._separatrices = nested(shooting, shots)
    morse._crossing = nested(refining, crossing)
    morse.find_critical_points = counted_find
    morse._certify = counted_certify
    for name, (evaluate, column) in evaluators.items():
        setattr(_Compiled, name, rows_counted(evaluate, column))
    try:
        yield tally
    finally:
        _Analysis._classify_angles = classify
        morse._taylor_jet = step
        _Analysis.land_lanes = land
        _Analysis._separatrices = shots
        morse._crossing = crossing
        morse.find_critical_points = find
        morse._certify = certify
        for name, (evaluate, _) in evaluators.items():
            setattr(_Compiled, name, evaluate)


COLUMNS = (
    "runs",
    "check",
    "iters",
    "lane-steps",
    "lane-runs",
    "shots",
    "grad-rows",
    "jet-rows",
    "cross-rows",
)
SEARCH_COLUMNS = ("grid", "seeds", "newton-iters", "newton-rows", "cells")


def search_counts(search: list) -> dict:
    """The search columns from the (column, rows) log of one search."""
    hess = [i for i, (column, _) in enumerate(search) if column == "hess"]
    cells = [str(rows) for column, rows in search if column == "cells"]
    return {
        "grid": search[0][1],
        "seeds": next(r for c, r in reversed(search[: hess[0]]) if c == "grad-rows"),
        "newton-iters": len(hess) - 1,
        "newton-rows": sum(search[i][1] for i in hess[:-1]),
        "cells": "/".join(cells),
    }


def three_torus_cosine_sum() -> TrigPolynomial:
    """cos 2 pi x + cos 2 pi y + cos 2 pi z, with eight critical points."""
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return TrigPolynomial(3, tuple(TrigTerm(k, 1) for k in axes))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=25, help="perturbed tori 0..N-1")
    parser.add_argument("--samples", type=int, default=NumericalConfig().circle_samples)
    parser.add_argument(
        "--recorded",
        action="store_true",
        help="add the iterations in which a lane that does not trap still runs",
    )
    args = parser.parse_args(argv)
    columns = COLUMNS + ("recorded",) * args.recorded
    cfg = NumericalConfig(circle_samples=args.samples)
    functions = [("torus", bank.torus_function())] + [
        (f"perturbed_torus({s})", bank.perturbed_torus(s)) for s in range(args.seeds)
    ]
    print(f"{'function':<20}" + "".join(f"{c:>12}" for c in columns))
    total = dict.fromkeys(columns, 0)
    searches = []
    for name, f in functions:
        search: list = []
        with counting(dict.fromkeys(columns, 0), search) as tally:
            try:
                build_flow_category(f, cfg)
            except MorseflowError as exc:
                name += f" [{type(exc).__name__}]"
        print(f"{name:<20}" + "".join(f"{tally[c]:>12}" for c in columns))
        for c in columns:
            total[c] += tally[c]
        searches.append((name, search))
    print(f"{'total':<20}" + "".join(f"{total[c]:>12}" for c in columns))

    search = []
    with counting(dict.fromkeys(COLUMNS, 0), search):
        morse.find_critical_points(three_torus_cosine_sum(), cfg)
    searches.append(("three-torus cosines", search))
    print()
    print(f"{'search':<20}" + "".join(f"{c:>14}" for c in SEARCH_COLUMNS))
    total = dict.fromkeys(SEARCH_COLUMNS[:-1], 0)
    for name, search in searches:
        counts = search_counts(search)
        print(f"{name:<20}" + "".join(f"{counts[c]:>14}" for c in SEARCH_COLUMNS))
        for c in total:
            total[c] += counts[c]
    print(f"{'total':<20}" + "".join(f"{total[c]:>14}" for c in SEARCH_COLUMNS[:-1]))


if __name__ == "__main__":
    main()
