"""Dump every user-visible output of one source tree, for a byte-level diff.

Runs the CLI in-process on every example name, writes each report (exit
code and stdout) and every file the CLI writes under OUT/cli, with the
error reports of the malformed inputs in MALFORMED_CALLS, and writes the
full category JSON with signs for the first N perturbed tori under
OUT/perturbed, and the same with `reverse_orientation` under
OUT/perturbed-reversed, which flips the unstable frames that signs and
family ends are read from.  Under OUT/trajectories it writes every sample of
`flow_lines` of the torus and of those perturbed tori, time and coordinates
as `float.hex`, so a change in the last bit of a recorded trajectory
shows.  Under OUT/partitions it writes
the departure-circle partition of every index-2 point of the torus and of
those perturbed tori: each boundary angle as `float.hex` with its saddle,
and each arc's ends (also `float.hex`) with its landing class, so the
separatrix shots that give the boundaries are compared bit for bit;
OUT/partitions-coarse holds the same at 3 and 5 circle samples, which only
check the boundaries, and a partition that raises is written as
`type: message`.  Under OUT/three-torus it writes the rigid flows that
`_Analysis.saddle_flows` gives out of the saddles on T^3, for the symmetric
cosine sum and one perturbation of it (THREE_TORUS_EXTRA), each at default
and reversed orientation: every flow's id, sign, departure angle and
direction, then every trajectory sample, all floats as `float.hex`; then
one line with the outcome of `connecting_orbits` from p2.0 to p1.0, its
flows' ids and signs or `type: message`.  Under OUT/search it writes, for
each function of SEARCH_CASES, what `find_critical_points` gives: one line
per found point with its id, then position, value and Hessian eigenvalues
as `float.hex`, or `type: message` when the search raises; the cases find
up to 1,600 points, so the passes over found points run at scale.
Under OUT/coeff it writes, for
a fixed-seed set of integer matrices up to 12 x 12, the Smith form with its
transforms, the invariant factors and the homology over every ring of the
two-term complex the matrix defines; the Smith form with its transforms
and the invariant factors of both boundaries of the 6 x 6 triangulated
torus and Klein bottle, whose elimination fills in; and the `realize`
reports of that torus and of the small complexes in REALIZE_CASES, which
cover the error paths of `realize`.  Two trees that behave identically
produce identical directories:

    PYTHONPATH=old/src python tools/dump_outputs.py old-out
    PYTHONPATH=new/src python tools/dump_outputs.py new-out
    diff -r old-out new-out

`--only SECTION` (repeatable) writes only the named top-level directories,
for example `--only coeff` for the exact layer alone, which takes seconds
instead of the minutes the perturbed tori take.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from morseflow import (
    ChainComplexData,
    CoefficientRing,
    IntegerMatrix,
    InputError,
    MorseflowError,
    TrigPolynomial,
    TrigTerm,
    all_homology,
    bank,
    cli,
    invariant_factors,
    smith_normal_form,
)
from morseflow.morse import (
    NumericalConfig,
    _Analysis,
    build_flow_category,
    connecting_orbits,
    find_critical_points,
    flow_lines,
)

RINGS = ("z", "zmod:2", "zmod:6", "zmod:12", "q", "laurent:2:1")
SECTIONS = (
    "coeff",
    "cli",
    "perturbed",
    "perturbed-reversed",
    "trajectories",
    "partitions",
    "partitions-coarse",
    "three-torus",
    "search",
)
# Entry pools: dense small integers, sparse +-1 (all unit pivots), and
# sparse entries that leave a dense remainder with torsion.
ENTRY_POOLS = (tuple(range(-9, 10)), (0, 0, 0, 0, 1, -1), (0, 0, 0, 1, -1, 2, 3, 6, -4))
# Four levels with d1 = 1: a skip component (3, 1) then breaks the square.
_LEVELS = {"bases": [["a"], ["b"], ["c"], ["d"]], "boundaries": [[[1]], [[0]], [[0]]]}
_ADJACENT = {"1,0": [[1]], "2,1": [[0]], "3,2": [[0]]}
REALIZE_CASES = {
    "composite-nonzero": {"bases": [["x"], ["y"], ["z"]], "boundaries": [[[1]], [[1]]]},
    "square-defect": {**_LEVELS, "ring": "z", "components": {**_ADJACENT, "3,1": [[1]]}},
    "component-shape": {**_LEVELS, "components": {**_ADJACENT, "2,0": [[1], [1]]}},
    "no-ring-key": {**_LEVELS, "components": {**_ADJACENT, "3,0": [[5]]}},
}
# Inputs the CLI refuses with exit 1 and an error report.  The function
# file's non-ASCII name is a key of the report's `inputs`, written escaped.
MALFORMED_FILES = {
    "bad.json": "{not json",
    "nan.config.json": '{"grid_resolution": NaN}',
    "fonction-\u00e9t\u00e9.json": '{"dim": 1, "terms": 3}',
}
MALFORMED_CALLS = {
    "bad-json": ["crit", "--function", "bad.json"],
    "bad-json-category": ["validate", "--category", "bad.json"],
    "unknown-ring": ["homology", "--example", "torus", "--ring", "w"],
    "unknown-example": ["validate", "--example", "nope"],
    "nan-config": ["orbits", "--example", "torus", "--config", "nan.config.json"],
    "non-ascii-function": ["crit", "--function", "fonction-\u00e9t\u00e9.json"],
}
# Terms added to cos 2 pi x + cos 2 pi y + cos 2 pi z for the perturbed T^3
# function; its eight critical points keep their indices.
THREE_TORUS_EXTRA = (
    TrigTerm((1, 1, 0), Fraction(1, 20), Fraction(-1, 50)),
    TrigTerm((0, 1, -1), Fraction(0), Fraction(1, 25)),
    TrigTerm((1, 0, 2), Fraction(-3, 100), Fraction(1, 100)),
)

_COS20 = TrigPolynomial(2, (TrigTerm((20, 0), Fraction(1)), TrigTerm((0, 20), Fraction(1))))
_SHEARS = {"shear": ((1, 1), (0, 1)), "steep": ((1, 0), (2, 1))}
# (function, grid_resolution) per case: cos 2 pi 20x + cos 2 pi 20y, whose
# 1,600 critical points only the grid of 64 resolves; the anisotropic
# pullbacks of two perturbed tori; and the tilted torus at its saddle
# connection.
SEARCH_CASES = {
    **{f"cos20-grid{res}": (_COS20, res) for res in (8, 32, 64)},
    **{
        f"perturbed{seed}-{name}": (bank.pullback(bank.perturbed_torus(seed), a), 32)
        for seed in (0, 3)
        for name, a in _SHEARS.items()
    },
    "tilted0": (bank.tilted_upright_torus(0), 32),
}


def _run(out: Path, label: str, argv: list[str]) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    (out / f"{label}.report").write_text(f"exit {rc}\n{buf.getvalue()}")


def _extremes(name: str) -> tuple[str, str]:
    try:
        cat, _ = bank.example_category(name)
    except InputError:  # perturbed examples have no authored category
        return "p2.0", "p0.0"
    objs = sorted(cat.objects, key=lambda o: (cat.index[o], o))
    return objs[-1], objs[0]


def dump_cli(out: Path, names: list[str]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    Path(out / "reverse.config.json").write_text('{"reverse_orientation": true}')
    cwd = os.getcwd()
    os.chdir(out)
    try:
        _run(out, "examples", ["examples"])
        for name in names:
            stem = name.replace(":", "-")
            ex = ["--example", name]
            _run(out, f"{stem}.examples", ["examples", "--name", name, "--out", "."])
            _run(out, f"{stem}.crit", ["crit", *ex])
            for ring in RINGS:
                _run(out, f"{stem}.homology-{ring}", ["homology", *ex, "--ring", ring])
            _run(out, f"{stem}.validate", ["validate", *ex])
            top, bottom = _extremes(name)
            _run(out, f"{stem}.strata", ["strata", *ex, top, bottom])
            _run(
                out,
                f"{stem}.orbits",
                ["orbits", *ex, "--csv", f"{stem}.csv", "--svg", f"{stem}.svg"],
            )
            _run(
                out,
                f"{stem}.orbits-reversed",
                ["orbits", *ex, "--config", "reverse.config.json"],
            )
            fn_file, cat_file = f"{stem}.function.json", f"{stem}.category.json"
            if Path(fn_file).exists():
                _run(out, f"{stem}.homology-function", ["homology", "--function", fn_file])
                _run(out, f"{stem}.validate-function", ["validate", "--function", fn_file])
            if Path(cat_file).exists():
                _run(out, f"{stem}.validate-category", ["validate", "--category", cat_file])
        for name, text in MALFORMED_FILES.items():
            Path(name).write_text(text, encoding="utf-8")
        for label, argv in MALFORMED_CALLS.items():
            _run(out, f"malformed.{label}", argv)
    finally:
        os.chdir(cwd)


def _tori(count: int) -> list:
    return [("torus", bank.torus_function())] + [
        (f"seed{seed}", bank.perturbed_torus(seed))
        for seed in bank.perturbed_torus_seeds(count)
    ]


def dump_perturbed(
    out: Path, count: int, cfg: NumericalConfig = NumericalConfig()
) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for seed in bank.perturbed_torus_seeds(count):
        cat, orientation = build_flow_category(bank.perturbed_torus(seed), cfg)
        payload = json.dumps(cat.to_json(orientation), sort_keys=True, indent=2)
        (out / f"seed{seed}.category.json").write_text(payload + "\n")


def _samples(fl) -> list[str]:
    """One line per trajectory sample of flow `fl`: id, time and point as `float.hex`."""
    return [f"{fl.id} {t.hex()} " + " ".join(v.hex() for v in pos) for t, pos in fl.trajectory]


def dump_trajectories(out: Path, count: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, f in _tori(count):
        lines = [line for fl in flow_lines(f) for line in _samples(fl)]
        (out / f"{name}.txt").write_text("\n".join(lines) + "\n")


def dump_partitions(
    out: Path, count: int, cfg: NumericalConfig = NumericalConfig()
) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, f in _tori(count):
        analysis = _Analysis(f, cfg)
        lines = []
        for p in analysis.points:
            if p.index != 2:
                continue
            try:
                arcs = analysis.partition(p)
            except MorseflowError as exc:
                lines.append(f"{p.id} {type(exc).__name__}: {exc}")
                continue
            for arc in arcs:  # each arc starts at a boundary and breaks there at its saddle
                lines.append(f"{p.id} boundary {arc.start.hex()} {arc.ends[0].via}")
            for arc in arcs:
                sink, offset = arc.landing_class
                lines.append(
                    f"{p.id} arc {arc.start.hex()} {arc.end.hex()} {sink} {list(offset)}"
                )
        (out / f"{name}.txt").write_text("\n".join(lines) + "\n")


def dump_three_torus(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    axes = tuple(TrigTerm(tuple(int(i == j) for j in range(3)), Fraction(1)) for i in range(3))
    functions = {
        "symmetric": TrigPolynomial(3, axes),
        "perturbed": TrigPolynomial(3, axes + THREE_TORUS_EXTRA),
    }
    orientations = {"": NumericalConfig(), "-reversed": NumericalConfig(reverse_orientation=True)}
    for name, f in functions.items():
        for suffix, cfg in orientations.items():
            analysis = _Analysis(f, cfg)
            lines = []
            for fl in analysis.saddle_flows([p for p in analysis.points if p.index == 1]):
                angle = "none" if fl.departure_angle is None else fl.departure_angle.hex()
                direction = " ".join(v.hex() for v in fl.departure_direction)
                lines.append(f"{fl.id} sign {fl.sign} angle {angle} direction {direction}")
                lines += _samples(fl)
            top, saddle = analysis.by_id["p2.0"], analysis.by_id["p1.0"]
            try:
                flows = connecting_orbits(f, top, saddle, cfg, analysis.points)
            except MorseflowError as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            else:
                outcome = " ".join(f"{fl.id} sign {fl.sign}" for fl in flows)
            lines.append(f"connecting_orbits p2.0 p1.0: {outcome}")
            (out / f"{name}{suffix}.txt").write_text("\n".join(lines) + "\n")


def dump_search(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, (f, res) in SEARCH_CASES.items():
        try:
            points = find_critical_points(f, NumericalConfig(grid_resolution=res))
        except MorseflowError as exc:
            lines = [f"{type(exc).__name__}: {exc}"]
        else:
            lines = [
                " ".join([p.id] + [v.hex() for v in (*p.position, p.value, *p.hessian_eigenvalues)])
                for p in points
            ]
        (out / f"{name}.txt").write_text("\n".join(lines) + "\n")


def _smith_record(a: IntegerMatrix) -> dict:
    u, d, v = smith_normal_form(a)
    return {
        "a": a.to_json(),
        "u": u.to_json(),
        "d": d.to_json(),
        "v": v.to_json(),
        "invariantFactors": invariant_factors(a),
    }


def dump_coeff(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(0)
    for k in range(90):
        m, n = rng.randint(0, 12), rng.randint(0, 12)
        pool = ENTRY_POOLS[k % len(ENTRY_POOLS)]
        a = IntegerMatrix([[rng.choice(pool) for _ in range(n)] for _ in range(m)], cols=n)
        cx = ChainComplexData(
            (tuple(f"r{i}" for i in range(m)), tuple(f"c{j}" for j in range(n))), (a,)
        )
        record = _smith_record(a)
        record["homology"] = {
            ring: [g.to_json() for g in all_homology(cx, CoefficientRing.parse(ring))]
            for ring in RINGS
        }
        (out / f"matrix{k:02d}.json").write_text(json.dumps(record, sort_keys=True) + "\n")
    # The grid triangulation lives with the tests that check its homology.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    from test_realization import grid_surface

    for kind in ("torus", "klein"):
        for i, a in enumerate(grid_surface(6, klein=kind == "klein").boundaries):
            payload = json.dumps(_smith_record(a), sort_keys=True)
            (out / f"smith-{kind}6-d{i + 1}.json").write_text(payload + "\n")
    (out / "torus6.json").write_text(json.dumps(grid_surface(6).to_json()))
    for name, payload in REALIZE_CASES.items():
        (out / f"{name}.json").write_text(json.dumps(payload))
    cwd = os.getcwd()
    os.chdir(out)  # the report names the input file as given
    try:
        for ring in RINGS:
            argv = ["realize", "--complex", "torus6.json", "--ring", ring]
            _run(out, f"torus6.realize-{ring}", argv)
        for name in REALIZE_CASES:
            argv = ["realize", "--complex", f"{name}.json", "--ring", "zmod:2"]
            _run(out, f"{name}.realize", argv)
    finally:
        os.chdir(cwd)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="output directory (created)")
    parser.add_argument("--seeds", type=int, default=25, help="perturbed tori to dump")
    parser.add_argument(
        "--cli-seeds", type=int, default=2, help="perturbed tori run through the CLI"
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=SECTIONS,
        help="write only this section (repeatable; default: all)",
    )
    args = parser.parse_args()
    out = Path(args.out).resolve()
    only = set(args.only or SECTIONS)
    names = ["circle", "torus", "klein", "rp2"] + [
        f"torus-perturbed:{s}" for s in bank.perturbed_torus_seeds(args.cli_seeds)
    ]
    if "coeff" in only:
        dump_coeff(out / "coeff")
    if "cli" in only:
        dump_cli(out / "cli", names)
    if "perturbed" in only:
        dump_perturbed(out / "perturbed", args.seeds)
    if "perturbed-reversed" in only:
        reversed_cfg = NumericalConfig(reverse_orientation=True)
        dump_perturbed(out / "perturbed-reversed", args.seeds, reversed_cfg)
    if "trajectories" in only:
        dump_trajectories(out / "trajectories", args.seeds)
    if "partitions" in only:
        dump_partitions(out / "partitions", args.seeds)
    if "partitions-coarse" in only:
        for samples in (3, 5):
            coarse = NumericalConfig(circle_samples=samples)
            dump_partitions(out / "partitions-coarse" / f"samples{samples}", args.seeds, coarse)
    if "three-torus" in only:
        dump_three_torus(out / "three-torus")
    if "search" in only:
        dump_search(out / "search")


if __name__ == "__main__":
    main()
