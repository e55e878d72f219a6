"""Dump every user-visible output of one source tree, for a byte-level diff.

Runs the CLI in-process on every example name, writes each report (exit
code and stdout) and every file the CLI writes under OUT/cli, and writes the
full category JSON with signs and the trajectory CSV of `flow_lines` for the
first N perturbed tori under OUT/perturbed.  Two trees that behave
identically produce identical directories:

    PYTHONPATH=old/src python tools/dump_outputs.py old-out
    PYTHONPATH=new/src python tools/dump_outputs.py new-out
    diff -r old-out new-out
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
from pathlib import Path

from morseflow import InputError, bank, cli
from morseflow.morse import build_flow_category, flow_lines, trajectory_csv

RINGS = ("z", "zmod:2", "q", "laurent:2:1")


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
    finally:
        os.chdir(cwd)


def dump_perturbed(out: Path, count: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for seed in bank.perturbed_torus_seeds(count):
        f = bank.perturbed_torus(seed)
        cat, orientation = build_flow_category(f)
        payload = json.dumps(cat.to_json(orientation), sort_keys=True, indent=2)
        (out / f"seed{seed}.category.json").write_text(payload + "\n")
        (out / f"seed{seed}.csv").write_text(trajectory_csv(flow_lines(f)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="output directory (created)")
    parser.add_argument("--seeds", type=int, default=25, help="perturbed tori to dump")
    parser.add_argument(
        "--cli-seeds", type=int, default=2, help="perturbed tori run through the CLI"
    )
    args = parser.parse_args()
    out = Path(args.out).resolve()
    names = ["circle", "torus", "klein", "rp2"] + [
        f"torus-perturbed:{s}" for s in bank.perturbed_torus_seeds(args.cli_seeds)
    ]
    dump_cli(out / "cli", names)
    dump_perturbed(out / "perturbed", args.seeds)


if __name__ == "__main__":
    main()
