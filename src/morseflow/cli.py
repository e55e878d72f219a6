"""Command-line pipeline: analysis, validation, homology, and reports.

Every invocation prints exactly one JSON report to stdout with the command
echo, sha256 digests of the inputs, a results payload, warnings, and a
status string.  Exit codes: 0 on success, 1 for malformed input, 2 when a
mathematical validity check fails.  Output ordering is fixed, so reports
for identical inputs are byte-identical.  Reports and the files `examples`
writes keep the layout of `json.dumps(..., sort_keys=True, indent=2)`,
byte for byte, and are written by this module's own writer.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

from . import bank
from .coeff import CoefficientRing
from .corners import face_decomposition, strata, strata_report_json
from .errors import InputError, ValidationFailure
from .flowcat import (
    FlowCategory,
    OrientationData,
    check_orientation_coherence,
    floer_complex,
    validate_morse_smale,
)
from .morse import (
    NumericalConfig,
    TrigPolynomial,
    build_flow_category,
    find_critical_points,
    flow_lines,
    trajectories_svg,
    trajectory_csv,
)
from .realization import (
    ChainComplexData,
    FilteredRealization,
    all_homology,
    check_realization,
    realize,
    total_homology,
)

CONFIG_ENV = "MORSEFLOW_CONFIG"


class _ReportedFailure(ValidationFailure):
    """Validation failure that already carries a structured results payload."""

    def __init__(self, message: str, results: dict):
        super().__init__(message)
        self.results = results


class _HelpRequested(Exception):
    """`-h` or `--help`: the help text, reported as an ordinary result."""


class _Parser(argparse.ArgumentParser):
    def _get_formatter(self):  # fixed width: help does not depend on the terminal
        return self.formatter_class(prog=self.prog, width=80)

    def error(self, message):
        raise InputError(message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


# -- input plumbing ---------------------------------------------------------


def _read_json(path: str, inputs: dict) -> object:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    inputs[path] = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"bad JSON in {path}: {exc}") from None


def _note_example(name: str, inputs: dict):
    inputs[f"example:{name}"] = hashlib.sha256(name.encode("utf-8")).hexdigest()


def _load_config(args, inputs: dict) -> NumericalConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if not path:
        return NumericalConfig()
    data = _read_json(path, inputs)
    if not isinstance(data, dict):
        raise InputError(f"config {path} must hold a JSON object")
    return NumericalConfig.from_json(data)


def _load_function(args, inputs: dict) -> TrigPolynomial:
    if getattr(args, "function", None):
        data = _read_json(args.function, inputs)
        return TrigPolynomial.from_json(data)
    if getattr(args, "example", None):
        _note_example(args.example, inputs)
        return bank.example_function(args.example)
    raise InputError("provide --function FILE or --example NAME")


def _load_category(args, inputs: dict) -> tuple[FlowCategory, OrientationData]:
    """Category from a file, an authored example, or a numerical build.

    The config is read and checked first, whichever source is used, so a
    bad config fails every command alike and a good one is listed in
    `inputs` even when the category is not built.
    """
    cfg = _load_config(args, inputs)
    if getattr(args, "category", None):
        data = _read_json(args.category, inputs)
        return FlowCategory.from_json(data)
    if getattr(args, "example", None):
        _note_example(args.example, inputs)
        name = args.example
        if name.startswith("torus-perturbed:"):
            return build_flow_category(bank.example_function(name), cfg)
        return bank.example_category(name)
    if getattr(args, "function", None):
        return build_flow_category(_load_function(args, inputs), cfg)
    raise InputError("provide --category FILE, --function FILE, or --example NAME")


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _group_json(g) -> dict:
    out = {"freeRank": g.free_rank, "torsion": list(g.torsion), "group": str(g)}
    if g.graded is not None:
        out["graded"] = [[p, str(part)] for p, part in g.graded]
    return out


# -- subcommand handlers ----------------------------------------------------


def _cmd_crit(args, inputs, warnings) -> dict:
    cfg = _load_config(args, inputs)
    f = _load_function(args, inputs)
    points = find_critical_points(f, cfg)
    counts: dict[int, int] = {}
    for p in points:
        counts[p.index] = counts.get(p.index, 0) + 1
    signed = sum((-1) ** p.index for p in points)
    return {
        "criticalPoints": [
            {
                "id": p.id,
                "position": list(p.position),
                "value": p.value,
                "index": p.index,
                "minAbsEigenvalue": min(abs(e) for e in p.hessian_eigenvalues),
            }
            for p in points
        ],
        "countsByIndex": {str(k): v for k, v in sorted(counts.items())},
        "eulerCheck": {"signedCount": signed, "passed": signed == 0},
    }


def _cmd_homology(args, inputs, warnings) -> dict:
    ring = CoefficientRing.parse(args.ring)
    cat, orientation = _load_category(args, inputs)
    extract = floer_complex(cat, orientation, base=args.base, strict=False)
    if extract.grading_offset:
        warnings.append(
            f"gradings shifted by {-extract.grading_offset} to stay nonnegative"
        )
    cx = extract.complex
    groups = all_homology(cx, ring)
    return {
        "ring": ring.spec_string(),
        "base": extract.base_object,
        "gradingOffset": extract.grading_offset,
        "bases": [list(b) for b in cx.bases],
        "boundaries": [d.to_json() for d in cx.boundaries],
        "homology": [
            {"degree": i, **_group_json(g)} for i, g in enumerate(groups)
        ],
    }


def _cmd_validate(args, inputs, warnings) -> dict:
    cat, orientation = _load_category(args, inputs)
    ms = validate_morse_smale(cat)
    coh = check_orientation_coherence(cat, orientation)
    results = {
        "objects": len(cat.objects),
        "rigidFlows": len(cat.rigid_flows),
        "moduliFamilies": len(cat.moduli),
        "morseSmale": ms.to_json(),
        "orientation": coh.to_json(),
        "passed": ms.passed and coh.passed,
    }
    if not (ms.passed and coh.passed):
        raise _ReportedFailure("validation failed", results)
    return results


def _cmd_strata(args, inputs, warnings) -> dict:
    cat, _ = _load_category(args, inputs)
    results = strata_report_json(cat, args.a, args.b)
    gap = cat.mu(args.a) - cat.mu(args.b)
    faces = []
    for j in range(1, gap):
        groups = face_decomposition(cat, args.a, args.b, j)
        faces.append(
            {
                "j": j,
                "groups": [
                    {"via": c, "chains": [list(ch.objects) for ch in chains]}
                    for c, chains in groups.items()
                ],
            }
        )
    results["faces"] = faces
    return results


def _cmd_realize(args, inputs, warnings) -> dict:
    CoefficientRing.parse(args.ring)  # a bad code fails before the file is read
    # A file's own "ring" is the ring; --ring applies to a file without one.
    data = _read_json(args.complex, inputs)
    if not isinstance(data, dict):
        raise InputError("complex file must hold a JSON object")
    if "components" in data:
        x = FilteredRealization.from_json({"ring": args.ring, **data})
        cx = x.complex
        defects = x.total_square_defects()
        if defects:
            raise _ReportedFailure(
                f"total differential square nonzero at {defects}",
                {"squareDefects": [list(d) for d in defects]},
            )
    else:
        cx = ChainComplexData.from_json(data)
        x = realize(cx, CoefficientRing.parse(data.get("ring", args.ring)))
    rep = check_realization(x, cx)
    results = {
        "ring": x.ring.spec_string(),
        "levels": [len(b) for b in cx.bases],
        "components": {
            f"{p},{q}": mat.to_json() for (p, q), mat in sorted(x.components.items())
        },
        "checks": rep.to_json(),
        "totalHomology": _group_json(total_homology(x)),
        "passed": rep.passed,
    }
    if not rep.passed:
        raise _ReportedFailure("realization checks failed", results)
    return results


def _cmd_examples(args, inputs, warnings) -> dict:
    results: dict = {"names": bank.example_names()}
    if not args.name:
        return results
    name = args.name
    _note_example(name, inputs)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create {out_dir}: {exc}") from None
    stem = name.replace(":", "-")
    written = []

    def emit(path: Path, payload: dict):
        _write_text(path, _report_text(payload) + "\n")
        written.append(str(path))

    wrote_any = False
    try:
        f = bank.example_function(name)
    except InputError:
        pass
    else:
        emit(out_dir / f"{stem}.function.json", f.to_json())
        wrote_any = True
    try:
        cat, orientation = bank.example_category(name)
    except InputError:
        pass
    else:
        emit(out_dir / f"{stem}.category.json", cat.to_json(orientation))
        wrote_any = True
    if not wrote_any:
        raise InputError(f"unknown example {name!r}; known: {results['names']}")
    results["written"] = written
    return results


def _cmd_orbits(args, inputs, warnings) -> dict:
    cfg = _load_config(args, inputs)
    f = _load_function(args, inputs)
    flows = flow_lines(f, cfg)
    written = []
    if args.svg:
        _write_text(Path(args.svg), trajectories_svg(flows))
        written.append(args.svg)
    if args.csv:
        _write_text(Path(args.csv), trajectory_csv(flows))
        written.append(args.csv)
    return {
        "flows": [
            {
                "id": fl.id,
                "source": fl.source,
                "target": fl.target,
                "sign": fl.sign,
                "latticeOffset": list(fl.lattice_offset),
                "samples": len(fl.trajectory),
            }
            for fl in flows
        ],
        "written": written,
    }


# -- parser and entry point -------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on first use and shared by every later `main` call.

    Parsing reads the parser and never changes it: each call fills a fresh
    namespace, and errors and help leave by exceptions, so a call's report
    does not depend on the calls before it.
    """
    parser = _Parser(prog="morseflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_function_args(p):
        p.add_argument("--function", help="function JSON file")
        p.add_argument("--example", help="named example (see `examples`)")
        p.add_argument("--config", help="numerical configuration JSON file")

    p = sub.add_parser("crit", help="find and classify critical points")
    add_function_args(p)
    p.set_defaults(handler=_cmd_crit)

    p = sub.add_parser("homology", help="homology of a flow category")
    add_function_args(p)
    p.add_argument("--category", help="flow category JSON file")
    p.add_argument(
        "--ring", default="z", help="coefficients: z | zmod:m | q | laurent:d:w"
    )
    p.add_argument("--base", help="object id for relative gradings")
    p.set_defaults(handler=_cmd_homology)

    p = sub.add_parser("validate", help="run the category and orientation checks")
    add_function_args(p)
    p.add_argument("--category", help="flow category JSON file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("strata", help="strata chains and face sets for a pair")
    add_function_args(p)
    p.add_argument("--category", help="flow category JSON file")
    p.add_argument("a", help="upper object id")
    p.add_argument("b", help="lower object id")
    p.set_defaults(handler=_cmd_strata)

    p = sub.add_parser("realize", help="filtered realization of a chain complex")
    p.add_argument("--complex", required=True, help="chain complex JSON file")
    p.add_argument(
        "--ring", default="z", help="coefficients: z | zmod:m | q | laurent:d:w"
    )
    p.set_defaults(handler=_cmd_realize)

    p = sub.add_parser("examples", help="list canonical examples or write one out")
    p.add_argument("--name", help="example to write (omit to just list names)")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(handler=_cmd_examples)

    p = sub.add_parser("orbits", help="rigid trajectories with SVG/CSV export")
    add_function_args(p)
    p.add_argument("--svg", help="write trajectories as an SVG file")
    p.add_argument("--csv", help="write trajectory samples as CSV")
    p.set_defaults(handler=_cmd_orbits)

    return parser


_escape = json.encoder.encode_basestring_ascii
_int_text = int.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _key_text(key) -> str:
    """A dict key as `json` writes it: converted to a string, then quoted."""
    if isinstance(key, str):
        return _escape(key)
    if isinstance(key, float):
        return _escape(_float_text(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _escape(_int_text(key))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _report_text(obj, indent: str = "\n") -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte, but faster.

    The stdlib writes an indented document with its pure-Python encoder,
    one yielded chunk per token.  This builds each container's text as one
    string, and writes a list of plain ints or plain strings (a matrix row,
    a basis) with one C-level join.  Types, conversions and key order are
    the stdlib's: bool before int, int and float subclasses by
    `int.__repr__` and `float.__repr__`, keys sorted before they are
    converted, and the stdlib's TypeError for any key or value it refuses.
    `indent` is the newline and indentation that close `obj`'s own
    container.
    """
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return _int_text(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = {*map(type, obj)}
        if kinds == {int}:
            parts = map(_int_text, obj)
        elif kinds == {str}:
            parts = map(_escape, obj)
        else:
            parts = [_report_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(parts) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            _key_text(k) + ": " + _report_text(v, inner) for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _emit(command: str, inputs: dict, results: dict, warnings: list, status: str):
    report = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "warnings": warnings,
        "status": status,
    }
    print(_report_text(report))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    inputs: dict = {}
    warnings: list[str] = []
    command = "(parse)"
    try:
        args = parser.parse_args(argv)
        command = args.command
        results = args.handler(args, inputs, warnings)
    except _HelpRequested as exc:
        results = {"help": str(exc)}
    except _ReportedFailure as exc:
        _emit(command, inputs, exc.results, warnings, "validation-failure")
        return 2
    except InputError as exc:
        _emit(command, inputs, {"error": str(exc)}, warnings, "input-error")
        return 1
    except ValidationFailure as exc:
        _emit(
            command,
            inputs,
            {"error": str(exc), "errorType": type(exc).__name__},
            warnings,
            "validation-failure",
        )
        return 2
    _emit(command, inputs, results, warnings, "ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
