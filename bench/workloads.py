"""The three benchmark workloads: their inputs, items and output checks.

A workload turns a seed into inputs (`make_inputs`), lists the items of one
pass over them (`items`), and checks the first output of each item against
`checks` (`check`).  Every later output of the same item must equal the
first.  Items look the package's functions up through their
modules at call time, so a tracer installed later sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path
from typing import Callable, NamedTuple

from morseflow import bank, cli, coeff, flowcat, morse, realization

import checks
from checks import require


class Item(NamedTuple):
    key: str
    run: Callable[[], object]


class Workload:
    """Defaults: items shuffled per pass, no known faults, nothing extra traced."""

    shuffle = True
    known_faults: frozenset = frozenset()
    tracer = None  # set by the worker during traced passes

    def prepare_trace(self, inputs) -> None:
        pass

    def traced_extra(self, key, out, inputs) -> None:
        pass


def _groups(groups):
    return [(g.free_rank, tuple(g.torsion)) for g in groups]


# -- torus-builds --------------------------------------------------------------


class TorusBuilds(Workload):
    """Full numerical pipeline on the circle, the torus and perturbed tori.

    Why: nearly all of its time is the integrator in `morse`, and each
    complex has at most 4 generators, so integrator work moves it and
    exact-algebra work should leave it flat.
    """

    name = "torus-builds"

    def __init__(self, size: str = "full"):
        self.perturbed = 3 if size == "full" else 1
        self._points: dict = {}

    def make_inputs(self, seed: int) -> dict:
        functions = {"circle": bank.circle_function(), "torus": bank.torus_function()}
        for s in bank.perturbed_torus_seeds(self.perturbed):
            functions[f"torus-perturbed:{s}"] = bank.perturbed_torus(s)
        return functions

    def warmup(self, inputs) -> None:
        self._build(inputs["circle"])

    @staticmethod
    def _build(f):
        cat, orientation = morse.build_flow_category(f)
        extract = flowcat.floer_complex(cat, orientation)
        cx = extract.complex
        hz = realization.all_homology(cx, coeff.CoefficientRing.integers())
        h2 = realization.all_homology(cx, coeff.CoefficientRing.modular(2))
        return cat, orientation, cx, hz, h2

    def items(self, inputs) -> list[Item]:
        return [Item(k, lambda f=f: self._build(f)) for k, f in inputs.items()]

    def prepare_trace(self, inputs) -> None:
        self._points = {k: morse.find_critical_points(f) for k, f in inputs.items()}

    def traced_extra(self, key, out, inputs) -> None:
        """Split the numerical work: rigid flows per source, then families.

        `connecting_orbits` keeps only flows into its target, so the flows
        out of a source are gathered with one call per lower-index target.
        """
        f, points = inputs[key], self._points[key]
        _, orientation, _, _, _ = out
        flows = []
        for a in points:
            if a.index == 0:
                continue
            for b in points:
                if b.index == a.index - 1:
                    flows += morse.connecting_orbits(f, a, b, critical_points=points)
        for fl in flows:
            require(
                orientation.sign(fl.id) == fl.sign,
                f"{key}: connecting_orbits sign of {fl.id} differs from the build",
            )
        if f.dimension == 2:
            for a in points:
                for c in points:
                    if a.index == 2 and c.index == 0:
                        morse.moduli_family(f, a, c, flows, critical_points=points)

    def check(self, key, out, inputs) -> None:
        f = inputs[key]
        cat, orientation, cx, hz, h2 = out
        terms = [(t.frequency, t.cos_coeff, t.sin_coeff) for t in f.terms]
        points = morse.find_critical_points(f)
        analytic = checks.cosine_sum_points(f.dimension) if key in ("circle", "torus") else None
        checks.check_critical_points(
            terms, [(p.position, p.index) for p in points], key, analytic
        )
        require(
            sorted((o, cat.index[o]) for o in cat.objects)
            == sorted((p.id, p.index) for p in points),
            f"{key}: category objects differ from the critical points",
        )
        checks.check_category(cat, orientation.signs, 2 if key == "circle" else 8, key)
        checks.check_zero_boundary(
            cat, orientation.signs, cx.bases, [d.to_rows() for d in cx.boundaries], key
        )
        known = checks.CIRCLE if key == "circle" else checks.TORUS
        checks.check_homology(_groups(hz), known, f"{key} over z")
        checks.check_homology(_groups(h2), checks.over_ring(known, "zmod:2"), f"{key} over zmod:2")


# -- homology-grid -------------------------------------------------------------


class HomologyGrid(Workload):
    """Exact homology of triangulated tori and Klein bottles, plus Smith forms.

    Why: only `coeff` and `realization` work here, so Smith-normal-form work
    moves it and integrator work should leave it flat.  Klein torsion
    exercises the divisibility repair; the Smith-form items show whether a
    faster `invariant_factors` made the public `smith_normal_form` slower.
    """

    name = "homology-grid"
    RINGS = ("z", "zmod:2", "q")

    def __init__(self, size: str = "full"):
        if size == "full":
            self.surfaces = [("torus", 6), ("torus", 8), ("torus", 10), ("klein", 8)]
            self.smith = [("torus", 8, 1), ("klein", 8, 1)]
        else:
            self.surfaces = [("torus", 4), ("klein", 4)]
            self.smith = [("klein", 4, 1)]

    def make_inputs(self, seed: int) -> dict:
        out = {}
        for kind, n in self.surfaces:
            labels, (d1, d2) = checks.triangulated_surface(n, kind == "klein")
            cx = realization.ChainComplexData(
                tuple(tuple(x) for x in labels), (coeff.IntegerMatrix(d1), coeff.IntegerMatrix(d2))
            )
            out[f"{kind}-{n}"] = (kind, labels, (d1, d2), cx)
        return out

    def warmup(self, inputs) -> None:
        kind, n = self.surfaces[0]
        realization.all_homology(inputs[f"{kind}-{n}"][3], coeff.CoefficientRing.integers())

    def items(self, inputs) -> list[Item]:
        out = []
        for kind, n in self.surfaces:
            cx = inputs[f"{kind}-{n}"][3]
            for ring in self.RINGS:
                r = coeff.CoefficientRing.parse(ring)
                out.append(
                    Item(f"{kind}-{n}/{ring}", lambda cx=cx, r=r: realization.all_homology(cx, r))
                )
        for kind, n, i in self.smith:
            a = inputs[f"{kind}-{n}"][3].boundaries[i]
            out.append(Item(f"snf/{kind}-{n}.d{i + 1}", lambda a=a: coeff.smith_normal_form(a)))
        return out

    def check(self, key, out, inputs) -> None:
        if key.startswith("snf/"):
            name, d = key[4:].split(".d")
            a = inputs[name][2][int(d) - 1]
            u, dd, v = (m.to_rows() for m in out)
            checks.check_smith(a, u, dd, v, key)
            return
        name, ring = key.split("/")
        kind, labels, _, _ = inputs[name]
        checks.check_euler(labels, name)
        known = checks.TORUS if kind == "torus" else checks.KLEIN
        checks.check_homology(_groups(out), checks.over_ring(known, ring), key)


# -- cli-session ---------------------------------------------------------------

EXAMPLES = {"circle": checks.CIRCLE, "torus": checks.TORUS, "klein": checks.KLEIN, "rp2": checks.RP2}
STATUS = {0: "ok", 1: "input-error", 2: "validation-failure"}
STRATA = {
    "torus": [["M", "m"], ["M", "X", "m"], ["M", "Y", "m"]],
    "klein": [["M", "m"], ["M", "A", "m"], ["M", "B", "m"]],
}

# Malformed inputs that raise a Python exception out of `cli.main` instead of
# printing one report and exiting 1.  They fail on every run until the CLI
# validates its input boundary; the benchmark counts them as failed.
FAULTY = {
    "fault/config-grid-str": (["crit", "--example", "torus", "--config", "grid_str.config.json"],
                              {"grid_resolution": "a"}),
    "fault/config-grid-nan": (["crit", "--example", "torus", "--config", "grid_nan.config.json"],
                              '{"grid_resolution": NaN}'),
    "fault/config-samples-float": (["homology", "--function", "torus.function.json",
                                    "--config", "samples_float.config.json"],
                                   {"circle_samples": 2.5}),
    "fault/function-term-int": (["crit", "--function", "term_int.function.json"],
                                {"dim": 2, "terms": [1]}),
    "fault/function-coeff-overflow": (["crit", "--function", "coeff_overflow.function.json"],
                                      {"dim": 1, "terms": [{"freq": [1], "cos": "1e400"}]}),
    "fault/realize-component-level": (["realize", "--complex", "component_level.complex.json"],
                                      {"bases": [["a"], ["b"]], "boundaries": [[[1]]],
                                       "components": {"5,0": [[1]]}}),
    "fault/realize-boundary-int": (["realize", "--complex", "boundary_int.complex.json"],
                                   {"bases": [["a"], ["b"]], "boundaries": [5]}),
}


def _filtered_complex(rng: random.Random) -> dict:
    """Random chain complex with level-skipping components and square-zero total.

    Each generator either receives (row) or emits (column); components only
    map emitting columns to receiving rows, so every two-step composite
    vanishes while the components themselves stay nonzero.
    """
    top = rng.randint(2, 4)
    ranks = [rng.randint(1, 5) for _ in range(top + 1)]
    receives = [[rng.random() < 0.5 for _ in range(r)] for r in ranks]

    def component(p, q):
        return [
            [rng.randint(-3, 3) if receives[q][i] and not receives[p][j] else 0 for j in range(ranks[p])]
            for i in range(ranks[q])
        ]

    comps = {(p, q): component(p, q) for p in range(1, top + 1) for q in range(p)}
    return {
        "bases": [[f"g{i}.{k}" for k in range(r)] for i, r in enumerate(ranks)],
        "boundaries": [comps[(p, p - 1)] for p in range(1, top + 1)],
        "components": {f"{p},{q}": m for (p, q), m in sorted(comps.items())},
    }


def _total_matrix(data: dict):
    ranks = [len(b) for b in data["bases"]]
    offsets = [sum(ranks[:i]) for i in range(len(ranks))]
    n = sum(ranks)
    rows = [[0] * n for _ in range(n)]
    for key, mat in data["components"].items():
        p, q = map(int, key.split(","))
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                rows[offsets[q] + i][offsets[p] + j] = x
    return rows


class CliSession(Workload):
    """A fixed script of `morseflow` command-line calls, made in-process.

    Why: it is the user-facing surface (parsing, digests, JSON reports,
    file I/O) and does little integrator work; `realize` runs one large
    square Smith form, a different use of `coeff` than homology-grid's
    per-degree boundaries.
    """

    name = "cli-session"
    shuffle = False
    known_faults = frozenset(FAULTY)

    def __init__(self, size: str = "full"):
        self.full = size == "full"

    # inputs ---------------------------------------------------------------

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        files: dict[str, object] = {
            "t3.function.json": {
                "dim": 3,
                "terms": [{"freq": [int(i == j) for i in range(3)], "cos": 1} for j in range(3)],
            },
            "bad.function.json": "{not json",
        }
        for key, (argv, payload) in FAULTY.items():
            files[argv[-1]] = payload
        complexes = {}
        for n in (4, 5) if self.full else (3,):
            labels, ds = checks.triangulated_surface(n, klein=False)
            complexes[f"torus{n}.complex.json"] = {"bases": labels, "boundaries": list(ds)}
        for k in range(3 if self.full else 1):
            complexes[f"filtered{k}.complex.json"] = _filtered_complex(rng)
        files.update(complexes)
        for name, payload in files.items():
            text = payload if isinstance(payload, str) else json.dumps(payload)
            Path(name).write_text(text)
        return {"complexes": complexes, "script": self._script(complexes)}

    def _script(self, complexes) -> list[tuple]:
        """(key, argv, expected exit code, checker of the results payload)."""
        s = []
        names = list(EXAMPLES) if self.full else ["circle", "torus"]
        rings = ["z", "zmod:2", "q", "laurent:2:1"] if self.full else ["z", "zmod:2"]
        for name in names:
            s.append((f"examples/{name}", ["examples", "--name", name, "--out", "."], 0, _written))
        s.append(("crit/circle", ["crit", "--example", "circle"], 0, _crit(1)))
        s.append(("crit/torus", ["crit", "--example", "torus"], 0, _crit(2)))
        if self.full:
            s.append(("crit/t3", ["crit", "--function", "t3.function.json"], 0, _crit(3)))
        for name in names:
            for src in (["--example", name], ["--category", f"{name}.category.json"]):
                s.append((f"validate/{src[0][2:]}/{name}", ["validate", *src], 0, _validated))
        for name in names:
            for ring in rings:
                argv = ["homology", "--example", name, "--ring", ring]
                s.append((f"homology/{name}/{ring}", argv, 0, _homology(EXAMPLES[name], ring)))
            argv = ["homology", "--category", f"{name}.category.json"]
            s.append((f"homology/file/{name}", argv, 0, _homology(EXAMPLES[name], "z")))
        for name, src in (("torus", "--example"), ("torus", "--category"), ("klein", "--example")):
            if name not in names:
                continue
            arg = name if src == "--example" else f"{name}.category.json"
            s.append((f"strata/{src[2:]}/{name}", ["strata", src, arg, "M", "m"], 0, _strata(name)))
        for fname, data in complexes.items():
            s.append((f"realize/{fname}", ["realize", "--complex", fname], 0, _realized(data)))
        for name in ("circle", "torus"):
            argv = ["orbits", "--example", name, "--csv", f"{name}.csv", "--svg", f"{name}.svg"]
            s.append((f"orbits/{name}", argv, 0, _orbits(name)))
        if self.full:
            argv = ["homology", "--function", "torus.function.json"]
            s.append(("homology/function/torus", argv, 0, _homology(checks.TORUS, "z")))
        s.append(("malformed/bad-json", ["crit", "--function", "bad.function.json"], 1, _error))
        s.append(("malformed/unknown-ring", ["homology", "--example", "torus", "--ring", "w"], 1, _error))
        s.append(("malformed/unknown-example", ["homology", "--example", "nope"], 1, _error))
        for key, (argv, _) in FAULTY.items():
            s.append((key, argv, 1, _error))
        return s

    # items ----------------------------------------------------------------

    def _call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        out = buf.getvalue()
        if self.tracer is not None:
            self.tracer.count("cli.report_bytes", len(out.encode()))
        return rc, out

    def warmup(self, inputs) -> None:
        self._call(["crit", "--example", "circle"])

    def items(self, inputs) -> list[Item]:
        return [Item(key, lambda argv=argv: self._call(argv)) for key, argv, _, _ in inputs["script"]]

    def check(self, key, out, inputs) -> None:
        _, argv, want_rc, checker = next(e for e in inputs["script"] if e[0] == key)
        rc, stdout = out
        doc = checks.single_json(stdout, key)
        require(rc == want_rc, f"{key}: exit code {rc}, expected {want_rc}")
        require(doc.get("status") == STATUS[rc], f"{key}: status {doc.get('status')!r} with exit {rc}")
        require(doc.get("command") == argv[0], f"{key}: command echo {doc.get('command')!r}")
        checker(doc["results"], key)


# -- CLI result checkers ---------------------------------------------------------


def _written(results, key):
    require(bool(results.get("written")), f"{key}: nothing written")
    for path in results["written"]:
        json.loads(Path(path).read_text())


def _crit(dim):
    def check(results, key):
        pts = results["criticalPoints"]
        terms = [([int(i == j) for i in range(dim)], 1, 0) for j in range(dim)]
        checks.check_critical_points(
            terms, [(p["position"], p["index"]) for p in pts], key, checks.cosine_sum_points(dim)
        )
        require(results["eulerCheck"] == {"signedCount": 0, "passed": True}, f"{key}: Euler check")
    return check


def _validated(results, key):
    require(results["passed"] is True, f"{key}: validation did not pass")


def _homology(known, ring):
    want = checks.over_ring(known, ring)

    def check(results, key):
        checks.check_homology(checks.report_groups(results), want, key)
        if ring.startswith("laurent:"):
            w = int(ring.split(":")[2])
            for h in results["homology"]:
                require(len(h["graded"]) == 2 * w + 1, f"{key}: graded window")
                require(all(g == h["group"] for _, g in h["graded"]), f"{key}: graded parts")
    return check


def _strata(name):
    def check(results, key):
        require(results["chains"] == STRATA[name], f"{key}: chains {results['chains']}")
        require(results["dims"] == [1, 0, 0], f"{key}: dims {results['dims']}")
    return check


def _realized(data):
    ranks = [len(b) for b in data["bases"]]
    if "components" in data:
        want_free = sum(ranks) - 2 * checks.rational_rank(_total_matrix(data))
    else:
        want_free = sum(free for free, _ in checks.TORUS)

    def check(results, key):
        require(results["passed"] is True, f"{key}: realization checks failed")
        require(results["levels"] == ranks, f"{key}: levels {results['levels']}")
        if "components" in data:
            require(results["components"] == data["components"], f"{key}: components differ")
        else:
            require(results["totalHomology"]["torsion"] == [], f"{key}: torsion in total homology")
        got = results["totalHomology"]["freeRank"]
        require(got == want_free, f"{key}: total free rank {got}, expected {want_free}")
    return check


def _orbits(name):
    n_flows = 2 if name == "circle" else 8

    def check(results, key):
        flows = results["flows"]
        require(len(flows) == n_flows, f"{key}: {len(flows)} flows, expected {n_flows}")
        if name == "circle":
            require(sorted(f["sign"] for f in flows) == [-1, 1], f"{key}: circle signs")
        rows = Path(f"{name}.csv").read_text().splitlines()[1:]
        want = sum(f["samples"] for f in flows)
        require(len(rows) == want, f"{key}: {len(rows)} CSV rows, samples sum to {want}")
        require("<svg" in Path(f"{name}.svg").read_text(), f"{key}: no SVG written")
    return check


def _error(results, key):
    require(isinstance(results.get("error"), str), f"{key}: no error message")


WORKLOADS = {w.name: w for w in (TorusBuilds, HomologyGrid, CliSession)}
