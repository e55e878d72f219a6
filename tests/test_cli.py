"""End-to-end command-line behavior: reports, exit codes, determinism."""

import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_realization import grid_surface

from morseflow import NumericalConfig, bank
from morseflow.cli import CONFIG_ENV, _build_parser, _report_text, main
from morseflow.morse import _Analysis


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def group_dim(entry):
    return entry["freeRank"] + len(entry["torsion"])


class TestCrit:
    def test_torus_example(self, capsys):
        code, rep = run(capsys, "crit", "--example", "torus")
        assert code == 0 and rep["status"] == "ok"
        rows = rep["results"]["criticalPoints"]
        assert [r["index"] for r in rows] == [2, 1, 1, 0]
        assert rep["results"]["countsByIndex"] == {"0": 1, "1": 2, "2": 1}
        assert rep["results"]["eulerCheck"] == {"signedCount": 0, "passed": True}
        assert all(r["minAbsEigenvalue"] > 1e-6 for r in rows)
        assert "example:torus" in rep["inputs"]

    def test_degenerate_function_exits_two(self, capsys, tmp_path):
        path = write_json(tmp_path / "f.json", bank.degenerate_function().to_json())
        code, rep = run(capsys, "crit", "--function", path)
        assert code == 2
        assert rep["status"] == "validation-failure"
        assert rep["results"]["errorType"] == "NotMorseError"
        assert path in rep["inputs"]
        assert len(rep["inputs"][path]) == 64

    @pytest.mark.parametrize("command", ["crit", "homology", "validate", "orbits"])
    def test_a_search_that_finds_no_extremum_exits_two(self, capsys, tmp_path, command):
        # At 10^160 times a bank function the gradient norms overflow; the
        # search must not report an empty list as complete.
        payload = bank.perturbed_torus(0).to_json()
        for term in payload["terms"]:
            for key in ("cos", "sin"):
                if key in term:
                    term[key] = str(Fraction(term[key]) * 10**160)
        path = write_json(tmp_path / "f.json", payload)
        code, rep = run(capsys, command, "--function", path)
        assert code == 2 and rep["status"] == "validation-failure"
        assert rep["results"]["errorType"] == "EulerMismatchError"

    def test_malformed_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, rep = run(capsys, "crit", "--function", str(path))
        assert code == 1 and rep["status"] == "input-error"

    def test_missing_source_exits_one(self, capsys):
        code, rep = run(capsys, "crit")
        assert code == 1 and rep["status"] == "input-error"


class TestHomology:
    def test_circle_integers(self, capsys):
        code, rep = run(capsys, "homology", "--example", "circle")
        assert code == 0
        groups = rep["results"]["homology"]
        assert [g["group"] for g in groups] == ["Z", "Z"]
        assert rep["results"]["ring"] == "z"

    def test_klein_mod_two_dimensions(self, capsys):
        code, rep = run(capsys, "homology", "--example", "klein", "--ring", "zmod:2")
        assert code == 0
        assert [group_dim(g) for g in rep["results"]["homology"]] == [1, 2, 1]

    def test_klein_integers(self, capsys):
        code, rep = run(capsys, "homology", "--example", "klein")
        groups = rep["results"]["homology"]
        assert groups[0]["group"] == "Z"
        assert groups[1]["freeRank"] == 1 and groups[1]["torsion"] == [2]
        assert groups[2]["group"] == "0"

    def test_torus_rationals(self, capsys):
        code, rep = run(capsys, "homology", "--example", "torus", "--ring", "q")
        assert code == 0
        assert [g["freeRank"] for g in rep["results"]["homology"]] == [1, 2, 1]
        assert all(g["torsion"] == [] for g in rep["results"]["homology"])

    def test_torus_over_a_large_prime_modulus(self, capsys):
        # Z/m torsion is normalised with gcds, so a large modulus costs no
        # more than a small one; factoring this 17-digit prime by trial
        # division took 15 s.
        start = time.process_time()
        code, rep = run(
            capsys, "homology", "--example", "torus", "--ring", "zmod:10000000000000061"
        )
        elapsed = time.process_time() - start
        assert code == 0
        assert [g["freeRank"] for g in rep["results"]["homology"]] == [1, 2, 1]
        assert all(g["torsion"] == [] for g in rep["results"]["homology"])
        assert elapsed < 1.0

    def test_laurent_ring_reports_graded_parts(self, capsys):
        code, rep = run(
            capsys, "homology", "--example", "circle", "--ring", "laurent:2:1"
        )
        assert code == 0
        for g in rep["results"]["homology"]:
            powers = [p for p, _ in g["graded"]]
            assert powers == [-1, 0, 1]

    def test_base_object_and_shift_warning(self, capsys):
        code, rep = run(capsys, "homology", "--example", "torus", "--base", "m")
        assert code == 0
        assert rep["results"]["base"] == "m"
        assert rep["results"]["gradingOffset"] == 0
        assert rep["warnings"] == []

        code, rep = run(capsys, "homology", "--example", "torus", "--base", "M")
        assert code == 0
        assert rep["results"]["gradingOffset"] == -2
        assert rep["warnings"]

    def test_category_file_round_trip(self, capsys, tmp_path):
        cat, ori = bank.klein_category()
        path = write_json(tmp_path / "k.json", cat.to_json(ori))
        code, rep = run(capsys, "homology", "--category", path)
        assert code == 0
        assert [g["group"] for g in rep["results"]["homology"]] == ["Z", "Z + Z/2", "0"]

    def test_function_input_builds_numerically(self, capsys, tmp_path):
        path = write_json(tmp_path / "t.json", bank.torus_function().to_json())
        code, rep = run(capsys, "homology", "--function", path)
        assert code == 0
        assert [g["group"] for g in rep["results"]["homology"]] == ["Z", "Z^2", "Z"]

    def test_perturbed_torus_example_builds_numerically(self, capsys, tmp_path):
        code, rep = run(capsys, "homology", "--example", "torus-perturbed:0")
        assert code == 0 and rep["status"] == "ok"
        assert [g["group"] for g in rep["results"]["homology"]] == ["Z", "Z^2", "Z"]
        cfg = write_json(tmp_path / "cfg.json", {"bogus": 1})
        code, rep = run(capsys, "homology", "--example", "torus-perturbed:0", "--config", cfg)
        assert code == 1 and rep["status"] == "input-error"
        assert "unknown config fields" in rep["results"]["error"]

    def test_bad_perturbation_seed_exits_one(self, capsys):
        code, rep = run(capsys, "homology", "--example", "torus-perturbed:x")
        assert code == 1 and rep["status"] == "input-error"
        assert "bad perturbation seed 'x'" in rep["results"]["error"]

    def test_bad_ring_exits_one(self, capsys):
        # A Laurent window above the ceiling is refused before any work.
        for ring in ("zz", "laurent:2:100000000"):
            code, rep = run(capsys, "homology", "--example", "torus", "--ring", ring)
            assert code == 1 and rep["status"] == "input-error"


class TestValidate:
    def test_torus_example(self, capsys):
        code, rep = run(capsys, "validate", "--example", "torus")
        assert code == 0
        res = rep["results"]
        assert res["objects"] == 4
        assert res["rigidFlows"] == 8
        assert res["moduliFamilies"] == 1
        assert res["passed"] is True

    def test_perturbed_torus_example_builds_numerically(self, capsys, tmp_path):
        code, rep = run(capsys, "validate", "--example", "torus-perturbed:0")
        assert code == 0 and rep["status"] == "ok"
        assert rep["results"]["passed"] is True
        assert "example:torus-perturbed:0" in rep["inputs"]
        cfg = write_json(tmp_path / "cfg.json", {"bogus": 1})
        code, rep = run(capsys, "validate", "--example", "torus-perturbed:0", "--config", cfg)
        assert code == 1 and rep["status"] == "input-error"
        assert cfg in rep["inputs"]

    def test_flipped_sign_reported_and_exits_two(self, capsys, tmp_path):
        cat, ori = bank.torus_category()
        payload = cat.to_json(ori)
        payload["rigidFlows"][0]["sign"] *= -1
        path = write_json(tmp_path / "bad.json", payload)
        code, rep = run(capsys, "validate", "--category", path)
        assert code == 2
        assert rep["status"] == "validation-failure"
        assert rep["results"]["passed"] is False
        checks = {c["name"]: c for c in rep["results"]["orientation"]["checks"]}
        assert checks["interval-cancellation"]["failures"]

    def test_a_family_listed_twice_exits_two(self, capsys, tmp_path):
        cat, ori = bank.torus_category()
        payload = cat.to_json(ori)
        payload["oneDimModuli"] *= 2
        path = write_json(tmp_path / "twice.json", payload)
        code, rep = run(capsys, "validate", "--category", path)
        assert code == 2
        assert rep["status"] == "validation-failure"
        assert rep["results"]["moduliFamilies"] == 2
        assert rep["results"]["passed"] is False
        checks = {c["name"]: c for c in rep["results"]["morseSmale"]["checks"]}
        (failure,) = checks["composition-into-boundary"]["failures"]
        assert "endpoints used more than once" in failure

    def test_missed_basin_boundary_exits_two(self, capsys, tmp_path, monkeypatch):
        # The saddles' separatrices give every boundary.  A separatrix shot
        # that goes missing leaves an arc whose ends rest in two basins, and
        # the build fails loudly instead of passing 6 of 8.
        path = write_json(tmp_path / "torus.json", bank.torus_function().to_json())
        cfg = write_json(tmp_path / "c.json", {"grid_resolution": 24})
        code, rep = run(capsys, "validate", "--function", path, "--config", cfg)
        assert code == 0 and rep["results"]["rigidFlows"] == 8
        max_flows = _Analysis.max_flows
        monkeypatch.setattr(_Analysis, "max_flows", lambda self, a: max_flows(self, a)[1:])
        code, rep = run(capsys, "validate", "--function", path, "--config", cfg)
        assert code == 2 and rep["status"] == "validation-failure"
        assert rep["results"]["errorType"] == "MorseSmaleViolationError"
        assert "a basin boundary was missed" in rep["results"]["error"]


class TestStrata:
    def test_torus_top_to_bottom(self, capsys):
        code, rep = run(capsys, "strata", "--example", "torus", "M", "m")
        assert code == 0
        res = rep["results"]
        assert res["chains"] == [["M", "m"], ["M", "X", "m"], ["M", "Y", "m"]]
        assert res["dims"] == [1, 0, 0]
        assert len(res["faces"]) == 1
        groups = {g["via"]: g["chains"] for g in res["faces"][0]["groups"]}
        assert groups == {"X": [["M", "X", "m"]], "Y": [["M", "Y", "m"]]}

    def test_incomparable_pair_exits_two(self, capsys):
        code, rep = run(capsys, "strata", "--example", "torus", "X", "Y")
        assert code == 2
        assert rep["results"]["errorType"] == "NotComparableError"

    def test_unknown_object_exits_one(self, capsys):
        code, rep = run(capsys, "strata", "--example", "torus", "ZZ", "m")
        assert code == 1


class TestRealize:
    def test_realizes_plain_complex(self, capsys, tmp_path):
        payload = {"bases": [["a"], ["b"]], "boundaries": [[[2]]]}
        path = write_json(tmp_path / "c.json", payload)
        code, rep = run(capsys, "realize", "--complex", path, "--ring", "z")
        assert code == 0
        res = rep["results"]
        assert res["passed"] is True
        assert res["levels"] == [1, 1]
        assert "1,0" in res["components"]
        assert res["totalHomology"]["torsion"] == [2]

    def test_square_defect_exits_two(self, capsys, tmp_path):
        payload = {
            "bases": [["a"], ["b"], ["c"], ["d"]],
            "boundaries": [[[1]], [[0]], [[0]]],
            "ring": "z",
            "components": {
                "1,0": [[1]],
                "2,1": [[0]],
                "3,2": [[0]],
                "3,1": [[1]],
            },
        }
        path = write_json(tmp_path / "bad.json", payload)
        code, rep = run(capsys, "realize", "--complex", path)
        assert code == 2
        assert rep["results"]["squareDefects"] == [[3, 0]]

    def test_missing_complex_flag_exits_one(self, capsys):
        code, rep = run(capsys, "realize")
        assert code == 1

    def test_ring_precedence_depends_on_components(self, capsys, tmp_path):
        # One rule, with or without `components`: a file's own "ring" is the
        # ring, over an explicit --ring.
        payload = {"bases": [["a"], ["b"]], "boundaries": [[[2]]], "ring": "zmod:2"}
        plain = write_json(tmp_path / "plain.json", payload)
        code, rep = run(capsys, "realize", "--complex", plain, "--ring", "q")
        assert code == 0
        assert rep["results"]["ring"] == "zmod:2"
        assert rep["results"]["totalHomology"]["group"] == "Z^2"
        payload["components"] = {"1,0": [[2]]}
        filtered = write_json(tmp_path / "filtered.json", payload)
        code, rep = run(capsys, "realize", "--complex", filtered, "--ring", "q")
        assert code == 0
        assert rep["results"]["ring"] == "zmod:2"
        assert rep["results"]["totalHomology"]["group"] == "Z^2"


class TestExamples:
    def test_lists_names(self, capsys):
        code, rep = run(capsys, "examples")
        assert code == 0
        assert rep["results"]["names"] == bank.example_names()
        assert "written" not in rep["results"]

    def test_writes_torus_files_that_pass_validation(self, capsys, tmp_path):
        code, rep = run(capsys, "examples", "--name", "torus", "--out", str(tmp_path))
        assert code == 0
        written = rep["results"]["written"]
        assert sorted(p.rsplit(".", 2)[-2] for p in written) == ["category", "function"]
        cat_file = next(p for p in written if p.endswith("category.json"))
        fn_file = next(p for p in written if p.endswith("function.json"))
        code, rep = run(capsys, "validate", "--category", cat_file)
        assert code == 0 and rep["results"]["passed"] is True
        code, rep = run(capsys, "crit", "--function", fn_file)
        assert code == 0 and rep["results"]["eulerCheck"]["passed"] is True

    def test_perturbed_writes_function_only(self, capsys, tmp_path):
        code, rep = run(
            capsys, "examples", "--name", "torus-perturbed:3", "--out", str(tmp_path)
        )
        assert code == 0
        written = rep["results"]["written"]
        assert len(written) == 1 and written[0].endswith(
            "torus-perturbed-3.function.json"
        )

    def test_unknown_name_exits_one(self, capsys, tmp_path):
        code, rep = run(capsys, "examples", "--name", "moebius", "--out", str(tmp_path))
        assert code == 1


class TestOrbits:
    def test_writes_svg_and_csv(self, capsys, tmp_path):
        svg = tmp_path / "orbits.svg"
        csv = tmp_path / "orbits.csv"
        code, rep = run(
            capsys,
            "orbits",
            "--example",
            "circle",
            "--svg",
            str(svg),
            "--csv",
            str(csv),
        )
        assert code == 0
        assert rep["results"]["written"] == [str(svg), str(csv)]
        assert svg.read_text().lstrip().startswith("<svg")
        assert csv.read_text().startswith("flow,t,x0")
        flows = rep["results"]["flows"]
        assert len(flows) == 2
        assert all(f["samples"] > 0 for f in flows)
        assert {f["sign"] for f in flows} == {1, -1}

    def test_unwritable_output_exits_one(self, capsys, tmp_path):
        svg = tmp_path / "missing" / "orbits.svg"
        code, rep = run(capsys, "orbits", "--example", "circle", "--svg", str(svg))
        assert code == 1 and rep["status"] == "input-error"
        assert str(svg) in rep["results"]["error"]


class TestConfig:
    def test_config_flag(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"grid_resolution": 48})
        code, rep = run(capsys, "crit", "--example", "circle", "--config", cfg)
        assert code == 0
        assert cfg in rep["inputs"]

    def test_config_env_var(self, capsys, tmp_path, monkeypatch):
        cfg = write_json(tmp_path / "cfg.json", {"grid_resolution": 24})
        monkeypatch.setenv(CONFIG_ENV, cfg)
        code, rep = run(capsys, "crit", "--example", "circle")
        assert code == 0
        assert cfg in rep["inputs"]

    def test_a_huge_seed_grid_is_refused_before_it_is_built(self, capsys, tmp_path):
        # 10^12 seed points would take terabytes; the search refuses the grid
        # before it allocates it.
        cfg = write_json(tmp_path / "cfg.json", {"grid_resolution": 1000000})
        tracemalloc.start()
        try:
            code, rep = run(capsys, "crit", "--example", "torus", "--config", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and rep["status"] == "input-error"
        assert "ceiling" in rep["results"]["error"]
        assert peak < 16 << 20

    def test_unknown_config_field_exits_one(self, capsys, tmp_path):
        # Two names that were config fields until family ends came from
        # signs, six that went with the T^3 bisection and with the fields
        # only the critical-point search read, and the count of the circle
        # samples, which went once the shots alone fixed each partition.
        removed = (
            "bisection_tol",
            "newton_max_iter",
            "newton_tol",
            "grad_tol",
            "dedupe_radius",
            "nondeg_tol",
            "circle_samples",
        )
        for field in ("bogus", "probe_offset", "endpoint_match_tol", *removed):
            cfg = write_json(tmp_path / "cfg.json", {field: 1})
            code, rep = run(capsys, "crit", "--example", "circle", "--config", cfg)
            assert code == 1 and rep["status"] == "input-error"
            assert "unknown config fields" in rep["results"]["error"]


def _authored_torus_argv(tmp_path, command):
    """A command that reads the authored torus category, as an example or a file."""
    if command == "validate-category":
        cat, orientation = bank.example_category("torus")
        path = write_json(tmp_path / "torus.category.json", cat.to_json(orientation))
        return ["validate", "--category", path]
    return {
        "homology": ["homology", "--example", "torus"],
        "validate": ["validate", "--example", "torus"],
        "strata": ["strata", "--example", "torus", "M", "m"],
    }[command]


AUTHORED_COMMANDS = ["homology", "validate", "strata", "validate-category"]


class TestConfigOnAuthoredCategories:
    # An authored category is never built, but its command still takes
    # --config, so the config is read and checked as everywhere else.
    @pytest.mark.parametrize("command", AUTHORED_COMMANDS)
    @pytest.mark.parametrize(
        "payload", [{"bogus": 1}, {"step_min": 0.2}], ids=["bogus", "step-min"]
    )
    def test_bad_config_exits_one_with_one_report(self, capsys, tmp_path, command, payload):
        cfg = write_json(tmp_path / "cfg.json", payload)
        argv = _authored_torus_argv(tmp_path, command) + ["--config", cfg]
        code, rep = run(capsys, *argv)
        assert code == 1 and rep["status"] == "input-error"
        assert rep["results"]["error"]
        assert cfg in rep["inputs"]

    @pytest.mark.parametrize("command", AUTHORED_COMMANDS)
    def test_good_config_digest_is_listed(self, capsys, tmp_path, command):
        cfg = write_json(tmp_path / "cfg.json", {"grid_resolution": 48})
        argv = _authored_torus_argv(tmp_path, command) + ["--config", cfg]
        code, rep = run(capsys, *argv)
        assert code == 0 and rep["status"] == "ok"
        assert rep["inputs"][cfg] == hashlib.sha256(Path(cfg).read_bytes()).hexdigest()


class TestContract:
    def test_byte_identical_reruns(self, capsys):
        main(["crit", "--example", "torus"])
        first = capsys.readouterr().out
        main(["crit", "--example", "torus"])
        second = capsys.readouterr().out
        assert first == second

        main(["homology", "--example", "klein", "--ring", "zmod:2"])
        first = capsys.readouterr().out
        main(["homology", "--example", "klein", "--ring", "zmod:2"])
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_subcommand_exits_one(self, capsys):
        code, rep = run(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["realize", "--help"], ["crit", "-h"]])
    def test_help_is_one_ok_report(self, capsys, argv):
        code, rep = run(capsys, *argv)
        assert code == 0 and rep["status"] == "ok"
        assert rep["results"]["help"].startswith("usage: morseflow")

    def test_one_parser_serves_every_call(self, capsys, tmp_path):
        # `main` builds its parser once per process.  Each call below, made
        # after those before it, prints the report it prints as the first
        # call on a fresh parser: parsing leaves nothing behind.
        cfg = write_json(tmp_path / "cfg.json", {"grid_resolution": 48})
        calls = [
            ["homology", "--example", "circle", "--ring", "w"],
            ["crit", "--bogus"],
            ["frobnicate"],
            ["--help"],
            ["realize", "--help"],
            ["crit", "--example", "circle", "--config", cfg],
            ["crit", "--example", "circle"],
            ["homology", "--example", "circle", "--ring", "zmod:2"],
            ["homology", "--example", "circle"],
        ]

        def call(argv):
            code = main(list(argv))
            return code, capsys.readouterr().out

        first = []
        for argv in calls:
            _build_parser.cache_clear()
            first.append(call(argv))
        _build_parser.cache_clear()
        again = [call(argv) for argv in calls]
        assert _build_parser.cache_info().misses == 1
        assert again == first

    def test_report_shape(self, capsys):
        _, rep = run(capsys, "examples")
        assert sorted(rep) == ["command", "inputs", "results", "status", "warnings"]
        assert rep["command"] == "examples"


MALFORMED = {
    "config-reverse-str": ("config", {"reverse_orientation": "no"}),
    "config-grid-str": ("config", {"grid_resolution": "a"}),
    "config-grid-nan": ("config", {"grid_resolution": float("nan")}),
    "config-max-steps-float": ("config", {"max_steps": 2.5}),
    # A step at or below step_min skips error control; this once ran unchecked.
    "config-step-min-above-max": ("config", {"step_min": 0.2}),
    # The first step of the Dormand–Prince lanes, no field since the Taylor lanes.
    "config-step-init-retired": ("config", {"step_init": 0.01}),
    # The count of the circle samples, no field since the shots fix every partition.
    "config-circle-samples-retired": ("config", {"circle_samples": 64}),
    "function-term-int": ("function", {"dim": 2, "terms": [1]}),
    "function-coeff-overflow": (
        "function",
        {"dim": 1, "terms": [{"freq": [1], "cos": "1e400"}]},
    ),
    "function-freq-overflow": ("function", {"dim": 1, "terms": [{"freq": [10**400], "cos": 1}]}),
    "function-freq-fraction": ("function", {"dim": 1, "terms": [{"freq": [1.5], "cos": 1}]}),
    "function-dim-fraction": ("function", {"dim": 1.5, "terms": [{"freq": [1], "cos": 1}]}),
    "complex-boundary-int": ("complex", {"bases": [["a"], ["b"]], "boundaries": [5]}),
    "complex-entry-fraction": ("complex", {"bases": [["a"], ["b"]], "boundaries": [[[1.5]]]}),
    "complex-component-level": (
        "complex",
        {"bases": [["a"], ["b"]], "boundaries": [[[1]]], "components": {"5,0": [[1]]}},
    ),
    # Keys inside the bases that do not lower the level once escaped as
    # the constructor's IndexRangeError, a validation failure.
    "complex-component-upward": (
        "complex",
        {"bases": [["a"], ["b"]], "boundaries": [[[1]]], "components": {"0,1": [[1]]}},
    ),
    "complex-component-same-level": (
        "complex",
        {"bases": [["a"], ["b"]], "boundaries": [[[1]]], "components": {"1,1": [[1]]}},
    ),
    "config-grid-huge": ("config", {"grid_resolution": 10**400}),
    "category-index-infinite": ("category", {"objects": [{"id": "M", "index": float("inf")}]}),
    "category-family-int": (
        "category",
        {"objects": [{"id": "M", "index": 2}], "oneDimModuli": [{"components": [1]}]},
    ),
    "category-sign-fraction": (
        "category",
        {
            "objects": [{"id": "max", "index": 1}, {"id": "min", "index": 0}],
            "rigidFlows": [{"id": "f", "from": "max", "to": "min", "sign": 1.5}],
        },
    ),
    "category-index-fraction": (
        "category",
        {"objects": [{"id": "max", "index": 2.7}, {"id": "min", "index": 0}]},
    ),
    "category-sign-bool": (
        "category",
        {
            "objects": [{"id": "max", "index": 1}, {"id": "min", "index": 0}],
            "rigidFlows": [{"id": "f", "from": "max", "to": "min", "sign": True}],
        },
    ),
    "category-flow-from-list": (
        "category",
        {
            "objects": [{"id": "max", "index": 1}, {"id": "min", "index": 0}],
            "rigidFlows": [{"id": "f", "from": [], "to": "min", "sign": 1}],
        },
    ),
    "category-family-from-object": (
        "category",
        {
            "objects": [{"id": "max", "index": 2}, {"id": "min", "index": 0}],
            "oneDimModuli": [{"from": {}, "to": "min", "components": []}],
        },
    ),
    "complex-ring-int": (
        "complex",
        {"bases": [["a"], ["b"]], "boundaries": [[[1]]], "ring": 3, "components": {"1,0": [[1]]}},
    ),
    "complex-basis-string": ("complex", {"bases": ["xy", ["z"]], "boundaries": [[[1], [1]]]}),
    "complex-label-null": ("complex", {"bases": [[None], ["z"]], "boundaries": [[[1]]]}),
    "complex-component-duplicate": (
        "complex",
        {
            "bases": [["a"], ["b"]],
            "boundaries": [[[1]]],
            "components": {"1,0": [[1]], " +1 ,0": [[2]]},
        },
    ),
    # A plain file's own "ring" is read too, so a bad one is refused.
    "complex-plain-ring-int": ("complex", {"bases": [["a"], ["b"]], "boundaries": [[[1]]], "ring": 3}),
    "complex-top-level-array": ("complex", [{"bases": [["a"]], "boundaries": []}]),
    "complex-components-list": (
        "complex",
        {"bases": [["a"], ["b"]], "boundaries": [[[1]]], "components": [1]},
    ),
    "complex-component-key-semicolon": (
        "complex",
        {"bases": [["a"], ["b"]], "boundaries": [[[1]]], "components": {"1;0": [[1]]}},
    ),
    "complex-boundaries-int": ("complex", {"bases": [["a"], ["b"]], "boundaries": 3}),
    "complex-bases-missing": ("complex", {"boundaries": [[[1]]]}),
    "complex-bases-empty": ("complex", {"bases": [], "boundaries": []}),
    "complex-boundaries-too-few": ("complex", {"bases": [["a"], ["b"]], "boundaries": []}),
    "config-top-level-array": ("config", [{"grid_resolution": 32}]),
    "category-object-repeated": (
        "category",
        {"objects": [{"id": "M", "index": 1}, {"id": "M", "index": 0}]},
    ),
    "function-terms-int": ("function", {"dim": 1, "terms": 3}),
    "function-dim-missing": ("function", {"terms": [{"freq": [1], "cos": 1}]}),
    "function-term-freq-missing": ("function", {"dim": 1, "terms": [{"cos": 1}]}),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_one_with_one_report(self, capsys, tmp_path, case):
        kind, payload = MALFORMED[case]
        path = write_json(tmp_path / f"{kind}.json", payload)
        argv = {
            "config": ["orbits", "--example", "torus", "--config", path],
            "function": ["crit", "--function", path],
            "complex": ["realize", "--complex", path],
            "category": ["validate", "--category", path],
        }[kind]
        code, rep = run(capsys, *argv)
        assert code == 1
        assert rep["status"] == "input-error"
        assert rep["command"] == argv[0]
        assert rep["results"]["error"]


class TestProcess:
    # `python -m morseflow.cli`, as a shell runs it: the exit code reaches the
    # process through `sys.exit(main())`, which no in-process test calls.
    def test_exit_codes_reach_the_process(self, tmp_path):
        cat, ori = bank.torus_category()
        payload = cat.to_json(ori)
        payload["rigidFlows"][0]["sign"] *= -1
        cfg = write_json(tmp_path / "cfg.json", {"step_init": 0.01})
        bad = write_json(tmp_path / "bad.json", payload)
        cases = (
            (["crit", "--example", "torus"], 0, "ok"),
            (["crit", "--example", "circle", "--config", cfg], 1, "input-error"),
            (["validate", "--category", bad], 2, "validation-failure"),
        )
        for argv, code, status in cases:
            done = subprocess.run(
                [sys.executable, "-m", "morseflow.cli", *argv],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == code, done.stderr
            report = json.loads(done.stdout)
            assert report["status"] == status and report["command"] == argv[0]


# -- the report writer ------------------------------------------------------


def stdlib_text(value):
    return json.dumps(value, sort_keys=True, indent=2)


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((float("nan"), float("inf"), float("-inf"), -0.0, 0.0)),
    st.text(),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7fé  \ud800\U0001f600 a'),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(st.text(), inner, max_size=6),
        # Homogeneous lists take the writer's one-join path.
        st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=8),
        st.lists(st.text(), min_size=1, max_size=8),
    ),
    max_leaves=40,
)
ANY_KEYS = st.one_of(
    st.text(max_size=3),
    st.integers(-5, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
)


def outcome(write, value):
    """What `write(value)` returns, or the type and message of what it raises."""
    try:
        return write(value)
    except TypeError as exc:
        return ("TypeError", str(exc))


class TestReportText:
    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES)
    def test_same_text_as_the_stdlib(self, value):
        assert _report_text(value) == stdlib_text(value)

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(ANY_KEYS, JSON_SCALARS, max_size=5))
    def test_mixed_keys_convert_or_raise_as_in_the_stdlib(self, value):
        # An unorderable mix, such as a str key beside an int key, raises in
        # the sort; an orderable one converts int, float, bool and None keys.
        assert outcome(_report_text, {"k": [value]}) == outcome(stdlib_text, {"k": [value]})

    @pytest.mark.parametrize(
        "value",
        [
            {"a": 1, 2: "b"},
            {True: 1, None: 2},
            {1.5: "x", 2: "y", False: "z"},
            {float("nan"): 0, 0.25: 1},
            {(1, 2): "tuple key"},
            {"rows": [[1, 2], [3, object()]]},
            {"x": {1, 2}},
            [b"bytes"],
            [np.int64(1)],
            {"n": np.int64(1)},
            {np.int64(1): "numpy key"},
            [np.float64(0.1), np.bool_(True)],
            [1, True, 2],
            {"c": "é", "b": ["☃", "x"], "a": {}},
            ([], {}, ()),
        ],
    )
    def test_odd_values_match_the_stdlib(self, value):
        assert outcome(_report_text, value) == outcome(stdlib_text, value)


def reencoded(text):
    return stdlib_text(json.loads(text)) + "\n"


class TestReportBytes:
    # Every report, and every file `examples` writes, has the bytes
    # `json.dumps(..., sort_keys=True, indent=2)` gives for its content.
    def test_reports_have_the_stdlib_layout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cat, orientation = bank.example_category("torus")
        category = write_json(tmp_path / "torus.category.json", cat.to_json(orientation))
        surface = write_json(tmp_path / "torus6.json", grid_surface(6).to_json())
        filtered = write_json(tmp_path / "filtered.json", FILTERED_COMPLEX)
        Path("bad.json").write_text("{not json")
        Path("fé.json").write_text('{"dim": 1}')
        calls = [
            ["crit", "--example", "torus"],
            *(
                ["homology", "--example", name, "--ring", ring]
                for name in ("torus", "klein")
                for ring in ("z", "zmod:2", "zmod:6", "q", "laurent:2:1")
            ),
            ["validate", "--category", category],
            ["strata", "--example", "torus", "M", "m"],
            ["orbits", "--example", "circle"],
            ["realize", "--complex", surface],
            ["realize", "--complex", filtered],
            ["examples", "--name", "torus", "--out", "out"],
            ["crit", "--function", "bad.json"],
            ["homology", "--example", "torus", "--ring", "w"],
            ["homology", "--example", "nope"],
            ["crit", "--function", "fé.json"],
        ]
        codes = []
        for argv in calls:
            codes.append(main(argv))
            out = capsys.readouterr().out
            assert out == reencoded(out), argv
        assert codes == [0] * (len(calls) - 4) + [1] * 4
        written = sorted(Path("out").iterdir())
        assert [p.name for p in written] == ["torus.category.json", "torus.function.json"]
        for path in written:
            text = path.read_text()
            assert text == reencoded(text), path


# -- fuzzing ----------------------------------------------------------------

ODD_VALUES = (
    None, True, False, 0, -1, 1, 2, 3, 0.5, 1.5, -2.5, 1e-3, 10**400, float("nan"),
    float("inf"), "", "x", "1/3", "1/0", "p0.0", [], [1], [[1, 0]], {}, {"a": 1},
)
CONFIG_KEYS = sorted(NumericalConfig.__dataclass_fields__) + ["bogus"]
RINGS = ("z", "q", "zmod:2", "zmod:0", "zmod:1", "zmod:x", "laurent:2:1", "laurent:0:0", "w")
NAMES = ("circle", "torus", "klein", "rp2", "torus-perturbed:x", "nope", "")
OBJECTS = ("p2.0", "p1.0", "p1.1", "p0.0", "nope", "")
SMALL_COMPLEX = {"bases": [["a", "b"], ["e"]], "boundaries": [[[1, -1]]]}
FILTERED_COMPLEX = {
    "bases": [["a"], ["b"], ["c"]],
    "boundaries": [[[1]], [[0]]],
    "ring": "zmod:2",
    "components": {"1,0": [[1]], "2,1": [[0]], "2,0": [[0]]},
}


def _json_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _json_paths(value, prefix + (i,))


@st.composite
def mutated(draw, bases):
    """One of `bases` with up to three nodes replaced, deleted or joined by a stray."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_json_paths(doc))))
        odd = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        if not path:
            doc = odd
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(("replace", "delete", "stray")))
        if action == "replace":
            parent[path[-1]] = odd
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent["stray"] = odd
        else:
            parent.append(odd)
    return doc


def _category_json(name):
    cat, orientation = bank.example_category(name)
    return cat.to_json(orientation)


BASES = {
    "function": [bank.example_function(n).to_json() for n in ("circle", "torus")],
    "category": [_category_json(n) for n in ("torus", "klein")],
    "complex": [SMALL_COMPLEX, FILTERED_COMPLEX],
    "config": [
        {name: getattr(NumericalConfig(), name) for name in NumericalConfig.__dataclass_fields__}
    ],
}
FILES = {
    "function": mutated(BASES["function"]),
    "category": mutated(BASES["category"]),
    "config": st.dictionaries(
        st.sampled_from(CONFIG_KEYS), st.sampled_from(ODD_VALUES), max_size=3
    ),
    "complex": mutated(BASES["complex"]),
}
# The pieces each command accepts; any piece may also land on another command.
PIECES = {
    "crit": ("function", "config", "example", "help"),
    "homology": ("function", "config", "example", "category", "ring", "base", "help"),
    "validate": ("function", "config", "example", "category", "help"),
    "strata": ("function", "config", "example", "category", "object", "object", "help"),
    "realize": ("complex", "ring", "help"),
    "examples": ("name", "out", "help"),
    "orbits": ("function", "config", "example", "svg", "csv", "help"),
}
ALL_PIECES = sorted({p for ps in PIECES.values() for p in ps} | {"stray-flag", "no-value"})


@st.composite
def fuzzed_argv(draw):
    """A command line of valid and malformed pieces, with the files it names."""
    command = draw(st.sampled_from(sorted(PIECES)))
    argv, files = [command], {}
    pieces = draw(st.lists(st.sampled_from(PIECES[command]), max_size=5))
    if draw(st.integers(0, 3)) == 0:  # now and then a piece the command lacks
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(ALL_PIECES)))
    for piece in pieces:
        if piece in FILES:
            files[f"{piece}.json"] = draw(FILES[piece])
            argv += [f"--{piece}", draw(st.sampled_from((f"{piece}.json", "absent.json")))]
        elif piece == "object":
            argv.append(draw(st.sampled_from(OBJECTS)))
        elif piece == "stray-flag":
            argv.append("--bogus")
        elif piece == "help":
            argv.append(draw(st.sampled_from(("-h", "--help"))))
        elif piece == "no-value":
            argv.append(draw(st.sampled_from(("--ring", "--example", "--function"))))
        else:
            value = {
                "example": NAMES,
                "name": NAMES,
                "ring": RINGS,
                "base": OBJECTS,
                "out": ("out", "function.json"),
                "svg": ("t.svg", "missing/t.svg"),
                "csv": ("t.csv", "missing/t.csv"),
            }[piece]
            argv += [f"--{piece}", draw(st.sampled_from(value))]
    return argv, files


class TestFuzz:
    # The autouse fixture only clears an environment variable, which holds
    # for every example alike.
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(fuzzed_argv())
    def test_every_call_prints_one_report_and_exits_0_1_or_2(self, case):
        assert_one_report(*case)


def assert_one_report(argv, files):
    """Run `main(argv)` beside `files`; it must print one report matching its exit code."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, payload in files.items():
                Path(name).write_text(json.dumps(payload))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
        finally:
            os.chdir(cwd)
    status = {0: "ok", 1: "input-error", 2: "validation-failure"}
    assert code in status
    report = json.loads(out.getvalue())
    assert sorted(report) == ["command", "inputs", "results", "status", "warnings"]
    assert report["status"] == status[code]


# The cheapest command that reads each kind of document.
READERS = {
    "function": ["crit", "--function"],
    "config": ["crit", "--example", "circle", "--config"],
    "category": ["validate", "--category"],
    "complex": ["realize", "--complex"],
}
FIELD_VALUES = ([], {}, None, True, "x", 1.5, 10**400, -1)


def _leaves(doc):
    """Paths of the nodes of `doc` that are neither objects nor lists."""
    for path in _json_paths(doc):
        node = doc
        for key in path:
            node = node[key]
        if not isinstance(node, (dict, list)):
            yield path


class TestFieldFuzz:
    # Every leaf of every base document, one at a time, takes each value of
    # FIELD_VALUES; a random draw hits a given field too rarely.
    @pytest.mark.parametrize(
        "kind, i", [(kind, i) for kind in sorted(BASES) for i in range(len(BASES[kind]))]
    )
    def test_each_field_replaced_gives_one_report(self, kind, i):
        base = BASES[kind][i]
        failures = []
        for path in _leaves(base):
            for value in FIELD_VALUES:
                doc = copy.deepcopy(base)
                parent = doc
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = copy.deepcopy(value)
                try:
                    assert_one_report(READERS[kind] + [f"{kind}.json"], {f"{kind}.json": doc})
                except Exception as exc:  # noqa: BLE001 - every escape is a finding
                    failures.append((path, value, repr(exc)[:200]))
        assert not failures, failures[:5]
