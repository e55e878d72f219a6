"""Tests of the benchmark itself: each check rejects a wrong answer, and
every workload runs end to end at a tiny size.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from morseflow import bank, coeff, morse  # noqa: E402
from tracing import Tracer  # noqa: E402

TORUS_TERMS = [((1, 0), 1, 0), ((0, 1), 1, 0)]


def test_torus_homology_of_rank_three_is_rejected():
    checks.check_homology([(1, ()), (2, ()), (1, ())], checks.TORUS, "torus")
    with pytest.raises(CheckError):
        checks.check_homology([(1, ()), (3, ()), (1, ())], checks.TORUS, "torus")


def test_flipped_flow_sign_in_a_torus_interval_is_rejected():
    cat, orientation = bank.torus_category()
    checks.check_category(cat, orientation.signs, 8, "torus")
    flipped = dict(orientation.signs, a0=-orientation.signs["a0"])
    with pytest.raises(CheckError, match="sign products"):
        checks.check_category(cat, flipped, 8, "torus")


def test_klein_h1_without_torsion_is_rejected(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.HomologyGrid("tiny")
    inputs = wl.make_inputs(0)
    right = [coeff.HomologyGroup(1), coeff.HomologyGroup(1, (2,)), coeff.HomologyGroup(0)]
    wl.check("klein-4/z", right, inputs)
    wrong = [coeff.HomologyGroup(1), coeff.HomologyGroup(1), coeff.HomologyGroup(0)]
    with pytest.raises(CheckError, match="klein-4/z"):
        wl.check("klein-4/z", wrong, inputs)


def test_missing_critical_point_is_rejected():
    points = [(p.position, p.index) for p in morse.find_critical_points(bank.torus_function())]
    analytic = checks.cosine_sum_points(2)
    checks.check_critical_points(TORUS_TERMS, points, "torus", analytic)
    with pytest.raises(CheckError):
        checks.check_critical_points(TORUS_TERMS, points[:-1], "torus", analytic)


def test_critical_point_with_wrong_index_is_rejected():
    with pytest.raises(CheckError, match="Hessian says"):
        checks.check_critical_points(TORUS_TERMS, [((0.0, 0.0), 0), ((0.5, 0.5), 2)], "torus")


def test_two_json_documents_on_stdout_are_rejected(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.CliSession("tiny")
    inputs = wl.make_inputs(0)
    rc, out = wl._call(["crit", "--example", "torus"])
    wl.check("crit/torus", (rc, out), inputs)
    with pytest.raises(CheckError, match="more than one JSON document"):
        wl.check("crit/torus", (rc, out + out), inputs)


def test_smith_form_checks():
    a = [[2, 4], [6, 8]]
    u, d, v = (m.to_rows() for m in coeff.smith_normal_form(coeff.IntegerMatrix(a)))
    checks.check_smith(a, u, d, v, "2x2")
    with pytest.raises(CheckError, match="U A V"):
        checks.check_smith(a, u, [[2, 0], [0, 8]], v, "2x2")
    with pytest.raises(CheckError, match="does not divide"):
        checks.check_smith([[2, 0], [0, 3]], [[1, 0], [0, 1]], [[2, 0], [0, 3]], [[1, 0], [0, 1]], "d")


def test_known_homology_over_other_rings():
    assert checks.over_ring(checks.KLEIN, "zmod:2") == ((1, ()), (2, ()), (1, ()))
    assert checks.over_ring(checks.KLEIN, "q") == ((1, ()), (1, ()), (0, ()))
    assert checks.over_ring(checks.RP2, "zmod:2") == ((1, ()), (1, ()), (1, ()))


def test_tracer_rebinds_and_restores():
    original = bank.find_critical_points
    tracer = Tracer()
    tracer.install()
    try:
        assert bank.find_critical_points is morse.find_critical_points is not original
        bank.perturbed_torus_seeds(1)
    finally:
        tracer.uninstall()
    assert bank.find_critical_points is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "bank.perturbed_torus_seeds"
    assert set(names[1:]) == {"bank.perturbed_torus", "morse.find_critical_points"}
    assert all(span[3] == 0 for span in tracer.spans[1:])
    total, calls = tracer.self_times()
    outer = tracer.spans[0][2] - tracer.spans[0][1]
    inner = sum(s[2] - s[1] for s in tracer.spans[1:])
    assert total["bank.perturbed_torus_seeds"] == pytest.approx(outer - inner)
    assert calls["morse.find_critical_points"] == calls["bank.perturbed_torus"]


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["torus-builds", "homology-grid", "cli-session"])
def test_tiny_smoke_run(workload):
    res = _run(workload, trace=0)
    assert res["correct"]
    assert set(res["metrics"]) == {"setup_s", "items_per_s", "item_s.p50", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    raw = json.loads((BENCH.parent / ".bench_out" / f"result-{workload}-seed3-trace0.json").read_text())
    faults = len(workloads.FAULTY) if workload == "cli-session" else 0
    assert res["failed"] == faults * raw["passes"]


def test_tiny_traced_run_covers_the_cli_layers():
    res = _run("cli-session", trace=1)
    assert res["correct"]
    m = res["metrics"]
    for name in ("cli.main.self_s", "corners.strata.s", "realization.total_homology.self_s",
                 "coeff.smith_normal_form.s", "morse.flow_lines.s"):
        assert m[name]["value"] > 0, name
    assert m["cli.report_bytes"]["value"] > 0
