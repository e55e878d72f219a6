"""Tightening `step_tol` never turns a build into something else.

Numerical results must not change when the tolerances are tightened.  Over
the corpus of `tools/outcome_corpus.py` (its `corpus` and `outcome`, 229
functions), each function is built at its corpus config and again at
`step_tol` 1e-12.  Every default build must build at 1e-12 with the same
category digest.  A refusal may turn into a build there; each such build is
printed (`pytest -s` shows them) and must give torus homology.  The
saddle connection `tilted_upright_torus(0)` must keep failing.
"""

import functools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from outcome_corpus import corpus, outcome  # noqa: E402

TIGHT_STEP_TOL = 1e-12
RANDOM = 150
SADDLE_CONNECTION = "tilted_upright_torus(0)"


@functools.lru_cache(maxsize=None)
def outcomes() -> tuple:
    """(name, default outcome, outcome at step_tol 1e-12) of every corpus function."""
    return tuple(
        (name, outcome(f, cfg), outcome(f, cfg.with_overrides(step_tol=TIGHT_STEP_TOL)))
        for name, f, cfg in corpus(RANDOM)
    )


def test_no_default_build_refuses_or_changes_at_step_tol_1e_12():
    builds = [(name, text, tight) for name, (kind, text), tight in outcomes() if kind == "build"]
    assert builds
    assert [(name, text, tight[1]) for name, text, tight in builds if tight[1] != text] == []


def test_a_refusal_that_builds_at_step_tol_1e_12_gives_torus_homology():
    flips = [
        (name, tight[1])
        for name, (kind, _), tight in outcomes()
        if kind != "build" and tight[0] == "build"
    ]
    for name, text in flips:
        print(f"refused at the default step_tol, builds at {TIGHT_STEP_TOL}: {name} {text}")
    assert [name for name, text in flips if not text.endswith(" Z Z^2 Z")] == []


def test_the_saddle_connection_keeps_failing():
    ((default, tight),) = [(d, t) for name, d, t in outcomes() if name == SADDLE_CONNECTION]
    assert default[0] == tight[0] == "MorseSmaleViolationError"
    assert "saddle connection" in default[1] and "saddle connection" in tight[1]
