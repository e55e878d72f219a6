"""Print the outcome of building the flow category of every function of a fixed corpus.

The corpus, all of it fixed by seeds:

- `perturbed_torus(0..24)`, and each pulled back by the shears
  [[1, 1], [0, 1]] and [[1, 0], [2, 1]] (`bank.pullback`);
- `tilted_upright_torus(t)` at t = 0 (a saddle connection, which must keep
  failing), 1/100, 1/10 and 1/2;
- RANDOM random functions on T^2 (150 by default), each of 2 to 5 terms
  with frequency entries in -2..2 and coefficients in tenths from -2 to 2,
  searched at `grid_resolution` 48.

One line per function gives its name and outcome: `build`, the first 16
hex digits of the sha256 of its category JSON with signs, and its integral
homology, or the type and message of the exception the build raised,
typed or not.  A table of the counts by kind (`build` or the exception's
type) ends the output.  Every build of a Morse function on T^2 must give
Z, Z^2, Z, and every refusal must be a MorseflowError, so the table is the
refusal rate of the pipeline.  Run it on two trees and diff:

    PYTHONPATH=old/src python tools/outcome_corpus.py > old.txt
    PYTHONPATH=new/src python tools/outcome_corpus.py > new.txt
    diff old.txt new.txt

No timing is taken; the output is deterministic.  tests/test_tightening.py
builds the same corpus, through `corpus` and `outcome`, at the default
`step_tol` and at 1e-12.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from fractions import Fraction

from morseflow import CoefficientRing, all_homology, bank, build_flow_category, floer_complex
from morseflow.errors import InputError
from morseflow.morse import NumericalConfig, TrigPolynomial, TrigTerm

SHEARS = {"x-by-y": ((1, 1), (0, 1)), "y-by-2x": ((1, 0), (2, 1))}
TILTS = (Fraction(0), Fraction(1, 100), Fraction(1, 10), Fraction(1, 2))
RANDOM_SEED = 14
RANDOM_GRID = 48


def random_function(rng: random.Random) -> TrigPolynomial:
    """A function on T^2 of 2 to 5 terms, frequency entries in -2..2, coefficients in tenths."""
    terms = []
    for _ in range(rng.randint(2, 5)):
        freq = (0, 0)
        while freq == (0, 0):
            freq = (rng.randint(-2, 2), rng.randint(-2, 2))
        cos, sin = (Fraction(rng.randint(-20, 20), 10) for _ in range(2))
        terms.append(TrigTerm(freq, cos, sin))
    return TrigPolynomial(2, tuple(terms))


def corpus(count: int) -> list[tuple[str, TrigPolynomial, NumericalConfig]]:
    """(name, function, config) of every function of the corpus, in output order."""
    default = NumericalConfig()
    out = []
    for s in range(25):
        out.append((f"perturbed_torus({s})", bank.perturbed_torus(s), default))
    for shear, a in SHEARS.items():
        for s in range(25):
            out.append((f"{shear}({s})", bank.pullback(bank.perturbed_torus(s), a), default))
    for t in TILTS:
        out.append((f"tilted_upright_torus({t})", bank.tilted_upright_torus(t), default))
    rng = random.Random(RANDOM_SEED)
    coarse = NumericalConfig(grid_resolution=RANDOM_GRID)
    k = 0
    while k < count:
        try:
            f = random_function(rng)
        except InputError:  # every coefficient drawn was 0
            continue
        out.append((f"random({k})", f, coarse))
        k += 1
    return out


def outcome(f: TrigPolynomial, cfg: NumericalConfig) -> tuple[str, str]:
    """(kind, text) of one build: `build` with digest and homology, or the exception's."""
    try:
        cat, orientation = build_flow_category(f, cfg)
        payload = json.dumps(cat.to_json(orientation), sort_keys=True)
        groups = all_homology(floer_complex(cat, orientation).complex, CoefficientRing.integers())
    except Exception as exc:  # untyped errors are outcomes too
        return type(exc).__name__, f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return "build", f"build {digest} " + " ".join(str(g) for g in groups)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--random", type=int, default=150, help="random functions in the corpus")
    args = parser.parse_args(argv)
    counts: dict[str, int] = {}
    for name, f, cfg in corpus(args.random):
        kind, text = outcome(f, cfg)
        counts[kind] = counts.get(kind, 0) + 1
        print(f"{name:<28}{text}")
    print()
    print(f"{'outcome':<28}{'count':>8}")
    for kind in sorted(counts, key=lambda k: (k != "build", k)):
        print(f"{kind:<28}{counts[kind]:>8}")
    print(f"{'total':<28}{sum(counts.values()):>8}")


if __name__ == "__main__":
    main()
