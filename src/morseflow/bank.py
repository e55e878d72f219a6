"""Canonical examples: exact functions and hand-checked flow categories.

The circle and torus entries exist in two forms, an exact trigonometric
function fed to the numerical pipeline and an independently authored
category with signs worked out by hand.  The klein and rp2 entries are
abstract categories that realize nonorientable chain complexes; no Morse
function on a torus produces them, so they only exist in authored form.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .coeff import IntegerMatrix, _json_integer
from .errors import EulerMismatchError, InputError, NotMorseError
from .flowcat import (
    BrokenFlow,
    FlowCategory,
    IntervalComponent,
    ModuliFamily,
    OrientationData,
    RigidFlow,
)
from .morse import TrigPolynomial, TrigTerm, find_critical_points


def circle_function() -> TrigPolynomial:
    """Height function cos(2 pi x) on the circle."""
    return TrigPolynomial(1, (TrigTerm((1,), Fraction(1)),))


def torus_function() -> TrigPolynomial:
    """Product height function cos(2 pi x) + cos(2 pi y) on the two-torus."""
    return TrigPolynomial(
        2, (TrigTerm((1, 0), Fraction(1)), TrigTerm((0, 1), Fraction(1)))
    )


def degenerate_function() -> TrigPolynomial:
    """cos(2 pi x) - cos(4 pi x)/4, degenerate at x = 0: rejected by the search."""
    return TrigPolynomial(
        1, (TrigTerm((1,), Fraction(1)), TrigTerm((2,), Fraction(-1, 4)))
    )


def perturbed_torus(seed: int) -> TrigPolynomial:
    """Deterministic small perturbation of the torus height function.

    Three extra terms with frequencies bounded by 2 and coefficients of
    magnitude at most 1/20, drawn from a seeded generator.
    """
    rng = random.Random(int(seed))
    terms = [TrigTerm((1, 0), Fraction(1)), TrigTerm((0, 1), Fraction(1))]
    for _ in range(3):
        while True:
            freq = (rng.randint(-2, 2), rng.randint(-2, 2))
            if freq != (0, 0):
                break
        terms.append(
            TrigTerm(
                freq,
                Fraction(rng.randint(-5, 5), 100),
                Fraction(rng.randint(-5, 5), 100),
            )
        )
    return TrigPolynomial(2, tuple(terms))


def tilted_upright_torus(t) -> TrigPolynomial:
    """Height of an upright torus of revolution, tilted by t sin(2 pi y), for rational t.

    f_t = (2 + cos 2 pi y) cos 2 pi x + t sin 2 pi y, which equals
    2 cos 2 pi x + 1/2 cos 2 pi (x + y) + 1/2 cos 2 pi (x - y) + t sin 2 pi y.
    At t = 0 the saddle near (0, 1/2) sends a flow along y = 1/2 into the
    saddle near (1/2, 1/2), the textbook saddle connection (Palis & de Melo,
    Geometric Theory of Dynamical Systems, ch. 4); any small t != 0 breaks
    it, and the stable separatrices of the lower saddle then cross the
    departure circle of the maximum within about 1e-5 |t| rad on either
    side of the boundary that the upper saddle's make.
    """
    return TrigPolynomial(
        2,
        (
            TrigTerm((1, 0), Fraction(2)),
            TrigTerm((1, 1), Fraction(1, 2)),
            TrigTerm((1, -1), Fraction(1, 2)),
            TrigTerm((0, 1), Fraction(0), t),
        ),
    )


def pullback(f: TrigPolynomial, a) -> TrigPolynomial:
    """f(A x) for an integer matrix A with det A = +-1, exact in the rationals.

    A term with frequency k becomes one with frequency A^T k and the same
    coefficients.  A unimodular A maps the lattice onto itself, so f(A x)
    is a function on the same torus with the same critical values; unless
    A is orthogonal its gradient flow is another flow.
    """
    rows = tuple(tuple(_json_integer(v, "matrix entry") for v in row) for row in a)
    n = f.dimension
    if len(rows) != n or any(len(row) != n for row in rows):
        raise InputError(f"a pullback of a function on T^{n} needs an {n} x {n} matrix")
    if abs(IntegerMatrix(rows).determinant()) != 1:
        raise InputError(f"matrix {rows} does not have determinant +-1")
    return TrigPolynomial(
        n,
        tuple(
            TrigTerm(
                tuple(sum(rows[i][j] * t.frequency[i] for i in range(n)) for j in range(n)),
                t.cos_coeff,
                t.sin_coeff,
            )
            for t in f.terms
        ),
    )


def quarter_shift(f: TrigPolynomial, q) -> TrigPolynomial:
    """f(x + q/4) for an integer vector q, exact in the rationals.

    The phase of a term with frequency k moves by k.q quarter turns, and a
    quarter turn takes c cos + s sin to s cos - c sin.
    """
    q = tuple(_json_integer(v, "shift") for v in q)
    if len(q) != f.dimension:
        raise InputError(f"shift has {len(q)} coordinates, expected {f.dimension}")
    terms = []
    for t in f.terms:
        c, s = t.cos_coeff, t.sin_coeff
        for _ in range(sum(k * v for k, v in zip(t.frequency, q)) % 4):
            c, s = s, -c
        terms.append(TrigTerm(t.frequency, c, s))
    return TrigPolynomial(f.dimension, tuple(terms))


def perturbed_torus_seeds(count: int) -> list[int]:
    """First `count` seeds whose perturbation stays Morse."""
    out: list[int] = []
    seed = 0
    while len(out) < count:
        if seed > 100 * count:
            raise InputError("could not collect enough Morse perturbations")
        try:
            find_critical_points(perturbed_torus(seed))
        except (NotMorseError, EulerMismatchError):
            pass
        else:
            out.append(seed)
        seed += 1
    return out


# -- authored categories ----------------------------------------------------


def circle_category() -> tuple[FlowCategory, OrientationData]:
    """Height flow on the circle: two rigid flows with opposite signs."""
    cat = FlowCategory(
        ("max", "min"),
        {"max": 1, "min": 0},
        (RigidFlow("right", "max", "min"), RigidFlow("left", "max", "min")),
        (),
    )
    return cat, OrientationData({"right": 1, "left": -1})


def torus_category() -> tuple[FlowCategory, OrientationData]:
    """Height flow on the two-torus: objects M, X, Y, m and four families.

    Flow a0/a1 leave M toward the saddle X, b0/b1 toward Y; c and d
    continue to the minimum.  Every interval pairs one broken flow
    through X with one through Y, and the four intervals use all eight
    broken flows exactly once with cancelling sign products.
    """
    cat = FlowCategory(
        ("M", "X", "Y", "m"),
        {"M": 2, "X": 1, "Y": 1, "m": 0},
        (
            RigidFlow("a0", "M", "X"),
            RigidFlow("a1", "M", "X"),
            RigidFlow("b0", "M", "Y"),
            RigidFlow("b1", "M", "Y"),
            RigidFlow("c0", "X", "m"),
            RigidFlow("c1", "X", "m"),
            RigidFlow("d0", "Y", "m"),
            RigidFlow("d1", "Y", "m"),
        ),
        (
            ModuliFamily(
                "M",
                "m",
                (
                    IntervalComponent(
                        (BrokenFlow("X", "a0", "c0"), BrokenFlow("Y", "b0", "d0"))
                    ),
                    IntervalComponent(
                        (BrokenFlow("Y", "b0", "d1"), BrokenFlow("X", "a1", "c0"))
                    ),
                    IntervalComponent(
                        (BrokenFlow("X", "a1", "c1"), BrokenFlow("Y", "b1", "d1"))
                    ),
                    IntervalComponent(
                        (BrokenFlow("Y", "b1", "d0"), BrokenFlow("X", "a0", "c1"))
                    ),
                ),
            ),
        ),
    )
    signs = {
        "a0": 1, "a1": -1,
        "b0": -1, "b1": 1,
        "c0": 1, "c1": -1,
        "d0": 1, "d1": -1,
    }
    return cat, OrientationData(signs)


def klein_category() -> tuple[FlowCategory, OrientationData]:
    """Abstract flow category realizing a Klein-bottle chain complex.

    The two flows into B carry the same sign, so the degree-2 boundary is
    twice a generator and the integral homology picks up 2-torsion in
    degree one.
    """
    cat = FlowCategory(
        ("M", "A", "B", "m"),
        {"M": 2, "A": 1, "B": 1, "m": 0},
        (
            RigidFlow("a0", "M", "A"),
            RigidFlow("a1", "M", "A"),
            RigidFlow("b0", "M", "B"),
            RigidFlow("b1", "M", "B"),
            RigidFlow("c0", "A", "m"),
            RigidFlow("c1", "A", "m"),
            RigidFlow("d0", "B", "m"),
            RigidFlow("d1", "B", "m"),
        ),
        (
            ModuliFamily(
                "M",
                "m",
                (
                    IntervalComponent(
                        (BrokenFlow("A", "a0", "c0"), BrokenFlow("B", "b0", "d1"))
                    ),
                    IntervalComponent(
                        (BrokenFlow("B", "b0", "d0"), BrokenFlow("A", "a1", "c0"))
                    ),
                    IntervalComponent(
                        (BrokenFlow("A", "a1", "c1"), BrokenFlow("B", "b1", "d1"))
                    ),
                    IntervalComponent(
                        (BrokenFlow("B", "b1", "d0"), BrokenFlow("A", "a0", "c1"))
                    ),
                ),
            ),
        ),
    )
    signs = {
        "a0": 1, "a1": -1,
        "b0": 1, "b1": 1,
        "c0": 1, "c1": -1,
        "d0": 1, "d1": -1,
    }
    return cat, OrientationData(signs)


def rp2_category() -> tuple[FlowCategory, OrientationData]:
    """Abstract flow category realizing a projective-plane chain complex."""
    cat = FlowCategory(
        ("M", "A", "m"),
        {"M": 2, "A": 1, "m": 0},
        (
            RigidFlow("a0", "M", "A"),
            RigidFlow("a1", "M", "A"),
            RigidFlow("c0", "A", "m"),
            RigidFlow("c1", "A", "m"),
        ),
        (
            ModuliFamily(
                "M",
                "m",
                (
                    IntervalComponent(
                        (BrokenFlow("A", "a0", "c0"), BrokenFlow("A", "a1", "c1"))
                    ),
                    IntervalComponent(
                        (BrokenFlow("A", "a1", "c0"), BrokenFlow("A", "a0", "c1"))
                    ),
                ),
            ),
        ),
    )
    signs = {"a0": 1, "a1": 1, "c0": 1, "c1": -1}
    return cat, OrientationData(signs)


def ladder_category() -> tuple[FlowCategory, OrientationData]:
    """Index span three: exercises strata chains and face decompositions."""
    cat = FlowCategory(
        ("T", "X2", "X1", "m"),
        {"T": 3, "X2": 2, "X1": 1, "m": 0},
        (
            RigidFlow("t0", "T", "X2"),
            RigidFlow("t1", "T", "X2"),
            RigidFlow("u", "X2", "X1"),
            RigidFlow("v0", "X1", "m"),
            RigidFlow("v1", "X1", "m"),
        ),
        (
            ModuliFamily(
                "T",
                "X1",
                (
                    IntervalComponent(
                        (BrokenFlow("X2", "t0", "u"), BrokenFlow("X2", "t1", "u"))
                    ),
                ),
            ),
            ModuliFamily(
                "X2",
                "m",
                (
                    IntervalComponent(
                        (BrokenFlow("X1", "u", "v0"), BrokenFlow("X1", "u", "v1"))
                    ),
                ),
            ),
        ),
    )
    signs = {"t0": 1, "t1": -1, "u": 1, "v0": 1, "v1": -1}
    return cat, OrientationData(signs)


# -- named lookup -----------------------------------------------------------

_FUNCTIONS = {
    "circle": circle_function,
    "torus": torus_function,
}

_CATEGORIES = {
    "circle": circle_category,
    "torus": torus_category,
    "klein": klein_category,
    "rp2": rp2_category,
}


def example_names() -> list[str]:
    return ["circle", "torus", "klein", "rp2", "torus-perturbed:<seed>"]


def _parse_name(name: str):
    if name.startswith("torus-perturbed:"):
        raw = name.split(":", 1)[1]
        try:
            return "torus-perturbed", int(raw)
        except ValueError:
            raise InputError(f"bad perturbation seed {raw!r}") from None
    return name, None


def example_function(name: str) -> TrigPolynomial:
    kind, seed = _parse_name(name)
    if kind == "torus-perturbed":
        return perturbed_torus(seed)
    fn = _FUNCTIONS.get(kind)
    if fn is None:
        raise InputError(
            f"no example function named {name!r}; "
            f"function examples: circle, torus, torus-perturbed:<seed>"
        )
    return fn()


def example_category(name: str) -> tuple[FlowCategory, OrientationData]:
    kind, _ = _parse_name(name)
    if kind == "torus-perturbed":
        raise InputError(
            "perturbed examples have no authored category; "
            "build one numerically from the function"
        )
    fn = _CATEGORIES.get(kind)
    if fn is None:
        raise InputError(
            f"no example category named {name!r}; "
            f"category examples: {', '.join(sorted(_CATEGORIES))}"
        )
    return fn()
