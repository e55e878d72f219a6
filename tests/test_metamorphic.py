"""Metamorphic tests on exact lattice pullbacks of the perturbed tori.

For an integer matrix A with det A = +-1, g(x) = f(A x) is a trigonometric
polynomial with the same critical values as f.  When A is an isometry of
the square lattice (a swap or a reflection of the axes), and for a shift by
a quarter period, the flow of g is the flow of f moved by an isometry, so
the two categories must be isomorphic: the same critical values and
indices, the same rigid-flow counts between points of equal value, the
same family components and the same homology.  Signs may differ by flips
of whole objects, which homology does not see.  No oracle is needed
(Chen et al., "Metamorphic testing: a review of challenges and
opportunities", ACM Computing Surveys 51, 2018).

Scaling by c > 0 keeps the critical points and the flow lines, which are
only run at another speed, so c * f must give the very category of f.

A shear changes the metric, so its flow is another flow, and only the
homology must agree.  The perturbed tori pulled back by the two shears
below have maxima with Hessian eigenvalue ratios of about 5 and 34, and
all but one of them are refused, loudly; those outcomes are pinned here,
so that a change which makes one of them build, or fail another way, has
to say so.
"""

import re
from collections import Counter
from fractions import Fraction

import pytest

from morseflow import (
    CoefficientRing,
    InputError,
    MorseflowError,
    TrigPolynomial,
    TrigTerm,
    all_homology,
    build_flow_category,
    eval_grad_hess,
    find_critical_points,
    floer_complex,
)
from morseflow.bank import (
    circle_function,
    perturbed_torus,
    perturbed_torus_seeds,
    pullback,
    quarter_shift,
    torus_function,
)
from test_morse import three_torus_function

SEEDS = perturbed_torus_seeds(25)
SWAP = ((0, 1), (1, 0))
REFLECT = ((-1, 0), (0, 1))

ISOMETRIES = {
    "swap": lambda f: pullback(f, SWAP),
    "reflect": lambda f: pullback(f, REFLECT),
    "quarter-shift": lambda f: quarter_shift(f, (1, 0)),
    "all-three": lambda f: quarter_shift(pullback(pullback(f, SWAP), REFLECT), (0, 1)),
}


def shape(f):
    """What an isometry keeps: points, flows and family ends keyed by critical value."""
    cat, ori = build_flow_category(f)
    value = {p.id: round(p.value, 9) for p in find_critical_points(f)}
    points = sorted((value[o], cat.index[o]) for o in cat.objects)
    rigid = Counter((value[fl.source], value[fl.target]) for fl in cat.rigid_flows)
    families = sorted(
        (
            value[fam.source],
            value[fam.target],
            tuple(sorted(value[end.via] for end in comp.ends)),
        )
        for fam in cat.moduli
        for comp in fam.components
    )
    groups = all_homology(floer_complex(cat, ori).complex, CoefficientRing.integers())
    return points, rigid, families, [str(g) for g in groups]


class TestLatticeHelpers:
    def test_a_pullback_moves_frequencies_and_keeps_coefficients(self):
        f = perturbed_torus(SEEDS[0])
        g = pullback(f, ((1, 1), (0, 1)))
        for t, u in zip(f.terms, g.terms):
            k = t.frequency
            assert u.frequency == (k[0], k[0] + k[1])
            assert (u.cos_coeff, u.sin_coeff) == (t.cos_coeff, t.sin_coeff)

    def test_pullbacks_and_shifts_are_exact(self):
        # g(x) = f(A x) and f(x + q/4), up to the rounding of the phases.
        f = perturbed_torus(SEEDS[3])
        for x in ((0.1, 0.7), (0.33, 0.05), (0.9, 0.41)):
            for a in (SWAP, REFLECT, ((1, 1), (0, 1)), ((1, 0), (2, 1))):
                ax = tuple(sum(a[i][j] * x[j] for j in range(2)) for i in range(2))
                assert eval_grad_hess(pullback(f, a), x)[0] == pytest.approx(
                    eval_grad_hess(f, ax)[0], abs=1e-13
                )
            for q in ((1, 0), (0, 3), (2, 1)):
                shifted = tuple(v + w / 4 for v, w in zip(x, q))
                assert eval_grad_hess(quarter_shift(f, q), x)[0] == pytest.approx(
                    eval_grad_hess(f, shifted)[0], abs=1e-13
                )

    def test_four_quarter_shifts_are_the_identity(self):
        f = perturbed_torus(SEEDS[1])
        g = f
        for _ in range(4):
            g = quarter_shift(g, (1, 1))
        assert g == f

    def test_a_unimodular_pullback_on_the_three_torus(self):
        # Its first pivot is zero, so the determinant takes a row swap.
        f = three_torus_function()
        a = ((0, 1, 0), (1, 0, 1), (0, 0, 1))
        g = pullback(f, a)
        for x in ((0.1, 0.7, 0.2), (0.33, 0.05, 0.9)):
            ax = tuple(sum(a[i][j] * x[j] for j in range(3)) for i in range(3))
            assert eval_grad_hess(g, x)[0] == pytest.approx(eval_grad_hess(f, ax)[0], abs=1e-13)

    @pytest.mark.parametrize(
        "a",
        [
            ((2, 0), (0, 1)),
            ((1, 1), (1, 1)),
            ((1, 0),),
            ((1.5, 0), (0, 1)),
            ((1, 1, 0), (0, 1, 1), (1, 0, 1)),  # determinant 2, on T^3
        ],
    )
    def test_a_matrix_off_the_unimodular_group_is_refused(self, a):
        f = three_torus_function() if len(a) == 3 else perturbed_torus(SEEDS[0])
        with pytest.raises(InputError):
            pullback(f, a)


class TestIsometries:
    @pytest.mark.parametrize("name", sorted(ISOMETRIES))
    def test_an_isometry_gives_an_isomorphic_category(self, name):
        assert len(SEEDS) == 25
        for seed in SEEDS:
            f = perturbed_torus(seed)
            assert shape(ISOMETRIES[name](f)) == shape(f), seed


def scaled(f, c):
    """c * f, exact in the rationals."""
    return TrigPolynomial(
        f.dimension,
        tuple(TrigTerm(t.frequency, c * t.cos_coeff, c * t.sin_coeff) for t in f.terms),
    )


SCALED = {
    "circle": circle_function,
    "torus": torus_function,
    **{f"perturbed-{s}": lambda s=s: perturbed_torus(s) for s in range(3)},
}


class TestScaling:
    # Far outside these powers of ten the build refuses, loudly (ROADMAP,
    # "Where the pipeline refuses").
    @pytest.mark.parametrize("name", sorted(SCALED))
    def test_a_positive_multiple_gives_the_same_category(self, name):
        f = SCALED[name]()
        cat, ori = build_flow_category(f)
        want = cat.to_json(ori)
        for k in (-1, 1, 2, 3, 4):
            cat, ori = build_flow_category(scaled(f, Fraction(10) ** k))
            assert cat.to_json(ori) == want, k


# The outcome of building each perturbed torus pulled back by a shear, by
# seed: "certificate" is the critical-point search's EulerMismatchError (no
# certificate for some cube), "arc-ends" and "off-basins" the partition's
# MorseSmaleViolationError (the two ends of an arc rest in different
# classes; a thin arc's midpoint rests off the basins of its partition), and
# "builds" a category with the homology of the torus.  Seed 3 of the first
# shear builds: its two boundaries near pi/2 lie 1.6e-10 rad apart, the
# same at step_tol 1e-8 and 1e-12.
SHEARS = {
    "x-by-y": (
        ((1, 1), (0, 1)),
        "arc-ends off-basins certificate builds arc-ends certificate certificate "
        "certificate off-basins arc-ends arc-ends certificate arc-ends arc-ends "
        "certificate arc-ends arc-ends off-basins arc-ends arc-ends arc-ends "
        "arc-ends arc-ends arc-ends certificate",
    ),
    "y-by-2x": (((1, 0), (2, 1)), " ".join(["certificate"] * 25)),
}
KINDS = {
    "certificate": r"^EulerMismatchError: no certificate for the cube",
    "arc-ends": r"^MorseSmaleViolationError: the ends of the arc of .* rest at",
    "off-basins": r"^MorseSmaleViolationError: the departure from .* off the basins",
}


class TestShears:
    @pytest.mark.parametrize("name", sorted(SHEARS))
    def test_sheared_tori_fail_as_pinned(self, name):
        a, pinned = SHEARS[name]
        got = []
        for seed in SEEDS:
            try:
                cat, ori = build_flow_category(pullback(perturbed_torus(seed), a))
            except MorseflowError as exc:
                text = f"{type(exc).__name__}: {exc}"
                got.append(next((k for k, rx in KINDS.items() if re.match(rx, text)), text))
            else:
                groups = all_homology(floer_complex(cat, ori).complex, CoefficientRing.integers())
                assert [str(g) for g in groups] == ["Z", "Z^2", "Z"]
                got.append("builds")
        assert got == pinned.split()
