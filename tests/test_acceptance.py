"""Acceptance gate: nine headline requirements, one test per criterion.

Every test records one `ACCEPTANCE n: PASS/FAIL` line (collected in the
terminal summary) and enforces its stated wall-clock budget where one
exists.  The torus homology is compared against an independent simplicial
oracle rather than against itself.
"""

import random
import time
from fractions import Fraction

from conftest import random_filtered_complex, record_acceptance, tampered_copy

from morseflow import (
    CoefficientRing,
    GapSequence,
    NumericalConfig,
    OrientationData,
    all_homology,
    bank,
    build_flow_category,
    check_orientation_coherence,
    check_realization,
    compose,
    find_critical_points,
    floer_complex,
    flow_lines,
    in_face_image,
    moduli_family,
    realize,
    strata,
    face_decomposition,
    torus_distance,
    validate_morse_smale,
)

Z = CoefficientRing.integers()
MOD2 = CoefficientRing.modular(2)

BANK = {
    "circle": bank.circle_category,
    "torus": bank.torus_category,
    "klein": bank.klein_category,
    "rp2": bank.rp2_category,
    "ladder": bank.ladder_category,
}


def integer_homology(cat, ori, ring=Z):
    ex = floer_complex(cat, ori)
    return [str(g) for g in all_homology(ex.complex, ring)]


def mod2_dims(cat, ori):
    ex = floer_complex(cat, ori)
    return [
        g.free_rank + len(g.torsion) for g in all_homology(ex.complex, MOD2)
    ]


def test_criterion_1_torus_pipeline(torus_triangulation):
    t0 = time.perf_counter()
    ok = False
    try:
        f = bank.torus_function()
        pts = find_critical_points(f)
        assert sorted(p.index for p in pts) == [0, 1, 1, 2]
        expected = {
            2: [(0.0, 0.0)],
            1: [(0.0, 0.5), (0.5, 0.0)],
            0: [(0.5, 0.5)],
        }
        for p in pts:
            assert min(torus_distance(p.position, e) for e in expected[p.index]) < 1e-9
        cat, ori = build_flow_category(f)
        assert validate_morse_smale(cat).passed
        assert check_orientation_coherence(cat, ori).passed
        computed = integer_homology(cat, ori)
        oracle = [str(g) for g in all_homology(torus_triangulation, Z)]
        assert computed == oracle == ["Z", "Z^2", "Z"]
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        ok = True
    finally:
        record_acceptance(
            1,
            ok,
            "torus: 4 classified critical points, validated category, "
            f"homology matches the simplicial oracle ({time.perf_counter() - t0:.2f}s)",
        )


def test_criterion_2_circle_pipeline():
    t0 = time.perf_counter()
    ok = False
    try:
        f = bank.circle_function()
        pts = find_critical_points(f)
        assert [p.index for p in pts] == [1, 0]
        flows = flow_lines(f)
        assert len(flows) == 2
        assert {fl.sign for fl in flows} == {1, -1}
        cat, ori = build_flow_category(f)
        ex = floer_complex(cat, ori)
        assert all(d.is_zero() for d in ex.complex.boundaries)
        assert integer_homology(cat, ori) == ["Z", "Z"]
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        ok = True
    finally:
        record_acceptance(
            2,
            ok,
            "circle: two flows with opposite signs, zero boundary, "
            f"homology (Z, Z) ({time.perf_counter() - t0:.2f}s)",
        )


def test_criterion_3_perturbed_torus_bank():
    t0 = time.perf_counter()
    ok = False
    done = 0
    try:
        seeds = bank.perturbed_torus_seeds(25)
        assert len(seeds) == 25
        for seed in seeds:
            f = bank.perturbed_torus(seed)
            cat, ori = build_flow_category(f)
            assert check_orientation_coherence(cat, ori).passed
            ex = floer_complex(cat, ori)
            for d_out, d_in in zip(ex.complex.boundaries, ex.complex.boundaries[1:]):
                assert (d_out @ d_in).is_zero()
            assert integer_homology(cat, ori) == ["Z", "Z^2", "Z"]
            done += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        ok = True
    finally:
        record_acceptance(
            3,
            ok,
            f"{done}/25 perturbed torus functions: coherent signs, exact "
            f"square-zero boundary, torus homology ({time.perf_counter() - t0:.1f}s)",
        )


def test_criterion_4_torus_interval_matching():
    ok = False
    fams = []
    try:
        f = bank.torus_function()
        pts = find_critical_points(f)
        by_id = {p.id: p for p in pts}
        flows = flow_lines(f)
        fams = moduli_family(
            f, by_id["p2.0"], by_id["p0.0"], flows, critical_points=pts
        )
        assert len(fams) == 4
        sign = {fl.id: fl.sign for fl in flows}
        used = []
        for fam in fams:
            e1, e2 = fam.ends
            assert (
                sign[e1.first] * sign[e1.second] + sign[e2.first] * sign[e2.second] == 0
            )
            used += [(e1.first, e1.second), (e2.first, e2.second)]
        assert len(set(used)) == 8
        ok = True
    finally:
        record_acceptance(
            4,
            ok,
            f"torus max-to-min: {len(fams)} interval families with matched "
            "endpoints and cancelling sign products",
        )


def test_criterion_5_klein_and_rp2():
    ok = False
    try:
        cat, ori = bank.klein_category()
        assert integer_homology(cat, ori) == ["Z", "Z + Z/2", "0"]
        assert mod2_dims(cat, ori) == [1, 2, 1]
        cat, ori = bank.rp2_category()
        assert integer_homology(cat, ori) == ["Z", "Z/2", "0"]
        assert mod2_dims(cat, ori) == [1, 1, 1]
        ok = True
    finally:
        record_acceptance(
            5,
            ok,
            "Klein bottle and projective plane: integral torsion and "
            "mod-2 dimensions as expected",
        )


def _random_gap_morphism(rng, source, target):
    if source == target:
        return GapSequence.identity(source)
    if rng.random() < 0.15:
        return GapSequence.basepoint(source, target)
    coords = []
    for _ in range(source - target - 1):
        if rng.random() < 0.25:
            coords.append(Fraction(0))
        else:
            coords.append(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    return GapSequence(source, target, tuple(coords))


def test_criterion_6_composition_laws():
    ok = False
    checked = 0
    try:
        rng = random.Random(20260825)
        for _ in range(500):
            levels = sorted(rng.sample(range(12), 4), reverse=True)
            a, b, c, d = levels
            x = _random_gap_morphism(rng, a, b)
            y = _random_gap_morphism(rng, b, c)
            z = _random_gap_morphism(rng, c, d)
            assert compose(compose(x, y), z) == compose(x, compose(y, z))
            m = compose(x, y)
            if not m.is_basepoint:
                assert in_face_image(m, b)
                for i in range(c + 1, a):
                    assert in_face_image(m, i) == (m.coordinate(i) == 0)
            assert compose(GapSequence.basepoint(a, b), y).is_basepoint
            assert compose(x, GapSequence.basepoint(b, c)).is_basepoint
            checked += 1
        ok = True
    finally:
        record_acceptance(
            6,
            ok,
            f"{checked}/500 random composable triples: associativity, "
            "zero-coordinate face membership, basepoint absorption",
        )


def test_criterion_7_random_realizations():
    ok = False
    built = 0
    rings = [Z, CoefficientRing.modular(2), CoefficientRing.modular(3), CoefficientRing.rationals()]
    try:
        rng = random.Random(7)
        for k in range(50):
            ring = rings[k % len(rings)]
            cx, higher = random_filtered_complex(rng)
            x = realize(cx, ring, higher)
            rep = check_realization(x, cx)
            assert rep.passed
            bad = tampered_copy(x, rng)
            rep2 = check_realization(bad, cx)
            assert not rep2.passed
            assert rep2.check("free-subquotients").passed
            assert not rep2.check("connecting-maps").passed
            built += 1
        ok = True
    finally:
        record_acceptance(
            7,
            ok,
            f"{built}/50 random filtered complexes pass realization checks; "
            "every single-entry perturbation is flagged as a connecting-map failure",
        )


def test_criterion_8_face_decompositions():
    ok = False
    pairs = 0
    try:
        for make in BANK.values():
            cat, _ = make()
            for a in cat.objects:
                for b in cat.objects:
                    if a == b or not cat.gt(a, b):
                        continue
                    gap = cat.mu(a) - cat.mu(b)
                    if gap > 3:
                        continue
                    chains = strata(cat, a, b)
                    in_some_face = set()
                    for j in range(1, gap):
                        for chs in face_decomposition(cat, a, b, j).values():
                            in_some_face.update(chs)
                    for ch in chains:
                        hits = sum(
                            1
                            for j in range(1, gap)
                            if any(
                                ch in chs
                                for chs in face_decomposition(cat, a, b, j).values()
                            )
                        )
                        assert hits == ch.links - 1
                    assert in_some_face == {ch for ch in chains if ch.links >= 2}
                    pairs += 1
        ok = True
    finally:
        record_acceptance(
            8,
            ok,
            f"{pairs} comparable pairs across the example bank: chains sit in "
            "one face set per intermediate and the face sets cover all "
            "non-open strata",
        )


def test_criterion_9_orientation_changes_are_invisible():
    ok = False
    try:
        for name, make in BANK.items():
            cat, ori = make()
            base_z = integer_homology(cat, ori)
            base_2 = mod2_dims(cat, ori)
            negated = OrientationData({k: -v for k, v in ori.signs.items()})
            assert integer_homology(cat, negated) == base_z
            assert mod2_dims(cat, negated) == base_2
            for obj in cat.objects:
                flipped = ori.flipped_at(cat, obj)
                assert integer_homology(cat, flipped) == base_z
                assert mod2_dims(cat, flipped) == base_2
        for fn in (bank.circle_function, bank.torus_function):
            std = build_flow_category(fn())
            rev = build_flow_category(
                fn(), NumericalConfig(reverse_orientation=True)
            )
            assert integer_homology(*std) == integer_homology(*rev)
        ok = True
    finally:
        record_acceptance(
            9,
            ok,
            "global negation, per-object flips, and reversed frame "
            "conventions all leave homology unchanged",
        )
