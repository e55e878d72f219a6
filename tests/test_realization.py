"""Gap-sequence composition, chain complex data, and filtered realizations."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_filtered_complex, tampered_copy
from morseflow import (
    ChainComplexData,
    CoefficientRing,
    FilteredRealization,
    GapSequence,
    IntegerMatrix,
    InputError,
    all_homology,
    check_realization,
    compose,
    homology,
    in_face_image,
    realize,
    total_homology,
)
from morseflow.errors import (
    BoundaryCompositeError,
    IndexRangeError,
    SourceTargetMismatchError,
    TotalDifferentialSquareError,
)


def random_morphism(rng: random.Random, source: int, target: int) -> GapSequence:
    if source > target and rng.random() < 0.2:
        return GapSequence.basepoint(source, target)
    coords = []
    for _ in range(max(source - target - 1, 0)):
        if rng.random() < 0.3:
            coords.append(Fraction(0))
        else:
            coords.append(Fraction(rng.randint(1, 12), rng.randint(1, 4)))
    return GapSequence(source, target, tuple(coords))


def grid_surface(n: int, klein: bool = False) -> ChainComplexData:
    """Simplicial chain complex of an n x n grid on the torus or the Klein bottle.

    Vertex (i, j) is taken mod n and every square is cut along one diagonal.
    On the Klein bottle, wrapping around in j reflects i.
    """

    def vertex(i, j):
        if klein and j >= n:
            i = -i
        return (i % n) * n + j % n

    tris = sorted(
        tuple(sorted(t))
        for i in range(n)
        for j in range(n)
        for t in (
            (vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1)),
            (vertex(i, j), vertex(i, j + 1), vertex(i + 1, j + 1)),
        )
    )
    edges = sorted({(t[a], t[b]) for t in tris for a, b in ((0, 1), (0, 2), (1, 2))})
    at = {e: k for k, e in enumerate(edges)}
    d1 = [[0] * len(edges) for _ in range(n * n)]
    for k, (a, b) in enumerate(edges):
        d1[a][k], d1[b][k] = -1, 1
    d2 = [[0] * len(tris) for _ in edges]
    for k, (a, b, c) in enumerate(tris):
        d2[at[(b, c)]][k], d2[at[(a, c)]][k], d2[at[(a, b)]][k] = 1, -1, 1
    return ChainComplexData(
        (
            tuple(f"v{v}" for v in range(n * n)),
            tuple(f"e{a}.{b}" for a, b in edges),
            tuple(f"t{a}.{b}.{c}" for a, b, c in tris),
        ),
        (IntegerMatrix(d1), IntegerMatrix(d2)),
    )


class TestGapSequence:
    def test_identity_has_no_coords(self):
        e = GapSequence.identity(3)
        assert e.source == e.target == 3 and e.coords == ()

    def test_identity_laws(self):
        f = GapSequence.of(5, 2, {3: Fraction(1, 2), 4: Fraction(2)})
        assert compose(GapSequence.identity(5), f) == f
        assert compose(f, GapSequence.identity(2)) == f

    def test_composition_pads_shared_slot_with_zero(self):
        f = GapSequence.of(3, 1, {2: Fraction(5)})
        g = GapSequence.of(5, 3, {4: Fraction(7)})
        h = compose(g, f)
        assert h.source == 5 and h.target == 1
        assert h.coords == (Fraction(5), Fraction(0), Fraction(7))
        assert h.coordinate(3) == 0

    def test_endpoint_mismatch(self):
        with pytest.raises(SourceTargetMismatchError):
            compose(GapSequence.identity(4), GapSequence.identity(3))

    def test_basepoint_requires_positive_gap(self):
        with pytest.raises(InputError):
            GapSequence.basepoint(2, 2)

    def test_negative_coordinate_rejected(self):
        with pytest.raises(InputError):
            GapSequence(3, 1, (Fraction(-1),))

    def test_wrong_coordinate_count(self):
        with pytest.raises(InputError):
            GapSequence(4, 1, (Fraction(1),))

    def test_raising_morphisms_rejected(self):
        with pytest.raises(InputError):
            GapSequence(1, 2, ())

    def test_coordinate_range(self):
        f = GapSequence.of(4, 1, {2: 1, 3: 2})
        with pytest.raises(IndexRangeError):
            f.coordinate(1)
        with pytest.raises(IndexRangeError):
            f.coordinate(4)

    @pytest.mark.parametrize("index", [5, 0, 3, -1])
    def test_map_index_outside_the_gap_rejected(self, index):
        # The dense build read only the indices 1 and 2, so 5 was dropped.
        with pytest.raises(IndexRangeError, match=f"index {index} not strictly between 0 and 3"):
            GapSequence.of(3, 0, {index: 1, 1: 2})

    @pytest.mark.parametrize(
        "source, target",
        [("3", 0), (3, "0"), (3.5, 0), (None, 0)],
        ids=["str", "str-target", "half", "none"],
    )
    def test_endpoints_must_be_integers(self, source, target):
        # A TypeError from the comparison of "3" with 0 before.
        with pytest.raises(InputError, match="not an integer"):
            GapSequence(source, target, None)

    def test_coordinates_must_be_rationals(self):
        # A ValueError from Fraction("x") before.
        with pytest.raises(InputError, match="bad rational 'x'"):
            GapSequence(3, 0, ("x", 1))

    def test_coordinates_are_exact_past_the_float_range(self):
        big = Fraction(10**400)
        assert GapSequence.of(3, 1, {2: big}).coordinate(2) == big
        assert GapSequence(3, 1, (str(big),)).coords == (big,)

    @pytest.mark.parametrize("index", ["1", 1.5], ids=["str", "half"])
    def test_an_index_must_be_an_integer(self, index):
        # A TypeError from the comparison of "1" with 0, or from indexing
        # the coordinates by 0.5, before.
        with pytest.raises(InputError, match="is not an integer"):
            GapSequence.of(3, 0, {index: 2})
        with pytest.raises(InputError, match="is not an integer"):
            GapSequence.of(3, 0, {1: 2}).coordinate(index)

    def test_basepoint_absorbs(self):
        f = GapSequence.of(3, 1, {2: Fraction(5)})
        b = GapSequence.basepoint(5, 3)
        assert compose(b, f).is_basepoint
        assert compose(f, GapSequence.basepoint(1, 0)).is_basepoint

    def test_face_image_is_vanishing_coordinate(self):
        f = GapSequence.of(4, 0, {1: 1, 2: 0, 3: 2})
        assert in_face_image(f, 2)
        assert not in_face_image(f, 1)
        with pytest.raises(IndexRangeError):
            in_face_image(f, 0)

    def test_basepoint_in_no_face_image(self):
        assert not in_face_image(GapSequence.basepoint(4, 0), 2)

    def test_associativity_sampled(self):
        rng = random.Random(5)
        for _ in range(200):
            levels = sorted(rng.sample(range(0, 12), 4), reverse=True)
            n3, n2, n1, n0 = levels
            f = random_morphism(rng, n1, n0)
            g = random_morphism(rng, n2, n1)
            h = random_morphism(rng, n3, n2)
            assert compose(h, compose(g, f)) == compose(compose(h, g), f)

    def test_composites_lie_in_shared_face(self):
        rng = random.Random(6)
        for _ in range(100):
            a, b, c = sorted(rng.sample(range(0, 10), 3), reverse=True)
            f = random_morphism(rng, b, c)
            g = random_morphism(rng, a, b)
            x = compose(g, f)
            if x.is_basepoint:
                continue
            assert in_face_image(x, b)


class TestChainComplexData:
    def test_shape_validation(self):
        with pytest.raises(InputError):
            ChainComplexData((("x",), ("y",)), (IntegerMatrix.zeros(2, 1),))

    def test_square_zero_enforced(self):
        with pytest.raises(BoundaryCompositeError):
            ChainComplexData(
                (("x",), ("y",), ("z",)),
                (IntegerMatrix([[1]]), IntegerMatrix([[1]])),
            )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError):
            ChainComplexData((("x", "x"),), ())

    @pytest.mark.parametrize("label", [None, 1, ("x",)])
    def test_labels_must_be_strings(self, label):
        with pytest.raises(InputError):
            ChainComplexData((("a", label),), ())

    @pytest.mark.parametrize("bases", [["xy", ["z"]], [["x"], {"z": 1}], "xy"])
    def test_json_bases_must_be_label_lists(self, bases):
        with pytest.raises(InputError):
            ChainComplexData.from_json({"bases": bases, "boundaries": [[[1], [1]]]})

    def test_boundary_off_the_ends(self):
        c = ChainComplexData((("a", "b"), ("c",)), (IntegerMatrix.zeros(2, 1),))
        assert c.boundary(0).shape == (0, 2)
        assert c.boundary(2).shape == (1, 0)
        with pytest.raises(IndexRangeError):
            c.boundary(5)

    def test_json_round_trip(self):
        c = ChainComplexData(
            (("a",), ("b", "c")),
            (IntegerMatrix([[2, 0]]),),
        )
        again = ChainComplexData.from_json(json.loads(json.dumps(c.to_json())))
        assert again == c

    def test_json_round_trip_with_empty_degree(self):
        c = ChainComplexData(
            ((), ("b",)),
            (IntegerMatrix.zeros(0, 1),),
        )
        assert ChainComplexData.from_json(c.to_json()) == c


class TestRealize:
    def test_adjacent_components_are_boundaries(self):
        c = ChainComplexData(
            (("a",), ("b",), ("c",)),
            (IntegerMatrix([[2]]), IntegerMatrix([[0]])),
        )
        x = realize(c, CoefficientRing.integers())
        assert x.component(1, 0) == c.boundary(1)
        assert x.component(2, 1) == c.boundary(2)
        assert x.component(2, 0).is_zero()
        assert not x.total_square_defects()

    def test_higher_component_must_skip(self):
        c = ChainComplexData(
            (("a",), ("b",)),
            (IntegerMatrix([[0]]),),
        )
        with pytest.raises(InputError):
            realize(c, CoefficientRing.integers(), {(1, 0): IntegerMatrix([[1]])})

    def test_bad_higher_component_breaks_square(self):
        # levels 0..3, zero adjacent maps except d1 = 1 and d3 = 1; a skip
        # component (3,1) then makes (d1 @ D31) a nonzero (3,0)-composite
        c = ChainComplexData(
            (("a",), ("b",), ("c",), ("d",)),
            (IntegerMatrix([[1]]), IntegerMatrix([[0]]), IntegerMatrix([[0]])),
        )
        with pytest.raises(TotalDifferentialSquareError):
            realize(
                c,
                CoefficientRing.integers(),
                {(3, 1): IntegerMatrix([[1]])},
            )

    def test_check_realization_passes_for_honest_build(self):
        c = ChainComplexData(
            (("a", "b"), ("c",)),
            (IntegerMatrix([[1], [1]]),),
        )
        x = realize(c, CoefficientRing.integers())
        rep = check_realization(x, c)
        assert rep.passed

    def test_matching_components_are_not_scanned_entry_by_entry(self, monkeypatch):
        c = grid_surface(6)
        x = realize(c, CoefficientRing.integers())
        calls = []
        read = IntegerMatrix.__getitem__
        monkeypatch.setattr(
            IntegerMatrix, "__getitem__", lambda m, key: calls.append(key) or read(m, key)
        )
        assert check_realization(x, c).passed
        assert calls == []

    def test_tampered_component_reports_entry(self):
        c = ChainComplexData(
            (("a", "b"), ("c",)),
            (IntegerMatrix([[1], [1]]),),
        )
        x = realize(c, CoefficientRing.integers())
        bad = FilteredRealization(
            c, x.ring, {**x.components, (1, 0): IntegerMatrix([[1], [2]])}
        )
        rep = check_realization(bad, c)
        assert not rep.passed
        assert rep.check("free-subquotients").passed
        failures = rep.check("connecting-maps").failures
        assert any("b" in msg and "c" in msg for msg in failures)

    def test_reference_of_another_shape_fails_the_checks(self):
        # Against reference data with other bases, another length or other
        # boundary shapes, the check reports what differs instead of raising.
        c = ChainComplexData(
            (("a", "b"), ("c",)),
            (IntegerMatrix([[1], [1]]),),
        )
        x = realize(c, CoefficientRing.integers())
        renamed = ChainComplexData((("a", "z"), ("c",)), c.boundaries)
        rep = check_realization(x, renamed)
        assert rep.check("free-subquotients").failures == (
            "degree 0: level basis ['a', 'b'] != complex basis ['a', 'z']",
        )
        assert rep.check("connecting-maps").passed
        longer = ChainComplexData(
            (("a", "b"), ("c",), ("e",)),
            (IntegerMatrix([[1], [1]]), IntegerMatrix([[0]])),
        )
        rep = check_realization(x, longer)
        assert rep.check("free-subquotients").failures == (
            "filtration length 1 != complex length 2",
        )
        assert rep.check("connecting-maps").passed
        wider = ChainComplexData(
            (("a", "b"), ("c", "d")),
            (IntegerMatrix([[1, -1], [1, -1]]),),
        )
        rep = check_realization(x, wider)
        assert rep.check("free-subquotients").failures == (
            "degree 1: level basis ['c'] != complex basis ['c', 'd']",
        )
        assert rep.check("connecting-maps").failures == (
            "degree 1: component shape (2, 1) != (2, 2)",
        )

    def test_component_shape_validated(self):
        c = ChainComplexData(
            (("a",), ("b",)),
            (IntegerMatrix([[0]]),),
        )
        with pytest.raises(InputError):
            FilteredRealization(
                c, CoefficientRing.integers(), {(1, 0): IntegerMatrix([[1, 1]])}
            )
        with pytest.raises(IndexRangeError):
            FilteredRealization(
                c, CoefficientRing.integers(), {(2, 0): IntegerMatrix([[1]])}
            )

    def test_total_differential_squares_to_zero_matrix(self):
        rng = random.Random(3)
        cx, higher = random_filtered_complex(rng)
        x = realize(cx, CoefficientRing.integers(), higher)
        d = x.total_differential()
        assert (d @ d).is_zero()

    def test_total_homology_matches_degreewise_sum(self):
        c = ChainComplexData(
            (("a",), ("b", "b2"), ("c",)),
            (IntegerMatrix([[2, 0]]), IntegerMatrix([[0], [3]])),
        )
        x = realize(c, CoefficientRing.integers())
        total = total_homology(x)
        groups = all_homology(c, CoefficientRing.integers())
        assert total.free_rank == sum(g.free_rank for g in groups)

        def primary(torsion):
            # multiset of prime-power cyclic factors; Z/6 = Z/2 + Z/3
            out = []
            for t in torsion:
                n, p = t, 2
                while n > 1:
                    while n % p == 0:
                        q = p
                        while n % (q * p) == 0:
                            q *= p
                        out.append(q)
                        n //= q
                    p += 1
            return sorted(out)

        assert primary(total.torsion) == primary(
            t for g in groups for t in g.torsion
        )

    def test_json_round_trip(self):
        rng = random.Random(4)
        cx, higher = random_filtered_complex(rng)
        x = realize(cx, CoefficientRing.modular(3), higher)
        again = FilteredRealization.from_json(json.loads(json.dumps(x.to_json())))
        assert again.complex == x.complex
        assert again.ring == x.ring
        assert again.components == x.components

    def test_random_tampering_detected(self):
        rng = random.Random(9)
        for _ in range(10):
            cx, higher = random_filtered_complex(rng)
            x = realize(cx, CoefficientRing.integers(), higher)
            assert check_realization(x, cx).passed
            bad = tampered_copy(x, rng)
            rep = check_realization(bad, cx)
            assert not rep.passed
            assert not rep.check("connecting-maps").passed


class TestLargeSurfaces:
    """Boundaries of thousands of simplices, one Smith form each."""

    @pytest.mark.parametrize("ring", ["z", "zmod:2"])
    def test_torus_30(self, ring):
        groups = all_homology(grid_surface(30), CoefficientRing.parse(ring))
        assert [(g.free_rank, g.torsion) for g in groups] == [(1, ()), (2, ()), (1, ())]

    def test_klein_16(self):
        groups = all_homology(grid_surface(16, klein=True), CoefficientRing.integers())
        assert [(g.free_rank, g.torsion) for g in groups] == [(1, ()), (1, (2,)), (0, ())]


class TestSquareZeroCheckedOnce:
    """Each square-zero fact is checked by the object that holds it, once."""

    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_no_defects_iff_total_differential_squares_to_zero(self, seed, perturb):
        rng = random.Random(seed)
        cx, higher = random_filtered_complex(rng)
        comps = {(p, p - 1): cx.boundary(p) for p in range(1, cx.top_degree + 1)}
        comps.update(higher)
        if perturb:
            # Bump one entry of a level-skipping component, present or not.
            p = rng.randint(2, cx.top_degree)
            q = rng.randint(0, p - 2)
            rows = comps.get((p, q), IntegerMatrix.zeros(cx.rank(q), cx.rank(p))).to_rows()
            rows[rng.randrange(cx.rank(q))][rng.randrange(cx.rank(p))] += rng.choice((-2, -1, 1, 2))
            comps[(p, q)] = IntegerMatrix(rows)
        x = FilteredRealization(cx, CoefficientRing.integers(), comps)
        d = x.total_differential()
        assert (not x.total_square_defects()) == (d @ d).is_zero()

    @pytest.fixture
    def products(self, monkeypatch):
        """A one-item list counting the `IntegerMatrix` products formed."""
        count = [0]
        matmul = IntegerMatrix.__matmul__

        def counted(a, b):
            count[0] += 1
            return matmul(a, b)

        monkeypatch.setattr(IntegerMatrix, "__matmul__", counted)
        return count

    def test_all_homology_forms_no_products(self, products):
        cx = grid_surface(4)
        before = products[0]
        groups = all_homology(cx, CoefficientRing.integers())
        assert products[0] == before
        assert [(g.free_rank, g.torsion) for g in groups] == [(1, ()), (2, ()), (1, ())]

    def test_defect_blocks_are_evaluated_once(self, products):
        cx, higher = random_filtered_complex(random.Random(5))
        ring = CoefficientRing.integers()
        start = products[0]
        x = realize(cx, ring, higher)
        once = products[0] - start
        assert once > 0
        assert not x.total_square_defects()
        total_homology(x)
        assert products[0] - start == once
        # One evaluation on a fresh object over the same components costs as much.
        FilteredRealization(cx, ring, x.components).total_square_defects()
        assert products[0] - start == 2 * once

    def test_homology_of_raw_matrices_multiplies_once(self, products):
        d = IntegerMatrix([[2]])
        h = homology(d, IntegerMatrix.zeros(0, 1), CoefficientRing.integers())
        assert products[0] == 1
        assert h.torsion == (2,)
