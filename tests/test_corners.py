"""Corner codes, face assignments, boundary strata, and unit diagrams."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseflow import (
    CubeObject,
    FaceStructure,
    SignDiagram,
    StratumChain,
    corner_code,
    face_decomposition,
    strata,
    strata_report_json,
    validate_face_structure,
)
from morseflow.bank import ladder_category, torus_category
from morseflow.corners import SIGN_DIAGRAM_K_MAX
from morseflow.errors import (
    IndexRangeError,
    InputError,
    NegativeCoordinateError,
    NotComparableError,
)


class TestCornerCode:
    def test_counts_vanishing_coordinates(self):
        assert corner_code((1, 2, 3)) == 0
        assert corner_code((0, 2, 0)) == 2
        assert corner_code((0, 0, 0)) == 3
        assert corner_code(()) == 0
        assert corner_code((Fraction(0), Fraction(1, 3))) == 1

    def test_negative_coordinate_rejected(self):
        with pytest.raises(NegativeCoordinateError):
            corner_code((1, -1))


class TestCubeObject:
    def test_all_objects_size(self):
        for k in range(5):
            assert len(CubeObject.all_objects(k)) == 2**k

    def test_partial_order(self):
        a = CubeObject((0, 1, 0))
        b = CubeObject((1, 1, 0))
        assert a.leq(b) and not b.leq(a)
        assert a.leq(a)
        with pytest.raises(InputError):
            a.leq(CubeObject((1,)))

    def test_join_and_disjoint(self):
        a = CubeObject((1, 0, 0))
        b = CubeObject((0, 0, 1))
        assert a.disjoint_from(b)
        assert a.join(b).bits == (1, 0, 1)
        assert not a.join(b).disjoint_from(a)

    def test_concat(self):
        assert CubeObject((1,)).concat(CubeObject((0, 1))).bits == (1, 0, 1)

    def test_rejects_non_binary(self):
        with pytest.raises(InputError):
            CubeObject((0, 2))

    @pytest.mark.parametrize("bits", [(0.5, 1), ("1",), (True, 0), (None,)])
    def test_rejects_a_coordinate_that_is_not_an_integer(self, bits):
        # int() would read 0.5 as 0 and "1" as 1.
        with pytest.raises(InputError, match="not an integer"):
            CubeObject(bits)

    @pytest.mark.parametrize("method", ["join", "disjoint_from"])
    def test_join_and_disjoint_refuse_another_cube(self, method):
        # zip would truncate to the shorter cube: (1, 0) join (0, 1, 1) was (1, 1).
        with pytest.raises(InputError, match="cube dimensions differ"):
            getattr(CubeObject((1, 0)), method)(CubeObject((0, 1, 1)))


class TestFaceStructure:
    def test_canonical_assignment_passes(self):
        samples = [
            (Fraction(1, 2), Fraction(1, 3)),
            (0, Fraction(1, 5)),
            (0, 0),
        ]
        fs = FaceStructure.canonical(2, samples)
        assert fs.labels == (frozenset(), frozenset({1}), frozenset({1, 2}))
        assert validate_face_structure(fs).passed

    def test_label_count_mismatch_detected(self):
        fs = FaceStructure(2, ((0, 1),), (frozenset(),))
        rep = validate_face_structure(fs)
        assert not rep.check("label-count-matches-corner-code").passed
        assert not rep.check("boundary-is-covered").passed

    def test_interior_sample_with_two_labels_detected(self):
        fs = FaceStructure(2, ((1, 1),), (frozenset({1, 2}),))
        rep = validate_face_structure(fs)
        assert not rep.check("pairwise-intersections-are-corners").passed

    def test_out_of_range_label_rejected(self):
        with pytest.raises(InputError):
            FaceStructure(2, ((0, 1),), (frozenset({3}),))

    def test_sample_arity_enforced(self):
        with pytest.raises(InputError):
            FaceStructure(2, ((0,),), (frozenset({1}),))

    def test_label_must_be_an_integer(self):
        # int() would read the label 1.7 as face 1.
        with pytest.raises(InputError, match="face label 1.7 is not an integer"):
            FaceStructure(2, ((0, 1),), (frozenset({1.7}),))

    @pytest.mark.parametrize("k, message", [(-1, "negative"), (1.5, "not an integer")])
    def test_k_must_be_a_count(self, k, message):
        with pytest.raises(InputError, match=message):
            FaceStructure(k, (), ())

    def test_sample_coordinates_must_be_rationals(self):
        # A ValueError from Fraction("x") before.
        with pytest.raises(InputError, match="bad rational 'x'"):
            FaceStructure(1, [("x",)], [set()])
        with pytest.raises(InputError, match="bad rational 'x'"):
            FaceStructure.canonical(1, [("x",)])

    def test_sample_coordinates_are_exact_past_the_float_range(self):
        big = Fraction(10**400)
        fs = FaceStructure.canonical(1, [(big,), (0,)])
        assert fs.samples == ((big,), (Fraction(0),))


class TestStrata:
    def test_torus_top_to_bottom(self):
        cat, _ = torus_category()
        chains = strata(cat, "M", "m")
        assert [ch.objects for ch in chains] == [
            ("M", "m"),
            ("M", "X", "m"),
            ("M", "Y", "m"),
        ]
        assert [ch.dimension for ch in chains] == [1, 0, 0]
        assert chains[0].links == 1
        assert chains[1].intermediates() == ("X",)

    def test_gap_one_has_single_open_stratum(self):
        cat, _ = torus_category()
        chains = strata(cat, "M", "X")
        assert [ch.objects for ch in chains] == [("M", "X")]
        assert chains[0].dimension == 0

    def test_ladder_gap_three(self):
        cat, _ = ladder_category()
        chains = strata(cat, "T", "m")
        assert [ch.objects for ch in chains] == [
            ("T", "m"),
            ("T", "X1", "m"),
            ("T", "X2", "m"),
            ("T", "X2", "X1", "m"),
        ]
        assert [ch.dimension for ch in chains] == [2, 1, 1, 0]

    def test_not_comparable(self):
        cat, _ = torus_category()
        with pytest.raises(NotComparableError):
            strata(cat, "X", "Y")
        with pytest.raises(NotComparableError):
            strata(cat, "m", "M")
        with pytest.raises(NotComparableError):
            strata(cat, "X", "X")

    def test_report_json_shape(self):
        cat, _ = torus_category()
        data = strata_report_json(cat, "M", "m")
        assert data["pair"] == ["M", "m"]
        assert data["chains"][0] == ["M", "m"]
        assert data["dims"] == [1, 0, 0]


class TestFaceDecomposition:
    def test_torus_faces(self):
        cat, _ = torus_category()
        groups = face_decomposition(cat, "M", "m", 1)
        assert sorted(groups) == ["X", "Y"]
        assert [ch.objects for ch in groups["X"]] == [("M", "X", "m")]
        assert [ch.objects for ch in groups["Y"]] == [("M", "Y", "m")]

    def test_ladder_face_sets_intersect_in_corner(self):
        cat, _ = ladder_category()
        g1 = face_decomposition(cat, "T", "m", 1)
        g2 = face_decomposition(cat, "T", "m", 2)
        assert sorted(g1) == ["X2"]
        assert sorted(g2) == ["X1"]
        in_both = {ch for chs in g1.values() for ch in chs} & {
            ch for chs in g2.values() for ch in chs
        }
        assert in_both == {StratumChain(("T", "X2", "X1", "m"), 0)}

    def test_chain_lies_in_one_face_set_per_intermediate(self):
        # a chain with r links meets exactly r - 1 of the face sets
        cat, _ = ladder_category()
        gap = cat.mu("T") - cat.mu("m")
        for ch in strata(cat, "T", "m"):
            hits = sum(
                1
                for j in range(1, gap)
                if any(ch in chs for chs in face_decomposition(cat, "T", "m", j).values())
            )
            assert hits == ch.links - 1

    def test_face_index_range(self):
        cat, _ = torus_category()
        with pytest.raises(IndexRangeError):
            face_decomposition(cat, "M", "m", 0)
        with pytest.raises(IndexRangeError):
            face_decomposition(cat, "M", "m", 2)


class TestSignDiagram:
    def test_bottom_must_be_positive(self):
        with pytest.raises(InputError):
            SignDiagram(1, {(0,): -1, (1,): 1})

    def test_missing_vertex_rejected(self):
        with pytest.raises(InputError):
            SignDiagram(2, {(0, 0): 1, (1, 1): 1})

    @pytest.mark.parametrize("k, message", [(-1, "negative"), (1.5, "not an integer")])
    def test_k_must_be_a_count(self, k, message):
        # A ValueError and a TypeError from itertools.product before.
        with pytest.raises(InputError, match=message):
            SignDiagram(k, {})

    def test_k_above_the_ceiling_is_refused_before_the_cube_is_built(self):
        # Every vertex of 2^k was built before the first unit was looked up.
        k = SIGN_DIAGRAM_K_MAX + 1
        with pytest.raises(InputError, match=f"k {k} is above the ceiling {SIGN_DIAGRAM_K_MAX}"):
            SignDiagram(k, {})

    def test_units_and_pairs_above_the_ceiling_are_refused_before_the_cube_is_built(
        self, monkeypatch
    ):
        # Both enumerated all 2^k vertices before the ceiling was checked.
        half = SignDiagram.from_slot_units([1] * (SIGN_DIAGRAM_K_MAX // 2 + 1))

        def built(k):
            raise AssertionError(f"the cube 2^{k} was built")

        monkeypatch.setattr(CubeObject, "all_objects", staticmethod(built))
        k = SIGN_DIAGRAM_K_MAX + 1
        with pytest.raises(InputError, match=f"k {k} is above the ceiling"):
            SignDiagram.from_slot_units([1] * k)
        with pytest.raises(InputError, match=f"k {2 * half.k} is above the ceiling"):
            half.pair(half)

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ({(0,): 1, (1,): 1, (0, 1): 1}, "is not a vertex"),
            ({(0,): 1, (1,): 1, 5: 1}, "is not a vertex"),
            ({(0,): 1, (2,): 1}, "must be 0 or 1"),
        ],
        ids=["longer", "not-a-tuple", "not-a-bit"],
    )
    def test_every_key_must_be_a_vertex(self, assignment, message):
        # Keys off the cube were passed over before, and (2,) read as (1,) missing.
        with pytest.raises(InputError, match=message):
            SignDiagram(1, assignment)

    def test_slot_units_are_multiplicative(self):
        d = SignDiagram.from_slot_units((1, -1, -1))
        assert d.unit((0, 0, 0)) == 1
        assert d.unit((0, 1, 0)) == -1
        assert d.unit((0, 1, 1)) == 1
        assert d.is_multiplicative()

    def test_non_multiplicative_detected(self):
        assignment = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): -1}
        d = SignDiagram(2, assignment)
        assert not d.is_multiplicative()

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_the_linear_check_is_the_pairwise_definition(self, k):
        # Every diagram of 2^k: +1 at the bottom, any unit elsewhere.
        objs = CubeObject.all_objects(k)
        seen = set()
        for units in itertools.product((1, -1), repeat=len(objs) - 1):
            d = SignDiagram(k, dict(zip((o.bits for o in objs), (1,) + units)))
            pairwise = all(
                d.unit(a.join(b)) == d.unit(a) * d.unit(b)
                for a in objs
                for b in objs
                if a.disjoint_from(b)
            )
            assert d.is_multiplicative() == pairwise
            seen.add(pairwise)
        assert seen == ({True} if k <= 1 else {True, False})

    def test_the_check_is_linear_in_the_cube(self):
        # 2^12 vertices: the pairwise check compared 2^24 pairs.
        units = [1, -1] * 6
        d = SignDiagram.from_slot_units(units)
        assert d.is_multiplicative()
        flipped = dict(d.assignment)
        top = (1,) * 12
        flipped[top] = -flipped[top]
        assert not SignDiagram(12, flipped).is_multiplicative()

    def test_pairing_concatenates_and_multiplies(self):
        a = SignDiagram.from_slot_units((-1,))
        b = SignDiagram.from_slot_units((1, -1))
        p = a.pair(b)
        assert p.k == 3
        for x in CubeObject.all_objects(1):
            for y in CubeObject.all_objects(2):
                assert p.unit(x.bits + y.bits) == a.unit(x) * b.unit(y)
        assert p.is_multiplicative()

    @given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_slot_units_recover_generators(self, units):
        d = SignDiagram.from_slot_units(units)
        assert d.is_multiplicative()
        for j, u in enumerate(units):
            bits = tuple(1 if i == j else 0 for i in range(len(units)))
            assert d.unit(bits) == u

    def test_pair_of_multiplicative_is_multiplicative(self):
        rng_units = [(1, -1), (-1,), (-1, 1, -1)]
        for ua, ub in itertools.permutations(rng_units, 2):
            a = SignDiagram.from_slot_units(ua)
            b = SignDiagram.from_slot_units(ub)
            assert a.pair(b).is_multiplicative()
