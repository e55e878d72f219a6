"""Flow category axioms, orientation coherence, and the extracted complex."""

import json

import pytest

from morseflow import (
    BrokenFlow,
    CircleComponent,
    CoefficientRing,
    FlowCategory,
    IntervalComponent,
    ModuliFamily,
    OrientationData,
    NumericalConfig,
    RigidFlow,
    InputError,
    TrigPolynomial,
    TrigTerm,
    all_homology,
    build_flow_category,
    check_orientation_coherence,
    floer_complex,
    validate_morse_smale,
)
from morseflow.bank import (
    circle_category,
    klein_category,
    ladder_category,
    perturbed_torus,
    rp2_category,
    torus_category,
)
from morseflow.cli import CONFIG_ENV, main
from morseflow.errors import (
    IncoherentOrientationError,
    InvalidFlowCategoryError,
    NegativeRelativeIndexError,
)

ALL_BANK = [circle_category, torus_category, klein_category, rp2_category, ladder_category]


def h_integers(cat, ori, **kw):
    ex = floer_complex(cat, ori, **kw)
    return [str(g) for g in all_homology(ex.complex, CoefficientRing.integers())]


class TestConstruction:
    def test_duplicate_flow_ids_rejected(self):
        with pytest.raises(InputError):
            FlowCategory(
                ("a", "b"),
                {"a": 1, "b": 0},
                (RigidFlow("f", "a", "b"), RigidFlow("f", "a", "b")),
            )

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(InputError):
            FlowCategory(("a",), {"a": 1}, (RigidFlow("f", "a", "zz"),))

    def test_index_must_cover_objects(self):
        with pytest.raises(InputError):
            FlowCategory(("a", "b"), {"a": 0})

    def test_index_must_be_integer(self):
        with pytest.raises(InputError, match="object index 2.7"):
            FlowCategory(("a", "b"), {"a": 2.7, "b": 0})
        with pytest.raises(InputError):
            FlowCategory(("a", "b"), {"a": True, "b": 0})
        assert FlowCategory(("a", "b"), {"a": 1.0, "b": 0}).index == {"a": 1, "b": 0}

    @pytest.mark.parametrize(
        "flows, moduli",
        [
            ((RigidFlow("f", [], "b"),), ()),
            ((RigidFlow(1, "a", "b"),), ()),
            ((), (ModuliFamily({}, "b", ()),)),
            ((), (ModuliFamily("a", "b", (IntervalComponent((BrokenFlow([], "f", "g"),) * 2),)),)),
        ],
        ids=["flow-source", "flow-id", "family-source", "endpoint-via"],
    )
    def test_ids_must_be_strings(self, flows, moduli):
        with pytest.raises(InputError, match="is not a string"):
            FlowCategory(("a", "b"), {"a": 2, "b": 0}, flows, moduli)

    def test_object_ids_must_be_strings(self):
        with pytest.raises(InputError, match="is not a string"):
            FlowCategory((1, "b"), {1: 1, "b": 0})

    def test_interval_ends_must_break_correctly(self):
        with pytest.raises(InputError):
            FlowCategory(
                ("a", "b", "c"),
                {"a": 2, "b": 1, "c": 0},
                (RigidFlow("f", "a", "b"), RigidFlow("g", "b", "c")),
                (
                    ModuliFamily(
                        "a",
                        "c",
                        (
                            IntervalComponent(
                                (
                                    BrokenFlow("b", "g", "f"),
                                    BrokenFlow("b", "f", "g"),
                                )
                            ),
                        ),
                    ),
                ),
            )


class TestValidators:
    @pytest.mark.parametrize("make", ALL_BANK)
    def test_bank_passes_both_validators(self, make):
        cat, ori = make()
        assert validate_morse_smale(cat).passed
        assert check_orientation_coherence(cat, ori).passed

    def test_indexed_lookups_match_a_full_scan(self):
        # perturbed_torus(0) with every frequency times 4: 64 points, 128
        # flows and 64 families.  The flows by source and the families by
        # (source, target) must give what a scan of every flow or family
        # gives, in the same order, with the first family of a repeated pair.
        m = 4
        f = TrigPolynomial(
            2,
            tuple(
                TrigTerm(tuple(m * k for k in t.frequency), t.cos_coeff, t.sin_coeff)
                for t in perturbed_torus(0).terms
            ),
        )
        cfg = NumericalConfig(
            grid_resolution=32 * m, sphere_radius=1e-3 / m, landing_radius=1e-4 / m
        )
        built, _ = build_flow_category(f, cfg)
        assert len(built.objects) == 64 and len(built.moduli) == 64
        first = built.moduli[0]
        cat = FlowCategory(
            built.objects,
            built.index,
            built.rigid_flows,
            built.moduli + (ModuliFamily(first.source, first.target, ()),),
        )
        flows, families = cat.rigid_flows, cat.moduli
        pairs = 0
        for a in cat.objects:
            for b in cat.objects:
                gap = cat.mu(a) - cat.mu(b)
                if gap == 1:
                    scan = [g for g in flows if g.source == a and g.target == b]
                    assert cat.flows_between(a, b) == scan
                elif gap == 2:
                    scan = [
                        BrokenFlow(g.target, g.id, h.id)
                        for g in flows
                        if g.source == a
                        for h in flows
                        if h.source == g.target and h.target == b
                    ]
                    assert cat.broken_flows(a, b) == scan
                    pairs += len(scan)
                    fam = next((x for x in families if (x.source, x.target) == (a, b)), None)
                    assert cat.family_between(a, b) is fam
        assert pairs == 128
        assert cat.family_between(first.source, first.target) is first
        assert validate_morse_smale(cat).passed

    def test_index_raising_flow_fails_order_check(self):
        cat = FlowCategory(
            ("a", "b"),
            {"a": 1, "b": 1},
            (RigidFlow("f", "a", "b"),),
        )
        rep = validate_morse_smale(cat)
        assert not rep.passed
        assert not rep.check("partial-order").passed
        assert not rep.check("dimension-rule").passed

    def test_gap_two_flow_fails_dimension_rule(self):
        cat = FlowCategory(
            ("a", "b"),
            {"a": 2, "b": 0},
            (RigidFlow("f", "a", "b"),),
        )
        rep = validate_morse_smale(cat)
        assert not rep.check("dimension-rule").passed

    def test_missing_interval_is_detected(self):
        cat, _ = torus_category()
        stripped = FlowCategory(
            cat.objects,
            cat.index,
            cat.rigid_flows,
            (
                ModuliFamily(
                    "M", "m", cat.moduli[0].components[:3]
                ),
            ),
        )
        rep = validate_morse_smale(stripped)
        assert not rep.passed
        failures = rep.check("composition-into-boundary").failures
        assert failures and any("never appearing" in f for f in failures)

    def test_duplicated_endpoint_is_detected(self):
        cat, _ = torus_category()
        comps = cat.moduli[0].components
        doubled = FlowCategory(
            cat.objects,
            cat.index,
            cat.rigid_flows,
            (ModuliFamily("M", "m", comps[:3] + (comps[0],)),),
        )
        rep = validate_morse_smale(doubled)
        assert not rep.passed

    def test_a_family_listed_twice_uses_each_end_twice(self):
        # Each family of a pair counts, not only the first: listing the torus
        # family again ends every broken flow at two intervals.
        cat, ori = torus_category()
        (fam,) = cat.moduli
        twice = FlowCategory(cat.objects, cat.index, cat.rigid_flows, (fam, fam))
        assert check_orientation_coherence(twice, ori).passed
        failures = validate_morse_smale(twice).check("composition-into-boundary").failures
        pairs = sorted((bf.first, bf.second) for bf in twice.broken_flows("M", "m"))
        assert len(pairs) == 8
        assert failures == (f"pair ('M', 'm'): endpoints used more than once: {pairs}",)

    def test_cycle_detected(self):
        cat = FlowCategory(
            ("a", "b"),
            {"a": 1, "b": 0},
            (RigidFlow("f", "a", "b"), RigidFlow("g", "b", "a")),
        )
        rep = validate_morse_smale(cat)
        assert not rep.passed
        assert not rep.check("partial-order").passed

    def test_incoherent_sign_flip_detected(self):
        cat, ori = torus_category()
        bad = OrientationData({**ori.signs, "a0": -ori.signs["a0"]})
        rep = check_orientation_coherence(cat, bad)
        assert not rep.passed
        assert not rep.check("interval-cancellation").passed

    def test_missing_sign_detected(self):
        cat, ori = torus_category()
        signs = dict(ori.signs)
        del signs["a0"]
        rep = check_orientation_coherence(cat, OrientationData(signs))
        assert not rep.check("signs-present").passed


class TestOrientationData:
    def test_sign_validation(self):
        with pytest.raises(InputError):
            OrientationData({"f": 2})

    @pytest.mark.parametrize("sign", [True, 1.5, "1", None])
    def test_sign_must_be_an_integer(self, sign):
        with pytest.raises(InputError):
            OrientationData({"f": sign})

    def test_flow_ids_must_be_strings(self):
        with pytest.raises(InputError, match="is not a string"):
            OrientationData({1: 1})

    def test_flip_at_object_preserves_coherence(self):
        cat, ori = torus_category()
        for obj in cat.objects:
            flipped = ori.flipped_at(cat, obj)
            assert check_orientation_coherence(cat, flipped).passed

    def test_flip_changes_adjacent_signs_only(self):
        cat, ori = torus_category()
        flipped = ori.flipped_at(cat, "X")
        for f in cat.rigid_flows:
            expect = -ori.sign(f.id) if "X" in (f.source, f.target) else ori.sign(f.id)
            assert flipped.sign(f.id) == expect


class TestFloerComplex:
    def test_torus_boundary_vanishes(self):
        cat, ori = torus_category()
        ex = floer_complex(cat, ori)
        assert all(d.is_zero() for d in ex.complex.boundaries)
        assert h_integers(cat, ori) == ["Z", "Z^2", "Z"]

    def test_klein_boundary_and_homology(self):
        cat, ori = klein_category()
        ex = floer_complex(cat, ori)
        # degree-1 basis is sorted (A, B); the degree-2 map is twice B
        assert ex.complex.bases[1] == ("A", "B")
        assert ex.complex.boundary(2).to_rows() == [[0], [2]]
        assert h_integers(cat, ori) == ["Z", "Z + Z/2", "0"]

    def test_rp2_homology(self):
        cat, ori = rp2_category()
        assert h_integers(cat, ori) == ["Z", "Z/2", "0"]

    def test_mod2_dimensions(self):
        ring = CoefficientRing.modular(2)
        cat, ori = klein_category()
        dims = [
            g.free_rank + len(g.torsion)
            for g in all_homology(floer_complex(cat, ori).complex, ring)
        ]
        assert dims == [1, 2, 1]
        cat, ori = rp2_category()
        dims = [
            g.free_rank + len(g.torsion)
            for g in all_homology(floer_complex(cat, ori).complex, ring)
        ]
        assert dims == [1, 1, 1]

    def test_base_object_relative_grading(self):
        cat, ori = torus_category()
        ex = floer_complex(cat, ori, base="m")
        assert ex.complex.bases[0] == ("m",)
        assert ex.grading_offset == 0
        with pytest.raises(NegativeRelativeIndexError):
            floer_complex(cat, ori, base="M")
        shifted = floer_complex(cat, ori, base="M", strict=False)
        assert shifted.grading_offset == -2
        assert shifted.complex.bases[2] == ("M",)

    def test_unknown_base_rejected(self):
        cat, ori = torus_category()
        with pytest.raises(InputError):
            floer_complex(cat, ori, base="nope")

    def test_invalid_category_refused(self):
        cat = FlowCategory(
            ("a", "b"), {"a": 2, "b": 0}, (RigidFlow("f", "a", "b"),)
        )
        with pytest.raises(InvalidFlowCategoryError):
            floer_complex(cat, OrientationData({"f": 1}))

    def test_incoherent_orientation_refused(self):
        cat, ori = torus_category()
        bad = OrientationData({**ori.signs, "a0": -ori.signs["a0"]})
        with pytest.raises(IncoherentOrientationError):
            floer_complex(cat, bad)

    def test_empty_category(self):
        ex = floer_complex(FlowCategory((), {}), OrientationData({}))
        groups = all_homology(ex.complex, CoefficientRing.integers())
        assert [str(g) for g in groups] == ["0"]


class TestSerialization:
    @pytest.mark.parametrize("make", ALL_BANK)
    def test_json_round_trip(self, make):
        cat, ori = make()
        payload = json.loads(json.dumps(cat.to_json(ori)))
        cat2, ori2 = FlowCategory.from_json(payload)
        assert set(cat2.objects) == set(cat.objects)
        assert cat2.index == cat.index
        assert set(cat2.rigid_flows) == set(cat.rigid_flows)
        assert sorted(cat2.moduli, key=repr) == sorted(cat.moduli, key=repr)
        assert ori2.signs == ori.signs
        # serializing again must be byte-stable
        assert cat2.to_json(ori2) == cat.to_json(ori)

    def test_from_json_rejects_missing_fields(self):
        payload = {
            "objects": [{"id": "a", "index": 0}],
            "rigidFlows": [{"id": "f", "from": "a", "to": "a"}],
        }
        with pytest.raises(InputError):
            FlowCategory.from_json(payload)

    def test_objects_sorted_by_descending_index(self):
        cat, ori = ladder_category()
        data = cat.to_json(ori)
        indices = [o["index"] for o in data["objects"]]
        assert indices == sorted(indices, reverse=True)


class TestCircleComponent:
    def test_a_circle_in_the_torus_family_changes_nothing(self, capsys, monkeypatch, tmp_path):
        # A closed loop of flows has no ends, so it adds no broken flow for
        # the validators to pair and nothing to the boundary: the category
        # stays valid, and its complex and homology are the torus's.
        plain, ori = torus_category()
        (fam,) = plain.moduli
        circled = ModuliFamily(fam.source, fam.target, fam.components + (CircleComponent(),))
        cat = FlowCategory(plain.objects, plain.index, plain.rigid_flows, (circled,))
        assert validate_morse_smale(cat).passed
        assert check_orientation_coherence(cat, ori).passed
        payload = json.loads(json.dumps(cat.to_json(ori)))
        assert {"kind": "circle"} in payload["oneDimModuli"][0]["components"]
        cat2, ori2 = FlowCategory.from_json(payload)
        assert cat2.moduli == cat.moduli and cat2.to_json(ori2) == payload
        want = floer_complex(plain, ori).complex.to_json()
        assert floer_complex(cat, ori).complex.to_json() == want
        monkeypatch.delenv(CONFIG_ENV, raising=False)
        path = tmp_path / "circled.json"
        path.write_text(json.dumps(payload))
        assert main(["validate", "--category", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["passed"] is True
        assert main(["homology", "--category", str(path)]) == 0
        groups = json.loads(capsys.readouterr().out)["results"]["homology"]
        assert [g["group"] for g in groups] == ["Z", "Z^2", "Z"]
