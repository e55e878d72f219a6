"""Numerical Morse data: critical points, flow lines, one-dimensional families."""

import functools
import inspect
import itertools
import json
import math
import random
import re
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    _float_terms,
    all_seeds_critical_points,
    backward_sign,
    bisect_one_at_a_time,
    forward_sign,
    full_landing_classes,
    probe_exit,
    running_on,
    scalar_flow,
    taylor_jet,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from morseflow import (
    CoefficientRing,
    CriticalPoint,
    NumericalConfig,
    TrigPolynomial,
    TrigTerm,
    all_homology,
    build_flow_category,
    check_orientation_coherence,
    connecting_orbits,
    eval_grad_hess,
    find_critical_points,
    floer_complex,
    flow_lines,
    moduli_family,
    morse,
    torus_distance,
    trajectories_svg,
    trajectory_csv,
    validate_morse_smale,
)
from morseflow.bank import (
    circle_function,
    degenerate_function,
    perturbed_torus,
    perturbed_torus_seeds,
    pullback,
    tilted_upright_torus,
    torus_function,
)
from morseflow.errors import (
    EulerMismatchError,
    InputError,
    IntegrationFailureError,
    MorseflowError,
    MorseSmaleViolationError,
    NotMorseError,
    UnmatchedEndpointError,
)
from morseflow.morse import (
    _Analysis,
    _certify,
    _Compiled,
    _covered,
    _dedupe,
    _derivative_bounds,
    _grid_numerators,
    _half_diagonal,
    _horner,
    _Landing,
    _live,
    _norms,
    _orientation,
    _passes,
    _taylor_jet,
    _wrap,
)


def three_torus_function() -> TrigPolynomial:
    return TrigPolynomial(
        3,
        (
            TrigTerm((1, 0, 0), Fraction(1), Fraction(0)),
            TrigTerm((0, 1, 0), Fraction(1), Fraction(0)),
            TrigTerm((0, 0, 1), Fraction(1), Fraction(0)),
        ),
    )


def random_circle_function(rng: random.Random) -> TrigPolynomial:
    terms = [TrigTerm((1,), Fraction(1), Fraction(0))]
    for k in (1, 2):
        terms.append(
            TrigTerm(
                (k,),
                Fraction(rng.randint(-5, 5), 100),
                Fraction(rng.randint(-5, 5), 100),
            )
        )
    return TrigPolynomial(1, tuple(terms))


class TestTrigPolynomial:
    def test_json_round_trip_keeps_exact_coefficients(self):
        f = TrigPolynomial(
            2,
            (
                TrigTerm((1, 0), Fraction(1, 3), Fraction(0)),
                TrigTerm((0, 2), Fraction(-2, 7), Fraction(5, 11)),
            ),
        )
        data = json.loads(json.dumps(f.to_json()))
        g = TrigPolynomial.from_json(data)
        assert g == f
        assert g.terms[0].cos_coeff == Fraction(1, 3)
        assert g.terms[1].sin_coeff == Fraction(5, 11)

    def test_dimension_limits(self):
        with pytest.raises(InputError):
            TrigPolynomial(4, (TrigTerm((1, 0, 0, 0), Fraction(1), Fraction(0)),))
        with pytest.raises(InputError):
            TrigPolynomial(0, ())

    @pytest.mark.parametrize("k", [1.5, True, "1", None])
    def test_frequency_must_be_an_integer(self, k):
        with pytest.raises(InputError):
            TrigTerm((k,), 1)

    def test_frequency_must_fit_a_float(self):
        with pytest.raises(InputError, match="too large"):
            TrigTerm((10**400,), 1)

    @pytest.mark.parametrize("dim", [True, 1.5, "1"])
    def test_dimension_must_be_an_integer(self, dim):
        with pytest.raises(InputError):
            TrigPolynomial(dim, (TrigTerm((1,), 1),))

    def test_integral_floats_read_as_ints(self):
        f = TrigPolynomial(2.0, (TrigTerm((1.0, 0), 1),))
        assert f.to_json()["dim"] == 2 and type(f.dimension) is int
        assert f.terms[0].frequency == (1, 0)
        assert all(type(k) is int for k in f.terms[0].frequency)

    def test_requires_a_nonconstant_term(self):
        with pytest.raises(InputError):
            TrigPolynomial(1, (TrigTerm((0,), Fraction(2), Fraction(0)),))

    def test_frequency_arity_must_match_dimension(self):
        with pytest.raises(InputError):
            TrigPolynomial(2, (TrigTerm((1,), Fraction(1), Fraction(0)),))


class TestEvaluation:
    def test_cosine_at_origin(self):
        v, g, h = eval_grad_hess(circle_function(), (0.0,))
        assert v == pytest.approx(1.0, abs=1e-14)
        assert g[0] == pytest.approx(0.0, abs=1e-14)
        assert h[0][0] == pytest.approx(-4 * math.pi**2, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = random.Random(7)
        for _ in range(10):
            terms = []
            for _ in range(3):
                freq = (rng.randint(-2, 2), rng.randint(-2, 2))
                if freq == (0, 0):
                    freq = (1, 0)
                terms.append(
                    TrigTerm(
                        freq,
                        Fraction(rng.randint(-9, 9), 10),
                        Fraction(rng.randint(-9, 9), 10),
                    )
                )
            try:
                f = TrigPolynomial(2, tuple(terms))
            except InputError:
                continue
            x = [rng.random(), rng.random()]
            _, grad, hess = eval_grad_hess(f, x)
            eps = 1e-6
            for i in range(2):
                xp = list(x)
                xm = list(x)
                xp[i] += eps
                xm[i] -= eps
                vp = eval_grad_hess(f, xp)[0]
                vm = eval_grad_hess(f, xm)[0]
                assert grad[i] == pytest.approx((vp - vm) / (2 * eps), abs=1e-6)
                gp = eval_grad_hess(f, xp)[1]
                gm = eval_grad_hess(f, xm)[1]
                for j in range(2):
                    assert hess[i][j] == pytest.approx(
                        (gp[j] - gm[j]) / (2 * eps), abs=1e-5
                    )

    def test_hessian_is_symmetric(self):
        f = TrigPolynomial(
            2,
            (
                TrigTerm((1, 2), Fraction(1, 2), Fraction(1, 3)),
                TrigTerm((2, -1), Fraction(1, 5), Fraction(0)),
            ),
        )
        _, _, h = eval_grad_hess(f, (0.13, 0.71))
        assert h[0][1] == pytest.approx(h[1][0], rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_batch_rows_equal_rows_evaluated_alone(self, data):
        # Lanes share evaluator calls, so each row must get the same bits in
        # a batch of any size as it gets alone (one row is the edge case:
        # a matrix-vector product rounds differently from a matrix product).
        dim = data.draw(st.integers(1, 3))
        coeff = st.fractions(-3, 3, max_denominator=12)
        terms = data.draw(
            st.lists(
                st.builds(
                    TrigTerm,
                    st.tuples(*[st.integers(-3, 3)] * dim),
                    coeff,
                    coeff,
                ),
                min_size=1,
                max_size=12,
            )
        )
        try:
            f = TrigPolynomial(dim, tuple(terms))
        except InputError:
            return
        coords = st.floats(-1.0, 2.0, allow_nan=False)
        x = np.array(
            data.draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=16)),
            dtype=float,
        )
        comp = _Compiled(f)
        for evaluate in (comp.value_batch, comp.grad_batch, comp.hess_batch):
            batch = evaluate(x)
            for i in range(len(x)):
                assert batch[i].tobytes() == evaluate(x[i : i + 1])[0].tobytes()
        # The lanes' evaluators, which take the rows last: the cos and sin of
        # the phases, the values read off them, and the Taylor jet of either
        # sense.
        sides = st.lists(st.sampled_from([1.0, -1.0]), min_size=len(x), max_size=len(x))
        senses = np.array(data.draw(sides))
        cs = comp.trig_batch(x)
        values = comp.value_of(cs)
        jets = {p: _taylor_jet(comp, cs, senses, p) for p in (7, morse._TAYLOR_ORDER)}
        # Horner's rule writes through one buffer, at a step per row as in
        # `land_lanes` and at several per row as in `_crossing`.
        jet = jets[morse._TAYLOR_ORDER]
        tau = np.array(data.draw(st.lists(st.floats(0.0, 0.1), min_size=len(x), max_size=len(x))))
        taus = tau[:, None] * np.array([0.25, 0.5, 1.0])
        stepped = _horner(jet, x, tau[:, None])
        moved = comp.trig_batch(stepped)
        spread = _horner(jet[:, :, None], x[:, None], taus[..., None])
        for i in range(len(x)):
            one = comp.trig_batch(x[i : i + 1])
            assert cs[..., i].tobytes() == one[..., 0].tobytes()
            assert values[i].tobytes() == comp.value_of(one)[0].tobytes()
            for p, batch in jets.items():
                alone = _taylor_jet(comp, one, senses[i : i + 1], p)
                assert batch[:, i].tobytes() == alone[:, 0].tobytes()
            row = jet[:, i : i + 1]
            alone = _horner(row, x[i : i + 1], tau[i : i + 1, None])
            assert stepped[i].tobytes() == alone[0].tobytes()
            # A lane's next zeroth order comes from the points Horner gives.
            assert moved[..., i].tobytes() == comp.trig_batch(alone)[..., 0].tobytes()
            alone = _horner(row[:, :, None], x[i : i + 1, None], taus[i : i + 1, :, None])
            assert spread[i].tobytes() == alone[0].tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 5, 17, 64, 150])
    def test_column_major_batches_give_the_row_major_bits(self, rows):
        # `_horner` may hand the evaluators a column-major batch of points; on
        # T^3 einsum would add the coordinates of such a row in another order.
        f = TrigPolynomial(
            3,
            (
                TrigTerm((1, 2, -1), Fraction(1), Fraction(1, 3)),
                TrigTerm((2, -1, 3), Fraction(-2, 3), Fraction(1, 2)),
                TrigTerm((3, 1, 1), Fraction(1, 5), Fraction(-1)),
                TrigTerm((-1, 3, 2), Fraction(3, 4), Fraction(2, 7)),
            ),
        )
        comp = _Compiled(f)
        x = np.random.default_rng(rows).uniform(-1.0, 2.0, (rows, 3))
        fortran = np.asfortranarray(x)
        for evaluate in (comp.trig_batch, comp.value_batch, comp.grad_batch, comp.hess_batch):
            assert evaluate(fortran).tobytes() == evaluate(x).tobytes()

    @pytest.mark.parametrize("rows", [1, 4, 72, 150])
    @pytest.mark.parametrize("terms", [1, 2, 3, 4, 5])
    def test_the_einsum_kernel_has_the_bits_of_np_einsum(self, terms, rows):
        # `morse` calls numpy's einsum kernel itself, which np.einsum with
        # optimize=False only forwards to.  Each subscript string of the
        # package gets operands of the shapes it contracts there, with
        # magnitudes far apart so that another summation order shows, and
        # `out=` fresh or the view the jet writes through: a slot of its
        # rates, or the reversed slot that swaps C and S.
        rng = np.random.default_rng(100 * terms + rows)

        def draw(*shape):
            return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)

        source = inspect.getsource(morse)
        assert "np.einsum(" not in source
        used = set(re.findall(r'_einsum\(\s*"([^"]+)"', source))
        for n in (1, 2, 3):
            cases = {
                "ktj,uj->ktu": (draw(2, terms, n), draw(terms, n)),
                "pj,tj->pt": (draw(rows, n), draw(terms, n)),
                "tj,pj->tp": (draw(terms, n), draw(rows, n)),
                "ktl,ktu->ul": (draw(2, terms, rows), draw(2, terms, n + terms)),
                "pt,tj->pj": (draw(rows, terms), draw(terms, n)),
                "pt,ti,tj->pij": (draw(rows, terms), draw(terms, n), draw(terms, n)),
            }
            for subscripts, operands in cases.items():
                want = np.einsum(subscripts, *operands)
                assert morse._einsum(subscripts, *operands).tobytes() == want.tobytes()
                got = np.empty_like(want)
                assert morse._einsum(subscripts, *operands, out=got) is got
                assert got.tobytes() == want.tobytes()
            # A jet's rates go into slot n of its table, one order at a time.
            cs, table = cases["ktl,ktu->ul"]
            w = [np.zeros((3, n + terms, rows)) for _ in range(2)]
            np.einsum("ktl,ktu->ul", cs, table, out=w[0][1])
            morse._einsum("ktl,ktu->ul", cs, table, out=w[1][1])
            assert w[0].tobytes() == w[1].tobytes()
            # The sums over j, of 1 to 5 terms and of 20.
            for length in (1, 2, 3, 4, 5, 20):
                d = draw(length, terms, rows)
                e = draw(length + 1, 2, terms, rows)
                ends = [e.copy(), e.copy()]
                np.einsum("jtl,jktl->ktl", d, e[1:], out=ends[0][0][::-1])
                morse._einsum("jtl,jktl->ktl", d, e[1:], out=ends[1][0][::-1])
                assert ends[0].tobytes() == ends[1].tobytes()
                assert not np.array_equal(ends[0], e)
        assert set(cases) | {"jtl,jktl->ktl"} == used


class TestNumericalConfig:
    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(InputError, match="step_tol must be positive"):
            NumericalConfig(step_tol=0.0)
        with pytest.raises(InputError):
            NumericalConfig(grid_resolution=0)

    def test_landing_radius_inside_sphere(self):
        with pytest.raises(InputError):
            NumericalConfig(sphere_radius=1e-4, landing_radius=1e-3)

    def test_step_sizes_in_order(self):
        with pytest.raises(InputError, match="step_min must not exceed step_max"):
            NumericalConfig(step_min=0.2)
        equal = NumericalConfig(step_min=0.05, step_max=0.05)
        assert equal.step_min == equal.step_max
        # The first step of the retired Dormand–Prince lanes is no field,
        # and neither is the count of the retired circle samples.
        for retired in ({"step_init": 0.01}, {"circle_samples": 64}):
            with pytest.raises(InputError, match="unknown config fields"):
                NumericalConfig.from_json(retired)

    def test_overrides_and_json(self):
        cfg = NumericalConfig().with_overrides(grid_resolution=48)
        assert cfg.grid_resolution == 48
        cfg2 = NumericalConfig.from_json({"grid_resolution": 48})
        assert cfg2.grid_resolution == 48
        with pytest.raises(InputError):
            NumericalConfig.from_json({"bogus": 1})


def loop_distance(x, p) -> float:
    """Nearest-lift distance on the torus, one coordinate at a time."""
    d2 = 0.0
    for xi, pi in zip(x, p):
        r = (xi - pi) - round(xi - pi)
        d2 += r * r
    return math.sqrt(d2)


def loop_dedupe(pts, gnorms, radius) -> list[int]:
    """Each row joins the first kept row within `radius`, replacing it if lower."""
    reps = []
    for i, (pt, gn) in enumerate(zip(pts, gnorms)):
        for j, r in enumerate(reps):
            if loop_distance(pt, pts[r]) <= radius:
                if gn < gnorms[r]:
                    reps[j] = i
                break
        else:
            reps.append(i)
    return reps


class TestTorusGeometry:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_batched_distances_equal_the_loop(self, data):
        dim = data.draw(st.integers(1, 3))
        coord = st.floats(-3.0, 3.0, allow_nan=False) | st.sampled_from([0.5, -0.5, 1.5])
        rows = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=20))
        p = data.draw(st.tuples(*[coord] * dim))
        res, dist = _wrap(np.array(rows) - np.array(p))
        assert dist.tolist() == [loop_distance(x, p) for x in rows]
        assert [torus_distance(x, p) for x in rows] == dist.tolist()
        assert res.tolist() == [[(xi - pi) - round(xi - pi) for xi, pi in zip(x, p)] for x in rows]

    def test_distance_needs_points_of_one_dimension(self):
        with pytest.raises(InputError, match="2 and 1 coordinates"):
            torus_distance([0.1, 0.2], [0.3])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dedupe_matches_the_loop(self, dim):
        # Clusters spread over a few radii make chains, where the first kept
        # row, not the nearest, must win and replacements move the keeper;
        # few distinct gradient norms make ties, which must not replace.
        # Runs of exactly equal rows, as Newton's convergents come, with
        # gradient norms in any order, try the skip of a repeated row.
        rng = random.Random(dim)
        for _ in range(200):
            centres = [[rng.random() for _ in range(dim)] for _ in range(rng.randint(1, 5))]
            rows = sorted(
                tuple((v + rng.uniform(-1, 1) * rng.choice((1e-8, 1e-7, 3e-7))) % 1.0 for v in c)
                for c in (rng.choice(centres) for _ in range(rng.randint(0, 200)))
            )
            runs = [row for row in rows[: rng.randint(0, 50)] for _ in range(rng.randint(1, 6))]
            for case in (rows, runs):
                pts = np.array(case).reshape(-1, dim)
                gnorms = np.array([rng.randint(1, 4) * 1e-12 for _ in case])
                assert _dedupe(pts, gnorms, 1e-7) == loop_dedupe(case, gnorms.tolist(), 1e-7)


class TestCriticalPoints:
    def test_circle(self):
        pts = find_critical_points(circle_function())
        assert [p.index for p in pts] == [1, 0]
        top, bottom = pts
        assert torus_distance(top.position, (0.0,)) < 1e-9
        assert torus_distance(bottom.position, (0.5,)) < 1e-9
        assert top.value == pytest.approx(1.0)
        assert bottom.value == pytest.approx(-1.0)

    def test_torus_positions_within_tolerance(self):
        pts = find_critical_points(torus_function())
        assert [p.index for p in pts] == [2, 1, 1, 0]
        expected = {
            2: [(0.0, 0.0)],
            1: [(0.0, 0.5), (0.5, 0.0)],
            0: [(0.5, 0.5)],
        }
        for p in pts:
            best = min(torus_distance(p.position, e) for e in expected[p.index])
            assert best < 1e-9

    def test_three_torus_counts(self):
        pts = find_critical_points(three_torus_function())
        counts = [sum(1 for p in pts if p.index == i) for i in range(4)]
        assert counts == [1, 3, 3, 1]

    def test_degenerate_function_refused(self):
        with pytest.raises(NotMorseError):
            find_critical_points(degenerate_function())

    def test_eigenvalue_index_consistency(self):
        for p in find_critical_points(torus_function()):
            assert p.index == sum(1 for e in p.hessian_eigenvalues if e < 0)

    def test_ids_are_stable(self):
        pts = find_critical_points(torus_function())
        assert [p.id for p in pts] == ["p2.0", "p1.0", "p1.1", "p0.0"]


# Every function of the example bank that the critical-point search serves.
SEARCH_BANK = {
    "circle": circle_function(),
    "torus": torus_function(),
    **{f"perturbed-{s}": perturbed_torus(s) for s in range(25)},
    "three-torus": three_torus_function(),
    **{f"tilted-{t}": tilted_upright_torus(Fraction(t)) for t in ("1/10", "-1/10", "1/100")},
}


class TestCertificate:
    @pytest.mark.parametrize("res", [24, 32])
    def test_live_seeds_find_what_every_seed_finds(self, res):
        # Newton from the live cells alone finds the points that Newton from
        # every grid seed finds: the same ids and indices, and positions that
        # differ at most in the last bits, where dedupe keeps another seed's
        # convergent.
        cfg = NumericalConfig(grid_resolution=res)
        for name, f in SEARCH_BANK.items():
            got, want = find_critical_points(f, cfg), all_seeds_critical_points(f, cfg)
            assert [(p.id, p.index) for p in got] == [(p.id, p.index) for p in want], name
            for p, q in zip(got, want):
                assert np.abs(_wrap(np.subtract(p.position, q.position))[0]).max() <= 2.2e-16

    @pytest.mark.parametrize("name", list(SEARCH_BANK))
    def test_dropping_any_point_fails_the_certificate(self, monkeypatch, name):
        f = SEARCH_BANK[name]
        count = len(find_critical_points(f))
        for drop in range(count):

            def dropping(pts, gnorms, radius, drop=drop):
                reps = _dedupe(pts, gnorms, radius)
                assert len(reps) == count
                return reps[:drop] + reps[drop + 1 :]

            monkeypatch.setattr(morse, "_dedupe", dropping)
            with pytest.raises(EulerMismatchError, match="no certificate for the cube"):
                find_critical_points(f)

    def test_a_degenerate_point_raises_before_the_certificate(self, monkeypatch):
        def unreached(*args):
            raise AssertionError("the certificate ran before the nondegeneracy check")

        monkeypatch.setattr(morse, "_certify", unreached)
        with pytest.raises(NotMorseError):
            find_critical_points(degenerate_function())

    def test_two_found_points_in_one_ball_fail_loudly(self, monkeypatch):
        # Without dedupe, several seeds' convergents of one point are listed.
        monkeypatch.setattr(morse, "_dedupe", lambda pts, gnorms, radius: list(range(len(pts))))
        with pytest.raises(EulerMismatchError, match="in one ball"):
            find_critical_points(torus_function())

    def test_a_grid_too_coarse_for_the_frequencies_is_caught(self):
        # f has 1,600 critical points, and Newton from 64 seeds finds at most
        # 64 of them, in equal numbers of each parity, so the Euler count
        # alone lets the list pass.
        f = TrigPolynomial(2, (TrigTerm((20, 0), Fraction(1)), TrigTerm((0, 20), Fraction(1))))
        cfg = NumericalConfig(grid_resolution=8)
        with pytest.raises(EulerMismatchError, match="no certificate for the cube"):
            find_critical_points(f, cfg)

    @pytest.mark.parametrize("n, balls", [(2, 40), (2, 2500), (3, 2500)])
    def test_covered_is_the_all_pairs_check(self, n, balls):
        # `_covered` passes over the balls no wider than rho and takes the
        # found points one at a time; neither may change which cells it
        # finds covered.  Every seventh radius is rho itself, and the second
        # set of radii, all at most rho, passes over every ball.
        rng = np.random.default_rng(n * balls)
        rho = 0.01
        cells, xs = rng.random((1200, n)), rng.random((balls, n))
        radii = rng.uniform(0.0, 4 * rho, balls)
        radii[::7] = rho
        for r in (radii, np.minimum(radii, rho)):
            want = [bool((_wrap(c - xs)[1] + rho < r).any()) for c in cells]
            assert _covered(cells, rho, xs, r).tolist() == want
        assert 0 < sum(_covered(cells, rho, xs, radii)) < len(cells)

    @pytest.mark.parametrize("name", ["torus", "perturbed-0", "perturbed-1", "three-torus"])
    def test_derivative_bounds_hold(self, name):
        f = SEARCH_BANK[name]
        m2, m3 = _derivative_bounds(_Compiled(f))
        assert m3 == third_derivative_bound(f)
        rng = np.random.default_rng(5)
        x = rng.random((200, f.dimension))
        hess = _Compiled(f).hess_batch(x)
        assert np.linalg.norm(hess, ord=2, axis=(1, 2)).max() <= m2
        # The third derivative along unit vectors u, by central differences
        # of u^T Hess f u.
        u = rng.normal(size=(200, f.dimension))
        u /= np.linalg.norm(u, axis=1)[:, None]
        eps = 1e-4
        quad = [
            np.einsum("pi,pij,pj->p", u, _Compiled(f).hess_batch(x + s * eps * u), u)
            for s in (1, -1)
        ]
        assert (np.abs(quad[0] - quad[1]) / (2 * eps)).max() <= m3

    def test_the_largest_seed_grid_is_searched_in_blocks(self):
        # 2^20 seed points, the ceiling, peaked at 216 MiB when their
        # gradients were taken in one batch, and at 32.0 MiB in blocks, the
        # float grid being most of it.  With no float grid built it peaks at
        # 6.8 MiB, the block's numerators, rates and gradients.
        tracemalloc.start()
        try:
            pts = find_critical_points(perturbed_torus(0), NumericalConfig(grid_resolution=1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pts) == 4
        assert peak < 24 << 20

    def test_passes_over_many_found_points_take_one_at_a_time(self):
        # 1,600 found points: dedupe, the one-ball check and the coverage
        # test peaked at 118 MiB with arrays of every pair (of every cell
        # against every point); one point at a time they take a few MiB.
        f = TrigPolynomial(2, (TrigTerm((20, 0), Fraction(1)), TrigTerm((0, 20), Fraction(1))))
        tracemalloc.start()
        try:
            pts = find_critical_points(f, NumericalConfig(grid_resolution=64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pts) == 1600
        assert peak < 16 << 20

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_distances_between_found_points_equal_the_loop(self, dim):
        # The minimal separation and the first pair, in row-major order,
        # that shares a ball (radius mu when M2 = 0 and M3 = 1), against
        # every pair by `loop_distance`.
        f = {1: circle_function(), 2: torus_function(), 3: three_torus_function()}[dim]
        cfg = NumericalConfig(sphere_radius=1e-9, landing_radius=1e-10)
        rng = random.Random(dim)
        for _ in range(40):
            xs = [tuple(rng.random() for _ in range(dim)) for _ in range(rng.randint(1, 30))]
            mu = [rng.uniform(0.0, 0.2) for _ in xs]
            pairs = [(i, j) for i in range(len(xs)) for j in range(len(xs)) if i != j]
            dists = {(i, j): loop_distance(xs[i], xs[j]) for i, j in pairs}
            points = [CriticalPoint(f"p0.{k}", x, 0.0, 0, (1.0,) * dim) for k, x in enumerate(xs)]
            analysis = _Analysis(f, cfg, critical_points=points)
            assert analysis.min_separation == min(dists.values(), default=1.0)
            shared = [(i, j) for i, j in pairs if dists[i, j] < mu[i]]
            none = (np.empty((0, dim)), np.empty((0, dim), dtype=int), 2)
            args = (_Compiled(f), *none, np.array(xs), np.array(mu), 0.0, 1.0)
            if not shared:
                assert _certify(*args) is None
                continue
            i, j = shared[0]
            with pytest.raises(EulerMismatchError) as err:
                _certify(*args)
            assert str(err.value).startswith(f"found points {xs[i]} and {xs[j]} lie in one ball")

    @pytest.mark.parametrize("name", ["torus", "perturbed-0", "three-torus"])
    def test_blocks_of_any_size_find_the_same_points(self, monkeypatch, name):
        # The live cells do not depend on where the blocks split the grid.
        f = SEARCH_BANK[name]
        want = repr(find_critical_points(f))
        monkeypatch.setattr(morse, "_GRID_BLOCK", 100)
        assert repr(find_critical_points(f)) == want

    def test_the_acceptance_seeds_are_pinned(self):
        # Acceptance 3 and the benchmark's torus builds take their
        # perturbations from this list, which the search filters.
        assert perturbed_torus_seeds(25) == list(range(25))


def random_search_function(rng: np.random.Generator, n: int) -> TrigPolynomial:
    """cos 2 pi x_1 plus 1 to 4 terms with frequency entries in -3..3 and coefficients in tenths."""
    terms = [TrigTerm((1,) + (0,) * (n - 1), Fraction(1))]
    for _ in range(int(rng.integers(1, 5))):
        freq = tuple(int(k) for k in rng.integers(-3, 4, n))
        cos, sin = (Fraction(int(c), 10) for c in rng.integers(-20, 21, 2))
        terms.append(TrigTerm(freq, cos, sin))
    return TrigPolynomial(n, tuple(terms))


# The search bank, and seeded random functions on T^1, T^2 and T^3.
EXACT_BANK = {
    **SEARCH_BANK,
    **{
        f"random-T{n}-{i}": random_search_function(np.random.default_rng(10 * n + i), n)
        for n in (1, 2, 3)
        for i in range(4)
    },
}


def certificate_cells(res: int, n: int, rng: np.random.Generator) -> list:
    """(float centres, integer rows, den) of cells as `_certify` makes them.

    The grid at depth 0, then at each of the first two split depths the
    children of 40 cells of the depth before, drawn from `rng`.
    """
    seeds = np.indices((res,) * n).reshape(n, -1).T
    cells, num, den = seeds / res, 2 * seeds, 2 * res
    signs = np.array(list(itertools.product((-1, 1), repeat=n)))
    out = [(cells, num, den)]
    for _ in range(2):
        pick = rng.choice(len(cells), size=min(40, len(cells)), replace=False)
        cells = (cells[pick][:, None] + (1.0 / den) * (0.5 * signs)).reshape(-1, n)
        num = (2 * num[pick][:, None] + signs).reshape(-1, n)
        den *= 2
        out.append((cells, num, den))
    return out


def float_grid_masks(comp: _Compiled, res: int, rho: float, m2: float) -> np.ndarray:
    """The grid's `_live` mask from `grad_batch` on the float grid k / res, block by block."""
    axes = [np.arange(res) / res] * comp.n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, comp.n)
    blocks = [grid[i : i + (1 << 16)] for i in range(0, len(grid), 1 << 16)]
    return np.concatenate([_live(comp.grad_batch(block), rho, m2) for block in blocks])


class TestExactPhases:
    @pytest.mark.parametrize("res", [8, 16, 32, 64])
    def test_gradients_have_the_bits_of_grad_batch_on_grids_of_a_power_of_two(self, res):
        # Every k / res and its products with the frequencies are exact, so
        # the phases are those of `grad_batch`, in the grid pass and at the
        # certificate's first two split depths.  Both ways of taking the
        # phases are met: the random T^1 functions, whose frequencies pass
        # 1, take them point by point in the grid pass (their range is
        # longer than the grid), as do the split cells of most functions.
        rng = np.random.default_rng(res)
        for name, f in EXACT_BANK.items():
            comp = _Compiled(f)
            grid = np.concatenate(
                [comp.grad_of_numerators(m, res) for _, m in _grid_numerators(comp, res)]
            )
            cases = certificate_cells(res, f.dimension, rng)
            assert grid.tobytes() == comp.grad_batch(cases[0][0]).tobytes(), name
            for depth, (cells, num, den) in enumerate(cases):
                got = comp.grad_at(num, den)
                assert got.tobytes() == comp.grad_batch(cells).tobytes(), (name, depth)

    @pytest.mark.parametrize("res", [24, 48, 101])
    def test_live_masks_equal_those_of_grad_batch_on_other_grids(self, res):
        # k / res is rounded, so the bits of the gradients may differ, but
        # no cell changes sides of the exclusion test, in the grid pass or
        # at the certificate's first two split depths.
        rng = np.random.default_rng(res)
        differ = 0
        for name, f in EXACT_BANK.items():
            if res**f.dimension > 1 << 20:
                continue
            comp = _Compiled(f)
            m2 = _derivative_bounds(comp)[0]
            rho = _half_diagonal(f.dimension, 0.5 / res)
            masks = [
                _live(comp.grad_of_numerators(m, res), rho, m2)
                for _, m in _grid_numerators(comp, res)
            ]
            assert np.array_equal(np.concatenate(masks), float_grid_masks(comp, res, rho, m2)), name
            for depth, (cells, num, den) in enumerate(certificate_cells(res, f.dimension, rng)):
                rho = _half_diagonal(f.dimension, 1.0 / den)
                got, want = comp.grad_at(num, den), comp.grad_batch(cells)
                assert np.array_equal(_live(got, rho, m2), _live(want, rho, m2)), (name, depth)
                differ += got.tobytes() != want.tobytes()
        assert differ

    def test_norms_have_the_bits_of_linalg_norm(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            for rows in (0, 1, 2, 7, 100, 5000):
                g = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-8, 9, (rows, n))
                assert _norms(g).tobytes() == np.linalg.norm(g, axis=1).tobytes()
        g = np.array([[1e200, 1e200, 0.0], [np.inf, 1.0, 0.0], [np.nan, 0.0, 1.0]])
        with np.errstate(over="ignore"):
            want = np.linalg.norm(g, axis=1)
        assert _norms(g).tobytes() == want.tobytes()


class TestFlowLines:
    def test_circle_flows(self):
        flows = flow_lines(circle_function())
        assert len(flows) == 2
        assert {f.sign for f in flows} == {1, -1}
        assert {f.lattice_offset for f in flows} == {(0,), (-1,)}
        for f in flows:
            assert f.source == "p1.0" and f.target == "p0.0"

    def test_function_values_decrease_along_trajectories(self):
        for f_poly, flows in (
            (circle_function(), flow_lines(circle_function())),
            (torus_function(), flow_lines(torus_function())),
        ):
            for fl in flows:
                values = [eval_grad_hess(f_poly, x)[0] for _, x in fl.trajectory[::20]]
                assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_connecting_orbits_requires_gap_one(self):
        pts = find_critical_points(torus_function())
        top = pts[0]
        bottom = pts[-1]
        with pytest.raises(InputError):
            connecting_orbits(torus_function(), top, bottom)

    def test_index_gap_is_checked_on_the_function_s_points(self):
        # A caller's point that claims another index does not belong to the
        # function, so the gap it claims cannot let the call through.
        f = torus_function()
        top, p1_0, p1_1, _ = find_critical_points(f)
        with pytest.raises(InputError, match="p1.0"):
            connecting_orbits(f, replace(p1_0, index=2), p1_1)
        with pytest.raises(InputError, match="p1.0"):
            moduli_family(f, top, replace(p1_0, index=0), flow_lines(f))

    def test_flows_out_of_an_index_2_point_count_flows_into_each_saddle(self):
        # The flows out of an index-2 point are the saddles' stable
        # separatrices, two into each saddle of the torus.
        f = torus_function()
        top, p1_0, p1_1, _ = find_critical_points(f)
        for saddle in (p1_0, p1_1):
            assert len(connecting_orbits(f, top, saddle)) == 2

    def test_torus_saddle_departure_angles(self):
        f = torus_function()
        pts = find_critical_points(f)
        by_id = {p.id: p for p in pts}
        flows = connecting_orbits(f, by_id["p2.0"], by_id["p1.0"], critical_points=pts)
        flows += connecting_orbits(f, by_id["p2.0"], by_id["p1.1"], critical_points=pts)
        assert len(flows) == 4
        angles = sorted(f.departure_angle % (2 * math.pi) for f in flows)
        targets = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
        for got, want in zip(angles, targets):
            diff = abs(got - want)
            assert min(diff, 2 * math.pi - diff) < 1e-6

    def test_saddle_to_minimum_offsets_distinguish_sides(self):
        f = torus_function()
        pts = find_critical_points(f)
        by_id = {p.id: p for p in pts}
        for saddle in ("p1.0", "p1.1"):
            flows = connecting_orbits(f, by_id[saddle], by_id["p0.0"], critical_points=pts)
            assert len(flows) == 2
            assert flows[0].lattice_offset != flows[1].lattice_offset
            assert {fl.sign for fl in flows} == {1, -1}

    @pytest.mark.parametrize("reverse", [False, True], ids=["default", "reversed"])
    @pytest.mark.parametrize(
        "f",
        [circle_function(), torus_function()]
        + [perturbed_torus(seed) for seed in range(5)]
        + [tilted_upright_torus(Fraction(1, 10))],
        ids=["circle", "torus"] + [f"seed{seed}" for seed in range(5)] + ["tilted"],
    )
    def test_public_flows_are_the_analysis_run_s(self, monkeypatch, f, reverse):
        # `flow_lines` makes one run of the separatrix lanes, the run of an
        # analysis, and `connecting_orbits` gives its flows: every flow,
        # trajectory included, has the bits of the analysis's.  `repr`
        # tells -0.0 from 0.0 and round-trips every other float.
        cfg = NumericalConfig(reverse_orientation=reverse)
        analysis = _Analysis(f, cfg)
        want = analysis.rigid_flows()
        land = _Analysis.land_lanes
        runs = []

        def counting_land(self, seeds, *args, **kwargs):
            runs.append(len(seeds))
            return land(self, seeds, *args, **kwargs)

        monkeypatch.setattr(_Analysis, "land_lanes", counting_land)
        assert repr(flow_lines(f, cfg)) == repr(want)
        saddles = [p for p in analysis.points if p.index == 1]
        assert runs == [(4 if f.dimension == 2 else 2) * len(saddles)]
        for a in analysis.points:
            if a.index != 2:
                continue
            for b in saddles:
                got = connecting_orbits(f, a, b, cfg, critical_points=analysis.points)
                assert got and repr(got) == repr(
                    [fl for fl in want if fl.source == a.id and fl.target == b.id]
                )


def lane_functions() -> list[TrigPolynomial]:
    return [torus_function()] + [perturbed_torus(s) for s in perturbed_torus_seeds(2)]


class TestModuliFamilies:
    def test_torus_intervals_cancel(self):
        f = torus_function()
        pts = find_critical_points(f)
        flows = flow_lines(f)
        by_id = {p.id: p for p in pts}
        fams = moduli_family(f, by_id["p2.0"], by_id["p0.0"], flows, critical_points=pts)
        assert len(fams) == 4
        sign = {fl.id: fl.sign for fl in flows}
        used = []
        for fam in fams:
            e1, e2 = fam.ends
            assert (
                sign[e1.first] * sign[e1.second] + sign[e2.first] * sign[e2.second] == 0
            )
            used += [(e1.first, e1.second), (e2.first, e2.second)]
        assert len(used) == len(set(used)) == 8

    def test_family_counts_flows_into_each_saddle(self):
        # A bisection from three samples found two of the four intervals;
        # the separatrices give all four.
        f = torus_function()
        top, _, _, bottom = find_critical_points(f)
        assert len(moduli_family(f, top, bottom, flow_lines(f))) == 4

    def test_given_flows_must_name_every_end(self):
        f = torus_function()
        top, _, _, bottom = find_critical_points(f)
        flows = flow_lines(f)
        assert len(moduli_family(f, top, bottom, flows)) == 4
        saddle_flow = next(fl for fl in flows if fl.source == "p1.0")
        retargeted = [replace(fl, target="p1.1") if fl == saddle_flow else fl for fl in flows]
        for given in ([fl for fl in flows if fl != saddle_flow], retargeted):
            with pytest.raises(UnmatchedEndpointError, match=saddle_flow.id):
                moduli_family(f, top, bottom, given)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"reverse_orientation": True}],
        ids=["default", "reversed"],
    )
    @pytest.mark.parametrize("f", lane_functions(), ids=["torus", "perturbed-a", "perturbed-b"])
    def test_ends_leave_each_saddle_the_way_probes_do(self, f, overrides):
        # Each end's second flow is read off the sign of its first; a probe
        # just inside the arc must leave the saddle nearer that flow's
        # departure direction than the saddle's other flow's.
        cfg = NumericalConfig(**overrides)
        cat, _ = build_flow_category(f, cfg)
        families = {(fam.source, fam.target): fam.components for fam in cat.moduli}
        analysis = _Analysis(f, cfg)
        flows = {fl.id: fl for fl in analysis.rigid_flows()}
        ends = 0
        for a in analysis.points:
            if a.index != 2:
                continue
            arcs = analysis.partition(a)
            for c in analysis.points:
                if c.index != 0:
                    continue
                chosen = [arc for arc in arcs if arc.landing_class[0] == c.id]
                comps = families.get((a.id, c.id), ())
                assert len(comps) == len(chosen)
                for arc, comp in zip(chosen, comps):
                    assert comp.ends == arc.ends
                    width = arc.end - arc.start
                    for e, theta, inward in zip(comp.ends, (arc.start, arc.end), (width, -width)):
                        first, saddle = flows[e.first], analysis.by_id[e.via]
                        assert (first.source, first.target) == (a.id, saddle.id)
                        assert first.departure_angle == pytest.approx(theta % (2 * math.pi))
                        exit_dir = probe_exit(analysis, a, c, saddle, theta, inward)
                        nearest = max(
                            (fl for fl in flows.values() if fl.source == saddle.id),
                            key=lambda fl: float(np.dot(exit_dir, fl.departure_direction)),
                        )
                        assert e.second == nearest.id
                        ends += 1
        assert ends >= 8

    def test_moduli_family_requires_gap_two(self):
        f = torus_function()
        pts = find_critical_points(f)
        flows = flow_lines(f)
        with pytest.raises(InputError):
            moduli_family(f, pts[0], pts[1], flows, critical_points=pts)

    def test_points_without_saddles_give_a_typed_error(self):
        # A run with no saddles has no shots; their empty list reached the
        # evaluators as shape (0,) and raised a ValueError from einsum.
        f = torus_function()
        pts = [p for p in find_critical_points(f) if p.index != 1]
        with pytest.raises(MorseflowError):
            moduli_family(f, pts[0], pts[1], [], critical_points=pts)


def comparable(outcome):
    """A lane outcome with any error reduced to its type and message."""
    return (type(outcome), outcome.args) if isinstance(outcome, Exception) else outcome


def oracle(analysis, seed):
    """The scalar oracle's (rest point, offset, trajectory) from seed, or its error.

    Like a forward lane, it stops at its first point in a sink's ball.
    """
    try:
        return scalar_flow(
            analysis.f, analysis.cfg, analysis.points, seed, radii=analysis.trap_radius
        )[:3]
    except IntegrationFailureError as exc:
        return exc


def recorded(got):
    """A recorded lane's outcome in the oracle's shape."""
    return got if isinstance(got, Exception) else (got.point, got.offset, got.trajectory)


def departures(analysis, index):
    """Seeds of departures out of every point of one index, along its unstable frame."""
    seeds = []
    for p in analysis.points:
        if p.index != index:
            continue
        frame = analysis.frames[p.id]
        if index == 1:
            directions = [frame[:, 0], -frame[:, 0]]
        else:
            directions = [analysis.direction_at(p, (k + 0.5) * math.pi / 3) for k in range(6)]
        seeds += [analysis.seed(p, d) for d in directions]
    return seeds


@functools.lru_cache(maxsize=None)
def one_at_a_time(f: TrigPolynomial, samples: int, reverse_orientation: bool = False):
    """The bisection oracle's boundaries and visited brackets for the first point of f."""
    analysis = _Analysis(f, NumericalConfig(reverse_orientation=reverse_orientation))
    visited: list[tuple[float, float]] = []
    found = bisect_one_at_a_time(analysis, analysis.points[0], visited, samples)
    return found, visited


class TestLanes:
    @pytest.mark.parametrize("f", lane_functions(), ids=["torus", "perturbed-a", "perturbed-b"])
    def test_lanes_land_where_scalar_integration_lands(self, f):
        analysis = _Analysis(f, NumericalConfig())
        maxima = [p for p in analysis.points if p.index == 2]
        assert maxima
        for p in maxima:
            seeds = [
                analysis.seed(p, analysis.direction_at(p, (k + 0.5) * 2 * math.pi / 64))
                for k in range(64)
            ]
            for seed, got in zip(seeds, analysis.land_lanes(seeds)):
                assert recorded(got) == oracle(analysis, seed)

    @pytest.mark.parametrize(
        "coarse", [{}, {"step_tol": 0.5, "step_max": 0.5}], ids=["default", "coarse"]
    )
    def test_lanes_stop_where_scalar_integration_stops(self, coarse):
        # Step budget and flow time set at an oracle run's exact step count
        # and arrival time, and just below them: a lane whose step rule
        # differs from the oracle's lands on the other side.  The run is the
        # first whose step count lies midway between the fewest and the
        # most, so that each limit splits the seeds; stopping in the sinks'
        # balls leaves most coarse runs at one count, the fewest.  The
        # coarse tolerance makes steps overshoot, so the descent check bites.
        f = perturbed_torus(perturbed_torus_seeds(1)[0])
        analysis = _Analysis(f, NumericalConfig(**coarse))
        top = analysis.points[0]
        seeds = [
            analysis.seed(top, analysis.direction_at(top, (k + 0.5) * 2 * math.pi / 32))
            for k in range(32)
        ]
        runs = sorted((oracle(analysis, seed)[2] for seed in seeds), key=len)
        counts = [len(run) - 1 for run in runs]
        run = runs[counts.index((counts[0] + counts[-1]) // 2)]
        steps, time = len(run) - 1, run[-1][0]
        for limits in (
            {"max_steps": steps},
            {"max_steps": steps - 1},
            {"max_flow_time": time},
            {"max_flow_time": math.nextafter(time, 0.0)},
        ):
            limited = _Analysis(f, NumericalConfig(**coarse, **limits), analysis.points)
            scalar = [oracle(limited, seed) for seed in seeds]
            lanes = [recorded(got) for got in limited.land_lanes(seeds)]
            assert list(map(comparable, lanes)) == list(map(comparable, scalar))
            failed = sum(isinstance(got, Exception) for got in lanes)
            assert 0 < failed < len(seeds)

    def test_circle_seeds_are_the_seeds_of_their_angles(self):
        # The arc midpoints are seeded in one array expression, with the
        # bits of one seed per angle.
        analysis = _Analysis(perturbed_torus(perturbed_torus_seeds(1)[0]), NumericalConfig())
        thetas = [k * (2 * math.pi / 64) for k in range(64)] + [0.3 * k for k in range(22)]
        for a in (p for p in analysis.points if p.index == 2):
            assert [row.tobytes() for row in analysis.circle_seeds(a, thetas)] == [
                np.array(analysis.seed(a, analysis.direction_at(a, th))).tobytes()
                for th in thetas
            ]
        assert analysis.circle_seeds(analysis.points[0], []).shape == (0, 2)

    @pytest.mark.parametrize("index", [1, 2], ids=["saddles", "maxima"])
    def test_trajectories_and_states_do_not_depend_on_the_batch(self, index):
        # Every lane is run alone, in batches of two and in one mixed batch
        # (reversed, beside a lane that rests at once); trajectories and rest
        # states must keep every bit, and the lone runs must match the oracle.
        analysis = _Analysis(perturbed_torus(perturbed_torus_seeds(1)[0]), NumericalConfig())
        seeds = departures(analysis, index)
        assert len(seeds) >= 4

        def run(batch):
            got = analysis.land_lanes(batch)
            assert all(isinstance(g, _Landing) for g in got)
            return got

        alone = [run([seed])[0] for seed in seeds]
        pairs = [got for i in range(0, len(seeds), 2) for got in run(seeds[i : i + 2])]
        rest = analysis.points[-1]
        mixed = run(seeds[::-1] + [list(rest.position)])
        resting = mixed[-1]
        for seed, one in zip(seeds, alone):
            assert recorded(one) == oracle(analysis, seed)
        for batch in (pairs, mixed[-2::-1]):
            for one, got in zip(alone, batch):
                assert recorded(got) == recorded(one)
                assert got.state.tobytes() == one.state.tobytes()
        assert resting.point == rest and resting.trajectory == ((0.0, rest.position),)

    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=6))
    def test_one_batch_equals_one_angle_at_a_time(self, thetas):
        analysis = _Analysis(perturbed_torus(perturbed_torus_seeds(1)[0]), NumericalConfig())
        top = analysis.points[0]
        batch = analysis._classify_angles(top, thetas)
        alone = [analysis._classify_angles(top, [th])[0] for th in thetas]
        assert list(map(comparable, batch)) == list(map(comparable, alone))

    def test_a_lane_whose_series_overflows_fails_loudly(self):
        # The Taylor coefficients of 10^300 cos 2 pi x overflow to NaN; the
        # lane shortens its step down to step_min and fails there, instead
        # of taking a step of step_min whatever its error and resting
        # anywhere.
        f = TrigPolynomial(1, (TrigTerm((1,), Fraction(10**300)),))
        points = [
            CriticalPoint("p1.0", (0.0,), 1e300, 1, (-4e301,)),
            CriticalPoint("p0.0", (0.5,), -1e300, 0, (4e301,)),
        ]
        analysis = _Analysis(f, NumericalConfig(), points)
        with np.errstate(over="ignore", invalid="ignore"):
            (got,) = analysis.land_lanes([[1e-3]])
        assert isinstance(got, IntegrationFailureError)
        assert "failed to decrease at the minimal step" in str(got)

    def test_a_lane_that_fails_mid_run_leaves_the_others_running(self, monkeypatch):
        # An analysis that does not know p1.0 cannot land a lane seeded
        # there: its steps halve down to step_min and fail at the 10th
        # iteration, while four departures of p2.0 run on and land where
        # the scalar twin does.  The failed lane takes no further jet row, a
        # lane that lands after n steps takes n, and every lane has the
        # outcome it has alone.
        f = torus_function()
        points = find_critical_points(f)
        saddle = next(p for p in points if p.id == "p1.0")
        others = [p for p in points if p is not saddle]
        analysis = _Analysis(f, NumericalConfig(step_min=1e-4), others)
        top = analysis.by_id["p2.0"]
        seeds = [list(saddle.position)]
        seeds += [analysis.seed(top, analysis.direction_at(top, 0.3 * k)) for k in range(4)]
        jet, rows = morse._taylor_jet, []

        def counting_jet(comp, cs, sense, order):
            rows.append(len(sense))
            return jet(comp, cs, sense, order)

        monkeypatch.setattr(morse, "_taylor_jet", counting_jet)
        got = analysis.land_lanes(seeds)
        assert isinstance(got[0], IntegrationFailureError)
        assert "failed to decrease at the minimal step" in str(got[0])
        for landing, seed in zip(got[1:], seeds[1:]):
            assert recorded(landing) == oracle(analysis, seed)
        runs = [10] + [len(landing.trajectory) - 1 for landing in got[1:]]
        assert max(runs) > runs[0]
        assert rows == [sum(n > i for n in runs) for i in range(max(runs))]
        alone = [analysis.land_lanes([seed])[0] for seed in seeds]
        assert list(map(lane_bits, got)) == list(map(lane_bits, alone))

    @pytest.mark.parametrize("run", ["saddles", "boundaries"])
    def test_lane_errors_raise_in_sequential_order(self, monkeypatch, run):
        # The separatrix run comes back with lanes 1-2 of one sense spoiled.
        # Built one flow at a time, lane 1's failure is met first: a saddle's
        # -w flow (sense +1) before the next saddle's w flow, and a saddle's
        # stable separatrix (sense -1) before the next one.  Lane 2's failure
        # is a plain integration error that an unordered walk could raise
        # instead.
        f = perturbed_torus(perturbed_torus_seeds(1)[0])
        points = find_critical_points(f)
        saddle = next(p for p in points if p.index == 1)
        land = _Analysis.land_lanes
        runs = []

        def spoiled(self, seeds, trap=False, senses=None):
            out = land(self, seeds, trap, senses)
            runs.append("separatrices" if senses is not None else "angles")
            if runs.count("separatrices") == 1 and runs[-1] == "separatrices":
                wanted = 1.0 if run == "saddles" else -1.0
                lanes = [k for k, sense in enumerate(senses) if sense == wanted]
                assert len(lanes) >= 3
                wrong = saddle if run == "saddles" else points[-1]
                out[lanes[1]] = out[lanes[1]]._replace(point=wrong)
                out[lanes[2]] = IntegrationFailureError("injected at lane 2")
            return out

        monkeypatch.setattr(_Analysis, "land_lanes", spoiled)
        expected = {
            "saddles": f"trajectory from {saddle.id} reached",
            "boundaries": f"rests at {points[-1].id}, expected",
        }[run]
        with pytest.raises(MorseSmaleViolationError, match=expected):
            build_flow_category(f)


class TestPartition:
    # A two-torus build makes one separatrix run, every separatrix of every
    # saddle, and at most one more run per index-2 point, for the midpoints
    # of its arcs no wider than 2 `_SHOT_SPREAD`.  The bank has no such arc,
    # so its builds make the one run; the tilted upright torus near its
    # saddle connection and `perturbed_torus(3)` sheared x by y have two
    # each, which one midpoint run covers.  No run is made on -f, and there
    # is no bisection.
    @pytest.mark.parametrize(
        "f, thin",
        [(torus_function(), 0)]
        + [(perturbed_torus(seed), 0) for seed in range(6)]
        + [
            (tilted_upright_torus(Fraction(t)), 2)
            for t in ("1/10", "-1/10", "1/100", "-1/100", "1/1000")
        ]
        + [(pullback(perturbed_torus(3), ((1, 1), (0, 1))), 2)],
        ids=["torus"]
        + [f"seed{seed}" for seed in range(6)]
        + ["tilted", "tilted(-1/10)", "tilted(1/100)", "tilted(-1/100)", "tilted(1/1000)"]
        + ["x-by-y(3)"],
    )
    def test_a_two_torus_build_makes_two_runs(self, monkeypatch, f, thin):
        land, classify = _Analysis.land_lanes, _Analysis._classify_angles
        runs, midpoints = [], []

        def counting_land(self, *args, **kwargs):
            runs.append(self.f)
            return land(self, *args, **kwargs)

        def counting_classify(self, a, thetas):
            midpoints.append((self, a, list(thetas)))
            return classify(self, a, thetas)

        monkeypatch.setattr(_Analysis, "land_lanes", counting_land)
        monkeypatch.setattr(_Analysis, "_classify_angles", counting_classify)
        build_flow_category(f)
        monkeypatch.undo()
        assert runs == [f] * (1 + len(midpoints))
        assert len(midpoints) == (thin > 0)
        for analysis, a, thetas in midpoints:
            arcs = analysis.partition(a)
            narrow = [arc for arc in arcs if arc.end - arc.start <= 2 * morse._SHOT_SPREAD]
            assert len(narrow) == thin
            assert thetas == [0.5 * (arc.start + arc.end) % (2 * math.pi) for arc in narrow]

    @pytest.mark.parametrize(
        "f",
        lane_functions()
        + [tilted_upright_torus(Fraction(1, 10)), pullback(perturbed_torus(3), ((1, 1), (0, 1)))],
        ids=["torus", "perturbed-a", "perturbed-b", "tilted", "x-by-y(3)"],
    )
    def test_connecting_orbits_partitions_as_a_build_does(self, monkeypatch, f):
        # Every analysis makes the one separatrix run, which fixes every
        # partition, so the analysis that `connecting_orbits` builds
        # partitions each departure circle as `build_flow_category`'s does.
        made = []
        init = _Analysis.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(_Analysis, "__init__", recording_init)
        build_flow_category(f)
        (built,) = made
        maxima = [p for p in built.points if p.index == 2]
        saddle = next(p for p in built.points if p.index == 1)
        assert connecting_orbits(f, maxima[0], saddle)
        orbits = made[-1]
        assert len(made) == 2 and orbits._rigid_flows is not None
        for a in maxima:
            assert orbits.partition(a) == built.partition(a)

    # Classification runs per partition when the boundaries were bisected
    # with aimed speculation (`before`).  Read from the separatrix shots, a
    # partition with no arc as thin as 2 `_SHOT_SPREAD` makes no run of its
    # own.
    @pytest.mark.parametrize("seed, before", [(0, 7), (1, 7), (2, 6), (3, 9), (4, 7), (5, 8)])
    def test_aimed_speculation_adds_no_run(self, monkeypatch, seed, before):
        land = _Analysis.land_lanes
        runs = []

        def counting_land(self, *args, **kwargs):
            runs.append(self.f)
            return land(self, *args, **kwargs)

        monkeypatch.setattr(_Analysis, "land_lanes", counting_land)
        analysis = _Analysis(perturbed_torus(seed), NumericalConfig())
        maxima = [a for a in analysis.points if a.index == 2]
        assert maxima
        analysis.rigid_flows()
        assert len(runs) == 1
        for a in maxima:
            analysis.partition(a)
            assert len(runs) == 1 < before

    def test_errors_in_both_halves_of_a_split_raise_the_lower_one(self, monkeypatch):
        # The first midpoint of each half of a split fails; the oracle's
        # depth-first walk meets the lower half's failure first.
        f = lane_functions()[1]
        _, visited = one_at_a_time(f, 3)
        spans = set(visited)
        lo, hi = next(
            (lo, hi)
            for lo, hi in visited
            if {(lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)} <= spans
        )
        mid = 0.5 * (lo + hi)
        analysis = _Analysis(f, NumericalConfig())
        top = analysis.points[0]
        failing = {
            tuple(analysis.seed(top, analysis.direction_at(top, th))): half
            for th, half in ((0.5 * (lo + mid), "lower half"), (0.5 * (mid + hi), "upper half"))
        }
        land = _Analysis.land_lanes

        def failing_land(self, seeds, *args, **kwargs):
            out = land(self, seeds, *args, **kwargs)
            return [
                IntegrationFailureError(failing[tuple(s)]) if tuple(s) in failing else got
                for s, got in zip(seeds, out)
            ]

        monkeypatch.setattr(_Analysis, "land_lanes", failing_land)
        with pytest.raises(IntegrationFailureError, match="lower half"):
            bisect_one_at_a_time(analysis, analysis.points[0], samples=3)

    def test_missed_basin_boundary_fails_loudly(self, monkeypatch):
        # A separatrix shot that goes missing drops its boundary, so the arc
        # across it starts in one basin and ends in another.
        max_flows = _Analysis.max_flows

        def dropping(self, a):
            return max_flows(self, a)[1:]

        monkeypatch.setattr(_Analysis, "max_flows", dropping)
        for f in lane_functions():
            with pytest.raises(MorseSmaleViolationError, match="rest at .* was missed"):
                build_flow_category(f)

    def test_a_midpoint_at_a_saddle_fails_loudly(self, monkeypatch):
        # The midpoint of an arc no wider than 2 `_SHOT_SPREAD` that rests
        # at a saddle marks a boundary the shots missed or one that is extra.
        f = tilted_upright_torus(Fraction(1, 10))
        analysis = _Analysis(f, NumericalConfig())
        top = analysis.points[0]
        saddle = next(p for p in analysis.points if p.index == 1)
        arc = next(
            arc for arc in analysis.partition(top) if arc.end - arc.start <= 2 * morse._SHOT_SPREAD
        )
        theta = 0.5 * (arc.start + arc.end) % (2 * math.pi)
        classify = _Analysis._classify_angles

        def first_at_the_saddle(self, a, thetas):
            return [(saddle.id, (0, 0))] + classify(self, a, thetas)[1:]

        monkeypatch.setattr(_Analysis, "_classify_angles", first_at_the_saddle)
        expected = re.escape(f"angle {theta:.9f} rests at {saddle.id}, off the basins")
        with pytest.raises(MorseSmaleViolationError, match=expected):
            analysis.partition(top)
        with pytest.raises(MorseSmaleViolationError, match=expected):
            build_flow_category(f)

    def test_a_circle_in_one_basin_fails_loudly(self, monkeypatch):
        # A circle with no shot has no boundary, which no Morse-Smale flow on
        # T^2 gives: every index-2 disc is bounded by saddle separatrices.
        analysis = _Analysis(torus_function(), NumericalConfig())
        top = analysis.points[0]
        monkeypatch.setattr(_Analysis, "max_flows", lambda self, a: [])
        with pytest.raises(MorseSmaleViolationError, match=f"of {top.id} has no basin boundary"):
            analysis.partition(top)
        with pytest.raises(MorseSmaleViolationError, match=f"of {top.id} has no basin boundary"):
            build_flow_category(torus_function())

    @pytest.mark.parametrize("reverse", [False, True], ids=["default", "reversed"])
    @pytest.mark.parametrize("f", lane_functions(), ids=["torus", "perturbed-a", "perturbed-b"])
    def test_each_arc_carries_its_broken_ends(self, f, reverse):
        # Arc k runs from boundary k to k + 1, and each of its ends breaks at
        # the saddle of its boundary: first the flow out of the index-2 point
        # there, then a flow to the arc's sink, their offsets summing to the
        # arc's.
        analysis = _Analysis(f, NumericalConfig(reverse_orientation=reverse))
        flows = {fl.id: fl for fl in analysis.rigid_flows()}
        checked = 0
        for a in analysis.points:
            if a.index != 2:
                continue
            arcs = analysis.partition(a)
            firsts = analysis.max_flows(a)
            assert len(arcs) == len(firsts)
            for k, arc in enumerate(arcs):
                sink, offset = arc.landing_class
                for end, i in zip(arc.ends, (k, (k + 1) % len(arcs))):
                    first, second = flows[end.first], flows[end.second]
                    assert end.via == firsts[i].target
                    assert first == firsts[i]
                    assert (second.source, second.target) == (end.via, sink)
                    pairs = zip(first.lattice_offset, second.lattice_offset)
                    assert tuple(p + q for p, q in pairs) == offset
                    checked += 1
        assert checked >= 8

    def test_a_build_reads_the_flows_out_of_each_index_2_point_once(self, monkeypatch):
        # The partition reads them and stores each arc's ends; the families
        # of every sink filter the cached arcs.
        max_flows = _Analysis.max_flows
        calls = []

        def counting(self, a):
            calls.append(a.id)
            return max_flows(self, a)

        monkeypatch.setattr(_Analysis, "max_flows", counting)
        for f in [torus_function()] + [perturbed_torus(s) for s in range(6)]:
            calls.clear()
            cat, _ = build_flow_category(f)
            assert sorted(calls) == sorted(p for p in cat.objects if cat.index[p] == 2)

    @pytest.mark.parametrize("reverse", [False, True], ids=["default", "reversed"])
    @pytest.mark.parametrize("samples", [3, 5, 7, 64])
    @pytest.mark.parametrize("f", lane_functions(), ids=["torus", "perturbed-a", "perturbed-b"])
    def test_every_arc_rests_where_its_midpoint_does(self, f, samples, reverse):
        # The class read off the signs at each end of an arc is that of a
        # lane from the arc's midpoint, run on to `landing_radius`, and that
        # of a lane from each of the angles k 2 pi / samples inside it more
        # than `_SHOT_SPREAD` from its ends; a lane from an angle within
        # `_SHOT_SPREAD` of a boundary rests at a sink or that boundary's
        # saddle.
        cfg = NumericalConfig(reverse_orientation=reverse)
        analysis = _Analysis(f, cfg)
        thetas = [k * (2 * math.pi / samples) for k in range(samples)]
        spread = morse._SHOT_SPREAD
        checked = sampled = 0
        for a in analysis.points:
            if a.index != 2:
                continue
            arcs = analysis.partition(a)
            near = {}  # angle -> the saddle of the boundary within `spread`
            inside = [[] for _ in arcs]
            for th in thetas:
                for arc, within in zip(arcs, inside):
                    if abs(math.remainder(th - arc.start, 2 * math.pi)) <= spread:
                        near[th] = arc.ends[0].via
                    elif spread < (th - arc.start) % (2 * math.pi) < arc.end - arc.start - spread:
                        within.append(th)
            assert len(near) + sum(map(len, inside)) == samples
            for th, cls in zip(near, full_landing_classes(analysis, a, list(near))):
                assert cls[0] == near[th] or analysis.by_id[cls[0]].index == 0
            for arc, within in zip(arcs, inside):
                mid = 0.5 * (arc.start + arc.end)
                classes = full_landing_classes(analysis, a, [mid] + within)
                assert classes == [arc.landing_class] * len(classes)
                checked += 1
                sampled += len(within)
        assert checked >= 4 and sampled > 0

    # Along the tilted upright torus, the two boundaries that the lower
    # saddle's stable separatrices make close in on the upper saddle's
    # boundary, within about 1e-5 |t| rad, as t -> 0; at t = 0 the upper
    # saddle's unstable separatrix runs into the lower saddle.
    def test_a_saddle_connection_fails_loudly(self):
        with pytest.raises(MorseSmaleViolationError, match="saddle connection"):
            build_flow_category(tilted_upright_torus(0))

    @pytest.mark.parametrize("t", ["1/10", "-1/10", "1/100", "-1/100", "1/1000"])
    def test_a_build_near_a_saddle_connection(self, t):
        f = tilted_upright_torus(Fraction(t))
        ring = CoefficientRing.integers()
        built = [build_flow_category(f, NumericalConfig(step_tol=tol)) for tol in (1e-8, 1e-12)]
        for cat, orientation in built:
            assert check_orientation_coherence(cat, orientation).passed
            groups = all_homology(floer_complex(cat, orientation).complex, ring)
            assert [str(g) for g in groups] == ["Z", "Z^2", "Z"]
        (cat, orientation), (tight, tight_orientation) = built
        assert tight.to_json(tight_orientation) == cat.to_json(orientation)


class TestThreeTorus:
    def test_flows_out_of_an_index_2_point_raise_input_error(self):
        # A saddle's stable manifold is a surface on T^3, which no finite set
        # of shots traces, so these flows are computed on T^2 only.
        f = three_torus_function()
        points = find_critical_points(f)
        by_id = {p.id: p for p in points}
        with pytest.raises(InputError, match="index-2 point"):
            connecting_orbits(f, by_id["p2.0"], by_id["p1.0"], critical_points=points)

    # Ids, signs and lattice offsets of the saddle flows of the cosine sum,
    # at default and reversed orientation.
    SADDLE_FLOWS = {
        False: [
            ("p1.0>p0.0#0", 1, (0, 0, 0)),
            ("p1.0>p0.0#1", -1, (-1, 0, 0)),
            ("p1.1>p0.0#0", 1, (0, 0, 0)),
            ("p1.1>p0.0#1", -1, (0, -1, 0)),
            ("p1.2>p0.0#0", 1, (0, 0, 0)),
            ("p1.2>p0.0#1", -1, (0, 0, -1)),
        ],
        True: [
            ("p1.0>p0.0#0", 1, (-1, 0, 0)),
            ("p1.0>p0.0#1", -1, (0, 0, 0)),
            ("p1.1>p0.0#0", 1, (0, -1, 0)),
            ("p1.1>p0.0#1", -1, (0, 0, 0)),
            ("p1.2>p0.0#0", 1, (0, 0, -1)),
            ("p1.2>p0.0#1", -1, (0, 0, 0)),
        ],
    }

    @pytest.mark.parametrize("reverse", [False, True], ids=["default", "reversed"])
    def test_saddle_flows_keep_their_ids_signs_and_offsets(self, reverse):
        # Each saddle sends a (-1, +1) pair into the sink: one flow inside
        # the unit cell and one across the face its unstable axis crosses.
        analysis = _Analysis(three_torus_function(), NumericalConfig(reverse_orientation=reverse))
        saddles = [p for p in analysis.points if p.index == 1]
        flows = analysis.saddle_flows(saddles)
        assert [(fl.id, fl.sign, fl.lattice_offset) for fl in flows] == self.SADDLE_FLOWS[reverse]
        for s in saddles:
            assert sorted(fl.sign for fl in flows if fl.source == s.id) == [-1, 1]


class TestShots:
    @pytest.mark.parametrize("reverse", [False, True], ids=["default", "reversed"])
    @pytest.mark.parametrize("f", lane_functions(), ids=["torus", "perturbed-a", "perturbed-b"])
    def test_every_boundary_has_a_shot(self, f, reverse):
        # A boundary direction flows into its saddle, so the saddle's stable
        # separatrix, followed backward, crosses the circle at that angle:
        # the partition's boundaries are the bisection oracle's, in the same
        # order, at the same saddles, within 1e-6 rad.  The flows read
        # backward have the targets, signs and lattice offsets of the forward
        # flows that depart at the oracle's angles, signed by a frame carried
        # along each of them, and each of those rests at its boundary's saddle.
        # The carried-frame oracle follows those flows at step_tol 1e-12: the
        # oracle's angles lie within about 1e-9 rad of the true boundaries,
        # and at the default step_tol its Dormand–Prince steps err by up to
        # about 1e-7 rad, enough to pass the saddle.
        analysis = _Analysis(f, NumericalConfig(reverse_orientation=reverse))
        top = analysis.points[0]
        arcs = analysis.partition(top)
        found, _ = one_at_a_time(f, 64, reverse)
        found = sorted(found, key=lambda b: b[0])
        assert len(found) == len(arcs) > 0
        for (angle, saddle), arc in zip(found, arcs):
            assert arc.ends[0].via == saddle.id
            assert abs(math.remainder(arc.start - angle, 2 * math.pi)) <= 1e-6
        seeds = [analysis.seed(top, analysis.direction_at(top, th)) for th, _ in found]
        tight = _Analysis(f, analysis.cfg.with_overrides(step_tol=1e-12), analysis.points)
        forward = [forward_sign(tight, top, seed) for seed in seeds]
        assert [b for b, _, _ in forward] == [s for _, s in found]
        assert [(fl.target, fl.sign, fl.lattice_offset) for fl in analysis.max_flows(top)] == [
            (b.id, sign, offset) for b, offset, sign in forward
        ]

    @pytest.mark.parametrize("f", lane_functions(), ids=["torus", "perturbed-a", "perturbed-b"])
    def test_a_kept_entry_is_the_jet_of_the_step_into_the_sphere(self, f):
        # `_crossing` reads the jet each backward lane kept for its step into
        # the departure sphere of the point it rests at: it has the bits of
        # a fresh jet of sense -1 at that step's start, the first point of
        # the trajectory outside the sphere before the first one inside.
        analysis = _Analysis(f, NumericalConfig())
        comp, radius = analysis.comp, analysis.cfg.sphere_radius
        seeds = [
            analysis.seed(s, side * analysis.stable_frames[s.id][:, 0])
            for s in analysis.points
            if s.index == 1
            for side in (1, -1)
        ]
        for got in analysis.land_lanes(seeds, senses=[-1.0] * len(seeds)):
            path = np.array([p for _, p in got.trajectory])
            k = int(np.argmax(_wrap(path - got.point.position)[1] <= radius))
            assert k > 0
            start = path[k - 1 : k]
            jet = _taylor_jet(comp, comp.trig_batch(start), -np.ones(1), morse._TAYLOR_ORDER)
            assert got.entry.tobytes() == jet[:, 0].tobytes()

    def test_no_shots_off_the_two_torus(self, monkeypatch):
        # On the circle the saddle flows are one run of two forward lanes; on
        # T^3 flows out of index-2 points raise InputError.
        land = _Analysis.land_lanes
        runs = []

        def counting_land(self, seeds, trap=False, senses=None):
            runs.append((len(seeds), senses))
            return land(self, seeds, trap, senses)

        monkeypatch.setattr(_Analysis, "land_lanes", counting_land)
        analysis = _Analysis(circle_function(), NumericalConfig())
        assert [fl.source for fl in analysis.rigid_flows()] == ["p1.0", "p1.0"]
        assert runs == [(2, None)]
        analysis = _Analysis(three_torus_function(), NumericalConfig())
        with pytest.raises(InputError, match="index-2 point"):
            analysis.rigid_flows()
        with pytest.raises(InputError, match="index-2 point"):
            analysis.max_flows(analysis.points[0])

    @staticmethod
    def spoil_backward_run(monkeypatch, spoil):
        """Let `spoil(analysis, outcomes)` rewrite the outcomes of the backward lanes.

        On T^2 they are the lanes of sense -1, which lead the separatrix run;
        the saddles' forward lanes follow, one per backward lane.
        """
        land = _Analysis.land_lanes

        def spoiling_land(self, seeds, trap=False, senses=None):
            out = land(self, seeds, trap, senses)
            if senses is not None:
                backward = senses.count(-1.0)
                assert senses == [-1.0] * backward + [1.0] * (len(senses) - backward)
                assert len(senses) == 2 * backward
                head = out[:backward]
                spoil(self, head)
                out[:backward] = head
            return out

        monkeypatch.setattr(_Analysis, "land_lanes", spoiling_land)

    def test_a_failed_backward_lane_raises_its_error(self, monkeypatch):
        def fail(analysis, out):
            out[1] = IntegrationFailureError("injected at lane 1")
            out[2] = IntegrationFailureError("injected at lane 2")

        self.spoil_backward_run(monkeypatch, fail)
        for f in lane_functions():
            with pytest.raises(IntegrationFailureError, match="lane 1"):
                build_flow_category(f)

    def test_a_backward_lane_at_a_saddle_is_a_saddle_connection(self, monkeypatch):
        def connect(analysis, out):
            out[0] = out[0]._replace(point=next(p for p in analysis.points if p.index == 1))

        # Through the run of `flow_lines` and through that of a build.
        self.spoil_backward_run(monkeypatch, connect)
        for f in lane_functions():
            for build in (flow_lines, build_flow_category):
                with pytest.raises(
                    MorseSmaleViolationError, match="rests at p1.0, .*saddle connection"
                ):
                    build(f)

    @pytest.mark.parametrize("spoil", ["offset", "target"])
    def test_a_spoiled_saddle_flow_splits_an_arcs_end_classes(self, monkeypatch, spoil):
        # Each arc's class is read off the saddle flows at both of its ends;
        # a saddle flow with another lattice offset or target gives the two
        # ends different classes, as a missed boundary would.
        separatrices = _Analysis._separatrices

        def spoiled(self, *args):
            flows = separatrices(self, *args)
            k = next(k for k, fl in enumerate(flows) if self.by_id[fl.source].index == 1)
            fl = flows[k]
            if spoil == "offset":
                fl = replace(fl, lattice_offset=(fl.lattice_offset[0] + 1,) + fl.lattice_offset[1:])
            else:
                fl = replace(fl, target=next(p.id for p in self.points if p.index == 1))
            return flows[:k] + [fl] + flows[k + 1 :]

        monkeypatch.setattr(_Analysis, "_separatrices", spoiled)
        for f in lane_functions():
            analysis = _Analysis(f, NumericalConfig())
            with pytest.raises(MorseSmaleViolationError, match=r"rest at \(.*near-tie"):
                analysis.partition(analysis.points[0])


def minus(analysis: _Analysis) -> _Analysis:
    """An analysis of -f: the same points, values negated, index n - index."""
    f = analysis.f
    neg = tuple(TrigTerm(t.frequency, -t.cos_coeff, -t.sin_coeff) for t in f.terms)
    points = [replace(p, value=-p.value, index=f.dimension - p.index) for p in analysis.points]
    return _Analysis(TrigPolynomial(f.dimension, neg), analysis.cfg, points)


def lane_bits(got):
    """Everything a lane returns, states as bytes, points by id."""
    if isinstance(got, Exception):
        return comparable(got)
    return (got.point.id, got.offset, got.trajectory, got.state.tobytes())


class TestSenses:
    # One run follows every separatrix of every saddle, the stable ones with
    # sense -1.  That rests on negation being exact: a lane of sense -1 is a
    # lane of -f, and the stable eigenvector of a saddle is the unstable
    # frame of -f, bit for bit.

    @staticmethod
    def backward_departures(analysis):
        """Seeds out of each saddle along +-w_s and each sink along six directions."""
        seeds = []
        for p in analysis.points:
            if p.index == 1:
                w = analysis.stable_frames[p.id][:, 0]
                directions = [w, -w]
            elif p.index == 0:
                directions = [
                    np.array([math.cos(th), math.sin(th)])
                    for th in ((k + 0.5) * math.pi / 3 for k in range(6))
                ]
            else:
                continue
            seeds += [analysis.seed(p, d) for d in directions]
        return seeds

    @pytest.mark.parametrize("f", lane_functions(), ids=["torus", "perturbed-a", "perturbed-b"])
    def test_a_backward_lane_is_a_lane_of_minus_f(self, f):
        # It stops in the balls of -f, capped at `sphere_radius`: a lane of
        # -f stopped there has its bits.
        analysis = _Analysis(f, NumericalConfig())
        seeds = self.backward_departures(analysis)
        backward = analysis.land_lanes(seeds, senses=[-1.0] * len(seeds))
        back = minus(analysis)
        capped = np.minimum(back.trap_radius, analysis.cfg.sphere_radius)
        assert capped.tobytes() == analysis.back_radius.tobytes()
        back.trap_radius = capped
        of_minus_f = back.land_lanes(seeds)
        assert all(isinstance(got, _Landing) for got in backward)
        assert list(map(lane_bits, backward)) == list(map(lane_bits, of_minus_f))
        # Forward sinks of -f are f's index-2 points, backward f's saddles too.
        assert {got.point.index for got in backward} <= {1, 2}

    def test_a_run_of_mixed_senses_keeps_each_lanes_bits(self):
        # Backward recorded lanes, forward recorded lanes and forward
        # trapping lanes share one run, interleaved; each keeps the bits it
        # has alone, in a run of its own kind.
        analysis = _Analysis(perturbed_torus(perturbed_torus_seeds(1)[0]), NumericalConfig())
        back_seeds = self.backward_departures(analysis)
        seeds = departures(analysis, 2) + departures(analysis, 1)
        lanes = (
            [(s, -1.0, False) for s in back_seeds]
            + [(s, 1.0, False) for s in seeds]
            + [(s, 1.0, True) for s in departures(analysis, 2)]
        )

        def run(batch):
            seeds, senses, traps = (list(column) for column in zip(*batch))
            return analysis.land_lanes(seeds, trap=traps, senses=senses)

        alone = [lane_bits(run([lane])[0]) for lane in lanes]
        mixed = lanes[::2] + lanes[1::2]
        order = list(range(len(lanes)))[::2] + list(range(len(lanes)))[1::2]
        assert [lane_bits(got) for got in run(mixed)] == [alone[k] for k in order]
        first = len(back_seeds)
        forward = analysis.land_lanes(seeds)
        assert list(map(lane_bits, forward)) == alone[first : first + len(seeds)]
        first += len(seeds)
        trapping = analysis.land_lanes(departures(analysis, 2), trap=True)
        assert list(map(lane_bits, trapping)) == alone[first : first + len(trapping)]
        assert any(
            torus_distance(got.state, got.point.position) > analysis.cfg.landing_radius
            for got in trapping
        )

    def test_lanes_that_land_at_one_check_keep_their_lone_bits(self, monkeypatch):
        # On the symmetric torus mirror lanes land together: the landings of
        # one check are written in one block, each from its own row.  The
        # batch mixes backward and forward recorded lanes with forward
        # trapping lanes; each gives the point, offset, state, trajectory
        # and entry jet of its lone run.
        analysis = _Analysis(torus_function(), NumericalConfig())
        lanes = (
            [(s, -1.0, False) for s in self.backward_departures(analysis)]
            + [(s, 1.0, False) for s in departures(analysis, 1)]
            + [(s, 1.0, True) for s in departures(analysis, 2)]
        )

        def run(batch):
            seeds, senses, traps = (list(column) for column in zip(*batch))
            return analysis.land_lanes(seeds, trap=traps, senses=senses)

        def bits(got):
            entry = None if got.entry is None else got.entry.tobytes()
            return lane_bits(got), entry

        alone = [bits(run([lane])[0]) for lane in lanes]
        jet, rows = morse._taylor_jet, []

        def counting_jet(comp, cs, sense, order):
            rows.append(len(sense))
            return jet(comp, cs, sense, order)

        monkeypatch.setattr(morse, "_taylor_jet", counting_jet)
        got = run(lanes)
        assert all(isinstance(g, _Landing) for g in got)
        assert [bits(g) for g in got] == alone
        left = [a - b for a, b in zip([len(lanes)] + rows, rows + [0])]
        assert sum(n >= 2 for n in left) >= 3
        assert {g.entry is None for g, (_, _, trap) in zip(got, lanes) if trap} == {True}
        assert all(g.entry is not None for g in got[:4])

    @pytest.mark.parametrize("reverse", [False, True], ids=["default", "reversed"])
    def test_a_saddles_stable_frame_is_its_unstable_frame_of_minus_f(self, reverse):
        cfg = NumericalConfig(reverse_orientation=reverse)
        for f in [torus_function()] + [perturbed_torus(seed) for seed in range(6)]:
            analysis = _Analysis(f, cfg)
            back = minus(analysis)
            saddles = [p for p in analysis.points if p.index == 1]
            assert saddles
            for s in saddles:
                assert analysis.stable_frames[s.id].shape == (2, 1)
                assert analysis.stable_frames[s.id].tobytes() == back.frames[s.id].tobytes()


class TestSigns:
    # Every sign is read in closed form: a saddle flow's is its departure
    # side, and a flow a -> s out of an index-2 point compares the frame
    # (velocity, w_u) at the backward seed with a's unstable frame.  The
    # oracle carries the frame along each flow, one step at a time, and
    # compares it at the far end: forward with (arrival velocity, unstable
    # frame of the target), backward with a's unstable frame.

    @pytest.mark.parametrize("reverse", [False, True], ids=["default", "reversed"])
    @pytest.mark.parametrize(
        "f",
        [circle_function(), torus_function()]
        + [perturbed_torus(seed) for seed in range(6)]
        + [three_torus_function()],
        ids=["circle", "torus"] + [f"seed{seed}" for seed in range(6)] + ["three-torus"],
    )
    def test_signs_equal_those_of_carried_frames(self, f, reverse):
        analysis = _Analysis(f, NumericalConfig(reverse_orientation=reverse))
        saddles = [p for p in analysis.points if p.index == 1]
        assert saddles
        flows = analysis.saddle_flows(saddles) if f.dimension == 3 else analysis.rigid_flows()
        expected = []
        for s in saddles:
            for side in (1, -1):
                seed = analysis.seed(s, side * analysis.frames[s.id][:, 0])
                b, offset, sign = forward_sign(analysis, s, seed)
                expected.append((s.id, b.id, offset, sign))
        got = [(fl.source, fl.target, fl.lattice_offset, fl.sign) for fl in flows]
        assert [fl for fl in got if analysis.by_id[fl[0]].index == 1] == expected
        if f.dimension == 2:
            # The flows out of an index-2 point come by departure angle, so
            # they are compared as a multiset.
            backward = []
            for s in saddles:
                for side in (1, -1):
                    a, offset, sign = backward_sign(analysis, s, side)
                    backward.append((a.id, s.id, offset, sign))
            assert sorted(fl for fl in got if analysis.by_id[fl[0]].index == 2) == sorted(backward)

    def test_a_nearly_singular_frame_comparison_raises(self):
        basis = np.eye(2)
        for det, sign in ((2e-6, 1), (-2e-6, -1)):
            assert _orientation(basis, np.array([[1.0, 0.5], [0.0, det]]), "a->b") == sign
        for det in (5e-7, -5e-7, 0.0):
            with pytest.raises(MorseSmaleViolationError, match="ambiguous frame comparison"):
                _orientation(basis, np.array([[1.0, 0.5], [0.0, det]]), "a->b")


def record_lanes(monkeypatch) -> list:
    """Patch `land_lanes` to log (seed, sense, trap, outcome) of every lane; returns the log."""
    land = _Analysis.land_lanes
    seen = []

    def recording_land(self, seeds, trap=False, senses=None):
        out = land(self, seeds, trap, senses)
        traps = np.broadcast_to(trap, len(seeds)).tolist()
        seen.extend(zip(seeds, [1.0] * len(seeds) if senses is None else senses, traps, out))
        return out

    monkeypatch.setattr(_Analysis, "land_lanes", recording_land)
    return seen


def third_derivative_bound(f: TrigPolynomial) -> float:
    """Sum of (|cos| + |sin|) (2 pi |k|)^3 over the terms, from the exact coefficients."""
    return sum(
        (abs(float(t.cos_coeff)) + abs(float(t.sin_coeff)))
        * (2 * math.pi * math.sqrt(sum(k * k for k in t.frequency))) ** 3
        for t in f.terms
    )


class TestTrapping:
    @pytest.mark.parametrize("samples", [64, 3, 5])
    @pytest.mark.parametrize(
        "f",
        [torus_function()] + [perturbed_torus(s) for s in perturbed_torus_seeds(25)],
        ids=["torus"] + [f"perturbed-{k}" for k in range(25)],
    )
    def test_trapping_never_changes_a_class(self, monkeypatch, f, samples):
        # A lane that may trap, an arc midpoint's, gets the rest point and
        # offset, or the error, that a lane running on to `landing_radius`
        # at the recorded lanes' step_tol/1500 gets: here at the angles
        # k 2 pi / samples of every index-2 point.
        thetas = [k * (2 * math.pi / samples) for k in range(samples)]
        analysis = _Analysis(f, NumericalConfig())
        maxima = [a for a in analysis.points if a.index == 2]
        lanes = record_lanes(monkeypatch)
        for a in maxima:
            analysis._classify_angles(a, thetas)
        seen = [(seed, got) for seed, _, trap, got in lanes if trap]
        assert len(seen) == len(lanes) == samples * len(maxima) > 0
        seeds = [seed for seed, _ in seen]
        full = running_on(analysis).land_lanes(seeds)

        def rest(got):
            return comparable(got) if isinstance(got, Exception) else (got.point, got.offset)

        assert [rest(got) for _, got in seen] == list(map(rest, full))
        trapped = sum(
            torus_distance(got.state, got.point.position) > analysis.cfg.landing_radius
            for _, got in seen
        )
        assert trapped > 0

    @pytest.mark.parametrize(
        "f",
        [torus_function()] + [perturbed_torus(s) for s in range(6)],
        ids=["torus"] + [f"perturbed-{s}" for s in range(6)],
    )
    def test_the_flow_points_into_a_ball_on_sampled_spheres(self, f):
        # A sink's ball is the certificate's, r_c = (lam - slack) / M3, and
        # on spheres around the sink up to r_c, and on past it, the gradient
        # points away from the sink, so |x - c| falls along the flow.
        analysis = _Analysis(f, NumericalConfig())
        m2 = _derivative_bounds(analysis.comp)[0]
        m = third_derivative_bound(f)
        sinks = 0
        for i, c in enumerate(analysis.points):
            rho = analysis.trap_radius[i]
            if c.index != 0:
                assert rho < 0.0
                continue
            sinks += 1
            lam = float(np.linalg.eigvalsh(eval_grad_hess(f, c.position)[2])[0])
            assert rho == pytest.approx((lam - 1e-9 * m2) / m, rel=1e-12)
            assert 0.0 < rho < lam / m <= 1.0 / (2.0 * math.pi)
            for r in rho * np.array([0.05, 0.25, 0.5, 0.75, 1.0, 1.5]):
                for k in range(24):
                    u = np.array([math.cos(k * math.pi / 12), math.sin(k * math.pi / 12)])
                    grad = eval_grad_hess(f, np.array(c.position) + r * u)[1]
                    assert float(np.dot(r * u, grad)) > 0.0
        assert sinks >= 1

    @pytest.mark.parametrize(
        "f",
        [torus_function()] + [perturbed_torus(s) for s in range(6)],
        ids=["torus"] + [f"perturbed-{s}" for s in range(6)],
    )
    def test_no_other_point_lies_in_a_ball(self, f):
        analysis = _Analysis(f, NumericalConfig())
        for i, c in enumerate(analysis.points):
            others = [p for p in analysis.points if p is not c]
            assert all(
                torus_distance(p.position, c.position) > analysis.trap_radius[i] for p in others
            )

    @pytest.mark.parametrize("f", lane_functions(), ids=["torus", "perturbed-a", "perturbed-b"])
    def test_a_seed_inside_a_ball_stops_at_its_seed(self, f):
        # Near the rim and deep inside, on the sink's own lift and on
        # another: a trapping lane and a recorded one both stop before their
        # first step, with the rest point and offset of a lane that runs on
        # to `landing_radius`.
        analysis = _Analysis(f, NumericalConfig())
        seeds = []
        for i, c in enumerate(analysis.points):
            if c.index == 0:
                for k, r in enumerate(analysis.trap_radius[i] * np.array([0.3, 0.9, 0.9999])):
                    u = np.array([math.cos(1.0 + 2.0 * k), math.sin(1.0 + 2.0 * k)])
                    seeds += [np.array(c.position) + r * u + lift for lift in ([0, 0], [1, -1])]
        trapped = analysis.land_lanes(seeds, trap=True)
        stopped = analysis.land_lanes(seeds)
        for lanes in (trapped, stopped):
            assert [stop.state.tobytes() for stop in lanes] == [seed.tobytes() for seed in seeds]
        run_on = running_on(analysis).land_lanes(seeds)
        for stop, lane, got, seed in zip(trapped, stopped, run_on, seeds):
            assert stop.trajectory is None and len(got.trajectory) > 1
            assert lane.trajectory == ((0.0, tuple(seed.tolist())),)
            assert (stop.point, stop.offset) == (lane.point, lane.offset) == (got.point, got.offset)
        assert {stop.offset for stop in trapped} == {(0, 0), (1, -1)}

    @pytest.mark.parametrize("f", lane_functions(), ids=["torus", "perturbed-a", "perturbed-b"])
    def test_a_trapped_lane_stops_at_the_first_recorded_point_in_a_ball(self, f):
        # The scalar twin of the same seed, at a trapping lane's step_tol/15,
        # records its path; the trapping lane stops at the first point of
        # it inside a sink's ball, where the full landing is still well
        # short of `landing_radius`.  A departure that rests at a saddle
        # enters no ball and runs on, to the twin's last point.
        analysis = _Analysis(f, NumericalConfig())
        check_tol = analysis.cfg.step_tol / 15.0
        seeds = departures(analysis, 2) + departures(analysis, 1)
        sinks = [(i, p) for i, p in enumerate(analysis.points) if p.index == 0]
        far = resting = 0
        for stop, seed in zip(analysis.land_lanes(seeds, trap=True), seeds):
            point, offset, twin = scalar_flow(f, analysis.cfg, analysis.points, seed, check_tol)
            path = np.array([x for _, x in twin])
            assert (stop.point, stop.offset) == (point, offset)
            if point.index != 0:
                assert stop.state.tobytes() == path[-1].tobytes()
                continue
            resting += 1
            inside = [_wrap(path - p.position)[1] <= analysis.trap_radius[i] for i, p in sinks]
            first = int(np.flatnonzero(np.any(inside, axis=0))[0])
            assert first > 0 and stop.trajectory is None
            assert stop.state.tobytes() == path[first].tobytes()
            far += torus_distance(stop.state, stop.point.position) > analysis.cfg.landing_radius
        assert far == resting > 0

    def test_caller_point_data_does_not_move_a_class(self):
        # The regions come from the analysis's own evaluators at the
        # positions, not from a caller's values or eigenvalues.
        f = lane_functions()[1]
        clean = _Analysis(f, NumericalConfig())
        tampered = _Analysis(
            f,
            NumericalConfig(),
            [
                replace(p, value=p.value + 10.0, hessian_eigenvalues=(1e3,) * len(p.position))
                for p in clean.points
            ],
        )
        assert tampered.trap_radius.tobytes() == clean.trap_radius.tobytes()
        for a in clean.points:
            if a.index == 2:
                arcs, clean_arcs = (
                    analysis.partition(analysis.by_id[a.id]) for analysis in (tampered, clean)
                )
                assert arcs == clean_arcs

    def test_trapped_lane_lands_where_full_landing_runs_out(self):
        # A step budget or flow time that ends just as a trapping lane
        # enters the ball, read off its scalar twin at step_tol/15: the
        # classification lane lands, a lane that runs on to
        # `landing_radius` fails.
        f = lane_functions()[1]
        analysis = _Analysis(f, NumericalConfig())
        top = analysis.points[0]
        theta = 1.0
        seed = analysis.seed(top, analysis.direction_at(top, theta))
        (stop,) = analysis.land_lanes([seed], trap=True)
        twin = scalar_flow(f, analysis.cfg, analysis.points, seed, analysis.cfg.step_tol / 15.0)[2]
        assert torus_distance(stop.state, stop.point.position) > analysis.cfg.landing_radius
        steps = [x for _, x in twin].index(tuple(stop.state.tolist()))
        time = twin[steps][0]
        for limits, message in (
            ({"max_steps": steps}, "step budget"),
            ({"max_flow_time": time}, "flow time"),
        ):
            limited = _Analysis(f, NumericalConfig(**limits), analysis.points)
            assert limited._classify_angles(top, [theta]) == [(stop.point.id, stop.offset)]
            (full,) = running_on(limited).land_lanes([seed])
            assert isinstance(full, IntegrationFailureError) and message in str(full)

    @pytest.mark.parametrize("miss", [0.5, 0.999, 1.001, 2.0])
    def test_a_straight_step_passes_a_point_by_its_distance(self, miss):
        # A step from (0.1, 0.2) along (1, 0) for time 0.2 passes (0.2, 0.2
        # + miss R) at its midpoint, at distance miss R, while both its ends
        # stay 0.1 away.
        cfg = NumericalConfig()
        radius = cfg.landing_radius
        jet = np.zeros((20, 1, 2))
        jet[0, 0] = (1.0, 0.0)
        x, h = np.array([[0.1, 0.2]]), np.array([0.2])
        centre = np.array([[0.2, 0.2 + miss * radius]])
        hit, point, when = _passes(jet, x, centre, h, cfg)
        assert bool(hit[0]) == (miss < 1)
        if miss < 1:
            assert _wrap(point - centre)[1][0] <= radius and 0 < when[0] < h[0]

    @pytest.mark.parametrize("step_tol", [1e-8, 1e-9, 1e-10])
    def test_a_near_pass_of_a_saddle_is_caught_at_every_step_tol(self, step_tol):
        # The departure of p2.0 at angle 31 2 pi / 64 lies 6.7e-5 rad from a
        # boundary of p1.0 and its flow passes 8.0e-5 from p1.0, inside
        # `landing_radius`.  It rests there at every step_tol, not only where
        # a step point falls inside that ball.  No arc of this function is
        # as thin as 2 `_SHOT_SPREAD`, so no lane checks its partition
        # there, and it builds the category it builds at `sphere_radius`
        # 1e-2 and at step_tol 1e-12.
        f = TrigPolynomial.from_json(
            {
                "dim": 2,
                "terms": [
                    {"freq": [2, 1], "cos": "-3/10", "sin": -1},
                    {"freq": [-1, 0], "cos": "3/5", "sin": "3/5"},
                    {"freq": [1, -2], "cos": "-17/10", "sin": 1},
                ],
            }
        )
        cfg = NumericalConfig(grid_resolution=48, step_tol=step_tol)
        analysis = _Analysis(f, cfg)
        theta = 31 * (2 * math.pi / 64)
        assert analysis._classify_angles(analysis.by_id["p2.0"], [theta]) == [("p1.0", (0, 0))]
        cat, orientation = build_flow_category(f, cfg)
        for other in (cfg.with_overrides(sphere_radius=1e-2), cfg.with_overrides(step_tol=1e-12)):
            other_cat, other_orientation = build_flow_category(f, other)
            assert other_cat.to_json(other_orientation) == cat.to_json(orientation)


def separatrix_landings(monkeypatch, analysis):
    """(seed, sense, landing) of every recorded lane of `analysis`'s separatrix run."""
    lanes = record_lanes(monkeypatch)
    analysis.rigid_flows()
    monkeypatch.undo()
    return [(seed, sense, got) for seed, sense, trap, got in lanes if not trap]


def minus_f_ball(f: TrigPolynomial, c: CriticalPoint) -> float:
    """The certificate ball of -f around a maximum c, from its own eigenvalues and bounds."""
    m2 = _derivative_bounds(_Compiled(f))[0]
    lam = float(np.linalg.eigvalsh(eval_grad_hess(f, c.position)[2])[-1])
    return (-lam - 1e-9 * m2) / third_derivative_bound(f)


class TestStops:
    # A lane of sense sigma stops at its first step point in the ball of a
    # sink of sigma f: a forward lane in its sink's certificate ball, a
    # backward one in the ball of -f around a maximum, capped at
    # `sphere_radius`.

    @pytest.mark.parametrize(
        "f",
        [circle_function(), torus_function()] + [perturbed_torus(s) for s in range(6)],
        ids=["circle", "torus"] + [f"perturbed-{s}" for s in range(6)],
    )
    def test_a_recorded_lane_stops_at_its_first_point_in_a_ball(self, monkeypatch, f):
        analysis = _Analysis(f, NumericalConfig())
        cfg = analysis.cfg
        seen = separatrix_landings(monkeypatch, analysis)
        assert {sense for _, sense, _ in seen} == ({1.0} if f.dimension == 1 else {1.0, -1.0})
        for _, sense, got in seen:
            i = analysis.points.index(got.point)
            assert got.point.index == (0 if sense > 0 else 2)
            radii = analysis.trap_radius if sense > 0 else analysis.back_radius
            if sense < 0:
                ball = min(minus_f_ball(f, got.point), cfg.sphere_radius)
                assert radii[i] == pytest.approx(ball, rel=1e-12)
            path = np.array([x for _, x in got.trajectory])
            dist = _wrap(path[:, None] - analysis.centres)[1]
            assert got.state.tobytes() == path[-1].tobytes()
            assert cfg.landing_radius < dist[-1, i] <= radii[i]
            assert not (dist[:-1] <= np.maximum(radii, cfg.landing_radius)).any()
            assert got.offset == tuple(np.rint(path[-1] - got.point.position).astype(int))

    @pytest.mark.parametrize("f", lane_functions(), ids=["torus", "perturbed-a", "perturbed-b"])
    def test_a_backward_lane_has_its_scalar_twin_s_bits(self, f):
        # Up to its stop, the first point inside the departure sphere, a
        # stable separatrix followed backward has every bit of the scalar
        # twin of -f stopped in the same balls.
        analysis = _Analysis(f, NumericalConfig())
        minus_f = minus(analysis).f
        saddles = [p for p in analysis.points if p.index == 1]
        seeds = [
            analysis.seed(s, side * analysis.stable_frames[s.id][:, 0])
            for s in saddles
            for side in (1, -1)
        ]
        backward = analysis.land_lanes(seeds, senses=[-1.0] * len(seeds))
        for seed, got in zip(seeds, backward):
            twin = scalar_flow(
                minus_f, analysis.cfg, analysis.points, seed, radii=analysis.back_radius
            )
            assert recorded(got) == twin
            assert torus_distance(got.state, got.point.position) <= analysis.cfg.sphere_radius

    def test_a_sphere_wider_than_the_ball_of_minus_f_stops_in_the_ball(self, monkeypatch):
        # At `sphere_radius` 0.1 the torus's maximum has a ball of -f of
        # radius 1/(4 pi) = 0.080 less the slack, inside its sphere, and
        # `perturbed_torus(1)`'s maximum one of 0.040, so a backward lane
        # runs on past the sphere into the ball (the torus's lanes take one
        # step into both).  Its path up to the sphere is
        # that of a lane that runs on to `landing_radius`, so the flows out
        # of the maxima keep every bit, and the category is the one at the
        # default radius.
        cfg = NumericalConfig(sphere_radius=0.1)
        torus = _Analysis(torus_function(), cfg)
        assert torus.points[0].id == "p2.0"
        assert torus.back_radius[0] == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-6)
        past = 0
        for f in (torus_function(), perturbed_torus(1)):
            analysis = _Analysis(f, cfg)
            maxima = [p for p in analysis.points if p.index == 2]
            seen = separatrix_landings(monkeypatch, analysis)
            backward = [got for _, sense, got in seen if sense < 0]
            assert len(backward) == 2 * sum(p.index == 1 for p in analysis.points)
            for got in backward:
                ball = analysis.back_radius[analysis.points.index(got.point)]
                assert ball == pytest.approx(minus_f_ball(f, got.point), rel=1e-12)
                assert ball < cfg.sphere_radius
                dist = _wrap(np.array([x for _, x in got.trajectory]) - got.point.position)[1]
                assert dist[-1] <= ball < dist[-2]
                past += dist[-2] <= cfg.sphere_radius
            run_on = _Analysis(f, cfg)
            run_on.back_radius = np.full_like(analysis.back_radius, -np.inf)
            for a in maxima:
                assert analysis.max_flows(a) == run_on.max_flows(a)
            assert build_flow_category(f, cfg) == build_flow_category(f)
        assert past > 0


def circle_flow(x0: float, t: float) -> float:
    """The negative gradient flow of cos(2 pi x): tan(pi x) grows as e^(4 pi^2 t)."""
    return math.atan(math.tan(math.pi * x0) * math.exp(4 * math.pi**2 * t)) / math.pi


class TestTaylorStep:
    @pytest.mark.parametrize("step_tol, within", [(1e-8, True)], ids=["default"])
    def test_circle_lane_follows_the_closed_form(self, step_tol, within):
        # Step-doubling RK4 stayed within 1.63e-8 of the closed form here.
        # The lane is its scalar twin's: 8 points, the last the first in the
        # sink's ball.
        analysis = _Analysis(circle_function(), NumericalConfig(step_tol=step_tol))
        x0 = 1e-3
        (got,) = analysis.land_lanes([[x0]])
        assert got.point.index == 0 and len(got.trajectory) == 8
        assert recorded(got) == oracle(analysis, [x0])
        worst = max(abs(x[0] - circle_flow(x0, t)) for t, x in got.trajectory)
        assert (worst <= 5e-8) == within, worst

    def test_the_step_polynomial_errs_at_its_order(self):
        # One step from a fixed point at h, h/2 and h/4: the local error of
        # an order-p series falls as h^(p+1).  At the package's order a step
        # of 0.01 is exact to rounding.
        comp = _Compiled(circle_function())
        x0 = 0.05
        x = np.array([[x0]])
        cs = comp.trig_batch(x)
        for order in (2, 4, 6):
            jet = _taylor_jet(comp, cs, np.ones(1), order)
            errors = [
                abs(_horner(jet, x, np.array([[h]]))[0, 0] - circle_flow(x0, h))
                for h in (0.005, 0.0025, 0.00125)
            ]
            for coarse, fine in zip(errors, errors[1:]):
                assert math.log2(coarse / fine) - 1 == pytest.approx(order, abs=0.3)
        jet = _taylor_jet(comp, cs, np.ones(1), morse._TAYLOR_ORDER)
        assert abs(_horner(jet, x, np.array([[0.01]]))[0, 0] - circle_flow(x0, 0.01)) <= 1e-15

    @pytest.mark.parametrize("rows", [1, 4, 72, 150])
    @pytest.mark.parametrize("sense", [1.0, -1.0])
    @pytest.mark.parametrize(
        "f",
        [circle_function(), torus_function(), perturbed_torus(0)],
        ids=["circle", "torus", "p0"],
    )
    def test_jet_has_the_bits_of_the_scalar_twin(self, f, sense, rows):
        # The sums over j add from 0.0, one term after another, as the
        # twin's do, with one term (the circle) or several.  The first rows
        # put a phase's sin at exactly 0 and phases at pi/2 and pi; the twin
        # of sense -1 is the twin of -f.  Flipping an odd order makes a zero
        # x_j -0.0 where the twin of -f has 0.0 (at a critical point), so
        # that sense compares with zeros made positive: adding 0.0 changes
        # no other value.
        x = np.vstack([[0.0, 0.0], [0.25, 0.5], np.random.default_rng(5).random((148, 2))])
        x = x[:rows, : f.dimension]
        comp = _Compiled(f)
        order = morse._TAYLOR_ORDER
        jet = _taylor_jet(comp, comp.trig_batch(x), np.full(rows, sense), order)
        terms = [(k, sense * c, sense * s) for k, c, s in _float_terms(f)]
        twin = np.array([taylor_jet(terms, row, order) for row in x.tolist()])
        if sense < 0:
            jet, twin = jet + 0.0, twin + 0.0
        assert jet.transpose(1, 0, 2).tobytes() == twin.tobytes()

    def test_closed_form_error_scales_with_step_tol(self):
        # The worst error of a circle lane stays below step_tol / 100 and
        # falls at least tenfold for each hundredfold tighter step_tol.
        x0 = 1e-3
        worst = []
        for step_tol in (1e-4, 1e-6, 1e-8, 1e-10):
            analysis = _Analysis(circle_function(), NumericalConfig(step_tol=step_tol))
            (got,) = analysis.land_lanes([[x0]])
            worst.append(max(abs(x[0] - circle_flow(x0, t)) for t, x in got.trajectory))
            assert worst[-1] <= step_tol / 100, (step_tol, worst[-1])
        for coarse, fine in zip(worst, worst[1:]):
            assert fine <= coarse / 10, worst


class TestRefinementInvariance:
    @pytest.mark.parametrize("f", lane_functions(), ids=["torus", "perturbed-a", "perturbed-b"])
    def test_tightened_build_keeps_category_and_signs(self, f):
        cfg = NumericalConfig()
        tight = cfg.with_overrides(
            step_tol=cfg.step_tol / 10,
            sphere_radius=cfg.sphere_radius / 2,
        )
        base = build_flow_category(f, cfg)
        fine = build_flow_category(f, tight)
        assert fine[0].to_json(fine[1]) == base[0].to_json(base[1])

    @pytest.mark.parametrize(
        "f",
        [circle_function(), torus_function()]
        + [perturbed_torus(s) for s in perturbed_torus_seeds(25)]
        + [tilted_upright_torus(Fraction(1, 10)), tilted_upright_torus(Fraction(-1, 10))],
        ids=["circle", "torus"] + [f"perturbed-{s}" for s in range(25)] + ["tilted+", "tilted-"],
    )
    def test_step_tol_1e_12_keeps_category_signs_and_family_ends(self, f):
        # The category's JSON holds its flows with their signs and every
        # family component with its two broken ends.
        base = build_flow_category(f, NumericalConfig(step_tol=1e-8))
        fine = build_flow_category(f, NumericalConfig(step_tol=1e-12))
        assert fine[0].to_json(fine[1]) == base[0].to_json(base[1])


class TestBuildFlowCategory:
    def test_three_torus_not_supported(self):
        with pytest.raises(InputError):
            build_flow_category(three_torus_function())

    def test_reverse_orientation_keeps_homology(self):
        ring = CoefficientRing.integers()
        base = build_flow_category(torus_function())
        rev = build_flow_category(
            torus_function(), NumericalConfig(reverse_orientation=True)
        )
        hs = [
            [str(g) for g in all_homology(floer_complex(c, o).complex, ring)]
            for c, o in (base, rev)
        ]
        assert hs[0] == hs[1] == ["Z", "Z^2", "Z"]

    def test_random_circle_functions_have_circle_homology(self):
        ring = CoefficientRing.integers()
        rng = random.Random(2024)
        built = 0
        attempts = 0
        while built < 12 and attempts < 60:
            attempts += 1
            f = random_circle_function(rng)
            try:
                cat, ori = build_flow_category(f)
            except NotMorseError:
                continue
            groups = all_homology(floer_complex(cat, ori).complex, ring)
            assert [str(g) for g in groups] == ["Z", "Z"]
            built += 1
        assert built == 12

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any),
                st.integers(-20, 20),
                st.integers(-20, 20),
            ),
            min_size=2,
            max_size=4,
        )
    )
    def test_a_random_torus_function_builds_the_torus_or_refuses_typed(self, terms):
        # Every Morse function on T^2 has homology Z, Z^2, Z, so a build
        # that gives anything else, or that fails either validator, is
        # wrong; a refusal must be typed.  The functions are those of the
        # random part of tools/outcome_corpus.py, with 2 to 4 terms.  The
        # swap of the axes is an isometry of the torus and 2f has f's flow
        # at twice the speed, so each gives f's outcome kind.
        try:
            f = TrigPolynomial(
                2, tuple(TrigTerm(k, Fraction(c, 10), Fraction(s, 10)) for k, c, s in terms)
            )
        except MorseflowError:
            return
        doubled = TrigPolynomial(
            2, tuple(TrigTerm(t.frequency, 2 * t.cos_coeff, 2 * t.sin_coeff) for t in f.terms)
        )

        def outcome(g: TrigPolynomial) -> str:
            try:
                cat, ori = build_flow_category(g, NumericalConfig(grid_resolution=48))
            except MorseflowError as exc:
                return type(exc).__name__
            assert validate_morse_smale(cat).passed
            assert check_orientation_coherence(cat, ori).passed
            groups = all_homology(floer_complex(cat, ori).complex, CoefficientRing.integers())
            assert [str(h) for h in groups] == ["Z", "Z^2", "Z"]
            return "built"

        kind = outcome(f)
        assert outcome(pullback(f, [[0, 1], [1, 0]])) == kind
        assert outcome(doubled) == kind


class TestExports:
    def test_csv_format(self):
        flows = flow_lines(circle_function())
        text = trajectory_csv(flows)
        lines = text.strip().splitlines()
        assert lines[0] == "flow,t,x0"
        for row in lines[1:]:
            flow_id, t, x0 = row.split(",")
            assert flow_id in {f.id for f in flows}
            assert float(t) >= 0.0
            assert 0.0 <= float(x0) < 1.0

    def test_svg_parses_and_names_flows(self):
        flows = flow_lines(torus_function())
        svg = trajectories_svg(flows)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        titles = {el.text for el in root.iter() if el.tag.endswith("title")}
        assert {f.id for f in flows} <= titles

    def test_svg_splits_a_polyline_where_it_wraps(self):
        # Flows of this perturbed torus cross the edges of the unit square,
        # so some flow is drawn as more than one polyline, and no step
        # inside a polyline jumps across the square.
        flows = flow_lines(perturbed_torus(0))
        root = ET.fromstring(trajectories_svg(flows))
        lines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(lines) > len(flows)
        for el in lines:
            pts = [tuple(map(float, p.split(","))) for p in el.get("points").split()]
            for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                assert abs(x1 - x0) <= 0.5 and abs(y1 - y0) <= 0.5
