"""Shared fixtures and independent oracles for the test suite.

The oracles here stay deliberately naive: rank computation by fraction
Gaussian elimination, modular homology by enumerating small modules, a
combinatorial surface triangulation whose boundary matrices are written
down directly, the dense Smith reduction that rewrites whole rows, a
scalar, one-trajectory-at-a-time twin of the package's Taylor steps,
signs read from frames that an independent Dormand–Prince integrator
carries along each rigid flow, a recursive bisection of the
departure circle that classifies one midpoint at a time by a lane that runs
until it lands, and a probe that follows one trajectory past a family's
broken end to see which way it leaves the saddle, and the critical-point
search that runs Newton from every grid seed with no exclusion or
certificate.  The library is then required to agree with them.
"""

from __future__ import annotations

import copy
import math
import random
from fractions import Fraction
from itertools import compress, islice
from math import gcd

import numpy as np
import pytest

from morseflow import (
    ChainComplexData,
    CriticalPoint,
    FilteredRealization,
    IntegerMatrix,
    TrigPolynomial,
    TrigTerm,
)
from morseflow.errors import IntegrationFailureError, MorseSmaleViolationError
from morseflow.morse import (
    _DEDUPE_RADIUS,
    _GRAD_TOL,
    _NEWTON_MAX_ITER,
    _NEWTON_TOL,
    _Compiled,
    _dedupe,
)

TWO_PI = 2.0 * math.pi


# -- simplicial torus oracle ------------------------------------------------


def seven_vertex_torus() -> ChainComplexData:
    """The 7-vertex triangulated torus as a simplicial chain complex.

    Triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7; the edge set is the
    complete graph on 7 vertices.  Closed surface, Euler characteristic 0.
    """
    tris = []
    for i in range(7):
        tris.append(tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))))
        tris.append(tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))))
    tris = sorted(tris)
    edges = sorted({(a, b) for t in tris for a in t for b in t if a < b})
    assert len(tris) == 14 and len(edges) == 21
    e_ix = {e: k for k, e in enumerate(edges)}
    d1 = [[0] * len(edges) for _ in range(7)]
    for k, (a, b) in enumerate(edges):
        d1[b][k] += 1
        d1[a][k] -= 1
    d2 = [[0] * len(tris) for _ in range(len(edges))]
    for k, (a, b, c) in enumerate(tris):
        d2[e_ix[(b, c)]][k] += 1
        d2[e_ix[(a, c)]][k] -= 1
        d2[e_ix[(a, b)]][k] += 1
    return ChainComplexData(
        (
            tuple(f"v{i}" for i in range(7)),
            tuple(f"e{a}.{b}" for a, b in edges),
            tuple("t" + "".join(map(str, t)) for t in tris),
        ),
        (IntegerMatrix(d1), IntegerMatrix(d2)),
    )


@pytest.fixture(scope="session")
def torus_triangulation() -> ChainComplexData:
    return seven_vertex_torus()


# -- rank oracle over the rationals -----------------------------------------


def rational_rank(a: IntegerMatrix) -> int:
    """Row rank by plain fraction Gaussian elimination."""
    rows = [[Fraction(v) for v in row] for row in a.to_rows()]
    rank = 0
    col = 0
    n_rows, n_cols = a.shape
    while rank < n_rows and col < n_cols:
        piv = next((r for r in range(rank, n_rows) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, n_rows):
            if rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


# -- dense Smith-form oracle --------------------------------------------------


def _dense_select_pivot(d, t, m, n):
    """Smallest nonzero |entry| in the trailing submatrix, lowest (row, col) on ties."""
    best = None
    best_abs = None
    for i in range(t, m):
        di = d[i]
        for j in compress(range(t, n), islice(di, t, None)):
            v = di[j]
            a = -v if v < 0 else v
            if a == 1:
                return (i, j)
            if best_abs is None or a < best_abs:
                best_abs = a
                best = (i, j)
    return best


def dense_smith_reduce(d, u, v) -> None:
    """The Smith loop with whole-row updates: rows of `u`, rows of `v`.

    Same pivot rule and order of operations as `smith_normal_form`, but
    every row operation rewrites the whole row, every column operation and
    swap walks every row, and the remainder check rescans the pivot's row
    and column.
    """
    m = len(d)
    n = len(d[0]) if d else 0
    t = 0
    limit = min(m, n)
    while t < limit:
        piv = _dense_select_pivot(d, t, m, n)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            if u is not None:
                u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in d:
                row[t], row[pj] = row[pj], row[t]
            if v is not None:
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
        pivot = d[t][t]
        for i in range(t + 1, m):
            q = d[i][t] // pivot
            if q:
                d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                if u is not None:
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
        d_live = [row for row in d if row[t]]
        v_live = [row for row in v if row[t]] if v is not None else []
        for j in range(t + 1, n):
            q = d[t][j] // pivot
            if q:
                for row in d_live:
                    row[j] -= q * row[t]
                for row in v_live:
                    row[j] -= q * row[t]
        if any(d[i][t] for i in range(t + 1, m)) or any(
            d[t][j] for j in range(t + 1, n)
        ):
            continue
        witness = None
        if pivot not in (1, -1):
            for i in range(t + 1, m):
                if any(x % pivot for x in islice(d[i], t + 1, None)):
                    witness = i
                    break
        if witness is not None:
            d[t] = [x + y for x, y in zip(d[t], d[witness])]
            if u is not None:
                u[t] = [x + y for x, y in zip(u[t], u[witness])]
            continue
        t += 1
    for i in range(limit):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            if u is not None:
                u[i] = [-x for x in u[i]]


def dense_smith_normal_form(a: IntegerMatrix):
    """(U, D, V) of `a` from `dense_smith_reduce`, as row lists."""
    m, n = a.shape
    d = a.to_rows()
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    dense_smith_reduce(d, u, v)
    return u, d, v


# -- modular homology oracle by enumeration ---------------------------------


def _mod_image(a: IntegerMatrix, m: int) -> frozenset:
    n_rows, n_cols = a.shape
    out = set()

    def rec(j, acc):
        if j == n_cols:
            out.add(tuple(v % m for v in acc))
            return
        col = a.column(j)
        for c in range(m):
            rec(j + 1, [v + c * w for v, w in zip(acc, col)])

    rec(0, [0] * n_rows)
    return frozenset(out)


def _mod_kernel(a: IntegerMatrix, m: int) -> list[tuple]:
    n_rows, n_cols = a.shape
    ker = []

    def rec(j, vec):
        if j == n_cols:
            image = [0] * n_rows
            for k, c in enumerate(vec):
                if c:
                    col = a.column(k)
                    image = [v + c * w for v, w in zip(image, col)]
            if all(v % m == 0 for v in image):
                ker.append(tuple(vec))
            return
        for c in range(m):
            rec(j + 1, vec + [c])

    rec(0, [])
    return ker


def brute_mod_order_profile(d_in: IntegerMatrix, d_out: IntegerMatrix, m: int):
    """Multiset of element orders of ker(d_out)/im(d_in) over Z/m, by enumeration."""
    ker = _mod_kernel(d_out, m)
    im = _mod_image(d_in, m)
    seen_cosets = set()
    profile: dict[int, int] = {}
    for g in ker:
        coset = tuple(sorted(tuple((a + b) % m for a, b in zip(g, h)) for h in im))
        if coset in seen_cosets:
            continue
        seen_cosets.add(coset)
        order = next(
            k
            for k in range(1, m + 1)
            if tuple((k * v) % m for v in g) in im
        )
        profile[order] = profile.get(order, 0) + 1
    return profile


def claimed_order_profile(cyclic_orders: list[int]):
    """Element-order multiset of a direct sum of cyclic groups Z/c."""
    orders = [c for c in cyclic_orders if c > 1]
    profile: dict[int, int] = {}

    def rec(i, cur_lcm):
        if i == len(orders):
            profile[cur_lcm] = profile.get(cur_lcm, 0) + 1
            return
        for x in range(orders[i]):
            o = orders[i] // gcd(x, orders[i])
            rec(i + 1, cur_lcm * o // gcd(cur_lcm, o))

    rec(0, 1)
    return profile


# -- random valid filtered complexes ----------------------------------------


def random_filtered_complex(rng: random.Random):
    """A chain complex plus level-skipping components with square-zero total.

    Generators at every level are split into sources and targets; every
    component only maps source columns into target rows, so any two-step
    composite vanishes identically while individual components, including
    the level-skipping ones, stay genuinely nonzero.
    """
    top = rng.randint(2, 4)
    ranks = [rng.randint(1, 5) for _ in range(top + 1)]
    bases = tuple(
        tuple(f"g{i}.{k}" for k in range(ranks[i])) for i in range(top + 1)
    )
    roles = [
        [rng.random() < 0.5 for _ in range(ranks[i])] for i in range(top + 1)
    ]  # True = may receive (target row), False = may emit (source column)

    def component(p, q):
        rows = []
        for i in range(ranks[q]):
            row = []
            for j in range(ranks[p]):
                if roles[q][i] and not roles[p][j]:
                    row.append(rng.randint(-3, 3))
                else:
                    row.append(0)
            rows.append(row)
        return IntegerMatrix(rows, cols=ranks[p])

    boundaries = tuple(component(i, i - 1) for i in range(1, top + 1))
    higher = {}
    for p in range(2, top + 1):
        for q in range(p - 1):
            mat = component(p, q)
            if not mat.is_zero():
                higher[(p, q)] = mat
    cx = ChainComplexData(bases, boundaries)
    return cx, higher


def tampered_copy(x: FilteredRealization, rng: random.Random) -> FilteredRealization:
    """Perturb one random entry of one adjacent component."""
    p = rng.randint(1, x.complex.top_degree)
    mat = x.component(p, p - 1)
    rows = mat.to_rows()
    i = rng.randrange(len(rows))
    j = rng.randrange(len(rows[0]))
    rows[i][j] += rng.choice((1, -1))
    comps = dict(x.components)
    comps[(p, p - 1)] = IntegerMatrix(rows, cols=mat.shape[1])
    return FilteredRealization(x.complex, x.ring, comps)


# -- all-seeds critical point oracle ----------------------------------------


def all_seeds_critical_points(f, cfg) -> list[CriticalPoint]:
    """Critical points by damped Newton iteration from every point of the seed grid.

    The search as it was before the exclusion pass and the certificate:
    no seed is skipped, and nothing but the nondegeneracy check and the
    Euler count stands behind the list, which this oracle asserts.
    """
    comp = _Compiled(f)
    n = f.dimension
    res = cfg.grid_resolution
    axes = [np.arange(res) / res] * n
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    active = np.ones(len(x), dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        g = comp.grad_batch(x)
        gnorm = np.linalg.norm(g, axis=1)
        work = active & (gnorm > _NEWTON_TOL)
        if not work.any():
            break
        h = comp.hess_batch(x[work])
        ok = np.abs(np.linalg.det(h)) > 1e-300
        idx = np.flatnonzero(work)
        active[idx[~ok]] = False
        if not ok.any():
            break
        step = np.linalg.solve(h[ok], g[work][ok][..., None])[..., 0]
        norms = np.linalg.norm(step, axis=1)
        big = norms > 0.25
        if big.any():
            step[big] *= (0.25 / norms[big])[:, None]
        x[idx[ok]] -= step
        x[idx[ok]] %= 1.0
    gnorm = np.linalg.norm(comp.grad_batch(x), axis=1)
    keep = active & (gnorm <= _GRAD_TOL)
    pts, gnorms = np.mod(x[keep], 1.0), gnorm[keep]
    order = np.lexsort((gnorms, *pts.T[::-1]))
    pts, gnorms = pts[order], gnorms[order]
    xs = pts[_dedupe(pts, gnorms, _DEDUPE_RADIUS)]
    eigs = np.linalg.eigvalsh(comp.hess_batch(xs))
    values = comp.value_batch(xs)
    found = [
        (pt, value, int(np.sum(e < 0.0)), tuple(e.tolist()))
        for pt, value, e in zip(map(tuple, xs.tolist()), values.tolist(), eigs)
    ]
    assert sum((-1) ** index for _, _, index, _ in found) == 0
    found.sort(key=lambda e: (-e[2], tuple(round(v, 9) for v in e[0])))
    counters: dict[int, int] = {}
    out = []
    for pt, value, index, e in found:
        k = counters.get(index, 0)
        counters[index] = k + 1
        out.append(CriticalPoint(f"p{index}.{k}", pt, value, index, e))
    return out


# -- scalar flow oracle -----------------------------------------------------


def _float_terms(f):
    return [
        (tuple(float(k) for k in t.frequency), float(t.cos_coeff), float(t.sin_coeff))
        for t in f.terms
    ]


def _phase(freq, x):
    ph = 0.0
    for k, xj in zip(freq, x):
        ph += k * xj
    return ph * TWO_PI


def _value(terms, x) -> float:
    total = 0.0
    for freq, c, s in terms:
        ph = _phase(freq, x)
        total += c * math.cos(ph) + s * math.sin(ph)
    return total


def _neg_grad(terms, x) -> list[float]:
    g = [0.0] * len(x)
    for freq, c, s in terms:
        ph = _phase(freq, x)
        w = TWO_PI * (c * math.sin(ph) - s * math.cos(ph))
        for j in range(len(x)):
            g[j] += w * freq[j]
    return g


# The order of the package's Taylor steps.
TAYLOR_ORDER = 20


def _landing(points, cfg, y, radii=()):
    """Where y stops, with its lattice offset, or None.

    The first critical point within `landing_radius` of y; else the first
    point i within radii[i] of y, where `radii` is given.
    """
    near = []
    for cp in points:
        d = [yi - pi for yi, pi in zip(y, cp.position)]
        off = tuple(round(di) for di in d)
        dist = math.sqrt(sum((di - oi) * (di - oi) for di, oi in zip(d, off)))
        if dist <= cfg.landing_radius:
            return cp, off
        near.append((dist, cp, off))
    for (dist, cp, off), r in zip(near, radii):
        if dist <= r:
            return cp, off
    return None


def _jet_tables(terms):
    """The jet's coefficients, from the exact terms: P[k][t][j] and Q[k][t][u] = P[k][t] . 2 pi k_u.

    k = 0 takes cos theta_t and k = 1 sin theta_t: -grad f = sum_t
    2 pi k_t (c_t sin - s_t cos).
    """
    waves = [[TWO_PI * k for k in freq] for freq, _, _ in terms]
    p = [
        [[-s * w for w in wave] for (_, _, s), wave in zip(terms, waves)],
        [[c * w for w in wave] for (_, c, _), wave in zip(terms, waves)],
    ]
    q = [
        [[sum_in_order(u * v for u, v in zip(row, wave)) for wave in waves] for row in pk]
        for pk in p
    ]
    return p, q


def taylor_jet(terms, x, order):
    """Taylor coefficients x_1 .. x_order of x' = -grad f at x, one order at a time.

    With C_t = cos 2 pi k_t.x and S_t = sin 2 pi k_t.x, and D_j = j theta_j
    for the phases theta_t:
    (n+1) x_{n+1} = sum_t 2 pi k_t (c_t S_{t,n} - s_t C_{t,n}), D_{n+1} =
    2 pi k_t . (n+1) x_{n+1}, (n+1) C_{n+1} = -sum_j D_j S_{n+1-j} and
    (n+1) S_{n+1} = sum_j D_j C_{n+1-j}, each sum added from its first
    term on: over the cos terms and then the sin terms, and over j from 1.
    """
    p, q = _jet_tables(terms)
    nt = len(terms)

    def contract(ek, table, u):
        return sum_in_order(ek[k][t] * table[k][t][u] for k in (0, 1) for t in range(nt))

    phases = [_phase(freq, x) for freq, _, _ in terms]
    e = [[[math.cos(ph) for ph in phases], [math.sin(ph) for ph in phases]]]
    d = [None]
    for n in range(order - 1):
        d.append([contract(e[n], q, u) for u in range(nt)])
        acc = [
            [sum_in_order(d[j][t] * e[n + 1 - j][k][t] for j in range(1, n + 2)) for t in range(nt)]
            for k in (0, 1)
        ]
        e.append([[a / -(n + 1.0) for a in acc[1]], [a / (n + 1.0) for a in acc[0]]])
    jet = []
    for j in range(1, order + 1):
        v = [contract(e[j - 1], p, i) for i in range(len(x))]
        jet.append([vi / j for vi in v])
    return jet


def sum_in_order(values) -> float:
    """values[0] + values[1] + ..., added left to right."""
    acc = 0.0
    for v in values:
        acc += v
    return acc


def scalar_flow(f, cfg, points, x0, tol=None, radii=()):
    """Follow the negative gradient of f from x0, one point at a time.

    The package's Taylor steps in plain Python floats, each order added up
    one term at a time (`taylor_jet`, order `TAYLOR_ORDER`): a step's size
    is min((tol/|x_{p-1}|)^(1/(p-1)), (tol/|x_p|)^(1/p)), tol =
    step_tol/1500 unless given (a recorded lane's; a trapping lane's is
    step_tol/15) and |.| the largest coordinate, at most `step_max`, or at
    most half a step after which f failed to drop, and never below
    `step_min`; the powers are numpy's, as in the package, since on some
    CPUs numpy's power differs from the C library's in the last bit.  A
    step is evaluated by Horner's rule and taken only if f, summed over the
    cos terms and then the sin terms, drops.  Checks flow time, landing and
    step budget before each step.  A point lands within `landing_radius`
    of a critical point, or else within radii[i] of point i: the package's
    stopping balls, `trap_radius` for a forward lane and `back_radius`
    (with -f as f) for a backward one; with no `radii` it runs on to
    `landing_radius`.  Returns (rest point, lattice offset, trajectory) or
    raises the IntegrationFailureError of the package.
    """
    terms = _float_terms(f)
    tol = cfg.step_tol / 1500.0 if tol is None else tol
    order = TAYLOR_ORDER

    def value(y):
        phases = [_phase(freq, y) for freq, _, _ in terms]
        cosines = sum_in_order(c * math.cos(ph) for (_, c, _), ph in zip(terms, phases))
        sines = sum_in_order(s * math.sin(ph) for (_, _, s), ph in zip(terms, phases))
        return cosines + sines

    def power(a, b):
        return float(np.power(np.array([a]), b)[0])

    x = list(x0)
    t = 0.0
    cap = cfg.step_max
    fx = value(x)
    traj = [(0.0, tuple(x))]
    steps = 0
    while True:
        if t > cfg.max_flow_time:
            raise IntegrationFailureError(
                f"no rest point reached within flow time {cfg.max_flow_time}"
            )
        hit = _landing(points, cfg, x, radii)
        if hit is not None:
            return hit[0], hit[1], tuple(traj)
        steps += 1
        if steps > cfg.max_steps:
            raise IntegrationFailureError("step budget exhausted")
        while True:
            jet = taylor_jet(terms, x, order)
            last = [max(abs(c) for c in jet[-2]), max(abs(c) for c in jet[-1])]
            rule = min(
                math.inf if last[0] == 0.0 else power(tol / last[0], 1.0 / (order - 1)),
                math.inf if last[1] == 0.0 else power(tol / last[1], 1.0 / order),
            )
            h = max(min(cap, rule), cfg.step_min)
            xn = list(jet[-1])
            for c in jet[-2::-1]:
                xn = [yi * h + ci for yi, ci in zip(xn, c)]
            xn = [yi * h + xi for yi, xi in zip(xn, x)]
            fn = value(xn)
            if fn < fx:
                break
            if h <= cfg.step_min:
                raise IntegrationFailureError(
                    "function value failed to decrease at the minimal step"
                )
            cap = 0.5 * h
        x, fx, t, cap = xn, fn, t + h, cfg.step_max
        traj.append((t, tuple(x)))


# The Dormand–Prince 5(4) tableau, written out again from the rationals.
DP_A = (
    (),
    (Fraction(1, 5),),
    (Fraction(3, 40), Fraction(9, 40)),
    (Fraction(44, 45), Fraction(-56, 15), Fraction(32, 9)),
    (Fraction(19372, 6561), Fraction(-25360, 2187), Fraction(64448, 6561), Fraction(-212, 729)),
    (
        Fraction(9017, 3168),
        Fraction(-355, 33),
        Fraction(46732, 5247),
        Fraction(49, 176),
        Fraction(-5103, 18656),
    ),
)
DP_B = (
    Fraction(35, 384),
    Fraction(0),
    Fraction(500, 1113),
    Fraction(125, 192),
    Fraction(-2187, 6784),
    Fraction(11, 84),
)
DP_B4 = (
    Fraction(5179, 57600),
    Fraction(0),
    Fraction(7571, 16695),
    Fraction(393, 640),
    Fraction(-92097, 339200),
    Fraction(187, 2100),
    Fraction(1, 40),
)
_A = [[float(a) for a in row] for row in DP_A]
_B = [float(b) for b in DP_B]
_E = [float(b - b4) for b, b4 in zip(DP_B + (Fraction(0),), DP_B4)]
# The first step of `dp5_flow`, that of the package's retired Dormand–Prince lanes.
DP5_FIRST_STEP = 1e-2


def _combine(coeffs, ks):
    """sum_j coeffs[j] * ks[j], added in the order of j."""
    acc = coeffs[0] * ks[0]
    for c, k in zip(coeffs[1:], ks[1:]):
        acc = acc + c * k
    return acc


def _advance_frame(hess, v, stages, h):
    """One DP5(4) step of v' = -Hess(x) v, then QR with R's diagonal positive.

    `stages` are the points of stages 1-6 of the position's step, so the
    frame follows the same discrete path; stage 7 has no weight.
    """
    jac = [-m for m in hess(np.array(stages))]
    ks = [jac[0] @ v]
    for s in range(1, 6):
        ks.append(jac[s] @ (v + h * _combine(_A[s], ks)))
    v = v + h * _combine(_B, ks)
    q, r = np.linalg.qr(v)
    diag = np.diagonal(r)
    if np.any(diag == 0.0):
        raise IntegrationFailureError("transported frame collapsed")
    return q * np.sign(diag)


def dp5_flow(f, cfg, points, x0, frame=None):
    """Follow the negative gradient of f from x0 with Dormand–Prince 5(4), carrying a frame.

    An integrator independent of the package's, for the sign oracles,
    which compare signs and not bits: in plain Python floats, a step is
    retried while the error estimate exceeds step_tol/15 (shrunk by
    max(0.2, min(1, 0.9 (tol/err)^(1/5)))) or the value fails to drop
    (halved), never below `step_min`, and after an accepted step h becomes
    h * min(5, max(0.2, 0.9 (tol/err)^(1/5))), at most `step_max`, from a
    first step of `DP5_FIRST_STEP`.  Checks flow time, landing and step
    budget before each step.  A `frame` of tangent vectors at x0 is carried
    along by the linearised flow, one step at a time; the Hessians come from
    the package.  Returns (rest point, lattice offset, trajectory, frame) or
    raises an IntegrationFailureError.
    """
    terms = _float_terms(f)
    hess = _Compiled(f).hess_batch
    n = len(x0)
    tol = cfg.step_tol / 15.0

    def g(y):
        return _neg_grad(terms, y)

    def factor(err):
        ratio = math.inf if err == 0.0 else tol / err
        return 0.9 * float(np.power(np.array([ratio]), 0.2)[0])

    x = list(x0)
    t = 0.0
    h = DP5_FIRST_STEP
    fx = _value(terms, x)
    k1 = g(x)
    traj = [(0.0, tuple(x))]
    steps = 0
    while t <= cfg.max_flow_time:
        hit = _landing(points, cfg, x)
        if hit is not None:
            return hit[0], hit[1], tuple(traj), frame
        steps += 1
        if steps > cfg.max_steps:
            raise IntegrationFailureError("step budget exhausted")
        while True:
            ks = [k1]
            stages = [x]
            for s in range(1, 6):
                stages.append([x[j] + h * _combine(_A[s], [k[j] for k in ks]) for j in range(n)])
                ks.append(g(stages[-1]))
            xn = [x[j] + h * _combine(_B, [k[j] for k in ks]) for j in range(n)]
            fn = _value(terms, xn)
            ks.append(g(xn))
            err = max(abs(h * _combine(_E, [k[j] for k in ks])) for j in range(n))
            fac = factor(err)
            if err > tol and h > cfg.step_min:
                h = max(h * max(0.2, min(1.0, fac)), cfg.step_min)
                continue
            if fn >= fx:
                if h > cfg.step_min:
                    h = max(0.5 * h, cfg.step_min)
                    continue
                raise IntegrationFailureError(
                    "function value failed to decrease at the minimal step"
                )
            break
        if frame is not None:
            frame = _advance_frame(hess, frame, stages, h)
        x = xn
        fx = fn
        k1 = ks[6]
        t += h
        traj.append((t, tuple(x)))
        h = max(min(h * min(5.0, max(0.2, fac)), cfg.step_max), cfg.step_min)
    raise IntegrationFailureError(
        f"no rest point reached within flow time {cfg.max_flow_time}"
    )


# -- carried-frame sign oracle ----------------------------------------------


def _frame_sign(basis, frame) -> int:
    """Sign of the determinant of `frame` in `basis`, by least squares if `basis` is not square."""
    det = np.linalg.det(np.linalg.lstsq(basis, frame, rcond=None)[0])
    return 1 if det > 0 else -1


def forward_sign(analysis, a, seed):
    """(rest point, offset, sign) of the flow out of `a` from `seed`, by a carried frame.

    The unstable frame of `a` is carried along the flow by `dp5_flow`
    and compared, at the rest point b, with the arrival basis (velocity,
    unstable frame of b).
    """
    f = analysis.f
    b, offset, traj, carried = dp5_flow(
        f, analysis.cfg, analysis.points, seed, analysis.frames[a.id]
    )
    arrival = np.array(_neg_grad(_float_terms(f), traj[-1][1]))
    basis = np.column_stack([arrival / np.linalg.norm(arrival), analysis.frames[b.id]])
    return b, offset, _frame_sign(basis, carried)


def backward_sign(analysis, s, side):
    """(index-2 point a, offset, sign) of the flow a -> s along s's stable separatrix.

    The separatrix leaves s along side * w_s backward in time, the flow of
    -f, carrying the frame (velocity, w_u) of the seed, w_u the unstable
    direction of s; the carried frame is compared at a with a's unstable
    frame.  The offset is that of a -> s, the backward landing's negated.
    """
    f = analysis.f
    seed = analysis.seed(s, side * analysis.stable_frames[s.id][:, 0])
    u = np.array(_neg_grad(_float_terms(f), seed))
    frame = np.column_stack([u / np.linalg.norm(u), analysis.frames[s.id][:, 0]])
    minus_f = TrigPolynomial(
        f.dimension, tuple(TrigTerm(t.frequency, -t.cos_coeff, -t.sin_coeff) for t in f.terms)
    )
    a, offset, _, carried = dp5_flow(minus_f, analysis.cfg, analysis.points, seed, frame)
    return a, tuple(-o for o in offset), _frame_sign(analysis.frames[a.id], carried)


# -- departure-circle bisection oracle --------------------------------------

# The oracle's bracket width below which a basin boundary did not resolve.
BISECTION_TOL = 1e-10


def running_on(analysis):
    """A copy of `analysis` with no stopping balls, whose lanes run on to `landing_radius`."""
    out = copy.copy(analysis)
    out.trap_radius = np.full_like(analysis.trap_radius, -np.inf)
    out.back_radius = np.full_like(analysis.back_radius, -np.inf)
    return out


def full_landing_classes(analysis, a, thetas):
    """Landing class of each departure angle of index-2 point `a`, by full landing.

    Entries take the shape of `_classify_angles`'s: (point id, offset) or
    the error.  Every lane runs
    until it is within `landing_radius` of its rest point, with no trapping
    region (`running_on`), so these classes do not depend on the
    certificate that lets the package's lanes stop early.
    """
    seeds = [analysis.seed(a, analysis.direction_at(a, th)) for th in thetas]
    out = []
    for got in running_on(analysis).land_lanes(seeds):
        if isinstance(got, Exception):
            out.append(got)
        elif got.point.index >= a.index:
            out.append(
                MorseSmaleViolationError(
                    f"trajectory from {a.id} reached {got.point.id} of index "
                    f"{got.point.index} >= {a.index}"
                )
            )
        else:
            out.append((got.point.id, got.offset))
    return out


def bisect_one_at_a_time(analysis, a, visited=None, samples=64):
    """Basin boundaries on the departure circle of index-2 point `a`, naively.

    The `samples` angles k 2 pi / `samples` form one batch; a sample that
    rests at a saddle is a boundary, and every pair of neighbouring samples
    that rest in different sink classes is bisected depth first, lower half
    first, with one lane per midpoint.  Every class comes from
    `full_landing_classes`.  Each visited bracket (lo, hi) is appended to
    `visited`.  Returns (angle, saddle) pairs in the order met, or raises
    the first error met.
    """
    visited = [] if visited is None else visited

    def ok(got):
        if isinstance(got, Exception):
            raise got
        return got

    def index(cls):
        return analysis.by_id[cls[0]].index

    def bisect(lo, lo_cls, hi, hi_cls):
        if hi - lo <= BISECTION_TOL:
            raise MorseSmaleViolationError(
                "basin boundary did not resolve to an intermediate rest point "
                f"near angle {0.5 * (lo + hi):.12f}"
            )
        mid = 0.5 * (lo + hi)
        visited.append((lo, hi))
        (got,) = full_landing_classes(analysis, a, [mid])
        cls = ok(got)
        if index(cls) == 1:
            return [(mid % TWO_PI, analysis.by_id[cls[0]])]
        if cls == lo_cls:
            return bisect(mid, cls, hi, hi_cls)
        if cls == hi_cls:
            return bisect(lo, lo_cls, mid, cls)
        return bisect(lo, lo_cls, mid, cls) + bisect(mid, cls, hi, hi_cls)

    n = samples
    step = TWO_PI / n
    thetas = [k * step for k in range(n)]
    classes = [ok(got) for got in full_landing_classes(analysis, a, thetas)]
    found = [(th, analysis.by_id[cls[0]]) for th, cls in zip(thetas, classes) if index(cls) == 1]
    for k in range(n):
        cls0, cls1 = classes[k], classes[(k + 1) % n]
        if index(cls0) == index(cls1) == 0 and cls0 != cls1:
            found += bisect(thetas[k], cls0, thetas[k] + step, cls1)
    return found


# -- family-end probe oracle ----------------------------------------------------


def probe_exit(analysis, a, sink, saddle, theta, width, offset=1e-3):
    """Direction in which a family leaves `saddle` next to the boundary at `theta`.

    The family's arc of the departure circle of index-2 point `a` runs from
    `theta` over the signed angle `width`, and its flows rest at `sink`.  A
    probe departs at theta + eta toward the arc, eta = min(offset,
    |width|/4).  That close it can rest at the saddle itself, so a probe
    that misses the sink backs off to 2 eta, 4 eta, ... while eta stays
    within |width|/4.  The direction is that of the nearest lift, from the
    saddle, of the first recorded sample after the trajectory's closest
    approach to the saddle that lies min(0.1, 0.4 * minimal separation)
    away, or of the last sample.  Raises AssertionError if no probe
    reaches the sink.
    """
    exit_radius = min(0.1, 0.4 * analysis.min_separation)
    eta = min(offset, 0.25 * abs(width))
    while eta <= 0.25 * abs(width) + 1e-15:
        th = theta + math.copysign(eta, width)
        (got,) = analysis.land_lanes([analysis.seed(a, analysis.direction_at(a, th))])
        if not isinstance(got, Exception) and got.point.id == sink.id:
            d = np.array([x for _, x in got.trajectory]) - np.array(saddle.position)
            res = d - np.round(d)
            dists = np.sqrt((res * res).sum(axis=1))
            near = int(dists.argmin())
            out = np.flatnonzero(dists[near:] >= exit_radius)
            i = near + int(out[0]) if len(out) else -1
            if dists[i] > 0.0:
                return res[i] / dists[i]
        eta *= 2.0
    raise AssertionError(f"no probe from {a.id} near angle {theta!r} rests at {sink.id}")


# -- acceptance reporting ---------------------------------------------------

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, passed: bool, detail: str) -> None:
    """Store and echo one verdict line for the acceptance summary."""
    line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
