"""Output checks that do not trust the program under test.

Every check here recomputes what it needs from plain Python (and numpy for
the eigenvalues of a finite-difference Hessian): the known homology of the
circle, torus, Klein bottle and projective plane, sign products read off the
category data, boundary matrices recounted from signed flows, Smith forms
multiplied back out, and the JSON framing of CLI reports.  A failed check
raises `CheckError` with a message naming the item.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi

# Known integral homology, degree by degree: (free rank, torsion orders).
CIRCLE = ((1, ()), (1, ()))
TORUS = ((1, ()), (2, ()), (1, ()))
KLEIN = ((1, ()), (1, (2,)), (0, ()))
RP2 = ((1, ()), (0, (2,)), (0, ()))


class CheckError(AssertionError):
    """An output disagreed with an independent computation or property."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def over_ring(integral, ring: str):
    """Homology over `ring` from integral homology, by the universal coefficient theorem.

    Over Q the torsion drops out.  Over Z/p (p prime) degree i has dimension
    b_i + t_i(p) + t_{i-1}(p), where t_i(p) counts torsion orders of degree i
    divisible by p.  The Laurent window replicates the integral answer.
    """
    if ring == "z" or ring.startswith("laurent:"):
        return tuple(integral)
    if ring == "q":
        return tuple((free, ()) for free, _ in integral)
    if ring.startswith("zmod:"):
        p = int(ring.split(":")[1])
        out = []
        for i, (free, tors) in enumerate(integral):
            below = integral[i - 1][1] if i else ()
            dim = free + sum(1 for t in tors if t % p == 0) + sum(
                1 for t in below if t % p == 0
            )
            out.append((dim, ()))
        return tuple(out)
    raise ValueError(f"no known answer for ring {ring!r}")


def check_homology(groups, expected, what: str) -> None:
    """`groups` are (free rank, torsion) pairs, one per degree."""
    got = tuple((int(f), tuple(int(t) for t in tors)) for f, tors in groups)
    require(got == tuple(expected), f"{what}: homology {got}, expected {tuple(expected)}")


# -- critical points ---------------------------------------------------------


class Evaluator:
    """f(x) = sum c cos(2 pi k.x) + s sin(2 pi k.x), evaluated term by term."""

    def __init__(self, terms):
        self.terms = [
            (tuple(float(k) for k in freq), float(Fraction(c)), float(Fraction(s)))
            for freq, c, s in terms
        ]
        self.n = len(self.terms[0][0])

    def value(self, x) -> float:
        total = 0.0
        for k, c, s in self.terms:
            ph = TWO_PI * sum(ki * xi for ki, xi in zip(k, x))
            total += c * math.cos(ph) + s * math.sin(ph)
        return total

    def grad(self, x) -> list[float]:
        g = [0.0] * self.n
        for k, c, s in self.terms:
            ph = TWO_PI * sum(ki * xi for ki, xi in zip(k, x))
            w = TWO_PI * (s * math.cos(ph) - c * math.sin(ph))
            for j in range(self.n):
                g[j] += w * k[j]
        return g

    def fd_hessian(self, x, h: float = 1e-4) -> list[list[float]]:
        """Second derivatives by central differences of `value`."""
        n = self.n

        def at(*shifts):
            y = list(x)
            for j, d in shifts:
                y[j] += d
            return self.value(y)

        hess = [[0.0] * n for _ in range(n)]
        f0 = self.value(x)
        for i in range(n):
            hess[i][i] = (at((i, h)) - 2.0 * f0 + at((i, -h))) / (h * h)
            for j in range(i + 1, n):
                v = (
                    at((i, h), (j, h)) - at((i, h), (j, -h))
                    - at((i, -h), (j, h)) + at((i, -h), (j, -h))
                ) / (4.0 * h * h)
                hess[i][j] = hess[j][i] = v
        return hess


def torus_gap(x, y) -> float:
    return math.sqrt(sum(((a - b + 0.5) % 1.0 - 0.5) ** 2 for a, b in zip(x, y)))


def check_critical_points(terms, points, what: str, analytic=None) -> None:
    """`points` are (position, index) pairs reported by the program.

    Each must have a small gradient under the benchmark's own evaluator and
    the index of its finite-difference Hessian; the signed count must vanish.
    With `analytic` ((position, index) pairs), the sets must match exactly.
    """
    ev = Evaluator(terms)
    require(bool(points), f"{what}: no critical points")
    for pos, index in points:
        g = math.sqrt(sum(v * v for v in ev.grad(pos)))
        require(g < 1e-8, f"{what}: gradient {g:.3g} at {pos}")
        eigs = np.linalg.eigvalsh(np.array(ev.fd_hessian(pos)))
        require(
            min(abs(e) for e in eigs) > 1e-3,
            f"{what}: near-degenerate Hessian {eigs} at {pos}",
        )
        fd_index = int(sum(1 for e in eigs if e < 0))
        require(fd_index == index, f"{what}: index {index} at {pos}, Hessian says {fd_index}")
    signed = sum((-1) ** index for _, index in points)
    require(signed == 0, f"{what}: signed count {signed}")
    if analytic is not None:
        require(
            len(points) == len(analytic),
            f"{what}: {len(points)} critical points, expected {len(analytic)}",
        )
        for want_pos, want_index in analytic:
            hit = [i for p, i in points if torus_gap(p, want_pos) <= 1e-9]
            require(hit == [want_index], f"{what}: no index-{want_index} point at {want_pos}")


def cosine_sum_points(dim: int):
    """Critical points of sum_j cos(2 pi x_j): corners of {0, 1/2}^dim.

    A coordinate at 0 is a maximum direction, so the index counts zeros.
    """
    out = []
    for mask in range(2 ** dim):
        pos = tuple(0.5 if mask >> j & 1 else 0.0 for j in range(dim))
        out.append((pos, sum(1 for v in pos if v == 0.0)))
    return out


# -- flow categories ---------------------------------------------------------


def check_category(cat, signs, n_flows: int, what: str) -> None:
    """Signed count, rigid-flow count and intervals, recomputed from the data.

    For every pair of objects two indices apart, the interval ends must be
    exactly the broken flows formed from the rigid flows, and each
    interval's two sign products must cancel.
    """
    index = dict(cat.index)
    signed = sum((-1) ** index[o] for o in cat.objects)
    require(signed == 0, f"{what}: signed count {signed}")
    require(
        len(cat.rigid_flows) == n_flows,
        f"{what}: {len(cat.rigid_flows)} rigid flows, expected {n_flows}",
    )
    flows = cat.rigid_flows
    families = {(fam.source, fam.target): fam.components for fam in cat.moduli}
    for a in cat.objects:
        for c in cat.objects:
            if index[a] - index[c] != 2:
                continue
            broken = sorted(
                (f.id, g.id)
                for f in flows
                for g in flows
                if f.source == a and f.target == g.source and g.target == c
            )
            comps = families.get((a, c), ())
            used = sorted((br.first, br.second) for comp in comps for br in getattr(comp, "ends", ()))
            require(used == broken, f"{what}: interval ends {used} of {a} > {c} are not its broken flows {broken}")
            for comp in comps:
                products = [signs[br.first] * signs[br.second] for br in getattr(comp, "ends", ())]
                require(sum(products) == 0, f"{what}: interval {comp} has sign products {products}")


def signed_boundaries(cat, signs, bases):
    """Boundary matrices recounted from signed rigid flows, degree by degree."""
    out = []
    for i in range(1, len(bases)):
        rows = []
        for b in bases[i - 1]:
            rows.append(
                [
                    sum(signs[f.id] for f in cat.rigid_flows if f.source == a and f.target == b)
                    for a in bases[i]
                ]
            )
        out.append(rows)
    return out


def check_zero_boundary(cat, signs, bases, boundaries, what: str) -> None:
    """`boundaries` (lists of rows) must equal the recount, and be zero."""
    want = signed_boundaries(cat, signs, bases)
    require(boundaries == want, f"{what}: boundary {boundaries} != recount {want}")
    require(
        all(v == 0 for d in boundaries for row in d for v in row),
        f"{what}: d is nonzero: {boundaries}",
    )


# -- triangulated surfaces and Smith forms -----------------------------------


def triangulated_surface(n: int, klein: bool):
    """Simplicial chain complex of an n x n grid triangulation.

    Vertices (i, j) mod n; every grid square is split along its diagonal.
    For the Klein bottle, crossing the top edge reflects i.  Returns the
    vertex, edge and triangle labels and the two boundary matrices (rows).
    """
    def vertex(i, j):
        if klein and (j // n) % 2:
            i = -i
        return (i % n) * n + (j % n)

    tris = set()
    for i in range(n):
        for j in range(n):
            a, b, c, d = vertex(i, j), vertex(i + 1, j), vertex(i, j + 1), vertex(i + 1, j + 1)
            tris.add(tuple(sorted((a, b, d))))
            tris.add(tuple(sorted((a, c, d))))
    tris = sorted(tris)
    edges = sorted({(t[x], t[y]) for t in tris for x, y in ((0, 1), (0, 2), (1, 2))})
    col = {e: k for k, e in enumerate(edges)}
    d1 = [[0] * len(edges) for _ in range(n * n)]
    for k, (a, b) in enumerate(edges):
        d1[b][k] += 1
        d1[a][k] -= 1
    d2 = [[0] * len(tris) for _ in edges]
    for k, (a, b, c) in enumerate(tris):
        d2[col[(b, c)]][k] += 1
        d2[col[(a, c)]][k] -= 1
        d2[col[(a, b)]][k] += 1
    labels = (
        [f"v{v}" for v in range(n * n)],
        [f"e{a}.{b}" for a, b in edges],
        [f"t{a}.{b}.{c}" for a, b, c in tris],
    )
    return labels, (d1, d2)


def check_euler(labels, what: str) -> None:
    v, e, t = (len(x) for x in labels)
    require(v - e + t == 0, f"{what}: V - E + T = {v} - {e} + {t} != 0")


def matmul(a, b):
    out = []
    for row in a:
        acc = [0] * len(b[0]) if b else []
        for k, x in enumerate(row):
            if x:
                bk = b[k]
                for j, y in enumerate(bk):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def check_smith(a, u, d, v, what: str) -> None:
    """U a V == D with D diagonal, nonnegative, each entry dividing the next."""
    require(matmul(matmul(u, a), v) == d, f"{what}: U A V != D")
    diag = []
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i == j:
                diag.append(x)
            else:
                require(x == 0, f"{what}: D has off-diagonal entry at ({i}, {j})")
    nonzero = [x for x in diag if x]
    require(all(x > 0 for x in nonzero), f"{what}: negative diagonal entry")
    require(diag[: len(nonzero)] == nonzero, f"{what}: zeros before nonzero diagonal entries")
    for x, y in zip(nonzero, nonzero[1:]):
        require(y % x == 0, f"{what}: diagonal {x} does not divide {y}")


def rational_rank(rows) -> int:
    """Rank by fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][c]:
                q = m[r][c] / m[rank][c]
                m[r] = [x - q * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


# -- CLI reports --------------------------------------------------------------


def single_json(stdout: str, what: str) -> dict:
    """The one JSON document on stdout; two documents or trailing text fail."""
    text = stdout.strip()
    try:
        doc, end = json.JSONDecoder().raw_decode(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{what}: stdout is not JSON: {exc}") from None
    require(end == len(text), f"{what}: more than one JSON document on stdout")
    require(isinstance(doc, dict), f"{what}: report is not a JSON object")
    return doc


def report_groups(results: dict):
    return [(h["freeRank"], tuple(h["torsion"])) for h in results["homology"]]
