"""Exact integer linear algebra, coefficient rings, and chain homology.

Everything here runs on arbitrary-precision Python integers.  A
deterministic pivot rule (smallest nonzero absolute value, ties broken by
lowest row then column) governs `smith_normal_form`, the one Smith loop,
so repeated runs produce identical transforms.  It keeps D and U as rows
and V as columns, and each update touches only the nonzero entries of the
pivot's row and the rows nonzero in the pivot's column, which suits
boundary matrices with a few nonzeros a row.  `invariant_factors` first
eliminates unit pivots sparsely, in one sweep over the rows or the
columns, whichever are more, taken shortest first, each pivoting on its
unit with the shortest crossing line to limit fill-in; then it takes the
Smith form of the dense remainder.  Invariant factors are unique, so this
gives the same diagonal as the Smith form of the whole matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import compress, islice
from operator import itemgetter, not_
from typing import Iterable, Sequence

from .errors import CompositeNonzeroError, DimensionMismatchError, InputError


def _support(row: list[int]) -> list[int]:
    """Column indices of the nonzero entries of a row."""
    return list(compress(range(len(row)), row))


def _identity_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _size(value, what: str) -> int:
    """A row or column count, which must not be negative."""
    if value < 0:
        raise InputError(f"{what} {value} is negative")
    return value


def _json_integer(value, what: str) -> int:
    """An integer read from JSON; `int()` alone would truncate 1.5 and accept "3"."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise InputError(f"{what} {value!r} is not an integer")


def _parse_rational(value) -> Fraction:
    """An exact rational read as JSON gives one: an int, a float, a string such as "1/3", or a Fraction.

    Anything else raises InputError.
    """
    if isinstance(value, bool):
        raise InputError("boolean is not a coefficient")
    if not isinstance(value, (int, str, float, Fraction)):
        raise InputError(f"bad rational {value!r}")
    try:
        q = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {value!r}: {exc}") from None
    return q


class IntegerMatrix:
    """Dense row-major matrix over the integers."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Sequence[Sequence[int]], cols: int | None = None):
        # Rows of plain ints, the usual case, skip the per-entry check.
        e = [
            r if set(map(type, r)) <= {int} else [_json_integer(v, "matrix entry") for v in r]
            for r in map(list, entries)
        ]
        self.rows = len(e)
        if e:
            width = len(e[0])
            if any(len(row) != width for row in e):
                raise InputError("ragged matrix rows")
            if cols is not None and cols != width:
                raise InputError("explicit column count disagrees with row width")
            self.cols = width
        else:
            self.cols = 0 if cols is None else _size(_json_integer(cols, "column count"), "column count")
        self._e = e

    @classmethod
    def _of(cls, e: list[list[int]], cols: int) -> "IntegerMatrix":
        """A matrix on rows of Python ints built here: no per-entry `int()`."""
        m = cls.__new__(cls)
        m._e, m.rows, m.cols = e, len(e), cols
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        _size(rows, "row count")
        _size(cols, "column count")
        return cls._of([[0] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls._of(_identity_rows(_size(n, "size")), n)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._e[i][j]

    def to_rows(self) -> list[list[int]]:
        return [row[:] for row in self._e]

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self._e]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(map(any, self._e))

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix._of(
            [[self._e[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.rows,
        )

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        nonzero = [[(j, row[j]) for j in _support(row)] for row in other._e]
        out = []
        for row in self._e:
            acc = [0] * other.cols
            for k in _support(row):
                a = row[k]
                for j, b in nonzero[k]:
                    acc[j] += a * b
            out.append(acc)
        return IntegerMatrix._of(out, other.cols)

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.shape != other.shape:
            raise DimensionMismatchError("shape mismatch in addition")
        return IntegerMatrix._of(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._e, other._e)],
            self.cols,
        )

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix._of([[-v for v in row] for row in self._e], self.cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self.shape == other.shape and self._e == other._e

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self._e)))

    def __repr__(self) -> str:
        return f"IntegerMatrix({self._e!r})" if self.rows else f"IntegerMatrix([], cols={self.cols})"

    def determinant(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise DimensionMismatchError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def to_json(self) -> list[list[int]]:
        return self.to_rows()


def _select_pivot(
    d: list[list[int]], zero: list[bool], t: int, m: int, n: int
) -> tuple[int, int] | None:
    """Smallest nonzero |entry| in the trailing submatrix, lowest (row, col) on ties.

    Rows from t on are zero left of column t, and a zero row stays zero for
    the rest of the reduction, so a row found zero is marked in `zero` and
    not searched again.
    """
    best = None
    best_abs = None
    for i in compress(range(t, m), map(not_, islice(zero, t, None))):
        di = d[i]
        if not any(di):
            zero[i] = True
            continue
        for j in compress(range(t, n), islice(di, t, None)):
            v = di[j]
            a = -v if v < 0 else v
            if a == 1:
                return (i, j)  # nothing is smaller, and later ties lose
            if best_abs is None or a < best_abs:
                best_abs = a
                best = (i, j)
    return best


def smith_normal_form(
    a: IntegerMatrix,
) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Return (U, D, V) with U @ a @ V == D, U and V unimodular.

    D is diagonal with nonnegative entries satisfying d1 | d2 | ... .  This
    is the one Smith loop.  It reduces the rows of D in place, applies each
    row operation to the rows of U and each column operation to `vt`, which
    holds the columns of V so that a column swap or update is a list swap or
    a row update.  Each update walks only the nonzero entries of the pivot's
    row (of D, U or V transposed) and only the rows nonzero in the pivot's
    column, and the remainder check looks only where an update landed.
    Terms with a zero multiplier are exactly zero, so the result is the
    same, integer for integer, as full-row updates in the same order.
    """
    m, n = a.rows, a.cols
    d = a.to_rows()
    u = _identity_rows(m)
    vt = _identity_rows(n)  # the columns of V
    t = 0
    limit = min(m, n)
    zero = [False] * m  # rows known to be zero; they move with their rows
    while t < limit:
        piv = _select_pivot(d, zero, t, m, n)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            zero[t], zero[pi] = zero[pi], zero[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in islice(d, t, None):  # rows above t are zero in both
                row[t], row[pj] = row[pj], row[t]
            vt[t], vt[pj] = vt[pj], vt[t]
        dt = d[t]
        pivot = dt[t]
        pivot_row = [(j, dt[j]) for j in _support(dt)]  # columns t and up
        # Clear column t below the pivot.
        below = list(compress(range(t + 1, m), map(itemgetter(t), islice(d, t + 1, None))))
        if below:
            pivot_u = [(j, u[t][j]) for j in _support(u[t])]
            for i in below:
                di = d[i]
                q = di[t] // pivot
                if q:
                    for j, y in pivot_row:
                        di[j] -= q * y
                    ui = u[i]
                    for j, y in pivot_u:
                        ui[j] -= q * y
        # Clear row t right of the pivot.  A column operation changes only the
        # rows that are nonzero in column t: the pivot row and the remainders.
        right = [j for j, _ in pivot_row if j != t]
        if right:
            live = [dt] + [d[i] for i in below if d[i][t]]
            pivot_v = [(k, vt[t][k]) for k in _support(vt[t])]
            for j in right:
                q = dt[j] // pivot
                if q:
                    for row in live:
                        row[j] -= q * row[t]
                    vj = vt[j]
                    for k, y in pivot_v:
                        vj[k] -= q * y
        if any(d[i][t] for i in below) or any(dt[j] for j in right):
            continue  # remainders are strictly smaller; re-select the pivot
        # Divisibility repair: the pivot must divide the rest of the submatrix.
        witness = None
        if pivot not in (1, -1):  # a unit divides everything
            for i in range(t + 1, m):
                if any(x % pivot for x in islice(d[i], t + 1, None)):
                    witness = i
                    break
        if witness is not None:
            dw = d[witness]
            for j in _support(dw):
                dt[j] += dw[j]
            ut, uw = u[t], u[witness]
            for j in _support(uw):
                ut[j] += uw[j]
            continue
        t += 1
    # Off the diagonal D is zero by now.
    for i in range(limit):
        if d[i][i] < 0:
            d[i][i] = -d[i][i]
            u[i] = [-x for x in u[i]]
    v = [list(col) for col in zip(*vt)]
    return IntegerMatrix._of(u, m), IntegerMatrix._of(d, n), IntegerMatrix._of(v, n)


def _eliminate_units(a: IntegerMatrix) -> tuple[int, list[list[int]]]:
    """Sparse elimination of +-1 pivots: how many, and the dense remainder.

    The lines are the rows when there are at least as many rows as columns,
    otherwise the columns, built by inverting the sparse rows; `cross[c]`
    holds the lines nonzero at crossing position c.  One sweep visits the
    lines shortest first, by their initial length, and pivots each on its
    unit whose crossing line is shortest, a Markowitz order that limits
    fill-in without a priority queue.  Clearing the pivot's crossing line
    with multiples of its line leaves the line to be cleared by operations
    that touch nothing else, so both drop out.  Lines without a unit are
    swept again, since fill-in may have given them one, until a sweep
    pivots nowhere.  The remainder keeps the surviving lines over the
    surviving crossing positions: the rest of the matrix or of its
    transpose, which has the same invariant factors.
    """
    e = a._e
    supports = [_support(r) for r in e]
    if a.rows >= a.cols:
        lines = [{j: r[j] for j in s} for r, s in zip(e, supports)]
        cross: list[set[int]] = [set() for _ in range(a.cols)]
        for i, s in enumerate(supports):
            for j in s:
                cross[j].add(i)
    else:
        lines = [{} for _ in range(a.cols)]
        for i, (r, s) in enumerate(zip(e, supports)):
            for j in s:
                lines[j][i] = r[j]
        cross = [set(s) for s in supports]
    todo = [i for i, line in enumerate(lines) if line]
    if len(todo) > 1:
        todo.sort(key=lambda i: len(lines[i]))
    units = 0
    while todo:
        before = units
        retry = []
        for r in todo:
            line = lines[r]
            if not line:
                continue
            pivots = [(len(cross[c]), c) for c, x in line.items() if x == 1 or x == -1]
            if not pivots:
                retry.append(r)
                continue
            c = min(pivots)[1]
            p = line.pop(c)
            col = cross[c]
            col.discard(r)
            for j in line:
                cross[j].discard(r)
            for i in col:
                li = lines[i]
                q = li.pop(c) * p  # p is its own inverse
                for j, x in line.items():
                    y = li.get(j, 0) - q * x
                    if y:
                        if j not in li:
                            cross[j].add(i)
                        li[j] = y
                    elif j in li:
                        del li[j]
                        cross[j].discard(i)
            lines[r] = {}
            units += 1
        if units == before:
            break
        todo = retry
    live = [line for line in lines if line]
    keep = sorted({j for line in live for j in line})
    at = {j: k for k, j in enumerate(keep)}
    dense = []
    for line in live:
        row = [0] * len(keep)
        for j, x in line.items():
            row[at[j]] = x
        dense.append(row)
    return units, dense


def invariant_factors(a: IntegerMatrix) -> list[int]:
    """Positive diagonal entries of the Smith form, in divisibility order.

    Each pivot of the unit sweep gives a factor 1; the rest are the nonzero
    diagonal of the Smith form of the remainder the sweep leaves.
    """
    if not any(map(any, a._e)):  # zero-shaped or zero: no index to build
        return []
    units, rest = _eliminate_units(a)
    _, d, _ = smith_normal_form(IntegerMatrix(rest))
    return [1] * units + [d[i, i] for i in range(min(d.shape)) if d[i, i]]


def matrix_rank(a: IntegerMatrix) -> int:
    return len(invariant_factors(a))


# -- coefficient rings ------------------------------------------------------


# The largest truncation window of a graded Laurent ring.  A graded answer
# replicates the integral one in each of the 2w + 1 powers of its window, so
# its time, memory and report grow linearly in w and carry nothing the
# integral answer does not: `homology --ring laurent:2:10000` of the torus
# already writes a 3.6 MB report, and a window of 10^8 would exhaust memory.
_LAURENT_WINDOW_MAX = 1000


class RingKind(Enum):
    INTEGERS = "z"
    MODULAR = "zmod"
    RATIONALS = "q"
    LAURENT = "laurent"


@dataclass(frozen=True)
class CoefficientRing:
    """Supported coefficient systems for homology computations.

    The graded Laurent variant is a window-truncated stand-in for a graded
    unit ring with one invertible generator of fixed even degree, keeping
    the generator powers p with |p| <= truncation.
    """

    kind: RingKind
    modulus: int | None = None
    generator_degree: int | None = None
    truncation: int | None = None

    def __post_init__(self):
        for name in ("modulus", "generator_degree", "truncation"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _json_integer(value, name.replace("_", " ")))
        if self.kind is RingKind.MODULAR:
            if self.modulus is None or self.modulus < 2:
                raise InputError("modulus must be an integer >= 2")
        elif self.kind is RingKind.LAURENT:
            d, w = self.generator_degree, self.truncation
            if d is None or d <= 0 or d % 2:
                raise InputError("generator degree must be a positive even integer")
            if w is None or w <= 0:
                raise InputError("truncation window must be a positive integer")
            if w > _LAURENT_WINDOW_MAX:
                raise InputError(
                    f"truncation window {w} is above the ceiling {_LAURENT_WINDOW_MAX}"
                )
        else:
            if self.modulus is not None or self.generator_degree is not None:
                raise InputError("unexpected parameters for this ring kind")

    @classmethod
    def integers(cls) -> "CoefficientRing":
        return cls(RingKind.INTEGERS)

    @classmethod
    def modular(cls, m: int) -> "CoefficientRing":
        return cls(RingKind.MODULAR, modulus=m)

    @classmethod
    def rationals(cls) -> "CoefficientRing":
        return cls(RingKind.RATIONALS)

    @classmethod
    def laurent(cls, generator_degree: int, truncation: int) -> "CoefficientRing":
        return cls(RingKind.LAURENT, generator_degree=generator_degree, truncation=truncation)

    @classmethod
    def parse(cls, text: str) -> "CoefficientRing":
        """Parse ring codes: z, q, zmod:m, laurent:degree:window."""
        if not isinstance(text, str):
            raise InputError(f"ring code {text!r} is not a string")
        parts = text.strip().lower().split(":")
        try:
            if parts == ["z"]:
                return cls.integers()
            if parts == ["q"]:
                return cls.rationals()
            if parts[0] == "zmod" and len(parts) == 2:
                return cls.modular(int(parts[1]))
            if parts[0] == "laurent" and len(parts) == 3:
                return cls.laurent(int(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise InputError(f"bad ring code {text!r}: {exc}") from None
        raise InputError(f"unknown ring code {text!r}")

    def spec_string(self) -> str:
        if self.kind is RingKind.INTEGERS:
            return "z"
        if self.kind is RingKind.RATIONALS:
            return "q"
        if self.kind is RingKind.MODULAR:
            return f"zmod:{self.modulus}"
        return f"laurent:{self.generator_degree}:{self.truncation}"


def _invariant_chain(orders: Iterable[int]) -> list[int]:
    """Normalize a multiset of cyclic orders into a divisibility chain d1 | d2 | ...

    Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b), so replacing each pair (d_i, d_j),
    i < j, by its gcd and lcm keeps the group, and once d_i has met every
    later entry it divides them all.  Orders of 1 drop out; nothing is factored.
    """
    d = list(orders)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return [x for x in d if x > 1]


# -- homology ---------------------------------------------------------------


@dataclass(frozen=True)
class HomologyGroup:
    """Finitely generated module presented as free rank plus cyclic torsion.

    The torsion orders form a divisibility chain d1 | d2 | ... with every
    d >= 2.  For the graded Laurent ring, `graded` maps each generator power
    in the window to the group replicated in that slot.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()
    graded: tuple[tuple[int, "HomologyGroup"], ...] | None = None

    def __post_init__(self):
        if self.free_rank < 0:
            raise InputError("negative free rank")
        prev = None
        for d in self.torsion:
            if d < 2:
                raise InputError("torsion orders must be >= 2")
            if prev is not None and d % prev:
                raise InputError("torsion orders must form a divisibility chain")
            prev = d

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        out: dict = {"freeRank": self.free_rank, "torsion": list(self.torsion)}
        if self.graded is not None:
            out["graded"] = [
                {"power": p, "freeRank": g.free_rank, "torsion": list(g.torsion)}
                for p, g in self.graded
            ]
        return out


def homology(
    d_in: IntegerMatrix, d_out: IntegerMatrix, ring: CoefficientRing
) -> HomologyGroup:
    """Homology ker(d_out) / im(d_in) at the middle of C --d_in--> C' --d_out--> C''.

    `d_in` maps the degree above into the middle term (its rows index the
    middle basis) and `d_out` maps the middle term down.  These are raw
    matrices, so their shapes and their composite are checked here.  The
    integral answer is converted to the requested ring; for a modulus m the
    reduction includes the torsion contribution inherited from the degree
    below, read off the invariant factors of `d_out`.
    """
    if d_out.cols != d_in.rows:
        raise DimensionMismatchError(
            f"boundary shapes incompatible: d_out has {d_out.cols} columns, "
            f"d_in has {d_in.rows} rows"
        )
    if not (d_out @ d_in).is_zero():
        raise CompositeNonzeroError("d_out @ d_in is nonzero")
    return _homology_group(
        d_in.rows, invariant_factors(d_in), invariant_factors(d_out), ring
    )


def _homology_group(
    n: int, fac_in: list[int], fac_out: list[int], ring: CoefficientRing
) -> HomologyGroup:
    """`homology` at a middle term of rank `n`, from the invariant factors of
    the maps into and out of it, which the caller vouches compose to zero."""
    free = n - len(fac_out) - len(fac_in)
    torsion = tuple(f for f in fac_in if f > 1)

    if ring.kind is RingKind.INTEGERS:
        return HomologyGroup(free, torsion)
    if ring.kind is RingKind.RATIONALS:
        return HomologyGroup(free)
    if ring.kind is RingKind.MODULAR:
        # Every order divides m, so the copies of Z/m top the chain as they
        # are, and only the smaller orders are normalised.
        m = ring.modulus
        orders = [math.gcd(f, m) for f in torsion]
        orders += [math.gcd(f, m) for f in fac_out if f > 1]
        chain = _invariant_chain(o for o in orders if 1 < o < m)
        free_m = free + orders.count(m) + chain.count(m)
        return HomologyGroup(free_m, tuple(d for d in chain if d != m))
    # Graded Laurent: the integral answer replicated across the power window.
    base = HomologyGroup(free, torsion)
    w = ring.truncation
    graded = tuple((p, base) for p in range(-w, w + 1))
    return HomologyGroup(free, torsion, graded=graded)
