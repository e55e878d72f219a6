"""Gap-sequence morphisms, chain complex data, and filtered realizations.

The composition category here has the integers as objects.  A morphism from
n down to m is a tuple of nonnegative rational coordinates indexed by the
integers strictly between m and n, together with a single absorbing
basepoint when n > m.  Composition pads the gap at the shared endpoint with
a zero; morphisms whose coordinate at some intermediate m vanishes are
exactly the composites through m.

A filtered realization of based chain complex data keeps one free summand
per filtration level and a square-zero total differential whose adjacent
components are the boundary maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .coeff import (
    CoefficientRing,
    HomologyGroup,
    IntegerMatrix,
    _homology_group,
    _json_integer,
    _parse_rational,
    invariant_factors,
)
from .errors import (
    BoundaryCompositeError,
    IndexRangeError,
    InputError,
    SourceTargetMismatchError,
    TotalDifferentialSquareError,
)
from .report import Check, Report


@dataclass(frozen=True)
class GapSequence:
    """A morphism from `source` to `target`: coordinates on the open gap, or the basepoint.

    `coords` lists the values at target+1, ..., source-1; ``None`` encodes
    the basepoint at infinity, which only exists when source > target.
    """

    source: int
    target: int
    coords: tuple[Fraction, ...] | None

    def __post_init__(self):
        object.__setattr__(self, "source", _json_integer(self.source, "source"))
        object.__setattr__(self, "target", _json_integer(self.target, "target"))
        if self.source < self.target:
            raise InputError("no morphisms raise the object index")
        gap = self.source - self.target
        if self.coords is None:
            if gap == 0:
                raise InputError("the basepoint requires source > target")
            return
        coords = tuple(_parse_rational(c) for c in self.coords)
        if len(coords) != max(gap - 1, 0):
            raise InputError(
                f"expected {max(gap - 1, 0)} coordinates for a morphism "
                f"{self.source} -> {self.target}, got {len(coords)}"
            )
        if any(c < 0 for c in coords):
            raise InputError("coordinates must be nonnegative")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def identity(cls, n: int) -> "GapSequence":
        return cls(n, n, ())

    @classmethod
    def basepoint(cls, source: int, target: int) -> "GapSequence":
        return cls(source, target, None)

    @classmethod
    def of(cls, source: int, target: int, values: Mapping[int, Fraction] | Sequence) -> "GapSequence":
        """Build from either a dense coordinate sequence or an index -> value map.

        A map's indices must be ones that `coordinate` takes.
        """
        if not isinstance(values, Mapping):
            return cls(source, target, tuple(values))
        source, target = _json_integer(source, "source"), _json_integer(target, "target")
        x = cls(source, target, tuple(values.get(i, 0) for i in range(target + 1, source)))
        for i in values:
            x.coordinate(i)
        return x

    @property
    def is_basepoint(self) -> bool:
        return self.coords is None

    def coordinate(self, i: int) -> Fraction:
        if self.is_basepoint:
            raise InputError("the basepoint has no coordinates")
        i = _json_integer(i, "index")
        if not (self.target < i < self.source):
            raise IndexRangeError(
                f"index {i} not strictly between {self.target} and {self.source}"
            )
        return self.coords[i - self.target - 1]


def compose(g: GapSequence, f: GapSequence) -> GapSequence:
    """Composite of g after f, defined when g.target == f.source.

    The coordinate at the shared object is zero; the basepoint absorbs.
    """
    if g.target != f.source:
        raise SourceTargetMismatchError(
            f"cannot compose: g ends at {g.target}, f starts at {f.source}"
        )
    if g.is_basepoint or f.is_basepoint:
        return GapSequence.basepoint(g.source, f.target)
    if g.source == g.target:
        return f
    if f.source == f.target:
        return g
    return GapSequence(g.source, f.target, f.coords + (Fraction(0),) + g.coords)


def in_face_image(x: GapSequence, m: int) -> bool:
    """Whether x factors through the object m, i.e. lies in the m-th face image."""
    if not (x.target < m < x.source):
        raise IndexRangeError(
            f"face index {m} not strictly between {x.target} and {x.source}"
        )
    if x.is_basepoint:
        return False
    return x.coordinate(m) == 0


# -- chain complex data -----------------------------------------------------


def _parse_matrix(rows, cols: int, what: str) -> IntegerMatrix:
    """An integer matrix from JSON rows; `cols` fixes the width of an empty one."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError(f"{what} must be a list of rows")
    return IntegerMatrix(rows, cols=cols if not rows else None)


@dataclass(frozen=True)
class ChainComplexData:
    """Ordered bases per degree plus boundary matrices with zero composites.

    `bases[i]` lists the degree-i generator labels; `boundaries[i-1]` is the
    map from degree i to degree i-1 with shape len(bases[i-1]) x len(bases[i]).
    Construction checks shapes and composites; frozen, the object needs no recheck.
    """

    bases: tuple[tuple[str, ...], ...]
    boundaries: tuple[IntegerMatrix, ...]

    def __post_init__(self):
        bases = tuple(tuple(b) for b in self.bases)
        object.__setattr__(self, "bases", bases)
        if not bases:
            raise InputError("a complex needs at least one degree")
        for b in bases:
            if not all(isinstance(label, str) for label in b):
                raise InputError(f"basis labels {list(b)!r} are not all strings")
            if len(set(b)) != len(b):
                raise InputError("duplicate labels within a degree")
        if len(self.boundaries) != len(bases) - 1:
            raise InputError(
                f"expected {len(bases) - 1} boundary maps, got {len(self.boundaries)}"
            )
        for i, d in enumerate(self.boundaries, start=1):
            want = (len(bases[i - 1]), len(bases[i]))
            if d.shape != want:
                raise InputError(
                    f"boundary {i} has shape {d.shape}, expected {want}"
                )
        for i in range(2, len(bases)):
            if not (self.boundaries[i - 2] @ self.boundaries[i - 1]).is_zero():
                raise BoundaryCompositeError(
                    f"boundary composite at degree {i} is nonzero"
                )

    @property
    def top_degree(self) -> int:
        return len(self.bases) - 1

    def rank(self, i: int) -> int:
        return len(self.bases[i])

    def boundary(self, i: int) -> IntegerMatrix:
        """The map out of degree i; zero-shaped matrices off the ends."""
        if 1 <= i <= self.top_degree:
            return self.boundaries[i - 1]
        if i == 0:
            return IntegerMatrix.zeros(0, self.rank(0))
        if i == self.top_degree + 1:
            return IntegerMatrix.zeros(self.rank(self.top_degree), 0)
        raise IndexRangeError(f"no boundary at degree {i}")

    def to_json(self) -> dict:
        return {
            "bases": [list(b) for b in self.bases],
            "boundaries": [d.to_json() for d in self.boundaries],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChainComplexData":
        try:
            bases = data["bases"]
            raw = data["boundaries"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad chain complex payload: {exc}") from None
        if not isinstance(bases, list) or not all(isinstance(b, list) for b in bases):
            raise InputError("bases must be a list of label lists")
        if not isinstance(raw, list):
            raise InputError("boundaries must be a list of matrices")
        boundaries = []
        for i, rows in enumerate(raw, start=1):
            cols = len(bases[i]) if i < len(bases) else 0
            boundaries.append(_parse_matrix(rows, cols, f"boundary {i}"))
        return cls(bases, tuple(boundaries))


def all_homology(c: ChainComplexData, ring: CoefficientRing) -> list[HomologyGroup]:
    """Homology of the complex in every degree over the given ring.

    Each boundary, the zero-shaped ends included, is factored once and its
    invariant factors serve the degrees on both sides of it.  The complex was
    checked when built, so no matrix products are formed here.
    """
    factors = [invariant_factors(c.boundary(i)) for i in range(c.top_degree + 2)]
    return [
        _homology_group(c.rank(i), factors[i + 1], factors[i], ring)
        for i in range(c.top_degree + 1)
    ]


# -- filtered realizations --------------------------------------------------


@dataclass(frozen=True)
class FilteredRealization:
    """Filtration levels carrying the complex bases plus differential components.

    `components[(p, q)]` lowers the filtration from level p to level q; the
    adjacent entries (p, p-1) are supposed to agree with the boundary maps,
    which `check_realization` verifies entrywise.
    """

    complex: ChainComplexData
    ring: CoefficientRing
    components: Mapping[tuple[int, int], IntegerMatrix] = field(default_factory=dict)

    def __post_init__(self):
        comps = {}
        n = self.complex.top_degree
        for (p, q), mat in self.components.items():
            if not (0 <= q < p <= n):
                raise IndexRangeError(f"component ({p}, {q}) outside filtration range")
            want = (self.complex.rank(q), self.complex.rank(p))
            if mat.shape != want:
                raise InputError(
                    f"component ({p}, {q}) has shape {mat.shape}, expected {want}"
                )
            comps[(p, q)] = mat
        object.__setattr__(self, "components", comps)

    def component(self, p: int, q: int) -> IntegerMatrix:
        got = self.components.get((p, q))
        if got is None:
            return IntegerMatrix.zeros(self.complex.rank(q), self.complex.rank(p))
        return got

    def total_square_defects(self) -> list[tuple[int, int]]:
        """Level pairs (p, r) where the composed differential fails to vanish."""
        return list(self._square_defects)

    @cached_property
    def _square_defects(self) -> tuple[tuple[int, int], ...]:
        n = self.complex.top_degree
        bad = []
        for p in range(2, n + 1):
            for r in range(p - 1):
                acc = IntegerMatrix.zeros(self.complex.rank(r), self.complex.rank(p))
                for q in range(r + 1, p):
                    acc = acc + (self.component(q, r) @ self.component(p, q))
                if not acc.is_zero():
                    bad.append((p, r))
        return tuple(bad)

    def total_differential(self) -> IntegerMatrix:
        """All components packed into one endomorphism of the direct sum of levels."""
        ranks = [self.complex.rank(i) for i in range(self.complex.top_degree + 1)]
        offsets = [0]
        for r in ranks:
            offsets.append(offsets[-1] + r)
        total = offsets[-1]
        rows = [[0] * total for _ in range(total)]
        for (p, q), mat in self.components.items():
            for i, row in enumerate(mat.to_rows()):
                rows[offsets[q] + i][offsets[p] : offsets[p] + mat.cols] = row
        return IntegerMatrix._of(rows, total)

    def to_json(self) -> dict:
        out = self.complex.to_json()
        out["ring"] = self.ring.spec_string()
        out["components"] = {
            f"{p},{q}": mat.to_json()
            for (p, q), mat in sorted(self.components.items())
        }
        return out

    @classmethod
    def from_json(cls, data: dict) -> "FilteredRealization":
        cx = ChainComplexData.from_json(data)
        ring = CoefficientRing.parse(data.get("ring", "z"))
        raw = data.get("components", {})
        if not isinstance(raw, dict):
            raise InputError("components must be an object keyed by 'p,q'")
        comps = {}
        for key, rows in raw.items():
            try:
                p, q = (int(s) for s in key.split(","))
            except ValueError:
                raise InputError(f"bad component key {key!r}") from None
            if not (0 <= p <= cx.top_degree and 0 <= q <= cx.top_degree):
                raise InputError(f"component key {key!r} names a level outside the bases")
            if q >= p:
                raise InputError(f"component key {key!r} does not lower the level")
            if (p, q) in comps:
                raise InputError(f"component key {key!r} repeats the level pair {p},{q}")
            comps[(p, q)] = _parse_matrix(rows, cx.rank(p), f"component {key!r}")
        return cls(cx, ring, comps)


def realize(
    c: ChainComplexData,
    ring: CoefficientRing,
    higher: Mapping[tuple[int, int], IntegerMatrix] | None = None,
) -> FilteredRealization:
    """Build the filtered object with adjacent components equal to the boundaries.

    Optional `higher` supplies components dropping at least two levels.  The
    assembled total differential must square to zero.
    """
    comps: dict[tuple[int, int], IntegerMatrix] = {}
    for p in range(1, c.top_degree + 1):
        comps[(p, p - 1)] = c.boundary(p)
    if higher:
        for (p, q), mat in higher.items():
            if p - q < 2:
                raise InputError(
                    f"higher component ({p}, {q}) must drop at least two levels"
                )
            comps[(p, q)] = mat
    return _square_zero(FilteredRealization(c, ring, comps))


def _square_zero(x: FilteredRealization) -> FilteredRealization:
    """`x` itself, once its total differential is known to square to zero."""
    defects = x.total_square_defects()
    if defects:
        raise TotalDifferentialSquareError(
            f"total differential square is nonzero at level pairs {defects}"
        )
    return x


def check_realization(x: FilteredRealization, c: ChainComplexData) -> Report:
    """Verify the two realization conditions against reference complex data.

    (1) each subquotient is free on the expected basis in the expected degree;
    (2) each connecting map agrees with the corresponding boundary entrywise.
    """
    sub_fail = []
    if x.complex.top_degree != c.top_degree:
        sub_fail.append(
            f"filtration length {x.complex.top_degree} != complex length {c.top_degree}"
        )
    for i in range(min(x.complex.top_degree, c.top_degree) + 1):
        if x.complex.bases[i] != c.bases[i]:
            sub_fail.append(
                f"degree {i}: level basis {list(x.complex.bases[i])} != "
                f"complex basis {list(c.bases[i])}"
            )
    conn_fail = []
    for i in range(1, min(x.complex.top_degree, c.top_degree) + 1):
        got = x.component(i, i - 1)
        want = c.boundary(i)
        if got.shape != want.shape:
            conn_fail.append(f"degree {i}: component shape {got.shape} != {want.shape}")
            continue
        if got == want:
            continue
        for r in range(want.rows):
            for s in range(want.cols):
                if got[r, s] != want[r, s]:
                    conn_fail.append(
                        f"degree {i}: entry ({c.bases[i - 1][r]}, {c.bases[i][s]}) "
                        f"is {got[r, s]}, expected {want[r, s]}"
                    )
    return Report(
        (
            Check("free-subquotients", tuple(sub_fail)),
            Check("connecting-maps", tuple(conn_fail)),
        )
    )


def total_homology(x: FilteredRealization) -> HomologyGroup:
    """Homology of the whole filtered object as a single two-step complex.

    The integral ranks and torsion equal the direct sum of the degreewise
    homology whenever the realization has no level-skipping components.
    """
    # The (p, r) block of D @ D is the sum over r < q < p that the defects
    # check, so D squares to zero exactly when there are no defects.
    d = _square_zero(x).total_differential()
    factors = invariant_factors(d)
    return _homology_group(d.rows, factors, factors, x.ring)
