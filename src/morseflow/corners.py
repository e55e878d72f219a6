"""Corner combinatorics for compactified flow spaces.

Models the local structure of manifolds with corners: the corner code of a
point in the nonnegative orthant, face assignments over the poset 2^k,
strictly decreasing object chains as boundary strata, and multiplicative
unit assignments on the cube poset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .coeff import _json_integer, _parse_rational
from .errors import (
    IndexRangeError,
    InputError,
    NegativeCoordinateError,
    NotComparableError,
)
from .flowcat import FlowCategory
from .report import Check, Report


def corner_code(point: Sequence) -> int:
    """Number of vanishing coordinates of a point in the nonnegative orthant."""
    code = 0
    for v in point:
        if v < 0:
            raise NegativeCoordinateError(f"coordinate {v} is negative")
        if v == 0:
            code += 1
    return code


def _read_k(k) -> int:
    """A number k of slots or faces, read as `_json_integer` reads it and at least 0."""
    k = _json_integer(k, "k")
    if k < 0:
        raise InputError(f"k {k} is negative")
    return k


@dataclass(frozen=True)
class CubeObject:
    """A vertex of the poset 2^k, encoded by a 0/1 tuple."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(_json_integer(b, "cube coordinate") for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise InputError("cube coordinates must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @property
    def k(self) -> int:
        return len(self.bits)

    def _pairs(self, other: "CubeObject") -> zip:
        """The bits of both vertices side by side; InputError if their cubes differ."""
        if self.k != other.k:
            raise InputError("cube dimensions differ")
        return zip(self.bits, other.bits)

    def leq(self, other: "CubeObject") -> bool:
        return all(a <= b for a, b in self._pairs(other))

    def disjoint_from(self, other: "CubeObject") -> bool:
        return all(not (a and b) for a, b in self._pairs(other))

    def join(self, other: "CubeObject") -> "CubeObject":
        return CubeObject(tuple(a | b for a, b in self._pairs(other)))

    def concat(self, other: "CubeObject") -> "CubeObject":
        return CubeObject(self.bits + other.bits)

    @staticmethod
    def all_objects(k: int) -> list["CubeObject"]:
        return [CubeObject(bits) for bits in itertools.product((0, 1), repeat=k)]


@dataclass(frozen=True)
class FaceStructure:
    """Sampled points of a k-cornered model with face-label assignments.

    Each sample is a tuple of exact nonnegative rationals; its labels name
    the faces (1-based) the sample is assigned to.
    """

    k: int
    samples: tuple[tuple[Fraction, ...], ...]
    labels: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "k", _read_k(self.k))
        samples = tuple(tuple(_parse_rational(v) for v in pt) for pt in self.samples)
        object.__setattr__(self, "samples", samples)
        labels = tuple(frozenset(_json_integer(l, "face label") for l in ls) for ls in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(samples) != len(labels):
            raise InputError("samples and label sets must align")
        for pt in samples:
            if len(pt) != self.k:
                raise InputError(f"sample {pt} does not have {self.k} coordinates")
        for ls in labels:
            if any(not (1 <= l <= self.k) for l in ls):
                raise InputError("face labels must lie in 1..k")

    @classmethod
    def canonical(cls, k: int, samples: Iterable[Sequence]) -> "FaceStructure":
        """Assign each sample to the faces where its coordinates vanish."""
        pts = tuple(tuple(_parse_rational(v) for v in pt) for pt in samples)
        labels = tuple(
            frozenset(j + 1 for j, v in enumerate(pt) if v == 0) for pt in pts
        )
        return cls(k, pts, labels)


def validate_face_structure(fs: FaceStructure) -> Report:
    """Check the corner axioms on sampled face data.

    (1) a sample with corner code c carries exactly c labels;
    (2) every boundary sample carries at least one label;
    (3) samples assigned to two distinct faces sit in corners of code >= 2.
    """
    count_fail = []
    cover_fail = []
    pairwise_fail = []
    for idx, (pt, ls) in enumerate(zip(fs.samples, fs.labels)):
        code = corner_code(pt)
        if len(ls) != code:
            count_fail.append(
                f"sample {idx} at {tuple(map(str, pt))} has corner code {code} "
                f"but {len(ls)} labels"
            )
        if code > 0 and not ls:
            cover_fail.append(
                f"boundary sample {idx} at {tuple(map(str, pt))} carries no label"
            )
        if len(ls) >= 2 and code < 2:
            pairwise_fail.append(
                f"sample {idx} lies in faces {sorted(ls)} but has corner code {code}"
            )
    return Report(
        (
            Check("label-count-matches-corner-code", tuple(count_fail)),
            Check("boundary-is-covered", tuple(cover_fail)),
            Check("pairwise-intersections-are-corners", tuple(pairwise_fail)),
        )
    )


# -- boundary strata --------------------------------------------------------


@dataclass(frozen=True)
class StratumChain:
    """A strictly decreasing object chain a0 > a1 > ... > ar with its stratum dimension."""

    objects: tuple[str, ...]
    dimension: int

    @property
    def links(self) -> int:
        return len(self.objects) - 1

    def intermediates(self) -> tuple[str, ...]:
        return self.objects[1:-1]


def strata(cat: FlowCategory, a: str, b: str) -> list[StratumChain]:
    """All strictly decreasing chains from a to b through objects of the category.

    A chain with r links has stratum dimension mu(a) - mu(b) - r; the direct
    chain is the open stratum.
    """
    if a == b or not cat.gt(a, b):
        raise NotComparableError(f"{a!r} is not strictly above {b!r}")
    gap = cat.mu(a) - cat.mu(b)
    chains: list[tuple[str, ...]] = []

    def extend(prefix: tuple[str, ...]):
        cur = prefix[-1]
        if cat.gt(cur, b):
            for c in cat.objects:
                if c != b and cat.gt(cur, c) and (cat.gt(c, b)):
                    extend(prefix + (c,))
            chains.append(prefix + (b,))

    extend((a,))
    chains.sort(key=lambda ch: (len(ch), ch))
    return [StratumChain(ch, gap - (len(ch) - 1)) for ch in chains]


def face_decomposition(
    cat: FlowCategory, a: str, b: str, j: int
) -> dict[str, list[StratumChain]]:
    """Chains from a to b through an intermediate of index mu(a) - j, grouped by it."""
    gap = cat.mu(a) - cat.mu(b)
    if not (1 <= j <= gap - 1):
        raise IndexRangeError(f"face index {j} outside 1..{gap - 1}")
    target = cat.mu(a) - j
    out: dict[str, list[StratumChain]] = {}
    for ch in strata(cat, a, b):
        for c in ch.intermediates():
            if cat.mu(c) == target:
                out.setdefault(c, []).append(ch)
    return dict(sorted(out.items()))


def strata_report_json(cat: FlowCategory, a: str, b: str) -> dict:
    chains = strata(cat, a, b)
    return {
        "pair": [a, b],
        "chains": [list(ch.objects) for ch in chains],
        "dims": [ch.dimension for ch in chains],
    }


# -- unit sign assignments --------------------------------------------------


# The largest k of a `SignDiagram`: its assignment holds 2^k units.
SIGN_DIAGRAM_K_MAX = 16


def _sign_k(k) -> int:
    """The k of a `SignDiagram`, read as `_read_k` reads it and at most `SIGN_DIAGRAM_K_MAX`."""
    k = _read_k(k)
    if k > SIGN_DIAGRAM_K_MAX:
        raise InputError(
            f"k {k} is above the ceiling {SIGN_DIAGRAM_K_MAX}: a diagram holds 2^k units"
        )
    return k


@dataclass(frozen=True)
class SignDiagram:
    """A unit (+1/-1) for each vertex of 2^k, +1 at the bottom vertex.

    These model orientation units on cube-indexed pieces: pairing two
    diagrams concatenates the cubes and multiplies the units, and a single
    diagram is multiplicative when disjoint joins factor.
    """

    k: int
    assignment: Mapping[tuple[int, ...], int]

    def __post_init__(self):
        k = _sign_k(self.k)
        object.__setattr__(self, "k", k)
        # The assignment is read before the cube is, so a short one is
        # refused at the cost of its own size.
        if not isinstance(self.assignment, Mapping):
            raise InputError("a sign diagram's assignment maps vertices to units")
        clean = {}
        for bits, v in self.assignment.items():
            if not isinstance(bits, tuple) or len(bits) != k:
                raise InputError(f"{bits!r} is not a vertex of the cube 2^{k}")
            bits = CubeObject(bits).bits
            if v not in (1, -1):
                raise InputError(f"unit at {bits} must be +1 or -1")
            clean[bits] = int(v)
        if len(clean) < 1 << k:
            missing = next(b for b in itertools.product((0, 1), repeat=k) if b not in clean)
            raise InputError(f"missing unit for {missing}")
        if clean[(0,) * k] != 1:
            raise InputError("the bottom vertex must carry +1")
        object.__setattr__(self, "assignment", dict(sorted(clean.items())))

    @classmethod
    def from_slot_units(cls, units: Sequence[int]) -> "SignDiagram":
        """The multiplicative diagram generated by one unit per slot."""
        k = _sign_k(len(units))
        assignment = {}
        for obj in CubeObject.all_objects(k):
            v = 1
            for bit, u in zip(obj.bits, units):
                if bit:
                    v *= u
            assignment[obj.bits] = v
        return cls(k, assignment)

    def unit(self, obj: CubeObject | tuple[int, ...]) -> int:
        bits = obj.bits if isinstance(obj, CubeObject) else tuple(obj)
        return self.assignment[bits]

    def pair(self, other: "SignDiagram") -> "SignDiagram":
        """Concatenate the cubes; the unit at a join is the product of units."""
        k = _sign_k(self.k + other.k)
        assignment = {}
        for a in CubeObject.all_objects(self.k):
            for b in CubeObject.all_objects(other.k):
                assignment[a.bits + b.bits] = self.unit(a) * other.unit(b)
        return SignDiagram(k, assignment)

    def is_multiplicative(self) -> bool:
        """Units factor over joins of disjointly supported vertices.

        The bottom vertex carries +1, so that holds exactly when each unit
        is the product of its slots' units, and so, by induction on the
        number of slots, when each unit is its first slot's unit times the
        unit of the rest: one product per vertex, not one per pair.
        """
        units, k = self.assignment, self.k
        slots = [(0,) * i + (1,) + (0,) * (k - 1 - i) for i in range(k)]
        for bits, unit in units.items():
            if 1 in bits:
                i = bits.index(1)
                if unit != units[slots[i]] * units[(0,) * (i + 1) + bits[i + 1 :]]:
                    return False
        return True
