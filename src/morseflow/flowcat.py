"""Flow categories: objects with indices, rigid flows, one-parameter moduli.

A flow category records a finite set of graded objects, the rigid
(zero-dimensional) flows between objects one index apart, and the
one-dimensional families between objects two indices apart, compactified by
broken flows at interval ends.  Validation checks the categorical axioms;
coherent sign data then produces a chain complex whose boundary counts
rigid flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from .coeff import IntegerMatrix, _json_integer
from .errors import (
    IncoherentOrientationError,
    InputError,
    InvalidFlowCategoryError,
    NegativeRelativeIndexError,
)
from .realization import ChainComplexData
from .report import Check, Report


def _require_ids(*ids) -> None:
    for i in ids:
        if not isinstance(i, str):
            raise InputError(f"id {i!r} is not a string")


@dataclass(frozen=True)
class RigidFlow:
    """A zero-dimensional flow from `source` down to `target`."""

    id: str
    source: str
    target: str


@dataclass(frozen=True)
class BrokenFlow:
    """A two-step broken flow through `via`: first then second rigid flow id."""

    via: str
    first: str
    second: str


@dataclass(frozen=True)
class IntervalComponent:
    """A compact interval in a one-parameter family, with broken-flow endpoints."""

    ends: tuple[BrokenFlow, BrokenFlow]


@dataclass(frozen=True)
class CircleComponent:
    """A closed loop of flows with no boundary."""


@dataclass(frozen=True)
class ModuliFamily:
    """The compactified one-parameter family between a fixed object pair."""

    source: str
    target: str
    components: tuple[IntervalComponent | CircleComponent, ...]


@dataclass(frozen=True)
class OrientationData:
    """Signs attached to rigid flows by id."""

    signs: Mapping[str, int]

    def __post_init__(self):
        clean = {}
        for fid, s in self.signs.items():
            _require_ids(fid)
            sign = _json_integer(s, "flow sign")
            if sign not in (1, -1):
                raise InputError(f"sign of flow {fid!r} must be +1 or -1")
            clean[fid] = sign
        object.__setattr__(self, "signs", clean)

    def sign(self, flow_id: str) -> int:
        try:
            return self.signs[flow_id]
        except KeyError:
            raise InputError(f"no sign recorded for flow {flow_id!r}") from None

    def flipped_at(self, cat: "FlowCategory", obj: str) -> "OrientationData":
        """Reorient one object: flip the sign of every adjacent flow.

        A flow's sign compares the source's unstable frame with the flow
        direction plus the target's, so the object's frame enters both its
        outgoing and its incoming flows, and both flip; interval sign
        products through the object are unchanged and coherence is
        preserved.
        """
        out = dict(self.signs)
        for f in cat.rigid_flows:
            if f.source == obj or f.target == obj:
                out[f.id] = -out[f.id]
        return OrientationData(out)


@dataclass(frozen=True)
class FlowCategory:
    """Finite flow category data; construction checks referential integrity only."""

    objects: tuple[str, ...]
    index: Mapping[str, int]
    rigid_flows: tuple[RigidFlow, ...] = ()
    moduli: tuple[ModuliFamily, ...] = ()

    def __post_init__(self):
        objects = tuple(self.objects)
        _require_ids(*objects, *self.index)
        if len(set(objects)) != len(objects):
            raise InputError("duplicate object ids")
        object.__setattr__(self, "objects", objects)
        index = {o: _json_integer(i, "object index") for o, i in self.index.items()}
        if set(index) != set(objects):
            raise InputError("index map must cover exactly the objects")
        object.__setattr__(self, "index", index)
        seen = set()
        for f in self.rigid_flows:
            _require_ids(f.id, f.source, f.target)
            if f.id in seen:
                raise InputError(f"duplicate flow id {f.id!r}")
            seen.add(f.id)
            if f.source not in index or f.target not in index:
                raise InputError(f"flow {f.id!r} references unknown objects")
        flows_by_id = {f.id: f for f in self.rigid_flows}
        for fam in self.moduli:
            _require_ids(fam.source, fam.target)
            if fam.source not in index or fam.target not in index:
                raise InputError("moduli family references unknown objects")
            for comp in fam.components:
                if isinstance(comp, CircleComponent):
                    continue
                for end in comp.ends:
                    _require_ids(end.via, end.first, end.second)
                    first = flows_by_id.get(end.first)
                    second = flows_by_id.get(end.second)
                    if first is None or second is None:
                        raise InputError(
                            f"interval endpoint references unknown flows "
                            f"({end.first!r}, {end.second!r})"
                        )
                    if (
                        first.source != fam.source
                        or first.target != end.via
                        or second.source != end.via
                        or second.target != fam.target
                    ):
                        raise InputError(
                            f"interval endpoint ({end.first!r}, {end.second!r}) does "
                            f"not break {fam.source!r} -> {end.via!r} -> {fam.target!r}"
                        )

    # -- derived structure --------------------------------------------------

    def mu(self, obj: str) -> int:
        try:
            return self.index[obj]
        except KeyError:
            raise InputError(f"unknown object {obj!r}") from None

    @cached_property
    def _edges(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {o: set() for o in self.objects}
        for f in self.rigid_flows:
            adj[f.source].add(f.target)
        for fam in self.moduli:
            if fam.components:
                adj[fam.source].add(fam.target)
        return adj

    @cached_property
    def _descendants(self) -> dict[str, frozenset[str]]:
        memo: dict[str, frozenset[str]] = {}

        def visit(o: str, stack: tuple[str, ...]) -> frozenset[str]:
            if o in memo:
                return memo[o]
            if o in stack:
                raise InvalidFlowCategoryError("cycle in the flow relation")
            out: set[str] = set()
            for nxt in self._edges[o]:
                out.add(nxt)
                out |= visit(nxt, stack + (o,))
            memo[o] = frozenset(out)
            return memo[o]

        for o in self.objects:
            visit(o, ())
        return memo

    def gt(self, a: str, b: str) -> bool:
        """Strict order generated by declared flows and families."""
        self.mu(a), self.mu(b)
        return b in self._descendants[a]

    @cached_property
    def _flows_from(self) -> dict[str, list[RigidFlow]]:
        """The rigid flows out of each object, in flow order."""
        out: dict[str, list[RigidFlow]] = {}
        for f in self.rigid_flows:
            out.setdefault(f.source, []).append(f)
        return out

    @cached_property
    def _families(self) -> dict[tuple[str, str], list[ModuliFamily]]:
        """The families between each (source, target) pair, in family order."""
        out: dict[tuple[str, str], list[ModuliFamily]] = {}
        for fam in self.moduli:
            out.setdefault((fam.source, fam.target), []).append(fam)
        return out

    def flows_between(self, a: str, b: str) -> list[RigidFlow]:
        return [f for f in self._flows_from.get(a, ()) if f.target == b]

    def family_between(self, a: str, b: str) -> ModuliFamily | None:
        """The first family from a to b, if any."""
        fams = self._families.get((a, b))
        return fams[0] if fams else None

    def broken_flows(self, a: str, b: str) -> list[BrokenFlow]:
        """All composable rigid-flow pairs from a to b, in id order."""
        return [
            BrokenFlow(f.target, f.id, g.id)
            for f in self._flows_from.get(a, ())
            for g in self._flows_from.get(f.target, ())
            if g.target == b
        ]

    # -- serialization ------------------------------------------------------

    def to_json(self, orientation: OrientationData) -> dict:
        objects = sorted(self.objects, key=lambda o: (-self.index[o], o))
        flows = sorted(self.rigid_flows, key=lambda f: f.id)
        moduli = sorted(self.moduli, key=lambda m: (m.source, m.target))
        return {
            "objects": [{"id": o, "index": self.index[o]} for o in objects],
            "rigidFlows": [
                {
                    "id": f.id,
                    "from": f.source,
                    "to": f.target,
                    "sign": orientation.sign(f.id),
                }
                for f in flows
            ],
            "oneDimModuli": [
                {
                    "from": fam.source,
                    "to": fam.target,
                    "components": [
                        {"kind": "circle"}
                        if isinstance(c, CircleComponent)
                        else {
                            "kind": "interval",
                            "ends": [
                                [c.ends[0].first, c.ends[0].second],
                                [c.ends[1].first, c.ends[1].second],
                            ],
                        }
                        for c in fam.components
                    ],
                }
                for fam in moduli
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> tuple["FlowCategory", OrientationData]:
        try:
            objects = tuple(o["id"] for o in data["objects"])
            index = {o["id"]: o["index"] for o in data["objects"]}
            flows = []
            signs = {}
            for rec in data.get("rigidFlows", []):
                flows.append(RigidFlow(rec["id"], rec["from"], rec["to"]))
                signs[rec["id"]] = rec["sign"]
            flow_targets = {f.id: f.target for f in flows}
            moduli = []
            for rec in data.get("oneDimModuli", []):
                comps: list[IntervalComponent | CircleComponent] = []
                for c in rec.get("components", []):
                    if c.get("kind") == "circle":
                        comps.append(CircleComponent())
                        continue
                    (f1, g1), (f2, g2) = c["ends"]
                    comps.append(
                        IntervalComponent(
                            (
                                BrokenFlow(flow_targets.get(f1, "?"), f1, g1),
                                BrokenFlow(flow_targets.get(f2, "?"), f2, g2),
                            )
                        )
                    )
                moduli.append(ModuliFamily(rec["from"], rec["to"], tuple(comps)))
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise InputError(f"bad flow category payload: {exc}") from None
        cat = cls(objects, index, tuple(flows), tuple(moduli))
        return cat, OrientationData(signs)


# -- validation -------------------------------------------------------------


def validate_morse_smale(cat: FlowCategory) -> Report:
    """Check the categorical axioms: order, dimension rule, boundary matching."""
    order_fail = []
    try:
        cat._descendants
    except InvalidFlowCategoryError as exc:
        order_fail.append(str(exc))
    for f in cat.rigid_flows:
        if cat.mu(f.source) <= cat.mu(f.target):
            order_fail.append(
                f"flow {f.id!r} does not strictly lower the index "
                f"({cat.mu(f.source)} -> {cat.mu(f.target)})"
            )
    for fam in cat.moduli:
        if cat.mu(fam.source) <= cat.mu(fam.target):
            order_fail.append(
                f"family {fam.source!r} -> {fam.target!r} does not lower the index"
            )

    dim_fail = []
    for f in cat.rigid_flows:
        gap = cat.mu(f.source) - cat.mu(f.target)
        if gap != 1:
            dim_fail.append(f"rigid flow {f.id!r} spans index gap {gap}, expected 1")
    for fam in cat.moduli:
        gap = cat.mu(fam.source) - cat.mu(fam.target)
        if gap != 2:
            dim_fail.append(
                f"family {fam.source!r} -> {fam.target!r} spans index gap {gap}, expected 2"
            )

    # Every family of a pair counts: a family listed twice uses each end twice.
    boundary_fail = []
    by_index: dict[int, list[str]] = {}
    for o in cat.objects:
        by_index.setdefault(cat.mu(o), []).append(o)
    for a in cat.objects:
        for b in by_index.get(cat.mu(a) - 2, ()):
            want = sorted((bf.first, bf.second) for bf in cat.broken_flows(a, b))
            got = sorted(
                (e.first, e.second)
                for fam in cat._families.get((a, b), ())
                for comp in fam.components
                if isinstance(comp, IntervalComponent)
                for e in comp.ends
            )
            if want != got:
                missing = [p for p in want if p not in got]
                extra = [p for p in got if p not in want]
                parts = []
                if missing:
                    parts.append(f"broken flows never appearing as endpoints: {missing}")
                if extra:
                    parts.append(f"endpoints without matching broken flows: {extra}")
                dup = {p for p in got if got.count(p) > 1}
                if dup:
                    parts.append(f"endpoints used more than once: {sorted(dup)}")
                boundary_fail.append(f"pair ({a!r}, {b!r}): " + "; ".join(parts))

    return Report(
        (
            Check("partial-order", tuple(order_fail)),
            Check("dimension-rule", tuple(dim_fail)),
            Check("composition-into-boundary", tuple(boundary_fail)),
        )
    )


def check_orientation_coherence(cat: FlowCategory, orientation: OrientationData) -> Report:
    """Interval endpoints must carry cancelling sign products; totals must vanish."""
    cover_fail = []
    for f in cat.rigid_flows:
        if f.id not in orientation.signs:
            cover_fail.append(f"flow {f.id!r} has no sign")
    interval_fail = []
    total_fail = []
    if not cover_fail:
        for fam in cat.moduli:
            total = 0
            for k, comp in enumerate(fam.components):
                if isinstance(comp, CircleComponent):
                    continue
                e1, e2 = comp.ends
                p1 = orientation.sign(e1.first) * orientation.sign(e1.second)
                p2 = orientation.sign(e2.first) * orientation.sign(e2.second)
                total += p1 + p2
                if p1 + p2 != 0:
                    interval_fail.append(
                        f"family {fam.source!r} -> {fam.target!r} component {k}: "
                        f"endpoint sign products {p1} and {p2} do not cancel"
                    )
            if total != 0:
                total_fail.append(
                    f"family {fam.source!r} -> {fam.target!r}: endpoint products sum to {total}"
                )
    return Report(
        (
            Check("signs-present", tuple(cover_fail)),
            Check("interval-cancellation", tuple(interval_fail)),
            Check("family-totals", tuple(total_fail)),
        )
    )


# -- the associated chain complex -------------------------------------------


@dataclass(frozen=True)
class FloerComplexExtract:
    """Chain complex of a flow category, graded by (possibly relative) index.

    Stored degree d corresponds to relative index d + grading_offset; the
    offset is zero unless a base object pushed gradings negative in
    non-strict mode.
    """

    complex: ChainComplexData
    base_object: str | None = None
    grading_offset: int = 0


def floer_complex(
    cat: FlowCategory,
    orientation: OrientationData,
    base: str | None = None,
    strict: bool = True,
) -> FloerComplexExtract:
    """Signed rigid-flow counts as a chain complex over the integers.

    Gradings are absolute indices, or indices relative to `base` when given.
    In strict mode a base choice that makes any grading negative raises;
    otherwise the stored degrees are shifted and the offset recorded.
    """
    ms = validate_morse_smale(cat)
    if not ms.passed:
        raise InvalidFlowCategoryError(ms.summary())
    coh = check_orientation_coherence(cat, orientation)
    if not coh.passed:
        raise IncoherentOrientationError(coh.summary())

    if base is not None:
        cat.mu(base)
    if not cat.objects:
        return FloerComplexExtract(ChainComplexData(((),), ()), base, 0)
    shift = -cat.mu(base) if base is not None else 0
    degrees = {o: cat.mu(o) + shift for o in cat.objects}
    low = min(degrees.values())
    offset = 0
    if low < 0:
        if strict:
            raise NegativeRelativeIndexError(
                f"base {base!r} yields a negative relative index {low}"
            )
        offset = low
        degrees = {o: d - low for o, d in degrees.items()}
    top = max(degrees.values())
    bases = tuple(
        tuple(sorted(o for o in cat.objects if degrees[o] == i))
        for i in range(top + 1)
    )
    boundaries = []
    for i in range(1, top + 1):
        rows = []
        for b in bases[i - 1]:
            row = []
            for a in bases[i]:
                row.append(
                    sum(orientation.sign(f.id) for f in cat.flows_between(a, b))
                )
            rows.append(row)
        boundaries.append(IntegerMatrix(rows, cols=len(bases[i])))
    cx = ChainComplexData(bases, tuple(boundaries))
    return FloerComplexExtract(cx, base_object=base, grading_offset=offset)
