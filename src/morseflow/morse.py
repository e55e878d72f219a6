"""Numerical flow-category construction on flat tori.

Functions are exact trigonometric polynomials with rational coefficients on
T^n, n <= 3.  Critical points come from damped Newton iteration on the
gradient, seeded only from the cells of a grid that closed-form bounds on
the derivatives cannot exclude, and the same bounds certify that the list
misses none; connecting orbits from high-order Taylor steps of the negative
gradient flow, whose series a trigonometric polynomial gives in closed
form, each rigid flow integrated once; signs in closed form from the
departure geometry; and one-parameter
families on the two-torus from a partition of the departure circle of an
index-2 point into basins.

The sign of a rigid flow a -> b compares the orientation of W^u(a) with
R gamma' + T W^u(b) (Cohen, Jones & Segal, 1995), each W^u oriented by
the unstable frame of its point.  Out of a saddle, W^u is the saddle and
two flow lines oriented by w_u, its unstable direction, so the flow that
leaves along side * w_u has sign `side`.  Out of an index-2 point of T^2,
W^u is open, and the linearised flow keeps the orientation of every full
frame (its determinant is the exponential of the integrated trace), so the
frame (gamma', w_u(b)) near b is compared with the unstable frame of a
directly, with no frame carried along the path.

There is one integrator, `_Analysis.land_lanes`: many seeds run as lanes
of one lockstep, vectorized run, each lane with its own step size and its
own sense of time, and optionally a recorded trajectory.  One
eigendecomposition of the Hessians at the critical points gives
the unstable and stable frames and the sink trapping regions.  On T^2
a basin boundary direction flows into a saddle, so the boundaries are where
the saddles' stable separatrices, followed backward, cross the departure
circles, and those paths, reversed, give the rigid flows out of the
index-2 points.  The sign of a -> s also says along which of s's two
flows the arcs on either side of the boundary leave s, so each arc
carries its two ends, broken flows read off the signs with no run of
their own, and its landing class, which both ends must rest in; a
family is the arcs that rest at its sink, with their ends.
All four separatrices of every saddle, the two unstable ones forward and
the two stable ones backward, form one recorded run, and where
partitions are read the circle samples of every index-2 point ride in
it, unrecorded, to check them; only the midpoints of arcs that no sample
checks take a run of their own.  On T^3 the stable manifold of a saddle
is a surface, which no finite set of shots traces, so there only the
saddles' flows are computed, in one run.  A lane that only classifies an angle stops once it
enters a region around a sink that its flow provably never leaves, so it
gets the class it would get by running on.
The batch evaluators give each row the same bits whatever the batch, so no
result depends on which lanes share a run.  When several lanes fail, the
error raised is the one that building the flows one at a time would raise
first.

Landing basins on the departure circle are told apart by both the rest
point reached and the integer lattice offset of the unwrapped trajectory,
so distinct family components that reach the same rest point stay
distinct.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .coeff import _json_integer
from .errors import (
    EulerMismatchError,
    IncoherentOrientationError,
    InputError,
    IntegrationFailureError,
    MorseSmaleViolationError,
    NotMorseError,
    UnmatchedEndpointError,
)
from .flowcat import (
    BrokenFlow,
    FlowCategory,
    IntervalComponent,
    ModuliFamily,
    OrientationData,
    RigidFlow,
    check_orientation_coherence,
    validate_morse_smale,
)

TWO_PI = 2.0 * math.pi


# -- exact trigonometric functions ------------------------------------------


def _parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise InputError("boolean is not a coefficient")
    if not isinstance(value, (int, str, float, Fraction)):
        raise InputError(f"bad rational {value!r}")
    try:
        q = Fraction(value)
        float(q)  # the evaluators need every coefficient as a float
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"bad rational {value!r}: {exc}") from None
    return q


def _emit_rational(q: Fraction):
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class TrigTerm:
    """One term c*cos(2 pi k.x) + s*sin(2 pi k.x) with integer frequency k."""

    frequency: tuple[int, ...]
    cos_coeff: Fraction = Fraction(0)
    sin_coeff: Fraction = Fraction(0)

    def __post_init__(self):
        freq = tuple(_json_integer(k, "frequency") for k in self.frequency)
        try:
            for k in freq:
                float(k)  # the evaluators need every frequency as a float
        except OverflowError:
            raise InputError("a frequency is too large for a float") from None
        object.__setattr__(self, "frequency", freq)
        object.__setattr__(self, "cos_coeff", _parse_rational(self.cos_coeff))
        object.__setattr__(self, "sin_coeff", _parse_rational(self.sin_coeff))


@dataclass(frozen=True)
class TrigPolynomial:
    """A finite trigonometric polynomial on the flat torus T^dimension."""

    dimension: int
    terms: tuple[TrigTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "dimension", _json_integer(self.dimension, "dimension"))
        if self.dimension not in (1, 2, 3):
            raise InputError("dimension must be 1, 2, or 3")
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        for t in terms:
            if len(t.frequency) != self.dimension:
                raise InputError(
                    f"frequency {t.frequency} does not match dimension {self.dimension}"
                )
        if not any(
            any(t.frequency) and (t.cos_coeff or t.sin_coeff) for t in terms
        ):
            raise InputError("need at least one nonconstant term")

    def to_json(self) -> dict:
        return {
            "dim": self.dimension,
            "terms": [
                {
                    "freq": list(t.frequency),
                    "cos": _emit_rational(t.cos_coeff),
                    "sin": _emit_rational(t.sin_coeff),
                }
                for t in self.terms
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TrigPolynomial":
        try:
            dim = data["dim"]
            raw = data["terms"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad function payload: {exc}") from None
        if not isinstance(raw, list):
            raise InputError("function terms must be a list")
        terms = []
        for rec in raw:
            if not isinstance(rec, dict):
                raise InputError(f"function term {rec!r} is not an object")
            try:
                freq = tuple(rec["freq"])
            except (KeyError, TypeError) as exc:
                raise InputError(f"bad frequency in term {rec!r}: {exc}") from None
            terms.append(TrigTerm(freq, rec.get("cos", 0), rec.get("sin", 0)))
        return cls(dim, tuple(terms))


class _Compiled:
    """Float-compiled evaluators for one trigonometric polynomial.

    `value_batch`, `grad_batch` and `hess_batch` take points as rows; the
    lanes instead read values and Taylor series (`value_of`, `_taylor_jet`)
    off `trig_batch`, which puts the rows last.  Every evaluator gives each
    row the same bits whatever else is in the batch and whatever its memory
    layout (`_phases` reads the points row-major: on T^3 einsum adds the
    coordinates of a column-major row in another order), so a lane of the
    integrator does not depend on which other lanes are still running.
    """

    def __init__(self, f: TrigPolynomial):
        self.n = f.dimension
        self.freqs = np.array([t.frequency for t in f.terms], dtype=float)
        self.cos = np.array([float(t.cos_coeff) for t in f.terms])
        self.sin = np.array([float(t.sin_coeff) for t in f.terms])
        # Tables for the lanes, which contract over the cos and then the sin
        # of each term (`trig_batch`): `value_table` gives f in its first
        # column, and `jet_table` the velocity -grad f in its first n and
        # the rates of change of the phases in the others (`_taylor_jet`).
        # An einsum whose kept axes all have length one may regroup its sum,
        # so each table has at least two columns.
        wave = TWO_PI * self.freqs
        velocity = np.stack((-self.sin[:, None] * wave, self.cos[:, None] * wave))
        self.jet_table = np.concatenate(
            (velocity, np.einsum("ktj,uj->ktu", velocity, wave)), axis=2
        )
        self.value_table = np.zeros((2, len(wave), 2))
        self.value_table[:, :, 0] = (self.cos, self.sin)

    # The contractions are einsums, not matrix products: BLAS rounds a
    # one-row product differently from a many-row one (fused multiply-adds,
    # another summation order), while einsum treats every row alike.  With
    # the rows on its inner loop and a kept axis longer than one (the
    # tables' columns, or cos and sin in the sums over j of `_taylor_jet`),
    # an einsum adds each sum from 0.0, one term after another.

    def _phases(self, x: np.ndarray) -> np.ndarray:
        return TWO_PI * np.einsum("pj,tj->pt", np.ascontiguousarray(x), self.freqs)

    def value_batch(self, x: np.ndarray) -> np.ndarray:
        ph = self._phases(x)
        return (np.cos(ph) * self.cos + np.sin(ph) * self.sin).sum(axis=1)

    def trig_batch(self, x: np.ndarray) -> np.ndarray:
        """cos and sin of each term's phase at the rows of `x`, as (2, terms, rows).

        The rows come last, so that the contractions of `_taylor_jet` run
        their inner loops along the rows.
        """
        ph = self._phases(x).T
        cs = np.empty((2,) + ph.shape)
        np.cos(ph, out=cs[0])
        np.sin(ph, out=cs[1])
        return cs

    def value_of(self, cs: np.ndarray) -> np.ndarray:
        """Values from `trig_batch`: the cos terms, then the sin terms, added in order."""
        return np.einsum("ktl,ktu->ul", cs, self.value_table)[0]

    def grad_batch(self, x: np.ndarray) -> np.ndarray:
        ph = self._phases(x)
        w = TWO_PI * (np.cos(ph) * self.sin - np.sin(ph) * self.cos)
        return np.einsum("pt,tj->pj", w, self.freqs)

    def hess_batch(self, x: np.ndarray) -> np.ndarray:
        ph = self._phases(x)
        w = -TWO_PI * TWO_PI * (np.cos(ph) * self.cos + np.sin(ph) * self.sin)
        return np.einsum("pt,ti,tj->pij", w, self.freqs, self.freqs)


def eval_grad_hess(f: TrigPolynomial, x: Sequence[float]):
    """Value, gradient, and second-derivative matrix of f at x."""
    if len(x) != f.dimension:
        raise InputError(f"point has {len(x)} coordinates, expected {f.dimension}")
    comp = _Compiled(f)
    xv = np.asarray(x, dtype=float)[None]
    return float(comp.value_batch(xv)[0]), comp.grad_batch(xv)[0], comp.hess_batch(xv)[0]


# -- configuration and result types -----------------------------------------


@dataclass(frozen=True)
class NumericalConfig:
    """Tolerances and resolutions for the numerical pipeline."""

    grid_resolution: int = 32
    sphere_radius: float = 1e-3
    landing_radius: float = 1e-4
    step_min: float = 1e-9
    step_max: float = 5e-2
    step_tol: float = 1e-8
    max_flow_time: float = 60.0
    max_steps: int = 200000
    circle_samples: int = 64
    reverse_orientation: bool = False

    def __post_init__(self):
        # Each field takes the type of its default: the flag must be a bool,
        # counts must be integers, and everything else a finite real number.
        for spec in fields(self):
            name, value = spec.name, getattr(self, spec.name)
            if isinstance(spec.default, bool):
                if not isinstance(value, bool):
                    raise InputError(f"config field {name} must be true or false")
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InputError(f"config field {name} must be a number")
            if isinstance(spec.default, int) and not isinstance(value, numbers.Integral):
                raise InputError(f"config field {name} must be an integer")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer beyond every float
                finite = False
            if not finite:
                raise InputError(f"config field {name} must be finite")
            if value <= 0:
                raise InputError(f"config field {name} must be positive")
        if self.landing_radius >= self.sphere_radius:
            raise InputError("landing radius must be below the departure radius")
        # A step is never shorter than `step_min`, whatever its error, so a
        # largest step below it would turn error control off.
        if self.step_min > self.step_max:
            raise InputError("step_min must not exceed step_max")

    def with_overrides(self, **kwargs) -> "NumericalConfig":
        return replace(self, **kwargs)

    @classmethod
    def from_json(cls, data: dict) -> "NumericalConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        bad = set(data) - known
        if bad:
            raise InputError(f"unknown config fields: {sorted(bad)}")
        return cls(**data)


@dataclass(frozen=True)
class CriticalPoint:
    """A nondegenerate rest point of the gradient flow."""

    id: str
    position: tuple[float, ...]
    value: float
    index: int
    hessian_eigenvalues: tuple[float, ...]


@dataclass(frozen=True)
class FlowLine:
    """A rigid trajectory between critical points with its sign, read off its departure."""

    id: str
    source: str
    target: str
    sign: int
    departure_direction: tuple[float, ...]
    departure_angle: float | None
    lattice_offset: tuple[int, ...]
    trajectory: tuple[tuple[float, tuple[float, ...]], ...]


# -- torus geometry helpers -------------------------------------------------


def _wrap(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-lift residuals of displacements `d` (coordinates last) and their lengths.

    The squares are summed one coordinate after another, so a length has
    the same bits whatever else shares the call.
    """
    r = np.rint(d)  # np.round without its Python wrapper: the same bits
    np.subtract(d, r, out=r)
    d2 = r[..., 0] * r[..., 0]
    for j in range(1, d.shape[-1]):
        rj = r[..., j]
        d2 += rj * rj
    return r, np.sqrt(d2)


def torus_distance(x: Sequence[float], p: Sequence[float]) -> float:
    if len(x) != len(p):
        raise InputError(f"points have {len(x)} and {len(p)} coordinates")
    return float(_wrap(np.subtract(x, p, dtype=float))[1])


class _Landing(NamedTuple):
    """Where one lane came to rest; its trajectory only if asked for."""

    point: CriticalPoint
    offset: tuple[int, ...]
    state: np.ndarray
    trajectory: tuple[tuple[float, tuple[float, ...]], ...] | None


class _Arc(NamedTuple):
    """An arc of a departure circle, and its broken ends at its start and end boundaries."""

    start: float
    end: float
    landing_class: tuple[str, tuple[int, ...]]
    ends: tuple[BrokenFlow, BrokenFlow]


def _rests_too_high(p: CriticalPoint, q: CriticalPoint) -> MorseSmaleViolationError:
    return MorseSmaleViolationError(
        f"trajectory from {p.id} reached {q.id} of index {q.index} >= {p.index}"
    )


def _named(flows: Iterable[FlowLine]) -> list[FlowLine]:
    """`flows` in order, flow k between the same two points named source>target#k."""
    counts: dict[tuple[str, str], int] = {}
    named = []
    for fl in flows:
        k = counts.get((fl.source, fl.target), 0)
        counts[fl.source, fl.target] = k + 1
        named.append(replace(fl, id=f"{fl.source}>{fl.target}#{k}"))
    return named


def _orientation(basis: np.ndarray, frame: np.ndarray, flow: str) -> int:
    """Sign of the determinant of `frame` in `basis`; a near-tie raises."""
    det = float(np.linalg.det(np.linalg.solve(basis, frame)))
    if abs(det) < 1e-6:
        raise MorseSmaleViolationError(f"ambiguous frame comparison along {flow}")
    return 1 if det > 0 else -1


def _ok(got):
    """A lane outcome, raised if it is an error."""
    if isinstance(got, Exception):
        raise got
    return got


# -- critical point search --------------------------------------------------


def _dedupe(pts: np.ndarray, gnorms: np.ndarray, radius: float) -> list[int]:
    """Rows of `pts` that stand for distinct points, one row per point.

    In row order, each row joins the first kept row within `radius` and
    takes its place if its gradient norm is smaller; a row that joins none
    is kept.  The rows are walked one at a time, each against the kept rows.
    A row equal to the row before it, with a gradient norm no smaller, is
    skipped: it would join what that row joined, whose norm is no larger,
    and replace nothing.  Newton's convergents repeat exactly (the 648
    candidates of the T^3 cosine sum hold 8 distinct rows), and the search
    sorts them by position, then gradient norm, so every repeat is skipped.
    """
    rows, norms = pts.tolist(), gnorms.tolist()
    kept = np.empty_like(pts)  # pts[reps], kept in step with reps
    reps: list[int] = []
    for i, row in enumerate(rows):
        if i and row == rows[i - 1] and norms[i] >= norms[i - 1]:
            continue
        near = np.flatnonzero(_wrap(pts[i] - kept[: len(reps)])[1] <= radius)
        if not len(near):
            kept[len(reps)] = pts[i]
            reps.append(i)
        elif norms[i] < norms[reps[near[0]]]:
            kept[near[0]] = pts[i]
            reps[near[0]] = i
    return reps


def _derivative_bounds(comp: _Compiled) -> tuple[float, float]:
    """Bounds M2 on the norm of Hess f and M3 on its third derivative, over the whole torus.

    A term c cos(2 pi k.x) + s sin(2 pi k.x) has second derivative
    -(2 pi)^2 (k k^T)(c cos + s sin), of norm at most |(c, s)| (2 pi |k|)^2,
    and a third derivative that takes any three unit vectors to at most
    (|c| + |s|) (2 pi |k|)^3, so Hess f moves by at most M3 |x - y| from y
    to x; M2 and M3 sum these over the terms.
    """
    wave = TWO_PI * np.linalg.norm(comp.freqs, axis=1)
    m2 = float((np.hypot(comp.cos, comp.sin) * wave**2).sum())
    m3 = float(((np.abs(comp.cos) + np.abs(comp.sin)) * wave**3).sum())
    return m2, m3


def find_critical_points(
    f: TrigPolynomial, cfg: NumericalConfig = NumericalConfig()
) -> list[CriticalPoint]:
    """Locate all critical points, and certify that none is missing.

    The grid of `grid_resolution`^n points k / res cuts the torus into
    cubes, one around each point.  A cube whose centre gradient exceeds
    what the Hessian bound M2 lets the gradient change across it holds no
    critical point, so damped Newton iteration runs only from the centres
    of the other cubes, the live cells.  The certificate then covers every
    live cell by the ball of a found point p of radius mu_p / M3, mu_p its
    smallest |Hessian eigenvalue|, which holds no other critical point;
    cells that neither test settles are split (`_certify`).

    Raises InputError when the grid would hold more than `_GRID_POINTS_MAX`
    points, NotMorseError when a converged point has a near-singular second
    derivative, and EulerMismatchError when the list is not certified
    complete or signed counts fail to cancel (a symptom of missed points;
    raise the grid resolution).
    """
    comp = _Compiled(f)
    n = f.dimension
    res = cfg.grid_resolution
    if res**n > _GRID_POINTS_MAX:
        raise InputError(
            f"grid_resolution {res} gives {res}^{n} seed points, above the "
            f"ceiling {_GRID_POINTS_MAX}"
        )
    axes = [np.arange(res) / res] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    m2, m3 = _derivative_bounds(comp)
    rho = _half_diagonal(n, 0.5 / res)
    live = [
        _live(comp.grad_batch(grid[i : i + _GRID_BLOCK]), rho, m2)
        for i in range(0, len(grid), _GRID_BLOCK)
    ]
    cells = grid[np.concatenate(live)]
    x = cells.copy()
    active = np.ones(len(x), dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        g = comp.grad_batch(x)
        gnorm = np.linalg.norm(g, axis=1)
        work = active & (gnorm > _NEWTON_TOL)
        if not work.any():
            break
        h = comp.hess_batch(x[work])
        dets = np.linalg.det(h)
        ok = np.abs(dets) > 1e-300
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

    g = comp.grad_batch(x)
    gnorm = np.linalg.norm(g, axis=1)
    keep = active & (gnorm <= _GRAD_TOL)
    # Candidates sorted by coordinates, then gradient norm: np.mod has the
    # bits of Python's float %, and lexsort takes its last key first.
    pts, gnorms = np.mod(x[keep], 1.0), gnorm[keep]
    order = np.lexsort((gnorms, *pts.T[::-1]))
    pts, gnorms = pts[order], gnorms[order]
    xs = pts[_dedupe(pts, gnorms, _DEDUPE_RADIUS)]
    eigs = np.linalg.eigvalsh(comp.hess_batch(xs))
    values = comp.value_batch(xs)
    enriched = []
    for pt, value, e in zip(map(tuple, xs.tolist()), values.tolist(), eigs):
        if np.min(np.abs(e)) < _NONDEG_TOL:
            raise NotMorseError(
                f"degenerate critical point near {tuple(round(v, 9) for v in pt)}: "
                f"second-derivative eigenvalues {e.tolist()}"
            )
        enriched.append((pt, value, int(np.sum(e < 0.0)), tuple(e.tolist())))

    _certify(comp, cells, 0.5 / res, xs, np.abs(eigs).min(axis=1), m2, m3)
    euler = sum((-1) ** e[2] for e in enriched)
    if euler != 0:
        raise EulerMismatchError(
            f"signed critical point count is {euler}, expected 0; "
            "raise grid_resolution"
        )

    enriched.sort(key=lambda e: (-e[2], tuple(round(v, 9) for v in e[0])))
    out = []
    counters: dict[int, int] = {}
    for pt, val, index, eigs in enriched:
        k = counters.get(index, 0)
        counters[index] = k + 1
        out.append(CriticalPoint(f"p{index}.{k}", pt, val, index, eigs))
    return out


# The certificate of the critical-point search (the exclusion and inclusion
# tests of interval Newton methods: Moore, Kearfott & Cloud, Introduction to
# Interval Analysis, 2009, ch. 8; Tucker, Validated Numerics, 2011).  The
# half-diagonal sqrt(n) w of a cube of half-width w is inflated by
# `_CELL_INFLATION`, far above the rounding of its centre (k / res, or a
# split's centre, each within a few 2^-53 of its exact value per coordinate)
# and of a distance or radius below 1, so the cubes of the computed centres
# still cover the torus and the covering test errs on the safe side.
# `_ROUNDING_SLACK` M2, some 4.5e6 ulps of M2, bounds the rounding of a
# computed gradient and of a computed Hessian eigenvalue: the phase 2 pi k.x
# is within a few ulps of 2 pi |k| sqrt(n), so a term of the gradient errs by
# a few ulps of sqrt(n) (2 pi |k|)^2 |(c, s)| and one of the Hessian by a few
# ulps of sqrt(n) (2 pi |k|)^3 |(c, s)|, which stays below the slack while
# the number of terms times 2 pi max |k| stays below about 1e6.  A cube is
# split at most `_CERT_DEPTH` times (the example bank needs at most 3 at
# `grid_resolution` 24 or 32), and at most `_CERT_CELLS` cubes are examined
# at one depth, so a grid far too coarse for the function's frequencies
# raises instead of splitting on.
_CELL_INFLATION = 1e-12
_ROUNDING_SLACK = 1e-9
_CERT_DEPTH = 5
_CERT_CELLS = 1 << 16


def _half_diagonal(n: int, half: float) -> float:
    """The half-diagonal of a cube of half-width `half` in n dimensions, inflated."""
    return math.sqrt(n) * half + _CELL_INFLATION


def _live(g: np.ndarray, rho: float, m2: float) -> np.ndarray:
    """Which cubes of half-diagonal `rho`, with gradients `g` at their centres, may hold a critical point.

    Across such a cube the gradient moves by at most M2 rho from its
    centre value, so a cube with |grad f| > M2 rho there holds none.
    """
    return np.linalg.norm(g, axis=1) <= m2 * rho + _ROUNDING_SLACK * m2


def _certify(
    comp: _Compiled,
    cells: np.ndarray,
    half: float,
    xs: np.ndarray,
    mu: np.ndarray,
    m2: float,
    m3: float,
) -> None:
    """Check that every critical point lies in the ball of a found point that holds no other.

    `cells` are the centres of the live cubes of half-width `half`, the
    others being excluded already (`_live`); `xs` are the found points and
    `mu` their smallest |Hessian eigenvalues|.  On the open ball B(p, r_p),
    r_p = (mu_p - slack) / M3, Hess f differs from Hess f(p) by less than
    the true mu_p in norm, so grad f is injective there and the ball holds
    at most one critical point; two found points in one ball raise.  A
    cube inside some ball is covered; a cube neither covered nor excluded
    is split into 2^n cubes of half the width.  If one is left after
    `_CERT_DEPTH` splits, a critical point may be missing, and
    EulerMismatchError names the cube.  So every critical point lies in
    the ball of a found point, and each ball holds at most one: there are
    no more critical points than found ones.
    """
    n = comp.n
    radii = (mu - _ROUNDING_SLACK * m2) / m3
    for i in range(len(xs)):
        shared = np.flatnonzero(_distances_from(xs, i) < radii[i])
        if len(shared):
            raise EulerMismatchError(
                f"found points {tuple(xs[i].tolist())} and {tuple(xs[shared[0]].tolist())} "
                "lie in one ball that holds at most one critical point"
            )
    corners = np.array(list(itertools.product((-0.5, 0.5), repeat=n)))
    for depth in range(_CERT_DEPTH + 1):
        rho = _half_diagonal(n, half)
        if depth:
            cells = cells[_live(comp.grad_batch(cells), rho, m2)]
        cells = cells[~_covered(cells, rho, xs, radii)]
        if not len(cells):
            return
        if depth == _CERT_DEPTH or len(cells) << n > _CERT_CELLS:
            centre = tuple(round(v % 1.0, 9) for v in cells[0].tolist())
            raise EulerMismatchError(
                f"no certificate for the cube of half-width {half:.3g} at {centre}: "
                "a critical point may be missing; raise grid_resolution"
            )
        cells = (cells[:, None] + half * corners).reshape(-1, n)
        half = 0.5 * half


def _covered(cells: np.ndarray, rho: float, xs: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Which balls B(cell, rho) lie inside the ball B(x, r) of some found point.

    The found points are taken one at a time, each against every cell, so
    memory grows with the cells, not with cells times points.  A ball of
    radius at most rho holds no B(cell, rho), so it is passed over.
    """
    out = np.zeros(len(cells), dtype=bool)
    for x, r in zip(xs, radii.tolist()):
        if r > rho:
            out |= _wrap(cells - x)[1] + rho < r
    return out


def _distances_from(xs: np.ndarray, i: int) -> np.ndarray:
    """Distances from row i of `xs` to every row, with inf at row i itself."""
    d = _wrap(xs[i] - xs)[1]
    d[i] = np.inf
    return d


# -- the trajectory engine --------------------------------------------------

# The order of every Taylor step: over the torus and the 25 perturbed tori
# at the default `step_tol`, orders 18 to 22 build in about the same time,
# with 575 to 463 lockstep iterations, 511 at 20.  `_crossing` cuts a bracket
# into `_CROSSING_PARTS` parts per round.
_TAYLOR_ORDER = 20
_CROSSING_PARTS = 16


def _taylor_jet(comp: _Compiled, cs: np.ndarray, sense: np.ndarray, order: int) -> np.ndarray:
    """Taylor coefficients x_1 .. x_order of the flow x' = -sigma grad f out of every row.

    `cs` is `comp.trig_batch` at the rows, the zeroth order of C_t = cos
    theta_t and S_t = sin theta_t, theta_t = 2 pi k_t.x, and `sense` holds
    each row's sigma.  For sigma = 1, with D_j = j theta_j, the recursion is

        (n+1) x_{n+1} = sum_t 2 pi k_t (c_t S_{t,n} - s_t C_{t,n}),
        D_{n+1} = 2 pi k_t . (n+1) x_{n+1},
        (n+1) C_{n+1} = -sum_{j=1}^{n+1} D_j S_{n+1-j},
        (n+1) S_{n+1} = sum_{j=1}^{n+1} D_j C_{n+1-j},

    the series of C' = -theta' S and S' = theta' C (Jorba & Zou, "A
    software package for the numerical integration of ODEs by means of
    high-order Taylor methods", Experimental Mathematics 14, 2005).  The
    flow of sense -1 runs the same path backward in time, so its x_j is
    (-1)^j x_j; each order of the recursion for -f flips by the same sign,
    so a row of sense -1 has the bits of a row of -f, but that a zero x_j
    of odd j is -0.0.  The contractions over the terms and the sums over j
    are einsums (see `_Compiled`) that add from 0.0, one term after
    another, as the same sums in plain floats do, so a row has the same
    bits in any batch.  Each order's sums over j go straight into the slot
    of the next order, through a view that swaps C and S, and are divided
    there.  Returns an array (order, rows, n), x_{j+1} at index j.
    """
    terms, rows = cs.shape[1:]
    n_x = comp.n
    e = np.empty((order, 2, terms, rows))  # E_k at order - 1 - k, so E_n .. E_0 is a slice
    w = np.empty((order, n_x + terms, rows))  # (n+1) x_{n+1} and D_{n+1} at n
    d = w[:, n_x:]
    e[-1] = cs
    rotate = np.arange(1.0, order)[:, None, None, None] * np.array([-1.0, 1.0])[:, None, None]
    for n in range(order):
        top = order - 1 - n
        np.einsum("ktl,ktu->ul", e[top], comp.jet_table, out=w[n])
        if n + 1 < order:
            np.einsum("jtl,jktl->ktl", d[: n + 1], e[top:], out=e[top - 1][::-1])
            e[top - 1] /= rotate[n]
    jet = w[:, :n_x] / np.arange(1.0, order + 1.0)[:, None, None]
    jet[::2] *= sense  # the odd orders; sense**j is 1 at the even ones
    return jet.transpose(0, 2, 1)


def _taylor_size(jet: np.ndarray, tol: float) -> np.ndarray:
    """The step of each row at which its last two terms stay within `tol`.

    That is min_j (tol/|x_j|)^(1/j) over j = p - 1, p, the step rule of
    Jorba & Zou (2005), with the largest coordinate as the norm; the
    powers are numpy's.
    """
    order = len(jet)
    last = np.abs(jet[-2:]).max(axis=2)
    with np.errstate(divide="ignore"):
        return np.minimum(
            np.power(tol / last[0], 1.0 / (order - 1)), np.power(tol / last[1], 1.0 / order)
        )


def _horner(jet: np.ndarray, x: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """x + sum_j jet[j-1] tau^j by Horner's rule, `tau` broadcast against the rows of x."""
    y = jet[-1] * tau
    t = np.empty_like(y)  # tau in the shape and memory order of y, numpy's fastest loop
    t[...] = tau
    for c in jet[-2::-1]:
        y += c
        y *= t
    y += x
    return y


def _crossing(
    comp: _Compiled, x: np.ndarray, centres: np.ndarray, h: np.ndarray, cfg: NumericalConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Where backward Taylor steps from the rows of `x` enter the departure spheres at `centres`.

    Row i steps over time h_i, from outside its sphere of radius
    `sphere_radius` to inside it, along the polynomial P_i of
    `_taylor_jet` at x_i, sense -1, the step its lane took.  Each round
    cuts the bracket [lo, hi] of a crossing time (lo outside, hi inside,
    from [0, h_i]) into `_CROSSING_PARTS` equal parts and keeps the first
    part that ends inside: four bisections at 16 parts, on P_i, with no
    gradient evaluated.  A row stops once its bracket is at most
    `step_min` wide, so its result does not depend on the other rows.
    Returns P(lo), the last point found outside, and lo.
    """
    radius = cfg.sphere_radius
    jet = _taylor_jet(comp, comp.trig_batch(x), -np.ones(len(x)), _TAYLOR_ORDER)[:, :, None]
    parts = np.arange(1.0, _CROSSING_PARTS) / _CROSSING_PARTS
    lo, hi = np.zeros_like(h), h
    wide = hi - lo > cfg.step_min
    while wide.any():
        tau = lo[:, None] + (hi - lo)[:, None] * parts
        inside = _wrap(_horner(jet, x[:, None], tau[..., None]) - centres[:, None])[1] <= radius
        first = np.where(inside.any(axis=1), inside.argmax(axis=1), len(parts))
        ends = np.column_stack([lo, tau, hi])
        rows = np.arange(len(x))
        lo = np.where(wide, ends[rows, first], lo)
        hi = np.where(wide, ends[rows, first + 1], hi)
        wide = hi - lo > cfg.step_min
    return _horner(jet[:, :, 0], x, lo[:, None]), lo


# The circle samples of a T^2 partition within this many radians of a
# boundary may rest at any sink or at that boundary's saddle: at the default
# `step_tol`, the separatrix shots of the torus and of the 25 perturbed tori
# of the example bank lie within 2.1e-7 of the 100 boundaries a bisection
# resolves (it resolves none of `perturbed_torus(3)`'s).
_SHOT_SPREAD = 1e-6
# A departure angle within this many radians below 2 pi reads as 0.  A
# symmetric function puts a boundary on the first axis of the unstable
# frame, and there rounding alone, about ulp(1) / `sphere_radius` = 1e-13
# rad at the default radius, decides whether its angle is 0 or just below
# 2 pi, and so whether its flow is named first or last.
_ANGLE_WRAP = 1e-12
# The critical-point search: Newton steps from each grid seed at most, the
# gradient norm at which a seed stops stepping, the largest gradient norm a
# candidate may keep, the radius within which two candidates are one point,
# and the smallest |Hessian eigenvalue| of a nondegenerate point.  The seed
# grid holds at most `_GRID_POINTS_MAX` points (1024 per axis on T^2, 101 on
# T^3, against the default 32).  Its gradient pass takes several floats per
# point and term, so it and the exclusion test run over `_GRID_BLOCK` rows
# at a time, which bounds their memory by the block instead of the grid; a
# default grid (at most 32^3 = 32,768 points) is one block.  Each row has the
# same bits in any batch.
_GRID_POINTS_MAX = 1 << 20
_GRID_BLOCK = 1 << 16
_NEWTON_MAX_ITER = 80
_NEWTON_TOL = 1e-12
_GRAD_TOL = 1e-10
_DEDUPE_RADIUS = 1e-7
_NONDEG_TOL = 1e-6


class _Analysis:
    """Points, frames and trap regions of one function + config, and its one separatrix run.

    `samples` says whether the circle samples ride in the separatrix run,
    for callers that read partitions; an analysis made without them has no
    `sample_angles`, and `partition` refuses it.
    """

    def __init__(
        self,
        f: TrigPolynomial,
        cfg: NumericalConfig,
        critical_points: list[CriticalPoint] | None = None,
        samples: bool = True,
    ):
        self.f = f
        self.cfg = cfg
        self.comp = _Compiled(f)
        self.n = f.dimension
        self.points = (
            list(critical_points)
            if critical_points is not None
            else find_critical_points(f, cfg)
        )
        self.by_id = {p.id: p for p in self.points}
        self.centres = np.array([p.position for p in self.points]).reshape(-1, self.n)
        c = self.centres
        self.min_separation = (
            min(float(_distances_from(c, i).min()) for i in range(len(c))) if len(c) > 1 else 1.0
        )
        if cfg.sphere_radius >= 0.5 * self.min_separation:
            raise InputError(
                "departure radius is not below half the minimal distance "
                "between critical points"
            )
        # A trapping region around each sink c, where classification lanes
        # may stop (Hirsch, Smale & Devaney, ch. 9).  M bounds the third
        # derivative along unit vectors and lam is the smallest Hessian
        # eigenvalue at c, so Hess f >= lam - M r on the ball B(c, r), and on
        # its sphere f - f(c) >= g(r) = lam r^2/2 - M r^3/6 for r <= R =
        # lam / M, where g(R) = lam R^2 / 3.  A point within rho <= R of c
        # with f below a level l, l - f(c) < g(rho), cannot leave the ball,
        # since f falls along the flow, and c is the only critical point in
        # it, so the flow rests at c.  Safety factors rho = 0.999 R and
        # l = f(c) + g(R) / 2 leave room for the rounding of f and for the
        # gradient at c, at most `_GRAD_TOL`.  Since R <= 1/(2 pi) < 1/2 the
        # nearest lift of c is the one the flow rests at.  A point that is
        # no sink gets a negative radius and no region.
        comp = self.comp
        m = _derivative_bounds(comp)[1]
        w, q = np.linalg.eigh(comp.hess_batch(self.centres))
        lam = w[:, 0]
        reach = lam / m
        self.trap_radius = np.where(lam > 0.0, 0.999 * reach, -1.0)
        self.trap_level = comp.value_batch(self.centres) + lam * reach * reach / 6.0
        # The unstable frame of each point, by id, which departures and signs
        # are read against: the eigenvectors of the negative eigenvalues, each
        # signed so that its first entry clear of zero is positive, and the
        # first flipped under `reverse_orientation`.  The same rule on the
        # positive eigenvalues, largest first, gives the stable frames that
        # backward lanes depart along: for a saddle of T^2 the unstable frame
        # of -f, with the same bits on the example bank.
        def signed(cols: np.ndarray) -> np.ndarray:
            lead = cols[np.argmax(np.abs(cols) > 1e-8, axis=0), np.arange(cols.shape[1])]
            sides = np.where(lead < 0.0, -1.0, 1.0)
            if cfg.reverse_orientation:
                sides[:1] = -sides[:1]
            return cols * sides

        self.frames = {p.id: signed(qp[:, wp < 0.0]) for p, wp, qp in zip(self.points, w, q)}
        self.stable_frames = {
            p.id: signed(qp[:, wp > 0.0][:, ::-1]) for p, wp, qp in zip(self.points, w, q)
        }
        count = cfg.circle_samples if samples else 0
        self.sample_angles = [k * (TWO_PI / count) for k in range(count)]
        self._rigid_flows: list[FlowLine] | None = None
        self._samples: dict[str, list] = {}

    # integration ----------------------------------------------------------

    def seed(self, p: CriticalPoint, direction: np.ndarray) -> list[float]:
        return (np.array(p.position) + self.cfg.sphere_radius * direction).tolist()

    def land_lanes(
        self,
        seeds: Sequence[Sequence[float]],
        record: bool | Sequence[bool] = False,
        trap: bool | Sequence[bool] = False,
        senses: Sequence[float] | None = None,
    ) -> list:
        """Follow the gradient flow from every seed until it rests, in lockstep.

        This is the package's one integrator.  Each seed is one lane of a
        single vectorized run, with its own step size and its own sense
        sigma, +1 unless `senses` gives -1: the lane follows x' = -sigma
        grad f and descends on sigma f.  Negation is exact, so a lane of
        sense -1 has the bits it would have as a forward lane of an analysis
        of -f, and a lane of sense +1 those of a run with no `senses`.

        A step is the Taylor polynomial of order `_TAYLOR_ORDER` of the
        lane's flow (`_taylor_jet`), evaluated by Horner's rule.  Its size
        comes from the last two coefficients (Jorba & Zou, 2005;
        `_taylor_size`): h = min_j (tol/|x_j|)^(1/j), j = p - 1, p, with
        tol = `step_tol`/1500, at most `step_max` and never below
        `step_min`.  The cos and sin of the phases at the new point give
        sigma f there, for the descent check, and are the next step's zeroth
        order.  A step is taken only if sigma f drops; otherwise the lane
        retries from the same point with at most half the step, and after a
        step is taken the bound is `step_max` again.

        A lane ends as a `_Landing` or as the IntegrationFailureError its
        flow raises.  At its seed and after each accepted step it checks
        flow time, landing and step budget, in that order; a step that does
        not descend at the minimal step fails the lane.  Lanes leave the run
        only at that check, a failed one at the check after its step, so
        every outcome is written in one place.  A lane lands at the first
        critical point within `landing_radius`.  `trap` and `record` are
        given per lane, or as one bool for all.  A trapping lane near none
        also lands at a sink once it is within `trap_radius` of the sink
        with its value below `trap_level`, a region its flow provably never
        leaves; its state is then not near the sink, so only a lane whose
        landing class alone is read may trap, and only a forward one.  A
        recorded lane's landing carries its trajectory: (time, point) at
        the seed and after every accepted step.  No lane depends on the
        others, its kind included, so a lane run alone gives the same bits.
        """
        cfg = self.cfg
        # `step_tol` is a step-doubling tolerance: it bounds |one step - two
        # half steps| of a fourth-order method, which is 15 = 2^4 - 1 times
        # the error of the two-half-step solution (Richardson), so step_tol/15
        # bounds a step's local error.  A Taylor step errs by about its last
        # term, and the shots read angles on the departure circle, where a
        # position error d at distance r from the index-2 point turns the
        # angle by about d/r.  The last terms are held a hundred times below
        # step_tol/15, which puts every boundary of the torus and the 25
        # perturbed tori within 1.3e-9 rad of the boundary at step_tol 1e-12,
        # against 9.9e-8 when they are held to step_tol/15 itself.
        tol = cfg.step_tol / 1500.0
        out: list = [None] * len(seeds)
        lane = np.arange(len(seeds))
        x = np.array(seeds, dtype=float).reshape(len(seeds), self.n)
        sense = np.ones(len(seeds)) if senses is None else np.array(senses, dtype=float)
        traps = np.broadcast_to(np.asarray(trap, dtype=bool), len(seeds))
        marks = np.broadcast_to(np.asarray(record, dtype=bool), len(seeds))
        cs = self.comp.trig_batch(x)
        fx = sense * self.comp.value_of(cs)
        t = np.zeros(len(seeds))
        cap = np.full(len(seeds), cfg.step_max)
        steps = np.zeros(len(seeds), dtype=int)
        fresh = np.ones(len(seeds), dtype=bool)
        failed = np.zeros(len(seeds), dtype=bool)
        paths = [[(0.0, tuple(s))] if m else None for s, m in zip(x.tolist(), marks.tolist())]

        while True:
            # A lane that has just accepted a step (or not yet taken one)
            # checks flow time, landing and step budget, in that order; a
            # lane whose last step failed leaves here too.  The tests run on
            # every row and count only for those lanes; gathering their rows
            # first would cost more calls than it saves.
            d = x[:, None, :] - self.centres
            dist = _wrap(d)[1]
            near = dist <= cfg.landing_radius
            caught = (dist <= self.trap_radius) & (fx[:, None] < self.trap_level)
            caught &= traps[lane][:, None]
            near = np.where(near.any(axis=1, keepdims=True), near, caught)
            live = fresh & (t <= cfg.max_flow_time)
            landed = live & near.any(axis=1)
            counted = live ^ landed
            steps += counted
            spent = steps > cfg.max_steps
            late = fresh ^ live
            done = late | landed | spent | failed
            if done.any():
                for k in np.flatnonzero(late):
                    out[lane[k]] = IntegrationFailureError(
                        f"no rest point reached within flow time {cfg.max_flow_time}"
                    )
                for k in np.flatnonzero(landed):
                    i = int(near[k].argmax())
                    out[lane[k]] = _Landing(
                        self.points[i],
                        tuple(int(o) for o in np.round(d[k, i])),
                        x[k].copy(),
                        None if paths[lane[k]] is None else tuple(paths[lane[k]]),
                    )
                for k in np.flatnonzero(spent):
                    out[lane[k]] = IntegrationFailureError("step budget exhausted")
                for k in np.flatnonzero(failed):
                    out[lane[k]] = IntegrationFailureError(
                        "function value failed to decrease at the minimal step"
                    )
                # `fresh` and `failed` are not kept: the step sets them anew.
                keep = ~done
                lane, x, cs, fx = lane[keep], x[keep], cs[..., keep], fx[keep]
                t, cap, sense, steps = t[keep], cap[keep], sense[keep], steps[keep]
            if not len(lane):
                return out

            jet = _taylor_jet(self.comp, cs, sense, _TAYLOR_ORDER)
            # A jet that overflows gives a NaN rule; fmin takes the bound
            # instead, and the descent check then fails down to `step_min`.
            h = np.fmax(np.fmin(cap, _taylor_size(jet, tol)), cfg.step_min)
            xn = _horner(jet, x, h[:, None])
            csn = self.comp.trig_batch(xn)
            fn = sense * self.comp.value_of(csn)
            take = fn < fx
            failed = ~take & (h <= cfg.step_min)
            rows = take[:, None]
            np.copyto(x, xn, where=rows)
            np.copyto(cs, csn, where=take)
            np.copyto(fx, fn, where=take)
            np.add(t, h, out=t, where=take)
            cap = np.where(take, cfg.step_max, 0.5 * h)
            fresh = take
            kept = take & marks[lane]
            for k, tk, xk in zip(lane[kept].tolist(), t[kept].tolist(), x[kept].tolist()):
                paths[k].append((tk, tuple(xk)))

    # rigid flows ------------------------------------------------------------

    def rigid_flows(self) -> list[FlowLine]:
        """Rigid flows out of every index-2 and index-1 point, in point order.

        `find_critical_points` lists points by falling index, so the index-2
        points come first and the saddles after them, all from one run of
        `_separatrices`.  Unless the analysis was made without `samples`,
        the circle samples of every index-2 point ride in that run, for
        `partition`; either way the flows have the same bits.  The flows
        out of the index-2 points are the saddles' stable separatrices, two
        per saddle by construction, so on T^3, which has index-2 points,
        InputError is raised.
        """
        if self._rigid_flows is None:
            if self.n == 3:
                raise InputError("rigid flows out of an index-2 point are computed on T^2")
            saddles = [p for p in self.points if p.index == 1]
            maxima = [p for p in self.points if p.index == 2] if self.n == 2 else None
            self._rigid_flows, self._samples = self._separatrices(saddles, maxima)
        return self._rigid_flows

    def max_flows(self, a: CriticalPoint) -> list[FlowLine]:
        """Rigid flows out of an index-2 point, by departure angle; on T^3 InputError."""
        return [fl for fl in self.rigid_flows() if fl.source == a.id]

    def saddle_flows(self, saddles: Sequence[CriticalPoint]) -> list[FlowLine]:
        """Rigid flows along w and -w out of each index-1 point, all in one run."""
        return self._separatrices(saddles)[0]

    def _separatrices(
        self, saddles: Sequence[CriticalPoint], maxima: Sequence[CriticalPoint] | None = None
    ) -> tuple[list[FlowLine], dict[str, list]]:
        """Rigid flows along the separatrices of `saddles`, all in one run.

        Forward lanes leave each saddle s along side * w_u, side = 1 then
        -1, w_u = `frames[s.id][:, 0]`, and record their trajectories; W^u(s)
        is s and these two flows, oriented by w_u, so each flow's sign is its
        side.  With `maxima` (on T^2), lanes of sense -1 ahead of them follow
        s's stable separatrices backward, along w_s and -w_s, w_s =
        `stable_frames[s.id][:, 0]` (`_shot_flows`), and the departures of
        each of `maxima` at the `sample_angles` (none for an analysis made
        without `samples`) ride after them as forward trapping lanes,
        unrecorded.  No lane depends on another, so the flows have the same
        bits with or without the samples.  The backward lanes' errors are
        raised first, in saddle order; then, in departure order, a failed
        forward flow raises its error, and so does one that rests no lower
        in index than its source.  The samples raise nothing here: each
        comes back as its `_landing_class`, which `partition` checks.
        Returns the rigid flows in point order, those out of the index-2
        points (none without `maxima`) and then those out of the saddles,
        each flow k between the same two points named source>target#k, and
        the sample classes of each of `maxima` by point id, empty without
        samples.
        """
        lanes = [(s, side) for s in saddles for side in (1, -1)]
        seeds = [self.seed(s, side * self.frames[s.id][:, 0]) for s, side in lanes]
        back, circle, senses = [], [], None
        if maxima is not None:
            back = [self.seed(s, side * self.stable_frames[s.id][:, 0]) for s, side in lanes]
            circle = [
                self.seed(a, self.direction_at(a, th)) for a in maxima for th in self.sample_angles
            ]
            senses = [-1.0] * len(back) + [1.0] * (len(seeds) + len(circle))
        traps = [False] * (len(back) + len(seeds)) + [True] * len(circle)
        landings = self.land_lanes(
            back + seeds + circle, record=[not t for t in traps], trap=traps, senses=senses
        )
        split = len(back) + len(seeds)
        shots = self._shot_flows(lanes, landings[: len(back)]) if maxima is not None else []
        flows = []
        for (a, side), got in zip(lanes, landings[len(back) : split]):
            landing = _ok(got)
            target = landing.point
            if target.index >= a.index:
                raise _rests_too_high(a, target)
            direction = side * self.frames[a.id][:, 0]
            flows.append(
                FlowLine(
                    id="",
                    source=a.id,
                    target=target.id,
                    sign=side,
                    departure_direction=tuple(float(v) for v in direction),
                    departure_angle=None,
                    lattice_offset=landing.offset,
                    trajectory=landing.trajectory,
                )
            )
        per = len(self.sample_angles)
        samples = {}
        for k, a in enumerate(maxima or ()):
            start = split + k * per
            samples[a.id] = [self._landing_class(a, got) for got in landings[start : start + per]]
        return shots + _named(flows), samples

    # index-2 sources --------------------------------------------------------

    def direction_at(self, a: CriticalPoint, theta: float) -> np.ndarray:
        frame = self.frames[a.id]
        return math.cos(theta) * frame[:, 0] + math.sin(theta) * frame[:, 1]

    def _landing_class(self, a: CriticalPoint, got):
        """The class of a departure out of `a` from its lane's outcome `got`.

        (point id, lattice offset) of the point it rests at, or the error
        the flow raised.
        """
        if isinstance(got, Exception):
            return got
        if got.point.index >= a.index:
            return _rests_too_high(a, got.point)
        return (got.point.id, got.offset)

    def _classify_angles(self, a: CriticalPoint, thetas: Sequence[float]) -> list:
        """`_landing_class` of each departure angle of `a`, as trapping lanes of one run."""
        seeds = [self.seed(a, self.direction_at(a, th)) for th in thetas]
        return [self._landing_class(a, got) for got in self.land_lanes(seeds, trap=True)]

    def partition(self, a: CriticalPoint) -> list[_Arc]:
        """Split the departure circle of an index-2 point of T^2 by landing class.

        The boundaries are the angles of the flows out of `a`, read off the
        saddles' stable separatrices (`_shot_flows`), and arc i, from
        boundary i to i + 1, carries its two ends, the broken flows at those
        boundaries, and takes their class; the two must agree.  Each end is
        the flow a -> s of its boundary, then one of the two flows out of
        s, and the sign of a -> s says which.  Let r and d be the radial and
        angular departure directions at the boundary, a frame of W^u(a) in
        its orientation.  The linearised flow maps r to (u - beta V d) /
        alpha, where u is the arrival velocity, V d the image of d and
        alpha > 0 a time shift, so the sign of a -> s, that of (V r, V d)
        against the basis (u / |u|, w_u) (which `_shot_flows` reads at the
        seed near s, with the same sign), is the sign of the w_u-component
        of V d, with w_u = `frames[s.id][:, 0]`, the unstable direction of
        s.  A departure just past the boundary angle thus passes s on its
        sign(a -> s) w_u side: the arc after the boundary leaves s along
        sign(a -> s) w_u, and the arc before it along -sign(a -> s) w_u.
        `_separatrices` departs along +w_u first.  The class of an end is
        (sink id, offset): the target of its flow out of s, with the
        lattice offsets of both flows summed.

        Integrated lanes check the arcs: the departures at the
        `sample_angles`, which rode in the separatrix run (an analysis made
        without `samples` has none, and InputError is raised), and one midpoint
        for each arc that holds no sample clear of every boundary, in one
        run of their own.  A sample more than `_SHOT_SPREAD` from every
        boundary must rest in its arc's class, and one within it at any
        sink or that boundary's saddle; a midpoint must rest in its arc's
        class.  Else a boundary was missed or is extra, or there is a
        near-tie, and MorseSmaleViolationError is raised, as it is when the
        circle has no boundary at all (a Morse-Smale flow on T^2 has none
        such: every index-2 disc is bounded by saddle separatrices).  The
        samples' errors come first, in angle order, then a missing
        boundary, the arcs' ends, the samples' checks and the midpoints'.
        """
        if a.index != 2 or self.n != 2:
            raise InputError("circle partition requires an index-2 source on T^2")
        if not self.sample_angles:
            raise InputError("an analysis made without circle samples has no partition")
        flows = self.rigid_flows()  # the one run, which classifies the samples too
        samples = [_ok(got) for got in self._samples[a.id]]
        firsts = self.max_flows(a)
        if not firsts:
            raise MorseSmaleViolationError(f"the departure circle of {a.id} has no basin boundary")
        ends = []  # (before, after) each boundary, each a (BrokenFlow, landing class) pair
        for first in firsts:
            plus, minus = (fl for fl in flows if fl.source == first.target)
            pair = []
            for second in (minus, plus) if first.sign > 0 else (plus, minus):
                offset = tuple(p + q for p, q in zip(first.lattice_offset, second.lattice_offset))
                broken = BrokenFlow(first.target, first.id, second.id)
                pair.append((broken, (second.target, offset)))
            ends.append(pair)
        angles = [fl.departure_angle for fl in firsts]
        arcs = []
        for i, th in enumerate(angles):
            j = (i + 1) % len(angles)
            (start, cls), (end, cls1) = ends[i][1], ends[j][0]
            if cls != cls1:
                raise MorseSmaleViolationError(
                    f"the ends of the arc of {a.id} from angle {th:.9f} rest at "
                    f"{cls} and {cls1}: a basin boundary was missed, or one is a near-tie"
                )
            arcs.append(_Arc(th, angles[j] + TWO_PI * (j == 0), cls, (start, end)))

        def off_basins(th: float, point_id: str) -> MorseSmaleViolationError:
            return MorseSmaleViolationError(
                f"the departure from {a.id} at angle {th:.9f} rests at {point_id}, "
                "off the basins of its partition: a basin boundary was missed or is extra"
            )

        starts = [arc.start for arc in arcs]
        sampled = set()
        for th, cls in zip(self.sample_angles, samples):
            near = {
                fl.target
                for fl in firsts
                if abs(math.remainder(th - fl.departure_angle, TWO_PI)) <= _SHOT_SPREAD
            }
            if near:
                if not (cls[0] in near or self.by_id[cls[0]].index == 0):
                    raise off_basins(th, cls[0])
                continue
            # The last arc wraps past 2 pi, so it also holds the angles below the first.
            k = (bisect.bisect_right(starts, th) - 1) % len(arcs)
            if cls != arcs[k].landing_class:
                raise off_basins(th, cls[0])
            sampled.add(k)
        bare = [k for k in range(len(arcs)) if k not in sampled]
        mids = [0.5 * (arcs[k].start + arcs[k].end) % TWO_PI for k in bare]
        got = [_ok(got) for got in self._classify_angles(a, mids)] if mids else []
        for k, th, cls in zip(bare, mids, got):
            if cls != arcs[k].landing_class:
                raise off_basins(th, cls[0])
        return arcs

    def _shot_flows(
        self, lanes: Sequence[tuple[CriticalPoint, int]], landings: list
    ) -> list[FlowLine]:
        """Rigid flows out of the index-2 points of T^2, from the saddles' stable separatrices.

        The stable manifold of a saddle s is s and two trajectories, each
        out of an index-2 point a across a basin boundary of its departure
        circle.  `landings` are those of the backward lanes of
        `_separatrices`, one per (saddle, side) of `lanes`: each departs s
        along side * w_s, follows the flow of -f and records its path.  A
        lane that fails raises its error, and one that rests at no index-2
        point (at a saddle: a saddle connection) raises
        MorseSmaleViolationError.  The crossing of a's departure sphere is
        found on the polynomial of the lane's step into it, to within
        `step_min` of flow time, with no gradient evaluated (`_crossing`),
        and a -> s departs from the last point found outside: its
        trajectory is the path up to there, reversed,
        time from 0, and its lattice offset the landing offset negated.  Its
        sign compares W^u(a), oriented by `frames[a.id]`, with R gamma' +
        T W^u(s), spanned at the seed by the frame (u/|u|, w_u), u = -grad f
        there and w_u = `frames[s.id][:, 0]`.  W^u(a) is open and the flow
        keeps the orientation of full frames, so that is the sign of the
        frame at the seed in `frames[a.id]`, with no frame carried along the
        path.  The flows come in point order, each point's by departure
        angle.
        """
        shots = []
        for (s, _), got in zip(lanes, landings):
            landing = _ok(got)
            a = landing.point
            if a.index != 2:
                raise MorseSmaleViolationError(
                    f"a stable separatrix of {s.id}, followed backward, rests at {a.id}, "
                    "expected an index-2 point; a saddle there is a saddle connection"
                )
            path = np.array([p for _, p in landing.trajectory])
            k = int(np.argmax(_wrap(path - a.position)[1] <= self.cfg.sphere_radius))
            shots.append((s, a, landing, k))
        centres = np.array([a.position for _, a, _, _ in shots]).reshape(-1, 2)
        x = np.array([ld.trajectory[k - 1][1] for _, _, ld, k in shots]).reshape(-1, 2)
        t = np.array([ld.trajectory[k - 1][0] for _, _, ld, k in shots])
        h = np.array([ld.trajectory[k][0] for _, _, ld, k in shots]) - t
        u = -self.comp.grad_batch(np.array([ld.trajectory[0][1] for _, _, ld, _ in shots]))
        u = u / np.linalg.norm(u, axis=1)[:, None]
        x, tau = _crossing(self.comp, x, centres, h, self.cfg)
        t = t + tau
        flows = []
        for (s, a, landing, k), r, xc, tc, us in zip(
            shots, _wrap(x - centres)[0], x, t.tolist(), u
        ):
            along, across = r @ self.frames[a.id]
            angle = math.atan2(across, along) % TWO_PI
            angle = 0.0 if angle > TWO_PI - _ANGLE_WRAP else angle
            path = [(0.0, tuple(xc.tolist()))]
            path += [(tc - tp, p) for tp, p in reversed(landing.trajectory[:k])]
            frame = np.column_stack([us, self.frames[s.id][:, 0]])
            sign = _orientation(self.frames[a.id], frame, f"{a.id}->{s.id}")
            direction = tuple(float(c) for c in self.direction_at(a, angle))
            offset = tuple(-o for o in landing.offset)
            flows.append(FlowLine("", a.id, s.id, sign, direction, angle, offset, tuple(path)))
        rank = {p.id: i for i, p in enumerate(self.points)}
        return _named(sorted(flows, key=lambda fl: (rank[fl.source], fl.departure_angle)))


# -- public operations ------------------------------------------------------


def _resolve(analysis: _Analysis, p: CriticalPoint) -> CriticalPoint:
    got = analysis.by_id.get(p.id)
    if (
        got is None
        or got.index != p.index
        or len(p.position) != analysis.n
        or _wrap(np.subtract(got.position, p.position))[1] > 1e-6
    ):
        raise InputError(f"critical point {p.id!r} does not belong to this function")
    return got


def connecting_orbits(
    f: TrigPolynomial,
    a: CriticalPoint,
    b: CriticalPoint,
    cfg: NumericalConfig = NumericalConfig(),
    critical_points: list[CriticalPoint] | None = None,
) -> list[FlowLine]:
    """Rigid flows from a to b, for an index gap of one.

    Flows out of an index-2 point are computed on T^2 only; elsewhere they
    raise InputError.  They come from the separatrix run of every saddle,
    made without the circle samples, since no partition is read.
    """
    if a.index - b.index != 1:
        raise InputError("rigid flows require an index gap of exactly one")
    analysis = _Analysis(f, cfg, critical_points, samples=False)
    a = _resolve(analysis, a)
    b = _resolve(analysis, b)
    if a.index == 1:
        flows = analysis.saddle_flows([a])
    elif a.index == 2:
        flows = analysis.max_flows(a)
    else:
        raise InputError(
            "connecting orbits are only seeded from index-1 and index-2 points"
        )
    return [fl for fl in flows if fl.target == b.id]


def moduli_family(
    f: TrigPolynomial,
    a: CriticalPoint,
    c: CriticalPoint,
    flows: list[FlowLine],
    cfg: NumericalConfig = NumericalConfig(),
    critical_points: list[CriticalPoint] | None = None,
) -> list[IntervalComponent]:
    """One-parameter family components between an index-2 point and a sink on T^2.

    Each arc of the partition of a's departure circle that rests at c is one
    component, whose ends are the arc's: they break at the saddles of its
    two boundaries, and `partition` has checked their classes against the
    arc's.  The components come from the analysis's own rigid flows.
    `flows`, as returned by `connecting_orbits`, must name every flow at
    their ends, with the same id, source and target, or
    UnmatchedEndpointError is raised.
    """
    if f.dimension != 2:
        raise InputError("one-parameter families are computed on the two-torus")
    if a.index - c.index != 2:
        raise InputError("families require an index gap of exactly two")
    analysis = _Analysis(f, cfg, critical_points)
    a, c = _resolve(analysis, a), _resolve(analysis, c)
    arcs = analysis.partition(a)
    comps = [IntervalComponent(arc.ends) for arc in arcs if arc.landing_class[0] == c.id]
    given = {(fl.id, fl.source, fl.target) for fl in flows}
    for comp in comps:
        for e in comp.ends:
            for named in ((e.first, a.id, e.via), (e.second, e.via, c.id)):
                if named not in given:
                    raise UnmatchedEndpointError(
                        f"no rigid flow {named[0]} from {named[1]} to {named[2]} "
                        "among the given flows"
                    )
    return comps


def build_flow_category(
    f: TrigPolynomial, cfg: NumericalConfig = NumericalConfig()
) -> tuple[FlowCategory, OrientationData]:
    """Construct and validate the full flow category of a function on T^1 or T^2."""
    if f.dimension > 2:
        raise InputError(
            "full flow categories are built on the one- and two-torus; on the "
            "three-torus use find_critical_points, and connecting_orbits out of "
            "index-1 points"
        )
    analysis = _Analysis(f, cfg)
    points = analysis.points
    flows = analysis.rigid_flows()
    moduli = []
    for a in (p for p in points if p.index == 2):
        arcs = analysis.partition(a)
        for c in (p for p in points if p.index == 0):
            comps = tuple(
                IntervalComponent(arc.ends) for arc in arcs if arc.landing_class[0] == c.id
            )
            if comps:
                moduli.append(ModuliFamily(a.id, c.id, comps))
    cat = FlowCategory(
        tuple(p.id for p in points),
        {p.id: p.index for p in points},
        tuple(RigidFlow(fl.id, fl.source, fl.target) for fl in flows),
        tuple(moduli),
    )
    orientation = OrientationData({fl.id: fl.sign for fl in flows})
    ms = validate_morse_smale(cat)
    if not ms.passed:
        raise MorseSmaleViolationError(ms.summary())
    coh = check_orientation_coherence(cat, orientation)
    if not coh.passed:
        raise IncoherentOrientationError(coh.summary())
    return cat, orientation


def flow_lines(
    f: TrigPolynomial, cfg: NumericalConfig = NumericalConfig()
) -> list[FlowLine]:
    """All rigid trajectories of a function on T^1 or T^2, with trajectories recorded.

    They come from one separatrix run made without the circle samples,
    since no partition is read; `build_flow_category` gives the same flows
    from its run, in which the samples ride.
    """
    if f.dimension > 2:
        raise InputError("trajectory dumps cover the one- and two-torus")
    return _Analysis(f, cfg, samples=False).rigid_flows()


# -- trajectory exports -----------------------------------------------------


def trajectory_csv(flows: Iterable[FlowLine]) -> str:
    """Plain CSV dump of all recorded trajectory samples."""
    flows = list(flows)
    dim = len(flows[0].trajectory[0][1]) if flows else 0
    header = "flow,t," + ",".join(f"x{j}" for j in range(dim))
    lines = [header]
    for fl in flows:
        for t, pos in fl.trajectory:
            coords = ",".join(f"{v % 1.0:.9f}" for v in pos)
            lines.append(f"{fl.id},{t:.9f},{coords}")
    return "\n".join(lines) + "\n"


_SVG_COLORS = ("#1b6ca8", "#a83232", "#2e8540", "#7d3ca8", "#a8742e", "#2ea89d")


def trajectories_svg(flows: Iterable[FlowLine], size: int = 480) -> str:
    """Trajectories drawn on the unit square (fundamental domain), wrap-aware."""
    flows = list(flows)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 1 1">',
        '<rect x="0" y="0" width="1" height="1" fill="white" stroke="black" '
        'stroke-width="0.002"/>',
    ]
    for i, fl in enumerate(flows):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        total = max(t for t, _ in fl.trajectory) or 1.0
        runs: list[list[tuple[float, float]]] = [[]]
        prev = None
        for t, pos in fl.trajectory:
            if len(pos) >= 2:
                pt = (pos[0] % 1.0, pos[1] % 1.0)
            else:
                pt = (pos[0] % 1.0, t / total)
            if prev is not None and (
                abs(pt[0] - prev[0]) > 0.5 or abs(pt[1] - prev[1]) > 0.5
            ):
                runs.append([])
            runs[-1].append(pt)
            prev = pt
        for run in runs:
            if len(run) < 2:
                continue
            points = " ".join(f"{x:.6f},{1.0 - y:.6f}" for x, y in run)
            out.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="0.004" '
                f'points="{points}"><title>{fl.id}</title></polyline>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
