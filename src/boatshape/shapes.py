"""Geometry of prior parameter sets in the translated coordinate plane.

Three families of sets are supported.  Line segments and rectangles are
specified in canonical coordinates and mapped pointwise through the exact
chart from :mod:`boatshape.params`; their images are a vertical segment and a
ray-sided quadrilateral.  The boat-shaped family has exponential contours

    upper(eta0) =  a * (1 - exp(-b * (eta0 - eta0_lo))),
    lower(eta0) = -upper(eta0),

pinched to a point at the bow ``eta0_lo`` and cut vertically at the stern
``eta0_hi``.  A central mean ``y_c != 0.5`` is realized by rotating the whole
set about the apex ``(-2, 0)`` so that the ``y_c`` ray becomes the axis of
symmetry.

Updating with data translates a set rigidly; an :class:`EtaSet` therefore
stores an immutable shape spec plus the accumulated translation.  All
operations are pure functions of immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import InvalidParameterError, NumericError
from .params import BinomialData, EtaPoint, _require_finite

#: Slack applied to the defining inequalities of membership tests so that
#: boundary points survive floating round-off.
_MEMBER_TOL = 1e-9


@dataclass(frozen=True)
class BoatshapeSpec:
    """Boat-shaped set: abscissa range, half-width ``a``, bulkiness ``b``, central mean."""

    eta0_lo: float
    eta0_hi: float
    a: float
    b: float
    y_c: float = 0.5

    def __post_init__(self) -> None:
        _require_finite(
            "boat", eta0_lo=self.eta0_lo, eta0_hi=self.eta0_hi, a=self.a, b=self.b, y_c=self.y_c
        )
        if not self.eta0_lo > -2.0:
            raise InvalidParameterError(f"bow violates eta0_lo > -2: got {self.eta0_lo}")
        if not self.eta0_hi > self.eta0_lo:
            raise InvalidParameterError(
                f"stern violates eta0_hi > eta0_lo: got {self.eta0_hi} <= {self.eta0_lo}"
            )
        if not self.a > 0.0:
            raise InvalidParameterError(f"half-width violates a > 0: got {self.a}")
        if not self.b > 0.0:
            raise InvalidParameterError(f"bulkiness violates b > 0: got {self.b}")
        if not 0.0 < self.y_c < 1.0:
            raise InvalidParameterError(f"central mean violates 0 < y_c < 1: got {self.y_c}")


@dataclass(frozen=True)
class RectangleSpec:
    """Canonical-coordinate rectangle ``[n_lo, n_hi] x [y_lo, y_hi]``."""

    n_lo: float
    n_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self) -> None:
        _require_finite(
            "rectangle", n_lo=self.n_lo, n_hi=self.n_hi, y_lo=self.y_lo, y_hi=self.y_hi
        )
        if not 0.0 < self.n_lo <= self.n_hi:
            raise InvalidParameterError(
                f"strength range violates 0 < n_lo <= n_hi: got [{self.n_lo}, {self.n_hi}]"
            )
        if not 0.0 < self.y_lo <= self.y_hi < 1.0:
            raise InvalidParameterError(
                f"mean range violates 0 < y_lo <= y_hi < 1: got [{self.y_lo}, {self.y_hi}]"
            )


@dataclass(frozen=True)
class LineSegmentSpec:
    """Fixed prior strength ``n0`` with a range of prior means."""

    n0: float
    y_lo: float
    y_hi: float

    def __post_init__(self) -> None:
        _require_finite("segment", n0=self.n0, y_lo=self.y_lo, y_hi=self.y_hi)
        if not self.n0 > 0.0:
            raise InvalidParameterError(f"strength violates n0 > 0: got {self.n0}")
        if not 0.0 < self.y_lo <= self.y_hi < 1.0:
            raise InvalidParameterError(
                f"mean range violates 0 < y_lo <= y_hi < 1: got [{self.y_lo}, {self.y_hi}]"
            )


ShapeSpec = Union[BoatshapeSpec, RectangleSpec, LineSegmentSpec]
_Edge = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class EtaSet:
    """An immutable prior set plus the translation accumulated from updates.

    Direct construction performs only cheap field checks; :func:`boat_set` and
    :func:`from_record` also check exactly, in O(1) and without solving any
    tangency, that the set lies strictly inside the admissible wedge (unshifted
    rectangles and segments always do), by :func:`_require_admissible`.
    """

    spec: ShapeSpec
    shift: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        _require_finite("accumulated shift", d0=self.shift[0], d1=self.shift[1])
        if not self.shift[0] >= 0.0:
            raise InvalidParameterError(
                f"accumulated shift violates d0 >= 0: got {self.shift[0]}"
            )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of dense boundary sampling against the admissible wedge."""

    ok: bool
    worst_margin: float
    worst_point: tuple[float, float]
    samples: int


def _rotation_cs(y_c: float) -> tuple[float, float]:
    theta = math.atan(y_c - 0.5)
    return math.cos(theta), math.sin(theta)


def _turn(x, y, c: float, s: float):
    """``(x, y)``, taken from the apex, turned by the angle of cosine ``c`` and
    sine ``s``; ``-s`` turns it back."""
    if s == 0.0:
        return x, y
    return c * x - s * y, s * x + c * y


def rotate_about_apex(point: tuple[float, float], y_c: float) -> tuple[float, float]:
    """Rotate a point about ``(-2, 0)`` so the axis maps onto the ``y_c`` ray."""
    _require_finite("point", eta0=point[0], eta1=point[1])
    if not 0.0 < y_c < 1.0:
        raise InvalidParameterError(f"central mean violates 0 < y_c < 1: got {y_c}")
    x, y = _turn(point[0] + 2.0, point[1], *_rotation_cs(y_c))
    return (-2.0 + x, y)


def _frame(spec: ShapeSpec) -> tuple[float, float, float, Callable, Callable]:
    """The one definition of each family, ``(y_c, r0, r1, lower, upper)``: in
    the symmetry frame, with ``r = eta0 + 2`` the distance from the apex, the
    set is the sections from ``lower(r)`` to ``upper(r)`` over ``r`` in
    ``[r0, r1]``, turned about the apex by ``theta = atan(y_c - 1/2)``.  A boat
    is its two contours over ``[eta0_lo, eta0_hi]``; a rectangle its ``y_lo``
    and ``y_hi`` rays ``r (y - 1/2)`` over ``n0 = r`` in ``[n_lo, n_hi]``; a
    segment the flat rectangle ``n_lo = n_hi = n0``."""
    if isinstance(spec, BoatshapeSpec):
        r0, a, b = spec.eta0_lo + 2.0, spec.a, spec.b

        def upper(r):
            return a * (1.0 - np.exp(-b * (r - r0)))

        return spec.y_c, r0, spec.eta0_hi + 2.0, lambda r: -upper(r), upper
    lo, hi = spec.y_lo - 0.5, spec.y_hi - 0.5
    r0, r1 = (spec.n0, spec.n0) if isinstance(spec, LineSegmentSpec) else (spec.n_lo, spec.n_hi)
    return 0.5, r0, r1, lambda r: r * lo, lambda r: r * hi


def _require_admissible(set_: EtaSet) -> tuple[float, tuple[float, float]]:
    """The set's exact wedge margin, the least ``(eta0 + 2)/2 - |eta1|`` over
    it (eta units, as in :func:`validate`), and the point where it is reached;
    :class:`InvalidParameterError` naming both unless the margin is positive.

    Each side ``(eta0 + 2)/2 - sigma eta1`` is affine, so on the convex set it
    is least at the end of a section of :func:`_frame`: at a polygon corner, or
    on a boat where the contour ``y = sigma upper(r)`` runs parallel to it.  In
    the symmetry frame the side is ``A r - B y`` with ``A > 0``, so that is at
    ``r0 + ln(|B| a b / A) / b``, clamped to ``[r0, r1]``."""
    spec, (d0, d1) = set_.spec, set_.shift
    y_c, r0, r1, lower, upper = _frame(spec)
    if isinstance(spec, BoatshapeSpec):  # upper(r) by math: numpy's scalar exp costs more
        c, s = _rotation_cs(y_c)
        ends = []
        for sigma in (1.0, -1.0):
            ratio = (c + 0.5 * sigma * s) * spec.a / (0.5 * c - sigma * s)  # |B| a / A
            r = min(max(r0 + (math.log(ratio) + math.log(spec.b)) / spec.b, r0), r1)
            u, v = _turn(r, -sigma * spec.a * math.expm1(-spec.b * (r - r0)), c, s)
            ends.append((u - 2.0 + d0, v + d1))
    else:
        ends = [(r - 2.0 + d0, bound(r) + d1) for r in (r0, r1) for bound in (lower, upper)]
    margin, x, y = min([(0.5 * (x + 2.0) - abs(y), x, y) for x, y in ends])
    if not margin > 0.0:
        raise InvalidParameterError("set is not strictly inside the admissible wedge "
                                    f"(margin {margin:.3e} at eta = ({float(x)!r}, {float(y)!r}))")
    return margin, (x, y)


def _require_boat(spec: ShapeSpec) -> None:
    if not isinstance(spec, BoatshapeSpec):
        raise InvalidParameterError(f"a boat shape is needed: got {type(spec).__name__}")


def boat_contours(spec: BoatshapeSpec, eta0: float) -> tuple[float, float]:
    """Lower and upper contour ordinates at ``eta0``, in the unrotated frame."""
    _require_boat(spec)
    if not spec.eta0_lo <= eta0 <= spec.eta0_hi:
        raise InvalidParameterError(
            f"abscissa {eta0} outside the set range [{spec.eta0_lo}, {spec.eta0_hi}]"
        )
    _, _, _, lower, upper = _frame(spec)
    return float(lower(eta0 + 2.0)), float(upper(eta0 + 2.0))


def _edges(spec: ShapeSpec) -> tuple[_Edge, _Edge]:
    """The lower and upper edge of an unshifted set, each a map from ``u`` in
    ``[0, 1]`` to ``(eta0, eta1)`` arrays running left to right in the
    symmetry frame: the ends of the sections of :func:`_frame` over
    ``r = r0 + (r1 - r0) u``, turned onto the set.

    Invariant: every section of the set along ``v = (-sin theta, cos theta)``
    runs from ``lower(u)`` to ``upper(u)``.
    """
    y_c, r0, r1, lower, upper = _frame(spec)
    c, s = _rotation_cs(y_c)

    def edge(bound, u):
        r = r0 + (r1 - r0) * u
        x, y = _turn(r, bound(r), c, s)
        return -2.0 + x, y

    return partial(edge, lower), partial(edge, upper)


def _contour_arc(r, ab: float, b: float):
    """Arc length of the contour ``a (1 - exp(-b r))`` from the bow to the run
    ``r``, ``r + (H(ab) - H(w))/b`` with ``w = ab exp(-b r)`` and ``H(w) =
    hypot(1, w) - log1p(hypot(1, w))``, and its slope ``h = hypot(1, w)``;
    turning about the apex keeps both.  ``H(ab) - H(w) = d - log1p(d/(1 + h))``
    with ``d = hypot(1, ab) - h`` formed by ``expm1``, exact near the bow."""
    h0, h = math.hypot(1.0, ab), np.hypot(1.0, ab * np.exp(-b * r))
    d = -ab * ab * np.expm1(-2.0 * b * r) / (h0 + h)
    return r + (d - np.log1p(d / (1.0 + h))) / b, h


def _contour_run(ell, ab: float, b: float):
    """The run at which :func:`_contour_arc` reaches ``ell``, by Newton from
    ``ell / hypot(1, ab)``: the arc is increasing and concave with that slope at
    the bow, so each step rises onto the root without passing it, until none moves."""
    r = ell / math.hypot(1.0, ab)
    for _ in range(100):
        arc, slope = _contour_arc(r, ab, b)
        rise = r + np.maximum(ell - arc, 0.0) / slope
        if np.array_equal(rise, r):
            return r
        r = rise
    raise NumericError(f"contour arc length did not converge (ab = {ab!r}, b = {b!r})")


class _Piece(NamedTuple):
    """One smooth arc of a set boundary: its length, and arc length to points."""

    length: float
    func: _Edge


class _Geometry:
    """Closed boundary of an unshifted set, parametrized by arc-length fraction."""

    def __init__(self, pieces: list[_Piece]):
        self.pieces = pieces
        lens = np.array([p.length for p in pieces])
        self.total = float(lens.sum())
        self.ends = np.cumsum(lens)
        self.starts = self.ends - lens
        self.corner_ts = self.starts / self.total if self.total > 0.0 else np.zeros(1)

    def dense_ts(self, count: int) -> np.ndarray:
        """``count`` evenly spaced boundary parameters, corners added."""
        return np.unique(np.concatenate([np.arange(count) / count, self.corner_ts]))

    def points(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ts = np.asarray(ts, dtype=float) % 1.0
        if self.total == 0.0:
            # Degenerate (single-point) set: every parameter maps to the point.
            return self.pieces[0].func(np.zeros_like(ts))
        ell = ts * self.total
        idx = np.minimum(np.searchsorted(self.ends, ell, side="right"), len(self.pieces) - 1)
        x, y = np.empty_like(ell), np.empty_like(ell)
        for k, piece in enumerate(self.pieces):
            m = idx == k
            if m.any():
                x[m], y[m] = piece.func(np.clip(ell[m] - self.starts[k], 0.0, piece.length))
        return x, y


def _geometry(spec: ShapeSpec) -> _Geometry:
    """The closed boundary from the edges of :func:`_edges`: the upper edge
    forward, the straight end from ``upper(1)`` down to ``lower(1)``, the lower
    edge backward, and the straight end from ``lower(0)`` up to ``upper(0)``:
    straight lines, but for a boat's contours (:func:`_contour_arc`).  A piece
    whose two ends coincide (a boat's bow, a segment's edges) has zero length,
    as every edge runs left to right, and is left out."""
    lower, upper = _edges(spec)
    (lx, ly), (ux, uy) = lower(np.arange(2.0)), upper(np.arange(2.0))

    def line(x0, y0, x1, y1):
        """A straight piece, if it moves: its points are linear in arc length."""
        length = math.hypot(x1 - x0, y1 - y0)
        if length > 0.0:
            return _Piece(length, lambda ell: (x0 + (x1 - x0) * (ell / length),
                                               y0 + (y1 - y0) * (ell / length)))

    if isinstance(spec, BoatshapeSpec):
        ab, b, span = spec.a * spec.b, spec.b, spec.eta0_hi - spec.eta0_lo
        length = float(_contour_arc(span, ab, b)[0])
        up = _Piece(length, lambda ell: upper(_contour_run(ell, ab, b) / span))
        down = _Piece(length, lambda ell: lower(_contour_run(length - ell, ab, b) / span))
    else:
        up, down = line(ux[0], uy[0], ux[1], uy[1]), line(lx[1], ly[1], lx[0], ly[0])
    pieces = [up, line(ux[1], uy[1], lx[1], ly[1]), down, line(lx[0], ly[0], ux[0], uy[0])]
    return _Geometry([p for p in pieces if p] or [_Piece(0.0, upper)])


def _boundary_xy(set_: EtaSet, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points at parameters ``ts`` (any reals, taken mod 1), shifted frame."""
    x, y = _geometry(set_.spec).points(ts)
    return x + set_.shift[0], y + set_.shift[1]


def _contains_mask(set_: EtaSet, eta0: np.ndarray, eta1: np.ndarray) -> np.ndarray:
    """Vectorized membership: pull back the shift and the rotation into the
    frame of :func:`_frame` and test the section, with slack ``_MEMBER_TOL``."""
    y_c, r0, r1, lower, upper = _frame(set_.spec)
    c, s = _rotation_cs(y_c)
    x = np.asarray(eta0, dtype=float) - set_.shift[0] + 2.0
    r, y = _turn(x, np.asarray(eta1, dtype=float) - set_.shift[1], c, -s)
    rc = np.clip(r, r0, r1)  # far left of its bow a boat contour overflows
    near = np.abs(r - rc) <= _MEMBER_TOL
    return near & (y >= lower(rc) - _MEMBER_TOL) & (y <= upper(rc) + _MEMBER_TOL)


def contains(set_: EtaSet, p) -> bool:
    """Whether a point (an ``EtaPoint`` or a 2-sequence) belongs to the set.

    Boundary points count as inside: in the set's symmetry frame the abscissa
    range and both section bounds carry a 1e-9 slack in ``eta`` coordinates,
    so exact boundary evaluations survive round-off.  For a rectangle or
    segment that is a slack on ``eta1``, not on the prior mean.
    """
    if isinstance(p, EtaPoint):
        e0, e1 = p.eta0, p.eta1
    else:
        e0, e1 = float(p[0]), float(p[1])
    return bool(_contains_mask(set_, np.array([e0]), np.array([e1]))[0])


def boundary(set_: EtaSet, t: float) -> EtaPoint:
    """Point of the closed boundary at arc-length fraction ``t`` in ``[0, 1)``.

    The traversal starts at the bow (boat) or the top-left corner (rectangle),
    follows the upper contour left to right, the stern top to bottom, and the
    lower contour right to left; rectangles then close up their left edge and
    segments run back up.  ``t`` is proportional to arc length, exactly: each
    piece's length is closed form, with no table or cache, and the tests hold
    the arc length up to the point to ``t`` times the perimeter within 1e-12 of it.
    """
    if not 0.0 <= t < 1.0:
        raise InvalidParameterError(f"boundary parameter violates 0 <= t < 1: got {t}")
    x, y = _boundary_xy(set_, np.array([t]))
    return EtaPoint(float(x[0]), float(y[0]))


def updated(set_: EtaSet, d: BinomialData) -> EtaSet:
    """The posterior set: the same spec translated by ``(n, s - n/2)``."""
    d0, d1 = set_.shift
    return EtaSet(spec=set_.spec, shift=(d0 + d.n, d1 + d.s - 0.5 * d.n))


def validate(set_: EtaSet, samples: int = 10000) -> ValidationReport:
    """Sample the boundary densely and report the worst margin to the wedge.

    The margin of a point is ``min(eta0 + 2, (eta0 + 2)/2 - |eta1|)``.  This is a
    report, not the decision: ``ok`` can miss a violation thinner than the sample
    spacing, which the exact O(1) check behind every decision,
    :func:`_require_admissible`, refuses.  Wherever ``eta0 > -2`` that check's
    margin is in the same unit, and the sampled one exceeds it by at most
    ``0.56`` of the sample spacing.  Never raises; degenerate or misplaced sets
    come back as reports.
    """
    geom = _geometry(set_.spec)
    ts = geom.dense_ts(samples)
    x, y = (v + d for v, d in zip(geom.points(ts), set_.shift))
    margins = np.minimum(x + 2.0, 0.5 * (x + 2.0) - np.abs(y))
    i = int(np.argmin(margins))
    return ValidationReport(
        ok=bool(margins[i] > 0.0),
        worst_margin=float(margins[i]),
        worst_point=(float(x[i]), float(y[i])),
        samples=len(ts),
    )


def boat_set(
    eta0_lo: float, eta0_hi: float, a: float, b: float, y_c: float = 0.5
) -> EtaSet:
    """Build a boat-shaped prior set, refused unless strictly inside the wedge."""
    set_ = EtaSet(BoatshapeSpec(eta0_lo, eta0_hi, a, b, y_c))
    _require_admissible(set_)
    return set_


def rectangle_set(n_lo: float, n_hi: float, y_lo: float, y_hi: float) -> EtaSet:
    """Build a canonical rectangle set (always inside the wedge)."""
    return EtaSet(RectangleSpec(n_lo, n_hi, y_lo, y_hi))


def segment_set(n0: float, y_lo: float, y_hi: float) -> EtaSet:
    """Build a fixed-strength line segment set (always inside the wedge)."""
    return EtaSet(LineSegmentSpec(n0, y_lo, y_hi))


_SPEC_TYPES: dict[str, type] = {
    "boat": BoatshapeSpec,
    "rectangle": RectangleSpec,
    "segment": LineSegmentSpec,
}
_SPEC_FIELDS: dict[str, tuple[str, ...]] = {
    kind: tuple(f.name for f in fields(cls)) for kind, cls in _SPEC_TYPES.items()
}


def to_record(set_: EtaSet) -> dict[str, float | str]:
    """Flatten a set to a key-value record (kind, numeric fields, shift)."""
    for kind, cls in _SPEC_TYPES.items():
        if isinstance(set_.spec, cls):
            values = {f.name: getattr(set_.spec, f.name) for f in fields(cls)}
            return {"kind": kind, **values, "shift0": set_.shift[0], "shift1": set_.shift[1]}
    raise InvalidParameterError(f"unknown shape spec type: {type(set_.spec).__name__}")


def from_record(record: dict[str, float | str], check: bool = True) -> EtaSet:
    """Rebuild a set from a flat record; ``check=True`` refuses sets outside the wedge."""
    rec = dict(record)
    kind = rec.pop("kind", None)
    if kind not in _SPEC_TYPES:
        raise InvalidParameterError(
            f"record kind must be one of {sorted(_SPEC_TYPES)}: got {kind!r}"
        )
    values = {}
    for key, value in rec.items():
        try:
            values[key] = float(value)
        except (TypeError, ValueError):
            raise InvalidParameterError(f"record value {key} = {value!r} is not a number") from None
    shift = (values.pop("shift0", 0.0), values.pop("shift1", 0.0))
    names = _SPEC_FIELDS[kind]
    missing = [name for name in names if name not in values]
    if missing:
        raise InvalidParameterError(f"record for kind={kind} is missing {missing}")
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise InvalidParameterError(f"record for kind={kind} has unknown keys {unknown}")
    set_ = EtaSet(spec=_SPEC_TYPES[kind](**values), shift=shift)
    if check:
        _require_admissible(set_)
    return set_
