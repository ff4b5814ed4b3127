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
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import InvalidParameterError
from .params import BinomialData, EtaPoint, _require_finite

#: Samples per boundary piece used to estimate arc length for the closed
#: boundary parametrization.
_ARC_NODES = np.linspace(0.0, 1.0, 1024)
#: Coarse boundary scan density used by the numeric optimizers.
_SCAN = 4096
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


@dataclass(frozen=True)
class EtaSet:
    """An immutable prior set plus the translation accumulated from updates.

    Direct construction performs only cheap field checks; use the
    :func:`boat_set` / :func:`rectangle_set` / :func:`segment_set` factories
    (or :func:`from_record`) to get construction-time containment validation.
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


def rotate_about_apex(point: tuple[float, float], y_c: float) -> tuple[float, float]:
    """Rotate a point about ``(-2, 0)`` so the axis maps onto the ``y_c`` ray."""
    if not 0.0 < y_c < 1.0:
        raise InvalidParameterError(f"central mean violates 0 < y_c < 1: got {y_c}")
    c, s = _rotation_cs(y_c)
    dx = point[0] + 2.0
    return (-2.0 + c * dx - s * point[1], s * dx + c * point[1])


def boat_contours(spec: BoatshapeSpec, eta0: float) -> tuple[float, float]:
    """Lower and upper contour ordinates at ``eta0``, in the unrotated frame."""
    if not spec.eta0_lo <= eta0 <= spec.eta0_hi:
        raise InvalidParameterError(
            f"abscissa {eta0} outside the set range [{spec.eta0_lo}, {spec.eta0_hi}]"
        )
    upper = spec.a * (1.0 - math.exp(-spec.b * (eta0 - spec.eta0_lo)))
    return -upper, upper


class _Piece:
    """One smooth arc of a set boundary with its polyline arc-length table."""

    def __init__(self, func: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]):
        self.func = func
        x, y = func(_ARC_NODES)
        seg = np.hypot(np.diff(x), np.diff(y))
        self.cum = np.concatenate([[0.0], np.cumsum(seg)])
        self.length = float(self.cum[-1])


class _Geometry:
    """Closed boundary of an unshifted set, parametrized by arc-length fraction."""

    def __init__(self, pieces: list[_Piece]):
        self.pieces = pieces
        lens = np.array([p.length for p in pieces])
        self.total = float(lens.sum())
        self.ends = np.cumsum(lens)
        self.starts = self.ends - lens
        if self.total > 0.0:
            self.corner_ts = self.starts / self.total
        else:
            self.corner_ts = np.zeros(1)
        self.scan_ts = np.unique(
            np.concatenate([np.arange(_SCAN) / _SCAN, self.corner_ts])
        )
        self.scan_xy = self.points(self.scan_ts)

    def points(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ts = np.asarray(ts, dtype=float) % 1.0
        if self.total == 0.0:
            # Degenerate (single-point) set: every parameter maps to the point.
            return self.pieces[0].func(np.zeros_like(ts))
        ell = ts * self.total
        idx = np.clip(
            np.searchsorted(self.ends, ell, side="right"), 0, len(self.pieces) - 1
        )
        x = np.empty_like(ell)
        y = np.empty_like(ell)
        for k, piece in enumerate(self.pieces):
            m = idx == k
            if not m.any():
                continue
            if piece.length > 0.0:
                u = np.interp(ell[m] - self.starts[k], piece.cum, _ARC_NODES)
            else:
                u = np.zeros(int(m.sum()))
            px, py = piece.func(u)
            x[m] = px
            y[m] = py
        return x, y


@lru_cache(maxsize=128)
def _geometry(spec: ShapeSpec) -> _Geometry:
    if isinstance(spec, BoatshapeSpec):
        lo, hi, a, b = spec.eta0_lo, spec.eta0_hi, spec.a, spec.b
        c, s = _rotation_cs(spec.y_c)

        def rot(x, y):
            dx = x + 2.0
            return -2.0 + c * dx - s * y, s * dx + c * y

        def contour(x):
            return a * (1.0 - np.exp(-b * (x - lo)))

        def upper(u):
            x = lo + (hi - lo) * u
            return rot(x, contour(x))

        def stern(u):
            top = a * (1.0 - math.exp(-b * (hi - lo)))
            return rot(np.full_like(u, hi), top * (1.0 - 2.0 * u))

        def lower(u):
            x = hi - (hi - lo) * u
            return rot(x, -contour(x))

        return _Geometry([_Piece(upper), _Piece(stern), _Piece(lower)])

    if isinstance(spec, RectangleSpec):
        nlo, nhi, ylo, yhi = spec.n_lo, spec.n_hi, spec.y_lo, spec.y_hi

        def top(u):
            n = nlo + (nhi - nlo) * u
            return n - 2.0, n * (yhi - 0.5)

        def right(u):
            yv = yhi - (yhi - ylo) * u
            return np.full_like(u, nhi - 2.0), nhi * (yv - 0.5)

        def bottom(u):
            n = nhi - (nhi - nlo) * u
            return n - 2.0, n * (ylo - 0.5)

        def left(u):
            yv = ylo + (yhi - ylo) * u
            return np.full_like(u, nlo - 2.0), nlo * (yv - 0.5)

        return _Geometry([_Piece(top), _Piece(right), _Piece(bottom), _Piece(left)])

    n0, ylo, yhi = spec.n0, spec.y_lo, spec.y_hi

    def down(u):
        return np.full_like(u, n0 - 2.0), n0 * (yhi - 0.5) - u * n0 * (yhi - ylo)

    def up(u):
        return np.full_like(u, n0 - 2.0), n0 * (ylo - 0.5) + u * n0 * (yhi - ylo)

    return _Geometry([_Piece(down), _Piece(up)])


def _boundary_xy(set_: EtaSet, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points at parameters ``ts`` (any reals, taken mod 1), shifted frame."""
    x, y = _geometry(set_.spec).points(ts)
    return x + set_.shift[0], y + set_.shift[1]


def _scan_xy(set_: EtaSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached coarse boundary scan (parameters, abscissae, ordinates), shifted frame."""
    geom = _geometry(set_.spec)
    x, y = geom.scan_xy
    return geom.scan_ts, x + set_.shift[0], y + set_.shift[1]


def _contains_mask(
    set_: EtaSet, eta0: np.ndarray, eta1: np.ndarray, tol: float = _MEMBER_TOL
) -> np.ndarray:
    """Vectorized membership: pull back the shift (and rotation) and test the
    defining inequalities with slack ``tol``."""
    x = np.asarray(eta0, dtype=float) - set_.shift[0]
    y = np.asarray(eta1, dtype=float) - set_.shift[1]
    spec = set_.spec
    if isinstance(spec, BoatshapeSpec):
        if spec.y_c != 0.5:
            c, s = _rotation_cs(spec.y_c)
            dx = x + 2.0
            x = -2.0 + c * dx + s * y
            y = -s * dx + c * y
        dx = x - spec.eta0_lo
        contour = spec.a * (1.0 - np.exp(-spec.b * np.maximum(dx, 0.0)))
        return (dx >= -tol) & (x <= spec.eta0_hi + tol) & (np.abs(y) <= contour + tol)
    n0 = x + 2.0
    ok = n0 > 0.0
    yv = y / np.where(ok, n0, 1.0) + 0.5
    if isinstance(spec, RectangleSpec):
        return (
            ok
            & (n0 >= spec.n_lo - tol)
            & (n0 <= spec.n_hi + tol)
            & (yv >= spec.y_lo - tol)
            & (yv <= spec.y_hi + tol)
        )
    return (
        ok
        & (np.abs(n0 - spec.n0) <= tol)
        & (yv >= spec.y_lo - tol)
        & (yv <= spec.y_hi + tol)
    )


def contains(set_: EtaSet, p) -> bool:
    """Whether a point (an ``EtaPoint`` or a 2-sequence) belongs to the set.

    Boundary points count as inside; the defining inequalities carry a
    1e-9 slack so exact boundary evaluations survive round-off.
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
    segments run back up.  ``t`` is proportional to arc length.
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

    The margin of a point is ``min(eta0 + 2, (eta0 + 2)/2 - |eta1|)``; the set
    is admissible iff the worst sampled margin is strictly positive.  Never
    raises; degenerate or misplaced sets come back as reports.
    """
    geom = _geometry(set_.spec)
    ts = np.unique(np.concatenate([np.arange(samples) / samples, geom.corner_ts]))
    x, y = _boundary_xy(set_, ts)
    margins = np.minimum(x + 2.0, 0.5 * (x + 2.0) - np.abs(y))
    i = int(np.argmin(margins))
    return ValidationReport(
        ok=bool(margins[i] > 0.0),
        worst_margin=float(margins[i]),
        worst_point=(float(x[i]), float(y[i])),
        samples=len(ts),
    )


def _checked(set_: EtaSet) -> EtaSet:
    report = validate(set_)
    if not report.ok:
        raise InvalidParameterError(
            "set exits the admissible wedge: worst margin "
            f"{report.worst_margin:.6e} at eta = ({report.worst_point[0]:.6g}, "
            f"{report.worst_point[1]:.6g})"
        )
    return set_


def boat_set(
    eta0_lo: float, eta0_hi: float, a: float, b: float, y_c: float = 0.5
) -> EtaSet:
    """Build a boat-shaped prior set, validating containment in the wedge."""
    return _checked(EtaSet(BoatshapeSpec(eta0_lo, eta0_hi, a, b, y_c)))


def rectangle_set(n_lo: float, n_hi: float, y_lo: float, y_hi: float) -> EtaSet:
    """Build a canonical rectangle set (always inside the wedge)."""
    return EtaSet(RectangleSpec(n_lo, n_hi, y_lo, y_hi))


def segment_set(n0: float, y_lo: float, y_hi: float) -> EtaSet:
    """Build a fixed-strength line segment set (always inside the wedge)."""
    return EtaSet(LineSegmentSpec(n0, y_lo, y_hi))


_SPEC_FIELDS: dict[str, tuple[str, ...]] = {
    "boat": ("eta0_lo", "eta0_hi", "a", "b", "y_c"),
    "rectangle": ("n_lo", "n_hi", "y_lo", "y_hi"),
    "segment": ("n0", "y_lo", "y_hi"),
}
_SPEC_TYPES: dict[str, type] = {
    "boat": BoatshapeSpec,
    "rectangle": RectangleSpec,
    "segment": LineSegmentSpec,
}


def to_record(set_: EtaSet) -> dict[str, float | str]:
    """Flatten a set to a key-value record (kind, numeric fields, shift)."""
    for kind, cls in _SPEC_TYPES.items():
        if isinstance(set_.spec, cls):
            record: dict[str, float | str] = {"kind": kind}
            for name in _SPEC_FIELDS[kind]:
                record[name] = getattr(set_.spec, name)
            record["shift0"] = set_.shift[0]
            record["shift1"] = set_.shift[1]
            return record
    raise InvalidParameterError(f"unknown shape spec type: {type(set_.spec).__name__}")


def from_record(record: dict[str, float | str], check: bool = True) -> EtaSet:
    """Rebuild a set from a flat record; ``check=True`` validates containment."""
    rec = dict(record)
    kind = rec.pop("kind", None)
    if kind not in _SPEC_TYPES:
        raise InvalidParameterError(
            f"record kind must be one of {sorted(_SPEC_TYPES)}: got {kind!r}"
        )
    shift = (float(rec.pop("shift0", 0.0)), float(rec.pop("shift1", 0.0)))
    fields = _SPEC_FIELDS[kind]
    missing = [name for name in fields if name not in rec]
    if missing:
        raise InvalidParameterError(f"record for kind={kind} is missing {missing}")
    unknown = sorted(set(rec) - set(fields))
    if unknown:
        raise InvalidParameterError(f"record for kind={kind} has unknown keys {unknown}")
    spec = _SPEC_TYPES[kind](**{name: float(rec[name]) for name in fields})
    set_ = EtaSet(spec=spec, shift=shift)
    if check and isinstance(spec, BoatshapeSpec):
        _checked(set_)
    return set_
