"""Touchpoints, expectation shadows, and learning-phase classification.

The posterior-mean interval of a prior set is the "shadow" the set casts from
a light source at the apex ``(-2, 0)``: the minimum and maximum of
``eta1 / (eta0 + 2) + 1/2`` over the set.  For the axis-symmetric boat shape
the extremizing abscissae (the touchpoints) solve a tangency condition that
equates an exponential with an affine function,

    exp(b * (x - L)) = F * (1 + b * (x + 2)),

where ``L`` is the translated bow and the factor ``F`` encodes how far the
set has been pushed off its symmetry axis.  In log form the difference of the
two sides is increasing and convex on ``x > -2``, so there is at most one
crossing and Newton from the stern reaches it monotonically; when the
crossing leaves the set, the touchpoint sticks to the nearer end and the
corresponding shadow bound grows linearly in the data.  Interior touchpoints
on both sides are "happy learning"; a touchpoint stuck at an end is "unhappy"
(prior-data conflict has taken over that bound).

A rotated boat is solved in its symmetry frame: rotation about the apex maps
apex rays to apex rays, so the data shift is pulled back by the rotation and
each axis-frame bound's angle is turned by ``atan(y_c - 1/2)``.  The sticking
conditions are affine in ``s`` there, so every boat's thresholds are closed forms.

Only rectangles and segments take a numeric route: a dense boundary scan (the
objective is constant on apex rays) refined by golden-section search.  Whether
a set is admissible is decided once, before any route, by the exact wedge
check of :mod:`boatshape.shapes`; the functions that only a boat has refuse
other families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, NumericError
from .params import BinomialData, _require_finite, _two_prod
from .shapes import (BoatshapeSpec, EtaSet, _frame, _geometry, _require_admissible,
                     _require_boat, _rotation_cs)

_MAX_ITER = 200
#: Coarse boundary scan density of the rectangle and segment shadow optimizer.
_SCAN = 4096
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class LearningPhase(Enum):
    HAPPY_BOTH = "HappyBoth"
    UNHAPPY_UPPER = "UnhappyUpper"
    UNHAPPY_LOWER = "UnhappyLower"
    UNHAPPY_BOTH = "UnhappyBoth"


@dataclass(frozen=True)
class ShadowResult:
    """Expectation bounds of a set, their touchpoint abscissae, and the phase."""

    y_lo: float
    y_hi: float
    tp_lo: float
    tp_hi: float
    phase: LearningPhase


@dataclass(frozen=True)
class AgreementThresholds:
    """Where each touchpoint first sticks above ``n * y_c``, and the window of
    strong prior-data agreement.

    ``s_u``: the upper touchpoint reaches the bow; ``s_l``: the lower one
    reaches the stern; ``n`` when that never happens.  Both touchpoints are
    interior for ``happy_lo < s < happy_hi = min(s_u, s_l)``; below ``n * y_c``
    the mirrored pair sets ``happy_lo`` (``0`` when neither sticks).  For
    ``y_c = 1/2`` the window is ``[n - t, t]`` with ``t = min(s_u, s_l)``.

    At the tie ``s = n * y_c`` (decided exactly, not from a rounded shift) both
    touchpoints coincide; the phase there is ``UnhappyBoth`` when they sit on
    the stern and ``HappyBoth`` otherwise, its own mirror image.
    """

    s_u: float
    s_l: float
    happy_lo: float
    happy_hi: float


def _tangency_root(ln_f: float, b: float, L: float, x: float) -> float:
    """The touchpoint at or left of ``x``: where the tangency condition in log
    form,

        h(x) = b (x - L) - ln F - log1p(b (x + 2)),

    crosses zero, or ``x`` itself when ``h(x) <= 0`` (the crossing lies beyond).

    With ``q = b (x + 2)``, ``h' = b q / (1 + q) > 0`` and
    ``h'' = b^2 / (1 + q)^2 > 0`` on ``x > -2``: ``h`` is increasing and convex,
    so Newton started where ``h > 0`` decreases onto the root and never
    overshoots it.  It stops once ``h <= 0`` or a step no longer moves ``x``.
    """
    for _ in range(_MAX_ITER):
        q = b * (x + 2.0)
        h = b * (x - L) - ln_f - math.log1p(q)
        if h <= 0.0:
            return x
        x_next = x - h * (1.0 + q) / (b * q)
        if x_next == x:
            return x
        x = x_next
    raise NumericError(f"tangency root search did not converge in {_MAX_ITER} iterations")


def _data_side(d0: float, d1: float, y: float) -> int:
    """Exact sign of ``d1 - d0 (y - 1/2)``; for a shift ``(n, s - n/2)`` that is
    the sign of ``s - n y``.  ``d0 y = prod + err`` exactly and ``fsum`` rounds
    the sum of the four exact terms correctly, so no rounding decides a tie."""
    prod, err = _two_prod(d0, y)
    r = math.fsum((d1, 0.5 * d0, -prod, -err))
    return (r > 0.0) - (r < 0.0)


def _axis_frame(
    spec: BoatshapeSpec, d0: float, d1: float, side: int
) -> tuple[float, float, float, float, bool, bool]:
    """Shadow of the unrotated boat translated by ``(d0, d1)``, where ``side``
    is the exact sign of ``d1``.

    Returns ``(y_lo, y_hi, tp_lo, tp_hi, upper_stuck, lower_stuck)`` where the
    stuck flags mark touchpoints that reached the terminal end of the set
    (the bow for the upper bound, the stern for the lower bound, mirrored for
    downward translations).  At ``side == 0`` both touchpoints solve the same
    equation, and the flags mirror themselves: both stuck when the touchpoints
    sit on the stern, neither otherwise.
    """
    if side < 0:
        y_lo, y_hi, tp_lo, tp_hi, up, low = _axis_frame(spec, d0, -d1, 1)
        return 1.0 - y_hi, 1.0 - y_lo, tp_hi, tp_lo, low, up
    a, b = spec.a, spec.b
    L = spec.eta0_lo + d0
    R = spec.eta0_hi + d0

    # Upper touchpoint, F = a / (a + d1): the crossing moves left as d1 grows
    # and sticks at the bow once h(L) >= 0; a crossing beyond the stern leaves
    # the stern corner in charge.
    upper_stuck = d1 >= a * b * (L + 2.0)
    tp_hi = L if upper_stuck else _tangency_root(-math.log1p(d1 / a), b, L, R)

    # Lower touchpoint, F = a / (a - d1): the crossing moves right and sticks
    # at the stern, which the root search returns as is once h(R) <= 0; for
    # d1 >= a the whole set sits above the axis and no crossing exists at all.
    tp_lo = R if d1 >= a else _tangency_root(-math.log1p(-d1 / a), b, L, R)
    lower_stuck = tp_lo == R
    if side == 0:
        upper_stuck = lower_stuck

    def contour(x: float) -> float:
        return a * (1.0 - math.exp(-b * (x - L)))

    y_hi = 0.5 + (d1 + contour(tp_hi)) / (tp_hi + 2.0)
    y_lo = 0.5 + (d1 - contour(tp_lo)) / (tp_lo + 2.0)
    return y_lo, y_hi, tp_lo, tp_hi, upper_stuck, lower_stuck


def _phase(upper_stuck: bool, lower_stuck: bool) -> LearningPhase:
    if upper_stuck and lower_stuck:
        return LearningPhase.UNHAPPY_BOTH
    if upper_stuck:
        return LearningPhase.UNHAPPY_UPPER
    if lower_stuck:
        return LearningPhase.UNHAPPY_LOWER
    return LearningPhase.HAPPY_BOTH


def solve_prior_upper_touchpoint(spec: BoatshapeSpec) -> float:
    """Abscissa of the prior upper touchpoint in the set's symmetry frame.

    Unique beyond the bow; returns the stern abscissa when the tangency falls
    beyond it.
    """
    _require_boat(spec)
    return _axis_frame(spec, 0.0, 0.0, 0)[3]


def _pullback(spec: BoatshapeSpec, d0: float, d1: float) -> tuple[float, float, int]:
    """A shift ``(d0, d1)`` pulled back into the boat's symmetry frame, and the
    exact side of the axis it lands on (see :func:`_data_side`).
    Rotation about the apex maps apex rays to apex rays, so the touchpoints
    and their sticking are those of the unrotated boat moved by this shift.
    Balanced data ``s = n y_c`` land exactly on the axis."""
    c, sn = _rotation_cs(spec.y_c)
    side = _data_side(d0, d1, spec.y_c)
    return c * d0 + sn * d1, (-sn * d0 + c * d1) if side else 0.0, side


def solve_posterior_touchpoints(
    spec: BoatshapeSpec, d: BinomialData
) -> tuple[float, float]:
    """Lower and upper posterior touchpoint abscissae in the symmetry frame.

    Both equal each other for balanced data ``s = n * y_c``; data below it
    are handled by the mirror symmetry of the contours.
    """
    _require_boat(spec)
    out = _axis_frame(spec, *_pullback(spec, d.n, d.s - 0.5 * d.n))
    return out[2], out[3]


def learning_phase(spec: BoatshapeSpec, d: BinomialData) -> LearningPhase:
    """Classify an update of the boat by its touchpoint sticking."""
    _require_boat(spec)
    _, _, _, _, up, low = _axis_frame(spec, *_pullback(spec, d.n, d.s - 0.5 * d.n))
    return _phase(up, low)


def _first_sticking(spec: BoatshapeSpec, n: float, tilt: float) -> tuple[float, float]:
    """First ``s >= n (1/2 + tilt)`` at which, for the boat rotated onto the
    ``1/2 + tilt`` ray, the upper touchpoint sticks at the bow and the lower
    one at the stern (``n`` where it never does).

    In the symmetry frame ``p0 = c n + sn u`` and ``p1 = -sn n + c u`` are
    affine in ``u = s - n/2``, and so are the sticking conditions of
    :func:`_axis_frame` for ``p1 >= 0``, that is ``u >= n tilt``:
    ``p1 >= a b (eta0_lo + 2 + p0)`` and, with ``e = exp(-b (eta0_hi - eta0_lo))``,
    ``p1 >= a (1 - e (1 + b (eta0_hi + 2 + p0)))``.  Each reads ``k u >= m``.
    """
    theta = math.atan(tilt)
    c, sn = math.cos(theta), math.sin(theta)
    a, b, u0 = spec.a, spec.b, n * tilt
    ab, e = a * b, math.exp(-b * (spec.eta0_hi - spec.eta0_lo))

    def first(k: float, m: float) -> float:
        if k * u0 >= m:
            return 0.5 * n + u0
        if k > 0.0 and m <= 0.5 * n * k:
            return min(0.5 * n + m / k, n)
        return n  # k <= 0: k u only falls from u0 on

    return (
        first(c - ab * sn, sn * n + ab * (spec.eta0_lo + 2.0 + c * n)),
        first(c + ab * e * sn, sn * n + a * (1.0 - e * (1.0 + b * (spec.eta0_hi + 2.0 + c * n)))),
    )


def agreement_thresholds(spec: BoatshapeSpec, n: float) -> AgreementThresholds:
    """Data thresholds where each touchpoint first sticks, in closed form.

    Above ``n * y_c`` see :func:`_first_sticking`.  Below it, reflecting
    ``eta1 -> -eta1`` maps the boat onto the ``1 - y_c`` ray and ``s`` onto
    ``n - s``, so ``happy_lo`` is ``n`` minus that boat's first sticking point.
    """
    _require_boat(spec)
    _require_finite("trial count", n=n)
    if not n >= 0.0:
        raise InvalidParameterError(f"trial count violates n >= 0: got {n}")
    s_u, s_l = _first_sticking(spec, n, spec.y_c - 0.5)
    happy_lo = n - min(_first_sticking(spec, n, 0.5 - spec.y_c))
    return AgreementThresholds(s_u, s_l, happy_lo, min(s_u, s_l))


def terminal_slopes(spec: BoatshapeSpec, n: float) -> tuple[float, float]:
    """Slopes of the two shadow bounds once both touchpoints are stuck above
    ``n * y_c``.

    The upper bound then rides the bow and the lower bound the lower stern
    corner, both rotated onto the ``y_c`` ray: with ``(c, sn)`` the cosine and
    sine of ``atan(y_c - 1/2)``, ``1/(c (eta0_lo + 2) + n)`` and
    ``1/(c (eta0_hi + 2) + sn a (1 - exp(-b (eta0_hi - eta0_lo))) + n)``.
    """
    _require_boat(spec)
    _require_finite("trial count", n=n)
    if not n >= 0.0:
        raise InvalidParameterError(f"trial count violates n >= 0: got {n}")
    c, sn = _rotation_cs(spec.y_c)
    stern = -spec.a * math.expm1(-spec.b * (spec.eta0_hi - spec.eta0_lo))
    return 1.0 / (c * (spec.eta0_lo + 2.0) + n), 1.0 / (c * (spec.eta0_hi + 2.0) + sn * stern + n)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-13) -> tuple[float, float]:
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    best_t, best_f = (c, fc) if fc >= fd else (d, fd)
    for _ in range(200):
        if hi - lo < tol:
            break
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
            if fc > best_f:
                best_t, best_f = c, fc
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
            if fd > best_f:
                best_t, best_f = d, fd
    return best_t, best_f


def _boundary_extremum(points, ts, x, y, sign: float) -> tuple[float, tuple[float, float]]:
    """Extremum of the apex-ray ratio over the boundary ``points``: the coarse
    scan ``(ts, x, y)`` plus golden-section refinement of the bracketing
    sub-arc.  Returns the ratio at the extremizer and the extremizing point."""
    vals = sign * (y / (x + 2.0))
    i = int(np.argmax(vals))
    t_prev = ts[i - 1] if i > 0 else ts[-1] - 1.0
    t_next = ts[i + 1] if i + 1 < len(ts) else ts[0] + 1.0

    def f(t: float) -> float:
        xx, yy = points(np.array([t]))
        return sign * float(yy[0] / (xx[0] + 2.0))

    t_best, f_best = _golden_max(f, float(t_prev), float(t_next))
    if vals[i] >= f_best:
        t_best, f_best = float(ts[i]), float(vals[i])
    xx, yy = points(np.array([t_best]))
    return sign * f_best, (float(xx[0]), float(yy[0]))


def _numeric_shadow(set_: EtaSet) -> ShadowResult:
    geom, (d0, d1) = _geometry(set_.spec), set_.shift

    def points(ts):
        x, y = geom.points(ts)
        return x + d0, y + d1

    ts = geom.dense_ts(_SCAN)
    scan = (ts, *points(ts))
    r_hi, p_hi = _boundary_extremum(points, *scan, 1.0)
    r_lo, p_lo = _boundary_extremum(points, *scan, -1.0)
    spec = set_.spec
    _, r0, r1, _, _ = _frame(spec)
    up = low = False  # a flat set (a segment) has no abscissa extent: nothing sticks
    if r1 > r0:
        # Along the edge of prior mean y the posterior mean falls toward the
        # stern iff s > n y.  A bound is stuck iff its terminal corner (bow for
        # the upper, stern for the lower, swapped for d1 < 0) strictly wins;
        # a flat edge is a tie and does not stick.
        side = 1 if d1 >= 0.0 else -1
        up = side * _data_side(d0, d1, spec.y_hi) > 0
        low = side * _data_side(d0, d1, spec.y_lo) > 0
    return ShadowResult(0.5 + r_lo, 0.5 + r_hi, p_lo[0], p_hi[0], _phase(up, low))


def _boat_shadow(spec: BoatshapeSpec, d0: float, d1: float) -> ShadowResult:
    """Shadow of a boat translated by ``(d0, d1)``: solved in its symmetry
    frame, each bound's angle then turned by ``theta = atan(y_c - 1/2)``."""
    y_lo, y_hi, tp_lo, tp_hi, up, low = _axis_frame(spec, *_pullback(spec, d0, d1))
    theta = math.atan(spec.y_c - 0.5)
    if theta != 0.0:
        # each touchpoint (x, (y - 1/2)(x + 2)) rotated about the apex
        c, sn = _rotation_cs(spec.y_c)
        tp_lo = -2.0 + (tp_lo + 2.0) * (c - sn * (y_lo - 0.5))
        tp_hi = -2.0 + (tp_hi + 2.0) * (c - sn * (y_hi - 0.5))
        y_lo, y_hi = (0.5 + math.tan(math.atan(y - 0.5) + theta) for y in (y_lo, y_hi))
    return ShadowResult(y_lo, y_hi, tp_lo, tp_hi, _phase(up, low))


def shadow(set_: EtaSet) -> ShadowResult:
    """Expectation bounds of a set with touchpoints and phase.

    Boats of any central mean use the analytic tangency solvers in their
    symmetry frame; only rectangle and segment images take the numeric
    boundary optimizer (the objective is a ratio of affine functions, so its
    extrema over a compact set lie on the boundary).  A set that is not
    strictly inside the admissible wedge raises :class:`InvalidParameterError`
    from the one exact check, ``shapes._require_admissible``, made first for
    every family.
    """
    _require_admissible(set_)
    if isinstance(set_.spec, BoatshapeSpec):
        return _boat_shadow(set_.spec, *set_.shift)
    return _numeric_shadow(set_)
