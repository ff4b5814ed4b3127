"""Touchpoints, expectation shadows, and learning-phase classification.

The posterior-mean interval of a prior set is the "shadow" the set casts from
a light source at the apex ``(-2, 0)``: the minimum and maximum of
``eta1 / (eta0 + 2) + 1/2`` over the set.  For the axis-symmetric boat shape
the extremizing abscissae (the touchpoints) solve a tangency condition that
equates an exponential with an affine function,

    exp(b * (x - L)) = F * (1 + b * (x + 2)),

where ``L`` is the translated bow and the factor ``F`` encodes how far the
set has been pushed off its symmetry axis.  The exponential side is convex,
so beyond the bow there is at most one crossing; when the crossing leaves the
set, the touchpoint sticks to the nearer end and the corresponding shadow
bound grows linearly in the data.  Interior touchpoints on both sides are
"happy learning"; a touchpoint stuck at an end is "unhappy" (prior-data
conflict has taken over that bound).

Rotated boats, rectangles, and segments take a numeric route: a dense scan of
the boundary (the objective is constant on apex rays, so extrema are attained
there) refined by golden-section search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, NumericError
from .params import BinomialData
from .shapes import (
    BoatshapeSpec,
    EtaSet,
    LineSegmentSpec,
    _boundary_xy,
    _rotation_cs,
    _scan_xy,
)

_ROOT_TOL = 1e-12
_MAX_ITER = 200
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
#: Proximity (in abscissa) at which a numerically located extremizer counts
#: as stuck at a set end.
_END_TOL_SCALE = 1e-6


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
    """Smallest ``s >= n/2`` at which each touchpoint sticks to a set end.

    ``s_u``: the upper touchpoint reaches the bow; ``s_l``: the lower
    touchpoint reaches the stern.  Values equal ``n`` when no sticking occurs
    within the feasible data range.
    """

    s_u: float
    s_l: float


def _tangency_g(F: float, b: float, L: float, x: float) -> float:
    t = b * (x - L)
    exp_side = math.exp(t) if t < 709.0 else math.inf  # saturate, never overflow
    return exp_side - F * (1.0 + b * (x + 2.0))


def _tangency_root(F: float, b: float, L: float, lo: float, hi: float) -> float:
    """Root of the tangency condition on a bracket with a sign change.

    Safeguarded Newton: steps that leave the bracket fall back to bisection,
    and the bracket is re-pinched from the sign of every evaluation.
    """
    g_lo = _tangency_g(F, b, L, lo)
    g_hi = _tangency_g(F, b, L, hi)
    if not (g_lo <= 0.0 <= g_hi):
        raise NumericError(
            f"tangency root not bracketed on [{lo}, {hi}]: g = ({g_lo}, {g_hi})"
        )
    # 1e-12 absolute, except where the floating-point grid itself is coarser
    tol = max(_ROOT_TOL, 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi)))
    x = 0.5 * (lo + hi)
    step_prev = hi - lo
    for _ in range(_MAX_ITER):
        gx = _tangency_g(F, b, L, x)
        if gx <= 0.0:
            lo = x
        else:
            hi = x
        if hi - lo < tol or gx == 0.0:
            break
        slope = b * math.exp(min(b * (x - L), 709.0)) - F * b
        take_newton = slope > 0.0 and math.isfinite(gx)
        if take_newton:
            step = gx / slope
            # a Newton step must stay bracketed and at least halve the
            # previous step, otherwise it can crawl along the flat tail
            take_newton = lo < x - step < hi and abs(step) < 0.5 * step_prev
        if take_newton:
            step_prev = abs(step)
            x -= step
        else:
            step_prev = 0.5 * (hi - lo)
            x = 0.5 * (lo + hi)
    else:
        raise NumericError("tangency root search did not converge in 200 iterations")
    # Newton polish down to the floating-point floor so the defining-equation
    # residual, not just the abscissa, is converged.
    x = 0.5 * (lo + hi)
    gx = _tangency_g(F, b, L, x)
    for _ in range(8):
        slope = b * math.exp(min(b * (x - L), 709.0)) - F * b
        if slope <= 0.0 or gx == 0.0 or not math.isfinite(gx):
            break
        x_next = x - gx / slope
        g_next = _tangency_g(F, b, L, x_next)
        if abs(g_next) >= abs(gx):
            break
        x, gx = x_next, g_next
    return x


def _axis_frame(
    spec: BoatshapeSpec, d0: float, d1: float
) -> tuple[float, float, float, float, bool, bool]:
    """Shadow of the unrotated boat translated by ``(d0, d1)``.

    Returns ``(y_lo, y_hi, tp_lo, tp_hi, upper_stuck, lower_stuck)`` where the
    stuck flags mark touchpoints that reached the terminal end of the set
    (the bow for the upper bound, the stern for the lower bound, mirrored for
    downward translations).
    """
    if d1 < 0.0:
        y_lo, y_hi, tp_lo, tp_hi, up, low = _axis_frame(spec, d0, -d1)
        return 1.0 - y_hi, 1.0 - y_lo, tp_hi, tp_lo, low, up
    a, b = spec.a, spec.b
    L = spec.eta0_lo + d0
    R = spec.eta0_hi + d0

    # Upper touchpoint: the crossing moves left as d1 grows and sticks at the
    # bow once the affine side starts below the exponential there.
    upper_stuck = d1 >= a * b * (L + 2.0)
    if upper_stuck:
        tp_hi = L
    else:
        F = a / (d1 + a)
        if _tangency_g(F, b, L, R) <= 0.0:
            tp_hi = R  # tangency beyond the stern; the stern corner rules
        else:
            tp_hi = _tangency_root(F, b, L, L, R)

    # Lower touchpoint: the crossing moves right and sticks at the stern; for
    # d1 >= a the whole set sits above the axis and no crossing exists at all.
    if d1 >= a:
        tp_lo = R
        lower_stuck = True
    else:
        F = a / (a - d1)
        if _tangency_g(F, b, L, R) <= 0.0:
            tp_lo = R
            lower_stuck = True
        else:
            tp_lo = _tangency_root(F, b, L, L, R)
            lower_stuck = False

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
    return _axis_frame(spec, 0.0, 0.0)[3]


def _symmetry_shift(spec: BoatshapeSpec, d: BinomialData) -> tuple[float, float]:
    """The data shift ``(n, s - n/2)`` pulled back into the boat's symmetry
    frame.  Rotation about the apex maps apex rays to apex rays, so the
    touchpoints and their sticking are those of the unrotated boat moved by
    this shift."""
    c, sn = _rotation_cs(spec.y_c)
    d0, d1 = d.n, d.s - 0.5 * d.n
    return c * d0 + sn * d1, -sn * d0 + c * d1


def solve_posterior_touchpoints(
    spec: BoatshapeSpec, d: BinomialData
) -> tuple[float, float]:
    """Lower and upper posterior touchpoint abscissae in the symmetry frame.

    Both equal each other for balanced data ``s = n/2``; data below ``n/2``
    are handled by the mirror symmetry of the contours.
    """
    out = _axis_frame(spec, *_symmetry_shift(spec, d))
    return out[2], out[3]


def learning_phase(spec: BoatshapeSpec, d: BinomialData) -> LearningPhase:
    """Classify an update of the boat by its touchpoint sticking."""
    _, _, _, _, up, low = _axis_frame(spec, *_symmetry_shift(spec, d))
    return _phase(up, low)


def _smallest_sticking_s(pred, n: float, tol: float = 1e-9) -> float:
    lo, hi = 0.5 * n, n
    if pred(lo):
        return lo
    if not pred(hi):
        return n
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def agreement_thresholds(spec: BoatshapeSpec, n: float) -> AgreementThresholds:
    """Data thresholds where each touchpoint first sticks, by bisection in ``s``.

    Sticking is monotone in ``s`` on ``[n/2, n]``, so bisection on the solver's
    own sticking flag isolates each threshold to 1e-9.  The happy-learning
    window for ``n`` trials is ``[n - t, t]`` with ``t = min(s_u, s_l)``.
    """
    if not n >= 0.0:
        raise InvalidParameterError(f"trial count violates n >= 0: got {n}")

    def upper(s: float) -> bool:
        return _axis_frame(spec, n, s - 0.5 * n)[4]

    def lower(s: float) -> bool:
        return _axis_frame(spec, n, s - 0.5 * n)[5]

    return AgreementThresholds(
        s_u=_smallest_sticking_s(upper, n), s_l=_smallest_sticking_s(lower, n)
    )


def terminal_slopes(spec: BoatshapeSpec, n: float) -> tuple[float, float]:
    """Slopes of the two shadow bounds once both touchpoints are stuck.

    The upper bound then rides the bow, the lower bound the stern, giving
    slopes ``1/(eta0_lo + n + 2)`` and ``1/(eta0_hi + n + 2)``.
    """
    if not n >= 0.0:
        raise InvalidParameterError(f"trial count violates n >= 0: got {n}")
    return 1.0 / (spec.eta0_lo + n + 2.0), 1.0 / (spec.eta0_hi + n + 2.0)


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


def _boundary_extremum(set_: EtaSet, sign: float) -> tuple[float, tuple[float, float]]:
    """Extremum of the apex-ray ratio over the boundary: coarse scan plus
    golden-section refinement of the bracketing sub-arc.  Returns the ratio at
    the extremizer and the extremizing point."""
    ts, x, y = _scan_xy(set_)
    vals = sign * (y / (x + 2.0))
    i = int(np.argmax(vals))
    t_prev = ts[i - 1] if i > 0 else ts[-1] - 1.0
    t_next = ts[i + 1] if i + 1 < len(ts) else ts[0] + 1.0

    def f(t: float) -> float:
        xx, yy = _boundary_xy(set_, np.array([t]))
        return sign * float(yy[0] / (xx[0] + 2.0))

    t_best, f_best = _golden_max(f, float(t_prev), float(t_next))
    if vals[i] >= f_best:
        t_best, f_best = float(ts[i]), float(vals[i])
    xx, yy = _boundary_xy(set_, np.array([t_best]))
    return sign * f_best, (float(xx[0]), float(yy[0]))


def _domain_guard(set_: EtaSet, samples: int = 256) -> None:
    ts = np.arange(samples) / samples
    x, y = _boundary_xy(set_, ts)
    worst = float(np.min(np.minimum(x + 2.0, 0.5 * (x + 2.0) - np.abs(y))))
    if not worst > 0.0:
        raise InvalidParameterError(
            f"set is not strictly inside the admissible wedge (margin {worst:.3e})"
        )


def _numeric_shadow(set_: EtaSet) -> ShadowResult:
    r_hi, p_hi = _boundary_extremum(set_, 1.0)
    r_lo, p_lo = _boundary_extremum(set_, -1.0)
    spec = set_.spec
    d0, d1 = set_.shift

    if isinstance(spec, LineSegmentSpec):
        up = low = False  # no abscissa extent, no sticking mechanism
    elif isinstance(spec, BoatshapeSpec):
        c, s = _rotation_cs(spec.y_c)

        def pullback_abscissa(p: tuple[float, float]) -> float:
            return -2.0 + c * (p[0] - d0 + 2.0) + s * (p[1] - d1)

        side = -s * d0 + c * d1  # off-axis component of the pulled-back shift
        first, last = spec.eta0_lo, spec.eta0_hi
        tol = _END_TOL_SCALE * (1.0 + last - first)
        up = abs(pullback_abscissa(p_hi) - (first if side >= 0.0 else last)) <= tol
        low = abs(pullback_abscissa(p_lo) - (last if side >= 0.0 else first)) <= tol
    else:
        first, last = spec.n_lo - 2.0, spec.n_hi - 2.0
        tol = _END_TOL_SCALE * (1.0 + last - first)
        if last - first <= tol:
            up = low = False
        else:
            up = abs(p_hi[0] - d0 - (first if d1 >= 0.0 else last)) <= tol
            low = abs(p_lo[0] - d0 - (last if d1 >= 0.0 else first)) <= tol

    return ShadowResult(
        y_lo=0.5 + r_lo,
        y_hi=0.5 + r_hi,
        tp_lo=p_lo[0],
        tp_hi=p_hi[0],
        phase=_phase(up, low),
    )


def shadow(set_: EtaSet) -> ShadowResult:
    """Expectation bounds of a set with touchpoints and phase.

    Axis-symmetric boats use the analytic tangency solvers; rotated boats and
    rectangle/segment images use the numeric boundary optimizer (the objective
    is a ratio of affine functions, so its extrema over a compact set lie on
    the boundary).
    """
    _domain_guard(set_)
    spec = set_.spec
    if isinstance(spec, BoatshapeSpec) and spec.y_c == 0.5:
        y_lo, y_hi, tp_lo, tp_hi, up, low = _axis_frame(
            spec, set_.shift[0], set_.shift[1]
        )
        return ShadowResult(y_lo, y_hi, tp_lo, tp_hi, _phase(up, low))
    return _numeric_shadow(set_)
