"""Posterior quantities over parameter sets: expectation bounds, imprecision,
Beta special functions, and unions of central credibility intervals.

The imprecision ``delta`` of a set is the width of its posterior-mean
interval.  For a fixed-strength segment it reduces to
``n0 * (y_hi - y_lo) / (n0 + n)``, independent of the observed successes; for
a canonical rectangle it has a two-term closed form whose second term switches
on exactly when the observed fraction leaves the prior mean range.

A set element ``(eta0, eta1)`` indexes the Beta posterior with
``alpha = eta0/2 + 1 + eta1`` and ``beta = eta0/2 + 1 - eta1``.  Both are
affine in eta, and every Beta quantile rises with ``alpha`` and falls with
``beta``, so within any vertical section of a (convex) set the smallest lower
endpoint of a central interval sits at the bottom and the largest upper
endpoint at the top.  Credibility unions therefore search the boundary only:
a coarse scan of the closed boundary, corners included, then vectorized
refinement of the sub-arc around each extreme.

The regularized incomplete beta function ``I_x(a, b)`` takes one of two
routes, chosen from the input.  Large shapes near the mean integrate the
density over the tail beyond ``x`` by Gauss-Legendre quadrature; everywhere
else the continued fraction BFRAC of Didonato & Morris (Algorithm 708, ACM
TOMS 18(3), 1992), taken on the side of the mean where it converges, needs
tens of terms.  Both multiply by the front factor ``x^a (1-x)^b / B(a, b)``,
which is expanded about the mean with Stirling corrections and
``log1p(u) - u`` so that it keeps its digits at large shapes.  Quantiles
invert the CDF with a bracketed Newton iteration from a Cornish-Fisher start.
All of these accept arrays and iterate only the lanes that have not
converged yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError, NumericError
from .params import BinomialData, CanonicalParams, _require_finite, _two_prod
from .shapes import EtaSet, RectangleSpec, _boundary_xy, _geometry, updated
from .touchpoint import shadow

_CF_MAX_ITER = 300
_CF_EPS = 1e-15
_QUANTILE_TOL = 1e-12
_QUANTILE_MAX_ITER = 200
_SMALLEST = np.nextafter(0.0, 1.0)
#: Bernoulli coefficients of the Stirling series ``ln Gamma(z) - [(z - 1/2) ln z
#: - z + ln(2 pi)/2]`` in powers of ``1/z``; truncated, it is exact to 1e-17
#: for ``z >= _STIRLING_MIN``.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
_STIRLING_MIN = 10.0
#: Within this many standard deviations of the mean, both shapes >=
#: _QUAD_MIN_SHAPE take the quadrature route: at the mean the continued
#: fraction needs ~50 (a = b = 1e3) to over 1000 (1e8) terms, 5 sd out ~25.
_NEAR_MEAN_Z = 5.0
_QUAD_MIN_SHAPE = 1000.0
#: Gauss-Legendre nodes of the tail quadrature (24 left 7e-13 errors at
#: skewed shapes near a = 1e3, 32 leave ~3e-15).
_GL_NODES = 32
#: The tail integral stops where a Gaussian of the same sd has fallen by
#: exp(-_QUAD_LOG_CUT), stretched by _QUAD_STRETCH for the Beta's skew.
_QUAD_LOG_CUT = 50.0
_QUAD_STRETCH = 1.5
_QUAD_BLOCK = 4096
#: Credibility union search: coarse boundary scan size, then refinement
#: passes of _REFINE points over the bracket around each extreme.
_SCAN = 256
_REFINE = 64
_PASSES = 2


@dataclass(frozen=True)
class BetaShape:
    """A Beta distribution by its shape parameters ``alpha, beta > 0``."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _require_finite("shape", alpha=self.alpha, beta=self.beta)
        if not self.alpha > 0.0:
            raise InvalidParameterError(f"shape violates alpha > 0: got {self.alpha}")
        if not self.beta > 0.0:
            raise InvalidParameterError(f"shape violates beta > 0: got {self.beta}")

    @classmethod
    def from_canonical(cls, c: CanonicalParams) -> "BetaShape":
        """The Beta distribution with strength ``n0`` and mean ``y0``."""
        return cls(alpha=c.n0 * c.y0, beta=c.n0 * (1.0 - c.y0))


@dataclass(frozen=True)
class CredibilityUnion:
    """Union of central credibility intervals over a set of posteriors."""

    lo: float
    hi: float
    gamma: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise InvalidParameterError(f"union violates lo <= hi: got [{self.lo}, {self.hi}]")


def _stirling_tail(z):
    """``ln Gamma(z)`` minus its Stirling main part, for ``z >= _STIRLING_MIN``."""
    r = 1.0 / z
    r2 = r * r
    acc = _STIRLING[-1]
    for coef in _STIRLING[-2::-1]:
        acc = coef + r2 * acc
    return r * acc


def _lgamma(z):
    """Vectorized ``ln Gamma(z)`` for ``z > 0``: Stirling series, shifted up
    by ten unit steps below ``_STIRLING_MIN``."""
    small = z < _STIRLING_MIN
    w = np.where(small, z + 10.0, z)
    rising = np.add.outer(np.where(small, z, 1.0), np.arange(10.0)).prod(axis=-1)
    main = (w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi) + _stirling_tail(w)
    return main - np.where(small, np.log(rising), 0.0)


def _log_beta(a, b):
    """Vectorized ``ln B(a, b)``.

    ``ln Gamma(hi) - ln Gamma(lo + hi)`` is taken from the Stirling series in
    the form ``-(hi - 1/2) log1p(lo/hi) - lo ln(lo + hi) + lo + ...``, which
    keeps its digits when one shape dwarfs the other.
    """
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    big = hi >= _STIRLING_MIN
    h = np.where(big, hi, _STIRLING_MIN)
    ratio = (
        -(h - 0.5) * np.log1p(lo / h) - lo * np.log(lo + h) + lo
        + _stirling_tail(h) - _stirling_tail(lo + h)
    )
    return _lgamma(lo) + np.where(big, ratio, _lgamma(hi) - _lgamma(lo + hi))


def _log1pmx(u):
    """``log1p(u) - u`` for ``u > -1``, without cancellation near zero."""
    with np.errstate(divide="ignore"):
        far = np.log1p(u) - u
    # log1p(u) = 2 atanh(v) with v = u/(2 + u); 2v - u = -u^2/(2 + u)
    v = u / (2.0 + u)
    v2 = v * v
    series = v2 * (1 / 3 + v2 * (1 / 5 + v2 * (1 / 7 + v2 * (1 / 9 + v2 * (1 / 11 + v2 / 13)))))
    near = -u * u / (2.0 + u) + 2.0 * v * series
    return np.where(np.abs(u) < 0.1, near, far)


def _mean_offset(a, b, x):
    """Mean ``p = a/(a+b)``, ``q = b/(a+b)`` and ``x`` minus the *exact* mean.

    At large shapes the density is steep enough that the rounding of ``p``
    alone would move ``I_x`` by up to 1e-10, so the remainder
    ``a - p (a+b)`` is recovered exactly, ``a + b`` included, and folded
    into the offset.
    """
    ab = a + b
    ab_err = (a - (ab - (ab - a))) + (b - (ab - a))  # a + b = ab + ab_err exactly
    p = a / ab
    prod, err = _two_prod(p, ab)
    return p, b / ab, (x - p) - (((a - prod) - err) - p * ab_err) / ab


def _log_front_centered(a, b, p, q, d):
    """``ln[x^a (1-x)^b / B(a, b)]`` at ``x = a/(a+b) + d``, for large shapes.

    Stirling turns the normalizer at the mean into
    ``ln sqrt(ab / (2 pi (a+b)))`` plus small corrections, and the linear
    parts of ``a ln(x/p) + b ln((1-x)/q)`` cancel exactly about the mean.
    """
    ab = a + b
    at_mean = (
        0.5 * np.log(a * b / (2.0 * math.pi * ab))
        + _stirling_tail(ab) - _stirling_tail(a) - _stirling_tail(b)
    )
    # x = p + d and 1 - x = q - d are >= 0, so both arguments are >= -1 but
    # for rounding, which the clamp removes
    return (
        at_mean + a * _log1pmx(np.maximum(d / p, -1.0)) + b * _log1pmx(np.maximum(-d / q, -1.0))
    )


def _log_front(a, b, x):
    """``ln[x^a (1-x)^b / B(a, b)]`` for ``x`` in the open unit interval."""
    big = np.minimum(a, b) >= _STIRLING_MIN
    out = np.empty_like(x)
    if big.any():
        ab, bb = a[big], b[big]
        out[big] = _log_front_centered(ab, bb, *_mean_offset(ab, bb, x[big]))
    small = ~big
    if small.any():
        xs = x[small]
        out[small] = (
            a[small] * np.log(xs) + b[small] * np.log1p(-xs) - _log_beta(a[small], b[small])
        )
    return out


def _beta_frac(a, b, x, y, lam):
    """Continued fraction of Didonato & Morris (BFRAC) for
    ``I_x(a, b) B(a, b) / (x^a y^b)``, where ``a, b >= 1``, ``y = 1 - x`` and
    ``lam = a - (a + b) x >= 0`` was formed without cancellation.

    Converged lanes are written out and dropped, so each iteration costs
    only what is still running.
    """
    out = np.empty_like(x)
    lane = np.arange(len(x))
    c = 1.0 + lam
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    yp1 = y + 1.0
    an = np.zeros_like(x)
    bn = np.ones_like(x)
    anp1 = np.ones_like(x)
    bnp1 = c / c1
    r = c1 / c
    for n in range(1, _CF_MAX_ITER + 1):
        t = n / a
        s = a + (2 * n - 1)
        w = n * (b - n) * x
        e = a / s
        p = 1.0 + (n - 1) / a
        alpha = (p * (p + c0) * e * e) * (w * x)
        beta = n + w / s + (1.0 + t) / (c1 + t + t) * (c + n * yp1)
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0 = r
        r = anp1 / bnp1
        done = np.abs(r - r0) <= _CF_EPS * r
        if done.any():
            out[lane[done]] = r[done]
            run = ~done
            if not run.any():
                return out
            lane, a, b, x, c, c0, c1, yp1, an, bn, anp1, bnp1, r, r0 = (
                v[run] for v in (lane, a, b, x, c, c0, c1, yp1, an, bn, anp1, bnp1, r, r0)
            )
        # rescale so the recurrences neither overflow nor underflow
        an = an / bnp1
        bn = bn / bnp1
        anp1 = r
        bnp1 = np.ones_like(r)
    # Lanes stuck a few ulps from the fixed point are converged for all
    # practical purposes; only a genuine stall is an error.
    if np.all(np.abs(r - r0) <= 1e-12 * r):
        out[lane] = r
        return out
    raise NumericError("incomplete beta continued fraction did not converge")


def _betainc_frac(a, b, x):
    """``I_x(a, b)`` by the continued fraction, on the side of the mean where
    it converges; shapes below 1 are first raised by one through
    ``I_x(a, b) = I_x(a + 1, b) + f/a = I_x(a, b + 1) - f/b`` with
    ``f = x^a (1-x)^b / B(a, b)``."""
    low_a = a < 1.0
    low_b = b < 1.0
    a1 = np.where(low_a, a + 1.0, a)
    b1 = np.where(low_b, b + 1.0, b)
    y = 1.0 - x
    # lam = (a+b)(mean - x), from whichever of x and 1 - x is exact
    lam = np.where(a1 > b1, (a1 + b1) * y - b1, a1 - (a1 + b1) * x)
    swap = lam < 0.0
    frac = _beta_frac(
        np.where(swap, b1, a1), np.where(swap, a1, b1),
        np.where(swap, y, x), np.where(swap, x, y), np.abs(lam),
    )
    side = np.exp(_log_front(a1, b1, x)) * frac
    out = np.where(swap, 1.0 - side, side)
    if low_a.any():
        out[low_a] += np.exp(_log_front(a[low_a], b[low_a], x[low_a])) / a[low_a]
    if low_b.any():
        out[low_b] -= np.exp(_log_front(a1[low_b], b[low_b], x[low_b])) / b[low_b]
    return np.clip(out, 0.0, 1.0)


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1], built on first use
    so that importing the package does not load ``numpy.polynomial``."""
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _betainc_quad(a, b, p, q, d0, sigma):
    """``I_x(a, b)`` at ``x = p + d0`` by Gauss-Legendre quadrature of the
    density over the tail beyond ``x``, integrated away from the mean."""
    z = np.abs(d0) / sigma
    width = _QUAD_STRETCH * sigma * (np.sqrt(z * z + 2.0 * _QUAD_LOG_CUT) - z)
    # The window reaches at most 15 sd from the mean; with both shapes >=
    # _QUAD_MIN_SHAPE that stays inside (0, 1), so every node is interior.
    step = np.where(d0 <= 0.0, -width, width)
    nodes, weights = _gauss_legendre()
    tail = np.empty_like(d0)
    # lanes x nodes temporaries, in blocks so a large batch stays small
    for i in range(0, len(d0), _QUAD_BLOCK):
        rows = slice(i, i + _QUAD_BLOCK)
        col = (rows, None)
        d = d0[col] + step[col] * nodes
        # x (1 - x) at the nodes, from the exact mean: 1 - t would round
        log_density = (
            _log_front_centered(a[col], b[col], p[col], q[col], d)
            - np.log(p[col] + d) - np.log(q[col] - d)
        )
        tail[rows] = width[rows] * (np.exp(log_density) @ weights)
    return np.where(d0 <= 0.0, tail, 1.0 - tail)


def _betainc(a, b, x) -> np.ndarray:
    """Regularized incomplete beta, vectorized over broadcastable arrays."""
    a, b, x = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(x, dtype=float)
    )
    shape = x.shape
    a, b, x = a.ravel(), b.ravel(), x.ravel()
    out = np.where(x >= 1.0, 1.0, 0.0)
    mid = (x > 0.0) & (x < 1.0)
    if mid.any():
        am, bm, xm = a[mid], b[mid], x[mid]
        p, q, d0 = _mean_offset(am, bm, xm)
        sigma = np.sqrt(p * q / (am + bm + 1.0))
        near = np.abs(d0) <= _NEAR_MEAN_Z * sigma
        quad = near & (np.minimum(am, bm) >= _QUAD_MIN_SHAPE)
        res = np.empty_like(xm)
        if quad.any():
            res[quad] = _betainc_quad(am[quad], bm[quad], p[quad], q[quad], d0[quad], sigma[quad])
        cf = ~quad
        if cf.any():
            res[cf] = _betainc_frac(am[cf], bm[cf], xm[cf])
        out[mid] = res
    return out.reshape(shape)


def _quantile_start(a, b, q):
    """Starting point for Newton: the Cornish-Fisher type approximation of
    Abramowitz & Stegun 26.5.22 for shapes >= 1, a power-law tail otherwise."""
    tail = np.minimum(q, 1.0 - q)
    t = np.sqrt(-2.0 * np.log(tail))
    y = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
    y = np.where(q < 0.5, y, -y)  # upper-tail normal quantile of q
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam = (y * y - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = y * np.sqrt(h + lam) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (
            lam + 5.0 / 6.0 - 2.0 / (3.0 * h)
        )
        normal = a / (a + b * np.exp(2.0 * w))
        ta = np.exp(a * np.log(a / (a + b))) / a
        tb = np.exp(b * np.log(b / (a + b))) / b
        total = ta + tb
        power = np.where(
            q < ta / total,
            (a * total * q) ** (1.0 / a),
            1.0 - (b * total * (1.0 - q)) ** (1.0 / b),
        )
    x = np.where((a >= 1.0) & (b >= 1.0), normal, power)
    return np.where((x > 0.0) & (x < 1.0), x, a / (a + b))


def _quantile_vec(a, b, q) -> np.ndarray:
    """Quantiles by bracketed Newton on the CDF, vectorized.

    A lane stops once its residual is within 1e-12, its Newton step is below
    the float spacing, or its bracket has shrunk to adjacent floats; only
    running lanes are iterated.
    """
    a, b, q = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(q, dtype=float)
    )
    shape = q.shape
    a, b, q = a.ravel(), b.ravel(), q.ravel()
    if np.any((q <= 0.0) | (q >= 1.0)):
        raise InvalidParameterError("quantile level must lie strictly inside (0, 1)")
    x = _quantile_start(a, b, q)
    lane = np.arange(len(q))
    lo = np.zeros_like(q)
    hi = np.ones_like(q)
    for _ in range(_QUANTILE_MAX_ITER):
        xl, al, bl = x[lane], a[lane], b[lane]
        resid = _betainc(al, bl, xl) - q[lane]
        below = resid < 0.0
        lol = np.where(below, xl, lo[lane])
        hil = np.where(below, hi[lane], xl)
        run = (np.abs(resid) > _QUANTILE_TOL) & (np.nextafter(lol, 1.0) < hil)
        if not run.any():
            return x.reshape(shape)
        lane, xl, al, bl, resid, lol, hil = (
            v[run] for v in (lane, xl, al, bl, resid, lol, hil)
        )
        lo[lane] = lol
        hi[lane] = hil
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_pdf = _log_front(al, bl, xl) - np.log(xl) - np.log1p(-xl)
            step = resid * np.exp(-log_pdf)
        x_new = xl - step
        usable = np.isfinite(x_new) & (x_new > lol) & (x_new < hil)
        # bisect, or step down by 2^-64 while the bracket still starts at 0,
        # at most to the smallest positive float
        down = np.maximum(hil * 2.0**-64, _SMALLEST)
        x[lane] = np.where(usable, x_new, np.where(lol > 0.0, 0.5 * (lol + hil), down))
        # a Newton step within the float spacing has nothing left to resolve
        settled = np.abs(step) <= np.spacing(xl)
        x[lane[settled]] = xl[settled]
        lane = lane[~settled]
        if lane.size == 0:
            return x.reshape(shape)
    raise NumericError("beta quantile iteration did not converge in 200 steps")


def beta_log_pdf(shape: BetaShape, p: float) -> float:
    """Log density of the Beta distribution at ``p`` in the open unit interval."""
    if not 0.0 < p < 1.0:
        raise InvalidParameterError(f"density argument violates 0 < p < 1: got {p}")
    a, b, x = np.array([shape.alpha]), np.array([shape.beta]), np.array([p])
    return float(_log_front(a, b, x)[0]) - math.log(p) - math.log1p(-p)


def beta_cdf(shape: BetaShape, p: float) -> float:
    """Regularized incomplete beta function at ``p`` in ``[0, 1]``."""
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"CDF argument violates 0 <= p <= 1: got {p}")
    return float(_betainc(shape.alpha, shape.beta, p))


def beta_quantile(shape: BetaShape, q: float) -> float:
    """Inverse of :func:`beta_cdf`: the ``p`` with ``cdf(p) = q``.

    Converged to a CDF residual of 1e-12, or to adjacent floats where the
    CDF is too steep for that.
    """
    if not 0.0 < q < 1.0:
        raise InvalidParameterError(f"quantile level violates 0 < q < 1: got {q}")
    return float(_quantile_vec(shape.alpha, shape.beta, q))


def posterior_expectation_bounds(
    set_: EtaSet, d: BinomialData
) -> tuple[float, float]:
    """Lower and upper posterior mean over the set after observing ``d``."""
    result = shadow(updated(set_, d))
    return result.y_lo, result.y_hi


def imprecision_delta(set_: EtaSet, d: BinomialData) -> float:
    """Width of the posterior-mean interval after observing ``d``."""
    y_lo, y_hi = posterior_expectation_bounds(set_, d)
    return y_hi - y_lo


def delta_rectangle_closed_form(rect: RectangleSpec, d: BinomialData) -> float:
    """Closed-form posterior imprecision of a canonical rectangle.

    Two terms: the shrinking prior range, plus a conflict term proportional to
    the distance of ``s/n`` from the prior mean range.  Requires ``n > 0``.
    """
    if not d.n > 0.0:
        raise InvalidParameterError("closed form needs n > 0; use the prior width for n = 0")
    frac = d.s / d.n
    dist = max(0.0, rect.y_lo - frac, frac - rect.y_hi)
    shrink = rect.n_hi * (rect.y_hi - rect.y_lo) / (rect.n_hi + d.n)
    conflict = dist * d.n * (rect.n_hi - rect.n_lo) / ((rect.n_lo + d.n) * (rect.n_hi + d.n))
    return shrink + conflict


def credibility_union(set_: EtaSet, d: BinomialData, gamma: float) -> CredibilityUnion:
    """Union of central ``gamma`` credibility intervals over the posterior set.

    Every set element indexes a Beta posterior whose shapes are affine in
    eta; its quantiles rise with ``eta1`` at fixed ``eta0``, so the smallest
    lower endpoint and the largest upper endpoint lie on the boundary.  A
    coarse scan of the closed boundary, corners included, brackets each
    extreme, and vectorized passes over the bracket refine it.
    """
    if not 0.0 < gamma < 1.0:
        raise InvalidParameterError(f"credibility level violates 0 < gamma < 1: got {gamma}")
    post = updated(set_, d)
    levels = np.array([0.5 * (1.0 - gamma), 0.5 * (1.0 + gamma)])
    sign = np.array([1.0, -1.0])  # minimize the lower endpoint, maximize the upper

    def endpoints(ts: np.ndarray) -> np.ndarray:
        """Signed endpoints at boundary parameters ``ts``: one row per level
        for a 1-D ``ts``, or row ``i`` of a ``(2, m)`` array at level ``i``."""
        x, y = _boundary_xy(post, ts)
        half = 0.5 * (x + 2.0)
        q = _quantile_vec(half + y, half - y, levels[:, None])
        return sign[:, None] * q

    ts = np.unique(np.concatenate([np.arange(_SCAN) / _SCAN, _geometry(post.spec).corner_ts]))
    vals = endpoints(ts)
    k = np.argmin(vals, axis=1)
    best = vals[[0, 1], k]
    left = np.where(k > 0, ts[k - 1], ts[-1] - 1.0)
    right = np.where(k + 1 < len(ts), ts[(k + 1) % len(ts)], ts[0] + 1.0)
    for _ in range(_PASSES):
        grid = np.linspace(left, right, _REFINE, axis=1)
        pass_vals = endpoints(grid)
        k = np.argmin(pass_vals, axis=1)
        best = np.minimum(best, pass_vals[[0, 1], k])
        step = (right - left) / (_REFINE - 1)
        centre = grid[[0, 1], k]
        left, right = centre - step, centre + step
    return CredibilityUnion(lo=float(best[0]), hi=float(-best[1]), gamma=gamma)
