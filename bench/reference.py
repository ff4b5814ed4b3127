"""Independent references for the benchmark's output checks.

Nothing here imports ``boatshape``.  Every figure is recomputed from a set's
defining parameters (a plain ``dict`` with a ``kind`` key, as in the shipped
``configs/*.cfg`` files) with numpy and scipy, so a fault in the package cannot
vouch for itself.  Each ``check_*`` function returns a list of problems; an
empty list means the program's output passed.

References:

* rectangles and segments: the posterior mean ``(n0*y0 + s)/(n0 + n)`` is a
  ratio of affine functions, so its extremes over the set are at the 4 corners
  or the 2 endpoints;
* boats: a dense sample of both contours (built from the contour formula and
  rotated about the apex ``(-2, 0)``), refined by a second dense sample around
  each extreme.  The stern is a straight segment, on which the objective is
  monotone, so its endpoints (the contour ends) suffice;
* sticking thresholds of axis boats: the closed forms
  ``s_u = n/2 + a*b*(eta0_lo + n + 2)`` and
  ``s_l = n/2 + a*(1 - (1 + b*(eta0_hi + n + 2))*exp(-b*(eta0_hi - eta0_lo)))``,
  both clamped to ``[n/2, n]``;
* credibility unions: ``scipy.special.betaincinv`` over a dense sample of the
  posterior set's boundary (quantiles rise with ``alpha`` and fall with
  ``beta``, so the union's ends lie on the boundary).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betaincinv

#: The refined boat sample and the vertex formulas agree with the program to
#: ~1e-16; the slack covers round-off at n = 1e6.
BOUND_TOL = 1e-11
#: A sampled member may not lie outside the program's bounds by more than this
#: (the program's bounds are exact extremes, up to round-off).
OUTSIDE_TOL = 2.0 * float(np.spacing(1.0))
#: The program bisects the thresholds to 1e-9.
THRESHOLD_TOL = 2e-9
#: Dense-sample union against the program's scan plus interior grid; both are
#: inner approximations and agree to ~6e-8.
CRED_TOL = 1e-6
#: Bounds must not decrease as s grows.
MONO_TOL = 1e-12
#: Phase checks skip data this close to a sticking threshold or a tie.
PHASE_MARGIN = 1e-7

def phase_name(upper: bool, lower: bool) -> str:
    if upper and lower:
        return "UnhappyBoth"
    if upper:
        return "UnhappyUpper"
    if lower:
        return "UnhappyLower"
    return "HappyBoth"


# --------------------------------------------------------------------------
# posterior-mean bounds


def vertex_bounds(spec: dict, n: float, s: float) -> tuple[float, float]:
    """Bounds of a rectangle or segment from its corners or endpoints."""
    if spec["kind"] == "rectangle":
        strengths = (spec["n_lo"], spec["n_hi"])
    else:
        strengths = (spec["n0"],)
    means = [
        (n0 * y0 + s) / (n0 + n) for n0 in strengths for y0 in (spec["y_lo"], spec["y_hi"])
    ]
    return min(means), max(means)


def _boat_points(spec: dict, x: np.ndarray, side: float) -> tuple[np.ndarray, np.ndarray]:
    """Upper (side=+1) or lower (side=-1) contour at abscissae ``x``, rotated."""
    y = -side * spec["a"] * np.expm1(-spec["b"] * (x - spec["eta0_lo"]))
    theta = math.atan(spec["y_c"] - 0.5)
    c, s = math.cos(theta), math.sin(theta)
    dx = x + 2.0
    return -2.0 + c * dx - s * y, s * dx + c * y


def boat_bounds(
    spec: dict, n: float, s: float, samples: int = 20_000
) -> tuple[float, float, float, float]:
    """Posterior-mean bounds of a boat: ``(lo, hi, coarse_lo, coarse_hi)``.

    ``coarse_*`` are the extremes of the first dense sample (members of the
    set, so they may not lie outside exact bounds); ``lo``/``hi`` refine them
    with a second sample between the neighbours of each extreme.
    """
    d0, d1 = n, s - 0.5 * n
    xs = np.linspace(spec["eta0_lo"], spec["eta0_hi"], samples)

    def ratio(x: np.ndarray, side: float) -> np.ndarray:
        px, py = _boat_points(spec, x, side)
        return 0.5 + (py + d1) / (px + d0 + 2.0)

    out = []
    for sense in (-1.0, 1.0):  # minimum, then maximum
        coarse = fine = -math.inf
        for side in (1.0, -1.0):
            r = sense * ratio(xs, side)
            i = int(np.argmax(r))
            zoom = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, samples - 1)], 10_001)
            coarse = max(coarse, float(r[i]))
            fine = max(fine, float(np.max(sense * ratio(zoom, side))), float(r[i]))
        out.append((sense * fine, sense * coarse))
    (lo, coarse_lo), (hi, coarse_hi) = out
    return lo, hi, coarse_lo, coarse_hi


def check_bounds(spec: dict, n: float, s: float, y_lo: float, y_hi: float,
                 tol: float = BOUND_TOL, outside_tol: float = OUTSIDE_TOL) -> list[str]:
    """Program bounds against the vertex formula or the dense boat sample."""
    problems = []
    if spec["kind"] == "boat":
        lo, hi, coarse_lo, coarse_hi = boat_bounds(spec, n, s)
        if coarse_lo < y_lo - outside_tol or coarse_hi > y_hi + outside_tol:
            problems.append(
                f"member outside bounds: sample [{coarse_lo!r}, {coarse_hi!r}] "
                f"vs [{y_lo!r}, {y_hi!r}]"
            )
    else:
        lo, hi = vertex_bounds(spec, n, s)
    err = max(abs(lo - y_lo), abs(hi - y_hi))
    if not err <= tol:
        problems.append(f"bounds off by {err:.3e}: [{y_lo!r}, {y_hi!r}] vs [{lo!r}, {hi!r}]")
    return problems


def check_monotone(svals, los, his) -> list[str]:
    """Both bounds must not decrease in s (rows given in ascending s)."""
    problems = []
    for k in range(1, len(svals)):
        if los[k] < los[k - 1] - MONO_TOL or his[k] < his[k - 1] - MONO_TOL:
            problems.append(f"bounds decrease between s={svals[k - 1]} and s={svals[k]}")
    return problems


# --------------------------------------------------------------------------
# sticking thresholds and phases


def thresholds(spec: dict, n: float) -> tuple[float, float]:
    """Closed-form sticking thresholds ``(s_u, s_l)`` of an axis boat."""
    lo, hi, a, b = spec["eta0_lo"], spec["eta0_hi"], spec["a"], spec["b"]
    s_u = 0.5 * n + a * b * (lo + n + 2.0)
    s_l = 0.5 * n + a * (1.0 - (1.0 + b * (hi + n + 2.0)) * math.exp(-b * (hi - lo)))
    return min(max(s_u, 0.5 * n), n), min(max(s_l, 0.5 * n), n)


def check_thresholds(spec: dict, n: float, s_u: float, s_l: float,
                     tol: float = THRESHOLD_TOL) -> list[str]:
    ref_u, ref_l = thresholds(spec, n)
    err = max(abs(s_u - ref_u), abs(s_l - ref_l))
    if not err <= tol:
        return [f"thresholds off by {err:.3e}: ({s_u!r}, {s_l!r}) vs ({ref_u!r}, {ref_l!r})"]
    return []


def expected_phase(spec: dict, n: float, s: float) -> str | None:
    """The learning phase the method implies, or None where it is ambiguous.

    Axis boats: from the closed-form thresholds (data below ``n/2`` mirror
    the roles of the two thresholds).  Rectangles: the upper bound rides the
    corner of the larger strength while ``s/n < y_hi``, the lower bound while
    ``s/n > y_lo``; a bound is stuck when that corner is its terminal end (the
    bow for the upper bound, the stern for the lower, mirrored below ``n/2``).
    Segments have no sticking mechanism.  Rotated boats are not covered.
    """
    kind = spec["kind"]
    if kind == "segment":
        return "HappyBoth"
    if kind == "boat":
        if spec["y_c"] != 0.5:
            return None
        s_u, s_l = thresholds(spec, n)
        t = max(s, n - s)
        first, second = (s_u, s_l) if s >= 0.5 * n else (s_l, s_u)
        margin = PHASE_MARGIN * max(1.0, n)
        if abs(t - first) < margin or abs(t - second) < margin:
            return None
        return phase_name(t >= first, t >= second)
    if spec["n_hi"] - spec["n_lo"] <= 1e-6 * (1.0 + spec["n_hi"] - spec["n_lo"]):
        return "HappyBoth"  # no abscissa extent, nothing to stick to
    if n == 0.0:
        return None  # the objective is flat along the edges that matter
    frac = s / n
    if min(abs(frac - spec["y_hi"]), abs(frac - spec["y_lo"])) < PHASE_MARGIN:
        return None
    upper_at_hi = frac < spec["y_hi"]
    lower_at_hi = frac > spec["y_lo"]
    if s >= 0.5 * n:
        return phase_name(not upper_at_hi, lower_at_hi)
    return phase_name(upper_at_hi, not lower_at_hi)


def check_phase(spec: dict, n: float, s: float, phase: str) -> list[str]:
    want = expected_phase(spec, n, s)
    if want is not None and phase != want:
        return [f"phase at n={n}, s={s}: {phase} vs expected {want}"]
    return []


# --------------------------------------------------------------------------
# credibility unions


def _canonical_boundary(spec: dict, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense boundary sample of the prior set as (strength n0, mean y0)."""
    u = np.linspace(0.0, 1.0, samples)
    kind = spec["kind"]
    if kind == "boat":
        lo, hi = spec["eta0_lo"], spec["eta0_hi"]
        x = lo + (hi - lo) * u
        ux, uy = _boat_points(spec, x, 1.0)
        lx, ly = _boat_points(spec, x, -1.0)
        half = spec["a"] * -math.expm1(-spec["b"] * (hi - lo))
        theta = math.atan(spec["y_c"] - 0.5)
        c, s = math.cos(theta), math.sin(theta)
        sy = half * (2.0 * u - 1.0)
        sx, sy = -2.0 + c * (hi + 2.0) - s * sy, s * (hi + 2.0) + c * sy
        eta0 = np.concatenate([ux, lx, sx])
        eta1 = np.concatenate([uy, ly, sy])
        n0 = eta0 + 2.0
        return n0, eta1 / n0 + 0.5
    if kind == "rectangle":
        ns = spec["n_lo"] + (spec["n_hi"] - spec["n_lo"]) * u
        ys = spec["y_lo"] + (spec["y_hi"] - spec["y_lo"]) * u
        n0 = np.concatenate([ns, ns, np.full_like(u, spec["n_lo"]), np.full_like(u, spec["n_hi"])])
        y0 = np.concatenate([np.full_like(u, spec["y_lo"]), np.full_like(u, spec["y_hi"]), ys, ys])
        return n0, y0
    return np.full_like(u, spec["n0"]), spec["y_lo"] + (spec["y_hi"] - spec["y_lo"]) * u


def credibility_union(spec: dict, n: float, s: float, gamma: float,
                      samples: int = 4000) -> tuple[float, float]:
    """Union of central ``gamma`` intervals over a dense boundary sample."""
    n0, y0 = _canonical_boundary(spec, samples)
    alpha = n0 * y0 + s
    beta = n0 * (1.0 - y0) + (n - s)
    lo = float(np.min(betaincinv(alpha, beta, 0.5 * (1.0 - gamma))))
    hi = float(np.max(betaincinv(alpha, beta, 0.5 * (1.0 + gamma))))
    return lo, hi


def check_credibility(spec: dict, n: float, s: float, gamma: float,
                      lo: float, hi: float, tol: float = CRED_TOL) -> list[str]:
    ref_lo, ref_hi = credibility_union(spec, n, s, gamma)
    err = max(abs(lo - ref_lo), abs(hi - ref_hi))
    if not err <= tol:
        return [f"union off by {err:.3e}: [{lo!r}, {hi!r}] vs [{ref_lo!r}, {ref_hi!r}]"]
    return []


# --------------------------------------------------------------------------
# admissibility


def worst_margin(spec: dict, samples: int = 100_000) -> float:
    """Smallest margin ``min(eta0 + 2, (eta0 + 2)/2 - |eta1|)`` over a dense
    boundary sample of a boat (the quantity ``validate`` reports)."""
    n0, y0 = _canonical_boundary(spec, samples)
    eta1 = n0 * (y0 - 0.5)
    return float(np.min(np.minimum(n0, 0.5 * n0 - np.abs(eta1))))
