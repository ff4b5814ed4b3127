"""Property tests over random admissible sets and data (hypothesis).

The examples are drawn from the ``tier1`` profile registered in conftest:
derandomized, so every run checks the same cases.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from boatshape import (
    BinomialData,
    EtaSet,
    GridSpec,
    LearningPhase,
    agreement_thresholds,
    boat_set,
    credibility_union,
    grid_shadow,
    imprecision_delta,
    learning_phase,
    rectangle_set,
    segment_set,
    shadow,
    updated,
    validate,
)
from boatshape.inference import _quantile_vec
from boatshape.shapes import _boundary_xy, _contains_mask, _edges
from conftest import admissible_half_width

#: Grid oracle resolution, and how far its inner approximation may fall short
#: of the exact bounds at that resolution.
GRID = GridSpec(resolution=200)
GRID_GAP = 1e-3
#: The oracle's membership test keeps points up to 1e-9 outside each defining
#: inequality, so its bounds may overshoot the exact ones by about that much.
GRID_SLACK = 1e-8


def unit(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def boat_on_ray(draw, y_c: float) -> EtaSet:
    eta0_lo = draw(unit(-1.8, 6.0))
    a = draw(unit(0.05, 0.95)) * admissible_half_width(eta0_lo, y_c)
    return boat_set(eta0_lo, eta0_lo + draw(unit(0.3, 25.0)), a, draw(unit(0.05, 2.5)), y_c)


@st.composite
def axis_boats(draw) -> EtaSet:
    return boat_on_ray(draw, 0.5)


@st.composite
def rotated_boats(draw) -> EtaSet:
    return boat_on_ray(draw, draw(unit(0.1, 0.9)))


@st.composite
def rectangles(draw) -> EtaSet:
    n_lo = draw(unit(0.2, 10.0))
    y_lo = draw(unit(0.02, 0.9))
    return rectangle_set(n_lo, n_lo + draw(unit(0.0, 20.0)), y_lo, draw(unit(y_lo, 0.98)))


@st.composite
def segments(draw) -> EtaSet:
    y_lo = draw(unit(0.02, 0.9))
    return segment_set(draw(unit(0.2, 20.0)), y_lo, draw(unit(y_lo, 0.98)))


@st.composite
def dyadic_boats(draw, sixty_fourths: st.SearchStrategy[int]) -> EtaSet:
    """A boat on the ray of mean ``y_c = k / 64``, so that for integer ``n``
    the balanced count ``n * y_c`` and the shift ``s - n/2`` are exact."""
    return boat_on_ray(draw, draw(sixty_fourths) / 64.0)


def any_set() -> st.SearchStrategy[EtaSet]:
    return st.one_of(rotated_boats(), rectangles(), segments())


@st.composite
def data(draw) -> BinomialData:
    n = draw(st.sampled_from((0.0, 1.0, 10.0, 100.0))) * draw(unit(0.5, 1.5))
    return BinomialData(n, draw(unit(0.0, 1.0)) * n)


@st.composite
def wide_data(draw) -> BinomialData:
    n = draw(st.sampled_from((0.0, 1.0, 10.0, 1e3, 1e6))) * draw(unit(0.5, 1.0))
    return BinomialData(n, draw(unit(0.0, 1.0)) * n)


MIRRORED = {
    LearningPhase.HAPPY_BOTH: LearningPhase.HAPPY_BOTH,
    LearningPhase.UNHAPPY_UPPER: LearningPhase.UNHAPPY_LOWER,
    LearningPhase.UNHAPPY_LOWER: LearningPhase.UNHAPPY_UPPER,
    LearningPhase.UNHAPPY_BOTH: LearningPhase.UNHAPPY_BOTH,
}


def stuck_flags(phase: LearningPhase) -> tuple[bool, bool]:
    both = phase is LearningPhase.UNHAPPY_BOTH
    return both or phase is LearningPhase.UNHAPPY_UPPER, both or phase is LearningPhase.UNHAPPY_LOWER


@settings(max_examples=40)
@given(any_set(), data())
def test_shadow_agrees_with_grid_oracle(prior, d):
    post = updated(prior, d)
    result = shadow(post)
    g_lo, g_hi = grid_shadow(post, GRID)
    # the grid approximates the set from inside: never beyond the bounds
    assert result.y_lo - GRID_SLACK <= g_lo <= result.y_lo + GRID_GAP
    assert result.y_hi - GRID_GAP <= g_hi <= result.y_hi + GRID_SLACK


@settings(max_examples=60)
@given(any_set(), data(), unit(0.0, 1.0), unit(0.0, 1.0))
def test_bounds_monotone_in_s(prior, d, f1, f2):
    s1, s2 = sorted((f1 * d.n, f2 * d.n))
    r1 = shadow(updated(prior, BinomialData(d.n, s1)))
    r2 = shadow(updated(prior, BinomialData(d.n, s2)))
    assert r1.y_lo <= r2.y_lo + 1e-12
    assert r1.y_hi <= r2.y_hi + 1e-12


@settings(max_examples=150)
@given(rotated_boats(), data())
def test_phase_coherent_with_agreement_window(prior, d):
    th = agreement_thresholds(prior.spec, d.n)
    if min(abs(d.s - th.happy_lo), abs(d.s - th.happy_hi)) < 1e-9 * max(1.0, d.n):
        return  # undefined exactly at a switch
    happy = th.happy_lo < d.s < th.happy_hi
    assert (learning_phase(prior.spec, d) is LearningPhase.HAPPY_BOTH) == happy
    assert (shadow(updated(prior, d)).phase is LearningPhase.HAPPY_BOTH) == happy


@settings(max_examples=60)
@given(any_set(), data())
def test_edges_bound_membership(prior, d):
    # every edge point is a member, and 1e-6 beyond it along the section
    # direction v = (-sin theta, cos theta) is not
    post = updated(prior, d)
    theta = math.atan(getattr(prior.spec, "y_c", 0.5) - 0.5)
    vx, vy = -math.sin(theta), math.cos(theta)
    u = np.linspace(0.0, 1.0, 65)
    for edge, outward in zip(_edges(post.spec), (-1e-6, 1e-6)):
        x, y = edge(u)
        x, y = x + post.shift[0], y + post.shift[1]
        assert _contains_mask(post, x, y).all()
        assert not _contains_mask(post, x + outward * vx, y + outward * vy).any()


@settings(max_examples=60)
@given(any_set(), data(), data())
def test_admissibility_invariant_under_updates(prior, d1, d2):
    post = updated(updated(prior, d1), d2)
    assert validate(post).ok
    result = shadow(post)  # raises if the set left the wedge
    assert 0.0 < result.y_lo <= result.y_hi < 1.0


@settings(max_examples=100)
@given(dyadic_boats(st.just(32)), st.integers(0, 400), unit(0.0, 1.0))
def test_axis_boat_phase_mirrors_in_s(prior, n, f):
    for s in (float(math.floor(f * n)), 0.5 * n):
        phase = shadow(updated(prior, BinomialData(n, s))).phase
        assert learning_phase(prior.spec, BinomialData(n, s)) is phase
        assert shadow(updated(prior, BinomialData(n, n - s))).phase is MIRRORED[phase], s


@settings(max_examples=150)
@given(dyadic_boats(st.integers(7, 57)), st.integers(0, 400))
def test_balanced_data_give_the_tie_phase(prior, n):
    spec = prior.spec
    d = BinomialData(n, n * spec.y_c)
    phase = shadow(updated(prior, d)).phase
    assert learning_phase(spec, d) is phase
    # At s = n y_c both touchpoints solve exp(b (x - L)) = 1 + b (x + 2) on the
    # axis, moved along it by n sqrt(1 + (y_c - 1/2)^2); they sit on the stern
    # together iff the crossing is not left of it.
    reach = math.log1p(spec.b * (spec.eta0_hi + 2.0 + n * math.hypot(1.0, spec.y_c - 0.5)))
    rise = spec.b * (spec.eta0_hi - spec.eta0_lo)
    if abs(rise - reach) < 1e-9 * rise:
        return  # too close to call
    tie = LearningPhase.UNHAPPY_BOTH if rise <= reach else LearningPhase.HAPPY_BOTH
    assert phase is tie


@settings(max_examples=150)
@given(rectangles(), data())
def test_rectangle_phase_follows_the_mean_range(prior, d):
    assert shadow(prior).phase is LearningPhase.HAPPY_BOTH
    spec, phase = prior.spec, shadow(updated(prior, d)).phase
    if spec.n_hi == spec.n_lo:
        assert phase is LearningPhase.HAPPY_BOTH  # nothing to stick to
        return
    if d.n == 0.0 or min(abs(d.s - d.n * y) for y in (spec.y_lo, spec.y_hi)) < 1e-9 * d.n:
        return  # a flat edge: a tie, which does not stick
    # a bound is stuck while data lie beyond its edge's mean, on the side of
    # the data: above n/2 beyond means above, below n/2 below
    if d.s >= 0.5 * d.n:
        expected = (d.s > d.n * spec.y_hi, d.s > d.n * spec.y_lo)
    else:
        expected = (d.s < d.n * spec.y_hi, d.s < d.n * spec.y_lo)
    assert stuck_flags(phase) == expected


@settings(max_examples=30)
@given(st.one_of(dyadic_boats(st.just(32)), any_set()), wide_data(), unit(0.05, 0.95))
def test_union_holds_every_boundary_endpoint(prior, d, gamma):
    # The edge search against a dense sample of the whole posterior boundary,
    # both evaluated by the same quantile routine: no sampled element may
    # reach past the union.
    union = credibility_union(prior, d, gamma)
    x, y = _boundary_xy(updated(prior, d), np.arange(20000) / 20000.0)
    half = 0.5 * (x + 2.0)
    levels = np.array([[0.5 * (1.0 - gamma)], [0.5 * (1.0 + gamma)]])
    q = _quantile_vec(half + y, half - y, levels)
    assert q[0].min() >= union.lo - 1e-10
    assert q[1].max() <= union.hi + 1e-10


#: The paper's effect is read off ``Delta(s)`` at 81 values of ``s`` in [0, n].
S_FRACTIONS = np.linspace(0.0, 1.0, 81)
TRIALS = st.sampled_from((1.0, 4.0, 10.0, 100.0))


def delta_curve(prior: EtaSet, n: float) -> np.ndarray:
    return np.array([imprecision_delta(prior, BinomialData(n, f * n)) for f in S_FRACTIONS])


@settings(max_examples=150)
@given(st.one_of(axis_boats(), rotated_boats()), TRIALS)
def test_boat_delta_is_quasi_convex_in_s(prior, n):
    # conflict widens the posterior range on either side: non-increasing, then
    # non-decreasing in s
    deltas = delta_curve(prior, n)
    k, steps = int(np.argmin(deltas)), np.diff(deltas)
    assert (steps[:k] <= 1e-12).all() and (steps[k:] >= -1e-12).all()


@settings(max_examples=150)
@given(axis_boats(), TRIALS)
def test_axis_boat_delta_is_least_in_the_agreement_window(prior, n):
    th = agreement_thresholds(prior.spec, n)
    if not th.happy_hi > th.happy_lo:
        return  # no window of strong agreement at this n
    s_min = n * S_FRACTIONS[int(np.argmin(delta_curve(prior, n)))]
    spacing = n * S_FRACTIONS[1]
    assert th.happy_lo - spacing <= s_min <= th.happy_hi + spacing
