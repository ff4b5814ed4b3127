"""Touchpoint solvers, shadows, phases, thresholds, and terminal slopes."""

import math

import numpy as np
import pytest
from scipy.special import lambertw

from boatshape import (
    BinomialData,
    BoatshapeSpec,
    EtaSet,
    GridSpec,
    InvalidParameterError,
    LearningPhase,
    agreement_thresholds,
    boat_set,
    grid_shadow,
    learning_phase,
    rectangle_set,
    segment_set,
    shadow,
    solve_posterior_touchpoints,
    solve_prior_upper_touchpoint,
    terminal_slopes,
    updated,
    validate,
)
from boatshape.shapes import _boundary_xy
from conftest import canonical_route_bounds, random_boat_spec, random_rotated_boat_spec

SMALL_BOAT = BoatshapeSpec(eta0_lo=1.0, eta0_hi=6.0, a=1.5, b=0.9)
LONG_BOAT = BoatshapeSpec(eta0_lo=-1.0, eta0_hi=20.0, a=1.0, b=0.4)
#: configs/boat_skewed.cfg: the long boat rotated onto the y_c = 0.75 ray
SKEWED_BOAT = BoatshapeSpec(eta0_lo=-1.0, eta0_hi=20.0, a=1.0, b=0.4, y_c=0.75)

#: the same boat rotated onto the y_c = 0.35 ray, on the other side of the axis
LOW_SKEWED_BOAT = BoatshapeSpec(eta0_lo=-1.0, eta0_hi=20.0, a=1.0, b=0.4, y_c=0.35)

# Frozen by a 200-step bisection of the prior tangency residual on
# [eta0_lo + 1e-9, 100] (see test_prior_root_matches_bisection_oracle).
SMALL_BOAT_PRIOR_TP = 2.87033547443043


def tangency_residual(spec: BoatshapeSpec, d: BinomialData, tp: float, which: str) -> float:
    """Defining-equation residual of a posterior touchpoint, exponential minus
    factored affine side."""
    half = d.s - d.n / 2.0
    factor = spec.a / (half + spec.a) if which == "upper" else spec.a / (spec.a - half)
    return math.exp(spec.b * (tp - d.n - spec.eta0_lo)) - factor * (
        1.0 + spec.b * (tp + 2.0)
    )


def stuck_flags(spec: BoatshapeSpec, n: float, s: float) -> tuple[bool, bool]:
    """Whether the upper and the lower touchpoint are stuck, read off the
    learning phase."""
    phase = learning_phase(spec, BinomialData(n, s))
    both = phase is LearningPhase.UNHAPPY_BOTH
    upper = both or phase is LearningPhase.UNHAPPY_UPPER
    return upper, both or phase is LearningPhase.UNHAPPY_LOWER


def bisect_switch(pred, start: float, end: float, tol: float = 1e-10) -> float:
    """Where a predicate that is monotone between ``start`` and ``end`` (in
    either order) turns true, by bisection: ``start`` if it already holds
    there, ``end`` if it never does."""
    if not pred(end):
        return end
    if pred(start):
        return start
    while abs(end - start) > tol:
        mid = 0.5 * (start + end)
        if pred(mid):
            end = mid
        else:
            start = mid
    return end


def bisection_thresholds(spec: BoatshapeSpec, n: float) -> tuple[float, float, float]:
    """``(s_u, s_l, happy_lo)`` by bisection on the sticking flags, searching
    up from ``n * y_c`` and (for ``happy_lo``) down from it.  The search starts
    a hair off ``n * y_c``, where the flags switch between the two pairs."""
    centre, nudge = n * spec.y_c, 1e-12 * max(1.0, n)
    up = [
        bisect_switch(lambda s, k=k: stuck_flags(spec, n, s)[k], min(centre + nudge, n), n)
        for k in (0, 1)
    ]
    down = [
        bisect_switch(lambda s, k=k: stuck_flags(spec, n, s)[k], max(centre - nudge, 0.0), 0.0)
        for k in (0, 1)
    ]
    return up[0], up[1], max(down)


class TestPriorTouchpoint:
    def test_matches_bisection_oracle(self):
        def resid(x):
            return math.exp(0.9 * (x - 1.0)) - (1.0 + 0.9 * (x + 2.0))

        lo, hi = 1.0 + 1e-9, 100.0
        assert resid(lo) < 0 < resid(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if resid(mid) < 0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert oracle == pytest.approx(SMALL_BOAT_PRIOR_TP, abs=1e-12)
        assert solve_prior_upper_touchpoint(SMALL_BOAT) == pytest.approx(oracle, abs=1e-11)

    def test_strictly_interior_for_small_boat(self):
        tp = solve_prior_upper_touchpoint(SMALL_BOAT)
        assert SMALL_BOAT.eta0_lo < tp < SMALL_BOAT.eta0_hi

    def test_residual_when_interior(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            spec = random_boat_spec(rng)
            tp = solve_prior_upper_touchpoint(spec)
            if tp < spec.eta0_hi:  # unclamped
                assert abs(tangency_residual(spec, BinomialData(0, 0), tp, "upper")) < 1e-9

    def test_stern_clamp_for_stubby_boat(self):
        # tangency of the long contour falls beyond a nearby stern
        spec = BoatshapeSpec(eta0_lo=1.0, eta0_hi=1.5, a=1.5, b=0.9)
        assert solve_prior_upper_touchpoint(spec) == spec.eta0_hi

    def test_extreme_span_converges(self):
        # exponential side saturates far from the bow; the solver must not
        # crawl or overflow on a very long set
        spec = BoatshapeSpec(eta0_lo=0.0, eta0_hi=1000.0, a=0.5, b=1.5)
        tp = solve_prior_upper_touchpoint(spec)
        assert 0.0 < tp < 2.0
        assert abs(tangency_residual(spec, BinomialData(0, 0), tp, "upper")) < 1e-9


def lambert_touchpoint(b: float, L: float, F: float) -> float:
    """Closed-form root of ``exp(b (x - L)) = F (1 + b (x + 2))`` beyond the bow.

    With ``q = 1 + b (x + 2)`` the condition reads ``-q exp(-q) =
    -exp(-1 - b (L + 2)) / F``, and ``q > 1`` picks the ``W_{-1}`` branch.
    """
    w = lambertw(-math.exp(-1.0 - b * (L + 2.0)) / F, -1)
    assert w.imag == 0.0
    return (-w.real - 1.0) / b - 2.0


def assert_lambert_touchpoints(spec: BoatshapeSpec, d: BinomialData) -> int:
    """Compare the interior posterior touchpoints of an axis boat with the
    Lambert-W closed form, relative to the strength ``x + 2``, for ``s >= n/2``.
    Returns how many touchpoints were compared."""
    d1 = d.s - 0.5 * d.n
    L, R = spec.eta0_lo + d.n, spec.eta0_hi + d.n
    tp_lo, tp_hi = solve_posterior_touchpoints(spec, d)
    compared = 0
    for tp, F in ((tp_hi, spec.a / (spec.a + d1)), (tp_lo, spec.a / (spec.a - d1))):
        if L < tp < R:
            ref = lambert_touchpoint(spec.b, L, F)
            assert tp + 2.0 == pytest.approx(ref + 2.0, rel=1e-10, abs=0.0)
            compared += 1
    return compared


class TestLambertClosedForm:
    def test_random_axis_boats_and_data(self):
        rng = np.random.default_rng(40)
        compared = 0
        for _ in range(300):
            spec = random_boat_spec(rng)
            n = rng.uniform(0.0, 20.0)
            compared += assert_lambert_touchpoints(spec, BinomialData(n, rng.uniform(n / 2.0, n)))
        assert compared >= 300

    def test_prior_touchpoint(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            spec = random_boat_spec(rng)
            tp = solve_prior_upper_touchpoint(spec)
            if tp < spec.eta0_hi:
                ref = lambert_touchpoint(spec.b, spec.eta0_lo, 1.0)
                assert tp + 2.0 == pytest.approx(ref + 2.0, rel=1e-10, abs=0.0)

    def test_long_span(self):
        spec = BoatshapeSpec(eta0_lo=0.0, eta0_hi=1e3, a=0.5, b=1.5)
        assert assert_lambert_touchpoints(spec, BinomialData(0.0, 0.0)) == 2
        assert assert_lambert_touchpoints(spec, BinomialData(10.0, 5.3)) == 2

    def test_hundred_million_trials(self):
        # b (L + 2) = 200 keeps the reference's exp(-1 - b (L + 2)) in range
        spec = BoatshapeSpec(eta0_lo=1.0, eta0_hi=1e7, a=1.0, b=2e-6)
        assert assert_lambert_touchpoints(spec, BinomialData(1e8, 5e7 + 0.25)) == 2
        assert assert_lambert_touchpoints(spec, BinomialData(1e8, 5e7)) == 2

    def test_near_tangency(self):
        # the crossing lies just beyond the bow where both sides nearly touch:
        # the W argument is within 1e-4 of its branch point -1/e
        spec = BoatshapeSpec(eta0_lo=0.0, eta0_hi=200.0, a=0.5, b=1e-4)
        d = BinomialData(1e-3, 5e-4 + 7.5e-5)
        F = spec.a / (spec.a + d.s - 0.5 * d.n)
        z = -math.exp(-1.0 - spec.b * (spec.eta0_lo + d.n + 2.0)) / F
        assert 0.0 < 1.0 + math.e * z < 1e-4
        assert assert_lambert_touchpoints(spec, d) >= 1


class TestPosteriorTouchpoints:
    def test_balanced_data_symmetric_and_shifted_beyond(self):
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(100):
            spec = random_boat_spec(rng)
            n = rng.uniform(0.1, 20.0)
            tp_lo, tp_hi = solve_posterior_touchpoints(spec, BinomialData(n, n / 2.0))
            assert tp_lo == tp_hi
            prior = solve_prior_upper_touchpoint(spec)
            if prior < spec.eta0_hi and tp_hi < spec.eta0_hi + n:
                assert tp_hi > prior + n
                checked += 1
        assert checked >= 50

    def test_small_boat_conflict_clamps_lower_at_stern(self):
        tp_lo, _ = solve_posterior_touchpoints(SMALL_BOAT, BinomialData(4.0, 4.0))
        assert tp_lo == SMALL_BOAT.eta0_hi + 4.0 == 10.0

    @pytest.mark.parametrize("n,s", [(10.0, 5.0), (10.0, 8.0), (4.0, 1.0), (100.0, 60.0)])
    def test_rotated_boat_touchpoints_attain_shadow(self, n, s):
        # the touchpoints are symmetry-frame abscissae: put each on its
        # contour in the data-shifted symmetry frame, rotate it about the apex
        # and read off its prior mean
        theta = math.atan(SKEWED_BOAT.y_c - 0.5)
        c, sn = math.cos(theta), math.sin(theta)
        d = BinomialData(n, s)
        d0 = c * n + sn * (s - 0.5 * n)
        d1 = -sn * n + c * (s - 0.5 * n)

        def mean_on_contour(x: float, side: float) -> float:
            bow = SKEWED_BOAT.eta0_lo + d0
            y = d1 + side * SKEWED_BOAT.a * (1.0 - math.exp(-SKEWED_BOAT.b * (x - bow)))
            ex, ey = -2.0 + c * (x + 2.0) - sn * y, sn * (x + 2.0) + c * y
            return ey / (ex + 2.0) + 0.5

        tp_lo, tp_hi = solve_posterior_touchpoints(SKEWED_BOAT, d)
        expected = shadow(updated(EtaSet(SKEWED_BOAT), d))
        assert mean_on_contour(tp_lo, -1.0) == pytest.approx(expected.y_lo, abs=1e-9)
        assert mean_on_contour(tp_hi, 1.0) == pytest.approx(expected.y_hi, abs=1e-9)

    def test_far_shifted_set_always_stern_clamped(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            spec = random_boat_spec(rng)
            n = rng.uniform(2.0 * spec.a + 0.1, 2.0 * spec.a + 20.0)
            s = rng.uniform(n / 2.0 + spec.a, n)  # whole set above the axis
            tp_lo, _ = solve_posterior_touchpoints(spec, BinomialData(n, s))
            assert tp_lo == spec.eta0_hi + n

    def test_residuals_when_interior(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            spec = random_boat_spec(rng)
            n = rng.uniform(0.0, 15.0)
            s = rng.uniform(n / 2.0, n)
            d = BinomialData(n, s)
            tp_lo, tp_hi = solve_posterior_touchpoints(spec, d)
            if spec.eta0_lo + n < tp_hi < spec.eta0_hi + n:
                assert abs(tangency_residual(spec, d, tp_hi, "upper")) < 1e-9
            if tp_lo < spec.eta0_hi + n and s - n / 2.0 < spec.a:
                assert abs(tangency_residual(spec, d, tp_lo, "lower")) < 1e-9

    def test_mirror_symmetry_in_s(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            spec = random_boat_spec(rng)
            n = rng.uniform(0.5, 12.0)
            s = rng.uniform(0.0, n)
            lo1, hi1 = solve_posterior_touchpoints(spec, BinomialData(n, s))
            lo2, hi2 = solve_posterior_touchpoints(spec, BinomialData(n, n - s))
            assert lo1 == pytest.approx(hi2, abs=1e-10)
            assert hi1 == pytest.approx(lo2, abs=1e-10)


class TestShadow:
    def test_segment_prior_is_its_own_mean_range(self):
        result = shadow(segment_set(2.0, 0.4, 0.6))
        assert result.y_lo == pytest.approx(0.4, abs=1e-12)
        assert result.y_hi == pytest.approx(0.6, abs=1e-12)

    def test_long_boat_prior_symmetric_and_matches_grid(self):
        result = shadow(boat_set(-1.0, 20.0, 1.0, 0.4))
        assert result.y_lo == pytest.approx(1.0 - result.y_hi, abs=1e-12)
        g_lo, g_hi = grid_shadow(boat_set(-1.0, 20.0, 1.0, 0.4), GridSpec(resolution=2000))
        assert result.y_lo == pytest.approx(g_lo, abs=1e-3)
        assert result.y_hi == pytest.approx(g_hi, abs=1e-3)

    def test_balanced_update_keeps_symmetry(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            spec = random_boat_spec(rng)
            n = rng.uniform(0.0, 20.0)
            result = shadow(updated(EtaSet(spec), BinomialData(n, n / 2.0)))
            assert result.y_hi - 0.5 == pytest.approx(0.5 - result.y_lo, abs=1e-12)

    def test_analytic_matches_grid_randomized(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            spec = random_boat_spec(rng)
            n = rng.uniform(0.0, 12.0)
            s = rng.uniform(0.0, n) if n > 0 else 0.0
            post = updated(EtaSet(spec), BinomialData(n, s))
            result = shadow(post)
            g_lo, g_hi = grid_shadow(post, GridSpec(resolution=200))
            assert result.y_lo == pytest.approx(g_lo, abs=1e-3)
            assert result.y_hi == pytest.approx(g_hi, abs=1e-3)

    def test_rotated_boat_matches_grid(self):
        for y_c, n, s in ((0.75, 0.0, 0.0), (0.75, 10.0, 3.0), (0.35, 6.0, 5.0)):
            post = updated(boat_set(-1.0, 20.0, 1.0, 0.4, y_c=y_c), BinomialData(n, s))
            result = shadow(post)
            g_lo, g_hi = grid_shadow(post, GridSpec(resolution=400))
            assert result.y_lo == pytest.approx(g_lo, abs=1e-3)
            assert result.y_hi == pytest.approx(g_hi, abs=1e-3)

    def test_rotated_boat_matches_prior_boundary_scan(self):
        rng = np.random.default_rng(35)
        specs = [SKEWED_BOAT, LOW_SKEWED_BOAT] + [random_rotated_boat_spec(rng) for _ in range(8)]
        for spec in specs:
            prior = EtaSet(spec)
            for _ in range(3):
                n = rng.uniform(0.0, 30.0)
                d = BinomialData(n, rng.uniform(0.0, n))
                result = shadow(updated(prior, d))
                ref_lo, ref_hi = canonical_route_bounds(prior, d)
                assert result.y_lo == pytest.approx(ref_lo, abs=1e-8)
                assert result.y_hi == pytest.approx(ref_hi, abs=1e-8)

    def test_rotated_touchpoints_are_the_extremizers(self):
        # tp_* are real-frame abscissae: the boundary point with that abscissa
        # on the right side of the set attains the bound
        for d in (BinomialData(10.0, 2.0), BinomialData(10.0, 7.0), BinomialData(100.0, 90.0)):
            post = updated(EtaSet(SKEWED_BOAT), d)
            result = shadow(post)
            ts = np.linspace(0.0, 1.0, 200001)[:-1]
            x, y = _boundary_xy(post, ts)
            mean = 0.5 + y / (x + 2.0)
            for tp, bound in ((result.tp_lo, result.y_lo), (result.tp_hi, result.y_hi)):
                i = int(np.argmin(np.abs(mean - bound)))
                assert mean[i] == pytest.approx(bound, abs=1e-6)
                assert x[i] == pytest.approx(tp, abs=1e-3)

    def test_touchpoints_inside_set_extent(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            spec = random_boat_spec(rng)
            n = rng.uniform(0.0, 15.0)
            s = rng.uniform(0.0, n) if n > 0 else 0.0
            result = shadow(updated(EtaSet(spec), BinomialData(n, s)))
            assert spec.eta0_lo + n - 1e-9 <= result.tp_lo <= spec.eta0_hi + n + 1e-9
            assert spec.eta0_lo + n - 1e-9 <= result.tp_hi <= spec.eta0_hi + n + 1e-9

    def test_upper_bound_monotone_in_s(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            spec = random_boat_spec(rng)
            n = rng.uniform(1.0, 15.0)
            base = EtaSet(spec)
            ss = np.linspace(n / 2.0, n, 40)
            ys = [shadow(updated(base, BinomialData(n, s))).y_hi for s in ss]
            diffs = np.diff(ys)
            assert np.all(diffs >= -1e-12)
            assert np.all(diffs[1:] > 0.0) or diffs[0] > 0.0  # strict once s > n/2

    def test_invalid_set_rejected(self):
        bad = EtaSet(BoatshapeSpec(eta0_lo=-1.9, eta0_hi=5.0, a=10.0, b=0.5))
        with pytest.raises(InvalidParameterError):
            shadow(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            # too wide for the y_c = 0.9 ray: the upper contour leaves the wedge
            EtaSet(BoatshapeSpec(eta0_lo=-1.0, eta0_hi=20.0, a=1.0, b=0.4, y_c=0.9)),
            # pushed off the wedge by the accumulated shift
            EtaSet(SKEWED_BOAT, shift=(0.0, 5.0)),
            EtaSet(LOW_SKEWED_BOAT, shift=(1.0, -3.0)),
            # the pulled-back bow lands behind the apex
            EtaSet(
                BoatshapeSpec(eta0_lo=-1.9, eta0_hi=5.0, a=0.01, b=0.5, y_c=0.9),
                shift=(0.0, -3.0),
            ),
            EtaSet(rectangle_set(1.0, 4.0, 0.3, 0.7).spec, shift=(0.0, 3.0)),
            EtaSet(segment_set(2.0, 0.4, 0.6).spec, shift=(1.0, -2.0)),
        ],
    )
    def test_sets_outside_wedge_rejected(self, bad):
        assert not validate(bad).ok
        with pytest.raises(InvalidParameterError, match="margin"):
            shadow(bad)

    def test_guard_agrees_with_dense_validation(self):
        rng = np.random.default_rng(36)
        rejected = 0
        for _ in range(200):
            base = random_rotated_boat_spec(rng)  # widened past the wedge at times
            widen = rng.uniform(0.5, 3.0)
            spec = BoatshapeSpec(base.eta0_lo, base.eta0_hi, base.a * widen, base.b, base.y_c)
            set_ = EtaSet(spec, shift=(rng.uniform(0.0, 5.0), rng.uniform(-3.0, 3.0)))
            report = validate(set_)
            if abs(report.worst_margin) < 1e-6:
                continue  # too close to the wedge to tell from a sample
            if report.ok:
                shadow(set_)
            else:
                rejected += 1
                with pytest.raises(InvalidParameterError):
                    shadow(set_)
        assert 20 <= rejected <= 180


class TestLearningPhase:
    def test_long_boat_window(self):
        assert learning_phase(LONG_BOAT, BinomialData(10, 5)) is LearningPhase.HAPPY_BOTH
        # beyond the lower sticking threshold but not yet the upper one
        assert learning_phase(LONG_BOAT, BinomialData(10, 9)) is LearningPhase.UNHAPPY_LOWER
        assert learning_phase(LONG_BOAT, BinomialData(10, 9.7)) is LearningPhase.UNHAPPY_BOTH
        assert learning_phase(LONG_BOAT, BinomialData(10, 1)) is LearningPhase.UNHAPPY_UPPER
        assert learning_phase(LONG_BOAT, BinomialData(10, 0.3)) is LearningPhase.UNHAPPY_BOTH

    @pytest.mark.parametrize("n", [4.0, 10.0, 100.0])
    def test_rotated_boat_matches_shadow(self, n):
        for s in np.linspace(0.0, n, 21):
            d = BinomialData(n, float(s))
            expected = shadow(updated(EtaSet(SKEWED_BOAT), d)).phase
            assert learning_phase(SKEWED_BOAT, d) is expected, f"s = {s}"

    def test_no_data_prior_phase(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            spec = random_boat_spec(rng)
            phase = learning_phase(spec, BinomialData(0.0, 0.0))
            if solve_prior_upper_touchpoint(spec) < spec.eta0_hi:
                assert phase is LearningPhase.HAPPY_BOTH


class TestThresholds:
    def test_long_boat_values(self):
        th = agreement_thresholds(LONG_BOAT, 10.0)
        # closed forms derived from the sticking conditions of the tangency
        s_u_closed = 5.0 + 1.0 * 0.4 * (-1.0 + 10.0 + 2.0)
        s_l_closed = 5.0 + 1.0 * (
            1.0 - (1.0 + 0.4 * (20.0 + 10.0 + 2.0)) * math.exp(-0.4 * 21.0)
        )
        assert th.s_u == pytest.approx(s_u_closed, abs=1e-8)
        assert th.s_l == pytest.approx(s_l_closed, abs=1e-8)

    def test_defining_property(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            spec = random_boat_spec(rng)
            n = rng.uniform(1.0, 20.0)
            th = agreement_thresholds(spec, n)
            for threshold, which in ((th.s_u, "upper"), (th.s_l, "lower")):
                if n / 2.0 < threshold < n:
                    lo_, hi_ = solve_posterior_touchpoints(
                        spec, BinomialData(n, threshold - 1e-6)
                    )
                    assert (hi_ if which == "upper" else lo_) != (
                        spec.eta0_lo + n if which == "upper" else spec.eta0_hi + n
                    )
                    lo_, hi_ = solve_posterior_touchpoints(
                        spec, BinomialData(n, threshold + 1e-6)
                    )
                    if which == "upper":
                        assert hi_ == spec.eta0_lo + n
                    else:
                        assert lo_ == spec.eta0_hi + n

    def test_range_invariant(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            spec = random_boat_spec(rng)
            n = rng.uniform(0.0, 25.0)
            th = agreement_thresholds(spec, n)
            assert n / 2.0 <= th.s_u <= n
            assert n / 2.0 <= th.s_l <= n

    def test_phase_coherent_with_thresholds(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            spec = random_boat_spec(rng)
            n = rng.uniform(1.0, 20.0)
            th = agreement_thresholds(spec, n)
            t = min(th.s_u, th.s_l)
            for s in np.linspace(0.0, n, 23):
                if abs(s - t) < 1e-6 or abs(s - (n - t)) < 1e-6:
                    continue  # undefined exactly at the switch
                happy = learning_phase(spec, BinomialData(n, s)) is LearningPhase.HAPPY_BOTH
                assert happy == (n - t < s < t)


    def test_closed_forms_match_bisection_oracle(self):
        rng = np.random.default_rng(37)
        for k in range(320):
            spec = random_boat_spec(rng) if k % 2 else random_rotated_boat_spec(rng)
            n = float(rng.choice((0.0, 1.0, 4.0, 10.0, 100.0))) * rng.uniform(0.5, 1.5)
            th = agreement_thresholds(spec, n)
            s_u, s_l, happy_lo = bisection_thresholds(spec, n)
            assert th.s_u == pytest.approx(s_u, abs=1e-9)
            assert th.s_l == pytest.approx(s_l, abs=1e-9)
            assert th.happy_lo == pytest.approx(happy_lo, abs=1e-9)
            assert th.happy_hi == min(th.s_u, th.s_l)

    def test_axis_window_is_mirrored(self):
        rng = np.random.default_rng(38)
        for _ in range(50):
            spec = random_boat_spec(rng)
            n = rng.uniform(0.0, 25.0)
            th = agreement_thresholds(spec, n)
            assert th.happy_lo == pytest.approx(n - th.happy_hi, abs=1e-12)

    def test_skewed_boat_window(self):
        th = agreement_thresholds(SKEWED_BOAT, 10.0)
        assert th.s_u == 10.0  # the upper touchpoint never reaches the bow
        assert th.s_l == pytest.approx(8.5275, abs=1e-4)
        assert (th.happy_lo, th.happy_hi) == pytest.approx((6.4724, 8.5275), abs=1e-4)
        for s, happy in ((5.0, False), (6.4, False), (6.6, True), (8.4, True), (8.7, False)):
            phase = shadow(updated(EtaSet(SKEWED_BOAT), BinomialData(10.0, s))).phase
            assert (phase is LearningPhase.HAPPY_BOTH) == happy, f"s = {s}"

    def test_rotated_phase_coherent_with_window(self):
        rng = np.random.default_rng(39)
        for _ in range(60):
            spec = random_rotated_boat_spec(rng)
            n = rng.uniform(1.0, 100.0)
            th = agreement_thresholds(spec, n)
            slack = 1e-12 * n  # n * y_c is rounded differently on each side
            assert 0.0 <= th.happy_lo <= n * spec.y_c + slack
            assert n * spec.y_c - slack <= th.happy_hi <= n
            for s in np.linspace(0.0, n, 23):
                if min(abs(s - th.happy_lo), abs(s - th.happy_hi)) < 1e-7 * n:
                    continue  # undefined exactly at the switch
                happy = learning_phase(spec, BinomialData(n, s)) is LearningPhase.HAPPY_BOTH
                assert happy == (th.happy_lo < s < th.happy_hi)


class TestTerminalSlopes:
    def test_long_boat_formula(self):
        up, low = terminal_slopes(LONG_BOAT, 10.0)
        assert up == pytest.approx(1.0 / 11.0, abs=1e-15)
        assert low == pytest.approx(1.0 / 32.0, abs=1e-15)

    def test_upper_steeper_than_lower(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            spec = random_boat_spec(rng)
            up, low = terminal_slopes(spec, rng.uniform(0.0, 20.0))
            assert up > low

    def test_finite_differences_beyond_thresholds(self):
        n = 10.0
        th = agreement_thresholds(LONG_BOAT, n)
        start = max(th.s_u, th.s_l) + 0.05
        base = EtaSet(LONG_BOAT)
        up, low = terminal_slopes(LONG_BOAT, n)
        delta = 0.1
        for s in np.arange(start, n - delta, delta):
            r1 = shadow(updated(base, BinomialData(n, s)))
            r2 = shadow(updated(base, BinomialData(n, s + delta)))
            assert (r2.y_hi - r1.y_hi) / delta == pytest.approx(up, abs=1e-6)
            assert (r2.y_lo - r1.y_lo) / delta == pytest.approx(low, abs=1e-6)

    @pytest.mark.parametrize("spec", [SKEWED_BOAT, LOW_SKEWED_BOAT], ids=["y_c=0.75", "y_c=0.35"])
    def test_rotated_finite_differences_beyond_thresholds(self, spec):
        # each bound rides its set end from its own threshold on
        n, delta = 10.0, 0.1
        th = agreement_thresholds(spec, n)
        base = EtaSet(spec)
        checked = 0
        for slope, threshold, pick in zip(
            terminal_slopes(spec, n), (th.s_u, th.s_l), (lambda r: r.y_hi, lambda r: r.y_lo)
        ):
            for s in np.arange(threshold + 0.05, n - delta, delta):
                r1 = shadow(updated(base, BinomialData(n, s)))
                r2 = shadow(updated(base, BinomialData(n, s + delta)))
                assert (pick(r2) - pick(r1)) / delta == pytest.approx(slope, abs=1e-6)
                checked += 1
        assert checked >= 10

    def test_three_point_collinearity(self):
        n = 10.0
        th = agreement_thresholds(LONG_BOAT, n)
        s0 = max(th.s_u, th.s_l) + 0.05
        base = EtaSet(LONG_BOAT)
        ys = [shadow(updated(base, BinomialData(n, s0 + k * 0.2))) for k in range(3)]
        for pick in (lambda r: r.y_hi, lambda r: r.y_lo):
            a, b, c = (pick(r) for r in ys)
            assert b - a == pytest.approx(c - b, abs=1e-9)
