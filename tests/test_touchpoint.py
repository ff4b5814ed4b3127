"""Touchpoint solvers, shadows, phases, thresholds, and terminal slopes."""

import math

import numpy as np
import pytest

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
    segment_set,
    shadow,
    solve_posterior_touchpoints,
    solve_prior_upper_touchpoint,
    terminal_slopes,
    updated,
)
from conftest import random_boat_spec

SMALL_BOAT = BoatshapeSpec(eta0_lo=1.0, eta0_hi=6.0, a=1.5, b=0.9)
LONG_BOAT = BoatshapeSpec(eta0_lo=-1.0, eta0_hi=20.0, a=1.0, b=0.4)
#: configs/boat_skewed.cfg: the long boat rotated onto the y_c = 0.75 ray
SKEWED_BOAT = BoatshapeSpec(eta0_lo=-1.0, eta0_hi=20.0, a=1.0, b=0.4, y_c=0.75)

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

    def test_three_point_collinearity(self):
        n = 10.0
        th = agreement_thresholds(LONG_BOAT, n)
        s0 = max(th.s_u, th.s_l) + 0.05
        base = EtaSet(LONG_BOAT)
        ys = [shadow(updated(base, BinomialData(n, s0 + k * 0.2))) for k in range(3)]
        for pick in (lambda r: r.y_hi, lambda r: r.y_lo):
            a, b, c = (pick(r) for r in ys)
            assert b - a == pytest.approx(c - b, abs=1e-9)
