"""Special functions, expectation bounds, imprecision, and credibility unions."""

import math

import numpy as np
import pytest
from scipy.special import betainc as scipy_betainc
from scipy.special import betaincinv as scipy_betaincinv
from scipy.stats import beta as scipy_beta

from boatshape import (
    BetaShape,
    BinomialData,
    EtaSet,
    GridSpec,
    InvalidParameterError,
    beta_cdf,
    beta_log_pdf,
    beta_quantile,
    boat_set,
    credibility_union,
    delta_rectangle_closed_form,
    grid_delta,
    imprecision_delta,
    posterior_expectation_bounds,
    rectangle_set,
    segment_set,
    shadow,
    updated,
)
from boatshape.shapes import _boundary_xy, _geometry
from conftest import canonical_route_bounds, random_boat_spec

# Frozen from quadrature of the unnormalized kernel p^2 (1-p)^4 on [0, 1]
# (see test_log_pdf_matches_quadrature_oracle).
BETA_3_5_LOG_PDF_AT_03 = 0.8193149657507218


@pytest.fixture
def cdf_rounds(monkeypatch):
    """The argument tuples of every ``_betainc`` call made in the test; a
    quantile solve makes one per round, for all its running lanes at once."""
    import boatshape.inference as inference

    calls = []
    betainc = inference._betainc

    def counted(*args):
        calls.append(args)
        return betainc(*args)

    monkeypatch.setattr(inference, "_betainc", counted)
    return calls


class TestLogPdf:
    def test_uniform_is_flat(self):
        for p in (0.1, 0.5, 0.9):
            assert beta_log_pdf(BetaShape(1.0, 1.0), p) == pytest.approx(0.0, abs=1e-14)

    def test_symmetric_peak(self):
        assert beta_log_pdf(BetaShape(2.0, 2.0), 0.5) == pytest.approx(
            math.log(1.5), abs=1e-14
        )

    def test_log_pdf_matches_quadrature_oracle(self):
        # trapezoid quadrature of the unnormalized kernel, refined enough to
        # pin the normalization constant well below the comparison tolerance
        p = np.linspace(0.0, 1.0, 2_000_001)
        kernel = p**2 * (1.0 - p) ** 4
        norm = np.trapezoid(kernel, p)
        oracle = math.log(0.3**2 * 0.7**4 / norm)
        assert oracle == pytest.approx(BETA_3_5_LOG_PDF_AT_03, abs=1e-10)
        assert beta_log_pdf(BetaShape(3.0, 5.0), 0.3) == pytest.approx(oracle, abs=1e-10)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            beta_log_pdf(BetaShape(2.0, 2.0), 0.0)
        with pytest.raises(InvalidParameterError):
            beta_log_pdf(BetaShape(2.0, 2.0), 1.0)


class TestCdf:
    def test_endpoints(self):
        shape = BetaShape(3.0, 4.0)
        assert beta_cdf(shape, 0.0) == 0.0
        assert beta_cdf(shape, 1.0) == 1.0

    def test_uniform_is_identity(self):
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert beta_cdf(BetaShape(1.0, 1.0), p) == pytest.approx(p, abs=1e-14)

    def test_reflection_identity(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            a = rng.uniform(0.5, 50.0)
            b = rng.uniform(0.5, 50.0)
            p = rng.uniform(0.0, 1.0)
            lhs = beta_cdf(BetaShape(a, b), p)
            rhs = 1.0 - beta_cdf(BetaShape(b, a), 1.0 - p)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_monotone(self):
        shape = BetaShape(0.7, 3.3)
        ps = np.linspace(0.0, 1.0, 400)
        vals = [beta_cdf(shape, p) for p in ps]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_against_scipy(self):
        rng = np.random.default_rng(41)
        for _ in range(400):
            a = rng.uniform(0.3, 80.0)
            b = rng.uniform(0.3, 80.0)
            p = rng.uniform(0.0, 1.0)
            assert beta_cdf(BetaShape(a, b), p) == pytest.approx(
                float(scipy_betainc(a, b, p)), abs=1e-10
            )

    @pytest.mark.parametrize("x", [1e-3, 1e-5, 1e-8, 1e-12, 1.054e-17])
    def test_far_tail_keeps_relative_precision(self, x):
        # far below the mean, x - mean rounds next to -mean and loses x's digits
        ref = float(scipy_betainc(14.85, 212.08, x))
        assert beta_cdf(BetaShape(14.85, 212.08), x) == pytest.approx(ref, rel=1e-12, abs=0.0)
        # and the mirror image, far above the mean
        if x > 1e-16:
            log_pdf = beta_log_pdf(BetaShape(212.08, 14.85), 1.0 - x)
            assert log_pdf == pytest.approx(scipy_beta.logpdf(1.0 - x, 212.08, 14.85), abs=1e-12)


    @pytest.mark.parametrize("a,b", [(0.3, 5.0), (12.0, 0.8), (0.4, 0.6), (0.2, 0.9)])
    def test_raised_shapes_against_scipy(self, a, b):
        # a shape below 1 is raised by one, and the raised shapes' front
        # factors follow from that of (a, b) by exact identities
        import boatshape.inference as inference

        x = np.array([1e-8, 0.3, 0.9, 1.0 - 1e-8])
        aa, bb = np.full(4, a), np.full(4, b)
        cdf, log_front = inference._betainc(aa, bb, x)
        np.testing.assert_allclose(cdf, scipy_betainc(a, b, x), rtol=1e-12, atol=0.0)
        # the lane terms a quantile solve forms once give the same bits
        again = inference._betainc(aa, bb, x, inference._lane_terms(aa, bb))
        assert np.array_equal(cdf, again[0]) and np.array_equal(log_front, again[1])


class TestQuantile:
    def test_uniform(self):
        assert beta_quantile(BetaShape(1.0, 1.0), 0.25) == pytest.approx(0.25, abs=1e-12)

    def test_symmetric_median(self):
        assert beta_quantile(BetaShape(2.0, 2.0), 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            shape = BetaShape(rng.uniform(0.5, 50.0), rng.uniform(0.5, 50.0))
            q = rng.uniform(0.005, 0.995)
            p = beta_quantile(shape, q)
            assert beta_cdf(shape, p) == pytest.approx(q, abs=1e-9)

    def test_quantile_below_smallest_float(self):
        # the 1e-5 quantile of Beta(0.01, 5) is about 1e-500: the answer is
        # the smallest positive float, not an error
        p = beta_quantile(BetaShape(0.01, 5.0), 1e-5)
        assert 0.0 < p <= float(scipy_betaincinv(0.01, 5.0, 1e-5))

    def test_level_domain(self):
        with pytest.raises(InvalidParameterError):
            beta_quantile(BetaShape(2.0, 2.0), 0.0)

    #: Upper quantiles within 1e-13 of 1, most of them so close that they round to 1.
    NEAR_ONE = [(0.954, 0.0456), (10002.37, 0.1131), (3.0, 0.02), (1e8, 0.02), (50.0, 0.0456)]

    @pytest.mark.parametrize("a,b", NEAR_ONE)
    @pytest.mark.parametrize("q", [0.9, 0.95, 0.999])
    def test_quantile_near_one_is_correctly_rounded(self, a, b, q, cdf_rounds):
        # Solved for 1 - x on the small tail, the quantile is scipy's (which a
        # 60-digit bisection confirms for these), capped at the float below 1,
        # in at most 3 rounds: x itself is too coarse near 1 to solve for.
        ref = min(float(scipy_betaincinv(a, b, q)), np.nextafter(1.0, 0.0))
        assert beta_quantile(BetaShape(a, b), q) == ref
        assert len(cdf_rounds) <= 3

    @pytest.mark.parametrize("a,b", NEAR_ONE)
    @pytest.mark.parametrize("q", [0.9, 0.95, 0.999])
    def test_small_tail_keeps_relative_precision(self, a, b, q, cdf_rounds):
        # the mirrored lower quantiles, down to 1e-159
        ref = float(scipy_betaincinv(b, a, 1.0 - q))
        assert beta_quantile(BetaShape(b, a), 1.0 - q) == pytest.approx(ref, rel=1e-10)
        assert len(cdf_rounds) <= 3

    @pytest.mark.parametrize(
        "a,b,q", [(0.4365, 10000.56, 0.995), (10000.56, 0.4365, 0.005), (0.3, 50.0, 0.999)]
    )
    def test_one_shape_below_one_starts_in_the_body(self, a, b, q, cdf_rounds):
        # a < 1 << b: past the head of the density the power law near 0 falls
        # short (7.2e-5 against 3.73e-4 for the first), and took 7 rounds
        # (5 for the third); the gamma limit as b -> inf starts in the body
        ref = float(scipy_betaincinv(a, b, q))
        assert beta_quantile(BetaShape(a, b), q) == pytest.approx(ref, rel=1e-10)
        assert len(cdf_rounds) <= 3

    def test_warm_start_matches_cold(self):
        import boatshape.inference as inference

        rng = np.random.default_rng(7)
        a = np.exp(rng.uniform(-3.0, 12.0, 400))
        b = np.exp(rng.uniform(-3.0, 12.0, 400))
        q = rng.uniform(0.01, 0.99, 400)
        cold = inference._quantile_vec(a, b, q)
        # starts off by a relative 1e-6, as a neighbouring solution would be
        warm = inference._quantile_vec(a, b, q, cold * (1.0 + 1e-6 * rng.standard_normal(400)))
        # both stopped within the 1e-12 residual (or where the float grid is too
        # coarse for it) of the same root
        slack = 2e-12 / np.exp([beta_log_pdf(BetaShape(*s), x) for s, x in zip(zip(a, b), cold)])
        assert np.all(np.abs(warm - cold) <= np.maximum(slack, 2.0 * np.spacing(cold)))


#: Large and lopsided shapes: both routes of the incomplete beta function
#: (quadrature near the mean when both shapes are >= 1000, the continued
#: fraction elsewhere), up to a, b = 1e8.
LARGE_SHAPES = [
    (1e3, 1e3), (1e5, 1e5), (1e7, 1e7), (1e8, 1e8),
    (2e3, 1e8), (1e8, 2.5e7), (5e6 + 3.5, 5e6 - 2.0), (1e8, 40.0),
]


def mean_sd(a: float, b: float) -> tuple[float, float]:
    return a / (a + b), math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))


class TestLargeShapes:
    @pytest.mark.parametrize("a,b", LARGE_SHAPES)
    def test_cdf_against_scipy(self, a, b):
        mean, sd = mean_sd(a, b)
        points = [mean + k * sd for k in (-5.0, -1.0, -0.01, 0.01, 1.0, 5.0)] + [0.5001]
        for p in points:
            assert abs(beta_cdf(BetaShape(a, b), p) - float(scipy_betainc(a, b, p))) <= 1e-12, p

    @pytest.mark.parametrize("a,b", LARGE_SHAPES)
    def test_quantile_against_scipy(self, a, b):
        shape = BetaShape(a, b)
        for q in (1e-3, 0.25, 0.5, 0.75, 0.999):
            ref = float(scipy_betaincinv(a, b, q))
            # what a CDF residual of 1e-12 allows, or the float grid where the
            # CDF rises by more than that from one float to the next
            slack = max(1e-12 / math.exp(beta_log_pdf(shape, ref)), 2.0 * np.spacing(ref))
            assert abs(beta_quantile(shape, q) - ref) <= slack, q

    @pytest.mark.parametrize("a,b", [(1e5, 1e5), (1e7, 1e7), (3e7, 7e7), (40.0, 1e8)])
    def test_log_pdf_integrates_to_cdf(self, a, b):
        # 40-point Gauss-Legendre over mean +- 1 sd is exact far below the
        # tolerance; a normalizer that lost digits shows as a relative offset.
        # (The lopsided case keeps its mass near 0, where the float grid of
        # the nodes is fine enough.)
        mean, sd = mean_sd(a, b)
        lo, hi = mean - sd, mean + sd
        nodes, weights = np.polynomial.legendre.leggauss(40)
        xs = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        density = np.array([math.exp(beta_log_pdf(BetaShape(a, b), float(x))) for x in xs])
        integral = 0.5 * (hi - lo) * float(density @ weights)
        expected = float(scipy_betainc(a, b, hi) - scipy_betainc(a, b, lo))
        assert integral == pytest.approx(expected, rel=1e-11)


class TestExpectationBounds:
    def test_segment_prior(self):
        lo, hi = posterior_expectation_bounds(segment_set(2.0, 0.4, 0.6), BinomialData(0, 0))
        assert (lo, hi) == pytest.approx((0.4, 0.6), abs=1e-12)

    def test_rectangle_against_grid_oracle(self):
        rect = rectangle_set(1.0, 2.0, 0.4, 0.6)
        d = BinomialData(10.0, 5.0)
        lo, hi = posterior_expectation_bounds(rect, d)
        g = grid_delta(rect, d, GridSpec(resolution=500))
        assert hi - lo == pytest.approx(g, abs=1e-6)
        # exact corner arithmetic for this configuration
        assert lo == pytest.approx((2.0 * 0.4 + 5.0) / 12.0, abs=1e-12)
        assert hi == pytest.approx((2.0 * 0.6 + 5.0) / 12.0, abs=1e-12)

    def test_data_swamps_prior(self):
        for set_ in (
            segment_set(2.0, 0.3, 0.7),
            rectangle_set(1.0, 4.0, 0.3, 0.7),
            boat_set(1.0, 6.0, 1.5, 0.9),
        ):
            lo, hi = posterior_expectation_bounds(set_, BinomialData(1e6, 3e5))
            assert lo == pytest.approx(0.3, abs=1e-3)
            assert hi == pytest.approx(0.3, abs=1e-3)

    def test_route_agreement_all_shapes(self):
        rng = np.random.default_rng(43)
        sets = [
            segment_set(2.0, 0.4, 0.6),
            rectangle_set(1.0, 3.0, 0.25, 0.65),
            boat_set(1.0, 6.0, 1.5, 0.9),
            boat_set(-1.0, 20.0, 1.0, 0.4),
        ]
        for set_ in sets:
            for _ in range(10):
                n = rng.uniform(0.0, 20.0)
                s = rng.uniform(0.0, n) if n > 0 else 0.0
                d = BinomialData(n, s)
                lo, hi = posterior_expectation_bounds(set_, d)
                ref_lo, ref_hi = canonical_route_bounds(set_, d)
                assert lo == pytest.approx(ref_lo, abs=1e-8)
                assert hi == pytest.approx(ref_hi, abs=1e-8)


class TestImprecision:
    def test_segment_invariance_in_s(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            n0 = rng.uniform(0.5, 8.0)
            y_lo = rng.uniform(0.05, 0.7)
            y_hi = rng.uniform(y_lo, 0.95)
            n = rng.uniform(0.5, 25.0)
            seg = segment_set(n0, y_lo, y_hi)
            expected = n0 * (y_hi - y_lo) / (n0 + n)
            for s in np.linspace(0.0, n, 7):
                assert imprecision_delta(seg, BinomialData(n, s)) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_rectangle_matches_closed_form(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            n_lo = rng.uniform(0.2, 5.0)
            n_hi = n_lo + rng.uniform(0.0, 8.0)
            y_lo = rng.uniform(0.05, 0.8)
            y_hi = rng.uniform(y_lo, 0.95)
            n = rng.uniform(0.1, 30.0)
            s = rng.uniform(0.0, n)
            rect = rectangle_set(n_lo, n_hi, y_lo, y_hi)
            d = BinomialData(n, s)
            assert imprecision_delta(rect, d) == pytest.approx(
                delta_rectangle_closed_form(rect.spec, d), abs=1e-8
            )

    def test_prior_width_for_no_data(self):
        rect = rectangle_set(1.0, 3.0, 0.35, 0.62)
        assert imprecision_delta(rect, BinomialData(0, 0)) == pytest.approx(
            0.27, abs=1e-12
        )

    def test_closed_form_examples(self):
        rect = rectangle_set(1.0, 2.0, 0.4, 0.6).spec
        assert delta_rectangle_closed_form(rect, BinomialData(10, 5)) == pytest.approx(
            1.0 / 30.0, abs=1e-15
        )
        # observed fraction inside the prior range: conflict term vanishes
        assert delta_rectangle_closed_form(rect, BinomialData(10, 4.5)) == pytest.approx(
            2.0 * 0.2 / 12.0, abs=1e-15
        )

    def test_closed_form_degenerate_rectangle_is_segment(self):
        rect = rectangle_set(2.0, 2.0, 0.4, 0.6).spec
        for s in (0.0, 5.0, 10.0):
            assert delta_rectangle_closed_form(rect, BinomialData(10, s)) == pytest.approx(
                2.0 * 0.2 / 12.0, abs=1e-15
            )

    def test_closed_form_needs_data(self):
        with pytest.raises(InvalidParameterError):
            delta_rectangle_closed_form(
                rectangle_set(1.0, 2.0, 0.4, 0.6).spec, BinomialData(0, 0)
            )

    def test_boat_dominated_by_matched_rectangle(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            spec = random_boat_spec(rng)
            boat = EtaSet(spec)
            prior = shadow(boat)
            rect = rectangle_set(
                spec.eta0_lo + 2.0, spec.eta0_hi + 2.0, prior.y_lo, prior.y_hi
            )
            n = rng.uniform(0.5, 15.0)
            for s in np.linspace(0.0, n, 5):
                d = BinomialData(n, s)
                assert imprecision_delta(boat, d) <= imprecision_delta(rect, d) + 1e-9


class TestCredibilityUnion:
    def test_singleton_set_gives_central_interval(self):
        point = segment_set(2.0, 0.5, 0.5)
        union = credibility_union(point, BinomialData(0, 0), 0.5)
        # one element: Beta(1, 1), so the central interval is [0.25, 0.75]
        assert union.lo == pytest.approx(0.25, abs=1e-9)
        assert union.hi == pytest.approx(0.75, abs=1e-9)

    def test_contains_sampled_element_intervals(self):
        rng = np.random.default_rng(47)
        boat = boat_set(1.0, 6.0, 1.5, 0.9)
        d = BinomialData(4.0, 3.0)
        union = credibility_union(boat, d, 0.5)
        post = updated(boat, d)
        from boatshape import contains

        count = 0
        while count < 100:
            e0 = rng.uniform(5.0, 10.0)
            e1 = rng.uniform(-0.6, 2.6)
            if not contains(post, (e0, e1)):
                continue
            count += 1
            n0 = e0 + 2.0
            y0 = e1 / n0 + 0.5
            shape = BetaShape(n0 * y0, n0 * (1.0 - y0))
            assert beta_quantile(shape, 0.25) >= union.lo - 1e-3
            assert beta_quantile(shape, 0.75) <= union.hi + 1e-3

    def test_boat_union_shorter_than_matched_rectangle(self):
        boat = boat_set(1.0, 6.0, 1.5, 0.9)
        prior = shadow(boat)
        rect = rectangle_set(3.0, 8.0, prior.y_lo, prior.y_hi)
        for n in (2.0, 4.0):
            d = BinomialData(n, n / 2.0)
            u_boat = credibility_union(boat, d, 0.5)
            u_rect = credibility_union(rect, d, 0.5)
            assert u_boat.hi - u_boat.lo < u_rect.hi - u_rect.lo

    def test_small_gamma_approaches_median_interval(self):
        seg = segment_set(2.0, 0.45, 0.55)
        union = credibility_union(seg, BinomialData(0, 0), 1e-6)
        med_lo = beta_quantile(BetaShape(2.0 * 0.45, 2.0 * 0.55), 0.5)
        med_hi = beta_quantile(BetaShape(2.0 * 0.55, 2.0 * 0.45), 0.5)
        assert union.lo == pytest.approx(med_lo, abs=1e-4)
        assert union.hi == pytest.approx(med_hi, abs=1e-4)

    def test_monotone_in_gamma(self):
        boat = boat_set(1.0, 6.0, 1.5, 0.9)
        d = BinomialData(4.0, 2.0)
        u1 = credibility_union(boat, d, 0.3)
        u2 = credibility_union(boat, d, 0.6)
        u3 = credibility_union(boat, d, 0.9)
        assert u3.lo < u2.lo < u1.lo < u1.hi < u2.hi < u3.hi

    def test_gamma_domain(self):
        with pytest.raises(InvalidParameterError):
            credibility_union(segment_set(2.0, 0.4, 0.6), BinomialData(0, 0), 1.0)

    @pytest.mark.parametrize("n", [1e6, 1e7, 1e8])
    @pytest.mark.parametrize("frac", [0.5, 0.7])
    def test_large_n_against_scipy_boundary_sample(self, n, frac):
        boat = boat_set(-1.0, 20.0, 1.0, 0.4)  # configs/boat_long.cfg
        d = BinomialData(n, frac * n)
        union = credibility_union(boat, d, 0.5)
        x, y = _boundary_xy(updated(boat, d), np.arange(4000) / 4000.0)
        half = 0.5 * (x + 2.0)
        ref_lo = float(np.min(scipy_betaincinv(half + y, half - y, 0.25)))
        ref_hi = float(np.max(scipy_betaincinv(half + y, half - y, 0.75)))
        assert union.lo == pytest.approx(ref_lo, abs=1e-6)
        assert union.hi == pytest.approx(ref_hi, abs=1e-6)
        # the sample is an inner approximation of the union
        assert union.lo <= ref_lo + 1e-12 and union.hi >= ref_hi - 1e-12

    @pytest.mark.parametrize("n,s", [(10.0, 5.0), (10.0, 8.0)])
    def test_rectangle_union_at_corner(self, n, s):
        # configs/boat_long_rect.cfg; a dense boundary scan puts both
        # extremes at corners for these data
        n_lo, n_hi, y_lo, y_hi = 1.0, 22.0, 0.316408696364, 0.683591303636
        union = credibility_union(rectangle_set(n_lo, n_hi, y_lo, y_hi), BinomialData(n, s), 0.5)
        corners = [(n0, y0) for n0 in (n_lo, n_hi) for y0 in (y_lo, y_hi)]
        alpha = np.array([n0 * y0 + s for n0, y0 in corners])
        beta = np.array([n0 * (1.0 - y0) + n - s for n0, y0 in corners])
        assert union.lo == pytest.approx(np.min(scipy_betaincinv(alpha, beta, 0.25)), abs=1e-12)
        assert union.hi == pytest.approx(np.max(scipy_betaincinv(alpha, beta, 0.75)), abs=1e-12)

    @pytest.mark.parametrize("n", [0.0, 10.0, 1e6])
    def test_segment_union_is_two_quantiles(self, n):
        n0, y_lo, y_hi, s = 4.0, 0.3, 0.6, 0.4 * n
        union = credibility_union(segment_set(n0, y_lo, y_hi), BinomialData(n, s), 0.9)
        ref_lo = scipy_betaincinv(n0 * y_lo + s, n0 * (1.0 - y_lo) + n - s, 0.05)
        ref_hi = scipy_betaincinv(n0 * y_hi + s, n0 * (1.0 - y_hi) + n - s, 0.95)
        assert union.lo == pytest.approx(float(ref_lo), abs=1e-12)
        assert union.hi == pytest.approx(float(ref_hi), abs=1e-12)

    def test_flat_rectangle_union_is_the_segments(self, monkeypatch):
        import boatshape.inference as inference

        calls = []
        quantile_vec = inference._quantile_vec

        def counted(*args):
            calls.append(args)
            return quantile_vec(*args)

        monkeypatch.setattr(inference, "_quantile_vec", counted)
        d = BinomialData(10.0, 4.0)
        seg = credibility_union(segment_set(3.0, 0.3, 0.7), d, 0.9)
        calls.clear()
        flat = credibility_union(rectangle_set(3.0, 3.0, 0.3, 0.7), d, 0.9)
        assert (flat.lo, flat.hi) == (seg.lo, seg.hi)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "set_,limit",
        [
            (boat_set(-1.0, 20.0, 1.0, 0.4), 4),  # configs/boat_long.cfg
            (boat_set(-1.0, 20.0, 1.0, 0.4, 0.75), 4),  # configs/boat_skewed.cfg
            (rectangle_set(1.0, 22.0, 0.316408696364, 0.683591303636), 3),
            (segment_set(1.0, 0.316408696364, 0.683591303636), 3),
        ],
        ids=["axis_boat", "rotated_boat", "rectangle", "segment"],
    )
    def test_union_cdf_rounds(self, set_, limit, cdf_rounds):
        # a scan and a first warm-started refinement pass that only locate (1
        # round each), and a last pass solved from its warm start (1-2 rounds);
        # a segment is one cold solve
        credibility_union(set_, BinomialData(10.0, 5.0), 0.5)
        assert len(cdf_rounds) <= limit

    @pytest.mark.parametrize("n", [0.0, 1e4])
    def test_union_near_one_takes_few_rounds(self, n, cdf_rounds):
        # configs/boat_skewed_rect.cfg: upper ends within 1e-16 of 1 cost no
        # more rounds than the 4 of a typical union
        rect = rectangle_set(1.0, 22.0, 0.563494439628, 0.954449549965)
        credibility_union(rect, BinomialData(n, n), 0.9)
        assert len(cdf_rounds) <= 4

    def test_union_builds_no_geometry(self):
        fresh = [  # used nowhere else, so a geometry would be built anew
            boat_set(-1.3, 13.0, 0.35, 0.55, 0.62),
            rectangle_set(1.7, 9.1, 0.23, 0.61),
            segment_set(5.3, 0.27, 0.71),
        ]
        before = _geometry.cache_info()
        for set_ in fresh:
            credibility_union(set_, BinomialData(7.0, 2.0), 0.8)
        assert _geometry.cache_info() == before


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_shape_rejected(self, field, bad):
        with pytest.raises(InvalidParameterError, match=f"finite {field}: got"):
            BetaShape(**{"alpha": 2.0, "beta": 3.0, field: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_function_arguments_rejected(self, bad):
        shape = BetaShape(2.0, 3.0)
        with pytest.raises(InvalidParameterError, match="CDF argument violates"):
            beta_cdf(shape, bad)
        with pytest.raises(InvalidParameterError, match="quantile level violates"):
            beta_quantile(shape, bad)
        with pytest.raises(InvalidParameterError, match="density argument violates"):
            beta_log_pdf(shape, bad)
