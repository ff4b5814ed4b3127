"""Brute-force grid envelopes: agreement, convergence, and determinism."""

import math
import tracemalloc

import numpy as np
import pytest

from boatshape import (
    BinomialData,
    GridSpec,
    InvalidParameterError,
    boat_set,
    credibility_union,
    delta_rectangle_closed_form,
    grid_credibility_union,
    grid_delta,
    grid_shadow,
    rectangle_set,
    segment_set,
    shadow,
    updated,
)

LONG_BOAT = dict(eta0_lo=-1.0, eta0_hi=20.0, a=1.0, b=0.4)


class TestGridShadow:
    def test_tiny_rectangle_is_pointlike(self):
        tiny = rectangle_set(2.0, 2.0 + 1e-9, 0.5, 0.5 + 1e-9)
        lo, hi = grid_shadow(tiny, GridSpec(resolution=50))
        assert lo == pytest.approx(0.5, abs=1e-8)
        assert hi == pytest.approx(0.5, abs=1e-8)

    def test_long_boat_prior_agreement(self):
        boat = boat_set(**LONG_BOAT)
        result = shadow(boat)
        lo, hi = grid_shadow(boat, GridSpec(resolution=2000))
        assert lo == pytest.approx(result.y_lo, abs=1e-3)
        assert hi == pytest.approx(result.y_hi, abs=1e-3)

    def test_convergence_under_refinement(self):
        boat = boat_set(**LONG_BOAT)
        result = shadow(boat)
        errs = []
        for res in (250, 500, 1000, 2000):
            lo, hi = grid_shadow(boat, GridSpec(resolution=res))
            errs.append(max(abs(lo - result.y_lo), abs(hi - result.y_hi)))
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= 1.5 * coarse
        assert errs[-1] < errs[0]
        # the envelope grows from inside, so the refinement helps meaningfully
        assert errs[0] / errs[-1] > 1.2

    def test_inner_approximation(self):
        boat = boat_set(**LONG_BOAT)
        result = shadow(boat)
        lo, hi = grid_shadow(boat, GridSpec(resolution=300))
        assert lo >= result.y_lo - 1e-12
        assert hi <= result.y_hi + 1e-12

    def test_deterministic(self):
        boat = boat_set(1.0, 6.0, 1.5, 0.9)
        g = GridSpec(resolution=150)
        assert grid_shadow(boat, g) == grid_shadow(boat, g)

    def test_bad_resolution(self):
        with pytest.raises(InvalidParameterError):
            GridSpec(resolution=1)


class TestGridDelta:
    def test_segment_constant_across_s(self):
        seg = segment_set(2.0, 0.4, 0.6)
        g = GridSpec(resolution=200)
        deltas = [grid_delta(seg, BinomialData(8.0, s), g) for s in (0.0, 2.0, 4.0, 8.0)]
        for d in deltas[1:]:
            assert d == pytest.approx(deltas[0], abs=1e-9)

    def test_rectangle_matches_closed_form(self):
        rect = rectangle_set(1.0, 3.0, 0.3, 0.6)
        d = BinomialData(12.0, 11.0)
        got = grid_delta(rect, d, GridSpec(resolution=500))
        assert got == pytest.approx(delta_rectangle_closed_form(rect.spec, d), abs=1e-3)

    def test_no_data_gives_prior_width(self):
        rect = rectangle_set(1.0, 3.0, 0.3, 0.6)
        assert grid_delta(rect, BinomialData(0, 0), GridSpec(resolution=300)) == pytest.approx(
            0.3, abs=1e-6
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["resolution", "margin"])
def test_non_finite_grid_rejected(field, bad):
    with pytest.raises(InvalidParameterError, match=f"finite {field}: got"):
        GridSpec(**{field: bad})


@pytest.mark.parametrize("bad", [2.5, 100.0, 10_001, 100_000])
def test_non_integer_or_huge_grid_rejected(bad):
    with pytest.raises(InvalidParameterError, match=r"must be an integer in \[2, 10000\]: got"):
        GridSpec(resolution=bad)


@pytest.mark.parametrize("good", [2, 10_000, np.int64(50), np.int32(50)])
def test_integer_grid_accepted(good):
    assert GridSpec(resolution=good).resolution == good


def test_memory_flat_in_resolution():
    post = updated(boat_set(**LONG_BOAT), BinomialData(10.0, 5.0))
    tracemalloc.start()
    try:
        grid_shadow(post, GridSpec(resolution=4000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6


class TestGridCredibilityUnion:
    def test_singleton(self):
        point = segment_set(2.0, 0.5, 0.5)
        union = grid_credibility_union(point, BinomialData(0, 0), 0.5, GridSpec(resolution=50))
        assert union.lo == pytest.approx(0.25, abs=1e-9)
        assert union.hi == pytest.approx(0.75, abs=1e-9)

    def test_agrees_with_analytic_union(self):
        boat = boat_set(1.0, 6.0, 1.5, 0.9)
        d = BinomialData(4.0, 2.0)
        got = grid_credibility_union(boat, d, 0.5, GridSpec(resolution=150))
        ref = credibility_union(boat, d, 0.5)
        assert got.lo == pytest.approx(ref.lo, abs=1e-3)
        assert got.hi == pytest.approx(ref.hi, abs=1e-3)

    def test_monotone_in_gamma(self):
        seg = segment_set(2.0, 0.4, 0.6)
        d = BinomialData(3.0, 2.0)
        g = GridSpec(resolution=80)
        u1 = grid_credibility_union(seg, d, 0.3, g)
        u2 = grid_credibility_union(seg, d, 0.7, g)
        assert u2.lo <= u1.lo <= u1.hi <= u2.hi
