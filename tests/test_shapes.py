"""Set geometry: contours, rotation, membership, boundary, updating, records."""

import math

import numpy as np
import pytest

from boatshape import (
    BinomialData,
    BoatshapeSpec,
    EtaSet,
    InvalidParameterError,
    LineSegmentSpec,
    RectangleSpec,
    boat_contours,
    boat_set,
    boundary,
    contains,
    from_record,
    rectangle_set,
    rotate_about_apex,
    segment_set,
    to_record,
    updated,
    validate,
)

SMALL_BOAT = dict(eta0_lo=1.0, eta0_hi=6.0, a=1.5, b=0.9)
LONG_BOAT = dict(eta0_lo=-1.0, eta0_hi=20.0, a=1.0, b=0.4)


class TestContours:
    def test_pinched_at_bow(self):
        spec = BoatshapeSpec(**SMALL_BOAT)
        assert boat_contours(spec, spec.eta0_lo) == (0.0, 0.0)

    def test_known_value_at_stern(self):
        spec = BoatshapeSpec(**SMALL_BOAT)
        lower, upper = boat_contours(spec, 6.0)
        expected = 1.5 * (1.0 - math.exp(-0.9 * 5.0))
        assert upper == pytest.approx(expected, abs=1e-15)
        assert lower == -upper

    def test_monotone_and_below_half_width(self):
        spec = BoatshapeSpec(**LONG_BOAT)
        xs = np.linspace(spec.eta0_lo, spec.eta0_hi, 200)
        ups = [boat_contours(spec, x)[1] for x in xs]
        assert all(u2 >= u1 for u1, u2 in zip(ups, ups[1:]))
        assert all(0.0 <= u < spec.a for u in ups)

    def test_out_of_range(self):
        spec = BoatshapeSpec(**SMALL_BOAT)
        with pytest.raises(InvalidParameterError):
            boat_contours(spec, 0.5)
        with pytest.raises(InvalidParameterError):
            boat_contours(spec, 6.5)


class TestRotation:
    def test_identity_for_central_mean(self):
        assert rotate_about_apex((0.0, 0.0), 0.5) == (0.0, 0.0)

    def test_fixes_apex(self):
        for y_c in (0.1, 0.5, 0.9):
            out = rotate_about_apex((-2.0, 0.0), y_c)
            assert out == pytest.approx((-2.0, 0.0), abs=1e-15)

    def test_matrix_arithmetic(self):
        # explicit 2x2 rotation applied to the apex-centered vector
        theta = math.atan(0.75 - 0.5)
        c, s = math.cos(theta), math.sin(theta)
        expected = (-2.0 + c * 2.0 - s * 0.0, s * 2.0 + c * 0.0)
        out = rotate_about_apex((0.0, 0.0), 0.75)
        assert out == pytest.approx(expected, abs=1e-15)
        # lands on the constant-mean ray at distance 2 from the apex
        assert math.hypot(out[0] + 2.0, out[1]) == pytest.approx(2.0, abs=1e-12)
        assert out[1] == pytest.approx((out[0] + 2.0) * 0.25, abs=1e-12)

    def test_isometry_on_boundary(self):
        base = boat_set(**SMALL_BOAT)
        ts = np.linspace(0.0, 0.999, 50)
        pts = [boundary(base, t) for t in ts]
        rot = [rotate_about_apex((p.eta0, p.eta1), 0.7) for p in pts]
        for i in range(len(pts) - 1):
            d0 = math.hypot(pts[i].eta0 - pts[i + 1].eta0, pts[i].eta1 - pts[i + 1].eta1)
            d1 = math.hypot(rot[i][0] - rot[i + 1][0], rot[i][1] - rot[i + 1][1])
            assert d1 == pytest.approx(d0, abs=1e-12)


class TestMembership:
    def test_rectangle_midpoint(self):
        s = rectangle_set(1.0, 3.0, 0.3, 0.7)
        assert contains(s, (2.0 - 2.0, 2.0 * (0.5 - 0.5)))

    def test_boat_bow_on_boundary(self):
        s = boat_set(**SMALL_BOAT)
        assert contains(s, (1.0, 0.0))

    def test_left_of_set(self):
        s = boat_set(**SMALL_BOAT)
        assert not contains(s, (0.9, 0.0))

    def test_boundary_points_inside(self):
        for s in (
            boat_set(**SMALL_BOAT),
            boat_set(**LONG_BOAT, y_c=0.75),
            rectangle_set(1.0, 3.0, 0.3, 0.7),
            segment_set(2.0, 0.4, 0.6),
        ):
            for k in range(1000):
                assert contains(s, boundary(s, k / 1000.0))

    def test_outward_displacement_fails(self):
        s = boat_set(**SMALL_BOAT)
        interior = (3.0, 0.0)
        assert contains(s, interior)
        for t in (0.1, 0.2, 0.35, 0.6, 0.8):
            p = boundary(s, t)
            q = boundary(s, t + 1e-5)
            # outward normal: perpendicular to the local tangent, pointing
            # away from a known interior point
            tx, ty = q.eta0 - p.eta0, q.eta1 - p.eta1
            norm = math.hypot(tx, ty)
            nx, ny = -ty / norm, tx / norm
            if (p.eta0 - interior[0]) * nx + (p.eta1 - interior[1]) * ny < 0:
                nx, ny = -nx, -ny
            assert not contains(s, (p.eta0 + 1e-6 * nx, p.eta1 + 1e-6 * ny))

    def test_updated_membership_equivalence(self):
        s = boat_set(**SMALL_BOAT)
        d = BinomialData(4.0, 3.0)
        post = updated(s, d)
        rng = np.random.default_rng(2)
        for _ in range(200):
            e0 = rng.uniform(0.0, 8.0)
            e1 = rng.uniform(-2.0, 2.0)
            moved = (e0 + d.n, e1 + d.s - d.n / 2.0)
            assert contains(post, moved) == contains(s, (e0, e1))


class TestBoundary:
    def test_start_points(self):
        boat = boat_set(**SMALL_BOAT)
        p = boundary(boat, 0.0)
        assert (p.eta0, p.eta1) == pytest.approx((1.0, 0.0), abs=1e-12)
        rect = rectangle_set(1.0, 3.0, 0.3, 0.7)
        q = boundary(rect, 0.0)
        assert (q.eta0, q.eta1) == pytest.approx((-1.0, 0.2), abs=1e-12)

    def test_rectangle_corners_hit_at_arc_length_fractions(self):
        rect = rectangle_set(1.0, 3.0, 0.3, 0.7)
        corners = [(-1.0, 0.2), (1.0, 0.6), (1.0, -0.6), (-1.0, -0.2)]
        edges = [
            math.hypot(2.0, 0.4),  # top, along constant prior mean
            1.2,  # stern, constant strength
            math.hypot(2.0, 0.4),  # bottom
            0.4,  # left edge
        ]
        total = sum(edges)
        t = 0.0
        for corner, edge in zip(corners, edges):
            p = boundary(rect, t)
            assert math.hypot(p.eta0 - corner[0], p.eta1 - corner[1]) < 1e-6
            t += edge / total
        # halfway around the loop lands near the diagonally opposite region
        mid = boundary(rect, 0.5)
        assert mid.eta0 == pytest.approx(1.0, abs=1e-9)
        assert mid.eta1 < 0.2

    def test_parameter_range(self):
        s = segment_set(2.0, 0.4, 0.6)
        with pytest.raises(InvalidParameterError):
            boundary(s, 1.0)
        with pytest.raises(InvalidParameterError):
            boundary(s, -0.1)

    def test_continuity(self):
        s = boat_set(**LONG_BOAT, y_c=0.6)
        ts = np.linspace(0.0, 1.0, 5000, endpoint=False)
        pts = np.array([(p.eta0, p.eta1) for p in (boundary(s, t) for t in ts)])
        gaps = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
        # arc-length parametrization: adjacent samples stay uniformly close
        assert gaps.max() < 3.0 * gaps.mean()


class TestUpdating:
    def test_identity_update(self):
        s = boat_set(**SMALL_BOAT)
        assert updated(s, BinomialData(0.0, 0.0)) == s

    def test_balanced_and_conflicting_shifts(self):
        s = boat_set(**SMALL_BOAT)
        assert updated(s, BinomialData(4.0, 2.0)).shift == (4.0, 0.0)
        assert updated(s, BinomialData(4.0, 4.0)).shift == (4.0, 2.0)

    def test_rigid_translation_of_boundary(self):
        s = boat_set(**LONG_BOAT, y_c=0.75)
        d = BinomialData(6.0, 1.5)
        post = updated(s, d)
        for t in np.linspace(0.0, 0.999, 200):
            p = boundary(s, t)
            q = boundary(post, t)
            assert q.eta0 - p.eta0 == pytest.approx(6.0, abs=1e-12)
            assert q.eta1 - p.eta1 == pytest.approx(-1.5, abs=1e-12)

    def test_negative_total_shift_rejected(self):
        with pytest.raises(InvalidParameterError):
            EtaSet(LineSegmentSpec(2.0, 0.4, 0.6), shift=(-1.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_shift_rejected(self, axis, bad):
        shift = [1.0, 0.0]
        shift[axis] = bad
        with pytest.raises(InvalidParameterError, match=f"finite d{axis}: got"):
            EtaSet(LineSegmentSpec(2.0, 0.4, 0.6), shift=tuple(shift))


VALID_SPECS = [
    (BoatshapeSpec, dict(SMALL_BOAT, y_c=0.5)),
    (RectangleSpec, dict(n_lo=1.0, n_hi=3.0, y_lo=0.3, y_hi=0.6)),
    (LineSegmentSpec, dict(n0=2.0, y_lo=0.4, y_hi=0.6)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls,field",
    [(cls, field) for cls, fields in VALID_SPECS for field in fields],
)
def test_non_finite_spec_field_rejected(cls, field, bad):
    kwargs = dict(dict(VALID_SPECS)[cls], **{field: bad})
    with pytest.raises(InvalidParameterError, match=f"finite {field}: got"):
        cls(**kwargs)


class TestValidation:
    def test_long_boat_ok(self):
        report = validate(boat_set(**LONG_BOAT))
        assert report.ok
        assert report.worst_margin > 0.0
        assert report.samples >= 10000

    def test_wide_boat_violates(self):
        bad = EtaSet(BoatshapeSpec(eta0_lo=-1.9, eta0_hi=5.0, a=10.0, b=0.5))
        report = validate(bad)
        assert not report.ok
        assert report.worst_margin < 0.0
        # cross-check by direct contour sampling
        xs = np.linspace(-1.9, 5.0, 2000)
        contour = 10.0 * (1.0 - np.exp(-0.5 * (xs + 1.9)))
        assert np.max(contour - 0.5 * (xs + 2.0)) > 0.0

    def test_factory_rejects_wide_boat(self):
        with pytest.raises(InvalidParameterError):
            boat_set(eta0_lo=-1.9, eta0_hi=5.0, a=10.0, b=0.5)

    def test_rectangles_always_ok(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n_lo = rng.uniform(0.01, 10.0)
            n_hi = n_lo + rng.uniform(0.0, 20.0)
            y_lo = rng.uniform(0.01, 0.98)
            y_hi = rng.uniform(y_lo, 0.99)
            assert validate(rectangle_set(n_lo, n_hi, y_lo, y_hi)).ok


class TestRecords:
    @pytest.mark.parametrize(
        "set_",
        [
            boat_set(**SMALL_BOAT),
            boat_set(**LONG_BOAT, y_c=0.75),
            rectangle_set(1.0, 3.0, 0.3, 0.7),
            segment_set(2.0, 0.4, 0.6),
        ],
    )
    def test_round_trip(self, set_):
        moved = updated(set_, BinomialData(5.0, 2.0))
        assert from_record(to_record(moved)) == moved

    def test_kinds(self):
        assert to_record(boat_set(**SMALL_BOAT))["kind"] == "boat"
        assert to_record(rectangle_set(1, 2, 0.4, 0.6))["kind"] == "rectangle"
        assert to_record(segment_set(2, 0.4, 0.6))["kind"] == "segment"

    def test_bad_records(self):
        with pytest.raises(InvalidParameterError):
            from_record({"kind": "pentagon"})
        with pytest.raises(InvalidParameterError):
            from_record({"kind": "segment", "n0": 2.0})
        with pytest.raises(InvalidParameterError):
            from_record({"kind": "segment", "n0": 2.0, "y_lo": 0.4, "y_hi": 0.6, "zz": 1.0})

    def test_spec_field_invariants_named_in_errors(self):
        with pytest.raises(InvalidParameterError, match="a > 0"):
            BoatshapeSpec(1.0, 6.0, a=-1.0, b=0.9)
        with pytest.raises(InvalidParameterError, match="n0 > 0"):
            LineSegmentSpec(0.0, 0.4, 0.6)
        with pytest.raises(InvalidParameterError, match="n_lo <= n_hi"):
            RectangleSpec(3.0, 1.0, 0.4, 0.6)
