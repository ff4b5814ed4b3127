"""Parametrization charts, domain checks, and update maps."""

import math

import numpy as np
import pytest

from boatshape import (
    BetaShape,
    BinomialData,
    BoatshapeSpec,
    CanonicalParams,
    EtaPoint,
    GridSpec,
    InvalidParameterError,
    canonical_to_eta,
    eta_to_canonical,
    in_domain,
    ray_eta1,
    update_canonical,
    update_eta,
)


class TestChart:
    @pytest.mark.parametrize(
        "eta,canonical",
        [
            ((0.0, 0.0), (2.0, 0.5)),
            ((-1.0, 0.25), (1.0, 0.75)),
            ((4.0, -1.5), (6.0, 0.25)),
        ],
    )
    def test_eta_to_canonical(self, eta, canonical):
        c = eta_to_canonical(EtaPoint(*eta))
        assert (c.n0, c.y0) == pytest.approx(canonical, abs=1e-15)

    @pytest.mark.parametrize(
        "canonical,eta",
        [
            ((2.0, 0.5), (0.0, 0.0)),
            ((1.0, 0.75), (-1.0, 0.25)),
            ((6.0, 0.25), (4.0, -1.5)),
        ],
    )
    def test_canonical_to_eta(self, canonical, eta):
        p = canonical_to_eta(CanonicalParams(*canonical))
        assert (p.eta0, p.eta1) == pytest.approx(eta, abs=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            eta0 = rng.uniform(-1.99, 50.0)
            eta1 = rng.uniform(-0.499, 0.499) * (eta0 + 2.0)
            p = EtaPoint(eta0, eta1)
            q = canonical_to_eta(eta_to_canonical(p))
            assert q.eta0 == pytest.approx(p.eta0, abs=1e-12)
            assert q.eta1 == pytest.approx(p.eta1, abs=1e-12)


class TestDomain:
    @pytest.mark.parametrize(
        "eta0,eta1,expected",
        [
            (0.0, 0.99, True),
            (0.0, 1.0, False),  # boundary excluded
            (-2.5, 0.0, False),
            (-2.0, 0.0, False),
            (10.0, -5.99, True),
        ],
    )
    def test_in_domain(self, eta0, eta1, expected):
        assert in_domain(eta0, eta1) is expected

    def test_boundary_points_rejected(self):
        with pytest.raises(InvalidParameterError):
            EtaPoint(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            EtaPoint(-2.0, 0.0)

    def test_invalid_canonical(self):
        with pytest.raises(InvalidParameterError):
            CanonicalParams(0.0, 0.5)
        with pytest.raises(InvalidParameterError):
            CanonicalParams(2.0, 1.0)

    def test_invalid_data(self):
        with pytest.raises(InvalidParameterError):
            BinomialData(-1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            BinomialData(4.0, 5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["n", "s"])
    def test_non_finite_data(self, field, bad):
        with pytest.raises(InvalidParameterError, match=f"finite {field}: got"):
            BinomialData(**{"n": 4.0, "s": 2.0, field: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["n0", "y0"])
    def test_non_finite_canonical(self, field, bad):
        with pytest.raises(InvalidParameterError, match=f"finite {field}: got"):
            CanonicalParams(**{"n0": 2.0, "y0": 0.5, field: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["eta0", "eta1"])
    def test_non_finite_eta(self, field, bad):
        with pytest.raises(InvalidParameterError, match=f"finite {field}: got"):
            EtaPoint(**{"eta0": 0.0, "eta1": 0.0, field: bad})

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: BinomialData("4", 2), "n"),
            (lambda: GridSpec(resolution="100"), "resolution"),
            (lambda: BoatshapeSpec("1", 6, 1.5, 0.9), "eta0_lo"),
            (lambda: BetaShape("1", 2), "alpha"),
        ],
    )
    def test_non_numeric_names_the_field(self, build, field):
        with pytest.raises(InvalidParameterError, match=f"real {field}: got '"):
            build()


class TestRays:
    def test_central_ray_is_axis(self):
        for eta0 in (-1.5, 0.0, 3.0, 40.0):
            assert ray_eta1(0.5, eta0) == 0.0

    @pytest.mark.parametrize("y_c,eta0,expected", [(0.75, 2.0, 1.0), (0.1, -1.0, -0.4)])
    def test_known_values(self, y_c, eta0, expected):
        assert ray_eta1(y_c, eta0) == pytest.approx(expected, abs=1e-15)

    def test_ray_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            y_c = rng.uniform(0.01, 0.99)
            eta0 = rng.uniform(-1.99, 60.0)
            p = EtaPoint(eta0, ray_eta1(y_c, eta0))
            assert eta_to_canonical(p).y0 == pytest.approx(y_c, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["y_c", "eta0"])
    def test_non_finite_argument(self, field, bad):
        with pytest.raises(InvalidParameterError, match=f"finite {field}: got"):
            ray_eta1(**{"y_c": 0.5, "eta0": 1.0, field: bad})

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            ray_eta1(1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            ray_eta1(0.5, -2.0)


class TestUpdates:
    @pytest.mark.parametrize(
        "eta,n,s,expected",
        [
            ((1.0, 0.0), 4.0, 3.0, (5.0, 1.0)),
            ((1.0, 0.0), 4.0, 2.0, (5.0, 0.0)),
            ((0.0, 0.5), 1.0, 0.0, (1.0, 0.0)),
        ],
    )
    def test_update_eta(self, eta, n, s, expected):
        out = update_eta(EtaPoint(*eta), BinomialData(n, s))
        assert (out.eta0, out.eta1) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(
        "canonical,n,s,expected",
        [
            ((2.0, 0.5), 2.0, 2.0, (4.0, 0.75)),
            ((5.0, 0.3), 0.0, 0.0, (5.0, 0.3)),
            ((1.0, 0.5), 9.0, 9.0, (10.0, 0.95)),
        ],
    )
    def test_update_canonical(self, canonical, n, s, expected):
        out = update_canonical(CanonicalParams(*canonical), BinomialData(n, s))
        assert (out.n0, out.y0) == pytest.approx(expected, abs=1e-15)

    def test_commuting_square(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            eta0 = rng.uniform(-1.9, 30.0)
            eta1 = rng.uniform(-0.49, 0.49) * (eta0 + 2.0)
            n = rng.uniform(0.0, 50.0)
            s = rng.uniform(0.0, 1.0) * n
            p = EtaPoint(eta0, eta1)
            d = BinomialData(n, s)
            via_eta = eta_to_canonical(update_eta(p, d))
            via_canonical = update_canonical(eta_to_canonical(p), d)
            assert via_eta.n0 == pytest.approx(via_canonical.n0, rel=1e-10)
            assert via_eta.y0 == pytest.approx(via_canonical.y0, rel=1e-10)

    def test_sequential_additivity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            eta0 = rng.uniform(-1.9, 10.0)
            eta1 = rng.uniform(-0.49, 0.49) * (eta0 + 2.0)
            n1, n2 = rng.uniform(0.0, 10.0, size=2)
            s1 = rng.uniform(0.0, 1.0) * n1
            s2 = rng.uniform(0.0, 1.0) * n2
            p = EtaPoint(eta0, eta1)
            stepped = update_eta(update_eta(p, BinomialData(n1, s1)), BinomialData(n2, s2))
            merged = update_eta(p, BinomialData(n1 + n2, s1 + s2))
            # both routes are plain coordinate sums
            assert stepped.eta0 == pytest.approx(merged.eta0, abs=1e-12)
            assert stepped.eta1 == pytest.approx(merged.eta1, abs=1e-12)
