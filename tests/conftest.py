"""Shared helpers for the test suite."""

import math
import re
import sys

import numpy as np
from hypothesis import settings

from boatshape import BinomialData, BoatshapeSpec, EtaSet, InvalidParameterError
from boatshape.shapes import _boundary_xy, _require_admissible

# Property tests draw the same examples on every run and never time out on a
# slow machine; no example database is written.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def random_boat_spec(rng: np.random.Generator) -> BoatshapeSpec:
    """A random axis-symmetric boat spec guaranteed strictly inside the wedge.

    The contour never exceeds ``a``, so ``a < (eta0_lo + 2) / 2`` keeps the
    whole set clear of the wedge for every abscissa.
    """
    eta0_lo = rng.uniform(-1.8, 6.0)
    eta0_hi = eta0_lo + rng.uniform(0.5, 25.0)
    a = rng.uniform(0.05, 0.45) * (eta0_lo + 2.0)
    b = rng.uniform(0.05, 2.5)
    return BoatshapeSpec(eta0_lo=eta0_lo, eta0_hi=eta0_hi, a=a, b=b, y_c=0.5)


def admissible_half_width(eta0_lo: float, y_c: float) -> float:
    """Half-width below which a boat on the ``y_c`` ray stays inside the wedge.

    Seen from the apex, every point of the set lies within ``atan(a / (eta0_lo
    + 2))`` of the symmetry axis, and the axis is ``|atan(y_c - 1/2)|`` away
    from the nearer wedge edge at ``+-atan(1/2)``.
    """
    room = math.tan(math.atan(0.5) - abs(math.atan(y_c - 0.5)))
    return room * (eta0_lo + 2.0)


def random_rotated_boat_spec(rng: np.random.Generator) -> BoatshapeSpec:
    """A random boat rotated onto a ``y_c`` ray, strictly inside the wedge."""
    y_c = 0.5 + rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 0.4)
    eta0_lo = rng.uniform(-1.8, 6.0)
    a = rng.uniform(0.05, 0.9) * admissible_half_width(eta0_lo, y_c)
    return BoatshapeSpec(
        eta0_lo=eta0_lo,
        eta0_hi=eta0_lo + rng.uniform(0.5, 25.0),
        a=a,
        b=rng.uniform(0.05, 2.5),
        y_c=y_c,
    )


def refuse_geometry(monkeypatch) -> None:
    """Make ``shapes._geometry`` raise in every loaded ``boatshape`` module that
    imports it, so that a test can show an operation builds no boundary."""

    def refuse(spec):
        raise AssertionError("a boundary geometry was built")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "boatshape" and hasattr(module, "_geometry"):
            monkeypatch.setattr(module, "_geometry", refuse)


def exact_margin(set_: EtaSet) -> tuple[float, tuple[float, float]]:
    """The exact wedge margin of a set and the point where it is reached:
    returned by the check for an admissible set, read off the refusal's
    message (the point, printed in full) for any other."""
    try:
        return _require_admissible(set_)
    except InvalidParameterError as exc:
        x, y = map(float, re.search(r"at eta = \((.+), (.+)\)\)", str(exc)).groups())
        return 0.5 * (x + 2.0) - abs(y), (x, y)


def canonical_route_bounds(set_: EtaSet, d: BinomialData) -> tuple[float, float]:
    """Independent route: optimize (n0*y0 + s)/(n0 + n) over the prior set.

    Segments and rectangles attain extrema at corners because the expression
    is monotone in y0 and, for fixed y0, monotone in n0.  Boats get a dense
    prior-boundary scan with golden-section refinement.
    """
    spec = set_.spec
    if hasattr(spec, "n0"):  # segment
        corners = [(spec.n0, spec.y_lo), (spec.n0, spec.y_hi)]
    elif hasattr(spec, "n_lo"):  # rectangle
        corners = [
            (n0, y0)
            for n0 in (spec.n_lo, spec.n_hi)
            for y0 in (spec.y_lo, spec.y_hi)
        ]
    else:
        def val(t):
            x, y = _boundary_xy(set_, np.array([t]))
            n0 = float(x[0]) + 2.0
            return (float(y[0]) + 0.5 * n0 + d.s) / (n0 + d.n)

        ts = np.arange(20000) / 20000.0
        x, y = _boundary_xy(set_, ts)
        n0 = x + 2.0
        vals = (y + 0.5 * n0 + d.s) / (n0 + d.n)
        out = []
        for sign in (1.0, -1.0):
            i = int(np.argmax(sign * vals))
            lo, hi = ts[i] - 1.0 / 20000.0, ts[i] + 1.0 / 20000.0
            best = sign * vals[i]
            for _ in range(120):
                m1 = lo + 0.381966 * (hi - lo)
                m2 = hi - 0.381966 * (hi - lo)
                if sign * val(m1) >= sign * val(m2):
                    hi = m2
                else:
                    lo = m1
                best = max(best, sign * val(0.5 * (lo + hi)))
            out.append(sign * best)
        return out[1], out[0]
    vals = [(n0 * y0 + d.s) / (n0 + d.n) for n0, y0 in corners]
    return min(vals), max(vals)
