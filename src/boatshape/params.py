"""Parametrizations of conjugate Beta priors and their update maps.

A Beta prior for a binomial success probability is described either by its
canonical parameters ``(n0, y0)`` (prior strength and prior mean) or by
translated coordinates ``(eta0, eta1)`` in which Bayesian updating acts as a
pure translation: ``n`` trials with ``s`` successes shift a point by
``(n, s - n/2)``.  The two charts are related by

    n0 = eta0 + 2,    y0 = eta1 / (eta0 + 2) + 1/2.

Points sharing a prior mean ``y_c`` lie on a ray through ``(-2, 0)``; every
proper prior lives strictly inside the wedge ``eta0 > -2``,
``|eta1| < (eta0 + 2) / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError

#: The common origin of all constant-mean rays (and the rotation center for
#: skewed prior sets).
APEX = (-2.0, 0.0)


def _require_finite(what: str, **fields: float) -> None:
    """Reject NaN and infinite fields, naming the first one that fails."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise InvalidParameterError(f"{what} violates finite {name}: got {value}")


def _two_prod(u, v):
    """``u * v`` as an unevaluated sum ``prod + err`` (Dekker)."""
    prod = u * v
    c = 134217729.0 * u
    uh = c - (c - u)
    ul = u - uh
    c = 134217729.0 * v
    vh = c - (c - v)
    vl = v - vh
    return prod, ((uh * vh - prod) + uh * vl + ul * vh) + ul * vl


@dataclass(frozen=True)
class CanonicalParams:
    """A Beta prior as prior strength ``n0 > 0`` and prior mean ``y0 in (0, 1)``."""

    n0: float
    y0: float

    def __post_init__(self) -> None:
        _require_finite("prior", n0=self.n0, y0=self.y0)
        if not self.n0 > 0.0:
            raise InvalidParameterError(f"prior strength violates n0 > 0: got {self.n0}")
        if not 0.0 < self.y0 < 1.0:
            raise InvalidParameterError(f"prior mean violates 0 < y0 < 1: got {self.y0}")


@dataclass(frozen=True)
class EtaPoint:
    """A Beta prior in translated coordinates, strictly inside the admissible wedge."""

    eta0: float
    eta1: float

    def __post_init__(self) -> None:
        _require_finite("coordinates", eta0=self.eta0, eta1=self.eta1)
        if not in_domain(self.eta0, self.eta1):
            raise InvalidParameterError(
                "coordinates violate eta0 > -2, |eta1| < (eta0 + 2)/2: "
                f"got ({self.eta0}, {self.eta1})"
            )


@dataclass(frozen=True)
class BinomialData:
    """An observation record: ``s`` successes in ``n`` trials, both real-valued."""

    n: float
    s: float

    def __post_init__(self) -> None:
        _require_finite("observation", n=self.n, s=self.s)
        if not self.n >= 0.0:
            raise InvalidParameterError(f"trial count violates n >= 0: got {self.n}")
        if not 0.0 <= self.s <= self.n:
            raise InvalidParameterError(
                f"success count violates 0 <= s <= n: got s={self.s}, n={self.n}"
            )


def in_domain(eta0: float, eta1: float) -> bool:
    """True iff a raw coordinate pair lies strictly inside the admissible wedge."""
    return eta0 > -2.0 and abs(eta1) < 0.5 * (eta0 + 2.0)


def eta_to_canonical(p: EtaPoint) -> CanonicalParams:
    """Map translated coordinates to canonical parameters."""
    n0 = p.eta0 + 2.0
    return CanonicalParams(n0=n0, y0=p.eta1 / n0 + 0.5)


def canonical_to_eta(c: CanonicalParams) -> EtaPoint:
    """Map canonical parameters to translated coordinates (exact inverse)."""
    return EtaPoint(eta0=c.n0 - 2.0, eta1=c.n0 * (c.y0 - 0.5))


def ray_eta1(y_c: float, eta0: float) -> float:
    """The ``eta1`` ordinate of the constant-mean ray for ``y_c`` at abscissa ``eta0``."""
    if not 0.0 < y_c < 1.0:
        raise InvalidParameterError(f"ray mean violates 0 < y_c < 1: got {y_c}")
    if not eta0 > -2.0:
        raise InvalidParameterError(f"abscissa violates eta0 > -2: got {eta0}")
    return (eta0 + 2.0) * (y_c - 0.5)


def update_eta(p: EtaPoint, d: BinomialData) -> EtaPoint:
    """Posterior coordinates: a pure translation by ``(n, s - n/2)``."""
    return EtaPoint(eta0=p.eta0 + d.n, eta1=p.eta1 + d.s - 0.5 * d.n)


def update_canonical(c: CanonicalParams, d: BinomialData) -> CanonicalParams:
    """Posterior canonical parameters: strength adds, mean averages toward ``s/n``."""
    n_post = c.n0 + d.n
    return CanonicalParams(n0=n_post, y0=(c.n0 * c.y0 + d.s) / n_post)
