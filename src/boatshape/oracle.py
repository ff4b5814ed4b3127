"""Brute-force grid verification of the analytic set operations.

Every envelope here is an inner approximation built from grid points that pass
membership plus a dense boundary sample, so it converges to the true value
from inside as the resolution grows.  Not a performance path; used by the test
suite and the CLI ``--verify`` flag as an independent cross-check.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InvalidParameterError
from .inference import CredibilityUnion, _quantile_vec
from .params import BinomialData, _require_finite
from .shapes import EtaSet, _contains_mask, _geometry, updated

#: Grid points tested per block: the oracle's memory stays flat in its resolution.
_BLOCK = 1 << 16
#: Largest grid resolution per axis (10^8 grid points).
_MAX_RESOLUTION = 10_000


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution per axis and the inset kept from the open wedge boundary."""

    resolution: int = 2000
    margin: float = 1e-9

    def __post_init__(self) -> None:
        _require_finite("grid", resolution=self.resolution, margin=self.margin)
        res = self.resolution
        if not (isinstance(res, numbers.Integral) and 2 <= res <= _MAX_RESOLUTION):
            raise InvalidParameterError(
                f"grid resolution must be an integer in [2, {_MAX_RESOLUTION}]: got {res!r}"
            )
        if not self.margin > 0.0:
            raise InvalidParameterError(f"grid margin must be positive: got {self.margin}")


def _member_blocks(set_: EtaSet, g: GridSpec) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The dense boundary sample, then each block's grid points passing membership."""
    geom = _geometry(set_.spec)
    bx, by = (v + d for v, d in zip(geom.points(geom.dense_ts(4 * g.resolution)), set_.shift))
    yield bx, by
    xs = np.linspace(bx.min(), bx.max(), g.resolution)
    ys = np.linspace(by.min(), by.max(), g.resolution)
    rows = _BLOCK // g.resolution
    for start in range(0, len(ys), rows):
        gy, gx = np.meshgrid(ys[start : start + rows], xs, indexing="ij")
        gx = gx.ravel()
        gy = gy.ravel()
        keep = _contains_mask(set_, gx, gy)
        # stay clear of the open wedge boundary by the configured margin
        keep &= (gx + 2.0 >= g.margin) & (0.5 * (gx + 2.0) - np.abs(gy) >= g.margin)
        yield gx[keep], gy[keep]


def grid_shadow(set_: EtaSet, g: GridSpec = GridSpec()) -> tuple[float, float]:
    """Expectation bounds by dense enumeration over the set."""
    lo, hi = np.inf, -np.inf
    for x, y in _member_blocks(set_, g):
        r = y / (x + 2.0)
        lo, hi = min(lo, r.min(initial=np.inf)), max(hi, r.max(initial=-np.inf))
    return 0.5 + float(lo), 0.5 + float(hi)


def grid_delta(set_: EtaSet, d: BinomialData, g: GridSpec = GridSpec()) -> float:
    """Posterior imprecision by dense enumeration over the updated set."""
    y_lo, y_hi = grid_shadow(updated(set_, d), g)
    return y_hi - y_lo


def grid_credibility_union(
    set_: EtaSet, d: BinomialData, gamma: float, g: GridSpec = GridSpec()
) -> CredibilityUnion:
    """Union of central credibility intervals by dense enumeration."""
    if not 0.0 < gamma < 1.0:
        raise InvalidParameterError(f"credibility level violates 0 < gamma < 1: got {gamma}")
    lo, hi = np.inf, -np.inf
    for x, y in _member_blocks(updated(set_, d), g):
        n0 = x + 2.0
        mean = y / n0 + 0.5
        alpha = n0 * mean
        beta = n0 * (1.0 - mean)
        lo = min(lo, _quantile_vec(alpha, beta, 0.5 * (1.0 - gamma)).min(initial=np.inf))
        hi = max(hi, _quantile_vec(alpha, beta, 0.5 * (1.0 + gamma)).max(initial=-np.inf))
    return CredibilityUnion(lo=float(lo), hi=float(hi), gamma=gamma)
