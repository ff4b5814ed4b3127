"""Brute-force grid verification of the analytic set operations.

Every envelope here is an inner approximation built from grid points that pass
membership plus a dense boundary sample, so it converges to the true value
from inside as the resolution grows.  Not a performance path; used by the test
suite and the CLI ``--verify`` flag as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericError
from .inference import CredibilityUnion, _quantile_vec
from .params import BinomialData, _require_finite
from .shapes import EtaSet, _boundary_xy, _contains_mask, _geometry, updated

#: Grid rows are processed in blocks to bound peak memory at high resolution.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution per axis and the inset kept from the open wedge boundary."""

    resolution: int = 2000
    margin: float = 1e-9

    def __post_init__(self) -> None:
        _require_finite("grid", resolution=self.resolution, margin=self.margin)
        if not self.resolution >= 2:
            raise InvalidParameterError(
                f"grid resolution violates resolution >= 2: got {self.resolution}"
            )
        if not self.margin > 0.0:
            raise InvalidParameterError(f"grid margin must be positive: got {self.margin}")


def _boundary_sample(set_: EtaSet, g: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    count = 4 * g.resolution
    ts = np.unique(
        np.concatenate([np.arange(count) / count, _geometry(set_.spec).corner_ts])
    )
    return _boundary_xy(set_, ts)


def _member_sample(set_: EtaSet, g: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Grid points passing membership, plus the dense boundary sample."""
    bx, by = _boundary_sample(set_, g)
    xs = np.linspace(bx.min(), bx.max(), g.resolution)
    ys = np.linspace(by.min(), by.max(), g.resolution)
    kept_x = [bx]
    kept_y = [by]
    for start in range(0, len(ys), _BLOCK_ROWS):
        gy, gx = np.meshgrid(ys[start : start + _BLOCK_ROWS], xs, indexing="ij")
        gx = gx.ravel()
        gy = gy.ravel()
        keep = _contains_mask(set_, gx, gy)
        # stay clear of the open wedge boundary by the configured margin
        keep &= (gx + 2.0 >= g.margin) & (0.5 * (gx + 2.0) - np.abs(gy) >= g.margin)
        if keep.any():
            kept_x.append(gx[keep])
            kept_y.append(gy[keep])
    x = np.concatenate(kept_x)
    y = np.concatenate(kept_y)
    if len(x) == 0:
        raise NumericError("grid produced no member points; set is degenerate")
    return x, y


def grid_shadow(set_: EtaSet, g: GridSpec = GridSpec()) -> tuple[float, float]:
    """Expectation bounds by dense enumeration over the set."""
    x, y = _member_sample(set_, g)
    r = y / (x + 2.0)
    return 0.5 + float(r.min()), 0.5 + float(r.max())


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
    x, y = _member_sample(updated(set_, d), g)
    n0 = x + 2.0
    mean = y / n0 + 0.5
    alpha = n0 * mean
    beta = n0 * (1.0 - mean)
    lo = np.inf
    hi = -np.inf
    for start in range(0, len(alpha), 65536):
        sl = slice(start, start + 65536)
        lo = min(lo, float(np.min(_quantile_vec(alpha[sl], beta[sl], 0.5 * (1.0 - gamma)))))
        hi = max(hi, float(np.max(_quantile_vec(alpha[sl], beta[sl], 0.5 * (1.0 + gamma)))))
    return CredibilityUnion(lo=lo, hi=hi, gamma=gamma)
