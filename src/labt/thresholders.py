"""Threshold selection methods applied to pixel regions, plus baselines.

Block methods (:class:`Otsu`, :class:`Adcdf`, :class:`MeanK`) pick a single
integer threshold from a region's histogram. :func:`niblack_binarize` is the
per-pixel local baseline used for comparison runs.

Classification convention everywhere: a pixel is foreground iff its
intensity is >= the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .image_core import as_gray

__all__ = [
    "Otsu",
    "Adcdf",
    "MeanK",
    "ThresholdMethod",
    "NiblackParams",
    "select_threshold",
    "binarize_global",
    "niblack_binarize",
]


@dataclass(frozen=True)
class Otsu:
    """Maximize between-class variance over all splits, smallest tie wins."""


@dataclass(frozen=True)
class Adcdf:
    """CDF-area split: threshold just above the smallest intensity whose
    cumulative count reaches ``rho`` of the region, capped at 255."""

    rho: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")


def _check_finite_k(k: float) -> None:
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")


@dataclass(frozen=True)
class MeanK:
    """Threshold at round(mean + k * stddev), clamped to 0..255."""

    k: float = -0.2

    def __post_init__(self) -> None:
        _check_finite_k(self.k)


ThresholdMethod = Union[Otsu, Adcdf, MeanK]


@dataclass(frozen=True)
class NiblackParams:
    window: int = 15
    k: float = -0.2

    def __post_init__(self) -> None:
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3, got {self.window}")
        _check_finite_k(self.k)


def _round_half_away(x: float) -> int:
    if x >= 0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def _otsu_threshold(counts: np.ndarray) -> int:
    # Exact integer arithmetic: the between-class variance of the split
    # {< t | >= t} is proportional to (s0*w1 - s1*w0)^2 / (w0*w1), so
    # candidates compare by cross-multiplication without float rounding.
    occupied = np.flatnonzero(counts)
    lowest, highest = int(occupied[0]), int(occupied[-1])
    plain = counts.tolist()
    total = sum(plain)
    grand = sum(g * n for g, n in enumerate(plain))
    w0 = 0
    s0 = 0
    best_t = highest
    best_num = -1
    best_den = 1
    # The maximum is positive and attained with both classes non-empty,
    # i.e. for t in [lowest+1, highest]; every other t scores zero.
    for t in range(lowest + 1, highest + 1):
        w0 += plain[t - 1]
        s0 += (t - 1) * plain[t - 1]
        w1 = total - w0
        s1 = grand - s0
        diff = s0 * w1 - s1 * w0
        num = diff * diff
        den = w0 * w1
        if num * best_den > best_num * den:
            best_num, best_den, best_t = num, den, t
    return best_t


def select_threshold(method: ThresholdMethod, hist: np.ndarray) -> int:
    """Pick a threshold in 0..255 for the region described by ``hist``.

    :class:`MeanK` uses the population mean and stddev of the histogram. A
    region with a single intensity returns that intensity regardless of
    method.
    """
    counts = np.asarray(hist, dtype=np.int64)
    if counts.shape != (256,) or (counts < 0).any():
        raise ValueError("histogram must be 256 non-negative counts")
    total = int(counts.sum())
    if total < 1:
        raise ValueError("empty region")
    occupied = np.flatnonzero(counts)
    if occupied.size == 1:
        return int(occupied[0])

    if isinstance(method, Otsu):
        return _otsu_threshold(counts)
    if isinstance(method, Adcdf):
        cdf = np.cumsum(counts)
        first = int(np.argmax(cdf >= method.rho * total))
        return min(first + 1, 255)
    if isinstance(method, MeanK):
        mean = float(np.dot(np.arange(256), counts)) / total
        sq = float(np.dot(np.arange(256) ** 2, counts)) / total
        std = math.sqrt(max(sq - mean * mean, 0.0))
        return min(max(_round_half_away(mean + method.k * std), 0), 255)
    raise TypeError(f"unknown threshold method {method!r}")


def binarize_global(img, t: int) -> np.ndarray:
    """Label every pixel: foreground iff intensity >= t."""
    if not 0 <= t <= 255:
        raise ValueError(f"threshold must lie in 0..255, got {t}")
    return as_gray(img) >= t


def niblack_binarize(img, params: NiblackParams = NiblackParams()) -> np.ndarray:
    """Per-pixel thresholding at local mean + k * local stddev.

    Statistics come from the window centered at each pixel, clipped at the
    image borders. Sums are taken from integral images of the values and
    squared values, so runtime is independent of the window size.
    """
    arr = as_gray(img)
    height, width = arr.shape
    reach = params.window // 2
    vals = arr.astype(np.int64)

    integral = np.zeros((height + 1, width + 1), dtype=np.int64)
    integral[1:, 1:] = vals.cumsum(axis=0).cumsum(axis=1)
    integral_sq = np.zeros_like(integral)
    integral_sq[1:, 1:] = (vals * vals).cumsum(axis=0).cumsum(axis=1)

    y0 = np.clip(np.arange(height) - reach, 0, height)
    y1 = np.clip(np.arange(height) + reach + 1, 0, height)
    x0 = np.clip(np.arange(width) - reach, 0, width)
    x1 = np.clip(np.arange(width) + reach + 1, 0, width)

    def window_sums(table: np.ndarray) -> np.ndarray:
        return (
            table[np.ix_(y1, x1)]
            - table[np.ix_(y0, x1)]
            - table[np.ix_(y1, x0)]
            + table[np.ix_(y0, x0)]
        )

    area = (y1 - y0)[:, None] * (x1 - x0)[None, :]
    mu = window_sums(integral) / area
    var = window_sums(integral_sq) / area - mu * mu
    thresh = mu + params.k * np.sqrt(np.clip(var, 0.0, None))
    return arr >= thresh
