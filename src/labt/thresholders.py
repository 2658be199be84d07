"""Threshold selection methods applied to pixel regions, plus baselines.

Block methods (:class:`Otsu`, :class:`Adcdf`, :class:`MeanK`) pick a single
integer threshold from a region's histogram. :func:`niblack_binarize` is the
per-pixel local baseline used for comparison runs.

Classification convention everywhere: a pixel is foreground iff its
intensity is >= the threshold.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .image_core import as_gray


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


ThresholdMethod = Otsu | Adcdf | MeanK
_MAX_TOTAL = np.iinfo(np.int64).max // 255**2  # sums of count * level**2 fit int64


@dataclass(frozen=True)
class NiblackParams:
    window: int = 15
    k: float = -0.2

    def __post_init__(self) -> None:
        if isinstance(self.window, bool) or not isinstance(self.window, Integral):
            raise ValueError(f"window must be an integer, got {self.window!r}")
        # numpy integers become ints, so the window arithmetic stays in Python ints
        object.__setattr__(self, "window", operator.index(self.window))
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3, got {self.window}")
        _check_finite_k(self.k)


def _otsu_thresholds(counts: np.ndarray) -> np.ndarray:
    # Split t (1..255) puts levels < t in class 0. Only t with counts[t-1] > 0
    # and pixels at or above t can win, smallest t on ties. So only levels
    # occupied in some row are scored, as t = levels[j] + 1: empty columns add
    # nothing to the cumsums, so each float score is the same bit for bit, and
    # within ~1e-13 of exact as mu1 - mu0 >= 1; near-best ties are rechecked.
    levels = np.flatnonzero(counts.any(axis=0))
    if levels.size < 2:  # no split: the single-level rule picks every row
        return np.zeros(len(counts), np.int64)
    counts = counts[:, levels]
    cum = np.cumsum(counts, axis=1)
    cum_sum = np.cumsum(counts * levels, axis=1)
    w0, s0 = cum[:, :-1], cum_sum[:, :-1]
    w1, s1 = cum[:, -1:] - w0, cum_sum[:, -1:] - s0
    score = w0 * (w1 * (s1 / np.maximum(w1, 1) - s0 / np.maximum(w0, 1)) ** 2)
    score = np.where((counts[:, :-1] > 0) & (w1 > 0), score, -1.0)
    near = score >= score.max(axis=1, keepdims=True) * (1 - 1e-9)
    best = levels[near.argmax(axis=1)] + 1
    for row in np.flatnonzero(near.sum(axis=1) > 1):
        # (s0*w1 - s1*w0)^2 / (w0*w1) compares by cross-multiplication.
        best_num, best_den = -1, 1
        for j in np.flatnonzero(near[row]).tolist():
            a0, b0, a1, b1 = (int(x[row, j]) for x in (w0, s0, w1, s1))
            num, den = (b0 * a1 - b1 * a0) ** 2, a0 * a1
            if num * best_den > best_num * den:
                best_num, best_den, best[row] = num, den, levels[j] + 1
    return best


def select_threshold(method: ThresholdMethod, hist: np.ndarray) -> int | np.ndarray:
    """Pick a threshold in 0..255 for each region described by ``hist``.

    ``hist`` is one ``(256,)`` histogram, which gives an ``int``, or an
    ``(n, 256)`` stack of them, which gives an int array of length n.
    :class:`MeanK` uses the population mean and stddev of the histogram. A
    region with a single intensity returns that intensity regardless of
    method. Rows totalling over ``np.iinfo(np.int64).max // 255**2`` counts
    (~1.4e14), where the int64 sums could wrap, raise ValueError.
    """
    counts = np.asarray(hist, dtype=np.int64)
    if counts.shape[-1:] != (256,) or counts.ndim > 2 or (counts < 0).any():
        raise ValueError("histogram must be 256 non-negative counts")
    stack = counts.reshape(-1, 256)
    top = stack.argmax(axis=1)
    peak = stack[np.arange(len(stack)), top]
    total = stack.sum(axis=1)
    # the largest count goes first: past the bound the row sums may wrap
    if (peak > _MAX_TOTAL).any() or (total > _MAX_TOTAL).any():
        raise ValueError(f"a region may total at most {_MAX_TOTAL} counts")
    if (total < 1).any():
        raise ValueError("empty region")

    if isinstance(method, Otsu):
        chosen = _otsu_thresholds(stack)
    elif isinstance(method, Adcdf):
        below = np.cumsum(stack, axis=1) < method.rho * total[:, None]
        chosen = np.minimum(below.sum(axis=1) + 1, 255)
    elif isinstance(method, MeanK):
        mean = (stack @ np.arange(256)).astype(np.float64) / total
        sq = (stack @ np.arange(256) ** 2).astype(np.float64) / total
        with np.errstate(over="ignore"):  # a huge k gives +-inf, clipped below
            x = mean + method.k * np.sqrt(np.maximum(sq - mean * mean, 0.0))
        chosen = np.clip(np.floor(x + 0.5), 0, 255)  # x < 0 clips to 0 however it rounds
    else:
        raise TypeError(f"unknown threshold method {method!r}")
    # counts >= 0 and total >= 1: the peak is the total iff one level is occupied
    levels = np.where(peak == total, top, chosen)
    return int(levels[0]) if counts.ndim == 1 else levels.astype(np.int64)


def binarize_global(img, t: int) -> np.ndarray:
    """Label every pixel: foreground iff intensity >= t."""
    if not 0 <= t <= 255:
        raise ValueError(f"threshold must lie in 0..255, got {t}")
    return as_gray(img) >= t


def _window_sums(vals, reach: int) -> np.ndarray:
    """Sums of 2-D ``vals`` over windows reaching ``reach`` to each side, clipped
    at the borders, along one axis and then the other: with ``reach + 1``
    zeros in front of the int64 prefix sums and ``reach`` copies of the total
    behind, each sum is the difference of two slices."""
    for axis in (0, 1):
        side = vals.shape[axis]
        span = min(reach, side)  # every reach past the side clips alike
        shape = vals.shape[:axis] + (side + 2 * span + 1,) + vals.shape[axis + 1 :]
        table = np.moveaxis(np.zeros(shape, dtype=np.int64), axis, 0)  # a view, summed axis first
        body = table[span + 1 : span + 1 + side]
        np.cumsum(vals, axis=axis, dtype=np.int64, out=np.moveaxis(body, 0, axis))
        table[span + 1 + side :] = body[-1]
        vals = np.moveaxis(table[2 * span + 1 :] - table[:side], 0, axis)
    return vals


def niblack_binarize(img, params: NiblackParams = NiblackParams()) -> np.ndarray:
    """Per-pixel thresholding at local mean + k * local stddev.

    Statistics come from the window centered at each pixel, clipped at the
    image borders. Window sums are exact int64 prefix-sum differences along
    one axis, then the other, so runtime is independent of the window size.
    """
    arr = as_gray(img)
    reach = params.window // 2
    # the pixels in each clipped window, as one column's times one row's
    ones = np.broadcast_to(True, arr.shape)
    area = _window_sums(ones[:, :1], reach) * _window_sums(ones[:1], reach)
    mu = _window_sums(arr, reach) / area
    var = _window_sums(np.square(arr, dtype=np.int64), reach) / area - mu * mu
    with np.errstate(over="ignore"):  # a huge k gives +-inf: no/all foreground
        thresh = mu + params.k * np.sqrt(np.clip(var, 0.0, None))
    return arr >= thresh
