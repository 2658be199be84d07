"""Threshold selection methods applied to pixel regions, plus baselines.

Block methods (:class:`Otsu`, :class:`Adcdf`, :class:`MeanK`) pick a single
integer threshold from a region's histogram, or from its pixels when those
are fewer values, with the same result. :func:`niblack_binarize` is the
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
_BAND = 64  # image rows per Niblack band
_MAX_TOTAL = np.iinfo(np.int64).max // 255**2  # sums of count * level**2 fit int64
_EXACT_TOTAL = math.isqrt(np.iinfo(np.int64).max // 255)  # Otsu's S*w0 - N*s0 fits int64
_INT32_TOTAL = math.isqrt(np.iinfo(np.int32).max // 255)  # ... fits int32


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


def _otsu_thresholds(counts: np.ndarray, levels: np.ndarray, total: np.ndarray) -> np.ndarray:
    # Split t (1..255) puts levels < t in class 0. Only t with counts[t-1] > 0
    # and pixels at or above t can win, smallest t on ties, so only the
    # occupied levels are scored, as t = levels[j] + 1. The cumsums are the
    # narrowest of int32, int64 and Python ints that 255 * N**2 fits.
    if levels.size < 2:  # no split: the single-level rule picks every region
        return np.zeros(counts.shape[1], np.int64)
    most = total.max()
    if most <= _INT32_TOTAL:  # one int64 cumsum carries w0 in its high 32 bits, s0 in its low
        both = np.cumsum(counts * (levels + (1 << 32))[:, None], axis=0)
        cum, cum_sum = (both >> 32).astype(np.int32), (both & 0xFFFFFFFF).astype(np.int32)
    else:
        dtype = np.int64 if most <= _EXACT_TOTAL else object
        cum, cum_sum = (np.cumsum(c, axis=0, dtype=dtype) for c in (counts, counts * levels[:, None]))
    j = _otsu_best(cum[:-1], cum_sum[:-1], cum[-1:], cum_sum[-1:], counts[:-1] > 0, axis=0)
    return levels[j] + 1


def _otsu_best(w0, s0, n, s, split, axis: int) -> np.ndarray:
    """The index along ``axis`` (0 or 1) of each region's best Otsu split,
    the first on ties. ``w0`` and ``s0`` are the splits' class-0 counts and
    sums, ``n`` and ``s`` the regions' counts and sums, all broadcasting to
    2-D in an integer type that keeps ``S*w0 - N*s0`` exact, and ``split``
    masks the splits that are thresholds.

    A split scores ``(S*w0 - N*s0)**2 / (w0*(N - w0))``, ``N**2`` times the
    between-class variance, 0 where a class is empty. In float64 that is
    within ~1e-15 of exact, so the splits within 1e-13 of a region's best
    are rechecked in integers. A masked split never wins, so it only leaves
    that near-best set: an empty level repeats its predecessor's score (0
    before the first level), and a split inside a run of equal pixels never
    scores above the best split between levels (moving the run to the class
    with the nearer mean loses no score).
    """
    score = (s * w0 - n * s0).astype(np.float64)
    score *= score
    score /= np.maximum((w0 * (n - w0)).astype(np.float64), 1)
    near = score >= score.max(axis=axis, keepdims=True) * (1 - 1e-13)
    near &= split
    best = near.argmax(axis=axis)
    ties = np.flatnonzero(near.sum(axis=axis, dtype=np.uint8) > 1)  # at most 255 splits
    if ties.size:  # one region a row, its splits along the row
        near, w0, s0, n, s = (a.T if axis == 0 else a for a in np.broadcast_arrays(near, w0, s0, n, s))
        for r in ties:
            j = np.flatnonzero(near[r])
            best[r] = j[_exact_best(int(n[r, 0]), int(s[r, 0]), w0[r, j], s0[r, j])]
    return best


def _exact_best(n: int, s: int, w0, s0) -> int:
    """The index of the best of the near-best splits ``w0``, ``s0`` of a
    region of count ``n`` and sum ``s``, the first on ties: the exact scores
    compare by cross-multiplication."""
    best_num, best_den, best = -1, 1, 0
    for i, (a0, b0) in enumerate(zip(w0, s0)):
        a0, b0 = int(a0), int(b0)
        num, den = (s * a0 - n * b0) ** 2, a0 * (n - a0)
        if num * best_den > best_num * den:
            best_num, best_den, best = num, den, i
    return best


def _mean_k(k: float, sums: np.ndarray, squares: np.ndarray, total) -> np.ndarray:
    """MeanK thresholds of regions of ``total`` pixels from their int64 sums
    of pixels and of squares."""
    mean = sums.astype(np.float64) / total
    sq = squares.astype(np.float64) / total
    with np.errstate(over="ignore"):  # a huge k gives +-inf, clipped below
        x = mean + k * np.sqrt(np.maximum(sq - mean * mean, 0.0))
    return np.clip(np.floor(x + 0.5), 0, 255)  # x < 0 clips to 0 however it rounds


def _select(method: ThresholdMethod, counts: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Thresholds of the regions whose counts at the ascending ``levels`` are
    the columns of the ``(L, n)`` int64 array ``counts``; other levels are empty."""
    if counts.min(initial=0) < 0:
        raise ValueError("histogram must be 256 non-negative counts")
    if not counts.shape[1]:
        return np.zeros(0, np.int64)
    peak, total = counts.max(axis=0, initial=0), counts.sum(axis=0)
    # the largest count goes first: past the bound the region sums may wrap
    if (peak > _MAX_TOTAL).any() or (total > _MAX_TOTAL).any():
        raise ValueError(f"a region may total at most {_MAX_TOTAL} counts")
    if (total < 1).any():
        raise ValueError("empty region")

    if isinstance(method, Otsu):
        chosen = _otsu_thresholds(counts, levels, total)
    elif isinstance(method, Adcdf):
        # the cdf is 0 below levels[0] and steps only at levels
        below = np.cumsum(counts[:-1], axis=0) < method.rho * total
        chosen = np.minimum(levels[0] + np.diff(levels) @ below + 1, 255)
    elif isinstance(method, MeanK):
        chosen = _mean_k(method.k, levels @ counts, levels**2 @ counts, total)
    else:
        raise TypeError(f"unknown threshold method {method!r}")
    # counts >= 0 and total >= 1: the peak is the total iff one level is occupied
    single = peak == total
    chosen[single] = levels[counts[:, single].argmax(axis=0)]
    return chosen.astype(np.int64, copy=False)


def _select_pixels(method: ThresholdMethod, pixels: np.ndarray) -> np.ndarray:
    """The thresholds that :func:`_select` gives the histograms of the rows
    of the ``(n, P)`` uint8 array ``pixels``, taken from the pixels: for
    small regions, P sorted pixels are fewer values than their levels' counts.
    """
    size = pixels.shape[1]
    if isinstance(method, MeanK):
        # A single-level row has mean v and variance 0 exactly: it gives v.
        sums = pixels.sum(axis=1, dtype=np.int64)
        squares = np.square(pixels, dtype=np.uint16).sum(axis=1, dtype=np.int64)
        return _mean_k(method.k, sums, squares, size).astype(np.int64)
    v = pixels.astype(np.int16)  # numpy sorts int16 rows with SIMD, uint8 rows far slower
    v.sort(axis=1)
    if isinstance(method, Otsu):
        # the split after v[i] has w0 = i + 1 and s0 the running sum, in
        # int32 while 255 * P**2 fits (P up to _INT32_TOTAL), and is the
        # threshold v[i] + 1 only where v[i] < v[i + 1]
        s0 = np.cumsum(v, axis=1, dtype=np.int32)
        w0 = np.arange(1, size, dtype=np.int32)
        i = _otsu_best(w0, s0[:, :-1], size, s0[:, -1:], v[:, :-1] < v[:, 1:], axis=1)
        chosen = v[np.arange(len(v)), i] + 1
    elif isinstance(method, Adcdf):
        # the cdf first reaches rho of a row at v[i], i counting the j in
        # 1..P below rho * P: the comparison _select makes with its cumsums
        i = sum(j < method.rho * size for j in range(1, size + 1))
        chosen = np.minimum(v[:, i] + 1, 255)
    else:
        raise TypeError(f"unknown threshold method {method!r}")
    single = v[:, 0] == v[:, -1]
    chosen[single] = v[single, 0]
    return chosen.astype(np.int64)


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
    if counts.shape[-1:] != (256,) or counts.ndim > 2:
        raise ValueError("histogram must be 256 non-negative counts")
    stack = counts.reshape(-1, 256)
    levels = np.flatnonzero(stack.any(axis=0))  # negative columns too: the checks see every count
    chosen = _select(method, stack.T[levels], levels)
    return int(chosen[0]) if counts.ndim == 1 else chosen


def binarize_global(img, t: int) -> np.ndarray:
    """Label every pixel: foreground iff intensity >= t."""
    if not 0 <= t <= 255:
        raise ValueError(f"threshold must lie in 0..255, got {t}")
    return as_gray(img) >= t


def _window_sums(vals, reach: int) -> np.ndarray:
    """Sums of ``vals`` along its last axis over windows reaching ``reach`` to
    each side, clipped at the ends: with ``reach + 1`` zeros in front of the
    prefix sums and ``reach`` copies of the total behind, each sum is the
    difference of two slices. The sums keep the type of ``vals``; in uint32
    the prefix sums may wrap, but a window sum that fits is exact, as a
    difference modulo 2**32."""
    side = vals.shape[-1]
    span = min(reach, side)  # every reach past the side clips alike
    table = np.zeros(vals.shape[:-1] + (side + 2 * span + 1,), dtype=vals.dtype)
    body = table[..., span + 1 : span + 1 + side]
    np.cumsum(vals, axis=-1, dtype=vals.dtype, out=body)
    table[..., span + 1 + side :] = body[..., -1:]
    return table[..., 2 * span + 1 :] - table[..., :side]


def niblack_binarize(img, params: NiblackParams = NiblackParams()) -> np.ndarray:
    """Per-pixel thresholding at local mean + k * local stddev.

    Statistics come from the window centered at each pixel, clipped at the
    image borders. Window sums are exact integer differences of prefix sums,
    so runtime is independent of the window size. The image is labeled in
    bands of ``_BAND`` rows from one running window row, the column sums of
    the last window: each row adds the image row that enters its window and
    takes away the one that leaves, so memory stays a few bands. The sums
    are uint32 while a window's sum of squares fits, else int64.
    """
    arr = as_gray(img)
    height, width = arr.shape
    reach = params.window // 2
    span = min(reach, height)  # every reach past the height clips alike
    dtype = np.uint32 if 255**2 * params.window**2 < 2**32 else np.int64
    window = np.zeros((2, width), dtype)  # sums of pixels and squares, row -1's
    for r in range(0, span, _BAND):
        rows = arr[r : min(r + _BAND, span)]
        window[0] += rows.sum(axis=0, dtype=dtype)
        window[1] += np.square(rows, dtype=dtype).sum(axis=0, dtype=dtype)
    columns = _window_sums(np.ones(width, np.int64), reach)  # the pixels per window, one row's
    binary = np.empty(arr.shape, dtype=bool)
    for top in range(0, height, _BAND):
        bottom = min(top + _BAND, height)
        # row y's window gains row y + span and loses row y - span - 1, where
        # those exist: the first band rows gain, the last ones lose; in
        # uint32 a step may wrap, the running sums it leads to do not
        enter = arr[top + span : bottom + span]
        leave = arr[max(top - span - 1, 0) : max(bottom - span - 1, 0)]
        n = bottom - top
        step = np.zeros((2, n, width), dtype)
        step[:, 0] = window
        step[0, : len(enter)] += enter
        step[1, : len(enter)] += np.square(enter, dtype=dtype)
        step[0, n - len(leave) :] -= leave
        step[1, n - len(leave) :] -= np.square(leave, dtype=dtype)
        np.cumsum(step, axis=1, dtype=dtype, out=step)
        window = step[:, -1].copy()
        total, squares = _window_sums(step, reach)
        y = np.arange(top, bottom)
        area = (np.minimum(y + span + 1, height) - np.maximum(y - span, 0))[:, None] * columns
        # thresh = mu + k * sqrt(max(var, 0)), var = squares / area - mu * mu,
        # each operation in place, in that order
        mu = total / area
        thresh = squares / area
        thresh -= mu * mu
        np.clip(thresh, 0.0, None, out=thresh)
        np.sqrt(thresh, out=thresh)
        with np.errstate(over="ignore"):  # a huge k gives +-inf: no/all foreground
            thresh *= params.k
            thresh += mu
        np.greater_equal(arr[top:bottom], thresh, out=binary[top:bottom])
    return binary
