"""Independent brute-force reference implementations for the test suite.

Deliberately slow and literal: each oracle recomputes its answer from the
definition, without sharing code paths with the library. The one exception
is :func:`run_labt_raster`, a frozen copy of the original one-loop engine
that calls the library's per-block helpers; engine rewrites are checked
against it field by field.
"""

import math
from fractions import Fraction

import numpy as np

from labt.engine import (
    LabtConfig,
    LabtResult,
    Range,
    choose_grid,
    clamp_to_range,
    effective_range,
    neighbor_range,
    resolve_empty,
)
from labt.image_core import as_gray, histogram, pad_to_multiple
from labt.thresholders import select_threshold


def otsu_exhaustive(counts):
    """Smallest t in 0..255 maximizing between-class variance of {<t | >=t}.

    Exact rational arithmetic; a split with an empty class scores zero. A
    single-intensity region returns that intensity (degenerate-region rule).
    """
    counts = [int(n) for n in counts]
    total = sum(counts)
    occupied = [g for g, n in enumerate(counts) if n]
    if len(occupied) == 1:
        return occupied[0]
    best_t = 0
    best = Fraction(-1)
    for t in range(256):
        w0 = sum(counts[:t])
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            score = Fraction(0)
        else:
            mu0 = Fraction(sum(g * counts[g] for g in range(t)), w0)
            mu1 = Fraction(sum(g * counts[g] for g in range(t, 256)), w1)
            score = Fraction(w0 * w1) * (mu0 - mu1) ** 2
        if score > best:
            best, best_t = score, t
    return best_t


def admissible_interval(t_neighbor, border, mode):
    """Maximal interval around t_neighbor classifying the border like it.

    Tries all 256 thresholds; a candidate is admissible when every border
    pixel keeps the label it gets under t_neighbor, where paper mode exempts
    pixels equal to t_neighbor. Returns the contiguous run containing
    t_neighbor.
    """
    border = [int(p) for p in border]

    def admissible(c):
        for p in border:
            if mode == "paper" and p == t_neighbor:
                continue
            if (p >= c) != (p >= t_neighbor):
                return False
        return True

    ok = {c for c in range(256) if admissible(c)}
    lo = hi = t_neighbor
    while lo - 1 in ok:
        lo -= 1
    while hi + 1 in ok:
        hi += 1
    return lo, hi


def niblack_naive(img, window, k):
    """Per-pixel mean/stddev over the border-clipped window, double loop."""
    arr = np.asarray(img)
    height, width = arr.shape
    reach = window // 2
    out = np.zeros(arr.shape, dtype=bool)
    for y in range(height):
        for x in range(width):
            ys, ye = max(0, y - reach), min(height, y + reach + 1)
            xs, xe = max(0, x - reach), min(width, x + reach + 1)
            win = arr[ys:ye, xs:xe].astype(np.int64)
            n = win.size
            s = int(win.sum())
            sq = int((win * win).sum())
            mu = s / n
            var = sq / n - mu * mu
            thresh = mu + k * math.sqrt(var if var > 0 else 0.0)
            out[y, x] = arr[y, x] >= thresh
    return out


def border_disagreements(c, border, t_ref):
    """Pixels of ``border`` labeled differently by c and t_ref."""
    return sum((int(p) >= c) != (int(p) >= t_ref) for p in border)


def variance_two_pass(img):
    """Population variance via explicit two-pass summation."""
    values = [float(v) for v in np.asarray(img).ravel()]
    mean = math.fsum(values) / len(values)
    return math.fsum((v - mean) ** 2 for v in values) / len(values)


def run_labt_raster(img, cfg: LabtConfig = LabtConfig()) -> LabtResult:
    """Binarize an image block by block under the continuity constraint.

    Blocks are visited top-left to bottom-right so the up and left
    neighbors are always finished first. The first block is thresholded
    with the whole padded image's threshold when ``cfg.seed_global`` is
    set (its own base threshold otherwise); every later block clamps its
    base threshold into the range dictated by its finished neighbors, and
    counts an out-of-range event when clamping moved it. Disjoint neighbor
    ranges are resolved by :func:`resolve_empty` and counted separately.
    The output is cropped back to the input size.
    """
    arr = as_gray(img)
    override = None if cfg.block_w is None else (cfg.block_w, cfg.block_h)
    grid = choose_grid(arr, override)
    padded = pad_to_multiple(arr, grid.block_w, grid.block_h)

    rows, cols = grid.rows, grid.cols
    bw, bh = grid.block_w, grid.block_h
    base = np.zeros((rows, cols), dtype=np.int32)
    final = np.zeros((rows, cols), dtype=np.int32)
    range_lo = np.zeros((rows, cols), dtype=np.int32)
    range_hi = np.zeros((rows, cols), dtype=np.int32)
    labels = np.zeros(padded.shape, dtype=bool)
    out_of_range = 0
    non_overlap = 0

    seed = select_threshold(cfg.method, histogram(padded)) if cfg.seed_global else None

    for r in range(rows):
        for c in range(cols):
            ys, xs = r * bh, c * bw
            block = padded[ys : ys + bh, xs : xs + bw]
            ot = select_threshold(cfg.method, histogram(block))
            base[r, c] = ot

            if r == 0 and c == 0:
                t = seed if cfg.seed_global else ot
                rng = Range(0, 255)
            else:
                top_border = padded[ys, xs : xs + bw]
                left_border = padded[ys : ys + bh, xs]
                up = (
                    neighbor_range(int(final[r - 1, c]), top_border, cfg.mode)
                    if r > 0
                    else None
                )
                left = (
                    neighbor_range(int(final[r, c - 1]), left_border, cfg.mode)
                    if c > 0
                    else None
                )
                if up is not None and left is not None:
                    rng = effective_range(up, left)
                else:
                    rng = up if up is not None else left
                if rng is None:
                    non_overlap += 1
                    t = resolve_empty(
                        up,
                        left,
                        ot,
                        top_border,
                        left_border,
                        int(final[r - 1, c]),
                        int(final[r, c - 1]),
                    )
                    rng = Range(t, t)
                else:
                    t = clamp_to_range(ot, rng)

            if not rng.lo <= ot <= rng.hi:
                out_of_range += 1
            final[r, c] = t
            range_lo[r, c] = rng.lo
            range_hi[r, c] = rng.hi
            labels[ys : ys + bh, xs : xs + bw] = block >= t

    return LabtResult(
        binary=labels[: arr.shape[0], : arr.shape[1]].copy(),
        base_thresholds=base,
        thresholds=final,
        range_lo=range_lo,
        range_hi=range_hi,
        out_of_range_count=out_of_range,
        non_overlap_count=non_overlap,
        grid=grid,
        padded=padded,
    )
