"""Core block-thresholding engine with the continuity constraint.

The image is split into equal blocks and processed in three stages. Each
block first gets a base threshold from the configured method. A raster
scan, the one sequential stage, then lets the thresholds of each block's
finished up/left neighbors dictate ranges of values that classify its
border lines exactly as those neighbors do, and clamps the base threshold
into the intersection of the ranges; a neighbor beyond the grid edge
contributes the full range 0..255. Last, one compare labels every pixel.

Two range modes exist. ``strict`` (default) guarantees that the shared
border pixels of adjacent blocks receive identical labels under both
blocks' thresholds. ``paper`` leaves border pixels that equal the
neighbor's threshold free to flip: the admitted range may extend past that
threshold, trading exactness for wider ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import NamedTuple, Optional

import numpy as np

from .image_core import as_gray, histogram, pad_to_multiple, variance
from .thresholders import Otsu, ThresholdMethod, select_threshold

__all__ = [
    "Range",
    "BlockGrid",
    "LabtConfig",
    "LabtResult",
    "choose_grid",
    "neighbor_range",
    "effective_range",
    "resolve_empty",
    "clamp_to_range",
    "run_labt",
]

_MODES = ("strict", "paper")


class Range(NamedTuple):
    """Closed integer interval of admissible thresholds."""

    lo: int
    hi: int


@dataclass(frozen=True)
class BlockGrid:
    block_w: int
    block_h: int
    rows: int
    cols: int
    padded_w: int
    padded_h: int


@dataclass(frozen=True)
class LabtConfig:
    """Run parameters. ``block_w``/``block_h`` of None select the grid
    automatically from the image variance."""

    method: ThresholdMethod = Otsu()
    block_w: Optional[int] = None
    block_h: Optional[int] = None
    mode: str = "strict"
    seed_global: bool = True

    def __post_init__(self) -> None:
        if (self.block_w is None) != (self.block_h is None):
            raise ValueError("block_w and block_h must be given together")
        if self.block_w is not None and (self.block_w < 2 or self.block_h < 2):
            raise ValueError("block dimensions must be at least 2")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class LabtResult:
    """Binarized image plus per-block bookkeeping.

    ``base_thresholds`` holds each block's unconstrained choice,
    ``thresholds`` the values actually applied, and ``range_lo``/``range_hi``
    the effective range recorded per block (the applied threshold always
    lies inside it; blocks whose neighbor ranges were disjoint record the
    degenerate range around the resolved threshold).
    """

    binary: np.ndarray
    base_thresholds: np.ndarray
    thresholds: np.ndarray
    range_lo: np.ndarray
    range_hi: np.ndarray
    out_of_range_count: int
    non_overlap_count: int
    grid: BlockGrid
    padded: np.ndarray


def choose_grid(img, override: Optional[tuple[int, int]] = None) -> BlockGrid:
    """Pick block dimensions and the padded grid covering the image.

    Without an override the block side follows the image spread: busier
    images get smaller blocks (side 64 for stddev < 32, then 32, then 16
    for stddev >= 64).
    """
    arr = as_gray(img)
    height, width = arr.shape
    if height < 2 or width < 2:
        raise ValueError("image must be at least 2x2 pixels")
    if override is not None:
        block_w, block_h = override
        if block_w < 2 or block_h < 2:
            raise ValueError("block dimensions must be at least 2")
    else:
        spread = sqrt(variance(arr))
        if spread < 32:
            side = 64
        elif spread < 64:
            side = 32
        else:
            side = 16
        block_w = block_h = side
    padded_w = -(-width // block_w) * block_w
    padded_h = -(-height // block_h) * block_h
    return BlockGrid(
        block_w=block_w,
        block_h=block_h,
        rows=padded_h // block_h,
        cols=padded_w // block_w,
        padded_w=padded_w,
        padded_h=padded_h,
    )


def neighbor_range(t_neighbor: int, border_line, mode: str = "strict") -> Range:
    """Range of thresholds that classify ``border_line`` like the neighbor.

    The border pixels are bracketed around ``t_neighbor``: the closest
    border value below it (or a sentinel below the intensity domain) sets
    the exclusive lower end, the closest value above it the inclusive upper
    end. Pixels equal to ``t_neighbor`` are dropped first; in strict mode
    their presence instead caps the range at ``t_neighbor`` so they cannot
    flip label. The result always contains ``t_neighbor``.
    """
    if not 0 <= t_neighbor <= 255:
        raise ValueError(f"threshold must lie in 0..255, got {t_neighbor}")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    line = np.asarray(border_line).ravel()
    if line.size == 0:
        raise ValueError("border line must be non-empty")
    others = line[line != t_neighbor]
    below = others[others < t_neighbor]
    above = others[others > t_neighbor]
    # Sentinels -1 and 256 sit outside the 8-bit domain so that 0 and 255
    # still get bracketed; the final clamp restores valid intensities.
    nearest_below = int(below.max()) if below.size else -1
    nearest_above = int(above.min()) if above.size else 256
    lo = max(nearest_below + 1, 0)
    hi = min(nearest_above, 255)
    if mode == "strict" and others.size != line.size:
        hi = t_neighbor
    return Range(lo, hi)


def effective_range(first: Range, second: Range) -> Optional[Range]:
    """Intersect two ranges; None marks an empty intersection."""
    lo = max(first.lo, second.lo)
    hi = min(first.hi, second.hi)
    if lo > hi:
        return None
    return Range(lo, hi)


def resolve_empty(
    ur: Range,
    lr: Range,
    ot: int,
    top_border,
    left_border,
    t_up: int,
    t_left: int,
) -> int:
    """Pick a fallback threshold when the neighbor ranges do not overlap.

    Candidates are the four range endpoints and the two neighbor
    thresholds; the winner leaves the fewest border pixels classified
    differently from the neighbors, breaking ties toward the candidate
    nearest the block's base threshold, then the smallest value.
    """
    top = np.asarray(top_border).ravel()
    left = np.asarray(left_border).ravel()
    candidates = sorted({ur.lo, ur.hi, lr.lo, lr.hi, t_up, t_left})

    def disagreements(c: int) -> int:
        top_bad = np.count_nonzero((top >= c) != (top >= t_up))
        left_bad = np.count_nonzero((left >= c) != (left >= t_left))
        return int(top_bad + left_bad)

    return min(candidates, key=lambda c: (disagreements(c), abs(c - ot), c))


def clamp_to_range(ot: int, r: Range) -> int:
    """Return ot unchanged if inside r, else the nearest extreme of r."""
    if r.lo > r.hi:
        raise ValueError(f"invalid range {r}")
    return min(max(ot, r.lo), r.hi)


def run_labt(img, cfg: LabtConfig = LabtConfig()) -> LabtResult:
    """Binarize an image block by block under the continuity constraint.

    Stages: every block's base threshold; a scan top-left to bottom-right
    so the up and left neighbors are always finished first; the labels.
    The first block applies the whole padded image's threshold when
    ``cfg.seed_global`` is set (its own base threshold otherwise); every
    later block clamps its base threshold into the range dictated by its
    neighbors, and counts an out-of-range event when clamping moved it.
    Disjoint neighbor ranges are resolved by :func:`resolve_empty` and
    counted separately. The output is cropped back to the input size.
    """
    arr = as_gray(img)
    override = None if cfg.block_w is None else (cfg.block_w, cfg.block_h)
    grid = choose_grid(arr, override)
    padded = pad_to_multiple(arr, grid.block_w, grid.block_h)

    rows, cols = grid.rows, grid.cols
    bw, bh = grid.block_w, grid.block_h
    blocks = padded.reshape(rows, bh, cols, bw)
    base = np.array(
        [
            [select_threshold(cfg.method, histogram(block)) for block in block_row]
            for block_row in blocks.swapaxes(1, 2)
        ],
        dtype=np.int32,
    )
    final = base.copy()
    if cfg.seed_global:
        final[0, 0] = select_threshold(cfg.method, histogram(padded))
    range_lo = np.zeros((rows, cols), dtype=np.int32)
    range_hi = np.full((rows, cols), 255, dtype=np.int32)
    out_of_range = 0
    non_overlap = 0

    # The first block keeps the full range. On the grid edge t_up/t_left
    # index other blocks, unused: the full range is never disjoint.
    for i in range(1, rows * cols):
        r, c = divmod(i, cols)
        ys, xs = r * bh, c * bw
        top_border = padded[ys, xs : xs + bw]
        left_border = padded[ys : ys + bh, xs]
        t_up, t_left = int(final[r - 1, c]), int(final[r, c - 1])
        up = neighbor_range(t_up, top_border, cfg.mode) if r else Range(0, 255)
        left = neighbor_range(t_left, left_border, cfg.mode) if c else Range(0, 255)
        ot = int(base[r, c])
        rng = effective_range(up, left)
        if rng is None:
            non_overlap += 1
            t = resolve_empty(up, left, ot, top_border, left_border, t_up, t_left)
            rng = Range(t, t)
        else:
            t = clamp_to_range(ot, rng)

        if not rng.lo <= ot <= rng.hi:
            out_of_range += 1
        final[r, c] = t
        range_lo[r, c] = rng.lo
        range_hi[r, c] = rng.hi

    # Thresholds lie in 0..255, so comparing as uint8 is exact and casts nothing.
    labels = (blocks >= final.astype(np.uint8)[:, None, :, None]).reshape(padded.shape)
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
