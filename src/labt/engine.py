"""Core block-thresholding engine with the continuity constraint.

The image is split into equal blocks and processed in three stages. Each
block first gets a base threshold from its 256-bin histogram; one
``np.bincount`` per block row counts each pixel once. A scan over the
anti-diagonals of the grid, the one sequential stage, then clamps each
base threshold into the ranges of values that classify the block's border
lines exactly as its finished up/left neighbors do; a neighbor beyond the
grid edge contributes the full range 0..255. Last, one compare labels
every pixel.

Two range modes exist. ``strict`` (default) guarantees that the shared
border pixels of adjacent blocks receive identical labels under both
blocks' thresholds. ``paper`` leaves border pixels that equal the
neighbor's threshold free to flip: the admitted range may extend past that
threshold, trading exactness for wider ranges.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import sqrt
from numbers import Integral

import numpy as np

from .image_core import as_gray, pad_to_multiple, variance
from .thresholders import Adcdf, MeanK, Otsu, ThresholdMethod, select_threshold

__all__ = [
    "BlockGrid",
    "LabtConfig",
    "LabtResult",
    "choose_grid",
    "neighbor_range",
    "resolve_empty",
    "run_labt",
]

_MODES = ("strict", "paper")


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
    block_w: int | None = None
    block_h: int | None = None
    mode: str = "strict"
    seed_global: bool = True

    def __post_init__(self) -> None:
        if (self.block_w is None) != (self.block_h is None):
            raise ValueError("block_w and block_h must be given together")
        sides = () if self.block_w is None else (self.block_w, self.block_h)
        if any(isinstance(s, bool) or not isinstance(s, Integral) for s in sides):
            raise ValueError(f"block dimensions must be integers, got {sides}")
        if sides:
            # numpy integers become ints: unsigned ones would wrap in the
            # grid arithmetic
            object.__setattr__(self, "block_w", operator.index(self.block_w))
            object.__setattr__(self, "block_h", operator.index(self.block_h))
        if any(s < 2 for s in sides):
            raise ValueError(f"block dimensions must be at least 2, got {sides}")
        if not isinstance(self.method, (Otsu, Adcdf, MeanK)):
            raise ValueError(f"unknown threshold method {self.method!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not isinstance(self.seed_global, (bool, np.bool_)):
            raise ValueError(f"seed_global must be a bool, got {self.seed_global!r}")


@dataclass(frozen=True)
class LabtResult:
    """Binarized image plus per-block bookkeeping.

    ``base_thresholds`` holds each block's unconstrained choice,
    ``thresholds`` the values actually applied, and ``range_lo``/``range_hi``
    the effective range recorded per block (the applied threshold always
    lies inside it; blocks whose neighbor ranges were disjoint record the
    degenerate range around the resolved threshold). ``binary`` is
    C-contiguous but may be a view of a larger, padded label array.
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


def choose_grid(img, override: tuple[int, int] | None = None) -> BlockGrid:
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


def neighbor_range(t_neighbor, border_lines, mode: str = "strict"):
    """Ranges of thresholds that classify each border line like its neighbor.

    Row i of the ``(n, L)`` ``border_lines`` is bracketed around
    ``t_neighbor[i]``: the closest value below it (or -1) sets the exclusive
    lower end, the closest above it (or 255) the inclusive upper end. Strict
    mode (any other mode is paper) counts pixels equal to the threshold as
    above it, so they cap the range there and cannot flip label. Each range
    contains its threshold; returns ``(n,)`` lo and hi.
    """
    lines = np.asarray(border_lines, dtype=np.int16)
    if lines.shape[-1] == 0:
        raise ValueError("border lines must be non-empty")
    t = np.asarray(t_neighbor)[:, None]
    above = lines >= t if mode == "strict" else lines > t
    lo = np.where(lines < t, lines, -1).max(axis=1) + 1
    hi = np.where(above, lines, 255).min(axis=1)
    return lo, hi


def resolve_empty(candidates, base, top, left):
    """Pick fallback thresholds for blocks whose neighbor ranges are disjoint.

    Row i of the ``(m, 6)`` ``candidates`` holds the up and left ranges'
    ends, then ``t_up`` and ``t_left``. The winner leaves the fewest pixels
    of ``top[i]`` and ``left[i]`` labeled unlike the neighbors label them,
    breaking ties toward the candidate nearest ``base[i]``, then the smallest.
    """
    cand = np.asarray(candidates, dtype=np.int64)
    top, left = np.asarray(top)[:, None], np.asarray(left)[:, None]
    t_up, t_left = cand[:, 4, None, None], cand[:, 5, None, None]
    bad = ((top >= cand[..., None]) != (top >= t_up)).sum(-1)
    bad += ((left >= cand[..., None]) != (left >= t_left)).sum(-1)
    # Candidates and distances lie in 0..255, so the key orders
    # (disagreements, distance, value) lexicographically.
    key = (bad * 512 + abs(cand - np.asarray(base)[:, None])) * 512 + cand
    return cand[np.arange(len(cand)), key.argmin(axis=1)]


def run_labt(img, cfg: LabtConfig = LabtConfig()) -> LabtResult:
    """Binarize an image block by block under the continuity constraint.

    Stages: base thresholds, one :func:`select_threshold` call per block
    row; a scan of the anti-diagonals r + c = d, each a batch of blocks
    whose up and left neighbors are finished; the labels. The first block
    applies the summed block histograms' threshold, the padded image's,
    when ``cfg.seed_global`` is set (its own base threshold otherwise);
    every later block clamps its base threshold into the range dictated by
    its neighbors, and counts an out-of-range event when clamping moved
    it. Disjoint neighbor ranges are resolved by :func:`resolve_empty` and
    counted separately. The output is cropped back to the input size.
    """
    arr = as_gray(img)
    override = None if cfg.block_w is None else (cfg.block_w, cfg.block_h)
    grid = choose_grid(arr, override)
    padded = pad_to_multiple(arr, grid.block_w, grid.block_h)

    rows, cols = grid.rows, grid.cols
    bw, bh = grid.block_w, grid.block_h
    blocks = padded.reshape(rows, bh, cols, bw)
    base = np.empty((rows, cols), dtype=np.int32)
    page = np.zeros(256, dtype=np.int64)
    bin_base = np.arange(grid.padded_w) // bw * 256
    for r in range(rows):
        band = (bin_base + padded[r * bh : (r + 1) * bh]).ravel()
        hists = np.bincount(band, minlength=cols * 256).reshape(cols, 256)
        base[r] = select_threshold(cfg.method, hists)
        page += hists.sum(axis=0)
    final = base.copy()
    if cfg.seed_global:
        final[0, 0] = select_threshold(cfg.method, page)
    range_lo = np.zeros((rows, cols), dtype=np.int32)
    range_hi = np.full((rows, cols), 255, dtype=np.int32)
    non_overlap = 0

    # Row 0's t_up and column 0's t_left wrap to other blocks; 0..255 stands in.
    for d in range(1, rows + cols - 1):
        r = np.arange(max(0, d - cols + 1), min(d, rows - 1) + 1)
        c = d - r
        t_up, t_left = final[r - 1, c], final[r, c - 1]
        top, left = blocks[r, 0, c], blocks[r, :, c, 0]
        up_lo, up_hi = neighbor_range(t_up, top, cfg.mode)
        left_lo, left_hi = neighbor_range(t_left, left, cfg.mode)
        up_lo[r == 0], up_hi[r == 0] = 0, 255
        left_lo[c == 0], left_hi[c == 0] = 0, 255
        lo, hi = np.maximum(up_lo, left_lo), np.minimum(up_hi, left_hi)
        t = np.minimum(np.maximum(base[r, c], lo), hi)
        empty = lo > hi
        if empty.any():
            non_overlap += int(empty.sum())
            cand = np.stack((up_lo, up_hi, left_lo, left_hi, t_up, t_left), axis=1)
            t[empty] = lo[empty] = hi[empty] = resolve_empty(
                cand[empty], base[r, c][empty], top[empty], left[empty]
            )
        final[r, c], range_lo[r, c], range_hi[r, c] = t, lo, hi

    # Thresholds lie in 0..255, so comparing as uint8 is exact and casts nothing.
    labels = (blocks >= final.astype(np.uint8)[:, None, :, None]).reshape(padded.shape)
    return LabtResult(
        binary=np.ascontiguousarray(labels[: arr.shape[0], : arr.shape[1]]),
        base_thresholds=base,
        thresholds=final,
        range_lo=range_lo,
        range_hi=range_hi,
        out_of_range_count=int(((base < range_lo) | (base > range_hi)).sum()),
        non_overlap_count=non_overlap,
        grid=grid,
        padded=padded,
    )
