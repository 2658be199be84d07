"""Core block-thresholding engine with the continuity constraint.

The image is split into equal blocks, sized by the config or else by the
image spread. The base stage thresholds each block from its own 256-bin
histogram. The scan, the one sequential stage, walks the anti-diagonals of
the grid and clamps each base threshold into the ranges of values that
classify the block's border lines exactly as its finished up/left
neighbors do; a neighbor beyond the grid edge contributes the full range
0..255. Last, one compare per block row labels the image's pixels.

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

from .image_core import as_gray, variance
from .thresholders import Otsu, ThresholdMethod, select_threshold

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
        if not isinstance(self.method, ThresholdMethod):
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
    degenerate range around the resolved threshold). ``binary`` is the
    C-contiguous mask cropped to the input's shape; the runs of a multiscan
    share one ``(3, height, width)`` buffer, each ``binary`` one plane of it.
    ``padded`` is the edge-padded image the grid covers.
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


def choose_grid(arr: np.ndarray, cfg: LabtConfig = LabtConfig()) -> BlockGrid:
    """Pick block dimensions and the padded grid covering a grayscale image.

    The sides are ``cfg``'s when set, else the image spread's: busier images
    get smaller blocks (side 64 for stddev < 32, then 32, then 16). Each side
    is capped at the image's, so padding stays below one block per axis.
    """
    height, width = arr.shape
    if height < 2 or width < 2:
        raise ValueError("image must be at least 2x2 pixels")
    if cfg.block_w is not None:
        block_w, block_h = cfg.block_w, cfg.block_h
    else:
        spread = sqrt(variance(arr))
        block_w = block_h = 64 if spread < 32 else 32 if spread < 64 else 16
    block_w, block_h = min(block_w, width), min(block_h, height)
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


def _base_thresholds(blocks, method: ThresholdMethod):
    """Base stage: threshold each block of the ``(rows, bh, cols, bw)`` view.

    One ``np.bincount`` per block row counts each pixel once, and one
    :func:`select_threshold` call thresholds the row. Returns the
    ``(rows, cols)`` thresholds and the padded image's histogram.
    """
    rows, _, cols, _ = blocks.shape
    base = np.empty((rows, cols), dtype=np.int32)
    page = np.zeros(256, dtype=np.int64)
    bin_base = np.arange(0, cols * 256, 256)[:, None]
    for r, pixels in enumerate(blocks):
        band = (bin_base + pixels).ravel()
        hists = np.bincount(band, minlength=cols * 256).reshape(cols, 256)
        base[r] = select_threshold(method, hists)
        page += hists.sum(axis=0)
    return base, page


def _scan(blocks, base, seeds, mode: str):
    """Sequential stage: clamp each base threshold into its neighbors' range.

    ``blocks`` stacks k padded images' ``(rows, bh, cols, bw)`` views, ``base``
    their ``(k, rows, cols)`` thresholds; grid s starts from ``seeds[s]``, and
    one diagonal of all k is one batch. Returns the applied thresholds, the
    recorded ranges and the disjoint-range mask, each shaped like ``base``.
    """
    k, rows, cols = base.shape
    final = base.copy()
    final[:, 0, 0] = seeds
    flat, base_flat = final.reshape(-1), base.reshape(-1)
    range_lo, range_hi = np.zeros(final.size, np.int32), np.full(final.size, 255, np.int32)
    disjoint = np.zeros(final.size, dtype=bool)
    lines = blocks.reshape(k * rows, *blocks.shape[2:])
    grid_offsets = np.arange(0, final.size, rows * cols)[:, None]
    # Row 0's t_up and column 0's t_left wrap to other blocks; 0..255 stands in.
    for d in range(1, rows + cols - 1):
        r = np.arange(max(0, d - cols + 1), min(d, rows - 1) + 1)
        g = (grid_offsets + r * (cols - 1) + d).ravel()  # flat index of (r, d - r)
        line_row, c = np.divmod(g, cols)
        t_up, t_left = flat[g - cols], flat[g - 1]
        top, left = lines[line_row, 0, c], lines[line_row, :, c, 0]
        up_lo, up_hi = neighbor_range(t_up, top, mode)
        left_lo, left_hi = neighbor_range(t_left, left, mode)
        n = len(r)
        if r[0] == 0:
            up_lo[::n], up_hi[::n] = 0, 255
        if r[-1] == d:
            left_lo[n - 1 :: n], left_hi[n - 1 :: n] = 0, 255
        lo, hi = np.maximum(up_lo, left_lo), np.minimum(up_hi, left_hi)
        t = np.minimum(np.maximum(base_flat[g], lo), hi)
        empty = lo > hi
        if empty.any():
            cand = np.stack((up_lo, up_hi, left_lo, left_hi, t_up, t_left), axis=1)
            t[empty] = lo[empty] = hi[empty] = resolve_empty(
                cand[empty], base_flat[g][empty], top[empty], left[empty]
            )
        flat[g], range_lo[g], range_hi[g], disjoint[g] = t, lo, hi, empty
    return final, *(a.reshape(final.shape) for a in (range_lo, range_hi, disjoint))


def _run_oriented(img, cfg: LabtConfig, orients) -> tuple[LabtResult, ...]:
    """Run the engine on each orientation of an image as one stacked scan.

    ``orients`` are flips, the first the identity. A flip keeps the image
    spread, so one grid serves all; when the grid covers the image exactly,
    a flip only permutes whole blocks, so one base stage serves all too.
    """
    arr = as_gray(img)
    grid = choose_grid(arr, cfg)
    height, width = arr.shape
    pages = np.empty((len(orients), grid.padded_h, grid.padded_w), dtype=np.uint8)
    for page, orient in zip(pages, orients):  # edge padding, written in place
        page[:height, :width] = orient(arr)
        page[:height, width:] = page[:height, width - 1 : width]
        page[height:] = page[height - 1]
    blocks = pages.reshape(len(orients), grid.rows, grid.block_h, grid.cols, grid.block_w)
    aligned = pages.shape[1:] == arr.shape  # else a flip moves the padding to another side
    bases, hists = zip(*[_base_thresholds(one, cfg.method) for one in (blocks[:1] if aligned else blocks)])
    bases = np.stack([o(bases[0]) for o in orients] if aligned else bases)  # rebinding frees the unstacked ones
    seeds = [select_threshold(cfg.method, h) for h in hists] if cfg.seed_global else bases[:, 0, 0]
    final, range_lo, range_hi, disjoint = _scan(blocks, bases, seeds, cfg.mode)
    # Label only the image's pixels, one block row at a time, straight into
    # the cropped mask. Thresholds lie in 0..255, so comparing as uint8 is exact.
    binary = np.empty((len(orients), height, width), dtype=bool)
    image = pages[:, :height, :width]
    for r in range(grid.rows):
        rows = slice(r * grid.block_h, (r + 1) * grid.block_h)
        row_t = np.repeat(final[:, r].astype(np.uint8), grid.block_w, axis=1)[:, None, :width]
        np.greater_equal(image[:, rows], row_t, out=binary[:, rows])
    return tuple(
        LabtResult(
            binary=binary[s],
            base_thresholds=bases[s],
            thresholds=final[s],
            range_lo=range_lo[s],
            range_hi=range_hi[s],
            out_of_range_count=int(((bases[s] < range_lo[s]) | (bases[s] > range_hi[s])).sum()),
            non_overlap_count=int(disjoint[s].sum()),
            grid=grid,
            padded=pages[s],
        )
        for s in range(len(orients))
    )


def run_labt(img, cfg: LabtConfig = LabtConfig()) -> LabtResult:
    """Binarize an image block by block under the continuity constraint.

    Runs :func:`_base_thresholds`, then :func:`_scan` from the padded image's
    threshold if ``cfg.seed_global`` is set, else from the first block's own.
    """
    return _run_oriented(img, cfg, (np.asarray,))[0]
