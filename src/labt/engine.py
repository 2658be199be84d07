"""Core block-thresholding engine with the continuity constraint.

The image is split into equal blocks, sized by the config or else by the
image spread. The base stage thresholds each block from its own histogram,
or a small block from its own pixels, which give the same threshold. The
scan, the one sequential stage, walks the anti-diagonals of the grid and
clamps each base threshold into the ranges of values that classify the
block's border lines exactly as its finished up/left neighbors do; a
neighbor beyond the grid edge contributes the full range 0..255. Last, one
compare per block row labels the image's pixels.

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

from .image_core import as_gray, histogram, variance
from .thresholders import Otsu, ThresholdMethod, _select, _select_pixels, select_threshold

_MODES = ("strict", "paper")
_TABLE_BYTES = 1 << 18  # the scan lays out border lines about this many bytes at a time
_BAND_ELEMENTS = 1 << 16  # the base stage counts about this many bins or pixels per call


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


def _base_thresholds(blocks, method: ThresholdMethod):
    """Base stage: threshold each block of the ``(rows, bh, cols, bw)`` view.

    The block rows go in bands of about ``_BAND_ELEMENTS`` bins or pixels,
    at least one row, and one selection thresholds a band's blocks from
    whichever are the fewer values, histograms or pixels. Blocks of at most
    64 pixels for Otsu, or 256, a histogram's bins, for Adcdf and MeanK,
    pass their pixels to :func:`_select_pixels` and count nothing. Larger
    blocks are counted: one ``np.bincount`` counts a band's pixels once,
    one column sum gives both its share of the page histogram and its
    occupied levels, and :func:`_select` takes just those levels' counts.
    Otsu blocks of 65 to 256 pixels still pass their pixels where a block
    holds fewer pixels than the band holds levels. Returns the ``(rows,
    cols)`` thresholds and the padded image's histogram, or None where no
    band was counted.
    """
    rows, bh, cols, bw = blocks.shape
    size = bh * bw
    counted = size > (64 if isinstance(method, Otsu) else 256)
    band = max(1, _BAND_ELEMENTS // (cols * (max(256, size) if counted else size)))
    base = np.empty((rows, cols), dtype=np.int32)
    page = None
    if counted:
        page = np.zeros(256, dtype=np.int64)
        # The narrowest type that holds every bin index; the counts are int64 anyway.
        bins = band * cols * 256
        bin_base = np.arange(0, bins, 256, dtype=np.min_scalar_type(bins - 1)).reshape(band, 1, cols, 1)
    for r in range(0, rows, band):
        pixels = blocks[r : r + band]
        if counted:
            index = bin_base[: len(pixels)]
            hists = np.bincount((index + pixels).ravel(), minlength=index.size * 256).reshape(-1, 256)
            column = hists.sum(axis=0)
            page += column
            levels = np.flatnonzero(column)
            if size >= len(levels):
                base[r : r + band] = _select(method, hists.T[levels], levels).reshape(-1, cols)
                continue
        block_pixels = pixels.transpose(0, 2, 1, 3).reshape(-1, size)
        base[r : r + band] = _select_pixels(method, block_pixels).reshape(-1, cols)
    return base, page


def _border_table(lines, flat, pos, rows: int):
    """The scan's view of the blocks of flat indices ``flat``, in that order.

    ``lines`` is the ``(k * rows, bh, cols, bw)`` block stack and ``pos`` each
    block's diagonal position. Returns the blocks' top and left border lines
    as a pixel-major ``(max(bh, bw), 2, m)`` uint8 table, and the positions of
    their up and left neighbors (0 where there is none). 255 fills the
    shorter line and the lines of a missing neighbor: such a pixel is never
    below a threshold and caps no range below 255, so an edge line admits
    the full range 0..255.
    """
    _, bh, cols, bw = lines.shape
    line_row, c = np.divmod(flat, cols)  # s * rows + r, and c
    has = np.stack((line_row % rows > 0, c > 0))
    tab = np.full((max(bh, bw), 2, len(flat)), 255, np.uint8)
    tab[:bw, 0] = lines[line_row, 0, c].T
    tab[:bh, 1] = lines[line_row, :, c, 0].T
    tab[:, ~has] = 255
    return tab, np.where(has, pos[np.stack((flat - cols, flat - 1))], 0)


def _scan(blocks, base, seeds, mode: str):
    """Sequential stage: clamp each base threshold into its neighbors' range.

    ``blocks`` stacks k padded images' ``(rows, bh, cols, bw)`` views, ``base``
    their ``(k, rows, cols)`` thresholds; grid s starts from ``seeds[s]``.
    The blocks are laid out in anti-diagonal order, so that one diagonal of
    all k grids, whose blocks depend only on the diagonal before, is one
    slice; their border lines are laid out a piece of the order at a time.
    Returns the applied thresholds, the recorded ranges and the
    disjoint-range mask, each shaped like ``base``.
    """
    k, rows, cols = base.shape
    n = base.size
    lines = blocks.reshape(k * rows, *blocks.shape[2:])
    # A stable sort by r + c keeps each diagonal's blocks in (s, r) order;
    # diagonal 0 holds block (s, 0, 0) of each grid.
    diag = np.tile(np.add.outer(np.arange(rows, dtype=np.int32), np.arange(cols, dtype=np.int32)).ravel(), k)
    order = np.argsort(diag, kind="stable").astype(np.int32)
    ends = np.cumsum(np.bincount(diag)).tolist()
    del diag
    pos = np.empty(n, np.int32)
    pos[order] = np.arange(n, dtype=np.int32)
    # Thresholds and ranges lie in 0..255: the scan keeps them as uint8, the
    # border lines' type, so that no op converts.
    b = base.reshape(-1)[order].astype(np.uint8)
    fin = np.empty(n, np.uint8)
    fin[:k] = seeds
    range_lo, range_hi = np.zeros(n, np.uint8), np.full(n, 255, np.uint8)
    disjoint = np.zeros(n, dtype=bool)
    strict = mode == "strict"
    piece = max(1, _TABLE_BYTES // (2 * max(lines.shape[1], lines.shape[3])))  # blocks per table piece
    p0 = p1 = 0
    for s, e in zip(ends, ends[1:]):
        if e > p1:  # the next piece starts at this diagonal
            p0, p1 = s, max(e, s + piece)
            tab, nb = _border_table(lines, order[p0:p1], pos, rows)
        # a diagonal's (W, 2, m) border lines and (2, m) neighbor thresholds
        x, t = tab[:, :, s - p0 : e - p0], fin[nb[:, s - p0 : e - p0]]
        below = x < t
        # A line admits (closest value below t, closest value at or above t];
        # paper mode lets values equal to t flip, so they cap nothing. 255 is
        # never below t, so its x + 1 wrapping to 0 is harmless.
        lo2 = ((x + 1) * below).max(axis=0)
        hi2 = np.maximum(x, (below if strict else x <= t) * np.uint8(255)).min(axis=0)
        lo, hi, applied = range_lo[s:e], range_hi[s:e], fin[s:e]
        np.maximum(*lo2, out=lo)
        np.minimum(*hi2, out=hi)
        np.minimum(np.maximum(b[s:e], lo), hi, out=applied)
        empty = np.greater(lo, hi, out=disjoint[s:e])
        if np.count_nonzero(empty):
            # Disjoint ranges: of the up and left ranges' ends and the two
            # neighbor thresholds, pick the one that mislabels the fewest
            # border pixels, then the one nearest the base threshold, then the
            # smallest. A line's count of values below c is a rank, so
            # candidate c mislabels |#(v < c) - #(v < t)| of its pixels.
            cand = np.concatenate((lo2, hi2, t))  # lo_up, lo_left, hi_up, hi_left, t_up, t_left
            # The (2 lines, 6, m) ranks of lines shorter than 256 pixels
            # count in uint8, made signed before the differences.
            count, signed = (np.uint8, np.int16) if len(x) < 256 else (np.int32, np.int32)
            ranks = (x[:, :, None] < cand).sum(axis=0, dtype=count).astype(signed, copy=False)
            bad = np.add(abs(ranks[0] - ranks[0, 4]), abs(ranks[1] - ranks[1, 5]), dtype=np.int64)
            # Candidates and distances lie in 0..255, so the key orders
            # (disagreements, distance, value) lexicographically, and its
            # low 9 bits are the value.
            dist = abs(np.subtract(cand, b[s:e], dtype=np.int16))
            best = (((bad * 512 + dist) * 512 + cand).min(axis=0) & 511).astype(np.uint8)
            for a in (applied, lo, hi):
                np.copyto(a, best, where=empty)
    del order, b  # freed before the results are gathered
    arrays, types = (fin, range_lo, range_hi, disjoint), (base.dtype, np.int32, np.int32, bool)
    return tuple(a[pos].astype(d, copy=False).reshape(base.shape) for a, d in zip(arrays, types))


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
    if cfg.seed_global:  # a stage that counted no band leaves its page to one histogram
        seeds = [select_threshold(cfg.method, histogram(p) if h is None else h) for p, h in zip(pages, hists)]
    else:
        seeds = bases[:, 0, 0]
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
