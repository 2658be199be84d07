"""Quantitative evaluation: PSNR, continuity checks, sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .engine import LabtConfig, LabtResult, run_labt
from .image_core import as_gray

__all__ = [
    "MethodReport",
    "SweepRow",
    "psnr",
    "mean_range_width",
    "continuity_violations",
    "sweep",
]


@dataclass(frozen=True)
class MethodReport:
    """One comparison-table row. Methods without block constraints report
    zero counts and the full-range width of 256."""

    method: str
    psnr_db: float
    elapsed_s: float
    out_of_range_count: int
    non_overlap_count: int
    mean_range_width: float
    continuity_violations: int


@dataclass(frozen=True)
class SweepRow:
    block_size: int
    mean_range_width: float
    out_of_range_fraction: float


def psnr(original, binary) -> float:
    """PSNR in dB between a grayscale image and a {0,255}-mapped mask.

    Returns ``math.inf`` when the images agree exactly (zero MSE).
    """
    gray = as_gray(original)
    mask = np.asarray(binary)
    if mask.shape != gray.shape:
        raise ValueError(
            f"dimension mismatch: {gray.shape} grayscale vs {mask.shape} mask"
        )
    mapped = np.where(mask.astype(bool), 255.0, 0.0)
    mse = float(np.mean((gray.astype(np.float64) - mapped) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


def mean_range_width(result: LabtResult) -> float:
    """Mean inclusive width (hi - lo + 1) of the recorded block ranges."""
    return float((result.range_hi - result.range_lo + 1).mean())


def continuity_violations(result: LabtResult) -> int:
    """Count border pixels labeled differently by adjacent block thresholds.

    For every block, its top border row is classified with its own
    threshold and with the upper neighbor's, its left border column with
    its own and the left neighbor's; each differing pixel counts once.
    Strict-mode runs without non-overlap events always score zero.
    """
    arr, grid = result.padded, result.grid
    t = result.thresholds
    bw, bh = grid.block_w, grid.block_h
    # Row r*bh is the top border of block row r, column c*bw the left
    # border of block column c; expand the thresholds on each side of it.
    top = arr[bh::bh]
    left = arr[:, bw::bw]
    below, above = np.repeat(t[1:], bw, axis=1), np.repeat(t[:-1], bw, axis=1)
    right_of, left_of = np.repeat(t[:, 1:], bh, axis=0), np.repeat(t[:, :-1], bh, axis=0)
    return int(
        np.count_nonzero((top >= below) != (top >= above))
        + np.count_nonzero((left >= right_of) != (left >= left_of))
    )


def sweep(img, cfg: LabtConfig, block_sizes: Sequence[int]) -> list[SweepRow]:
    """Run the engine once per square block size and collect range stats."""
    rows = []
    for size in block_sizes:
        if size < 2:
            raise ValueError(f"block size must be at least 2, got {size}")
        result = run_labt(img, replace(cfg, block_w=size, block_h=size))
        blocks = result.grid.rows * result.grid.cols
        rows.append(
            SweepRow(
                block_size=size,
                mean_range_width=mean_range_width(result),
                out_of_range_fraction=result.out_of_range_count / blocks,
            )
        )
    return rows

