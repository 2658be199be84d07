"""Quantitative evaluation: PSNR, continuity checks, sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .engine import LabtConfig, LabtResult, choose_grid, run_labt
from .image_core import as_gray


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
    grid, t = result.grid, result.thresholds
    blocks = result.padded.reshape(grid.rows, grid.block_h, grid.cols, grid.block_w)
    top, left = blocks[1:, 0], blocks[:, :, 1:, 0]
    return int(
        np.count_nonzero((top >= t[1:, :, None]) != (top >= t[:-1, :, None]))
        + np.count_nonzero((left >= t[:, None, 1:]) != (left >= t[:, None, :-1]))
    )


def sweep(img, cfg: LabtConfig, block_sizes: Sequence[int]) -> list[SweepRow]:
    """Run the engine once per square block size and collect range stats,
    skipping sizes that :func:`choose_grid` would cap at the image's sides."""
    arr = as_gray(img)
    rows = []
    for size in block_sizes:
        size_cfg = replace(cfg, block_w=size, block_h=size)
        grid = choose_grid(arr, size_cfg)
        if (grid.block_w, grid.block_h) != (size_cfg.block_w, size_cfg.block_h):
            continue
        result = run_labt(arr, size_cfg)
        fraction = result.out_of_range_count / (grid.rows * grid.cols)
        rows.append(SweepRow(size, mean_range_width(result), fraction))
    return rows

