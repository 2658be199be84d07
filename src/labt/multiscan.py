"""OR-combination of block-thresholded scans in three orientations.

The scan propagates constraints from the top-left corner, so
flipping the image before thresholding (and flipping the labels back)
yields a genuinely different result. Unioning the foreground of the
identity, vertical-flip and horizontal-flip scans recovers detail that any
single scan direction may clamp away; the union only ever grows the
foreground.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .engine import LabtConfig, LabtResult, run_labt

__all__ = ["ORIENTATIONS", "MultiscanResult", "or_masks", "run_multiscan"]

# Identity, vertical flip, horizontal flip. Each is its own inverse, so the
# same function maps an image into its orientation and the labels back.
ORIENTATIONS = (np.asarray, np.flipud, np.fliplr)


@dataclass(frozen=True)
class MultiscanResult:
    """Union mask plus the three per-orientation masks (already flipped
    back) and their full run records. Each ``per_scan`` mask is a view of
    its run's ``binary``."""

    combined: np.ndarray
    per_scan: tuple[np.ndarray, np.ndarray, np.ndarray]
    runs: tuple[LabtResult, LabtResult, LabtResult]


def or_masks(masks: Sequence[np.ndarray]) -> np.ndarray:
    """Pixelwise foreground union of equally sized binary masks."""
    if not masks:
        raise ValueError("need at least one mask")
    shapes = {np.asarray(m).shape for m in masks}
    if len(shapes) != 1:
        raise ValueError(f"mask dimensions differ: {sorted(shapes)}")
    return reduce(np.logical_or, (np.asarray(m, dtype=bool) for m in masks))


def run_multiscan(img, cfg: LabtConfig = LabtConfig()) -> MultiscanResult:
    """Run the block thresholder in three orientations and OR the results."""
    runs = tuple(run_labt(orient(img), cfg) for orient in ORIENTATIONS)
    scans = tuple(orient(run.binary) for orient, run in zip(ORIENTATIONS, runs))
    return MultiscanResult(combined=or_masks(scans), per_scan=scans, runs=runs)
