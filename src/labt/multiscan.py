"""OR-combination of block-thresholded scans in three orientations.

The scan propagates constraints from the top-left corner, so flipping the
image before thresholding (and flipping the labels back) yields a genuinely
different result. Unioning the foreground of the identity, vertical-flip
and horizontal-flip scans with ``|`` recovers detail that any single scan
direction may clamp away; the union only ever grows the foreground.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# run_labt is not called here: perfbench's tracer and self-test patch this name
from .engine import LabtConfig, LabtResult, _run_oriented, run_labt

# Identity, vertical flip, horizontal flip. Each is its own inverse, so the
# same function maps an image into its orientation and the labels back.
ORIENTATIONS = (np.asarray, np.flipud, np.fliplr)


@dataclass(frozen=True)
class MultiscanResult:
    """Union mask, a new array, plus the three per-orientation masks (already
    flipped back) and their full run records. Each ``per_scan`` mask is a
    view of its run's ``binary``."""

    combined: np.ndarray
    per_scan: tuple[np.ndarray, np.ndarray, np.ndarray]
    runs: tuple[LabtResult, LabtResult, LabtResult]


def run_multiscan(img, cfg: LabtConfig = LabtConfig()) -> MultiscanResult:
    """Run the block thresholder in three orientations, one stacked scan, and OR the results."""
    runs = _run_oriented(img, cfg, ORIENTATIONS)
    scans = tuple(orient(run.binary) for orient, run in zip(ORIENTATIONS, runs))
    return MultiscanResult(combined=scans[0] | scans[1] | scans[2], per_scan=scans, runs=runs)
