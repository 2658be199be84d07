"""Block-adaptive image binarization with continuity-constrained thresholds.

The package exports the user-facing API; internals such as the engine's
``choose_grid`` or the image statistics ``histogram`` and ``variance``
stay importable from their modules (``labt.engine``, ``labt.image_core``,
...).
"""

from .engine import LabtConfig, LabtResult, run_labt
from .image_core import PgmError, read_pgm, write_pgm
from .metrics import continuity_violations, mean_range_width, psnr, sweep
from .multiscan import MultiscanResult, run_multiscan
from .thresholders import (
    Adcdf,
    MeanK,
    NiblackParams,
    Otsu,
    binarize_global,
    niblack_binarize,
)

__version__ = "0.1.0"

__all__ = [
    "Adcdf",
    "LabtConfig",
    "LabtResult",
    "MeanK",
    "MultiscanResult",
    "NiblackParams",
    "Otsu",
    "PgmError",
    "binarize_global",
    "continuity_violations",
    "mean_range_width",
    "niblack_binarize",
    "psnr",
    "read_pgm",
    "run_labt",
    "run_multiscan",
    "sweep",
    "write_pgm",
]
