"""Output checks that do not depend on the code they check.

Nothing here imports ``labt``: the invariants are recomputed from the
input page and the returned arrays with plain numpy, and the digests let a
run on the default seed compare every output byte with the values
recorded in ``golden.json``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from inputs import digest

# The LabtResult fields covered by the byte-identical contract.
RESULT_FIELDS = (
    "binary",
    "base_thresholds",
    "thresholds",
    "range_lo",
    "range_hi",
    "out_of_range_count",
    "non_overlap_count",
    "grid",
    "padded",
)


def value_digest(value) -> str:
    if isinstance(value, np.ndarray):
        head = repr((value.dtype.str, value.shape)).encode()
        return digest(head + np.ascontiguousarray(value).tobytes())
    if dataclasses.is_dataclass(value):
        return digest(repr(dataclasses.astuple(value)).encode())
    if isinstance(value, (bytes, bytearray)):
        return digest(bytes(value))
    return digest(repr(value).encode())


def result_digests(result, prefix: str = "") -> dict:
    return {prefix + name: value_digest(getattr(result, name)) for name in RESULT_FIELDS}


def as_pixels(binary) -> np.ndarray:
    """A binary image as the 0/255 samples ``write_pgm`` stores."""
    return np.where(np.asarray(binary, dtype=bool), 255, 0).astype(np.uint8)


def border_disagreements(padded: np.ndarray, t: np.ndarray, bw: int, bh: int) -> int:
    """Border pixels labelled differently by a block and its up/left neighbour.

    A block's top border is its own first row, judged by its threshold and
    by the threshold of the block above; its left border is its own first
    column, judged by its threshold and the block to its left.
    """
    count = 0
    if t.shape[0] > 1:
        tops = padded[bh::bh, :]
        own = np.repeat(t[1:], bw, axis=1)
        up = np.repeat(t[:-1], bw, axis=1)
        count += int(np.count_nonzero((tops >= own) != (tops >= up)))
    if t.shape[1] > 1:
        lefts = padded[:, bw::bw]
        own = np.repeat(t[:, 1:], bh, axis=0)
        left = np.repeat(t[:, :-1], bh, axis=0)
        count += int(np.count_nonzero((lefts >= own) != (lefts >= left)))
    return count


def check_labt(page: np.ndarray, res, strict: bool) -> list[str]:
    """Invariants every block-thresholding result must satisfy."""
    errors = []
    g = res.grid
    t = np.asarray(res.thresholds)
    lo, hi = np.asarray(res.range_lo), np.asarray(res.range_hi)
    if not (t.shape == lo.shape == hi.shape == np.shape(res.base_thresholds) == (g.rows, g.cols)):
        return [f"per-block arrays do not match the {g.rows}x{g.cols} grid"]
    if not ((lo <= t) & (t <= hi)).all():
        errors.append("an applied threshold lies outside its recorded range")
    padded = np.asarray(res.padded)
    h, w = page.shape
    if padded.shape != (g.padded_h, g.padded_w) or (g.rows * g.block_h, g.cols * g.block_w) != padded.shape:
        return errors + [f"padded shape {padded.shape} does not match the grid"]
    if not np.array_equal(padded[:h, :w], page):
        errors.append("padded image does not hold the input")
    binary = np.asarray(res.binary)
    if binary.shape != (h, w) or binary.dtype != np.bool_:
        return errors + [f"binary is {binary.dtype} {binary.shape}, expected bool {(h, w)}"]
    bw, bh = g.block_w, g.block_h
    for r in range(-(-h // bh)):
        y0, y1 = r * bh, min((r + 1) * bh, h)
        expected = padded[y0:y1, :w] >= np.repeat(t[r], bw)[:w]
        if not np.array_equal(expected, binary[y0:y1]):
            errors.append(f"binary differs from padded >= thresholds in block row {r}")
            break
    if strict and res.non_overlap_count == 0:
        bad = border_disagreements(padded, t, bw, bh)
        if bad:
            errors.append(f"{bad} border pixels disagree in a strict run without disjoint ranges")
    return errors


def niblack_expected(page: np.ndarray, window: int, k: float):
    """Niblack labels from exact integer window sums, plus a mask of pixels
    lying within rounding distance of their threshold."""
    h, w = page.shape
    reach = window // 2
    v = page.astype(np.int64)
    s = np.zeros((h + 1, w + 1), np.int64)
    ss = np.zeros((h + 1, w + 1), np.int64)
    s[1:, 1:] = v.cumsum(0).cumsum(1)
    ss[1:, 1:] = (v * v).cumsum(0).cumsum(1)
    y0 = np.clip(np.arange(h) - reach, 0, h)
    y1 = np.clip(np.arange(h) + reach + 1, 0, h)
    x0 = np.clip(np.arange(w) - reach, 0, w)
    x1 = np.clip(np.arange(w) + reach + 1, 0, w)

    def box(table):
        return table[y1][:, x1] - table[y0][:, x1] - table[y1][:, x0] + table[y0][:, x0]

    n = ((y1 - y0)[:, None] * (x1 - x0)[None, :]).astype(np.int64)
    total, total_sq = box(s), box(ss)
    mean = total / n
    var = np.clip((n * total_sq - total * total) / (n * n), 0.0, None)
    thresh = mean + k * np.sqrt(var)
    return page >= thresh, np.abs(page - thresh) < 1e-6


def check_niblack(page: np.ndarray, binary, window: int, k: float) -> list[str]:
    binary = np.asarray(binary)
    if binary.shape != page.shape or binary.dtype != np.bool_:
        return [f"niblack output is {binary.dtype} {binary.shape}"]
    expected, tie = niblack_expected(page, window, k)
    bad = int(np.count_nonzero((binary != expected) & ~tie))
    return [f"{bad} niblack labels differ from the window statistics"] if bad else []


def check_multiscan(page: np.ndarray, ms, strict: bool) -> list[str]:
    errors = []
    views = (page, page[::-1], page[:, ::-1])
    for name, view, run in zip(("identity", "vflip", "hflip"), views, ms.runs):
        errors += [f"{name} scan: {e}" for e in check_labt(np.ascontiguousarray(view), run, strict)]
    back = (ms.runs[0].binary, ms.runs[1].binary[::-1], ms.runs[2].binary[:, ::-1])
    for i, (scan, expect) in enumerate(zip(ms.per_scan, back)):
        if not np.array_equal(scan, expect):
            errors.append(f"per_scan[{i}] is not its run flipped back")
    union = np.logical_or.reduce([np.asarray(m, bool) for m in ms.per_scan])
    if not np.array_equal(ms.combined, union):
        errors.append("combined is not the OR of per_scan")
    if (np.asarray(ms.per_scan[0], bool) & ~np.asarray(ms.combined, bool)).any():
        errors.append("combined does not contain the identity scan")
    return errors


def check_pgm_out(pixels: np.ndarray, data: bytes, read_pgm) -> list[str]:
    """The written bytes are the documented P5 form of ``pixels`` and read
    back exactly."""
    errors = []
    h, w = pixels.shape
    if data != b"P5\n%d %d\n255\n" % (w, h) + pixels.tobytes():
        errors.append("written PGM differs from the documented P5 encoding")
    if not np.array_equal(read_pgm(data), pixels):
        errors.append("PGM write -> read does not round-trip")
    return errors
