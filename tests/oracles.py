"""Independent brute-force reference implementations for the test suite.

Deliberately slow and literal: each oracle recomputes its answer from the
definition, without sharing code paths with the library. The exceptions are
frozen copies of earlier library code that fast paths are checked against:
:func:`select_threshold_scalar` (one histogram at a time, with the per-level
exact-integer Otsu loop), :func:`histogram_flat` (one ``np.bincount``
over the whole image), the scalar range helpers :func:`neighbor_range`,
:func:`effective_range`, :func:`resolve_empty` and :func:`clamp_to_range`,
and :func:`run_labt_raster`, the original one-loop engine built on them. It
still calls the library's grid and padding helpers, but shares no scan code
with the engine; engine rewrites are checked against it field by field.
:func:`read_pgm_loop` is the original PGM reader, which parses P2 samples
one token at a time.
"""

import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from labt.engine import LabtConfig, LabtResult, choose_grid
from labt.image_core import PgmError, as_gray
from labt.thresholders import Adcdf, MeanK, Otsu

_WHITESPACE = b" \t\n\r\x0b\x0c"


def otsu_exhaustive(counts):
    """Smallest t in 0..255 maximizing between-class variance of {<t | >=t}.

    Exact rational arithmetic; a split with an empty class scores zero. A
    single-intensity region returns that intensity (degenerate-region rule).
    """
    counts = [int(n) for n in counts]
    total = sum(counts)
    occupied = [g for g, n in enumerate(counts) if n]
    if len(occupied) == 1:
        return occupied[0]
    best_t = 0
    best = Fraction(-1)
    for t in range(256):
        w0 = sum(counts[:t])
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            score = Fraction(0)
        else:
            mu0 = Fraction(sum(g * counts[g] for g in range(t)), w0)
            mu1 = Fraction(sum(g * counts[g] for g in range(t, 256)), w1)
            score = Fraction(w0 * w1) * (mu0 - mu1) ** 2
        if score > best:
            best, best_t = score, t
    return best_t


def admissible_interval(t_neighbor, border, mode):
    """Maximal interval around t_neighbor classifying the border like it.

    Tries all 256 thresholds; a candidate is admissible when every border
    pixel keeps the label it gets under t_neighbor, where paper mode exempts
    pixels equal to t_neighbor. Returns the contiguous run containing
    t_neighbor.
    """
    border = [int(p) for p in border]

    def admissible(c):
        for p in border:
            if mode == "paper" and p == t_neighbor:
                continue
            if (p >= c) != (p >= t_neighbor):
                return False
        return True

    ok = {c for c in range(256) if admissible(c)}
    lo = hi = t_neighbor
    while lo - 1 in ok:
        lo -= 1
    while hi + 1 in ok:
        hi += 1
    return lo, hi


def niblack_naive(img, window, k):
    """Per-pixel mean/stddev over the border-clipped window, double loop."""
    arr = np.asarray(img)
    height, width = arr.shape
    reach = window // 2
    out = np.zeros(arr.shape, dtype=bool)
    for y in range(height):
        for x in range(width):
            ys, ye = max(0, y - reach), min(height, y + reach + 1)
            xs, xe = max(0, x - reach), min(width, x + reach + 1)
            win = arr[ys:ye, xs:xe].astype(np.int64)
            n = win.size
            s = int(win.sum())
            sq = int((win * win).sum())
            mu = s / n
            var = sq / n - mu * mu
            thresh = mu + k * math.sqrt(var if var > 0 else 0.0)
            out[y, x] = arr[y, x] >= thresh
    return out


def border_disagreements(c, border, t_ref):
    """Pixels of ``border`` labeled differently by c and t_ref."""
    return sum((int(p) >= c) != (int(p) >= t_ref) for p in border)


def variance_two_pass(img):
    """Population variance via explicit two-pass summation."""
    values = [float(v) for v in np.asarray(img).ravel()]
    mean = math.fsum(values) / len(values)
    return math.fsum((v - mean) ** 2 for v in values) / len(values)


def histogram_flat(img):
    """Count pixels per intensity; returns a length-256 int64 array."""
    arr = as_gray(img)
    return np.bincount(arr.ravel(), minlength=256).astype(np.int64)


def read_pgm_loop(data: bytes) -> np.ndarray:
    """The original ``read_pgm``, which parses P2 samples one token at a time.

    Frozen as the reference for the whole-buffer P2 parser: arrays and
    ``PgmError`` texts must match it on every input.
    """
    buf = bytes(data)
    pos = 0

    def skip_separators() -> None:
        nonlocal pos
        while pos < len(buf):
            if buf[pos] in _WHITESPACE:
                pos += 1
            elif buf[pos : pos + 1] == b"#":
                while pos < len(buf) and buf[pos] not in b"\r\n":
                    pos += 1
            else:
                return

    def token(what: str) -> bytes:
        nonlocal pos
        skip_separators()
        start = pos
        while pos < len(buf) and buf[pos] not in _WHITESPACE and buf[pos : pos + 1] != b"#":
            pos += 1
        if pos == start:
            raise PgmError(f"truncated header: missing {what}")
        return buf[start:pos]

    def integer(what: str) -> int:
        tok = token(what)
        if not tok.isdigit():
            raise PgmError(f"non-numeric {what} token {tok!r}")
        return int(tok)

    magic = token("magic number")
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"malformed magic number {magic!r}")
    width = integer("width")
    height = integer("height")
    maxval = integer("maxval")
    if width < 1 or height < 1:
        raise PgmError(f"image dimensions must be positive, got {width}x{height}")
    if maxval > 255:
        raise PgmError(f"maxval {maxval} exceeds the 8-bit limit of 255")
    if maxval < 1:
        raise PgmError(f"maxval must be positive, got {maxval}")

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the maxval from the payload
        if pos >= len(buf) or buf[pos] not in _WHITESPACE:
            raise PgmError("missing whitespace between maxval and pixel payload")
        pos += 1
        payload = buf[pos : pos + count]
        if len(payload) < count:
            raise PgmError(
                f"truncated payload: expected {count} bytes, got {len(payload)}"
            )
        samples = np.frombuffer(payload, dtype=np.uint8)
        if samples.max() > maxval:
            value = samples[np.argmax(samples > maxval)]
            raise PgmError(f"sample value {value} exceeds maxval {maxval}")
        return samples.reshape(height, width).copy()

    # each sample needs a digit and a separator before it, so a header
    # claiming more samples than the rest of the file can hold is rejected
    # before anything is allocated for them
    if len(buf) - pos < 2 * count:
        raise PgmError(
            f"truncated payload: expected {count} samples, "
            f"but only {len(buf) - pos} bytes follow the header"
        )
    samples = np.empty(count, dtype=np.uint8)
    for i in range(count):
        try:
            tok = token("sample")
        except PgmError:
            raise PgmError(
                f"truncated payload: expected {count} samples, got {i}"
            ) from None
        if not tok.isdigit():
            raise PgmError(f"non-numeric sample token {tok!r}")
        value = int(tok)
        if value > maxval:
            raise PgmError(f"sample value {value} exceeds maxval {maxval}")
        samples[i] = value
    return samples.reshape(height, width)


def _round_half_away(x: float) -> int:
    if x >= 0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def _otsu_threshold(counts: np.ndarray, lowest: int, highest: int, total: int) -> int:
    # Exact integer arithmetic: the between-class variance of the split
    # {< t | >= t} is proportional to (s0*w1 - s1*w0)^2 / (w0*w1), so
    # candidates compare by cross-multiplication without float rounding.
    plain = counts.tolist()
    grand = sum(g * n for g, n in enumerate(plain))
    w0 = 0
    s0 = 0
    best_t = highest
    best_num = -1
    best_den = 1
    # The maximum is positive and attained with both classes non-empty,
    # i.e. for t in [lowest+1, highest]; every other t scores zero.
    for t in range(lowest + 1, highest + 1):
        w0 += plain[t - 1]
        s0 += (t - 1) * plain[t - 1]
        w1 = total - w0
        s1 = grand - s0
        diff = s0 * w1 - s1 * w0
        num = diff * diff
        den = w0 * w1
        if num * best_den > best_num * den:
            best_num, best_den, best_t = num, den, t
    return best_t


def select_threshold_scalar(method, hist: np.ndarray) -> int:
    """Pick a threshold in 0..255 for the region described by ``hist``.

    :class:`MeanK` uses the population mean and stddev of the histogram. A
    region with a single intensity returns that intensity regardless of
    method.
    """
    counts = np.asarray(hist, dtype=np.int64)
    if counts.shape != (256,) or (counts < 0).any():
        raise ValueError("histogram must be 256 non-negative counts")
    total = int(counts.sum())
    if total < 1:
        raise ValueError("empty region")
    occupied = np.flatnonzero(counts)
    if occupied.size == 1:
        return int(occupied[0])

    if isinstance(method, Otsu):
        return _otsu_threshold(counts, int(occupied[0]), int(occupied[-1]), total)
    if isinstance(method, Adcdf):
        cdf = np.cumsum(counts)
        first = int(np.argmax(cdf >= method.rho * total))
        return min(first + 1, 255)
    if isinstance(method, MeanK):
        mean = float(np.dot(np.arange(256), counts)) / total
        sq = float(np.dot(np.arange(256) ** 2, counts)) / total
        std = math.sqrt(max(sq - mean * mean, 0.0))
        return min(max(_round_half_away(mean + method.k * std), 0), 255)
    raise TypeError(f"unknown threshold method {method!r}")


_MODES = ("strict", "paper")


class Range(NamedTuple):
    """Closed integer interval of admissible thresholds."""

    lo: int
    hi: int


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


def run_labt_raster(img, cfg: LabtConfig = LabtConfig()) -> LabtResult:
    """Binarize an image block by block under the continuity constraint.

    Blocks are visited top-left to bottom-right so the up and left
    neighbors are always finished first. The first block is thresholded
    with the whole padded image's threshold when ``cfg.seed_global`` is
    set (its own base threshold otherwise); every later block clamps its
    base threshold into the range dictated by its finished neighbors, and
    counts an out-of-range event when clamping moved it. Disjoint neighbor
    ranges are resolved by :func:`resolve_empty` and counted separately.
    The output is cropped back to the input size.
    """
    arr = as_gray(img)
    grid = choose_grid(arr, cfg)
    height, width = arr.shape
    padded = np.pad(arr, ((0, -height % grid.block_h), (0, -width % grid.block_w)), mode="edge")

    rows, cols = grid.rows, grid.cols
    bw, bh = grid.block_w, grid.block_h
    base = np.zeros((rows, cols), dtype=np.int32)
    final = np.zeros((rows, cols), dtype=np.int32)
    range_lo = np.zeros((rows, cols), dtype=np.int32)
    range_hi = np.zeros((rows, cols), dtype=np.int32)
    labels = np.zeros(padded.shape, dtype=bool)
    out_of_range = 0
    non_overlap = 0

    seed = (
        select_threshold_scalar(cfg.method, histogram_flat(padded))
        if cfg.seed_global
        else None
    )

    for r in range(rows):
        for c in range(cols):
            ys, xs = r * bh, c * bw
            block = padded[ys : ys + bh, xs : xs + bw]
            ot = select_threshold_scalar(cfg.method, histogram_flat(block))
            base[r, c] = ot

            if r == 0 and c == 0:
                t = seed if cfg.seed_global else ot
                rng = Range(0, 255)
            else:
                top_border = padded[ys, xs : xs + bw]
                left_border = padded[ys : ys + bh, xs]
                up = (
                    neighbor_range(int(final[r - 1, c]), top_border, cfg.mode)
                    if r > 0
                    else None
                )
                left = (
                    neighbor_range(int(final[r, c - 1]), left_border, cfg.mode)
                    if c > 0
                    else None
                )
                if up is not None and left is not None:
                    rng = effective_range(up, left)
                else:
                    rng = up if up is not None else left
                if rng is None:
                    non_overlap += 1
                    t = resolve_empty(
                        up,
                        left,
                        ot,
                        top_border,
                        left_border,
                        int(final[r - 1, c]),
                        int(final[r, c - 1]),
                    )
                    rng = Range(t, t)
                else:
                    t = clamp_to_range(ot, rng)

            if not rng.lo <= ot <= rng.hi:
                out_of_range += 1
            final[r, c] = t
            range_lo[r, c] = rng.lo
            range_hi[r, c] = rng.hi
            labels[ys : ys + bh, xs : xs + bw] = block >= t

    return LabtResult(
        binary=labels[:height, :width].copy(),
        base_thresholds=base,
        thresholds=final,
        range_lo=range_lo,
        range_hi=range_hi,
        out_of_range_count=out_of_range,
        non_overlap_count=non_overlap,
        grid=grid,
        padded=padded,
    )
