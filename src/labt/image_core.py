"""Grayscale/binary image primitives: PGM I/O, padding, statistics.

Conventions used across the package:

* grayscale image: 2-D ``uint8`` array, row-major, intensities in 0..255
* binary image: 2-D ``bool`` array, ``True`` marks foreground
* histogram: length-256 ``int64`` array of intensity counts

All functions are pure and return freshly allocated arrays, so results can
be shared between threads without copying.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PgmError",
    "as_gray",
    "read_pgm",
    "write_pgm",
    "pad_to_multiple",
    "histogram",
    "variance",
]

_WHITESPACE = b" \t\n\r\x0b\x0c"


class PgmError(ValueError):
    """Raised for malformed PGM data."""


def as_gray(img) -> np.ndarray:
    """Validate and coerce an array-like into a 2-D uint8 grayscale image."""
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("expected a non-empty 2-D grayscale image")
    if arr.dtype != np.uint8:
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"grayscale pixels must be integers, got {arr.dtype}")
        if arr.min() < 0 or arr.max() > 255:
            raise ValueError("grayscale pixel values must lie in 0..255")
        arr = arr.astype(np.uint8)
    return arr


def read_pgm(data: bytes) -> np.ndarray:
    """Parse binary (P5) or ASCII (P2) PGM bytes into a grayscale image.

    Header comments (``#`` to end of line) are skipped. Only maxval <= 255
    is accepted; samples are kept as stored, without rescaling.
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


def write_pgm(img) -> bytes:
    """Serialize a grayscale or binary image as binary (P5) PGM bytes.

    Binary images map background to 0 and foreground to 255. The output is
    bit-exact: ``P5\\n{width} {height}\\n255\\n`` followed by the raw
    row-major payload, so ``read_pgm(write_pgm(x))`` reproduces ``x``.
    """
    arr = np.asarray(img)
    if arr.dtype == np.bool_:
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("expected a non-empty 2-D binary image")
        arr = np.where(arr, np.uint8(255), np.uint8(0))
    else:
        arr = as_gray(arr)
    height, width = arr.shape
    return b"".join((b"P5\n%d %d\n255\n" % (width, height), np.ascontiguousarray(arr)))


def pad_to_multiple(img, block_w: int, block_h: int) -> np.ndarray:
    """Grow an image to the next multiple of the block size by edge replication.

    The original image is the top-left ``img.shape`` corner of the result.
    """
    arr = as_gray(img)
    if block_w < 1 or block_h < 1:
        raise ValueError("block dimensions must be positive")
    height, width = arr.shape
    return np.pad(arr, ((0, -height % block_h), (0, -width % block_w)), mode="edge")


def histogram(img) -> np.ndarray:
    """Count pixels per intensity; returns a length-256 int64 array."""
    arr = as_gray(img)
    # Bands of about 2**17 pixels keep np.bincount's 64-bit index copy small.
    step = max(1, (1 << 17) // arr.shape[1])
    counts = np.zeros(256, dtype=np.int64)
    for start in range(0, arr.shape[0], step):
        counts += np.bincount(arr[start : start + step].ravel(), minlength=256)
    return counts


def variance(img) -> float:
    """Population variance of the intensities, from exact integer sums."""
    counts = histogram(img).tolist()
    n, s1, s2 = (sum(g**p * c for g, c in enumerate(counts)) for p in range(3))
    return (n * s2 - s1 * s1) / (n * n)
