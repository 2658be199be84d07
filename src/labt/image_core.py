"""Grayscale/binary image primitives: PGM I/O and statistics.

Conventions used across the package:

* grayscale image: 2-D ``uint8`` array, row-major, intensities in 0..255
* binary image: 2-D ``bool`` array, ``True`` marks foreground
* histogram: length-256 ``int64`` array of intensity counts

All functions are pure. Each returns a freshly allocated array, except
:func:`as_gray`, which returns its input itself when that already is a 2-D
uint8 array.
"""

from __future__ import annotations

import re

import numpy as np

_WHITESPACE = b" \t\n\r\x0b\x0c"

# Separators (whitespace, or "#" comments up to a CR or LF), then one header
# token: the bytes up to the next whitespace or "#". In a bytes pattern, \s
# matches exactly the six _WHITESPACE bytes.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")

# byte kinds in a P2 payload: 0 separator, 1 "0", 2 "1".."9", 3 any other
_P2_KIND = np.full(256, 3, dtype=np.uint8)
_P2_KIND[list(_WHITESPACE)] = 0
_P2_KIND[ord("0")] = 1
_P2_KIND[ord("1") : ord("9") + 1] = 2


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

    Comments (``#`` to end of line) are skipped in the header and, in P2,
    between samples as well; a ``#`` also ends the token it follows. P2
    bytes past the width*height-th sample are ignored, whatever they hold.
    Only maxval <= 255 is accepted; samples are kept as stored, without
    rescaling. Malformed data, including a numeric token longer than
    ``int()`` converts, raises :class:`PgmError`.
    """
    buf = bytes(data)
    pos = 0

    def token(what: str) -> bytes:
        nonlocal pos
        match = _HEADER_TOKEN.match(buf, pos)
        pos = match.end()
        if not match[1]:
            raise PgmError(f"truncated header: missing {what}")
        return match[1]

    def integer(what: str) -> int:
        tok = token(what)
        if not tok.isdigit():
            raise PgmError(f"non-numeric {what} token {tok!r}")
        return _parse_int(tok, what)

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
        if len(buf) - pos < count:
            raise PgmError(f"truncated payload: expected {count} bytes, got {len(buf) - pos}")
        samples = np.frombuffer(buf, dtype=np.uint8, count=count, offset=pos)
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
    # A "#" ends a token, so turning each comment into one space moves no
    # token boundary.
    rest = buf[pos:]
    if b"#" in rest:
        rest = re.sub(rb"#[^\r\n]*", b" ", rest)
    a = np.frombuffer(rest, dtype=np.uint8)
    kind = _P2_KIND[a]
    in_token = kind != 0
    edges = np.flatnonzero(np.diff(in_token, prepend=False, append=False))
    # samples past width*height are never examined
    starts, ends = edges[0::2][:count], edges[1::2][:count]
    n = len(starts)
    stop = int(ends[-1]) if n else 0

    values = np.zeros(n, dtype=np.int16)
    for place in range(3):
        digit = a[ends - 1 - place].astype(np.int16) - ord("0")
        values += np.where(ends - starts > place, digit * 10**place, 0)
    # A token is bad if its last three digits exceed maxval, if a nonzero
    # digit precedes its last three (so it exceeds 999), or if it holds a
    # byte that is neither a digit nor a separator. The first bad token in
    # stream order is reported; the count of token ends before a byte is
    # the index of the token holding it.
    bad = values > maxval
    m = max(stop - 3, 0)
    nonzero_before_last3 = (
        (kind[:m] == 2) & in_token[1 : m + 1] & in_token[2 : m + 2] & in_token[3 : m + 3]
    )
    for p in (_first(kind[:stop] == 3), _first(nonzero_before_last3)):
        if p is not None:
            bad[np.searchsorted(ends, p)] = True
    k = _first(bad)
    if k is not None:
        tok = rest[starts[k] : ends[k]]
        if not tok.isdigit():
            raise PgmError(f"non-numeric sample token {tok!r}")
        raise PgmError(f"sample value {_parse_int(tok, 'sample')} exceeds maxval {maxval}")
    if n < count:
        raise PgmError(f"truncated payload: expected {count} samples, got {n}")
    return values.astype(np.uint8).reshape(height, width)


def _parse_int(tok: bytes, what: str) -> int:
    """The value of a digit token; PgmError if int() refuses its length."""
    try:
        return int(tok)
    except ValueError:  # Python's limit on the digits of an int string
        raise PgmError(f"{what} token of {len(tok)} digits is too long") from None


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True in a 1-D bool array, or None."""
    return int(mask.argmax()) if mask.any() else None


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
        # Comparing the bytes yields 0/1 even where a True byte is not 1,
        # which a bool-to-uint8 cast need not ensure; * 255 then works in place.
        arr = (arr.view(np.uint8) != 0).view(np.uint8)
        arr *= np.uint8(255)
    else:
        arr = as_gray(arr)
    height, width = arr.shape
    return b"".join((b"P5\n%d %d\n255\n" % (width, height), np.ascontiguousarray(arr)))


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
