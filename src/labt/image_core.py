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

# Separators: whitespace, and "#" comments up to a CR or LF. re keeps state
# for each repetition of a group, so a match takes at most 256 comments, and
# _skip repeats it. In a bytes pattern, \s matches exactly the six
# _WHITESPACE bytes.
_SEPARATOR = re.compile(rb"\s*(?:#[^\r\n]*\s*){0,256}")

# A token: the bytes up to the next whitespace or "#". Group 1 is the digit
# run after its leading zeros; a number's group 1 ends where the token does.
_TOKEN = re.compile(rb"0*([0-9]*)[^\s#]*")

# P2 samples are parsed in chunks of about this many payload bytes
_P2_CHUNK = 1 << 16


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
    rescaling. Malformed data, including a numeric token of more than 64
    digits, raises :class:`PgmError`.
    """
    buf = bytes(data)
    pos = 0

    def token(what: str) -> re.Match:
        nonlocal pos
        found = _TOKEN.match(buf, _skip(buf, pos))
        if found.end() == found.start():
            raise PgmError(f"truncated header: missing {what}")
        pos = found.end()
        return found

    def integer(what: str) -> int:
        return _parse_int(token(what), what)

    first = token("magic number")
    start, end = first.span()
    magic = buf[start : min(end, start + 3)]  # three bytes tell P2 and P5 from longer tokens
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"malformed magic number {_quote(first)}")
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
    samples = np.empty(count, dtype=np.uint8)
    done = 0
    while done < count and (pos := _skip(buf, pos)) < len(buf):
        stop = _p2_cut(buf, pos)
        if stop == pos:  # no separator within a chunk: one token, judged in place
            sample = _TOKEN.match(buf, pos)
            values, stop = [_sample_value(sample, maxval)], sample.end()
        else:
            chunk = buf[pos:stop]
            if b"#" in chunk:
                chunk = _blank_comments(chunk)
            values = _p2_values(chunk, count - done, maxval)
        samples[done : done + len(values)] = values
        done, pos = done + len(values), stop
    if done < count:
        raise PgmError(f"truncated payload: expected {count} samples, got {done}")
    return samples.reshape(height, width)


def _skip(buf: bytes, pos: int) -> int:
    """The position past the separators and comments that start at ``pos``."""
    while (end := _SEPARATOR.match(buf, pos).end()) > pos:
        pos = end
    return pos


def _p2_cut(buf: bytes, start: int) -> int:
    """End of the P2 chunk whose first token starts at ``start``.

    The chunk ends just past its last separator within ``_P2_CHUNK`` bytes,
    so no token spans two chunks; with no separator there it is empty, and
    its first token is judged alone. A chunk that holds a "#" ends past its
    last line end, so each comment ends inside its chunk, or, with no line
    end, just before the "#", which ends a token.
    """
    if start + _P2_CHUNK >= len(buf):
        return len(buf)
    cut = max(buf.rfind(c, start, start + _P2_CHUNK) for c in _WHITESPACE) + 1 or start
    hash_at = buf.find(b"#", start, cut)
    if hash_at >= 0:
        cut = max(buf.rfind(b"\n", start, cut), buf.rfind(b"\r", start, cut)) + 1 or hash_at
    return cut


def _blank_comments(chunk: bytes) -> bytes:
    """A copy of ``chunk`` with each comment byte made a space.

    A byte lies in a comment when the last "#" up to it comes after the last
    CR or LF before it. A "#" ends a token, so blanking a comment moves no
    token boundary. One int32 running maximum of the events, ``2 * i + 1`` at
    a "#" and ``2 * i`` at a line end, is odd exactly there, so the cost stays
    a few bytes per chunk byte however many comments it holds.
    """
    a = np.frombuffer(chunk, dtype=np.uint8).copy()
    hashes = a == ord("#")
    last = np.arange(0, 2 * len(a), 2, dtype=np.int32)
    last += hashes
    last *= hashes | (a == ord("\n")) | (a == ord("\r"))
    np.maximum.accumulate(last, out=last)
    a[(last & 1).astype(bool)] = ord(" ")
    return a.tobytes()


def _p2_values(chunk: bytes, limit: int, maxval: int) -> np.ndarray:
    """The int16 values of the first ``limit`` sample tokens of a P2 chunk.

    The chunk holds whole tokens and no comment. A bad token raises
    :class:`PgmError`; of several, the first in stream order is reported.
    """
    # With a separator on each side, byte i of the chunk is a[i + 1], so
    # a[e] is the last byte of the token that ends before byte e. uint8
    # differences wrap: a digit has d < 10, a separator other than " " a - 9 < 5.
    a = np.frombuffer(b" " + chunk + b" ", dtype=np.uint8)
    d = a - np.uint8(ord("0"))
    digit = d < 10
    token = a != ord(" ")
    token &= a - np.uint8(9) >= 5
    # samples past the limit are never examined
    ends = np.flatnonzero(token[:-1] > token[1:])[:limit]
    stop = int(ends[-1]) if len(ends) else 0

    # Each byte's value as the last of up to three digits, each place taken
    # only within a run of digits: w of two places, x of three. The int16
    # loop is named, as numpy 1.x would multiply uint8 by a small scalar in uint8.
    u = d * digit
    w = u.copy()
    w[1:] += u[:-1] * np.uint8(10)
    w *= digit
    x = np.zeros(len(a), dtype=np.int16)
    np.multiply(w[:-1], 10, out=x[1:], dtype=np.int16)
    x += u
    values = x.take(ends)
    # A token is bad if its last three digits exceed maxval, if it holds a
    # byte that is neither a digit nor a separator, or if a nonzero digit
    # precedes three more (so it exceeds 999). The first bad token in
    # stream order is reported; the count of token ends before a byte is
    # the index of the token holding it.
    bad = values > maxval
    wrong = token[1 : stop + 1] > digit[1 : stop + 1]
    m = max(stop - 3, 0)  # a byte past it has no three digits after it in its token
    wrong[:m] |= (u[1 : m + 1] != 0) & digit[2 : m + 2] & digit[3 : m + 3] & digit[4 : m + 4]
    if wrong.any():
        bad[np.searchsorted(ends, wrong.argmax())] = True
    if bad.any():
        end = int(ends[bad.argmax()])
        start = max(chunk.rfind(c, 0, end) for c in _WHITESPACE) + 1
        _sample_value(_TOKEN.match(chunk, start, end), maxval)  # raises the token's PgmError
    return values


def _sample_value(sample: re.Match, maxval: int) -> int:
    """The value of the P2 sample token that ``sample`` matches, judged in place.

    A valid token is leading zeros and then at most three digits, so no more
    than its last three bytes are converted. A bad one raises PgmError.
    """
    start, end = sample.span()
    if sample.end(1) == end and end - sample.start(1) <= 3:
        value = int(sample.string[max(start, end - 3) : end])
    else:
        value = _parse_int(sample, "sample")  # past 999, if it is a number
    if value > maxval:
        raise PgmError(f"sample value {value} exceeds maxval {maxval}")
    return value


def _parse_int(token: re.Match, what: str) -> int:
    """The value of the ``_TOKEN`` match ``token``, a number of at most 64 digits."""
    start, end = token.span()
    if token.end(1) < end:
        raise PgmError(f"non-numeric {what} token {_quote(token)}")
    if end - start > 64:  # int() takes 64 digits at any int_max_str_digits setting
        raise PgmError(f"{what} token of {end - start} digits is too long")
    return int(token.string[start:end])


def _quote(token: re.Match) -> str:
    """The repr of the matched token, cut to 32 bytes and its length."""
    start, end = token.span()
    if end - start <= 32:
        return repr(token.string[start:end])
    return f"{token.string[start : start + 32]!r}... ({end - start} bytes)"


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
    arr = as_gray(img)
    # Bands of about 2**17 pixels, at most 256 rows: a band's column sums
    # fit uint16 (256 * 255) and those of its squares uint32 (256 * 255**2).
    step = min(256, max(1, (1 << 17) // arr.shape[1]))
    s1 = s2 = 0
    for start in range(0, arr.shape[0], step):
        band = arr[start : start + step]
        s1 += int(band.sum(axis=0, dtype=np.uint16).sum(dtype=np.uint64))
        s2 += int(np.square(band, dtype=np.uint16).sum(axis=0, dtype=np.uint32).sum(dtype=np.uint64))
    n = arr.size
    return (n * s2 - s1 * s1) / (n * n)
