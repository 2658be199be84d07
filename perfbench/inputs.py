"""Seeded input pages for the benchmark, built with numpy only.

Every page comes from ``numpy.random.default_rng`` seeded with
``(seed, stream, item)``, so one ``--seed`` always gives the same pages.
Nothing here imports ``labt`` or the repository's tests: only the pages
reach the library. Generated sets are cached per seed under
``.bench_cache/`` in the checkout so repeated runs skip the generation.

The parameters that set how much work a page costs (contrast, noise,
stripe period, intensity spread, layout) stay in narrow ranges, so runs
on different seeds do about the same work; the seed moves the content.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

# Bump when a generator changes, so stale caches are not reused.
GENERATOR_VERSION = 1

A4_SHAPE = (3508, 2480)  # rows, cols: A4 at 300 dpi
TINY_A4_SHAPE = (351, 248)
MIXED_SIDE = 512
TINY_MIXED_SIDE = 64

KINDS = ("doc", "form", "halftone", "blobs", "wave", "noise")


def rng_for(seed: int, stream: int, item: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, item])


# --------------------------------------------------------------- encoders


def encode_p5(page: np.ndarray) -> bytes:
    h, w = page.shape
    return b"P5\n# perfbench\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(page).tobytes()


def decode_p5(data: bytes) -> np.ndarray:
    """Inverse of :func:`encode_p5` (only for files it wrote)."""
    magic, comment, size, maxval, payload = data.split(b"\n", 4)
    w, h = map(int, size.split())
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def encode_p2(page: np.ndarray) -> bytes:
    h, w = page.shape
    rows = [" ".join(map(str, row)) for row in page.tolist()]
    return ("P2\n# perfbench\n%d %d\n255\n" % (w, h) + "\n".join(rows) + "\n").encode()


# ------------------------------------------------------------- generators


def _text_mask(rng, h, w, scale, density=1.0):
    """Text lines of stroke glyphs: vertical stems and horizontal bars.

    The layout (margins, paragraphs of eight lines, a short last line) is
    fixed, so pages of one size carry about the same amount of ink and
    cost about the same to threshold; the seed varies the glyphs.
    """
    mask = np.zeros((h, w), dtype=bool)
    cell = max(int(round(22 * scale)), 3)
    line = max(int(round(46 * scale)), 5)
    xh = max(int(round(32 * scale)), 3)
    stem = max(int(round(5 * scale)), 1)
    gw = cell - max(int(round(4 * scale)), 1)
    margin_x = int(w * 0.07)
    y, row = int(h * 0.06), 0
    while y < int(h * 0.94) - line:
        row += 1
        if row % 9 == 0:  # paragraph break
            y += line
            continue
        right = w - margin_x - (w // 3 if row % 9 == 8 else 0)
        x = margin_x
        while x < right - cell:
            for _ in range(int(rng.integers(2, 10))):
                if x >= right - cell:
                    break
                if rng.random() < density:
                    y0 = y - (int(round(12 * scale)) if rng.random() < 0.3 else 0)
                    for _ in range(int(rng.integers(2, 4))):
                        if rng.random() < 0.55:
                            xx = x + int(rng.integers(0, max(gw - stem, 1)))
                            mask[y0 : y + xh, xx : xx + stem] = True
                        else:
                            yy = y + int(rng.integers(0, max(xh - stem, 1)))
                            mask[yy : yy + stem, x : x + gw] = True
                x += cell
            x += cell
        y += line
    return mask


def _pen_strokes(rng, mask, count, scale):
    """Smooth pen curves (signatures, underlines) stamped with a square nib."""
    h, w = mask.shape
    nib = max(int(round(4 * scale)), 1)
    t = np.linspace(0.0, 1.0, max(int(3000 * scale), 50))
    for _ in range(count):
        x0, y0 = rng.uniform(0.1, 0.7) * w, rng.uniform(0.1, 0.9) * h
        length = rng.uniform(0.1, 0.3) * w
        amp = rng.uniform(0.005, 0.03) * h
        freq = rng.uniform(2, 8)
        xs = (x0 + length * t).astype(np.intp)
        ys = (y0 + amp * np.sin(2 * np.pi * freq * t)).astype(np.intp)
        for dy in range(nib):
            for dx in range(nib):
                mask[np.clip(ys + dy, 0, h - 1), np.clip(xs + dx, 0, w - 1)] = True


def _specks(rng, mask, count, scale):
    h, w = mask.shape
    size = max(int(round(3 * scale)), 1)
    ys = rng.integers(0, h - size, count)
    xs = rng.integers(0, w - size, count)
    for dy in range(size):
        for dx in range(size):
            mask[ys + dy, xs + dx] = True


def _ink_on_paper(rng, mask, paper=(214, 220), ink=(30, 36), noise=5.0):
    h, w = mask.shape
    yy = np.linspace(0.0, 1.0, h, dtype=np.float32)[:, None]
    xx = np.linspace(0.0, 1.0, w, dtype=np.float32)[None, :]
    page = np.float32(rng.uniform(*paper)) - np.float32(rng.uniform(8, 12)) * yy - np.float32(rng.uniform(4, 8)) * xx
    page = np.where(mask, np.float32(rng.uniform(*ink)), page)
    page += rng.normal(0.0, noise, size=(h, w)).astype(np.float32)
    return np.clip(np.rint(page), 0, 255).astype(np.uint8)


def document_page(rng, shape, scale):
    """A text page with pen strokes and specks of dirt."""
    h, w = shape
    mask = _text_mask(rng, h, w, scale)
    _pen_strokes(rng, mask, 6, scale)
    _specks(rng, mask, int(4000 * scale * scale) + 5, scale)
    return _ink_on_paper(rng, mask, paper=(232, 236), ink=(16, 20))


def form_page(rng, shape, scale):
    """Ruled boxes with sparse text in some of them."""
    h, w = shape
    mask = _text_mask(rng, h, w, scale, density=0.35)
    rule = max(int(round(2 * scale)), 1)
    pitch = max(int(round(64 * scale)), 4)
    for y in range(int(rng.integers(2, pitch)), h - rule, pitch):
        mask[y : y + rule, :] = True
    for x in np.sort(rng.integers(0, w - rule, 5)):
        mask[:, x : x + rule] = True
    return _ink_on_paper(rng, mask, ink=(60, 66))


def halftone_page(rng, shape, scale):
    """Clustered-dot halftone of a smooth random field."""
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float32)
    field = np.zeros((h, w), dtype=np.float32)
    for _ in range(4):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        sigma = rng.uniform(0.2, 0.3) * max(h, w)
        field += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma * sigma))
    field = (field - field.min()) / max(float(field.max() - field.min()), 1e-6)
    cell = 6
    dy = (yy % cell) - cell / 2 + 0.5
    dx = (xx % cell) - cell / 2 + 0.5
    dots = np.hypot(dy, dx) < field * cell * 0.7
    return _ink_on_paper(rng, dots, noise=8.0)


def blobs_page(rng, shape, scale):
    """Filled ellipses of three grey levels on a lit background."""
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float32)
    page = np.float32(rng.uniform(190, 200)) + np.float32(rng.uniform(-20, 20)) * xx / w
    for i in range(8):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        ry, rx = rng.uniform(0.08, 0.14) * h, rng.uniform(0.08, 0.14) * w
        inside = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 < 1.0
        page = np.where(inside, np.float32((60, 90, 120)[i % 3]), page)
    page += rng.normal(0.0, 6.0, size=(h, w)).astype(np.float32)
    return np.clip(np.rint(page), 0, 255).astype(np.uint8)


def wave_page(rng, shape, scale):
    """A sine grating over a linear gradient."""
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float32)
    angle = rng.uniform(0, np.pi)
    period = rng.uniform(40, 60) * scale
    phase = (xx * np.cos(angle) + yy * np.sin(angle)) / period + rng.uniform(0, 1)
    base = rng.uniform(120, 136) + rng.uniform(-20, 20) * (yy / h - 0.5)
    page = base + rng.uniform(70, 76) * np.sin(2 * np.pi * phase)
    page += rng.normal(0.0, 3.0, size=(h, w)).astype(np.float32)
    return np.clip(np.rint(page), 0, 255).astype(np.uint8)


def noise_page(rng, shape, scale):
    """Uniform noise over an interval of 181 intensities."""
    lo = int(rng.integers(20, 41))
    return rng.integers(lo, lo + 181, size=shape, dtype=np.uint8)


GENERATORS = {
    "doc": document_page,
    "form": form_page,
    "halftone": halftone_page,
    "blobs": blobs_page,
    "wave": wave_page,
    "noise": noise_page,
}


def mixed_page(kind, rng, side):
    scale = 0.5 * side / MIXED_SIDE if kind in ("doc", "form") else side / MIXED_SIDE
    return GENERATORS[kind](rng, (side, side), scale)


# ------------------------------------------------------------------ cache


def digest(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def file_digest(path: Path) -> str:
    """``digest`` of a file's bytes, read in chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


class InputCache:
    """Directory of generated sets, one ``.npz`` per (workload, size, seed)."""

    def __init__(self, root: Path):
        self.root = Path(root)

    def path(self, name: str, tiny: bool, seed: int) -> Path:
        size = "tiny" if tiny else "full"
        return self.root / f"v{GENERATOR_VERSION}-{name}-{size}-{seed}"

    def load(self, name, tiny, seed, build):
        """Return the cached set, building and storing it on a miss."""
        folder = self.path(name, tiny, seed)
        archive = folder / "set.npz"
        if not archive.exists():
            arrays, files = build()
            folder.mkdir(parents=True, exist_ok=True)
            for fname, data in files.items():
                atomic_write(folder / fname, data)
            tmp = folder / "set.tmp.npz"
            np.savez(tmp, **arrays)
            os.replace(tmp, archive)
        with np.load(archive) as npz:
            return {key: npz[key] for key in npz.files}, folder


def atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)
