import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest

import labt

PUBLIC_API = {
    "LabtConfig",
    "LabtResult",
    "run_labt",
    "MultiscanResult",
    "run_multiscan",
    "Otsu",
    "Adcdf",
    "MeanK",
    "NiblackParams",
    "niblack_binarize",
    "binarize_global",
    "PgmError",
    "read_pgm",
    "write_pgm",
    "psnr",
    "mean_range_width",
    "continuity_violations",
    "sweep",
}


def test_all_is_the_public_api_and_every_name_resolves():
    assert len(labt.__all__) == len(PUBLIC_API) == 18
    assert set(labt.__all__) == PUBLIC_API
    for name in labt.__all__:
        assert getattr(labt, name) is not None, name


# A 300 dpi A4 page: light noise with dark 4x4-pixel strokes on a few percent of it.
A4_SHAPE = (3508, 2480)


@pytest.fixture(scope="module")
def a4():
    rng = np.random.default_rng(2480)
    page = rng.integers(170, 256, A4_SHAPE, dtype=np.uint8)
    strokes = rng.random((A4_SHAPE[0] // 4, A4_SHAPE[1] // 4)) < 0.06
    page[np.repeat(np.repeat(strokes, 4, axis=0), 4, axis=1)] //= 5
    header = b"%d %d\n255\n" % (A4_SHAPE[1], A4_SHAPE[0])
    p2_tokens = np.array([list(b"%03d " % v) for v in range(256)], dtype=np.uint8)
    result = labt.run_labt(page)
    return {
        "page": page,
        "p5": b"".join((b"P5\n", header, page)),
        "p2": b"".join((b"P2\n", header, p2_tokens[page])),
        "result": result,
    }


# One call of each public function on the A4 page's inputs.
ENTRY_POINTS = {
    "run_labt": lambda a: labt.run_labt(a["page"]),
    "run_multiscan": lambda a: labt.run_multiscan(a["page"], labt.LabtConfig(block_w=16, block_h=16)),
    "niblack_binarize": lambda a: labt.niblack_binarize(a["page"]),
    "read_pgm-P5": lambda a: labt.read_pgm(a["p5"]),
    "read_pgm-P2": lambda a: labt.read_pgm(a["p2"]),
    "write_pgm-mask": lambda a: labt.write_pgm(a["result"].binary),
    "write_pgm-gray": lambda a: labt.write_pgm(a["page"]),
    "binarize_global": lambda a: labt.binarize_global(a["page"], 128),
    "psnr": lambda a: labt.psnr(a["page"], a["result"].binary),
    "continuity_violations": lambda a: labt.continuity_violations(a["result"]),
    "mean_range_width": lambda a: labt.mean_range_width(a["result"]),
    "sweep": lambda a: labt.sweep(a["page"], labt.LabtConfig(), [16, 64]),
}


def returned_bytes(out) -> int:
    """Bytes of the distinct buffers in a returned value: views of one array count once."""
    roots, size, todo = {}, 0, [out]
    while todo:
        obj = todo.pop()
        if dataclasses.is_dataclass(obj):
            todo.extend(getattr(obj, field.name) for field in dataclasses.fields(obj))
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, bytes):
            size += len(obj)
        elif isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            roots[id(obj)] = obj.nbytes
    return size + sum(roots.values())


def test_entry_point_table_covers_every_public_function():
    functions = {name for name in labt.__all__ if inspect.isfunction(getattr(labt, name))}
    assert {name.split("-")[0] for name in ENTRY_POINTS} == functions


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_peaks_within_its_returns_plus_a_page_budget(a4, name):
    tracemalloc.start()
    try:
        out = ENTRY_POINTS[name](a4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # nothing page-sized beyond what is returned, whatever the page holds
    assert peak <= returned_bytes(out) + 2.5 * a4["page"].nbytes
