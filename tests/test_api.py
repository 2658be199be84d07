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


# Hostile PGM bytes of about n bytes each: long separator runs, many or long
# comments, and long tokens in the header and the payload. Each maps to its
# array or to its PgmError text.
HOSTILE_PGM = {
    "header_spaces": (lambda n: b"P2" + b" " * n + b"2 1 255\n1 2\n", lambda n: [[1, 2]]),
    "payload_spaces": (lambda n: b"P2 2 1 255\n1" + b" " * n + b"2\n", lambda n: [[1, 2]]),
    "header_comment_lines": (
        lambda n: b"P2\n" + b"#\n" * (n // 2) + b"2 1 255\n1 2\n",
        lambda n: [[1, 2]],
    ),
    "payload_comment_lines": (
        lambda n: b"P2 2 1 255\n1\n" + b"#\n" * (n // 2) + b"2\n",
        lambda n: [[1, 2]],
    ),
    "header_long_comment": (lambda n: b"P2 #" + b"x" * n + b"\n2 1 255 1 2", lambda n: [[1, 2]]),
    "payload_long_comment": (lambda n: b"P2 2 1 255\n1 #" + b"x" * n + b"\n2", lambda n: [[1, 2]]),
    "zeros_then_1": (lambda n: b"P2 2 1 255\n" + b"0" * n + b"1 2\n", lambda n: [[1, 2]]),
    "ones": (
        lambda n: b"P2 2 1 255\n" + b"1" * n + b" 2\n",
        lambda n: f"sample token of {n} digits is too long",
    ),
    "non_digit_sample": (
        lambda n: b"P2 2 1 255\n" + b"x" * n + b" 2\n",
        lambda n: f"non-numeric sample token b'{'x' * 32}'... ({n} bytes)",
    ),
    "magic": (
        lambda n: b"P" + b"5" * n,
        lambda n: f"malformed magic number b'P{'5' * 31}'... ({n + 1} bytes)",
    ),
    "non_digit_width": (
        lambda n: b"P2 " + b"x" * n + b" 1 255 0",
        lambda n: f"non-numeric width token b'{'x' * 32}'... ({n} bytes)",
    ),
    "width_digits": (
        lambda n: b"P2 " + b"9" * n + b" 1 255 0",
        lambda n: f"width token of {n} digits is too long",
    ),
}


@pytest.mark.parametrize("name", HOSTILE_PGM)
def test_hostile_pgm_costs_bounded_memory_and_message(name):
    build, want = HOSTILE_PGM[name]
    peaks = []
    for n in (2_000_000, 20_000_000):
        data = build(n)
        tracemalloc.start()
        try:
            try:
                got = labt.read_pgm(data)
            except labt.PgmError as exc:
                got = str(exc)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del data
        if isinstance(got, str):
            assert got == want(n) and len(got) <= 256
        else:
            assert got.tolist() == want(n)
        assert peaks[-1] <= 8 * 2**20 + returned_bytes(got)
        if "comment_lines" in name:  # as little as a plain 512x512 page's parse
            assert peaks[-1] <= 1.5 * 2**20 + returned_bytes(got)
    # the cost of a tenfold input stays put: bounded, not proportional
    assert abs(peaks[1] - peaks[0]) < 2**20
