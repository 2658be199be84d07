"""Assertions shared by several test modules."""

import dataclasses

import numpy as np
from numpy.testing import assert_array_equal

from labt.engine import LabtResult


def assert_same_result(got, want):
    """Every LabtResult field equal, arrays also in shape and dtype."""
    for field in dataclasses.fields(LabtResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.shape, a.dtype) == (b.shape, b.dtype), field.name
            assert_array_equal(a, b, err_msg=field.name)
        else:
            assert type(a) is type(b) and a == b, field.name
    assert got.binary.flags.c_contiguous


def logging_selections(monkeypatch, module):
    """Log the base stage's selections in ``module`` as ``(path, blocks,
    data)``: ``("dense", n, levels)`` for each ``_select`` and
    ``("pixels", n, pixels)`` for each ``_select_pixels``."""
    log = []
    dense, pixels = module._select, module._select_pixels

    def selecting(method, counts, levels):
        log.append(("dense", counts.shape[1], levels))
        return dense(method, counts, levels)

    def selecting_pixels(method, px):
        log.append(("pixels", len(px), px.copy()))
        return pixels(method, px)

    monkeypatch.setattr(module, "_select", selecting)
    monkeypatch.setattr(module, "_select_pixels", selecting_pixels)
    return log


def assert_bands(pages, grid, bands, dense):
    """The base stage's logged bands, in call order, cover each padded page
    of ``pages`` in turn, top to bottom. A band goes dense iff
    ``dense(levels)`` holds for ``levels``, the distinct pixels of its block
    rows, and then selects from just those levels; else it passes its
    blocks' pixels, one block a row."""
    bands = iter(bands)
    for page in pages:
        top = 0
        while top < grid.padded_h:
            path, count, data = next(bands)
            bottom = top + count // grid.cols * grid.block_h
            rows = page[top:bottom]
            levels = np.unique(rows)
            assert path == ("dense" if dense(levels) else "pixels")
            if path == "dense":
                assert_array_equal(data, levels)
            else:
                blocks = rows.reshape(-1, grid.block_h, grid.cols, grid.block_w).swapaxes(1, 2)
                assert_array_equal(data, blocks.reshape(count, -1))
            top = bottom
        assert top == grid.padded_h
    assert next(bands, None) is None
