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
