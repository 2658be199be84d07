from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

from labt.image_core import (
    PgmError,
    histogram,
    pad_to_multiple,
    read_pgm,
    variance,
    write_pgm,
)
from labt.multiscan import ORIENTATIONS
from oracles import variance_two_pass

identity, flip_vertical, flip_horizontal = ORIENTATIONS

small_images = arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24)))


class TestReadPgm:
    def test_p5_basic(self):
        img = read_pgm(b"P5 2 1 255 " + bytes([0, 255]))
        assert img.shape == (1, 2)
        assert img.tolist() == [[0, 255]]

    def test_p2_basic(self):
        img = read_pgm(b"P2 1 1 255 128")
        assert img.tolist() == [[128]]

    def test_p2_with_comments_and_newlines(self):
        data = b"P2\n# a comment\n2 2\n# another\n255\n0 1\n2 3\n"
        assert read_pgm(data).tolist() == [[0, 1], [2, 3]]

    def test_p5_comment_in_header(self):
        data = b"P5\n#c\n2 1\n255\n" + bytes([9, 10])
        assert read_pgm(data).tolist() == [[9, 10]]

    def test_truncated_payload_p5(self):
        with pytest.raises(PgmError, match="truncated payload"):
            read_pgm(b"P5 2 2 255 " + bytes([1, 2, 3]))

    def test_truncated_payload_p2(self):
        with pytest.raises(PgmError, match="truncated payload"):
            read_pgm(b"P2 2 2 255 1 2 3")

    def test_bad_magic(self):
        with pytest.raises(PgmError, match="magic"):
            read_pgm(b"P6 1 1 255 " + bytes([1]))

    def test_maxval_too_large(self):
        with pytest.raises(PgmError, match="maxval"):
            read_pgm(b"P5 1 1 65535 " + bytes([1, 1]))

    def test_non_numeric_token(self):
        with pytest.raises(PgmError, match="non-numeric"):
            read_pgm(b"P5 two 1 255 " + bytes([1, 1]))

    def test_maxval_below_255_kept_as_is(self):
        img = read_pgm(b"P2 2 1 100 0 100")
        assert img.tolist() == [[0, 100]]

    def test_p2_sample_beyond_maxval(self):
        with pytest.raises(PgmError, match="sample"):
            read_pgm(b"P2 1 1 100 150")

    def test_p5_sample_beyond_maxval(self):
        with pytest.raises(PgmError, match="sample value 200 exceeds maxval 100"):
            read_pgm(b"P5 1 1 100 " + bytes([200]))
        with pytest.raises(PgmError, match="sample value 101 exceeds maxval 100"):
            read_pgm(b"P5 3 1 100 " + bytes([100, 101, 250]))

    def test_p2_header_larger_than_payload_rejected_up_front(self):
        # 10^12 samples cannot fit in the six bytes that follow the header
        with pytest.raises(PgmError, match="truncated payload"):
            read_pgm(b"P2 1000000 1000000 255 1 2 3")

    @given(
        st.one_of(
            st.binary(max_size=64),
            st.builds(bytes.__add__, st.sampled_from([b"P2 ", b"P5 "]), st.binary(max_size=64)),
            st.builds(
                lambda magic, dims, rest: magic + dims.encode() + rest,
                st.sampled_from([b"P2 ", b"P5 "]),
                st.from_regex(r"[0-9]{1,7} [0-9]{1,7} [0-9]{1,4}\s", fullmatch=True),
                st.binary(max_size=32),
            ),
        )
    )
    def test_arbitrary_bytes_raise_only_pgm_error(self, data):
        try:
            img = read_pgm(data)
        except PgmError:
            return
        assert img.dtype == np.uint8 and img.ndim == 2


class TestWritePgm:
    def test_gray_exact_bytes(self):
        assert write_pgm(np.array([[7]], np.uint8)) == b"P5\n1 1\n255\n\x07"

    def test_binary_label_mapping(self):
        data = write_pgm(np.array([[False, True]]))
        assert data == b"P5\n2 1\n255\n" + bytes([0, 255])

    def test_round_trip_seeded(self, rng):
        img = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        assert_array_equal(read_pgm(write_pgm(img)), img)

    @given(small_images)
    def test_round_trip_property(self, img):
        assert_array_equal(read_pgm(write_pgm(img)), img)

    def test_binary_round_trip_maps_labels(self):
        mask = np.array([[True, False], [False, True]])
        back = read_pgm(write_pgm(mask))
        assert_array_equal(back, np.where(mask, 255, 0))

    @pytest.mark.parametrize("view", [np.flipud, np.fliplr, lambda a: a[::2, ::3]])
    def test_views_serialize_like_contiguous_copies(self, rng, view):
        gray = rng.integers(0, 256, (9, 14), dtype=np.uint8)
        for img in (gray, gray >= 128):
            strided = view(img)
            assert not strided.flags.c_contiguous
            assert write_pgm(strided) == write_pgm(np.ascontiguousarray(strided))


class TestFlips:
    def test_vertical_reverses_rows(self):
        assert flip_vertical(np.array([[1], [2]], np.uint8)).tolist() == [[2], [1]]

    def test_vertical_single_row_unchanged(self):
        img = np.array([[1, 2, 3]], np.uint8)
        assert_array_equal(flip_vertical(img), img)

    def test_horizontal_reverses_columns(self):
        assert flip_horizontal(np.array([[1, 2]], np.uint8)).tolist() == [[2, 1]]

    def test_horizontal_single_column_unchanged(self):
        img = np.array([[1], [2], [3]], np.uint8)
        assert_array_equal(flip_horizontal(img), img)

    @given(small_images)
    def test_involutions_and_commutation(self, img):
        assert_array_equal(identity(img), img)
        for orient in ORIENTATIONS:
            assert_array_equal(orient(orient(img)), img)
        assert_array_equal(
            flip_vertical(flip_horizontal(img)), flip_horizontal(flip_vertical(img))
        )

    def test_flips_work_on_binary(self):
        mask = np.array([[True, False], [False, False]])
        assert flip_vertical(mask).tolist() == [[False, False], [True, False]]


class TestPadCrop:
    def test_pad_replicates_edges(self):
        img = np.arange(25, dtype=np.uint8).reshape(5, 5)
        padded = pad_to_multiple(img, 4, 4)
        assert padded.shape == (8, 8)
        for c in range(5, 8):
            assert_array_equal(padded[:, c], padded[:, 4])
        for r in range(5, 8):
            assert_array_equal(padded[r], padded[4])
        assert_array_equal(padded[:5, :5], img)

    def test_pad_noop_when_already_multiple(self):
        img = np.zeros((8, 8), np.uint8)
        padded = pad_to_multiple(img, 4, 4)
        assert padded.shape == (8, 8)
        assert padded is not img

    def test_pad_single_pixel(self):
        padded = pad_to_multiple(np.array([[9]], np.uint8), 2, 2)
        assert padded.tolist() == [[9, 9], [9, 9]]

    @pytest.mark.parametrize("orient", ORIENTATIONS)
    def test_pad_noop_returns_fresh_c_contiguous_copy(self, orient):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        view = orient(img)
        padded = pad_to_multiple(view, 2, 2)
        assert padded.flags.c_contiguous and not np.shares_memory(padded, img)
        assert_array_equal(padded, view)

    @given(small_images, st.integers(1, 8), st.integers(1, 8))
    def test_pad_then_crop_is_identity(self, img, bw, bh):
        padded = pad_to_multiple(img, bw, bh)
        assert padded.shape[0] % bh == 0 and padded.shape[1] % bw == 0
        assert_array_equal(padded[: img.shape[0], : img.shape[1]], img)


class TestStatistics:
    def test_histogram_counts(self):
        h = histogram(np.array([[0, 0], [255, 255]], np.uint8))
        assert h[0] == 2 and h[255] == 2 and h.sum() == 4

    def test_histogram_uniform_image(self):
        h = histogram(np.full((10, 10), 128, np.uint8))
        assert h[128] == 100

    @given(small_images)
    def test_histogram_conservation(self, img):
        assert histogram(img).sum() == img.size

    def test_variance_example(self):
        assert variance(np.array([[0, 0], [255, 255]], np.uint8)) == 16256.25

    def test_variance_constant_zero(self):
        assert variance(np.full((7, 3), 42, np.uint8)) == 0.0

    def test_variance_matches_two_pass_oracle(self, rng):
        for _ in range(20):
            img = rng.integers(0, 256, (13, 17), dtype=np.uint8)
            expected = variance_two_pass(img)
            assert variance(img) == pytest.approx(expected, rel=1e-9)

    def test_variance_invariant_under_reflection(self, rng):
        img = rng.integers(0, 256, (9, 9), dtype=np.uint8)
        reflected = (255 - img.astype(np.int16)).astype(np.uint8)
        assert variance(img) == pytest.approx(variance(reflected), rel=1e-12)

    @pytest.mark.parametrize("shape", [(700, 300), (3, 200_000), (1, 140_000)])
    def test_histogram_matches_bincount_across_bands(self, rng, shape):
        # taller and wider than one 2**17-pixel band
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        assert_array_equal(histogram(img), np.bincount(img.ravel(), minlength=256))
        assert histogram(img).dtype == np.int64

    def test_variance_is_exact(self, rng):
        for _ in range(40):
            shape = tuple(int(x) for x in rng.integers(1, 60, 2))
            img = rng.integers(0, 256, shape, dtype=np.uint8)
            values = [int(v) for v in img.ravel()]
            n, s1, s2 = len(values), sum(values), sum(v * v for v in values)
            assert variance(img) == float(Fraction(n * s2 - s1**2, n * n))
