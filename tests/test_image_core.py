import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

from labt.engine import LabtConfig, run_labt
from labt.image_core import PgmError, histogram, read_pgm, variance, write_pgm
from labt.multiscan import ORIENTATIONS
from oracles import read_pgm_loop, variance_two_pass

identity, flip_vertical, flip_horizontal = ORIENTATIONS

small_images = arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24)))

# Header bytes: separators (all six whitespace bytes, comments ending at CR,
# LF or EOF), each followed by a digit run, a non-digit token or nothing.
header_pieces = st.lists(
    st.tuples(
        st.sampled_from(
            [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n", b""]
            + [b"#", b"#c\r", b"# 5\n", b"#\x0b\n", b"#\x0c\r"]
        ),
        st.sampled_from([b"0", b"7", b"255", b"012", b"x", b"\xa0", b"-1", b""]),
    ).map(b"".join),
    max_size=6,
).map(b"".join)

# 0 where int() takes any number of digits
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


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
        with pytest.raises(PgmError, match="^truncated payload: expected 4 bytes, got 3$"):
            read_pgm(b"P5 2 2 255 " + bytes([1, 2, 3]))

    @pytest.mark.parametrize("kind", [bytes, bytearray])
    def test_p5_result_owns_a_writable_copy(self, kind):
        data = kind(b"P5 2 1 255 " + bytes([7, 9]))
        img = read_pgm(data)
        assert img.flags.owndata and img.flags.writeable
        img[0, 0] = 1
        assert data[-2:] == kind([7, 9])

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

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P2 2 2 0 0 0 0 0", "maxval must be positive, got 0"),
            (b"P5 2 2 255", "missing whitespace between maxval and pixel payload"),
            (b"P5 2 2 255#c\n" + bytes(4), "missing whitespace between maxval and pixel payload"),
        ],
        ids=["zero_maxval", "p5_ends_at_maxval", "p5_comment_after_maxval"],
    )
    def test_maxval_errors_match_the_loop_oracle(self, data, message):
        assert pgm_outcome(read_pgm, data) == pgm_outcome(read_pgm_loop, data) == message

    @settings(max_examples=500)
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
            st.builds(
                bytes.__add__, st.sampled_from([b"P2", b"P5", b"P"]), header_pieces
            ).flatmap(lambda head: st.binary(max_size=16).map(head.__add__)),
        )
    )
    def test_arbitrary_bytes_raise_only_pgm_error(self, data):
        got, want = pgm_outcome(read_pgm, data), pgm_outcome(read_pgm_loop, data)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.dtype == np.uint8 and got.ndim == 2
            assert_array_equal(got, want)

    @pytest.mark.skipif(
        not 0 < INT_DIGIT_LIMIT < 5000, reason="int() takes 5000-digit strings here"
    )
    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P2 " + b"9" * 5000 + b" 1 255 0", "width token of 5000 digits is too long"),
            (b"P5 1 " + b"0" * 5000 + b" 255 \x00", "height token of 5000 digits is too long"),
            (b"P2 1 1 " + b"9" * 5000 + b" 0", "maxval token of 5000 digits is too long"),
            (b"P2 1 1 255 " + b"9" * 5000, "sample token of 5000 digits is too long"),
        ],
        ids=["width", "height", "maxval", "sample"],
    )
    def test_token_longer_than_int_converts(self, data, message):
        with pytest.raises(PgmError) as info:
            read_pgm(data)
        assert str(info.value) == message


def pgm_outcome(parse, data):
    """The parsed array, or the text of the PgmError raised."""
    try:
        return parse(data)
    except PgmError as exc:
        return str(exc)


# Sample tokens and separators that each hit one trap of a whole-buffer
# P2 parse; the loop parser in oracles.py is the reference for all of them.
p2_tokens = st.one_of(
    st.integers(0, 300).map(lambda v: b"%d" % v),
    st.builds(lambda z, v: b"0" * z + b"%d" % v, st.integers(0, 12), st.integers(0, 10**20)),
    st.sampled_from([b"+5", b"1_0", b"-1", b"0x1", b"\xa0", b"1\x1c", b"\xff9", b"#"]),
    st.binary(min_size=1, max_size=3),
)
p2_separators = st.one_of(
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b""]),
    st.builds(
        lambda text, end: b"#" + text + end,
        st.binary(max_size=4).map(lambda b: b.replace(b"\r", b"").replace(b"\n", b"")),
        st.sampled_from([b"\r", b"\n", b"\r\n", b""]),
    ),
)


class TestReadPgmP2:
    """The whole-buffer P2 parse against the frozen per-sample loop."""

    @settings(max_examples=500)
    @given(
        st.integers(1, 4),
        st.integers(1, 3),
        st.sampled_from([1, 9, 99, 100, 254, 255]),
        st.sampled_from([b" ", b"\n", b"#c\n", b"#"]),
        st.lists(st.tuples(p2_tokens, p2_separators).map(b"".join), max_size=16),
        st.integers(0, 24),
    )
    def test_matches_loop_oracle(self, w, h, maxval, after_header, samples, pad):
        data = b"P2 %d %d %d" % (w, h, maxval) + after_header + b"".join(samples) + b" " * pad
        got, want = pgm_outcome(read_pgm, data), pgm_outcome(read_pgm_loop, data)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert_array_equal(got, want)

    def test_leading_zeros(self):
        assert read_pgm(b"P2 3 1 255 0007 0000000255 000").tolist() == [[7, 255, 0]]

    @pytest.mark.parametrize(
        "sample, value",
        [(b"256", 256), (b"0001000", 1000), (b"12345678901234567890", 12345678901234567890)],
    )
    def test_above_maxval(self, sample, value):
        with pytest.raises(PgmError, match=f"^sample value {value} exceeds maxval 255$"):
            read_pgm(b"P2 2 1 255 7 " + sample)

    @pytest.mark.parametrize("sample", [b"+5", b"1_0", b"-1", b"0x1"])
    def test_int_syntax_is_not_a_sample(self, sample):
        with pytest.raises(PgmError) as info:
            read_pgm(b"P2 2 1 255 7 " + sample + b"  ")
        assert str(info.value) == f"non-numeric sample token {sample!r}"

    @pytest.mark.parametrize("byte", [b"\xa0", b"\x1c", b"\xff"])
    def test_other_bytes_are_token_bytes(self, byte):
        with pytest.raises(PgmError) as info:
            read_pgm(b"P2 2 1 255 1" + byte + b"2 3")
        assert str(info.value) == f"non-numeric sample token {b'1' + byte + b'2'!r}"

    def test_all_six_whitespace_bytes_separate(self):
        data = b"P2 7 1 255 0 1\t2\n3\r4\x0b5\x0c6"
        assert read_pgm(data).tolist() == [[0, 1, 2, 3, 4, 5, 6]]

    def test_comments_inside_and_right_after_tokens(self):
        data = b"P2 4 1 255 1#a 9\r2 #b\n3#\n45#c"
        assert read_pgm(data).tolist() == [[1, 2, 3, 45]]

    def test_too_few_samples(self):
        with pytest.raises(PgmError, match="^truncated payload: expected 3 samples, got 2$"):
            read_pgm(b"P2 3 1 255 1 2 # 3\n  ")

    def test_junk_after_last_sample_ignored(self):
        assert read_pgm(b"P2 2 1 100 1 2 junk 999 -1").tolist() == [[1, 2]]

    def test_first_error_in_stream_order(self):
        with pytest.raises(PgmError, match="non-numeric"):
            read_pgm(b"P2 3 1 100 1 x 200")
        with pytest.raises(PgmError, match="sample value 200"):
            read_pgm(b"P2 3 1 100 1 200 x")
        with pytest.raises(PgmError, match="non-numeric"):
            read_pgm(b"P2 4 1 100 x 1      ")


class TestWritePgm:
    def test_gray_exact_bytes(self):
        assert write_pgm(np.array([[7]], np.uint8)) == b"P5\n1 1\n255\n\x07"

    def test_binary_label_mapping(self):
        data = write_pgm(np.array([[False, True]]))
        assert data == b"P5\n2 1\n255\n" + bytes([0, 255])

    def test_binary_bytes_other_than_0_and_1_map_to_255(self):
        # a bool whose byte is not 0/1 is still True: each maps to 255, not byte * 255
        mask = np.frombuffer(bytes([0, 1, 2, 255]), np.bool_).reshape(2, 2)
        assert write_pgm(mask) == b"P5\n2 2\n255\n" + bytes([0, 255, 255, 255])

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_binary_rejected(self, shape):
        with pytest.raises(ValueError, match="non-empty 2-D binary"):
            write_pgm(np.zeros(shape, bool))

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
    """The edge-replicated page ``run_labt`` thresholds, kept in ``padded``."""

    def test_pad_replicates_edges(self):
        img = np.arange(25, dtype=np.uint8).reshape(5, 5)
        padded = run_labt(img, LabtConfig(block_w=4, block_h=4)).padded
        assert padded.shape == (8, 8)
        for c in range(5, 8):
            assert_array_equal(padded[:, c], padded[:, 4])
        for r in range(5, 8):
            assert_array_equal(padded[r], padded[4])
        assert_array_equal(padded[:5, :5], img)

    def test_pad_noop_when_already_multiple(self):
        img = np.zeros((8, 8), np.uint8)
        padded = run_labt(img, LabtConfig(block_w=4, block_h=4)).padded
        assert padded.shape == (8, 8)
        assert not np.shares_memory(padded, img)

    @pytest.mark.parametrize("orient", ORIENTATIONS)
    def test_pad_noop_returns_fresh_c_contiguous_copy(self, orient):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        view = orient(img)
        padded = run_labt(view, LabtConfig(block_w=2, block_h=2)).padded
        assert padded.flags.c_contiguous and not np.shares_memory(padded, img)
        assert_array_equal(padded, view)

    @given(
        arrays(np.uint8, st.tuples(st.integers(2, 24), st.integers(2, 24))),
        st.integers(2, 32),
        st.integers(2, 32),
    )
    def test_pad_then_crop_is_identity(self, img, bw, bh):
        res = run_labt(img, LabtConfig(block_w=bw, block_h=bh))
        padded, grid = res.padded, res.grid
        height, width = img.shape
        # sides are capped at the image, so padding stays below one block
        assert grid.block_w == min(bw, width) and grid.block_h == min(bh, height)
        assert padded.shape == (grid.padded_h, grid.padded_w)
        assert padded.shape[0] % grid.block_h == 0 and padded.shape[1] % grid.block_w == 0
        assert padded.shape[0] - grid.block_h < height and padded.shape[1] - grid.block_w < width
        assert_array_equal(padded[: img.shape[0], : img.shape[1]], img)
        assert res.binary.shape == img.shape


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
