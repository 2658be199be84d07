import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

import labt.thresholders
from labt.image_core import histogram
from labt.multiscan import ORIENTATIONS
from labt.thresholders import (
    Adcdf,
    MeanK,
    NiblackParams,
    Otsu,
    binarize_global,
    niblack_binarize,
    select_threshold,
)
from oracles import niblack_naive, niblack_pixel, otsu_exhaustive, select_threshold_scalar


def hist_of(values):
    return np.bincount(np.asarray(values), minlength=256).astype(np.int64)


class TestSelectThreshold:
    def test_otsu_example(self):
        h = hist_of([10, 10, 200, 200])
        assert otsu_exhaustive(h) == 11
        assert select_threshold(Otsu(), h) == 11

    def test_adcdf_example(self):
        # rho=0.5 of 4 pixels is reached at intensity 0 already: CDF(0)=2
        assert select_threshold(Adcdf(rho=0.5), hist_of([0, 0, 200, 200])) == 1

    def test_adcdf_capped_at_255(self):
        assert select_threshold(Adcdf(rho=0.9), hist_of([254, 255, 255])) == 255

    def test_meank_example(self):
        # region [90, 110]: mean 100, population stddev 10
        assert select_threshold(MeanK(k=-0.2), hist_of([90, 110])) == 98

    def test_meank_uses_histogram_stats(self):
        # population mean 127.5 and stddev 127.5: round(127.5 - 25.5) = 102
        assert select_threshold(MeanK(k=-0.2), hist_of([0, 255])) == 102

    def test_meank_clamps(self):
        assert select_threshold(MeanK(k=50.0), hist_of([100, 200])) == 255

    @pytest.mark.parametrize("method", [Otsu(), Adcdf(rho=0.5), MeanK(k=-0.2)])
    def test_constant_region_returns_constant(self, method):
        assert select_threshold(method, hist_of([128] * 9)) == 128

    def test_unknown_method_rejected(self):
        with pytest.raises(TypeError, match="unknown threshold method 'otsu'"):
            select_threshold("otsu", hist_of([10, 200]))

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError, match="empty region"):
            select_threshold(Otsu(), np.zeros(256, np.int64))

    def test_rho_validation(self):
        with pytest.raises(ValueError, match="rho"):
            Adcdf(rho=1.0)

    @pytest.mark.parametrize("k", [float("inf"), float("-inf"), float("nan")])
    def test_meank_non_finite_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be finite"):
            MeanK(k=k)

    def test_otsu_matches_oracle_on_random_images(self, rng):
        for _ in range(50):
            img = rng.integers(0, 256, (16, 16), dtype=np.uint8)
            h = histogram(img)
            assert select_threshold(Otsu(), h) == otsu_exhaustive(h)

    def test_otsu_matches_oracle_on_clustered_histograms(self, rng):
        # peaky histograms exercise tie-breaking more than uniform ones
        for _ in range(50):
            h = np.zeros(256, np.int64)
            for _ in range(int(rng.integers(2, 6))):
                h[int(rng.integers(0, 256))] = int(rng.integers(1, 50))
            if np.count_nonzero(h) < 2:
                continue
            assert select_threshold(Otsu(), h) == otsu_exhaustive(h)

    def test_otsu_on_all_single_spikes(self):
        for g in range(256):
            h = np.zeros(256, np.int64)
            h[g] = 5
            assert select_threshold(Otsu(), h) == g == otsu_exhaustive(h)

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=40))
    def test_output_always_in_range(self, values):
        h = hist_of(values)
        for method in (Otsu(), Adcdf(rho=0.3), MeanK(k=-0.4), MeanK(k=2.0)):
            assert 0 <= select_threshold(method, h) <= 255


def random_stack(rng, n):
    """Histogram stack mixing the shapes that stress threshold selection."""
    stack = np.zeros((n, 256), np.int64)
    for row in stack:
        kind = int(rng.integers(0, 6))
        if kind == 0:  # dense, small counts
            row[:] = rng.integers(0, 40, 256)
        elif kind == 1:  # a few spikes with counts up to 10**12
            row[rng.integers(0, 256, int(rng.integers(1, 6)))] = rng.integers(1, 10**12)
        elif kind == 2:  # plateau: a run of equal counts
            lo = int(rng.integers(0, 200))
            row[lo : lo + int(rng.integers(1, 56))] = rng.integers(1, 1000)
        elif kind == 3:  # equal spikes at equal spacing: the splits tie exactly
            gap = int(rng.integers(1, 64))
            start = int(rng.integers(0, 256 - 2 * gap))
            row[[start, start + gap, start + 2 * gap]] = rng.integers(1, 10**12)
        elif kind == 4:  # a single level
            row[rng.integers(0, 256)] = rng.integers(1, 10**12)
        else:  # sparse, huge counts
            row[:] = rng.integers(0, 10**12, 256) * (rng.random(256) < 0.1)
            row[int(rng.integers(0, 256))] += 1
    return stack


@st.composite
def sparse_stacks(draw):
    """Histogram stack whose rows draw their levels from one small pool.

    The union of occupied levels stays narrow (1 to 43 levels): rows that
    share levels with others and rows that do not, single-level rows,
    levels 0 and 255, and equal spikes at equal spacing, whose splits tie
    exactly.
    """
    level = st.sampled_from([0, 255]) | st.integers(0, 255)
    pool = draw(st.lists(level, min_size=1, max_size=40, unique=True))
    gap = draw(st.integers(1, 127))
    start = draw(st.integers(0, 255 - 2 * gap))
    spikes = [start, start + gap, start + 2 * gap]
    stack = np.zeros((draw(st.integers(1, 12)), 256), np.int64)
    for row in stack:
        kind = draw(st.sampled_from(["levels", "single", "tie"]))
        if kind == "tie":
            row[spikes] = draw(st.sampled_from([7, 10**12]))
            continue
        size = 1 if kind == "single" else draw(st.integers(1, len(pool)))
        levels = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True))
        row[levels] = draw(st.lists(st.integers(1, 10**12), min_size=size, max_size=size))
    return stack


# past this row total the level-weighted int64 sums can wrap
COUNT_BOUND = np.iinfo(np.int64).max // 255**2


class TestBatchedSelection:
    METHODS = [Otsu(), Adcdf(rho=0.5), Adcdf(rho=0.13), MeanK(k=-0.2), MeanK(k=1.7)]

    @pytest.mark.parametrize("method", METHODS)
    def test_stack_matches_scalar_reference_row_by_row(self, rng, method):
        stack = random_stack(rng, 1200)
        got = select_threshold(method, stack)
        assert got.shape == (1200,)
        assert got.tolist() == [select_threshold_scalar(method, row) for row in stack]

    @pytest.mark.parametrize("method", METHODS)
    def test_single_histogram_returns_int(self, rng, method):
        for row in random_stack(rng, 60):
            t = select_threshold(method, row)
            assert type(t) is int and t == select_threshold_scalar(method, row)

    def test_otsu_stack_matches_exhaustive_oracle(self, rng):
        stack = random_stack(rng, 90)
        got = select_threshold(Otsu(), stack)
        assert got.tolist() == [otsu_exhaustive(row) for row in stack]

    def test_meank_rounds_half_away_from_zero(self):
        # k=0 thresholds at the mean: 2.5, 0.5 and 4.5 round up, not to even
        stack = np.stack([hist_of([0, 5]), hist_of([0, 1]), hist_of([4, 5])])
        assert select_threshold(MeanK(k=0.0), stack).tolist() == [3, 1, 5]
        assert [select_threshold_scalar(MeanK(k=0.0), h) for h in stack] == [3, 1, 5]

    def test_meank_huge_k_clamps(self):
        # k * stddev overflows to +-inf; the scalar code raised OverflowError
        stack = np.stack([hist_of([0, 255]), hist_of([7])])
        assert select_threshold(MeanK(k=1e308), stack).tolist() == [255, 7]
        assert select_threshold(MeanK(k=-1e308), stack).tolist() == [0, 7]

    def test_exact_tie_goes_to_smallest_split(self):
        # splits at 11 and 21 score the same; 11 wins
        stack = np.zeros((2, 256), np.int64)
        stack[0, [10, 20, 30]] = 7
        stack[1, [10, 20, 30]] = 10**12
        assert select_threshold(Otsu(), stack).tolist() == [11, 11]
        assert otsu_exhaustive(stack[1]) == 11

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_otsu_rows_at_the_int64_bound(self, rng, offset):
        # Otsu's S*w0 - N*s0 is exact in int64 while 255 * N**2 fits; a
        # stack with a row past that total scores in Python ints
        total = math.isqrt((2**63 - 1) // 255) + offset
        stack = np.zeros((8, 256), np.int64)
        stack[0, [254, 255]] = total - 1, 1  # S*w0 at split 255 is ~254 N**2
        stack[1, [0, 255]] = 1, total - 1
        for row in stack[2:7]:
            levels = rng.choice(256, int(rng.integers(2, 7)), replace=False)
            cuts = np.sort(rng.integers(1, total, len(levels) - 1))
            row[levels] = np.diff(np.concatenate(([0], cuts, [total])))
        stack[7, [1, 2, 3]] = 1  # a small row in the same stack
        assert stack[:7].sum(axis=1).tolist() == [total] * 7
        assert select_threshold(Otsu(), stack).tolist() == [otsu_exhaustive(row) for row in stack]

    @pytest.mark.parametrize("total", [2901, 2902, 6000])
    def test_otsu_rows_at_the_int32_bound(self, rng, total):
        # a stack whose rows total at most 2,901 = isqrt(int32 max // 255)
        # counts scores in int32; one more count and it scores in int64. At
        # 6,000 counts, row 8's S*w0 - N*s0, about 255 * N**2 / 4, is past int32.
        assert labt.thresholders._INT32_TOTAL == 2901
        stack = np.zeros((10, 256), np.int64)
        stack[0, [254, 255]] = total - 1, 1  # S*w0 at split 255 is ~254 N**2
        stack[1, [0, 255]] = 1, total - 1
        stack[8, [0, 1, 255]] = total // 2 - 1, 1, total - total // 2
        # splits 11 and 21 tie exactly at 2,901 = 3 * 967 and nearly at 2,902
        third = total // 3
        stack[2, [10, 20, 30]] = third, third, total - 2 * third
        stack[3, [10, 20, 30]] = total - 2 * third, third, third
        for row in stack[4:8]:
            levels = rng.choice(256, int(rng.integers(2, 9)), replace=False)
            cuts = np.sort(rng.integers(1, total, len(levels) - 1))
            row[levels] = np.diff(np.concatenate(([0], cuts, [total])))
        stack[9, [1, 2, 3]] = 1  # a small row in the same stack
        assert stack[:9].sum(axis=1).tolist() == [total] * 9
        assert select_threshold(Otsu(), stack).tolist() == [otsu_exhaustive(row) for row in stack]

    def test_otsu_rows_of_10_12_counts(self, rng):
        stack = np.zeros((10, 256), np.int64)
        for row in stack[:8]:
            levels = rng.choice(256, int(rng.integers(2, 9)), replace=False)
            row[levels] = rng.integers(10**12, 2 * 10**12, len(levels))
        # splits 11 and 21 differ by about 2e-13 and 4e-15 of their scores
        stack[8, [10, 20, 30]] = 10**12, 10**12, 10**12 + 1
        stack[9, [10, 20, 30]] = 4 * 10**13, 4 * 10**13, 4 * 10**13 + 1
        assert select_threshold(Otsu(), stack).tolist() == [otsu_exhaustive(row) for row in stack]

    def test_otsu_exact_ties_that_float_scores_misorder(self):
        # splits 3 and 17, and 18 and 27, tie exactly, but the later split's
        # float score is the larger: only the integer recheck picks the first
        stack = np.zeros((2, 256), np.int64)
        stack[0, [2, 16, 37]] = np.array([6, 10, 2]) * 1000003
        stack[1, [17, 26, 32]] = np.array([1, 2, 6]) * 12345
        assert [otsu_exhaustive(row) for row in stack] == [3, 18]
        assert select_threshold(Otsu(), stack).tolist() == [3, 18]

    def test_stack_validation(self):
        good = hist_of([1, 2, 3])
        with pytest.raises(ValueError, match="empty region"):
            select_threshold(Otsu(), np.stack([good, np.zeros(256, np.int64)]))
        with pytest.raises(ValueError, match="256 non-negative"):
            select_threshold(Otsu(), np.stack([good, -good]))
        for shape in [(255,), (2, 255), (1, 2, 256), ()]:
            with pytest.raises(ValueError, match="256 non-negative"):
                select_threshold(Otsu(), np.ones(shape, np.int64))
        for method in self.METHODS:  # an empty stack gives an empty array
            got = select_threshold(method, np.zeros((0, 256), np.int64))
            assert got.shape == (0,) and got.dtype == np.int64

    def test_negative_count_found_in_any_column(self):
        # a -3 under a +3 sums to 0 in its column, and a lone negative count
        # is the only count of its column: both columns are still checked
        for rows in ([[7, 9], [7, 9]], [[9], []]):
            stack = np.zeros((len(rows), 256), np.int64)
            for i, levels in enumerate(rows):
                stack[i, levels] = 3
            stack[-1, 7] = -3
            with pytest.raises(ValueError, match="256 non-negative"):
                select_threshold(Otsu(), stack)

    @pytest.mark.parametrize("method", METHODS)
    def test_select_on_occupied_levels(self, method):
        # the stacks the engine passes: a row per level some region holds, a column per region
        select = labt.thresholders._select
        assert select(method, np.array([[4, 1, 9]]), np.array([77])).tolist() == [77] * 3
        for levels in (np.arange(256), np.arange(0)):
            got = select(method, np.zeros((len(levels), 0), np.int64), levels)
            assert got.shape == (0,) and got.dtype == np.int64
        with pytest.raises(ValueError, match="empty region"):
            select(method, np.zeros((0, 2), np.int64), np.arange(0))

    @pytest.mark.parametrize("method", METHODS)
    @given(stack=sparse_stacks())
    def test_sparse_union_matches_scalar_reference_row_by_row(self, method, stack):
        got = select_threshold(method, stack)
        assert got.tolist() == [select_threshold_scalar(method, row) for row in stack]
        if isinstance(method, Otsu):
            assert got[:3].tolist() == [otsu_exhaustive(row) for row in stack[:3]]

    @pytest.mark.parametrize(
        "levels",
        [
            [[77], [77], [77]],  # the union is one level
            [[0], [255], [0, 255]],  # a union of exactly two levels
            [[100, 101], [101], [100]],
            [[0], [3], [255], [128]],  # one level per row, different rows
        ],
    )
    @pytest.mark.parametrize("method", METHODS)
    def test_narrow_unions_match_scalar_reference(self, method, levels):
        stack = np.zeros((len(levels), 256), np.int64)
        for i, row in enumerate(levels):
            stack[i, row] = np.arange(1, len(row) + 1) * (i + 2)
        got = select_threshold(method, stack)
        assert got.tolist() == [select_threshold_scalar(method, row) for row in stack]

    @pytest.mark.parametrize(
        "method, levels, count",
        [
            # unchecked, the Otsu cumsums wrap and pick 201, not 11
            (Otsu(), [10, 200, 250], 10**17),
            # unchecked, the row total wraps negative: "empty region"
            (Adcdf(rho=0.5), [3, 7], 2**62),
            # unchecked, the sum of count * level**2 wraps: 128, not 102
            (MeanK(k=-0.2), [0, 255], 2 * 10**14),
        ],
    )
    def test_total_past_the_bound_rejected(self, method, levels, count):
        h = np.zeros(256, np.int64)
        h[levels] = count
        with pytest.raises(ValueError, match="may total at most"):
            select_threshold(method, h)
        with pytest.raises(ValueError, match="may total at most"):
            select_threshold(method, np.stack([hist_of([1, 2]), h]))

    @pytest.mark.parametrize("method", METHODS)
    @given(st.data())
    def test_total_bound_is_exact(self, method, data):
        # a row may total the bound; 1 to 2**63 - 1 - bound more counts at
        # any level, up to a single count of 2**63 - 1, are rejected
        levels = data.draw(st.lists(st.integers(0, 255), min_size=2, max_size=8, unique=True))
        split = data.draw(st.integers(1, COUNT_BOUND - 1))
        row = np.zeros(256, np.int64)
        row[levels[0]], row[levels[1]] = split, COUNT_BOUND - split
        assert select_threshold(method, row) == select_threshold_scalar(method, row)
        extra = data.draw(st.integers(1, 2**63 - 1 - COUNT_BOUND))
        row[data.draw(st.sampled_from(levels))] += extra
        with pytest.raises(ValueError, match="may total at most"):
            select_threshold(method, np.stack([hist_of([5]), row]))


@st.composite
def pixel_rows(draw):
    """An ``(n, P)`` uint8 array of shuffled block pixels, 4 to 300 a row:
    rows of levels from one small pool, noise rows, single-level rows, and
    rows of three evenly spaced levels whose counts mirror, so that their
    Otsu splits tie exactly."""
    size = draw(st.integers(4, 300))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level = st.sampled_from([0, 255]) | st.integers(0, 255)
    pool = draw(st.lists(level, min_size=1, max_size=40, unique=True))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["levels", "noise", "single", "tie"]))
        if kind == "levels":
            row = gen.choice(pool, size)
        elif kind == "noise":
            row = gen.integers(0, 256, size)
        elif kind == "single":
            row = np.full(size, draw(level))
        else:
            gap = draw(st.integers(1, 127))
            start = draw(st.integers(0, 255 - 2 * gap))
            side = draw(st.integers(1, (size - 1) // 2))
            row = np.repeat([start, start + gap, start + 2 * gap], [side, size - 2 * side, side])
        rows.append(gen.permutation(row))
    return np.array(rows, np.uint8)


PIXEL_METHODS = st.one_of(
    st.just(Otsu()),
    st.builds(Adcdf, st.sampled_from([1e-300, 1e-9, 1 - 1e-9, 1 - 2**-53]) | st.floats(0, 1).filter(lambda r: 0 < r < 1)),
    st.builds(MeanK, st.sampled_from([1e308, -1e308, 0.0]) | st.floats(-3, 3)),
)


class TestPixelSelection:
    """``_select_pixels`` against the selection from the rows' histograms."""

    @settings(max_examples=300)
    @given(PIXEL_METHODS, pixel_rows())
    def test_matches_selection_from_histograms(self, method, pixels):
        got = labt.thresholders._select_pixels(method, pixels)
        want = select_threshold(method, np.stack([hist_of(row) for row in pixels]))
        assert got.dtype == np.int64 and got.tolist() == want.tolist()

    def test_exact_ties_go_to_the_smallest_split(self):
        # TestBatchedSelection's exactly tied rows, their counts scaled to 18
        # pixels: scaling every count scales every score alike
        pixels = np.array([[2] * 6 + [16] * 10 + [37] * 2, [17] * 2 + [26] * 4 + [32] * 12], np.uint8)
        assert labt.thresholders._select_pixels(Otsu(), pixels).tolist() == [3, 18]
        assert [otsu_exhaustive(hist_of(row)) for row in pixels] == [3, 18]

    @pytest.mark.parametrize("method", [Otsu(), Adcdf(0.99), MeanK(1e308)])
    def test_single_level_rows_return_their_level(self, method):
        pixels = np.array([[0] * 4, [255] * 4, [77] * 4], np.uint8)
        # every split of such a row scores 0, but none is rechecked in
        # integers, from its pixels or from its histogram
        stack = np.stack([hist_of(row) for row in pixels])
        with mock.patch.object(labt.thresholders, "_exact_best", side_effect=AssertionError):
            assert labt.thresholders._select_pixels(method, pixels).tolist() == [0, 255, 77]
            assert select_threshold(method, stack).tolist() == [0, 255, 77]


class TestBinarizeGlobal:
    def test_convention(self):
        out = binarize_global(np.array([[0, 255]], np.uint8), 128)
        assert out.tolist() == [[False, True]]

    def test_threshold_zero_all_foreground(self, rng):
        img = rng.integers(0, 256, (5, 5), dtype=np.uint8)
        assert binarize_global(img, 0).all()

    def test_equality_is_foreground(self):
        assert binarize_global(np.array([[100]], np.uint8), 100).tolist() == [[True]]

    @pytest.mark.parametrize("t", [-1, 256])
    def test_threshold_outside_0_255_rejected(self, t):
        with pytest.raises(ValueError, match="threshold must lie in 0..255"):
            binarize_global(np.zeros((2, 2), np.uint8), t)

    @given(st.integers(0, 254))
    def test_monotone_in_threshold(self, t):
        rng = np.random.default_rng(t)
        img = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        higher = binarize_global(img, t + 1)
        # raising t never turns background into foreground
        assert not (higher & ~binarize_global(img, t)).any()


class TestNiblack:
    def test_constant_image_all_foreground(self):
        img = np.full((10, 10), 100, np.uint8)
        assert niblack_binarize(img, NiblackParams(window=5, k=-0.2)).all()

    def test_k_zero_compares_against_local_mean(self, rng):
        img = rng.integers(0, 256, (12, 12), dtype=np.uint8)
        out = niblack_binarize(img, NiblackParams(window=3, k=0.0))
        # spot-check an interior pixel against the 3x3 mean
        win = img[4:7, 4:7]
        assert out[5, 5] == (img[5, 5] >= win.sum() / 9)

    @pytest.mark.parametrize("window", [3, 7, 15])
    def test_matches_naive_oracle(self, rng, window):
        for _ in range(3):
            img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
            for k in (-0.2, 0.0, 0.5):
                assert_array_equal(
                    niblack_binarize(img, NiblackParams(window=window, k=k)),
                    niblack_naive(img, window, k),
                )

    def test_huge_k_labels_all_or_nothing(self):
        img = np.array([[0, 255, 10], [40, 90, 200]], np.uint8)
        assert not niblack_binarize(img, NiblackParams(window=3, k=1e308)).any()
        assert niblack_binarize(img, NiblackParams(window=3, k=-1e308)).all()

    @given(
        arrays(np.uint8, st.tuples(st.integers(1, 20), st.integers(1, 20))),
        st.integers(1, 16),
        st.floats(-2, 2),
    )
    def test_flipped_back_orientations_equal_plain(self, img, reach, k):
        params = NiblackParams(window=2 * reach + 1, k=k)
        plain = niblack_binarize(img, params)
        for orient in ORIENTATIONS:
            assert_array_equal(orient(niblack_binarize(orient(img), params)), plain)

    @settings(max_examples=200)
    @given(
        arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24))),
        st.integers(1, 26),
        st.floats(-2, 2),
    )
    def test_matches_naive_oracle_on_any_shape(self, img, reach, k):
        # windows 3..53 reach past twice the longest side (24)
        window = 2 * reach + 1
        assert_array_equal(niblack_binarize(img, NiblackParams(window, k)), niblack_naive(img, window, k))

    @settings(max_examples=200)
    @given(
        arrays(np.uint8, st.tuples(st.integers(1, 14), st.integers(1, 14))),
        st.integers(1, 4),
        st.integers(1, 16),
        st.floats(-2, 2),
    )
    def test_tiny_bands_match_naive_oracle(self, img, band, reach, k):
        # band cuts land inside windows, and windows up to 33 wide reach past
        # both sides of the image
        window = 2 * reach + 1
        with mock.patch.object(labt.thresholders, "_BAND", band):
            got = niblack_binarize(img, NiblackParams(window, k))
        assert_array_equal(got, niblack_naive(img, window, k))

    def test_page_peak_memory(self, rng):
        img = rng.integers(0, 256, (512, 512), dtype=np.uint8)
        tracemalloc.start()
        try:
            niblack_binarize(img, NiblackParams(window=15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the mask plus a few bands of int64 window sums and float statistics
        assert peak < 2.5e6

    def test_uint32_row_prefix_sums_wrap_exactly(self, rng):
        # 31 rows of 255**2 sum to about 2.0e6 a column, so the prefix sums
        # of squares along a row pass 2**32 near column 2,130; the window
        # sums, differences modulo 2**32, stay exact past it
        img = np.full((32, 2200), 255, np.uint8)
        dark = rng.random(img.shape) < 0.01
        img[dark] = rng.integers(0, 256, np.count_nonzero(dark))
        assert int(np.square(img[:31], dtype=np.int64).sum()) > 2**32
        got = niblack_binarize(img, NiblackParams(window=31, k=0.5))
        assert_array_equal(got, niblack_naive(img, 31, 0.5))

    @pytest.mark.parametrize("window", [257, 259], ids=["uint32", "int64"])
    def test_largest_windows_either_side_of_uint32(self, rng, window):
        # 255**2 * 257**2 < 2**32 < 255**2 * 259**2. Rows and columns
        # 129..170 of a 300x300 page have whole windows at either size, and
        # with 10% of pixels in 240..254 they hold sums of squares within 1%
        # of 255**2 * window**2, so at 259 they pass 2**32. Pixels of
        # 249..254 lie between mu - 2 * sigma and mu there, so a wrong sum of
        # squares moves their labels.
        img = np.full((300, 300), 255, np.uint8)
        dark = rng.random(img.shape) < 0.1
        img[dark] = rng.integers(240, 255, np.count_nonzero(dark))
        assert int(np.square(img[21:280, 21:280], dtype=np.int64).sum()) > 2**32  # pixel (150, 150)'s at 259
        got = niblack_binarize(img, NiblackParams(window=window, k=-2.0))
        sampled = [(y, x) for y in range(129, 171) for x in range(129, 171, 2)] + [(0, 0), (299, 150)]
        want = [niblack_pixel(img, y, x, window, -2.0) for y, x in sampled]
        assert [got[p] for p in sampled] == want
        # darker pixels on both sides of the threshold
        labels = {w for p, w in zip(sampled, want) if img[p] < 255}
        assert labels == {False, True}

    @pytest.mark.parametrize("window", [2**65 + 1, 2**127 + 1])
    def test_window_past_int64_clips_like_the_whole_image(self, rng, window):
        img = rng.integers(0, 256, (6, 9), dtype=np.uint8)
        assert_array_equal(
            niblack_binarize(img, NiblackParams(window=window, k=0.3)),
            niblack_binarize(img, NiblackParams(window=19, k=0.3)),
        )

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            NiblackParams(window=4)
        with pytest.raises(ValueError, match="window"):
            NiblackParams(window=1)

    @pytest.mark.parametrize("k", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be finite"):
            NiblackParams(k=k)

    @pytest.mark.parametrize("window", [15.0, 15.5, True])
    def test_non_integer_window_rejected(self, window):
        with pytest.raises(ValueError, match="window must be an integer"):
            NiblackParams(window=window)

    @pytest.mark.parametrize("window", [np.uint64(15), np.int32(15)])
    def test_numpy_integer_window_matches_int(self, rng, window):
        img = rng.integers(0, 256, (20, 26), dtype=np.uint8)
        params = NiblackParams(window=window, k=0.2)
        assert type(params.window) is int
        assert_array_equal(
            niblack_binarize(img, params), niblack_binarize(img, NiblackParams(window=15, k=0.2))
        )
