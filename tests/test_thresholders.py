import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from labt.image_core import histogram
from labt.thresholders import (
    Adcdf,
    MeanK,
    NiblackParams,
    Otsu,
    binarize_global,
    niblack_binarize,
    select_threshold,
)
from oracles import niblack_naive, otsu_exhaustive


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


class TestBinarizeGlobal:
    def test_convention(self):
        out = binarize_global(np.array([[0, 255]], np.uint8), 128)
        assert out.tolist() == [[False, True]]

    def test_threshold_zero_all_foreground(self, rng):
        img = rng.integers(0, 256, (5, 5), dtype=np.uint8)
        assert binarize_global(img, 0).all()

    def test_equality_is_foreground(self):
        assert binarize_global(np.array([[100]], np.uint8), 100).tolist() == [[True]]

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

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            NiblackParams(window=4)
        with pytest.raises(ValueError, match="window"):
            NiblackParams(window=1)

    @pytest.mark.parametrize("k", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be finite"):
            NiblackParams(k=k)
