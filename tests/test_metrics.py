import math
import time

import numpy as np
import pytest

from corpus import level_noise
from labt.engine import LabtConfig, run_labt
from labt.metrics import (
    SweepRow,
    continuity_violations,
    mean_range_width,
    psnr,
    sweep,
)
from oracles import border_disagreements

# 2x4 image, one 2x2 block above another: the top block picks threshold 100,
# the bottom block's border row contains a pixel equal to it. Paper mode
# admits a threshold above 100 and that pixel flips; strict mode caps at 100.
EXEMPT_PIXEL_IMG = np.array(
    [[99, 99], [100, 100], [100, 130], [130, 130]], dtype=np.uint8
)


class TestPsnr:
    def test_perfect_match_is_infinite(self):
        img = np.full((4, 4), 255, np.uint8)
        assert psnr(img, np.ones((4, 4), bool)) == math.inf

    def test_maximal_error_is_zero_db(self):
        img = np.full((4, 4), 255, np.uint8)
        assert psnr(img, np.zeros((4, 4), bool)) == 0.0

    def test_exact_binary_match(self):
        img = np.array([[0, 255]], np.uint8)
        assert psnr(img, np.array([[False, True]])) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            psnr(np.zeros((2, 2), np.uint8), np.zeros((2, 3), bool))

    def test_area_scaling_leaves_psnr_unchanged(self, rng):
        img = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        mask = rng.random((8, 8)) < 0.5
        doubled_img = np.hstack([img, img])
        doubled_mask = np.hstack([mask, mask])
        assert psnr(doubled_img, doubled_mask) == pytest.approx(psnr(img, mask))

    def test_symmetric_in_mapped_images(self, rng):
        # with a {0,255}-valued grayscale the roles can be swapped exactly
        mask_a = rng.random((6, 6)) < 0.5
        mask_b = rng.random((6, 6)) < 0.5
        gray_a = np.where(mask_a, 255, 0).astype(np.uint8)
        gray_b = np.where(mask_b, 255, 0).astype(np.uint8)
        assert psnr(gray_a, mask_b) == pytest.approx(psnr(gray_b, mask_a))


class TestContinuityViolations:
    def test_strict_run_zero(self, rng):
        # two-level noise: neighbor ranges always span the value gap, so
        # the run is free of non-overlap events and exactly continuous
        img = np.where(rng.random((24, 24)) < 0.5, np.uint8(220), np.uint8(30))
        res = run_labt(img, LabtConfig(block_w=8, block_h=8, mode="strict"))
        assert res.non_overlap_count == 0
        assert continuity_violations(res) == 0

    def test_paper_mode_exempt_pixel_flips_once(self):
        cfg = LabtConfig(block_w=2, block_h=2, mode="paper", seed_global=False)
        res = run_labt(EXEMPT_PIXEL_IMG, cfg)
        assert res.thresholds.tolist() == [[100], [101]]
        assert continuity_violations(res) == 1

    def test_strict_mode_same_image_zero(self):
        cfg = LabtConfig(block_w=2, block_h=2, mode="strict", seed_global=False)
        res = run_labt(EXEMPT_PIXEL_IMG, cfg)
        assert res.thresholds.tolist() == [[100], [100]]
        assert continuity_violations(res) == 0

    # (3, 23) is as tall as the 31x23 image, a one-row grid; (31, 5) is as
    # wide, a one-column grid. There no neighbor ranges are disjoint, so the
    # count needs thresholds on pixel values: adjacent levels give them.
    @pytest.mark.parametrize("block", [(3, 5), (6, 4), (3, 23), (31, 5)])
    def test_matches_per_pixel_bruteforce(self, block):
        bw, bh = block
        one_line = bw == 31 or bh == 23
        levels = (99, 100, 101) if one_line else (40, 100, 101, 160, 220)
        nonzero = 0
        for seed in range(6):
            img = level_noise(31, 23, seed, levels=levels)
            res = run_labt(img, LabtConfig(block_w=bw, block_h=bh, mode="paper"))
            t, arr = res.thresholds, res.padded
            expected = 0
            for r in range(res.grid.rows):
                for c in range(res.grid.cols):
                    ys, xs = r * bh, c * bw
                    if r:
                        line = arr[ys, xs : xs + bw]
                        expected += border_disagreements(t[r, c], line, t[r - 1, c])
                    if c:
                        line = arr[ys : ys + bh, xs]
                        expected += border_disagreements(t[r, c], line, t[r, c - 1])
            assert continuity_violations(res) == expected
            nonzero += expected > 0
        # the count must be exercised, not only zero
        assert nonzero >= 2

    def test_single_block_no_pairs(self, rng):
        img = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        res = run_labt(img, LabtConfig(block_w=8, block_h=8))
        assert continuity_violations(res) == 0


class TestSweep:
    def test_constant_image_zero_fractions(self):
        img = np.full((32, 32), 70, np.uint8)
        rows = sweep(img, LabtConfig(), [4, 8, 16])
        assert all(r.out_of_range_fraction == 0.0 for r in rows)

    def test_single_block_size_equal_to_image(self, rng):
        img = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        rows = sweep(img, LabtConfig(), [16])
        assert rows == [SweepRow(block_size=16, mean_range_width=256.0, out_of_range_fraction=0.0)]

    def test_row_invariants(self, rng):
        img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        for row in sweep(img, LabtConfig(), [4, 8, 16, 32]):
            assert 0.0 <= row.out_of_range_fraction <= 1.0
            assert 1.0 <= row.mean_range_width <= 256.0

    def test_sizes_past_the_image_skipped(self, rng):
        img = rng.integers(0, 256, (48, 64), dtype=np.uint8)
        rows = sweep(img, LabtConfig(), [16, 48, 64, 128])
        assert [r.block_size for r in rows] == [16, 48]
        for row in rows:
            res = run_labt(img, LabtConfig(block_w=row.block_size, block_h=row.block_size))
            assert row.mean_range_width == mean_range_width(res)
            assert row.out_of_range_fraction == res.out_of_range_count / res.base_thresholds.size

    def test_image_below_two_pixels_rejected(self):
        # every size exceeds a one-row image, which choose_grid still rejects
        with pytest.raises(ValueError, match="at least 2x2"):
            sweep(np.zeros((1, 8), np.uint8), LabtConfig(), [2, 4])

    def test_size_below_two_rejected(self):
        # LabtConfig owns the block-side check
        for size, match in [(1, "at least 2"), (0, "at least 2"), (True, "integers")]:
            with pytest.raises(ValueError, match=f"block dimensions must be {match}"):
                sweep(np.zeros((8, 8), np.uint8), LabtConfig(), [size])

    def test_mean_range_width_matches_result(self, rng):
        img = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        res = run_labt(img, LabtConfig(block_w=4, block_h=4))
        widths = res.range_hi - res.range_lo + 1
        assert mean_range_width(res) == pytest.approx(widths.mean())


class TestTimeRun:
    def test_labt_run_under_a_second(self, rng):
        img = rng.integers(0, 256, (512, 512), dtype=np.uint8)
        start = time.perf_counter()
        run_labt(img, LabtConfig(block_w=32, block_h=32, mode="strict"))
        assert time.perf_counter() - start < 1.0
