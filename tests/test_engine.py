import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from labt.engine import LabtConfig, _scan, choose_grid, run_labt
import labt.engine
import labt.image_core
from labt.image_core import histogram, variance
from labt.metrics import continuity_violations
from labt.multiscan import ORIENTATIONS, run_multiscan
from labt.thresholders import Adcdf, MeanK, Otsu, select_threshold
from corpus import bimodal_noise, checkerboard, document_scan
from helpers import assert_bands, assert_same_result, logging_selections
from oracles import (
    admissible_interval,
    batched_neighbor_range,
    batched_resolve_empty,
    border_disagreements,
    otsu_exhaustive,
    run_labt_raster,
    scan_reference,
)


def one_range(t, border, mode="strict"):
    """batched_neighbor_range of a single row, as a pair of ints."""
    lo, hi = batched_neighbor_range([t], [border], mode)
    return int(lo[0]), int(hi[0])


class TestNeighborRange:
    def test_mixed_border(self):
        assert one_range(100, [90, 120, 100], "paper") == (91, 120)
        assert one_range(100, [90, 120, 100], "strict") == (91, 100)

    def test_border_all_equal_to_threshold(self):
        assert one_range(100, [100, 100, 100], "paper") == (0, 255)
        assert one_range(100, [100, 100, 100], "strict") == (0, 100)

    def test_tight_bracket(self):
        assert one_range(100, [99, 101], "paper") == (100, 101)
        assert one_range(100, [99, 101], "strict") == (100, 101)

    @pytest.mark.parametrize("mode", ["strict", "paper"])
    def test_extreme_thresholds_stay_in_domain(self, mode):
        assert one_range(0, [0, 0], mode)[0] == 0
        assert one_range(255, [255, 255], mode)[1] == 255

    @pytest.mark.parametrize("mode", ["strict", "paper"])
    def test_matches_bruteforce_interval_oracle(self, rng, mode):
        for _ in range(400):
            t = int(rng.integers(0, 256))
            border = rng.integers(0, 256, int(rng.integers(1, 24)))
            lo, hi = one_range(t, border, mode)
            assert (lo, hi) == admissible_interval(t, border, mode)
            assert lo <= t <= hi

    @given(
        st.integers(0, 255),
        st.lists(st.integers(0, 255), min_size=1, max_size=12),
        st.sampled_from(["strict", "paper"]),
    )
    def test_oracle_equivalence_property(self, t, border, mode):
        assert one_range(t, border, mode) == admissible_interval(t, border, mode)

    @given(
        st.integers(1, 12).flatmap(
            lambda length: st.lists(
                st.tuples(
                    st.integers(0, 255),
                    st.lists(st.integers(0, 255), min_size=length, max_size=length),
                ),
                min_size=1,
                max_size=8,
            )
        ),
        st.sampled_from(["strict", "paper"]),
    )
    def test_rows_match_single_row_calls(self, rows, mode):
        ts = np.array([t for t, _ in rows])
        lines = np.array([line for _, line in rows], dtype=np.uint8)
        lo, hi = batched_neighbor_range(ts, lines, mode)
        assert lo.shape == hi.shape == (len(rows),)
        for i, (t, line) in enumerate(rows):
            assert (lo[i], hi[i]) == one_range(t, line, mode)
            assert (lo[i], hi[i]) == admissible_interval(t, line, mode)

    def test_empty_border_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            batched_neighbor_range([10], np.empty((1, 0), np.uint8))


def dictated_ranges(res, mode):
    """Per block, the up and left ranges its finished neighbors dictate.

    Brute force through ``admissible_interval``; a neighbor beyond the grid
    edge dictates the full range 0..255.
    """
    grid, t = res.grid, res.thresholds
    up = np.tile([0, 255], (grid.rows, grid.cols, 1))
    left = up.copy()
    for r in range(grid.rows):
        for c in range(grid.cols):
            ys, xs = r * grid.block_h, c * grid.block_w
            if r:
                top = res.padded[ys, xs : xs + grid.block_w]
                up[r, c] = admissible_interval(int(t[r - 1, c]), top, mode)
            if c:
                side = res.padded[ys : ys + grid.block_h, xs]
                left[r, c] = admissible_interval(int(t[r, c - 1]), side, mode)
    return up, left


@pytest.fixture(scope="module")
def scan_cases():
    """Runs with many clamped and disjoint blocks, with their dictated ranges."""
    rng = np.random.default_rng(7)
    cases = []
    for levels, mode in [(3, "strict"), (256, "strict"), (3, "paper"), (256, "paper")]:
        values = rng.integers(0, 256, levels)
        img = values[rng.integers(0, levels, (30, 27))].astype(np.uint8)
        res = run_labt(img, LabtConfig(block_w=3, block_h=5, mode=mode))
        cases.append((res, *dictated_ranges(res, mode)))
    return cases


class TestEffectiveRange:
    """The recorded range is the intersection of the two dictated ranges."""

    def test_intersection(self, scan_cases):
        seen = 0
        for res, up, left in scan_cases:
            lo = np.maximum(up[..., 0], left[..., 0])
            hi = np.minimum(up[..., 1], left[..., 1])
            ok = lo <= hi
            assert_array_equal(res.range_lo[ok], lo[ok])
            assert_array_equal(res.range_hi[ok], hi[ok])
            seen += int(ok[1:, 1:].sum())
        assert seen > 0

    def test_disjoint_gives_none(self, scan_cases):
        seen = 0
        for res, up, left in scan_cases:
            empty = np.maximum(up[..., 0], left[..., 0]) > np.minimum(up[..., 1], left[..., 1])
            # a disjoint block records the degenerate range of its resolved threshold
            assert int(empty.sum()) == res.non_overlap_count
            assert_array_equal(res.range_lo[empty], res.thresholds[empty])
            assert_array_equal(res.range_hi[empty], res.thresholds[empty])
            seen += res.non_overlap_count
        assert seen > 0

    def test_single_neighbor_passthrough(self, scan_cases):
        # the full range stands in for a neighbor beyond the grid edge
        for res, up, left in scan_cases:
            assert (res.range_lo[0, 0], res.range_hi[0, 0]) == (0, 255)
            assert_array_equal(res.range_lo[0, 1:], left[0, 1:, 0])
            assert_array_equal(res.range_hi[0, 1:], left[0, 1:, 1])
            assert_array_equal(res.range_lo[1:, 0], up[1:, 0, 0])
            assert_array_equal(res.range_hi[1:, 0], up[1:, 0, 1])


class TestResolveEmpty:
    def test_derived_example(self):
        # disjoint up/left ranges; the winner must match an exhaustive
        # scan over the candidate set
        ur, lr = (91, 100), (110, 140)
        top = np.array([90, 120, 100], np.uint8)
        left = np.array([130, 130, 130], np.uint8)
        t_up, t_left, ot = 100, 120, 105
        candidates = sorted({*ur, *lr, t_up, t_left})

        def total(c):
            return border_disagreements(c, top, t_up) + border_disagreements(
                c, left, t_left
            )

        best = min(candidates, key=lambda c: (total(c), abs(c - ot), c))
        got = batched_resolve_empty([[*ur, *lr, t_up, t_left]], [ot], [top], [left])
        assert got.tolist() == [best]
        # sanity: no threshold outside the candidate set beats the winner
        assert min(total(c) for c in range(256)) == total(got[0])

    def test_degenerate_borders_tie_break_to_nearest_ot(self):
        cand = [[0, 10, 20, 30, 5, 25]]
        flat = np.full((1, 4), 50, np.uint8)
        # all candidates classify the constant borders identically (zero
        # disagreements), so the nearest-to-ot rule decides
        assert batched_resolve_empty(cand, [21], flat, flat).tolist() == [20]
        assert batched_resolve_empty(cand, [2], flat, flat).tolist() == [0]

    def test_distance_tie_resolved_to_smallest(self):
        flat = np.full((1, 4), 50, np.uint8)
        # ot=15 is equidistant from candidates 10 and 20
        assert batched_resolve_empty([[0, 10, 20, 30, 10, 20]], [15], flat, flat).tolist() == [10]


class TestClamp:
    """A block with overlapping neighbor ranges clamps its base threshold."""

    def clamped(self, scan_cases, where):
        """(applied, base, lo, hi) of the blocks where ``where(base, lo, hi)``."""
        picked = []
        for res, _, _ in scan_cases:
            base, lo, hi = res.base_thresholds, res.range_lo, res.range_hi
            pick = where(base, lo, hi)
            pick[0, 0] = False  # the seeded first block
            picked.append((res.thresholds[pick], base[pick], lo[pick], hi[pick]))
        assert sum(t.size for t, *_ in picked) > 0
        return picked

    def test_above(self, scan_cases):
        for t, base, lo, hi in self.clamped(scan_cases, lambda b, lo, hi: b > hi):
            assert_array_equal(t, hi)

    def test_inside(self, scan_cases):
        inside = lambda b, lo, hi: (lo <= b) & (b <= hi)
        for t, base, lo, hi in self.clamped(scan_cases, inside):
            assert_array_equal(t, base)

    def test_below(self, scan_cases):
        for t, base, lo, hi in self.clamped(scan_cases, lambda b, lo, hi: b < lo):
            assert_array_equal(t, lo)

    @given(
        st.integers(2, 24),
        st.integers(2, 24),
        st.integers(2, 6),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["strict", "paper"]),
    )
    def test_result_always_inside(self, h, w, block, seed, mode):
        img = np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)
        res = run_labt(img, LabtConfig(block_w=block, block_h=block, mode=mode))
        assert (res.range_lo <= res.thresholds).all()
        assert (res.thresholds <= res.range_hi).all()


class TestChooseGrid:
    def test_constant_image_largest_blocks(self):
        grid = choose_grid(np.full((100, 100), 77, np.uint8))
        assert (grid.block_w, grid.block_h) == (64, 64)

    def test_high_variance_smallest_blocks(self):
        img = np.zeros((64, 64), np.uint8)
        img[:, 32:] = 255  # stddev 127.5
        grid = choose_grid(img)
        assert (grid.block_w, grid.block_h) == (16, 16)

    def test_mid_variance_mid_blocks(self):
        img = np.zeros((64, 64), np.uint8)
        img[:, 32:] = 80  # stddev 40
        assert choose_grid(img).block_w == 32

    @pytest.mark.parametrize("high, side", [(64, 32), (128, 16)])
    def test_exact_variance_on_the_bucket_edge(self, high, side):
        # half 0 / half high: variance exactly (high / 2) ** 2, 1024 or 4096
        img = np.zeros((64, 64), np.uint8)
        img[:, 32:] = high
        assert variance(img) == (high / 2) ** 2
        assert choose_grid(img).block_w == side

    def test_override_wins(self):
        grid = choose_grid(np.zeros((50, 100), np.uint8), LabtConfig(block_w=40, block_h=24))
        assert (grid.block_w, grid.block_h) == (40, 24)
        assert (grid.padded_w, grid.padded_h) == (120, 72)
        assert (grid.rows, grid.cols) == (3, 3)
        # a side past the image is capped at it: one block on that axis
        grid = choose_grid(np.zeros((10, 30), np.uint8), LabtConfig(block_w=40, block_h=4))
        assert (grid.block_w, grid.block_h) == (30, 4)
        assert (grid.padded_w, grid.padded_h) == (30, 12)
        assert (grid.rows, grid.cols) == (3, 1)

    def test_grid_covers_padded_image(self):
        grid = choose_grid(np.zeros((70, 50), np.uint8), LabtConfig(block_w=16, block_h=16))
        assert grid.padded_w == 64 and grid.padded_h == 80
        assert grid.cols == 4 and grid.rows == 5

    def test_tiny_image_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            choose_grid(np.zeros((1, 5), np.uint8))


class TestRunLabt:
    def test_two_block_hand_trace(self):
        # left 2x2 block all 0, right block all 200
        img = np.array([[0, 0, 200, 200], [0, 0, 200, 200]], np.uint8)
        cfg = LabtConfig(block_w=2, block_h=2)
        seed = select_threshold(Otsu(), histogram(img))
        assert seed == otsu_exhaustive(histogram(img)) == 1
        res = run_labt(img, cfg)
        assert res.thresholds.tolist() == [[1, 200]]
        assert res.base_thresholds.tolist() == [[0, 200]]
        assert res.range_lo.tolist() == [[0, 0]]
        assert res.range_hi.tolist() == [[255, 200]]
        assert res.binary.tolist() == [
            [False, False, True, True],
            [False, False, True, True],
        ]
        assert res.out_of_range_count == 0
        assert res.non_overlap_count == 0

    @pytest.mark.parametrize("seed_global", [True, False])
    def test_otsu_selects_once_per_band_and_counts_only_large_blocks(self, monkeypatch, rng, seed_global):
        seeds, pages = [], []

        def seeding(method, hist):
            seeds.append(np.shape(hist))
            return select_threshold(method, hist)

        def counting(img):
            pages.append(img)
            return histogram(img)

        def forbidden(img):
            raise AssertionError("only the global seed may call histogram")

        bands = logging_selections(monkeypatch, labt.engine)
        monkeypatch.setattr(labt.engine, "select_threshold", seeding)
        monkeypatch.setattr(labt.engine, "histogram", counting)
        monkeypatch.setattr(labt.image_core, "histogram", forbidden)
        # Blocks of more than 64 pixels are counted in bands of
        # max(1, 2**16 // (cols * 256)) block rows: 4 x 9 blocks of 8x16 fit
        # one band, 5 x 64 take bands of 4 rows, the last partial, and 2 x 263
        # one band per row; 6 x 9 blocks of 8x9 fit one band, and on noise
        # the auto grid picks 16x16 blocks, 4 x 5 of them, one band. A
        # counted band passes its pixels when it holds more levels than a
        # block has pixels: noise holds up to 256, and its first `few` pixel
        # rows, taken modulo 40, at most 40, so the 64 rows of the first 8x16
        # band stay dense. Blocks of 64 pixels or fewer pass their pixels in
        # bands of max(1, 2**16 // (cols * 64)) block rows, whatever the
        # levels: 5 x 64 blocks of 8x8 fit one band, 3 x 263 one band of 3
        # rows, and the global seed then counts the padded page once.
        cases = [
            ((50, 70), (8, 16), 0, [36]),
            ((80, 512), (8, 16), 0, [256, 64]),
            ((80, 512), (8, 16), 64, [256, 64]),
            ((20, 2100), (8, 16), 0, [263] * 2),
            ((50, 70), (8, 9), 0, [54]),
            ((50, 70), (None, None), 0, [20]),
            ((40, 512), (8, 8), 0, [320]),
            ((40, 512), (8, 8), 40, [320]),
            ((20, 2100), (8, 8), 0, [789]),
        ]
        paths = set()
        for shape, (bw, bh), few, sizes in cases:
            bands.clear()
            seeds.clear()
            pages.clear()
            img = rng.integers(0, 256, shape, dtype=np.uint8)
            img[:few] %= 40
            res = run_labt(img, LabtConfig(block_w=bw, block_h=bh, seed_global=seed_global))
            assert [count for _, count, _ in bands] == sizes
            # the page's seed is the one selection from a full histogram
            assert seeds == [(256,)] * seed_global
            size = res.grid.block_w * res.grid.block_h
            counted = size > 64
            assert_bands([res.padded], res.grid, bands, lambda levels: counted and len(levels) <= size)
            paths.update(path for path, _, _ in bands)
            assert len(pages) == (seed_global and not counted)
            for page in pages:  # the padded page itself, not a copy
                assert page.shape == res.padded.shape and np.shares_memory(page, res.padded)
        assert paths == {"dense", "pixels"}

    @pytest.mark.parametrize("method", [Adcdf(), MeanK()], ids=["adcdf", "meank"])
    @pytest.mark.parametrize("seed_global", [True, False])
    def test_small_blocks_pass_pixels_and_one_histogram(self, monkeypatch, rng, method, seed_global):
        pages = []

        def counting(img):
            pages.append(img)
            return histogram(img)

        bands = logging_selections(monkeypatch, labt.engine)
        monkeypatch.setattr(labt.engine, "histogram", counting)
        # Blocks of at most 256 pixels pass their pixels in bands of
        # max(1, 2**16 // (cols * bh * bw)) block rows, whatever the levels:
        # 5 x 64 blocks of 8x8 fit one band of 16 rows, 13 x 263 take bands
        # of 3 rows, and 4 x 5 of 16x16 one band. Blocks of 17x16 count
        # their histograms in bands sized as Otsu's, which also give the
        # page histogram; else the global seed takes one histogram call.
        cases = [
            ((40, 512), (8, 8), [320]),
            ((100, 2100), (8, 8), [789] * 4 + [263]),
            ((50, 70), (16, 16), [20]),
            ((50, 70), (17, 16), [20]),
        ]
        for shape, (bw, bh), sizes in cases:
            bands.clear()
            pages.clear()
            img = rng.integers(0, 256, shape, dtype=np.uint8)
            res = run_labt(img, LabtConfig(method, bw, bh, seed_global=seed_global))
            assert [count for _, count, _ in bands] == sizes
            dense = bw * bh > 256
            assert_bands([res.padded], res.grid, bands, lambda levels: dense)
            assert len(pages) == (seed_global and not dense)
            for page in pages:  # the padded page itself, not a copy
                assert page.shape == res.padded.shape and np.shares_memory(page, res.padded)

    def test_constant_image(self):
        img = np.full((20, 20), 90, np.uint8)
        res = run_labt(img, LabtConfig(block_w=4, block_h=4))
        assert (res.base_thresholds == 90).all()
        assert (res.thresholds == 90).all()
        assert ((res.range_lo <= 90) & (90 <= res.range_hi)).all()
        assert res.out_of_range_count == 0
        assert res.binary.all()

    def test_single_block_equals_global(self, rng):
        img = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        res = run_labt(img, LabtConfig(block_w=16, block_h=16))
        t = select_threshold(Otsu(), histogram(img))
        assert_array_equal(res.binary, img >= t)

    @pytest.mark.parametrize("shape", [(16, 24), (21, 24), (16, 29), (21, 29)])
    def test_binary_contiguous_for_every_padding(self, rng, shape):
        # aligned, height-padded, width-padded and both-padded inputs
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        res = run_labt(img, LabtConfig(block_w=8, block_h=8))
        t = np.repeat(np.repeat(res.thresholds, 8, axis=0), 8, axis=1)
        assert res.binary.flags.c_contiguous
        assert res.binary.shape == shape and res.binary.dtype == bool
        assert_array_equal(res.binary, img >= t[: shape[0], : shape[1]])

    def test_labels_need_no_buffer_beyond_the_mask(self, rng):
        # 128x128 blocks pad both axes of the 1500x1000 page
        img = rng.integers(0, 256, (1500, 1000), dtype=np.uint8)
        tracemalloc.start()
        try:
            res = run_labt(img, LabtConfig(block_w=128, block_h=128))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.padded.shape == (1536, 1024)
        assert peak <= res.padded.nbytes + res.binary.nbytes + 2**20

    def test_base_stage_bin_index_stays_narrow(self, rng):
        # a wide page at coarse blocks: 12 columns of 128x128 blocks, whose
        # block-row bin index would take 1.5 MiB as int64
        img = rng.integers(0, 256, (1000, 1500), dtype=np.uint8)
        tracemalloc.start()
        try:
            run_labt(img, LabtConfig(block_w=128, block_h=128))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2**20

    def test_output_cropped_to_input(self, rng):
        img = rng.integers(0, 256, (21, 13), dtype=np.uint8)
        res = run_labt(img, LabtConfig(block_w=8, block_h=8))
        assert res.binary.shape == (21, 13)
        assert res.padded.shape == (24, 16)

    def test_seed_global_off_uses_first_block_threshold(self):
        img = np.array([[0, 0, 200, 200], [0, 0, 200, 200]], np.uint8)
        res = run_labt(img, LabtConfig(block_w=2, block_h=2, seed_global=False))
        assert res.thresholds[0, 0] == 0  # the constant block's own value

    @pytest.mark.parametrize("mode", ["strict", "paper"])
    def test_threshold_always_inside_recorded_range(self, rng, mode):
        for _ in range(10):
            img = rng.integers(0, 256, (24, 24), dtype=np.uint8)
            res = run_labt(img, LabtConfig(block_w=4, block_h=4, mode=mode))
            assert (res.range_lo <= res.thresholds).all()
            assert (res.thresholds <= res.range_hi).all()

    @pytest.mark.parametrize("mode", ["strict", "paper"])
    def test_neighbor_threshold_inside_dictated_range(self, rng, mode):
        img = rng.integers(0, 256, (24, 24), dtype=np.uint8)
        res = run_labt(img, LabtConfig(block_w=4, block_h=4, mode=mode))
        grid, t = res.grid, res.thresholds
        for r in range(grid.rows):
            for c in range(grid.cols):
                ys, xs = r * grid.block_h, c * grid.block_w
                if r > 0:
                    lo, hi = one_range(
                        int(t[r - 1, c]), res.padded[ys, xs : xs + grid.block_w], mode
                    )
                    assert lo <= t[r - 1, c] <= hi
                if c > 0:
                    lo, hi = one_range(
                        int(t[r, c - 1]), res.padded[ys : ys + grid.block_h, xs], mode
                    )
                    assert lo <= t[r, c - 1] <= hi

    def test_strict_mode_continuity_on_random_images(self, rng):
        # strict runs without non-overlap events label shared borders
        # identically under both adjacent thresholds
        for _ in range(10):
            img = rng.integers(0, 256, (30, 30), dtype=np.uint8)
            res = run_labt(img, LabtConfig(block_w=5, block_h=5, mode="strict"))
            if res.non_overlap_count == 0:
                assert continuity_violations(res) == 0

    def test_paper_mode_violations_only_at_exempt_pixels(self, rng):
        for _ in range(20):
            img = rng.integers(0, 256, (24, 24), dtype=np.uint8)
            res = run_labt(img, LabtConfig(block_w=4, block_h=4, mode="paper"))
            if res.non_overlap_count:
                continue
            grid, t = res.grid, res.thresholds
            for r in range(grid.rows):
                for c in range(grid.cols):
                    ys, xs = r * grid.block_h, c * grid.block_w
                    if r > 0:
                        line = res.padded[ys, xs : xs + grid.block_w]
                        flipped = (line >= t[r, c]) != (line >= t[r - 1, c])
                        assert (line[flipped] == t[r - 1, c]).all()
                    if c > 0:
                        line = res.padded[ys : ys + grid.block_h, xs]
                        flipped = (line >= t[r, c]) != (line >= t[r, c - 1])
                        assert (line[flipped] == t[r, c - 1]).all()

    def test_determinism(self, rng):
        img = rng.integers(0, 256, (33, 47), dtype=np.uint8)
        cfg = LabtConfig(block_w=8, block_h=8)
        a, b = run_labt(img, cfg), run_labt(img, cfg)
        assert_array_equal(a.binary, b.binary)
        assert_array_equal(a.thresholds, b.thresholds)
        assert_array_equal(a.range_lo, b.range_lo)
        assert a.out_of_range_count == b.out_of_range_count
        assert a.non_overlap_count == b.non_overlap_count

    def test_out_of_range_count_matches_recorded_ranges(self, rng):
        for _ in range(10):
            img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
            res = run_labt(img, LabtConfig(block_w=4, block_h=4))
            outside = (res.base_thresholds < res.range_lo) | (
                res.base_thresholds > res.range_hi
            )
            assert res.out_of_range_count == int(outside.sum())

    def test_auto_grid_used_when_block_unset(self):
        img = np.full((100, 70), 10, np.uint8)
        res = run_labt(img, LabtConfig())
        # constant image: lowest-variance bucket
        assert (res.grid.block_w, res.grid.block_h) == (64, 64)
        assert res.padded.shape == (128, 128) and res.binary.shape == (100, 70)
        # the auto side is capped at a smaller image's sides
        res = run_labt(np.full((30, 30), 10, np.uint8), LabtConfig())
        assert (res.grid.block_w, res.grid.block_h) == (30, 30)
        assert res.padded.shape == res.binary.shape == (30, 30)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            LabtConfig(block_w=1, block_h=4)
        with pytest.raises(ValueError, match="together"):
            LabtConfig(block_w=4)
        with pytest.raises(ValueError, match="mode"):
            LabtConfig(mode="loose")
        # non-integer and bool sides, unknown methods, non-bool seeding
        for kwargs, match in [
            (dict(block_w=2.5, block_h=4), "integers"),
            (dict(block_w=4, block_h=4.0), "integers"),
            (dict(block_w=True, block_h=4), "integers"),
            (dict(block_w=np.bool_(True), block_h=4), "integers"),
            (dict(method="otsu"), "threshold method"),
            (dict(method=None), "threshold method"),
            (dict(seed_global="no"), "seed_global"),
            (dict(seed_global=1), "seed_global"),
        ]:
            with pytest.raises(ValueError, match=match):
                LabtConfig(**kwargs)

    def test_config_accepts_numpy_integers(self):
        img = np.arange(96, dtype=np.uint8).reshape(8, 12)
        cfg = LabtConfig(block_w=np.int64(8), block_h=np.int64(4), seed_global=np.True_)
        want = run_labt(img, LabtConfig(block_w=8, block_h=4))
        assert_array_equal(run_labt(img, cfg).thresholds, want.thresholds)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_config_unsigned_sides_match_int_sides(self, dtype):
        img = np.arange(96, dtype=np.uint8).reshape(8, 12)
        cfg = LabtConfig(block_w=dtype(8), block_h=dtype(4))
        assert type(cfg.block_w) is int and type(cfg.block_h) is int
        assert_same_result(run_labt(img, cfg), run_labt(img, LabtConfig(block_w=8, block_h=4)))

    @pytest.mark.parametrize("side", [4000, 2**31, 2**63, 2**70 + 1])
    def test_huge_side_runs_as_the_image_side_block(self, side):
        img = (np.arange(100).reshape(10, 10) * 2).astype(np.uint8)
        for sides, capped in [((side, side), (10, 10)), ((side, 2), (10, 2)), ((2, side), (2, 10))]:
            tracemalloc.start()
            try:
                res = run_labt(img, LabtConfig(block_w=sides[0], block_h=sides[1]))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20
            want = run_labt(img, LabtConfig(block_w=capped[0], block_h=capped[1]))
            assert_same_result(res, want)

    @pytest.mark.parametrize(
        "img, match",
        [
            (np.zeros((4, 4, 3), np.uint8), "non-empty 2-D"),
            (np.zeros((0, 4), np.uint8), "non-empty 2-D"),
            (np.zeros((4, 4)), "must be integers, got float64"),
            (np.zeros((4, 4), bool), "must be integers, got bool"),
            (np.array([[0, -1], [255, 9]], np.int16), "0..255"),
            (np.array([[0, 256], [255, 9]], np.int16), "0..255"),
        ],
    )
    def test_rejects_images_that_are_not_8_bit_gray(self, img, match):
        with pytest.raises(ValueError, match=match):
            run_labt(img, LabtConfig())

    def test_in_range_int16_image_matches_uint8(self, rng):
        img = rng.integers(0, 256, (20, 28), dtype=np.uint8)
        cfg = LabtConfig(block_w=4, block_h=4)
        assert_same_result(run_labt(img.astype(np.int16), cfg), run_labt(img, cfg))

    def test_config_replace_keeps_validation(self):
        cfg = LabtConfig(block_w=4, block_h=4)
        assert dataclasses.replace(cfg, block_w=8, block_h=8).block_w == 8


def assert_run_invariants(res, cfg):
    assert (res.range_lo <= res.thresholds).all()
    assert (res.thresholds <= res.range_hi).all()
    if cfg.mode == "strict" and res.non_overlap_count == 0:
        assert continuity_violations(res) == 0


METHODS = st.one_of(
    st.just(Otsu()),
    st.builds(Adcdf, st.floats(0.05, 0.95)),
    st.builds(MeanK, st.floats(-1.5, 1.5)),
)


class TestMatchesRasterReference:
    """The staged engine against the frozen one-loop raster engine."""

    @settings(max_examples=400)
    @given(
        st.integers(2, 80),
        st.integers(2, 80),
        st.integers(2, 40),
        st.integers(2, 40),
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 256]),
        METHODS,
        st.sampled_from(["strict", "paper"]),
        st.booleans(),
    )
    def test_random_images(self, h, w, bh, bw, seed, levels, method, mode, seed_global):
        # few-level images make border pixels equal to neighbor thresholds
        # and disjoint neighbor ranges common
        values = np.random.default_rng(seed).integers(0, 256, levels)
        img = values[np.random.default_rng(seed + 1).integers(0, levels, (h, w))]
        img = img.astype(np.uint8)
        cfg = LabtConfig(method, bw, bh, mode, seed_global)
        res = run_labt(img, cfg)
        assert_same_result(res, run_labt_raster(img, cfg))
        assert_run_invariants(res, cfg)

    @settings(max_examples=60)
    @given(
        st.sampled_from([(2, 2), (5, 3), (8, 8), (16, 12)]),
        # a band holds 2**16 // (cols * 256) block rows, at least one: 256, 28,
        # 6, 4, 1 and 1 of them here, so that rows up to 13 make one band,
        # several with a partial last one, or one band per row
        st.sampled_from([1, 9, 40, 64, 129, 200]),
        st.integers(1, 13),
        st.tuples(st.integers(0, 15), st.integers(0, 15)),
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 256]),
        METHODS,
        st.sampled_from(["strict", "paper"]),
        st.booleans(),
    )
    def test_bands_of_block_rows(self, block, cols, rows, cut, seed, levels, method, mode, seed_global):
        (bw, bh), gen = block, np.random.default_rng(seed)
        h, w = max(2, rows * bh - cut[0] % bh), max(2, cols * bw - cut[1] % bw)
        # each block row draws from its own few levels, so bands differ
        palette = gen.integers(0, 256, (-(-h // bh), levels))
        img = palette[np.arange(h)[:, None] // bh, gen.integers(0, levels, (h, w))].astype(np.uint8)
        cfg = LabtConfig(method, bw, bh, mode, seed_global)
        res = run_labt(img, cfg)
        assert_same_result(res, run_labt_raster(img, cfg))

    @settings(max_examples=150)
    @given(
        st.integers(2, 10),
        st.integers(2, 10),
        st.integers(1, 9),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
        st.sampled_from([3, 40, 256]),
        METHODS,
        st.sampled_from(["strict", "paper"]),
        st.booleans(),
    )
    def test_small_blocks_and_their_multiscan(self, bh, bw, rows, cols, seed, levels, method, mode, seed_global):
        # Blocks of at most 100 pixels: Otsu passes the pixels of bands that
        # hold more levels, Adcdf and MeanK those of every band.
        gen = np.random.default_rng(seed)
        h, w = max(2, rows * bh - int(gen.integers(0, bh))), max(2, cols * bw - int(gen.integers(0, bw)))
        img = gen.integers(0, 256, levels)[gen.integers(0, levels, (h, w))].astype(np.uint8)
        cfg = LabtConfig(method, bw, bh, mode, seed_global)
        assert_same_result(run_labt(img, cfg), run_labt_raster(img, cfg))
        for orient, run in zip(ORIENTATIONS, run_multiscan(img, cfg).runs):
            assert_same_result(run, run_labt_raster(orient(img), cfg))

    @pytest.mark.parametrize(
        "img",
        [document_scan(300, 200, 31), bimodal_noise(300, 200, 41), checkerboard(300, 200, 20)],
        ids=["document_scan", "bimodal_noise", "checkerboard"],
    )
    @pytest.mark.parametrize("block", [8, 16, 64])
    @pytest.mark.parametrize("mode", ["strict", "paper"])
    def test_corpus_images(self, img, block, mode):
        cfg = LabtConfig(block_w=block, block_h=block, mode=mode)
        res = run_labt(img, cfg)
        assert_same_result(res, run_labt_raster(img, cfg))
        assert_run_invariants(res, cfg)


class TestStackedScan:
    """``_scan`` on a stack of k grids against k scans of one grid each."""

    @settings(max_examples=200)
    @given(
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 256]),
        st.sampled_from(["strict", "paper"]),
    )
    def test_equals_one_scan_per_grid(self, k, rows, cols, bh, bw, seed, levels, mode):
        gen = np.random.default_rng(seed)
        # few levels make equal-to-threshold borders and disjoint ranges common
        values = gen.integers(0, 256, levels)
        blocks = values[gen.integers(0, levels, (k, rows, bh, cols, bw))].astype(np.uint8)
        base = gen.choice(values, (k, rows, cols)).astype(np.int32)
        seeds = gen.integers(0, 256, k)
        stacked = _scan(blocks, base, seeds, mode)
        for s in range(k):
            single = _scan(blocks[s : s + 1], base[s : s + 1], seeds[s : s + 1], mode)
            for got, want in zip(stacked, single):
                assert (got.shape[1:], got.dtype) == (want.shape[1:], want.dtype)
                assert_array_equal(got[s], want[0])

    @settings(max_examples=300)
    @given(
        st.sampled_from([1, 3]),
        st.integers(1, 7),
        st.integers(1, 7),
        st.integers(1, 9),
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 256]),
        st.sampled_from(["strict", "paper"]),
        st.sampled_from([1, 40, labt.engine._TABLE_BYTES]),
    )
    def test_matches_scan_reference(self, k, rows, cols, bh, bw, seed, levels, mode, table_bytes):
        gen = np.random.default_rng(seed)
        # two-level images make disjoint neighbor ranges common
        values = gen.integers(0, 256, levels)
        blocks = values[gen.integers(0, levels, (k, rows, bh, cols, bw))].astype(np.uint8)
        base = gen.choice(values, (k, rows, cols)).astype(np.int32)
        seeds = gen.integers(0, 256, k)
        # small tables start a new piece of the border table at many diagonals
        with mock.patch.object(labt.engine, "_TABLE_BYTES", table_bytes):
            got = _scan(blocks, base, seeds, mode)
        want = scan_reference(blocks, base, seeds, mode)
        assert [(a.shape, a.dtype) for a in got] == [(a.shape, a.dtype) for a in want]
        for name, a, b in zip(["thresholds", "range_lo", "range_hi", "disjoint"], got, want):
            assert_array_equal(a, b, err_msg=name)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_rank_counts_past_255(self, transpose):
        # Block (1, 1)'s 300-pixel top line holds 256 pixels below its up
        # neighbor's threshold 150, and its left line [5, 8] one below its
        # left neighbor's 7: ranges [11, 200] and [6, 8], disjoint. Candidates
        # 11, 150 and 200 mislabel one border pixel and 6, 7 and 8 255, so 11
        # wins; counts wrapped past 255 would tie all six and pick 8, the
        # nearest to the base 9. 255 elsewhere admits the full range.
        page = np.full((4, 600), 255, np.uint8)
        page[2, 300:] = [5] + [10] * 255 + [200] * 44
        page[3, 300] = 8
        base = np.array([[0, 150], [7, 9]], np.int32)
        if transpose:
            page, base = page.T, base.T
        blocks = page.reshape(1, 2, page.shape[0] // 2, 2, page.shape[1] // 2)
        got = _scan(blocks, base[None], [0], "strict")
        want = scan_reference(blocks, base[None], [0], "strict")
        for a, b in zip(got, want):
            assert_array_equal(a, b)
        assert got[0][0, 1, 1] == 11 and got[3][0, 1, 1]

    def test_stack_of_one_matches_run_labt(self, rng):
        img = rng.integers(0, 256, (40, 56), dtype=np.uint8)
        res = run_labt(img, LabtConfig(block_w=8, block_h=8))
        blocks = res.padded.reshape(1, 5, 8, 7, 8)
        final, lo, hi, disjoint = _scan(blocks, res.base_thresholds[None], [res.thresholds[0, 0]], "strict")
        assert_array_equal(final[0], res.thresholds)
        assert_array_equal(lo[0], res.range_lo)
        assert_array_equal(hi[0], res.range_hi)
        assert disjoint.sum() == res.non_overlap_count
