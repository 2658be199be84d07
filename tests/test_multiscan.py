import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import labt.engine
from labt.engine import LabtConfig, run_labt
from labt.multiscan import ORIENTATIONS, run_multiscan
from labt.thresholders import Adcdf, MeanK, Otsu
from helpers import assert_bands, assert_same_result, logging_selections

# seeded-search instance where the flipped scans clamp differently and the
# union strictly grows the foreground (verified by direct comparison below)
ASYMMETRIC_IMG = np.array(
    [
        [141, 136, 33, 149, 161, 0],
        [178, 141, 107, 35, 107, 130],
        [72, 27, 217, 254, 99, 13],
        [195, 206, 59, 228, 235, 202],
    ],
    dtype=np.uint8,
)


class TestRunMultiscan:
    def test_constant_image_all_foreground(self):
        img = np.full((8, 8), 50, np.uint8)
        ms = run_multiscan(img, LabtConfig(block_w=4, block_h=4))
        assert ms.combined.all()
        for scan in ms.per_scan:
            assert scan.all()

    def test_vertically_symmetric_image_scans_agree(self):
        # two-level palindrome rows: any admitted threshold falls in the
        # value gap, so the identity and vertical-flip scans coincide
        rng = np.random.default_rng(3)
        pattern = np.where(rng.random((4, 6)) < 0.5, np.uint8(220), np.uint8(30))
        img = np.vstack([pattern, pattern[::-1]])
        assert_array_equal(img, img[::-1])
        ms = run_multiscan(img, LabtConfig(block_w=2, block_h=2))
        assert_array_equal(ms.per_scan[0], ms.per_scan[1])
        assert_array_equal(ms.combined, ms.per_scan[0] | ms.per_scan[2])

    def test_combined_is_a_new_union_that_leaves_the_runs_alone(self, rng):
        img = rng.integers(0, 256, (12, 10), dtype=np.uint8)
        cfg = LabtConfig(block_w=4, block_h=4)
        ms = run_multiscan(img, cfg)
        assert_array_equal(ms.combined, ms.per_scan[0] | ms.per_scan[1] | ms.per_scan[2])
        for orient, run in zip(ORIENTATIONS, ms.runs):
            assert not np.shares_memory(ms.combined, run.binary)
            assert_array_equal(run.binary, run_labt(orient(img), cfg).binary)

    def test_union_property(self, rng):
        for _ in range(5):
            img = rng.integers(0, 256, (12, 12), dtype=np.uint8)
            ms = run_multiscan(img, LabtConfig(block_w=4, block_h=4))
            for scan in ms.per_scan:
                assert not (scan & ~ms.combined).any()

    def test_padded_runs_hold_only_their_cropped_masks(self, rng):
        # 128x128 blocks pad both axes of the 1500x1000 page
        img = rng.integers(0, 256, (1500, 1000), dtype=np.uint8)
        tracemalloc.start()
        try:
            ms = run_multiscan(img, LabtConfig(block_w=128, block_h=128))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for run in ms.runs:
            assert run.binary.flags.c_contiguous and run.binary.shape == img.shape
        held = sum(run.padded.nbytes + run.binary.nbytes for run in ms.runs)
        assert peak <= held + ms.combined.nbytes + 2**20

    def test_asymmetric_case_strictly_grows_foreground(self):
        ms = run_multiscan(ASYMMETRIC_IMG, LabtConfig(block_w=2, block_h=2))
        identity = ms.per_scan[0]
        assert not (identity & ~ms.combined).any()  # containment
        assert (ms.combined & ~identity).any()  # strictly more foreground

    def test_scans_are_flipped_back(self):
        ms = run_multiscan(ASYMMETRIC_IMG, LabtConfig(block_w=2, block_h=2))
        assert_array_equal(ms.per_scan[1], ms.runs[1].binary[::-1])
        assert_array_equal(ms.per_scan[2], ms.runs[2].binary[:, ::-1])

    def test_flip_invariant_image_combined_equals_identity_scan(self):
        # bilevel diamond rings are invariant under both flips and
        # threshold gap-stable, so all three scans produce the same mask
        y, x = np.mgrid[0:32, 0:32]
        d = np.abs(y - 15.5) + np.abs(x - 15.5)
        img = np.where((d // 8).astype(int) % 2 == 0, np.uint8(215), np.uint8(40))
        assert_array_equal(img, img[::-1])
        assert_array_equal(img, img[:, ::-1])
        ms = run_multiscan(img, LabtConfig(block_w=4, block_h=4))
        assert_array_equal(ms.combined, ms.per_scan[0])
        assert_array_equal(ms.per_scan[1], ms.per_scan[0])
        assert_array_equal(ms.per_scan[2], ms.per_scan[0])


class TestMatchesThreeRuns:
    """The stacked multiscan against three independent ``run_labt`` calls."""

    @settings(max_examples=300)
    @given(
        st.integers(2, 9),
        st.integers(2, 9),
        st.integers(1, 5),
        st.integers(1, 5),
        st.tuples(*[st.one_of(st.just(0), st.integers(1, 8))] * 2),
        st.tuples(st.booleans(), st.booleans()),
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 256]),
        st.one_of(
            st.just(Otsu()),
            st.builds(Adcdf, st.floats(0.05, 0.95)),
            st.builds(MeanK, st.floats(-1.5, 1.5)),
        ),
        st.sampled_from(["strict", "paper"]),
        st.booleans(),
    )
    def test_random_images(self, bh, bw, rows, cols, cut, capped, seed, levels, method, mode, seed_global):
        # rows x cols blocks, minus `cut` pixels (kept under one block) that
        # the grid pads back; a capped side asks for far more than the image
        h, w = max(2, rows * bh - cut[0] % bh), max(2, cols * bw - cut[1] % bw)
        values = np.random.default_rng(seed).integers(0, 256, levels)
        img = values[np.random.default_rng(seed + 1).integers(0, levels, (h, w))].astype(np.uint8)
        sides = [10**6 if cap else side for cap, side in zip(capped, (bw, bh))]
        cfg = LabtConfig(method, *sides, mode, seed_global)
        ms = run_multiscan(img, cfg)
        singles = [run_labt(orient(img), cfg) for orient in ORIENTATIONS]
        for got, want in zip(ms.runs, singles):
            assert_same_result(got, want)
        scans = [orient(run.binary) for orient, run in zip(ORIENTATIONS, singles)]
        for got, want in zip(ms.per_scan, scans):
            assert_array_equal(got, want)
        assert_array_equal(ms.combined, scans[0] | scans[1] | scans[2])

    @pytest.mark.parametrize(
        "shape, block, grid, bands, base_stages",
        [
            ((48, 64), (16, 16), (3, 4), [12], 1),
            ((45, 61), (16, 16), (3, 4), [12], 3),
            ((8, 40), (8, 8), (1, 5), [5], 1),
            ((40, 8), (8, 8), (5, 1), [5], 1),
            ((43, 8), (8, 8), (6, 1), [6], 3),
            ((32, 2104), (8, 16), (2, 263), [263] * 2, 1),
            ((16, 2104), (8, 8), (2, 263), [526], 1),
        ],
        ids=["aligned", "padded", "one_row", "one_column", "one_column_padded", "one_band_per_row", "wide"],
    )
    def test_one_wavefront_for_three_scans(self, rng, monkeypatch, shape, block, grid, bands, base_stages):
        calls = {"_scan": [], "select_threshold": [], "histogram": []}
        for name, log in calls.items():
            original = getattr(labt.engine, name)
            monkeypatch.setattr(labt.engine, name, lambda *a, f=original, log=log: log.append(a) or f(*a))
        selections = logging_selections(monkeypatch, labt.engine)
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        ms = run_multiscan(img, LabtConfig(block_w=block[0], block_h=block[1]))
        rows, cols = grid
        assert (ms.runs[0].grid.rows, ms.runs[0].grid.cols) == grid
        # one scan takes the base thresholds of all three grids
        assert [a[1].shape for a in calls["_scan"]] == [(3, rows, cols)]
        # An aligned grid shares one base stage and one global seed; a padded
        # one runs both per orientation. A base stage makes one selection per
        # band. Blocks of more than 64 pixels are counted in bands of
        # max(1, 2**16 // (cols * 256)) block rows: one band here, but a row
        # each when 263 columns are too wide to share one. Their noise bands
        # hold more levels than 8x16 blocks have pixels, so those pass
        # pixels. Blocks of 8x8 pass their pixels in bands of
        # max(1, 2**16 // (cols * 64)) block rows and count nothing, so the
        # global seed counts each base stage's page once.
        assert [count for _, count, _ in selections] == bands * base_stages
        assert [a[1].shape for a in calls["select_threshold"]] == [(256,)] * base_stages
        size = block[0] * block[1]
        pages = [run.padded for run in ms.runs[:base_stages]]
        assert_bands(pages, ms.runs[0].grid, selections, lambda levels: size > 64 and len(levels) <= size)
        assert len(calls["histogram"]) == (0 if size > 64 else base_stages)
        for (got,), page in zip(calls["histogram"], pages):
            assert np.shares_memory(got, page) and got.shape == page.shape

    @pytest.mark.parametrize("method", [Adcdf(), MeanK()], ids=["adcdf", "meank"])
    @pytest.mark.parametrize(
        "shape, block, bands, base_stages",
        [((48, 64), 16, [12], 1), ((45, 61), 16, [12], 3), ((16, 2104), 8, [526], 1)],
        ids=["aligned", "padded", "wide"],
    )
    def test_pixel_bands_take_one_histogram_per_base_stage(
        self, rng, monkeypatch, method, shape, block, bands, base_stages
    ):
        histograms = []
        original = labt.engine.histogram
        monkeypatch.setattr(labt.engine, "histogram", lambda page: histograms.append(page) or original(page))
        selections = logging_selections(monkeypatch, labt.engine)
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        ms = run_multiscan(img, LabtConfig(method, block, block))
        # blocks of at most 256 pixels pass them in bands of
        # max(1, 2**16 // (cols * bh * bw)) block rows, whatever the levels,
        # and the global seed counts each base stage's page once
        assert [count for _, count, _ in selections] == bands * base_stages
        pages = [run.padded for run in ms.runs[:base_stages]]
        assert_bands(pages, ms.runs[0].grid, selections, lambda levels: False)
        assert len(histograms) == base_stages
        for got, page in zip(histograms, pages):
            assert np.shares_memory(got, page) and got.shape == page.shape
