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
from helpers import assert_same_result

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
        "shape, block, grid, base_stages",
        [
            ((48, 64), 16, (3, 4), 1),
            ((45, 61), 16, (3, 4), 3),
            ((8, 40), 8, (1, 5), 1),
            ((40, 8), 8, (5, 1), 1),
            ((43, 8), 8, (6, 1), 3),
        ],
        ids=["aligned", "padded", "one_row", "one_column", "one_column_padded"],
    )
    def test_one_wavefront_for_three_scans(self, rng, monkeypatch, shape, block, grid, base_stages):
        calls = {"neighbor_range": [], "select_threshold": []}
        for name, log in calls.items():
            original = getattr(labt.engine, name)
            monkeypatch.setattr(labt.engine, name, lambda *a, f=original, log=log: log.append(a) or f(*a))
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        ms = run_multiscan(img, LabtConfig(block_w=block, block_h=block))
        rows, cols = grid
        assert (ms.runs[0].grid.rows, ms.runs[0].grid.cols) == grid
        assert len(calls["neighbor_range"]) == 2 * (rows + cols - 2)
        # every call batches one diagonal of all three grids
        assert sum(len(t) for t, _, _ in calls["neighbor_range"]) == 2 * 3 * (rows * cols - 1)
        # an aligned grid shares one base stage (one call per block row) and
        # one global seed; a padded one runs both per orientation
        assert len(calls["select_threshold"]) == base_stages * (rows + 1)
