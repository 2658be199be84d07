import numpy as np
from numpy.testing import assert_array_equal

from labt.engine import LabtConfig, run_labt
from labt.multiscan import ORIENTATIONS, run_multiscan

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
