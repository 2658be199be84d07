import numpy as np
import pytest
from numpy.testing import assert_array_equal

from labt.engine import LabtConfig
from labt.multiscan import or_masks, run_multiscan

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


class TestOrMasks:
    def test_union(self):
        a = np.array([[True, False]])
        b = np.array([[False, True]])
        c = np.array([[False, False]])
        assert or_masks([a, b, c]).tolist() == [[True, True]]

    def test_idempotent(self):
        m = np.array([[True, False], [False, True]])
        assert_array_equal(or_masks([m, m, m]), m)

    def test_result_superset_of_each_input(self, rng):
        masks = [rng.random((6, 6)) < 0.3 for _ in range(3)]
        combined = or_masks(masks)
        for m in masks:
            assert not (m & ~combined).any()

    def test_associative_commutative(self, rng):
        a, b, c = (rng.random((5, 5)) < 0.5 for _ in range(3))
        assert_array_equal(or_masks([a, b, c]), or_masks([c, a, b]))
        assert_array_equal(or_masks([or_masks([a, b]), c]), or_masks([a, or_masks([b, c])]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            or_masks([np.zeros((2, 2), bool), np.zeros((2, 3), bool)])


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
        assert_array_equal(ms.combined, or_masks([ms.per_scan[0], ms.per_scan[2]]))

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
