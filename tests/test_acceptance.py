"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
shared corpus runs are computed once per session.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from labt.cli import main
from labt.engine import LabtConfig, run_labt
from labt.image_core import histogram, read_pgm, write_pgm
from labt.metrics import continuity_violations, mean_range_width
from labt.multiscan import run_multiscan
from labt.thresholders import NiblackParams, Otsu, niblack_binarize, select_threshold
from corpus import FLIP_SYMMETRIC, build_corpus, document_scan
from oracles import admissible_interval, batched_neighbor_range, niblack_naive, otsu_exhaustive

SIZES = (8, 16, 32, 64, 128)
CONTINUITY_SIZES = (8, 16, 32, 64)


@pytest.fixture(scope="session")
def corpus():
    images = build_corpus(512)
    synthetic = [n for n, _ in images if n.startswith("syn_")]
    natural = [n for n, _ in images if n.startswith("nat_")]
    assert len(images) >= 20 and len(synthetic) >= 10 and len(natural) >= 10
    return images


@pytest.fixture(scope="session")
def strict_runs(corpus):
    """All strict-mode runs keyed by (image name, block size), plus the
    wall-clock seconds spent on the continuity-criterion sizes."""
    runs = {}
    continuity_elapsed = 0.0
    for name, img in corpus:
        for size in SIZES:
            start = time.perf_counter()
            runs[name, size] = run_labt(
                img, LabtConfig(block_w=size, block_h=size, mode="strict")
            )
            if size in CONTINUITY_SIZES:
                continuity_elapsed += time.perf_counter() - start
    return runs, continuity_elapsed


def _trend_ok(series, tol=0.02):
    """Non-increasing up to one adjacent-pair violation of <= tol relative."""
    increases = []
    for prev, nxt in zip(series, series[1:]):
        if nxt > prev:
            if prev == 0:
                return False
            increases.append((nxt - prev) / prev)
    return len(increases) <= 1 and all(v <= tol for v in increases)


def test_criterion_01_continuity_theorem(corpus, strict_runs):
    runs, elapsed = strict_runs
    start = time.perf_counter()
    for name, _ in corpus:
        for size in CONTINUITY_SIZES:
            res = runs[name, size]
            violations = continuity_violations(res)
            assert violations == 0, f"{name} at block size {size}: {violations}"
    total = elapsed + (time.perf_counter() - start)
    assert total < 120.0, f"continuity check took {total:.1f}s"
    print(
        f"ACCEPTANCE 01 PASS — strict continuity: 0 violations on "
        f"{len(corpus)} images x {len(CONTINUITY_SIZES)} sizes in {total:.1f}s"
    )


def test_criterion_02_range_oracle():
    rng = np.random.default_rng(2024)
    cases = 0
    for _ in range(1200):
        t = int(rng.integers(0, 256))
        border = rng.integers(0, 256, int(rng.integers(1, 20)))
        for mode in ("strict", "paper"):
            lo, hi = batched_neighbor_range([t], [border], mode)
            assert (lo[0], hi[0]) == admissible_interval(t, border, mode), (
                t,
                border.tolist(),
                mode,
            )
            cases += 1
    print(f"ACCEPTANCE 02 PASS — batched_neighbor_range matches brute force on {cases} cases")


def test_criterion_03_otsu_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        img = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        hist = histogram(img)
        assert select_threshold(Otsu(), hist) == otsu_exhaustive(hist)
    for g in range(256):
        spike = np.zeros(256, np.int64)
        spike[g] = 7
        assert select_threshold(Otsu(), spike) == otsu_exhaustive(spike) == g
    print("ACCEPTANCE 03 PASS — otsu equals exhaustive maximizer (50 images + 256 spikes)")


def test_criterion_04_mean_range_width_trend(corpus, strict_runs):
    runs, _ = strict_runs
    averages = [
        float(np.mean([mean_range_width(runs[name, size]) for name, _ in corpus]))
        for size in SIZES
    ]
    assert _trend_ok(averages), f"width averages not non-increasing: {averages}"
    formatted = ", ".join(f"{a:.2f}" for a in averages)
    print(f"ACCEPTANCE 04 PASS — corpus mean range width over sizes {SIZES}: {formatted}")


def test_criterion_05_out_of_range_fraction_trend(corpus, strict_runs):
    runs, _ = strict_runs
    averages = []
    for size in SIZES:
        fractions = []
        for name, _ in corpus:
            res = runs[name, size]
            fractions.append(
                res.out_of_range_count / (res.grid.rows * res.grid.cols)
            )
        averages.append(float(np.mean(fractions)))
    assert _trend_ok(averages), f"fractions not non-increasing: {averages}"
    formatted = ", ".join(f"{a:.4f}" for a in averages)
    print(f"ACCEPTANCE 05 PASS — corpus out-of-range fraction over sizes {SIZES}: {formatted}")


def test_criterion_06_non_overlap_rarity(corpus, strict_runs):
    runs, _ = strict_runs
    natural = [name for name, _ in corpus if name.startswith("nat_")]
    worst = 0.0
    for name in natural:
        res = runs[name, 32]
        fraction = res.non_overlap_count / (res.grid.rows * res.grid.cols)
        worst = max(worst, fraction)
        assert fraction < 0.05, f"{name}: non-overlap fraction {fraction:.3f}"
    print(
        f"ACCEPTANCE 06 PASS — non-overlap fraction < 5% on {len(natural)} "
        f"natural images at size 32 (worst {worst:.4f})"
    )


def test_criterion_07_multiscan_union(corpus):
    cfg = LabtConfig(block_w=32, block_h=32, mode="strict")
    equal_checked = 0
    for name, img in corpus:
        ms = run_multiscan(img, cfg)
        for scan in ms.per_scan:
            assert not (scan & ~ms.combined).any(), f"{name}: union violated"
        if name in FLIP_SYMMETRIC:
            assert_array_equal(ms.combined, ms.per_scan[0])
            equal_checked += 1
    assert equal_checked >= 2
    print(
        f"ACCEPTANCE 07 PASS — multiscan union on {len(corpus)} images; "
        f"equality exact on {equal_checked} flip-symmetric images"
    )


def test_criterion_08_niblack_equivalence():
    rng = np.random.default_rng(88)
    checked = 0
    for _ in range(20):
        img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        for window in (3, 7, 15):
            fast = niblack_binarize(img, NiblackParams(window=window, k=-0.2))
            assert_array_equal(fast, niblack_naive(img, window, -0.2))
            checked += 1
    print(f"ACCEPTANCE 08 PASS — integral-image niblack equals naive oracle ({checked} runs)")


def test_criterion_09_determinism_and_round_trip(corpus, tmp_path):
    rng = np.random.default_rng(909)
    for _ in range(100):
        img = rng.integers(
            0, 256, (int(rng.integers(1, 40)), int(rng.integers(1, 40))), dtype=np.uint8
        )
        assert_array_equal(read_pgm(write_pgm(img)), img)

    name, img = next((n, im) for n, im in corpus if n == "nat_doc_text_1")
    inp = tmp_path / "in.pgm"
    inp.write_bytes(write_pgm(img[:128, :128]))
    outputs = []
    for run in range(2):
        out = tmp_path / f"out{run}.pgm"
        rc = main(["binarize", str(inp), str(out), "--block", "16x16"])
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    csvs = []
    for run in range(2):
        csv_path = tmp_path / f"sweep{run}.csv"
        rc = main(["sweep", str(inp), "--csv", str(csv_path), "--sizes", "8,16,32"])
        assert rc == 0
        csvs.append(
            csv_path.read_bytes()
            + (tmp_path / f"sweep{run}_avg.csv").read_bytes()
        )
    assert csvs[0] == csvs[1]
    print("ACCEPTANCE 09 PASS — 100 PGM round trips; CLI outputs byte-identical")


def test_criterion_10_performance():
    img = document_scan(512, 512, 77)
    cfg = LabtConfig(block_w=32, block_h=32, mode="strict")
    run_labt(img, cfg)  # warm-up
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        run_labt(img, cfg)
        timings.append(time.perf_counter() - start)
    elapsed = min(timings)
    assert elapsed < 1.0, f"512x512 strict run took {elapsed:.3f}s"
    print(f"ACCEPTANCE 10 PASS — 512x512 block-32 strict run in {elapsed * 1000:.0f} ms")
