import argparse
import subprocess
import sys
import tempfile
import tracemalloc
import typing
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

from labt.cli import _METHODS, build_parser, main
from labt.engine import LabtConfig, run_labt
from labt.image_core import PgmError, read_pgm, write_pgm
from labt.metrics import sweep
from labt.thresholders import (
    Adcdf,
    MeanK,
    NiblackParams,
    Otsu,
    ThresholdMethod,
    niblack_binarize,
)
from oracles import read_pgm_loop

# --method choices that name a block thresholder, with the method each builds
# from --rho 0.3 --k 0.4
_BLOCK_METHODS = [("otsu", Otsu()), ("adcdf", Adcdf(rho=0.3)), ("meank", MeanK(k=0.4))]
_BLOCK_FLAGS = ["--rho", "0.3", "--k", "0.4", "--mode", "paper", "--no-global-seed"]


@pytest.fixture
def doc_image(tmp_path):
    rng = np.random.default_rng(99)
    img = np.full((48, 64), 205, np.uint8)
    for y in range(6, 42, 12):
        for x in range(4, 58, 9):
            img[y : y + 2, x : x + int(rng.integers(3, 7))] = 30
    path = tmp_path / "doc.pgm"
    path.write_bytes(write_pgm(img))
    return path, img


def assert_usage_error(argv, flag, capsys, tmp_path):
    """``argv`` exits 2 with argparse's error naming ``flag`` and writes nothing."""
    before = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err.splitlines()[-1]
    assert sorted(tmp_path.iterdir()) == before


class TestOptions:
    def test_each_subcommand_takes_only_the_options_it_reads(self):
        (subcommands,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        options = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in subcommands.choices.items()
        }
        shared = {"--k", "--rho", "--mode", "--no-global-seed"}
        assert options == {
            "binarize": shared | {"--method", "--window", "--block", "--multiscan"},
            "compare": shared | {"--window", "--block", "--csv"},
            "sweep": shared | {"--method", "--csv", "--sizes"},
        }
        methods = {
            name: list(subcommands.choices[name]._option_string_actions["--method"].choices)
            for name in ["binarize", "sweep"]
        }
        assert methods == {
            "binarize": ["otsu", "adcdf", "meank", "niblack"],
            "sweep": ["otsu", "adcdf", "meank"],
        }

    def test_method_table_builds_each_block_thresholder_once(self):
        # the --method choices themselves are pinned by the test above
        built = {name: make(argparse.Namespace(k=0.4, rho=0.3)) for name, make in _METHODS.items()}
        assert built == dict(_BLOCK_METHODS)
        assert Counter(map(type, built.values())) == Counter(typing.get_args(ThresholdMethod))

    @pytest.mark.parametrize(
        "command, flag, value",
        [("sweep", "--block", "4x4"), ("sweep", "--window", "7"), ("compare", "--method", "meank")],
    )
    def test_option_of_another_subcommand_rejected(
        self, doc_image, tmp_path, capsys, command, flag, value
    ):
        inp, _ = doc_image
        positional = {
            "compare": [str(inp), str(tmp_path / "cmp")],
            "sweep": [str(inp), "--csv", str(tmp_path / "s.csv"), "--sizes", "8,16"],
        }[command]
        assert_usage_error([command, *positional, flag, value], flag, capsys, tmp_path)


class TestBinarize:
    def test_writes_output_and_prints_counters(self, doc_image, tmp_path, capsys):
        inp, img = doc_image
        out = tmp_path / "out.pgm"
        rc = main(["binarize", str(inp), str(out), "--method", "otsu", "--block", "8x8"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "out_of_range_count=" in printed and "non_overlap_count=" in printed
        mask = read_pgm(out.read_bytes())
        assert mask.shape == img.shape
        assert set(np.unique(mask)) <= {0, 255}

    @pytest.mark.parametrize("name", ["otsu", "adcdf", "meank", "niblack"])
    def test_defaults_are_valid(self, tmp_path, name):
        # one --k serves meank and niblack, so its default is the default of both
        assert MeanK.k == NiblackParams.k
        # noise, so that a different k, rho, window or mode changes the mask
        img = np.random.default_rng(7).integers(0, 256, (48, 64), dtype=np.uint8)
        inp, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
        inp.write_bytes(write_pgm(img))
        assert main(["binarize", str(inp), str(out), "--method", name]) == 0
        if name == "niblack":
            want = niblack_binarize(img)
        else:
            cls = {"otsu": Otsu, "adcdf": Adcdf, "meank": MeanK}[name]
            want = run_labt(img, LabtConfig(method=cls())).binary
        assert out.read_bytes() == write_pgm(want)

    def test_block_auto_is_the_default(self, doc_image, tmp_path, capsys):
        inp, _ = doc_image
        default, auto = tmp_path / "default.pgm", tmp_path / "auto.pgm"
        assert main(["binarize", str(inp), str(default)]) == 0
        printed = capsys.readouterr().out
        assert main(["binarize", str(inp), str(auto), "--block", "auto"]) == 0
        assert capsys.readouterr().out == printed
        assert auto.read_bytes() == default.read_bytes()

    def test_multiscan_flag(self, doc_image, tmp_path):
        inp, _ = doc_image
        plain, multi = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert main(["binarize", str(inp), str(plain), "--block", "8x8"]) == 0
        assert main(["binarize", str(inp), str(multi), "--block", "8x8", "--multiscan"]) == 0
        a = read_pgm(plain.read_bytes())
        b = read_pgm(multi.read_bytes())
        # the OR pass only ever grows the foreground
        assert not ((a == 255) & (b == 0)).any()

    def test_page_buffers_freed_before_the_mask_is_encoded(self, tmp_path):
        # 128x128 blocks pad both axes of the 1500x1000 page
        img = np.random.default_rng(4).integers(0, 256, (1500, 1000), dtype=np.uint8)
        inp, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
        inp.write_bytes(write_pgm(img))
        tracemalloc.start()
        try:
            rc = main(["binarize", str(inp), str(out), "--block", "128x128"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        # input, padded page and mask, each about one page
        assert peak <= img.nbytes + 1536 * 1024 + img.nbytes + 2**20
        want = run_labt(img, LabtConfig(block_w=128, block_h=128)).binary
        assert out.read_bytes() == write_pgm(want)

    def test_missing_input_fails(self, tmp_path, capsys):
        rc = main(["binarize", str(tmp_path / "nope.pgm"), str(tmp_path / "o.pgm")])
        assert rc != 0
        assert "error:" in capsys.readouterr().err

    def test_corrupt_input_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5 9 9 255 ")
        rc = main(["binarize", str(bad), str(tmp_path / "o.pgm")])
        assert rc != 0
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [b"P2 2 2 0 0 0 0 0", b"P5 2 2 255", b"P5 2 2 255#c\n" + bytes(4)],
        ids=["zero_maxval", "p5_ends_at_maxval", "p5_comment_after_maxval"],
    )
    def test_maxval_error_fails_with_the_oracle_line(self, tmp_path, capsys, data):
        with pytest.raises(PgmError) as info:
            read_pgm_loop(data)
        bad, out = tmp_path / "bad.pgm", tmp_path / "o.pgm"
        bad.write_bytes(data)
        assert main(["binarize", str(bad), str(out)]) == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"
        assert not out.exists()

    def test_niblack_method(self, doc_image, tmp_path, capsys):
        inp, _ = doc_image
        out = tmp_path / "o.pgm"
        rc = main(["binarize", str(inp), str(out), "--method", "niblack", "--window", "7"])
        assert rc == 0
        assert "out_of_range_count=0" in capsys.readouterr().out

    def test_niblack_multiscan_is_or_of_flipped_back_scans(self, doc_image, tmp_path):
        inp, img = doc_image
        out = tmp_path / "o.pgm"
        args = ["binarize", str(inp), str(out), "--method", "niblack", "--window", "7"]
        assert main(args + ["--multiscan"]) == 0
        params = NiblackParams(window=7, k=-0.2)
        expected = (
            niblack_binarize(img, params)
            | niblack_binarize(img[::-1], params)[::-1]
            | niblack_binarize(img[:, ::-1], params)[:, ::-1]
        )
        assert_array_equal(read_pgm(out.read_bytes()), np.where(expected, 255, 0))

    @pytest.mark.parametrize("method", ["meank", "niblack"])
    def test_infinite_k_fails_with_one_error_line(self, doc_image, tmp_path, capsys, method):
        inp, _ = doc_image
        out = tmp_path / "o.pgm"
        rc = main(["binarize", str(inp), str(out), "--method", method, "--k", "inf"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: k must be finite") and err.count("\n") == 1
        assert not out.exists()

    def test_memory_error_fails_with_one_error_line(
        self, doc_image, tmp_path, capsys, monkeypatch
    ):
        def unallocatable(img, cfg):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr("labt.cli.run_labt", unallocatable)
        inp, _ = doc_image
        out = tmp_path / "o.pgm"
        rc = main(["binarize", str(inp), str(out), "--block", "1000000x1000000"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "block, capped",
        [
            ("1000000x1000000", "64x48"),
            ("1180591620717411303424x2", "64x2"),
            ("2x9223372036854775808", "2x48"),
        ],
    )
    def test_huge_side_runs_as_the_image_side_block(
        self, doc_image, tmp_path, capsys, block, capped
    ):
        inp, _ = doc_image
        outputs = []
        for spec in (block, capped):
            out = tmp_path / f"{spec}.pgm"
            assert main(["binarize", str(inp), str(out), "--block", spec]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_niblack_window_past_int64_runs(self, doc_image, tmp_path):
        inp, img = doc_image
        out = tmp_path / "o.pgm"
        args = ["binarize", str(inp), str(out), "--method", "niblack"]
        assert main(args + ["--window", "36893488147419103233"]) == 0
        whole = niblack_binarize(img, NiblackParams(window=2 * max(img.shape) + 1))
        assert_array_equal(read_pgm(out.read_bytes()), np.where(whole, 255, 0))

    @pytest.mark.parametrize("name, method", _BLOCK_METHODS)
    def test_flags_map_to_the_config(self, doc_image, tmp_path, capsys, monkeypatch, name, method):
        cfg = LabtConfig(method=method, block_w=8, block_h=16, mode="paper", seed_global=False)
        seen = []
        monkeypatch.setattr("labt.cli.run_labt", lambda img, c: seen.append(c) or run_labt(img, c))
        inp, img = doc_image
        out = tmp_path / "o.pgm"
        args = ["binarize", str(inp), str(out), "--method", name, "--block", "8x16"]
        assert main(args + _BLOCK_FLAGS) == 0
        assert seen == [cfg]
        res = run_labt(img, cfg)
        assert out.read_bytes() == write_pgm(res.binary)
        assert capsys.readouterr().out == (
            f"out_of_range_count={res.out_of_range_count} "
            f"non_overlap_count={res.non_overlap_count}\n"
        )

    def test_other_methods_options_are_not_checked(self, doc_image, tmp_path):
        # --rho and --k belong to adcdf and meank: a plain otsu run ignores them
        inp, img = doc_image
        out = tmp_path / "o.pgm"
        args = ["binarize", str(inp), str(out), "--method", "otsu", "--rho", "5", "--k", "nan"]
        assert main(args) == 0
        assert out.read_bytes() == write_pgm(run_labt(img, LabtConfig()).binary)

    def test_paper_mode_and_no_global_seed_accepted(self, doc_image, tmp_path):
        inp, _ = doc_image
        out = tmp_path / "o.pgm"
        args = ["binarize", str(inp), str(out), "--mode", "paper", "--no-global-seed"]
        assert main(args) == 0

    def test_deterministic_outputs(self, doc_image, tmp_path):
        inp, _ = doc_image
        out1, out2 = tmp_path / "r1.pgm", tmp_path / "r2.pgm"
        assert main(["binarize", str(inp), str(out1), "--block", "8x8"]) == 0
        assert main(["binarize", str(inp), str(out2), "--block", "8x8"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("old", [b"", b"P5 1 1 255 \x00", bytes(100_000)])
    def test_overwrites_existing_output_exactly(self, doc_image, tmp_path, old):
        inp, _ = doc_image
        fresh, out = tmp_path / "fresh.pgm", tmp_path / "o.pgm"
        out.write_bytes(old)
        assert main(["binarize", str(inp), str(fresh), "--block", "8x8"]) == 0
        assert main(["binarize", str(inp), str(out), "--block", "8x8"]) == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_writes_to_a_pipe(self, doc_image, tmp_path):
        inp, _ = doc_image
        fresh = tmp_path / "fresh.pgm"
        assert main(["binarize", str(inp), str(fresh), "--block", "8x8"]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "labt", "binarize", str(inp), "/dev/stdout", "--block", "8x8"],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(fresh.read_bytes())


class TestCompare:
    def test_produces_four_images_and_csv(self, doc_image, tmp_path, capsys):
        inp, _ = doc_image
        outdir = tmp_path / "cmp"
        rc = main(["compare", str(inp), str(outdir), "--block", "16x16"])
        assert rc == 0
        images = sorted(p.name for p in outdir.glob("*.pgm"))
        assert images == ["global_otsu.pgm", "labt_adcdf.pgm", "labt_otsu.pgm", "niblack.pgm"]
        lines = (outdir / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 methods
        header = lines[0].split(",")
        assert header == [
            "method",
            "psnr_db_vs_gray_original",
            "elapsed_s",
            "out_of_range_count",
            "non_overlap_count",
            "mean_range_width",
            "continuity_violations",
        ]

    def test_strict_rows_report_zero_violations(self, doc_image, tmp_path):
        inp, _ = doc_image
        outdir = tmp_path / "cmp"
        assert main(["compare", str(inp), str(outdir), "--block", "16x16"]) == 0
        rows = (outdir / "report.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            if fields[0].startswith("labt_"):
                assert fields[6] == "0"

    def test_custom_csv_path(self, doc_image, tmp_path):
        inp, _ = doc_image
        csv_path = tmp_path / "custom.csv"
        rc = main(["compare", str(inp), str(tmp_path / "cmp"), "--csv", str(csv_path)])
        assert rc == 0
        assert csv_path.exists()

    def test_infinite_psnr_rendered_as_inf(self, tmp_path):
        # all-white input: every method labels everything foreground, so the
        # mapped output matches the original exactly
        inp = tmp_path / "white.pgm"
        inp.write_bytes(write_pgm(np.full((16, 16), 255, np.uint8)))
        outdir = tmp_path / "cmp"
        assert main(["compare", str(inp), str(outdir), "--block", "8x8"]) == 0
        rows = (outdir / "report.csv").read_text().strip().splitlines()[1:]
        assert all(row.split(",")[1] == "inf" for row in rows)


class TestSweep:
    def test_directory_of_images(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        indir = tmp_path / "imgs"
        indir.mkdir()
        for i in range(3):
            img = np.where(rng.random((32, 32)) < 0.5, 220, 30).astype(np.uint8)
            (indir / f"img{i}.pgm").write_bytes(write_pgm(img))
        csv_path = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", str(indir), "--csv", str(csv_path), "--sizes", "4,8,16,32,64"]
        )
        assert rc == 0
        # size 64 exceeds the 32x32 images, so no image runs it
        per_image = csv_path.read_text().strip().splitlines()
        assert len(per_image) == 1 + 3 * 4
        avg = (tmp_path / "sweep_avg.csv").read_text().strip().splitlines()
        assert len(avg) == 1 + 4
        assert [row.split(",")[::3] for row in avg[1:]] == [[s, "3"] for s in ["4", "8", "16", "32"]]

    def test_single_image_average_equals_per_image(self, doc_image, tmp_path):
        inp, _ = doc_image
        csv_path = tmp_path / "s.csv"
        assert main(["sweep", str(inp), "--csv", str(csv_path), "--sizes", "8,16"]) == 0
        per_rows = [l.split(",") for l in csv_path.read_text().strip().splitlines()[1:]]
        avg_rows = [
            l.split(",")
            for l in (tmp_path / "s_avg.csv").read_text().strip().splitlines()[1:]
        ]
        assert [r[1:] + ["1"] for r in per_rows] == avg_rows

    def test_sizes_past_the_image_skipped(self, tmp_path):
        # a 64x48 ramp: 64 and 128 would both run one 64x48 block
        inp = tmp_path / "in.pgm"
        inp.write_bytes(b"P5\n64 48\n255\n" + bytes(range(256)) * 12)
        csv_path = tmp_path / "sweep.csv"
        assert main(["sweep", str(inp), "--csv", str(csv_path), "--sizes", "16,64,128"]) == 0
        per_image = csv_path.read_text().splitlines()
        assert [row.split(",")[:2] for row in per_image[1:]] == [["in.pgm", "16"]]
        avg = (tmp_path / "sweep_avg.csv").read_text().splitlines()
        assert avg == [
            "block_size,mean_range_width,out_of_range_fraction,images",
            ",".join(per_image[1].split(",")[1:] + ["1"]),
        ]

    def test_directory_of_mixed_sizes(self, tmp_path):
        rng = np.random.default_rng(8)
        indir = tmp_path / "imgs"
        indir.mkdir()
        images = {"a.pgm": rng.integers(0, 256, (48, 64)), "b.pgm": rng.integers(0, 256, (16, 16))}
        for name, img in images.items():
            (indir / name).write_bytes(write_pgm(img.astype(np.uint8)))
        csv_path = tmp_path / "sweep.csv"
        assert main(["sweep", str(indir), "--csv", str(csv_path), "--sizes", "8,16,32,128"]) == 0
        per_image = [row.split(",") for row in csv_path.read_text().splitlines()[1:]]
        assert [row[:2] for row in per_image] == [
            ["a.pgm", "8"], ["a.pgm", "16"], ["a.pgm", "32"], ["b.pgm", "8"], ["b.pgm", "16"]
        ]
        avg = [row.split(",") for row in (tmp_path / "sweep_avg.csv").read_text().splitlines()[1:]]
        assert [(row[0], row[3]) for row in avg] == [("8", "2"), ("16", "2"), ("32", "1")]
        # only a.pgm ran size 32: its average is that image's row
        assert avg[2][:3] == per_image[2][1:]

    def test_no_size_fits_fails_and_writes_no_csv(self, tmp_path, capsys):
        inp = tmp_path / "in.pgm"
        inp.write_bytes(b"P5\n64 48\n255\n" + bytes(range(256)) * 12)
        csv_path = tmp_path / "sweep.csv"
        assert main(["sweep", str(inp), "--csv", str(csv_path), "--sizes", "128,256"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "48 pixels" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm"]

    def test_repeated_size_rejected(self, doc_image, tmp_path, capsys):
        inp, _ = doc_image
        csv_path = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(inp), "--csv", str(csv_path), "--sizes", "8,16,8"])
        assert exc.value.code == 2
        assert "sizes must not repeat" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_empty_directory_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["sweep", str(empty), "--csv", str(tmp_path / "s.csv")])
        assert rc != 0
        assert "no .pgm files" in capsys.readouterr().err

    def test_niblack_rejected(self, doc_image, tmp_path, capsys):
        inp, _ = doc_image
        argv = ["sweep", str(inp), "--csv", str(tmp_path / "s.csv"), "--method", "niblack"]
        assert_usage_error(argv, "--method", capsys, tmp_path)

    def test_non_integer_size_rejected(self, doc_image, tmp_path, capsys):
        inp, _ = doc_image
        argv = ["sweep", str(inp), "--csv", str(tmp_path / "s.csv"), "--sizes", "8,x"]
        assert_usage_error(argv, "sizes must be comma-separated integers", capsys, tmp_path)

    def test_missing_path_fails_with_one_error_line(self, tmp_path, capsys):
        rc = main(["sweep", str(tmp_path / "nope"), "--csv", str(tmp_path / "s.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no such input") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == []

    def test_subdirectory_named_like_a_pgm_skipped(self, tmp_path):
        indir = tmp_path / "imgs"
        (indir / "sub.pgm").mkdir(parents=True)
        (indir / "a.pgm").write_bytes(write_pgm(np.full((16, 16), 90, np.uint8)))
        csv_path = tmp_path / "s.csv"
        assert main(["sweep", str(indir), "--csv", str(csv_path), "--sizes", "8"]) == 0
        rows = csv_path.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["a.pgm"]

    @pytest.mark.parametrize("name, method", _BLOCK_METHODS)
    def test_rows_are_the_library_sweep(self, doc_image, tmp_path, name, method):
        inp, img = doc_image
        csv_path = tmp_path / "s.csv"
        args = ["sweep", str(inp), "--csv", str(csv_path), "--sizes", "8,16", "--method", name]
        assert main(args + _BLOCK_FLAGS) == 0
        cfg = LabtConfig(method=method, mode="paper", seed_global=False)
        expected = [
            f"doc.pgm,{row.block_size},{row.mean_range_width:.4f},{row.out_of_range_fraction:.6f}"
            for row in sweep(img, cfg, [8, 16])
        ]
        assert csv_path.read_text().splitlines()[1:] == expected

    def test_deterministic_csvs(self, doc_image, tmp_path):
        inp, _ = doc_image
        c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for c in (c1, c2):
            assert main(["sweep", str(inp), "--csv", str(c), "--sizes", "8,16"]) == 0
        assert c1.read_bytes() == c2.read_bytes()
        assert (tmp_path / "a_avg.csv").read_bytes() == (tmp_path / "b_avg.csv").read_bytes()


def test_module_entry_point(doc_image, tmp_path):
    inp, _ = doc_image
    out = tmp_path / "o.pgm"
    proc = subprocess.run(
        [sys.executable, "-m", "labt", "binarize", str(inp), str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "out_of_range_count=" in proc.stdout
    assert out.exists()


_PAGE = write_pgm(np.random.default_rng(5).integers(0, 256, (12, 9), dtype=np.uint8))

# PGM-like inputs: valid small pages, one cut short at any byte, arbitrary
# bytes, and small P2/P5 headers over random payloads.
_pgm_like = st.one_of(
    arrays(np.uint8, st.tuples(st.integers(1, 20), st.integers(1, 20))).map(write_pgm),
    arrays(np.uint8, st.tuples(st.integers(2, 20), st.integers(2, 20))).map(write_pgm),
    st.integers(0, len(_PAGE)).map(lambda cut: _PAGE[:cut]),
    st.binary(max_size=64),
    st.builds(
        lambda magic, w, h, maxval, payload: b"%s %d %d %d " % (magic, w, h, maxval) + payload,
        st.sampled_from([b"P5", b"P2", b"P6"]),
        st.integers(0, 20),
        st.integers(0, 20),
        st.integers(0, 300),
        st.one_of(
            st.binary(max_size=400),
            st.lists(st.integers(0, 300), max_size=400).map(
                lambda xs: " ".join(map(str, xs)).encode()
            ),
        ),
    ),
)
_side = st.integers(-1, 64)
# values past int64: numpy cannot index with them, but argparse accepts them
_huge = st.integers(2**63, 2**70)
_shared_flags = [
    st.tuples(st.just("--k"), st.sampled_from(["-0.2", "0", "3.5", "-9", "1e308", "inf", "x"])),
    st.tuples(st.just("--rho"), st.sampled_from(["0.5", "0.01", "0.99", "0.3", "0", "nan"])),
    st.tuples(st.just("--mode"), st.sampled_from(["strict", "paper"])),
    st.just(("--no-global-seed",)),
]
_block_flags = [
    st.tuples(
        st.just("--window"),
        st.one_of(
            st.sampled_from(["3", "5", "15", "99", "4", "-5"]), _huge.map(lambda n: str(n | 1))
        ),
    ),
    st.tuples(
        st.just("--block"),
        st.one_of(
            st.just("auto"),
            st.just("8"),
            st.builds("{}x{}".format, _side, _side),
            st.builds("{}x{}".format, _huge, _side),
            st.builds("{}x{}".format, _side, _huge),
        ),
    ),
]
_command_flags = {
    "binarize": [
        st.tuples(st.just("--method"), st.sampled_from(["otsu", "adcdf", "meank", "niblack", "x"])),
        st.just(("--multiscan",)),
        *_block_flags,
    ],
    "compare": _block_flags,
    "sweep": [
        st.tuples(st.just("--method"), st.sampled_from(["otsu", "adcdf", "meank", "x"])),
        st.tuples(
            st.just("--sizes"),
            st.lists(st.one_of(st.integers(0, 64), _huge), max_size=4).map(
                lambda xs: ",".join(map(str, xs))
            ),
        )
    ],
}
# valid options of the other subcommands: each must make argparse exit 2
_foreign_flags = {
    "binarize": [("--sizes", "8,16")],
    "compare": [("--method", "otsu"), ("--multiscan",), ("--sizes", "8,16")],
    "sweep": [("--window", "15"), ("--block", "8x8"), ("--multiscan",)],
}
_invocations = st.sampled_from(sorted(_command_flags)).flatmap(
    lambda command: st.tuples(
        st.just(command),
        st.lists(st.one_of(_shared_flags + _command_flags[command]), max_size=4),
        st.lists(st.sampled_from(_foreign_flags[command]), max_size=1),
    )
)


@settings(max_examples=150, deadline=None)
@given(data=_pgm_like, invocation=_invocations)
def test_cli_never_tracebacks(data, invocation):
    command, flags, foreign = invocation
    with tempfile.TemporaryDirectory() as tmp:
        inp = Path(tmp) / "in.pgm"
        inp.write_bytes(data)
        positional = {
            "binarize": [str(inp), str(Path(tmp) / "out.pgm")],
            "compare": [str(inp), str(Path(tmp) / "cmp")],
            "sweep": [str(inp), "--csv", str(Path(tmp) / "s.csv")],
        }[command]
        argv = [command, *positional, *[arg for flag in flags + foreign for arg in flag]]
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            assert exc.code == 2
        else:
            assert rc in (0, 1) and not foreign
