import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from labt.cli import main
from labt.image_core import read_pgm, write_pgm
from labt.thresholders import NiblackParams, niblack_binarize


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

    def test_defaults_are_valid(self, doc_image, tmp_path):
        inp, _ = doc_image
        out = tmp_path / "out.pgm"
        assert main(["binarize", str(inp), str(out)]) == 0
        assert out.exists()

    def test_multiscan_flag(self, doc_image, tmp_path):
        inp, _ = doc_image
        plain, multi = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert main(["binarize", str(inp), str(plain), "--block", "8x8"]) == 0
        assert main(["binarize", str(inp), str(multi), "--block", "8x8", "--multiscan"]) == 0
        a = read_pgm(plain.read_bytes())
        b = read_pgm(multi.read_bytes())
        # the OR pass only ever grows the foreground
        assert not ((a == 255) & (b == 0)).any()

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
        per_image = csv_path.read_text().strip().splitlines()
        assert len(per_image) == 1 + 3 * 5
        avg = (tmp_path / "sweep_avg.csv").read_text().strip().splitlines()
        assert len(avg) == 1 + 5

    def test_single_image_average_equals_per_image(self, doc_image, tmp_path):
        inp, _ = doc_image
        csv_path = tmp_path / "s.csv"
        assert main(["sweep", str(inp), "--csv", str(csv_path), "--sizes", "8,16"]) == 0
        per_rows = [l.split(",") for l in csv_path.read_text().strip().splitlines()[1:]]
        avg_rows = [
            l.split(",")
            for l in (tmp_path / "s_avg.csv").read_text().strip().splitlines()[1:]
        ]
        assert [r[1:] for r in per_rows] == avg_rows

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
        rc = main(["sweep", str(inp), "--csv", str(tmp_path / "s.csv"), "--method", "niblack"])
        assert rc != 0

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
