"""Command-line front end: binarize images, compare methods, run sweeps."""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from pathlib import Path
from time import perf_counter

from .engine import LabtConfig, LabtResult, run_labt
from .image_core import PgmError, histogram, read_pgm, write_pgm
from .metrics import (
    MethodReport,
    continuity_violations,
    mean_range_width,
    psnr,
    sweep,
)
from .multiscan import ORIENTATIONS, or_masks, run_multiscan
from .thresholders import (
    Adcdf,
    MeanK,
    NiblackParams,
    Otsu,
    binarize_global,
    niblack_binarize,
    select_threshold,
)

DEFAULT_SWEEP_SIZES = [8, 16, 32, 64, 128]

_REPORT_HEADER = [
    "method",
    "psnr_db_vs_gray_original",
    "elapsed_s",
    "out_of_range_count",
    "non_overlap_count",
    "mean_range_width",
    "continuity_violations",
]


def _parse_block(text: str):
    if text == "auto":
        return None
    match = re.fullmatch(r"(\d+)x(\d+)", text)
    if not match:
        raise argparse.ArgumentTypeError(
            f"block must be WxH (e.g. 32x32) or 'auto', got {text!r}"
        )
    return int(match.group(1)), int(match.group(2))


def _parse_sizes(text: str):
    try:
        sizes = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be comma-separated integers, got {text!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("sizes list is empty")
    if len(set(sizes)) != len(sizes):
        raise argparse.ArgumentTypeError(f"sizes must not repeat, got {text!r}")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--method",
        choices=["otsu", "adcdf", "meank", "niblack"],
        default="otsu",
        help="threshold selection method (default: otsu)",
    )
    common.add_argument("--k", type=float, default=-0.2, help="weight for meank/niblack")
    common.add_argument("--rho", type=float, default=0.5, help="CDF area fraction for adcdf")
    common.add_argument("--window", type=int, default=15, help="odd niblack window size")
    common.add_argument(
        "--block",
        type=_parse_block,
        default=None,
        metavar="WxH|auto",
        help="block dimensions, or 'auto' to pick from image variance (default)",
    )
    common.add_argument("--mode", choices=["strict", "paper"], default="strict")
    common.add_argument(
        "--no-global-seed",
        dest="seed_global",
        action="store_false",
        help="seed the first block with its own threshold instead of the global one",
    )

    parser = argparse.ArgumentParser(
        prog="labt",
        description="Block-adaptive image binarization with continuity-constrained thresholds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bin = sub.add_parser("binarize", parents=[common], help="binarize one PGM image")
    p_bin.add_argument("input", help="input PGM path")
    p_bin.add_argument("output", help="output PGM path")
    p_bin.add_argument(
        "--multiscan",
        action="store_true",
        help="OR the foregrounds of identity/vertical-flip/horizontal-flip scans",
    )

    p_cmp = sub.add_parser(
        "compare",
        parents=[common],
        help="run global otsu, niblack and the block methods side by side",
    )
    p_cmp.add_argument("input", help="input PGM path")
    p_cmp.add_argument("outdir", help="directory for the per-method output images")
    p_cmp.add_argument("--csv", default=None, help="report path (default <outdir>/report.csv)")

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="range statistics across block sizes"
    )
    p_sweep.add_argument("input", help="PGM file or directory of PGM files")
    p_sweep.add_argument("--csv", default="sweep.csv", help="per-image output CSV path")
    p_sweep.add_argument(
        "--sizes",
        type=_parse_sizes,
        default=DEFAULT_SWEEP_SIZES,
        metavar="N,N,...",
        help="square block sizes to sweep (default: 8,16,32,64,128)",
    )
    return parser


def _read_image(path: str):
    return read_pgm(Path(path).read_bytes())


def _block_config(args) -> LabtConfig:
    if args.method == "otsu":
        method = Otsu()
    elif args.method == "adcdf":
        method = Adcdf(rho=args.rho)
    elif args.method == "meank":
        method = MeanK(k=args.k)
    else:
        raise ValueError(f"{args.method} is not a block thresholder")
    return _labt_config(args, method)


def _labt_config(args, method) -> LabtConfig:
    """The block, mode and seeding options of ``args`` around ``method``."""
    block_w, block_h = args.block if args.block else (None, None)
    return LabtConfig(
        method=method,
        block_w=block_w,
        block_h=block_h,
        mode=args.mode,
        seed_global=args.seed_global,
    )


def _cmd_binarize(args) -> int:
    img = _read_image(args.input)
    if args.method == "niblack":
        params = NiblackParams(window=args.window, k=args.k)
        orientations = ORIENTATIONS if args.multiscan else ORIENTATIONS[:1]
        binary = or_masks(
            [orient(niblack_binarize(orient(img), params)) for orient in orientations]
        )
        out_of_range = non_overlap = 0
    else:
        cfg = _block_config(args)
        if args.multiscan:
            result = run_multiscan(img, cfg)
            binary = result.combined
            first = result.runs[0]
        else:
            first = run_labt(img, cfg)
            binary = first.binary
        out_of_range = first.out_of_range_count
        non_overlap = first.non_overlap_count
    Path(args.output).write_bytes(write_pgm(binary))
    print(f"out_of_range_count={out_of_range} non_overlap_count={non_overlap}")
    return 0


def _format_db(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.4f}"


def _write_report_csv(path: Path, reports: list[MethodReport]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REPORT_HEADER)
        for row in reports:
            writer.writerow(
                [
                    row.method,
                    _format_db(row.psnr_db),
                    f"{row.elapsed_s:.3f}",
                    row.out_of_range_count,
                    row.non_overlap_count,
                    f"{row.mean_range_width:.4f}",
                    row.continuity_violations,
                ]
            )


def _cmd_compare(args) -> int:
    img = _read_image(args.input)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    params = NiblackParams(window=args.window, k=args.k)
    otsu_cfg = _labt_config(args, Otsu())
    adcdf_cfg = _labt_config(args, Adcdf(rho=args.rho))
    jobs = [
        ("global_otsu", lambda: binarize_global(img, select_threshold(Otsu(), histogram(img)))),
        ("niblack", lambda: niblack_binarize(img, params)),
        ("labt_otsu", lambda: run_labt(img, otsu_cfg)),
        ("labt_adcdf", lambda: run_labt(img, adcdf_cfg)),
    ]

    reports: list[MethodReport] = []
    for name, job in jobs:
        start = perf_counter()
        out = job()
        elapsed = perf_counter() - start
        if isinstance(out, LabtResult):
            binary = out.binary
            stats = (
                out.out_of_range_count,
                out.non_overlap_count,
                mean_range_width(out),
                continuity_violations(out),
            )
        else:
            # methods without block constraints: no events, full-range width
            binary, stats = out, (0, 0, 256.0, 0)
        (outdir / f"{name}.pgm").write_bytes(write_pgm(binary))
        reports.append(MethodReport(name, psnr(img, binary), elapsed, *stats))

    csv_path = Path(args.csv) if args.csv else outdir / "report.csv"
    _write_report_csv(csv_path, reports)
    print(f"wrote 4 images to {outdir} and report to {csv_path}")
    return 0


def _cmd_sweep(args) -> int:
    path = Path(args.input)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix.lower() == ".pgm")
        if not files:
            raise ValueError(f"no .pgm files in directory {path}")
    elif path.is_file():
        files = [path]
    else:
        raise OSError(f"no such input: {path}")
    cfg = _block_config(args)

    per_image: list[tuple[str, object]] = []
    for file in files:
        img = read_pgm(file.read_bytes())
        for row in sweep(img, cfg, args.sizes):
            per_image.append((file.name, row))

    csv_path = Path(args.csv)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image", "block_size", "mean_range_width", "out_of_range_fraction"])
        for name, row in per_image:
            writer.writerow(
                [name, row.block_size, f"{row.mean_range_width:.4f}", f"{row.out_of_range_fraction:.6f}"]
            )

    avg_path = csv_path.with_name(csv_path.stem + "_avg" + (csv_path.suffix or ".csv"))
    with open(avg_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block_size", "mean_range_width", "out_of_range_fraction"])
        for size in args.sizes:
            rows = [row for _, row in per_image if row.block_size == size]
            width = sum(r.mean_range_width for r in rows) / len(rows)
            fraction = sum(r.out_of_range_fraction for r in rows) / len(rows)
            writer.writerow([size, f"{width:.4f}", f"{fraction:.6f}"])

    print(f"wrote {csv_path} and {avg_path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "binarize":
            return _cmd_binarize(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_sweep(args)
    except (OSError, PgmError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
