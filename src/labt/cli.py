"""Command-line front end: binarize images, compare methods, run sweeps."""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import stat
import sys
from pathlib import Path
from time import perf_counter

from .engine import _MODES, LabtConfig, LabtResult, run_labt
from .image_core import histogram, read_pgm, write_pgm
from .metrics import continuity_violations, mean_range_width, psnr, sweep
from .multiscan import run_multiscan
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
_METHODS = {  # --method's block thresholders, each built from the options it reads
    "otsu": lambda args: Otsu(),
    "adcdf": lambda args: Adcdf(rho=args.rho),
    "meank": lambda args: MeanK(k=args.k),
}

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
    common.add_argument("--k", type=float, default=MeanK.k, help="weight for meank/niblack")
    common.add_argument("--rho", type=float, default=Adcdf.rho, help="CDF area fraction for adcdf")
    common.add_argument("--mode", choices=_MODES, default=LabtConfig.mode)
    common.add_argument(
        "--no-global-seed",
        dest="seed_global",
        action="store_false",
        help="seed the first block with its own threshold instead of the global one",
    )
    blocks = argparse.ArgumentParser(add_help=False, parents=[common])
    blocks.add_argument("--window", type=int, default=NiblackParams.window, help="odd niblack window size")
    blocks.add_argument(
        "--block",
        type=_parse_block,
        default=None,
        metavar="WxH|auto",
        help="block dimensions, or 'auto' to pick from image variance (default)",
    )

    parser = argparse.ArgumentParser(
        prog="labt",
        description="Block-adaptive image binarization with continuity-constrained thresholds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bin = sub.add_parser("binarize", parents=[blocks], help="binarize one PGM image")
    p_bin.add_argument("input", help="input PGM path")
    p_bin.add_argument("output", help="output PGM path")
    p_bin.add_argument("--method", choices=[*_METHODS, "niblack"], default="otsu")
    p_bin.add_argument(
        "--multiscan",
        action="store_true",
        help="OR the foregrounds of identity/vertical-flip/horizontal-flip scans",
    )
    p_bin.set_defaults(run=_cmd_binarize)

    p_cmp = sub.add_parser(
        "compare",
        parents=[blocks],
        help="run global otsu, niblack and the block methods side by side",
    )
    p_cmp.add_argument("input", help="input PGM path")
    p_cmp.add_argument("outdir", help="directory for the per-method output images")
    p_cmp.add_argument("--csv", default=None, help="report path (default <outdir>/report.csv)")
    p_cmp.set_defaults(run=_cmd_compare)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="range statistics across block sizes"
    )
    p_sweep.add_argument("input", help="PGM file or directory of PGM files")
    p_sweep.add_argument("--method", choices=list(_METHODS), default="otsu")
    p_sweep.add_argument("--csv", default="sweep.csv", help="per-image output CSV path")
    p_sweep.add_argument(
        "--sizes",
        type=_parse_sizes,
        default=DEFAULT_SWEEP_SIZES,
        metavar="N,N,...",
        help=f"square block sizes to sweep (default: {','.join(map(str, DEFAULT_SWEEP_SIZES))})",
    )
    # _labt_config reads args.block; sweep takes its block sides from --sizes
    p_sweep.set_defaults(run=_cmd_sweep, block=None)
    return parser


def _write_output(path, data: bytes) -> None:
    """Write ``data`` to ``path``, over an existing regular file in place:
    truncating on open waits for write-back of the old contents (200-500 ms
    for an A4 mask rewritten within a second on ext4), trimming after does not.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _labt_config(args, name=None) -> LabtConfig:
    """``args``' block, mode and seeding options around method ``name``, by default ``--method``'s."""
    block_w, block_h = args.block if args.block else (None, None)
    return LabtConfig(
        method=_METHODS[name or args.method](args),
        block_w=block_w,
        block_h=block_h,
        mode=args.mode,
        seed_global=args.seed_global,
    )


def _cmd_binarize(args) -> int:
    img = read_pgm(Path(args.input).read_bytes())
    if args.method == "niblack":
        # Niblack's windows clip symmetrically: --multiscan's flipped scans all give this mask.
        binary = niblack_binarize(img, NiblackParams(window=args.window, k=args.k))
        out_of_range = non_overlap = 0
    else:
        cfg = _labt_config(args)
        if args.multiscan:
            result = run_multiscan(img, cfg)
            binary = result.combined
            first = result.runs[0]
        else:
            first = run_labt(img, cfg)
            binary = first.binary
        out_of_range = first.out_of_range_count
        non_overlap = first.non_overlap_count
    img = result = first = None  # free the input and padded pages before encoding
    _write_output(args.output, write_pgm(binary))
    print(f"out_of_range_count={out_of_range} non_overlap_count={non_overlap}")
    return 0


def _cmd_compare(args) -> int:
    img = read_pgm(Path(args.input).read_bytes())
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    params = NiblackParams(window=args.window, k=args.k)
    otsu_cfg, adcdf_cfg = _labt_config(args, "otsu"), _labt_config(args, "adcdf")
    jobs = [
        ("global_otsu", lambda: binarize_global(img, select_threshold(Otsu(), histogram(img)))),
        ("niblack", lambda: niblack_binarize(img, params)),
        ("labt_otsu", lambda: run_labt(img, otsu_cfg)),
        ("labt_adcdf", lambda: run_labt(img, adcdf_cfg)),
    ]

    rows = []
    for name, job in jobs:
        start = perf_counter()
        out = job()
        elapsed = perf_counter() - start
        if isinstance(out, LabtResult):
            binary = out.binary
            stats = (
                out.out_of_range_count,
                out.non_overlap_count,
                f"{mean_range_width(out):.4f}",
                continuity_violations(out),
            )
        else:
            # methods without block constraints: no events, full-range width
            binary, stats = out, (0, 0, f"{256:.4f}", 0)
        _write_output(outdir / f"{name}.pgm", write_pgm(binary))
        db = psnr(img, binary)
        rows.append((name, "inf" if math.isinf(db) else f"{db:.4f}", f"{elapsed:.3f}", *stats))

    csv_path = Path(args.csv) if args.csv else outdir / "report.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REPORT_HEADER)
        writer.writerows(rows)
    print(f"wrote {len(jobs)} images to {outdir} and report to {csv_path}")
    return 0


def _cmd_sweep(args) -> int:
    path = Path(args.input)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix.lower() == ".pgm" and p.is_file())
        if not files:
            raise ValueError(f"no .pgm files in directory {path}")
    elif path.is_file():
        files = [path]
    else:
        raise OSError(f"no such input: {path}")
    cfg = _labt_config(args)

    per_image: list[tuple[str, object]] = []
    side = 0  # the largest of the images' smaller sides
    for file in files:
        img = read_pgm(file.read_bytes())
        side = max(side, min(img.shape))
        for row in sweep(img, cfg, args.sizes):
            per_image.append((file.name, row))
    if not per_image:
        raise ValueError(f"every block size exceeds each image's smaller side (at most {side} pixels)")

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
        writer.writerow(["block_size", "mean_range_width", "out_of_range_fraction", "images"])
        for size in args.sizes:
            rows = [row for _, row in per_image if row.block_size == size]
            if not rows:
                continue
            width = sum(r.mean_range_width for r in rows) / len(rows)
            fraction = sum(r.out_of_range_fraction for r in rows) / len(rows)
            writer.writerow([size, f"{width:.4f}", f"{fraction:.6f}", len(rows)])

    print(f"wrote {csv_path} and {avg_path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
