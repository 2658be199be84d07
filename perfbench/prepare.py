"""Generate a workload's pages for one seed, plus the references its checks need.

Usage: python3 perfbench/prepare.py --workload NAME --seed N --root DIR [--tiny]

``run.py`` runs this in its own process before the worker starts, so
neither the generator's memory nor the reference runs count towards the
worker's or its children's peak memory.
"""

import argparse
import sys
from pathlib import Path

import inputs
import workloads


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    root = Path(args.root)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, inputs.InputCache(root / ".bench_cache"), root)
    if hasattr(wl, "prepare"):
        wl.prepare()
    return 0


if __name__ == "__main__":
    sys.exit(main())
