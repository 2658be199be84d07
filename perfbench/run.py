"""Benchmark of the labt library, measured from outside the package.

Usage (from the repository root):

    python3 perfbench/run.py --workload a4_fine|cli_a4_coarse|mixed512
        [--seed N] [--seconds S] [--trace 0|1]

The run generates the workload's pages from ``--seed`` (cached under
``.bench_cache/``), times set-up in fresh interpreters, then measures
the workload in a fresh worker process (``worker.py``) with one op in
flight at a time. It prints a summary and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. Spans of a traced run are written to ``.bench_out/``.
The package is run from ``src/`` without installing it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 7
DEADLINE_S = 170


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def setup_probes(count: int, env: dict) -> tuple[list[float], list[float]]:
    """Wall seconds from interpreter start to a finished tiny op, and the
    import seconds each probe reports."""
    walls, imports = [], []
    for _ in range(count):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py")], cwd=ROOT, env=env, capture_output=True, timeout=60)
        walls.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: " + proc.stderr.decode(errors="replace").strip())
        imports.append(float(proc.stdout.decode().split()[-1]))
    return walls, imports


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small pages, for the benchmark's self-test")
    args = ap.parse_args(argv)
    started = perf_counter()

    if not (ROOT / "src" / "labt" / "__init__.py").is_file():
        return fail(f"no labt sources under {ROOT / 'src'}; run from a checkout of the repository")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    env = workloads.child_env(ROOT)

    common = ["--workload", args.workload, "--seed", str(args.seed), "--root", str(ROOT)] + (["--tiny"] if args.tiny else [])
    try:
        prep = subprocess.run([sys.executable, str(HERE / "prepare.py")] + common, cwd=ROOT, env=env, timeout=120)
        if prep.returncode != 0:
            return fail(f"preparing the inputs failed with code {prep.returncode}")
        walls, imports = setup_probes(3 if args.tiny else PROBES, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    cmd = [sys.executable, str(HERE / "worker.py"), "--seconds", str(args.seconds), "--trace", str(args.trace)] + common
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(DEADLINE_S - (perf_counter() - started), 10))
    except subprocess.TimeoutExpired:
        return fail("the worker did not finish in time")
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        return fail(f"the worker exited with code {proc.returncode}")
    res = json.loads(lines[-1])

    metrics = res["metrics"]
    if args.trace:
        if metrics["cli.import_s"]["value"] is None:
            metrics["cli.import_s"]["value"] = statistics.median(imports)
    else:
        metrics["setup_s"] = {"value": statistics.median(walls), "unit": "s"}

    attempted, failed = res["attempted"], res["failed"]
    print("machine: " + json.dumps(machine()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {attempted} ops, "
          f"fail_frac {failed / attempted:.4f} ({failed}/{attempted}), "
          f"golden.json digests {'checked' if res['golden_checked'] else 'not used (seed is not 0 or pages are tiny)'}")
    for name, m in metrics.items():
        note = f"  (n={attempted})" if name == "op_ms_p90" else ""
        print(f"  {name:36s} {m['value']!s:>24} {m['unit']}{note}")
    if res["rss_floor_mb"] is not None:
        print(f"  peak_rss_mb of the CLI children cannot read below the worker's own peak, {res['rss_floor_mb']:.1f} MB")
    for line in res["failures"]:
        print(f"  FAILED {line}")
    if res["absent"]:
        print("  absent (not wrapped): " + ", ".join(res["absent"]))
    if args.trace:
        print(f"  spans: {res['spans_file']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
