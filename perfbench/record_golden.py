"""Record the default-seed digests that later runs compare with.

Usage: python3 perfbench/record_golden.py [WORKLOAD ...]

Runs every op of each named workload (default: all) once on the default
seed at full size, checks it, and writes the digests of its inputs,
outputs and every ``LabtResult`` field to ``golden.json``. Record only on
a commit whose outputs are the reference: every later run on the default
seed fails an op whose digests differ.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from worker import DEFAULT_SEED, GOLDEN  # noqa: E402


def main(names):
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    cache = inputs.InputCache(ROOT / ".bench_cache")
    for name in names or sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name](DEFAULT_SEED, False, cache, ROOT)
        if hasattr(wl, "prepare"):
            wl.prepare()
        record = {}
        try:
            for op in wl.ops:
                errors, digests = wl.verify(op, wl.execute(op))
                if errors:
                    raise SystemExit(f"{name} {op.key}: {errors}")
                record[op.key] = digests
                print(f"{name} {op.key}", flush=True)
        finally:
            if hasattr(wl, "close"):
                wl.close()
        golden[name] = record
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
