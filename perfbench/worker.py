"""Measure one workload in a fresh process and print the result as JSON.

Started by ``run.py``; the process runs a closed loop, one op in flight,
walking the workload's op list in order. It stops at the first end of a
whole pass over the list once the ops have kept it busy for
``--seconds``, so every run measures whole copies of the same op mix.
Each op is checked after the clock stops. With ``--trace 1`` ops
alternate between untraced and traced, each kind with its own cursor;
the per-layer figures sum the traced ops of the first pass, so call and
event counts repeat exactly between runs of one seed.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

DEFAULT_SEED = 0
GOLDEN = Path(__file__).with_name("golden.json")


RERECORD = "re-record with perfbench/record_golden.py only if the change is meant to alter outputs"


def load_golden(name, seed, tiny):
    """The recorded digests of a workload, {} when they are missing, or None
    when the run is not on the default seed at full size."""
    if seed != DEFAULT_SEED or tiny:
        return None
    return json.loads(GOLDEN.read_text()).get(name, {}) if GOLDEN.exists() else {}


def compare_golden(golden, op, digests):
    expected = golden.get(op.key)
    if expected is None:
        return [f"golden.json has no digests for {op.key}; {RERECORD}"]
    if expected.get("input") != digests.get("input"):
        return [f"the input page differs from the one recorded in golden.json; {RERECORD}"]
    return [f"{field} differs from the recorded output" for field in sorted(expected) if digests.get(field) != expected[field]]


def peak_rss_kb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


class Loop:
    """Runs ops, times them, checks them and keeps the per-op records."""

    def __init__(self, workload, golden, tracer):
        self.wl = workload
        self.golden = golden
        self.tracer = tracer
        self.records = []  # (traced, op key, seconds, mpix, errors)

    def run_op(self, op, op_id, traced):
        wl, tracer = self.wl, self.tracer
        if traced:
            tracer.op = op_id
            tracer.install()
            wl.traced = True
        out, errors = None, []
        t0 = perf_counter()
        try:
            out = wl.execute(op)
        except Exception:
            errors.append("raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        dt = perf_counter() - t0
        if traced:
            tracer.uninstall()
            wl.traced = False
            tracer.op = None
            if isinstance(wl, workloads.CliA4Coarse) and wl.spans_file.exists():
                spans, counts, extra = Tracer.load(wl.spans_file)
                tracer.merge(spans, counts, op_id)
                if "cli.import_s" in extra:
                    tracer.counts.append(("cli.import_s", extra["cli.import_s"], op_id))
                wl.spans_file.unlink()
        if not errors:
            try:
                found, digests = wl.verify(op, out)
                errors += found
                if self.golden is not None:
                    errors += compare_golden(self.golden, op, digests)
            except Exception:
                errors.append("check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        del out
        self.records.append((traced, op.key, dt, op.mpix, errors))
        return dt


def end_to_end(records, peak_mb):
    times = [dt for _, _, dt, _, _ in records]
    done = sum(mpix for _, _, _, mpix, err in records if not err)
    ms = sorted(t * 1000.0 for t in times)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0]
    return {
        "mpix_per_s": (done / sum(times), "Mpix/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (p90, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def per_layer(tracer, records, first_pass_ids, untraced_ids):
    calls, busy, self_s, totals = summarize(tracer.spans, tracer.counts, first_pass_ids)

    def rate(ids):
        chosen = [(dt, mpix) for i, (_, _, dt, mpix, _) in enumerate(records) if i in ids]
        return sum(m for _, m in chosen) / sum(d for d, _ in chosen)

    combined = totals.get("multiscan.combined_fg", 0)
    imports = [v for name, v, op in tracer.counts if name == "cli.import_s" and op in first_pass_ids]
    m = {}
    for name in ("thresholders.select_threshold", "image_core.histogram", "engine.neighbor_range",
                 "engine.run_labt", "multiscan.run_multiscan", "thresholders.niblack_binarize"):
        m[name + ".calls"] = (calls.get(name, 0), "count")
    for name in ("thresholders.select_threshold", "image_core.histogram", "engine.neighbor_range",
                 "engine.run_labt", "engine.choose_grid", "image_core.pad_to_multiple",
                 "thresholders.niblack_binarize", "image_core.write_pgm"):
        m[name + ".s"] = (busy.get(name, 0.0), "s")
    m["engine.run_labt.self_s"] = (self_s.get("engine.run_labt", 0.0), "s")
    m["multiscan.run_multiscan.self_s"] = (self_s.get("multiscan.run_multiscan", 0.0), "s")
    m["cli.main.self_s"] = (self_s.get("cli.main", 0.0), "s")
    for name in ("engine.blocks", "engine.out_of_range", "engine.non_overlap"):
        m[name] = (int(totals.get(name, 0)), "count")
    m["multiscan.added_fg_frac"] = (totals.get("multiscan.added_fg", 0) / combined if combined else 0.0, "frac")
    m["image_core.read_pgm.p5_s"] = (busy.get("image_core.read_pgm.p5", 0.0), "s")
    m["image_core.read_pgm.p2_s"] = (busy.get("image_core.read_pgm.p2", 0.0), "s")
    m["image_core.read_pgm.mb"] = (totals.get("image_core.read_pgm.bytes", 0) / 1e6, "MB")
    m["image_core.write_pgm.mb"] = (totals.get("image_core.write_pgm.bytes", 0) / 1e6, "MB")
    m["cli.import_s"] = (statistics.median(imports) if imports else None, "s")
    m["trace.overhead_frac"] = (1.0 - rate(first_pass_ids) / rate(untraced_ids), "frac")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--root", required=True)
    args = ap.parse_args(argv)

    root = Path(args.root)
    cache = inputs.InputCache(root / ".bench_cache")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, cache, root)
    result = measure(wl, args.seconds, bool(args.trace), load_golden(wl.name, args.seed, args.tiny))
    if args.trace:
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        result["spans_file"] = str(out / f"spans-{wl.name}-{args.seed}.jsonl")
        result.pop("tracer").dump(result["spans_file"], {"absent": result["absent"]})
    else:
        result.pop("tracer")
    print(json.dumps(result))
    return 0


def measure(wl, seconds, traced_run, golden=None):
    """Warm up, run the closed loop and return metrics plus failure records."""
    tracer = Tracer()
    loop = Loop(wl, golden, tracer)
    children = isinstance(wl, workloads.CliA4Coarse)
    try:
        wl.warm_up()
        base_kb = 0 if children else peak_rss_kb(False)
        busy, cursor = 0.0, {False: 0, True: 0}
        n = len(wl.ops)
        kinds = (False, True) if traced_run else (False,)
        while True:
            whole = all(cursor[k] and cursor[k] % n == 0 for k in kinds)
            if busy >= seconds and whole:
                break
            traced = traced_run and cursor[True] < cursor[False]
            op = wl.ops[cursor[traced] % n]
            busy += loop.run_op(op, len(loop.records), traced)
            cursor[traced] += 1
        peak_mb = (peak_rss_kb(children) - base_kb) / 1024.0
        own_peak_mb = peak_rss_kb(False) / 1024.0
    finally:
        if hasattr(wl, "close"):
            wl.close()

    records = loop.records
    failed = [(key, err) for _, key, _, _, err in records if err]
    result = {
        "attempted": len(records),
        "failed": len(failed),
        "failures": [f"{key}: {err[0]}" for key, err in failed[:10]],
        "golden_checked": golden is not None,
        # A CLI child's peak as the kernel reports it starts at its parent's.
        "rss_floor_mb": own_peak_mb if children else None,
        "tracer": tracer,
        "absent": sorted(set(tracer.absent)),
    }
    if traced_run:
        traced_ids = [i for i, r in enumerate(records) if r[0]]
        untraced_ids = [i for i, r in enumerate(records) if not r[0]]
        metrics = per_layer(tracer, records, set(traced_ids[: len(wl.ops)]), set(untraced_ids[: len(wl.ops)]))
    else:
        metrics = end_to_end(records, peak_mb)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


if __name__ == "__main__":
    sys.exit(main())
