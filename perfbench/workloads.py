"""The benchmark's workloads: their inputs, their ops and how each op is checked.

An op is one page. ``execute`` is the timed call into labt; ``verify``
runs after the clock stops and returns the list of problems found plus
the digests that a default-seed run compares with ``golden.json``.

* ``a4_fine``: ``run_labt(page, LabtConfig())`` on A4 300 dpi text pages,
  where the automatic grid picks 16x16 blocks (34,100 blocks per page).
* ``cli_a4_coarse``: one ``python -m labt binarize ... --block 128x128``
  process per A4 P5 file (560 blocks): start-up, import, PGM I/O and the
  per-pixel passes.
* ``mixed512``: PGM bytes -> ``read_pgm`` -> run -> ``write_pgm`` over a
  deck of 60 configurations on 512x512 pages of six content kinds.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import inputs
from inputs import digest

A4_PAGES = 2
CLI_PAGES = 3
CLI_BLOCK = "128x128"

METHODS = ("otsu", "adcdf", "meank")
MODES = ("strict", "paper")
SEEDING = (True, False)
BLOCKS = (8, 16, 32, 64, None)
NIBLACK_WINDOW, NIBLACK_K = 15, -0.2


def child_env(root: Path) -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Op:
    def __init__(self, key, mpix, **spec):
        self.key = key
        self.mpix = mpix
        self.spec = spec


class A4Fine:
    name = "a4_fine"

    def __init__(self, seed, tiny, cache, root):
        shape = inputs.TINY_A4_SHAPE if tiny else inputs.A4_SHAPE
        scale = shape[0] / inputs.A4_SHAPE[0]

        def build():
            pages = {f"page{i}": inputs.document_page(inputs.rng_for(seed, 0, i), shape, scale) for i in range(A4_PAGES)}
            return pages, {}

        arrays, _ = cache.load(self.name, tiny, seed, build)
        self.pages = [arrays[f"page{i}"] for i in range(A4_PAGES)]
        self.warm_page = inputs.document_page(inputs.rng_for(seed, 9, 0), (96, 64), 0.03)
        self.ops = [Op(f"page{i}", p.size / 1e6, page=i) for i, p in enumerate(self.pages)]

    def warm_up(self):
        import labt.engine as engine

        engine.run_labt(self.warm_page, engine.LabtConfig())
        engine.run_labt(self.warm_page, engine.LabtConfig(block_w=16, block_h=16))

    def execute(self, op):
        import labt.engine as engine

        return engine.run_labt(self.pages[op.spec["page"]], engine.LabtConfig())

    def verify(self, op, res):
        page = self.pages[op.spec["page"]]
        digests = {"input": digest(page), **checks.result_digests(res)}
        return checks.check_labt(page, res, strict=True), digests


def source_digest(root: Path) -> str:
    """Digest of the labt sources, so cached references follow code edits."""
    files = sorted((root / "src" / "labt").rglob("*.py"))
    return digest(b"".join(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes() for f in files))


class CliA4Coarse:
    """CLI processes on A4 files.

    Each op's stdout and output file must equal those of the in-process
    ``run_labt`` and ``write_pgm`` for its page, which must themselves pass
    the invariant checks. Those references are computed by ``prepare.py``
    in its own process, and the worker compares files by streamed digests,
    so the worker that starts the CLI processes never holds a page: the
    kernel counts a child's peak memory from its parent's peak at start.
    """

    name = "cli_a4_coarse"

    def __init__(self, seed, tiny, cache, root):
        shape = inputs.TINY_A4_SHAPE if tiny else inputs.A4_SHAPE
        scale = shape[0] / inputs.A4_SHAPE[0]

        def build():
            pages = [inputs.document_page(inputs.rng_for(seed, 1, i), shape, scale) for i in range(CLI_PAGES)]
            files = {f"page{i}.pgm": inputs.encode_p5(p) for i, p in enumerate(pages)}
            warm = inputs.document_page(inputs.rng_for(seed, 9, 1), (96, 64), 0.03)
            files["warm.pgm"] = inputs.encode_p5(warm)
            return {}, files

        _, folder = cache.load(self.name, tiny, seed, build)
        self.root = root
        self.env = child_env(root)
        self.folder = folder
        self.refs = folder / f"ref-{source_digest(root)}"
        self.out = folder / f"out-{os.getpid()}.pgm"
        self.spans_file = folder / f"spans-{os.getpid()}.jsonl"
        mpix = shape[0] * shape[1] / 1e6
        self.ops = [Op(f"page{i}", mpix, page=i) for i in range(CLI_PAGES)]
        self.traced = False  # set by the worker around traced ops

    def prepare(self):
        import labt.engine as engine
        import labt.image_core as image_core

        bw, bh = map(int, CLI_BLOCK.split("x"))
        self.refs.mkdir(exist_ok=True)
        for i in range(CLI_PAGES):
            if (self.refs / f"page{i}.json").exists():
                continue
            page = inputs.decode_p5((self.folder / f"page{i}.pgm").read_bytes())
            res = engine.run_labt(page, engine.LabtConfig(block_w=bw, block_h=bh))
            data = image_core.write_pgm(res.binary)
            ref = {
                "errors": checks.check_labt(page, res, strict=True)
                + checks.check_pgm_out(checks.as_pixels(res.binary), data, image_core.read_pgm),
                "stdout": f"out_of_range_count={res.out_of_range_count} non_overlap_count={res.non_overlap_count}\n",
                "output": digest(data),
                "digests": checks.result_digests(res),
            }
            inputs.atomic_write(self.refs / f"page{i}.json", json.dumps(ref).encode())

    def command(self, page_file):
        args = ["binarize", str(page_file), str(self.out), "--block", CLI_BLOCK]
        if self.traced:
            shim = Path(__file__).with_name("cli_child.py")
            return [sys.executable, str(shim), str(self.spans_file)] + args
        return [sys.executable, "-m", "labt"] + args

    def warm_up(self):
        proc = subprocess.run(self.command(self.folder / "warm.pgm"), cwd=self.root, env=self.env, capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(f"CLI warm-up failed: {proc.stderr.decode(errors='replace')}")

    def execute(self, op):
        page_file = self.folder / f"page{op.spec['page']}.pgm"
        return subprocess.run(self.command(page_file), cwd=self.root, env=self.env, capture_output=True)

    def verify(self, op, proc):
        i = op.spec["page"]
        ref = json.loads((self.refs / f"page{i}.json").read_text())
        errors = [f"in-process reference: {e}" for e in ref["errors"]]
        if proc.returncode != 0:
            return errors + [f"CLI exited {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}"], {}
        stdout = proc.stdout.decode(errors="replace")
        if stdout != ref["stdout"]:
            errors.append(f"CLI printed {stdout!r}, expected {ref['stdout']!r}")
        output = inputs.file_digest(self.out)
        if output != ref["output"]:
            errors.append("CLI output file differs from write_pgm of the in-process result")
        digests = {"input": inputs.file_digest(self.folder / f"page{i}.pgm"), "stdout": stdout, "output": output, **ref["digests"]}
        return errors, digests

    def close(self):
        for path in (self.out, self.spans_file):
            path.unlink(missing_ok=True)


def mixed_deck():
    """The 60 configurations of one deck, in a fixed interleaved order.

    Every (method, mode, global seed, block) combination appears once. One
    op in five is a multiscan and one in ten is Niblack, spread so every
    block size meets both; the stride-37 order interleaves cheap and
    costly entries.
    """
    combos = list(itertools.product(METHODS, MODES, SEEDING, BLOCKS))
    deck = []
    for i, (method, mode, seeding, block) in enumerate(combos):
        j, b = divmod(i, len(BLOCKS))
        if (j + b) % 5 == 0:
            kind = "multiscan"
        elif (j + b) % 5 == 1 and j % 2 == 0:
            kind = "niblack"
        else:
            kind = "labt"
        deck.append(dict(op=kind, method=method, mode=mode, seed_global=seeding, block=block))
    return [deck[(p * 37) % len(deck)] for p in range(len(deck))]


class Mixed512:
    """PGM bytes -> read_pgm -> run -> write_pgm on 512x512 pages.

    The deck fixes each entry's configuration, content kind and encoding;
    the seed draws the page contents. Entry ``p`` gets content kind
    ``p % 6``, which meets every block size twice, and entries 3, 14, ...,
    58 arrive as ASCII P2 (one in ten, one of each kind).
    """

    name = "mixed512"

    def __init__(self, seed, tiny, cache, root):
        side = inputs.TINY_MIXED_SIDE if tiny else inputs.MIXED_SIDE
        deck = mixed_deck()
        kinds = [inputs.KINDS[p % len(inputs.KINDS)] for p in range(len(deck))]
        ascii_entries = set(range(3, len(deck), 11))

        def build():
            arrays = {}
            for i, kind in enumerate(kinds):
                page = inputs.mixed_page(kind, inputs.rng_for(seed, 3, i), side)
                encode = inputs.encode_p2 if i in ascii_entries else inputs.encode_p5
                arrays[f"page{i}"] = page
                arrays[f"pgm{i}"] = np.frombuffer(encode(page), dtype=np.uint8)
            return arrays, {}

        arrays, _ = cache.load(self.name, tiny, seed, build)
        self.pages = [arrays[f"page{i}"] for i in range(len(deck))]
        # The loaded arrays stay referenced: memory freed before the first
        # op would hide the ops' own peak from the high-water mark.
        self.arrays = arrays
        self.data = [arrays[f"pgm{i}"].tobytes() for i in range(len(deck))]
        self.ops = []
        for i, entry in enumerate(deck):
            block = "auto" if entry["block"] is None else entry["block"]
            fmt = "p2" if i in ascii_entries else "p5"
            seeding = "gseed" if entry["seed_global"] else "own"
            if entry["op"] == "niblack":
                key = f"e{i:02d}:niblack:{kinds[i]}:{fmt}"
            else:
                key = f"e{i:02d}:{entry['op']}:{entry['method']}:{entry['mode']}:b{block}:{seeding}:{kinds[i]}:{fmt}"
            self.ops.append(Op(key, self.pages[i].size / 1e6, index=i, **entry))
        warm = inputs.mixed_page("doc", inputs.rng_for(seed, 9, 2), 48)
        self.warm = [inputs.encode_p5(warm), inputs.encode_p2(warm)]

    @staticmethod
    def config(spec):
        import labt.engine as engine
        import labt.thresholders as th

        method = {"otsu": th.Otsu, "adcdf": th.Adcdf, "meank": th.MeanK}[spec["method"]]()
        block = spec["block"]
        return engine.LabtConfig(method=method, block_w=block, block_h=block, mode=spec["mode"], seed_global=spec["seed_global"])

    def warm_up(self):
        for data in self.warm:
            for kind in ("labt", "multiscan", "niblack"):
                self._run(data, dict(op=kind, method="otsu", mode="strict", seed_global=True, block=8))

    def _run(self, data, spec):
        import labt.image_core as image_core
        import labt.multiscan as multiscan
        import labt.thresholders as th
        import labt.engine as engine

        img = image_core.read_pgm(data)
        if spec["op"] == "niblack":
            res = th.niblack_binarize(img, th.NiblackParams(window=NIBLACK_WINDOW, k=NIBLACK_K))
            binary = res
        elif spec["op"] == "multiscan":
            res = multiscan.run_multiscan(img, self.config(spec))
            binary = res.combined
        else:
            res = engine.run_labt(img, self.config(spec))
            binary = res.binary
        return img, res, image_core.write_pgm(binary)

    def execute(self, op):
        return self._run(self.data[op.spec["index"]], op.spec)

    def verify(self, op, out):
        import labt.image_core as image_core

        img, res, data = out
        spec = op.spec
        page = self.pages[spec["index"]]
        digests = {"input": digest(self.data[spec["index"]]), "output": digest(data)}
        errors = [] if np.array_equal(img, page) else ["read_pgm did not return the encoded page"]
        strict = spec["mode"] == "strict"
        if spec["op"] == "niblack":
            binary = res
            errors += checks.check_niblack(page, res, NIBLACK_WINDOW, NIBLACK_K)
            digests["binary"] = checks.value_digest(np.asarray(res))
        elif spec["op"] == "multiscan":
            binary = res.combined
            errors += checks.check_multiscan(page, res, strict)
            digests["combined"] = checks.value_digest(res.combined)
            for i, run in enumerate(res.runs):
                digests.update(checks.result_digests(run, prefix=f"runs[{i}]."))
        else:
            binary = res.binary
            errors += checks.check_labt(page, res, strict)
            digests.update(checks.result_digests(res))
        errors += checks.check_pgm_out(checks.as_pixels(binary), data, image_core.read_pgm)
        return errors, digests


WORKLOADS = {cls.name: cls for cls in (A4Fine, CliA4Coarse, Mixed512)}
