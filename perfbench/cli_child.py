"""Run the labt CLI in this process with spans around its calls into labt.

Usage: python3 perfbench/cli_child.py SPANS_FILE binarize IN OUT [OPTIONS]

The traced stand-in for ``python -m labt``: it times the import of
``labt.cli``, runs ``labt.cli.main`` on the remaining arguments inside a
``cli.main`` span and writes the spans to SPANS_FILE for the worker.
"""

import sys
from time import perf_counter

from tracing import Tracer


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import labt.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = labt.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file, {"cli.import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
