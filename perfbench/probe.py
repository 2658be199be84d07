"""Set-up probe: in a fresh interpreter, import labt and finish one tiny op.

Prints the seconds spent importing ``labt.cli``, which pulls in the
whole package. ``run.py`` times the process from start to exit.
"""

from time import perf_counter

t0 = perf_counter()
import labt.cli  # noqa: E402,F401
import labt.engine  # noqa: E402
import labt.image_core  # noqa: E402

import_s = perf_counter() - t0

import numpy as np  # noqa: E402

page = (np.arange(64 * 48, dtype=np.int64) * 37 % 251).astype(np.uint8).reshape(64, 48)
result = labt.engine.run_labt(page, labt.engine.LabtConfig(block_w=16, block_h=16))
labt.image_core.write_pgm(result.binary)
print(import_s)
