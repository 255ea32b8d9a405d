"""Set-up time a command-line user pays on every invocation, in a fresh interpreter.

Usage: ``python3 bench/setup_probe.py <src dir> <config.json>``

Times, from the first statement: importing ``truncgibbs`` and its CLI
(numpy and scipy come with them), loading and resolving the config with
the CLI's own resolvers, building the geometry and neighbour table, and
the first BLAS and ``scipy.special`` calls.  Prints the seconds as the
only line of output.
"""

import sys
import time

START = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import truncgibbs as tg  # noqa: E402
from truncgibbs import cli  # noqa: E402

if Path(tg.__file__).resolve().parent.parent != Path(sys.argv[1]).resolve():
    sys.exit(f"imported truncgibbs from {tg.__file__}, not from {sys.argv[1]}")

cfg = cli._load_config(sys.argv[2])
kernel, _ = cli._kernel_from(cfg)
interval, _ = cli._interval_from(cfg)
if "geometry" in cfg:
    geometry, _ = cli._geometry_from(cfg, kernel)
else:
    geometry = tg.LatticeGeometry.box(cli._volume_from(cfg), kernel)
table = tg.wrapped_offsets(kernel, geometry)
scipy.linalg.cho_factor(2.0 * np.eye(8), lower=True)
tg.inverse_cdf(tg.TruncatedNormal(interval.midpoint, interval), 0.5)

print(repr(time.perf_counter() - START))
