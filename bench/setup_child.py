"""Time one set-up in a fresh interpreter: import polishkrige, load an input.

    python3 bench/setup_child.py csv FILE     # CSV -> GridTable
    python3 bench/setup_child.py model FILE   # load_model (factors the system)

Prints the seconds taken, from before the import to the loaded input.
"""

import sys
import time

t0 = time.perf_counter()
import polishkrige  # noqa: E402

kind, path = sys.argv[1], sys.argv[2]
if kind == "csv":
    polishkrige.to_grid(polishkrige.load_observations_csv(path))
elif kind == "model":
    polishkrige.load_model(path)
else:
    sys.exit(f"unknown input kind {kind!r}")
print(repr(time.perf_counter() - t0))
