"""Time a fresh interpreter's `import proofsketch` plus `load_dataset`.

Usage: python3 bench/setup_probe.py <src dir> <dataset.jsonl>

Prints one JSON object: the seconds from before the import to after the
load, the number of records loaded, and the file the package came from.
"""

import json
import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import proofsketch  # noqa: E402

loaded = proofsketch.load_dataset(sys.argv[2])
elapsed = time.perf_counter() - started
print(json.dumps({"seconds": elapsed, "records": len(loaded.records),
                  "module": proofsketch.__file__}))
