"""One timed set-up in a fresh interpreter, as ``harness.setup`` runs it::

    python3 clibench/setup_once.py <workload> <work dir> <tag>

Times the import of ``qconstel.cli`` (numpy and everything else it pulls
in), writing the workload's inputs and its warm-up job, and prints the
seconds.  Importing the benchmark's own modules is left out of the time.
BLAS thread settings come from the environment of the caller.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    workload, work, tag = argv
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    cli = importlib.import_module("qconstel.cli")
    imported = time.perf_counter() - start
    from harness import prepare

    start = time.perf_counter()
    prepare(cli, workload, Path(work), tag)
    print(imported + time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
