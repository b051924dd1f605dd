"""CLI-batch benchmark of ``qconstel``.

Drives the package as its users do: batches of CLI jobs (``simulate``,
``sweep``, ``qfi``, ``eigen``, ``decompose``), each an in-process
``qconstel.cli.main(argv)`` call, in a closed loop with one job in flight.
Set-up writes the input files (INI files, Haar unitaries, a netlist); the
workload seed picks the argv of every job and the inputs it names (see
``workloads.py``).  After the timed batch, untimed, every output is checked
against independent oracles and the stored reference outputs.  Times are
reported in seconds of a reference host speed, measured by a kernel timed
between jobs (``hostspeed.py``); raw times are printed beside them.

Usage, from the repository root::

    python3 clibench/run.py --workload crb --seed 1 --seconds 30 --trace 0
    python3 clibench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
job twice, untraced and with every public ``qconstel`` function wrapped
(``spans.py``), alternating which goes first, and reports per-layer calls
and self time per job instead.  The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Regenerate ``reference.json`` with ``make_reference.py`` only when an
output is meant to change; run ``test_smoke.py`` with pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("crb", "sweep", "circuit")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qconstel" / "cli.py").is_file():
        print(f"no qconstel sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    # BLAS and OpenMP pools are pinned to one thread before numpy is imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from harness import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
