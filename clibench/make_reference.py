"""Write ``reference.json``: the parsed CLI output of every pool member.

Run from the repository root with ``python3 clibench/make_reference.py``.
Each output must pass its oracle checks before it is stored, so a pool
member that fails at the commit the references are taken from is
reported instead of recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import check_output, extract  # noqa: E402
from harness import run_job  # noqa: E402
import qconstel.cli as cli  # noqa: E402
from workloads import TEMPLATES, templates, write_inputs  # noqa: E402


def main() -> int:
    refs = {}
    bad = 0
    work = Path(tempfile.mkdtemp(prefix="clibench-ref-", dir=HERE.parent))
    try:
        for workload in TEMPLATES:
            inputs = work / workload
            write_inputs(workload, inputs, cli.main)
            for t in templates(workload):
                for member in t.pool:
                    job = t.build(member, inputs)
                    out = work / f"out{job.suffix}"
                    _, code, err = run_job(cli, job, out)
                    verdict = check_output(job, out, None) if code == 0 else None
                    if verdict is None or verdict.problems:
                        bad += 1
                        why = err.strip() if verdict is None else "; ".join(verdict.problems)
                        print(f"{job.key}: {why}", file=sys.stderr)
                        continue
                    refs[job.key] = extract(job, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [f"{json.dumps(k)}: {json.dumps(refs[k], separators=(',', ':'))}" for k in sorted(refs)]
    (HERE / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(refs)} references written, {bad} pool members failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
