"""Digest the CLI outputs of every clibench pool member, and compare two digests.

Every pool member of the ``crb``, ``sweep`` and ``circuit`` workloads (see
``clibench/workloads.py``) is run once through ``qconstel.cli.main`` from the
source tree of a checkout, and each output is checked against the clibench
oracles and ``clibench/reference.json`` (``clibench/checks.py``).  Comparing
the digests of two checkouts shows which outputs a change moved, and by how
much.

Usage, from the repository root::

    python3 tools/pool_digest.py --src ../parent --out parent.json
    python3 tools/pool_digest.py --src . --out change.json
    python3 tools/pool_digest.py --compare parent.json change.json

``--src`` names a checkout; its ``src/`` is imported.  The clibench modules
are those next to this script.  Jobs run in a fresh temporary directory and
name their inputs by relative paths, so the config hashes in the outputs do
not depend on where the run happens.

Each record also digests stdout and the output file with their config
hashes masked (the ``# config`` and ``# config_hash=`` lines and the JSON
``config_hash`` key).  ``--compare`` counts the members that differ only in
their config hash separately, per template.  It lists the members whose exit
code, stderr or masked stdout or output file differ, and per template the
largest absolute difference between the parsed numbers of the two outputs
(netlist angles modulo 2 pi, as the reference check compares them).  It
exits 1 if a member fails its checks in either digest or is missing from one.

Compare only digests made on one host.  ``decompose`` prints Reck angles to
17 digits, and their last bits depend on which implementation
``np.arctan2`` (and ``np.angle``) dispatch to, so digests from two hosts may
differ where no code changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "clibench"))

from checks import check_output, extract, reference_kind  # noqa: E402
from workloads import TEMPLATES, templates, write_inputs  # noqa: E402


HASH_LINE = re.compile(rb"^(# config |# config_hash=)[0-9a-f]+$", re.MULTILINE)
HASH_KEY = re.compile(rb'^(\s*"config_hash": )"[0-9a-f]+"', re.MULTILINE)
FIELDS = ("code", "stdout_sha256", "out_sha256", "stderr")
MASKED_FIELDS = ("code", "stdout_masked_sha256", "out_masked_sha256", "stderr")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _masked(data: bytes) -> bytes:
    """``data`` with its config hashes replaced by ``-``."""
    return HASH_KEY.sub(rb'\1"-"', HASH_LINE.sub(rb"\1-", data))


def digest(src: Path) -> dict:
    """Run every pool member from the checkout ``src``; one record per member."""
    sys.path.insert(0, str(src.resolve() / "src"))
    import qconstel.cli as cli

    reference = json.loads((ROOT / "clibench" / "reference.json").read_text(encoding="utf-8"))
    members = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="pool-digest-") as work:
        os.chdir(work)
        try:
            for workload in TEMPLATES:
                inputs = Path(workload)
                write_inputs(workload, inputs, cli.main)
                for t in templates(workload):
                    for member in t.pool:
                        job = t.build(member, inputs)
                        members[job.key] = _run(cli, job, Path(f"out{job.suffix}"), reference)
        finally:
            os.chdir(cwd)
    return {"src": str(src.resolve()), "cli": cli.__file__, "members": members}


def _run(cli, job, out: Path, reference: dict) -> dict:
    if out.exists():
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([*job.argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    text, data = stdout.getvalue().encode(), out.read_bytes() if out.exists() else None
    record = {
        "template": f"{job.key.split('/')[0]}/{job.template}",
        "code": code,
        "stdout_sha256": _sha256(text),
        "out_sha256": None if data is None else _sha256(data),
        "stdout_masked_sha256": _sha256(_masked(text)),
        "out_masked_sha256": None if data is None else _sha256(_masked(data)),
        "stderr": stderr.getvalue(),
        "angles": reference_kind(job) == "netlist",
        "parsed": None,
        "problems": [],
    }
    if code != 0:
        record["problems"].append(f"exit code {code}")
    elif not out.exists():
        record["problems"].append("no output file")
    else:
        record["parsed"] = extract(job, out)
        record["problems"] = check_output(job, out, reference).problems
    return record


def _numbers(doc):
    """The numbers of a parsed output in document order (ints included)."""
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from _numbers(doc[k])
    elif isinstance(doc, list):
        for x in doc:
            yield from _numbers(x)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield doc


def drift(a, b, angles: bool) -> float:
    """Largest |a - b| over the numbers of two parsed outputs; inf if their shapes differ."""
    xs, ys = list(_numbers(a)), list(_numbers(b))
    if len(xs) != len(ys):
        return math.inf
    worst = 0.0
    for x, y in zip(xs, ys):
        d = abs(x - y)
        if angles:
            d = min(d % (2.0 * math.pi), 2.0 * math.pi - d % (2.0 * math.pi))
        worst = max(worst, d)
    return worst


def compare(a: dict, b: dict) -> int:
    ma, mb = a["members"], b["members"]
    failing = 0
    for name, members in (("A", ma), ("B", mb)):
        for key, rec in sorted(members.items()):
            if rec["problems"]:
                failing += 1
                print(f"{name} FAIL {key}: {'; '.join(rec['problems'])}")
    only = sorted(set(ma) ^ set(mb))
    for key in only:
        print(f"only in {'A' if key in ma else 'B'}: {key}")
    per_template: dict[str, list] = {}
    hash_only: dict[str, int] = {}
    same = 0
    for key in sorted(set(ma) & set(mb)):
        ra, rb = ma[key], mb[key]
        changed = [f for f in FIELDS if ra[f] != rb[f]]
        if not changed:
            same += 1
            continue
        if all(f in ra and f in rb and ra[f] == rb[f] for f in MASKED_FIELDS):
            hash_only[ra["template"]] = hash_only.get(ra["template"], 0) + 1
            continue
        d = drift(ra["parsed"], rb["parsed"], ra["angles"])
        print(f"differs {key}: {', '.join(changed)}; drift {d:.3g}")
        if ra["code"] != rb["code"]:
            print(f"  exit {ra['code']} -> {rb['code']}")
        entry = per_template.setdefault(ra["template"], [0, 0.0])
        entry[0] += 1
        entry[1] = max(entry[1], d)
    print(f"{len(ma)} members in A, {len(mb)} in B; {same} identical, "
          f"{sum(n for n, _ in per_template.values())} differ, {failing} failing checks; "
          f"{sum(hash_only.values())} differ only in their config hash")
    for template, (n, worst) in sorted(per_template.items()):
        print(f"  {template}: {n} differ, largest drift {worst:.3g}")
    for template, n in sorted(hash_only.items()):
        print(f"  {template}: {n} differ only in their config hash")
    return 1 if failing or only else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, help="checkout whose src/ runs the pool")
    ap.add_argument("--out", type=Path, help="digest file to write")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two digest files")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        return compare(a, b)
    if not (args.src and args.out):
        ap.error("give --src and --out, or --compare A B")
    doc = digest(args.src)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    bad = sum(bool(r["problems"]) for r in doc["members"].values())
    print(f"{len(doc['members'])} pool members digested, {bad} failing checks")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
