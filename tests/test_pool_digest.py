"""``tools/pool_digest.py``: its comparison on small synthetic digests, and one digest
of the working tree, which runs every clibench pool member through the CLI once."""

import hashlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "pool_digest.py"


@pytest.fixture(scope="module")
def pool_digest():
    spec = importlib.util.spec_from_file_location("pool_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(template, parsed, angles=False, problems=(), config_hash="0123456789ab"):
    """One member record as ``digest`` writes it, hashed from its parsed output."""
    text = json.dumps(parsed).encode()
    sha, masked = (hashlib.sha256(b"# config " + h + b"\n" + text).hexdigest()
                   for h in (config_hash.encode(), b"-"))
    return {"template": template, "code": 0, "stdout_sha256": sha, "out_sha256": sha,
            "stdout_masked_sha256": masked, "out_masked_sha256": masked,
            "stderr": "", "angles": angles, "parsed": parsed, "problems": list(problems)}


def sample_digest():
    return {"members": {
        "sweep/ring16-eigvals/idx=0": record("sweep/ring16-eigvals", {"rows": [[0.5, 0.25, 0.75]]}),
        "circuit/haar4/idx=0": record("circuit/haar4", {"elements": [["BS", 0, 1, 0.3, math.pi - 1e-9]]},
                                      angles=True),
    }}


def test_identical_digests_exit_zero(pool_digest, capsys):
    assert pool_digest.compare(sample_digest(), sample_digest()) == 0
    out = capsys.readouterr().out
    assert "2 identical, 0 differ, 0 failing checks" in out
    assert "differs" not in out


def test_moved_numbers_print_their_drift(pool_digest, capsys):
    b = sample_digest()
    members = b["members"]
    members["sweep/ring16-eigvals/idx=0"] = record("sweep/ring16-eigvals", {"rows": [[0.5, 0.25 + 3e-14, 0.75]]})
    # an angle that wraps across pi moves by 2e-9 modulo 2 pi, not by 2 pi
    members["circuit/haar4/idx=0"] = record("circuit/haar4", {"elements": [["BS", 0, 1, 0.3, -math.pi + 1e-9]]},
                                            angles=True)
    assert pool_digest.compare(sample_digest(), b) == 0
    out = capsys.readouterr().out
    assert "differs sweep/ring16-eigvals/idx=0: stdout_sha256, out_sha256; drift 3e-14" in out
    assert "differs circuit/haar4/idx=0: stdout_sha256, out_sha256; drift 2e-09" in out
    assert "0 identical, 2 differ, 0 failing checks" in out
    assert "sweep/ring16-eigvals: 1 differ, largest drift 3e-14" in out


def test_members_that_differ_only_in_their_config_hash_are_counted_apart(pool_digest, capsys):
    b = sample_digest()
    members = b["members"]
    rows = {"rows": [[0.5, 0.25, 0.75]]}
    members["sweep/ring16-eigvals/idx=0"] = record("sweep/ring16-eigvals", rows, config_hash="ba9876543210")
    assert pool_digest.compare(sample_digest(), b) == 0
    out = capsys.readouterr().out
    assert "differs" not in out
    assert "1 identical, 0 differ, 0 failing checks; 1 differ only in their config hash" in out
    assert "sweep/ring16-eigvals: 1 differ only in their config hash" in out
    # a content change next to a hash change still counts as a difference
    members["sweep/ring16-eigvals/idx=0"] = record("sweep/ring16-eigvals", {"rows": [[0.5, 0.25, 0.5]]},
                                                   config_hash="ba9876543210")
    assert pool_digest.compare(sample_digest(), b) == 0
    out = capsys.readouterr().out
    assert "differs sweep/ring16-eigvals/idx=0: stdout_sha256, out_sha256; drift 0.25" in out
    assert "1 identical, 1 differ, 0 failing checks; 0 differ only in their config hash" in out


def test_masking_blanks_every_config_hash_form(pool_digest):
    text = (b'# config 0123456789ab\n  r  qfi\n# config_hash=0123456789ab\n'
            b'{\n  "config_hash": "0123456789ab",\n  "qfim": [[4.0]]\n}\n')
    assert pool_digest._masked(text) == (b'# config -\n  r  qfi\n# config_hash=-\n'
                                         b'{\n  "config_hash": "-",\n  "qfim": [[4.0]]\n}\n')
    # a hash-like value under any other key or comment is content
    other = b'# elements: 3\n{"netlist_hash": "0123456789ab"}\n'
    assert pool_digest._masked(other) == other


def test_failing_member_exits_one(pool_digest, capsys):
    b = sample_digest()
    b["members"]["circuit/haar4/idx=0"]["problems"] = ["unitary distance 1e-3 > 1e-9"]
    assert pool_digest.compare(sample_digest(), b) == 1
    out = capsys.readouterr().out
    assert "B FAIL circuit/haar4/idx=0: unitary distance 1e-3 > 1e-9" in out
    assert "1 failing checks" in out


def test_member_in_one_digest_only_exits_one(pool_digest, capsys):
    b = sample_digest()
    del b["members"]["circuit/haar4/idx=0"]
    assert pool_digest.compare(sample_digest(), b) == 1
    assert "only in A: circuit/haar4/idx=0" in capsys.readouterr().out
    assert pool_digest.compare(b, sample_digest()) == 1
    assert "only in B: circuit/haar4/idx=0" in capsys.readouterr().out


def test_every_pool_member_passes_its_checks(pool_digest):
    # each of the benchmark's outputs meets the clibench oracles and its reference
    # within REFERENCE_TOL, so a change that moves one fails here, not only in the benchmark
    members = pool_digest.digest(ROOT)["members"]
    reference = json.loads((ROOT / "clibench" / "reference.json").read_text(encoding="utf-8"))
    assert members.keys() == reference.keys()
    failing = {key: rec["problems"] for key, rec in members.items() if rec["problems"]}
    assert failing == {}
