import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qconstel.circuit import from_text, netlist_unitary, to_text, preset_circuit
from qconstel.cli import SETTINGS, build_parser, config_hash, main, resolve_config
import qconstel
from qconstel.linalg import unitary_distance


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qfi_pair(capsys):
    code, out, _ = run(capsys, ["qfi", "--kind", "pair", "--p", "1", "--r", "0.3"])
    assert code == 0
    assert "# config " in out
    assert "max |numeric - analytic|" in out


def test_qfi_check_pass_and_fail(capsys):
    code, _, _ = run(capsys, ["qfi", "--kind", "pair", "--p", "1", "--r", "0.3", "--check", "1e-5"])
    assert code == 0
    code, _, err = run(
        capsys, ["qfi", "--kind", "ring", "--n", "3", "--p", "1", "--r", "0.7", "--check", "1e-5"]
    )
    assert code == 4
    assert "self-check failed" in err


def test_qfi_csv_and_json_outputs(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    code, _, _ = run(
        capsys,
        ["qfi", "--kind", "rect", "--px", "1", "--py", "0.5", "--x0", "0.4", "--y0", "0.8",
         "--out", str(csv_path)],
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "mu,nu,numeric,analytic,abs_diff"
    assert len(lines) == 6  # 2x2 matrix entries

    json_path = tmp_path / "out.json"
    code, _, _ = run(
        capsys,
        ["qfi", "--kind", "pair", "--r", "0.3", "--out", str(json_path), "--format", "json"],
    )
    assert code == 0
    doc = json.loads(json_path.read_text())
    assert abs(doc["qfim"][0][0] - 4.0) <= 1e-5
    assert "config_hash" in doc


def test_byte_identical_reruns(tmp_path, capsys):
    args = ["sweep", "--kind", "ring", "--n", "4", "--p", "1", "--start", "0.2",
            "--stop", "0.8", "--count", "4"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(capsys, args + ["--out", str(a)])[0] == 0
    assert run(capsys, args + ["--out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_eigen_zero_radius(capsys):
    code, out, _ = run(capsys, ["eigen", "--kind", "ring", "--n", "4", "--p", "1", "--r", "0"])
    assert code == 0
    rows = [ln.split() for ln in out.splitlines() if ln and not ln.startswith(("#", "lambda"))]
    weights = [float(r[1]) for r in rows]
    assert np.allclose(weights, [1, 0, 0, 0], atol=1e-12)


def test_eigen_matches_table(capsys):
    code, out, _ = run(capsys, ["eigen", "--kind", "pair", "--p", "1", "--r", "0.4"])
    assert code == 0
    rows = [ln.split() for ln in out.splitlines() if ln and not ln.startswith(("#", "lambda"))]
    diffs = [float(r[3]) for r in rows]
    assert max(diffs) <= 1e-9


def test_simulate_csv_format(tmp_path, capsys):
    out_path = tmp_path / "study.csv"
    code, out, _ = run(
        capsys,
        ["simulate", "--kind", "pair", "--p", "1", "--r", "0.3", "--photons", "300,900",
         "--trials", "20", "--seed", "3", "--out", str(out_path)],
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[1] == "M,trials,mse,crb,ratio"
    assert len(lines) == 4
    first = lines[2].split(",")
    assert first[0] == "300" and first[1] == "20"


def test_simulate_two_source_ring_is_the_pair(tmp_path, capsys):
    # the default interval stops short of the pair likelihood's mirror at pi/(2p)
    rows = {}
    for kind in ("pair", "ring"):
        out_path = tmp_path / f"{kind}.csv"
        code, _, _ = run(
            capsys,
            ["simulate", "--kind", kind, "--n", "2", "--r", "0.3", "--trials", "40",
             "--photons", "10000", "--out", str(out_path)],
        )
        assert code == 0
        rows[kind] = out_path.read_text().splitlines()
    assert rows["ring"][0] != rows["pair"][0]  # the config hash line
    assert rows["ring"][1:] == rows["pair"][1:]
    assert float(rows["ring"][2].split(",")[4]) < 2.0


def test_simulate_direct_detection_exit_3(capsys):
    code, _, err = run(
        capsys,
        ["simulate", "--kind", "pair", "--r", "0.3", "--photons", "100", "--trials", "5",
         "--basis", "direct"],
    )
    assert code == 3
    assert "numerical failure" in err


def test_simulate_netlist_basis(tmp_path, capsys):
    netfile = tmp_path / "pair.net"
    netfile.write_text(to_text(preset_circuit("pair")) or "BS 0 1 0.78539816339744828 0\n")
    code, out, _ = run(
        capsys,
        ["simulate", "--kind", "pair", "--r", "0.3", "--photons", "400", "--trials", "10",
         "--basis", "netlist", "--netlist", str(netfile)],
    )
    assert code == 0


def test_decompose_roundtrip_through_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    from qconstel.linalg import haar_unitary

    u = haar_unitary(4, rng)
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"matrix": [[[z.real, z.imag] for z in row] for row in u]}))
    netfile = tmp_path / "net.txt"
    code, out, _ = run(capsys, ["decompose", "--unitary", str(ufile), "--out", str(netfile)])
    assert code == 0
    assert "round-trip residual" in out
    parsed = from_text(netfile.read_text(), n_modes=4)
    assert unitary_distance(netlist_unitary(parsed), u) <= 1e-9


@pytest.mark.parametrize("entry", [[1.0, 0.0], [float("nan"), 0.0]])
def test_decompose_rejects_nonunitary_file(tmp_path, capsys, entry):
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"matrix": [[[1.0, 0.0], [0.0, 0.0]], [entry, [1.0, 0.0]]]}))
    code, out, err = run(capsys, ["decompose", "--unitary", str(ufile)])
    assert code == 3 and out == ""
    assert "not unitary" in err and err.count("\n") == 1, err


def test_decompose_preset_json(tmp_path, capsys):
    out_path = tmp_path / "ring.json"
    code, _, _ = run(
        capsys,
        ["decompose", "--kind", "ring", "--n", "4", "--out", str(out_path), "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["residual"] <= 1e-9
    assert doc["netlist"]["modes"] == 4


def test_sweep_eigenvalues(tmp_path, capsys):
    out_path = tmp_path / "eigs.csv"
    code, _, _ = run(
        capsys,
        ["sweep", "--kind", "pair", "--quantity", "eigenvalues", "--start", "0.0",
         "--stop", "1.0", "--count", "5", "--out", str(out_path)],
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[1] == "r,lambda_0,lambda_1"
    row0 = [float(x) for x in lines[2].split(",")]
    assert row0[1] == pytest.approx(1.0)  # zero separation: trivial weight only
    row_last = [float(x) for x in lines[-1].split(",")]
    assert row_last[1] == pytest.approx(np.cos(1.0) ** 2, abs=1e-12)


def test_sweep_check(capsys):
    code, _, _ = run(
        capsys,
        ["sweep", "--kind", "pair", "--start", "0.1", "--stop", "0.9", "--count", "5",
         "--check", "1e-5"],
    )
    assert code == 0


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[model]\nkind = ring\nn = 4\np = 1.0\nr = 0.5\n\n[output]\nformat = csv\n"
    )
    code, out, _ = run(capsys, ["qfi", "-c", str(cfg)])
    assert code == 0

    ns = build_parser().parse_args(["qfi", "-c", str(cfg)])
    base = resolve_config(ns)
    assert base["model"]["kind"] == "ring" and base["model"]["r"] == 0.5
    ns.r = 0.7
    over = resolve_config(ns)
    assert over["model"]["r"] == 0.7
    # hash tracks scientific content, not output paths
    assert config_hash(base) != config_hash(over)
    over["output"]["path"] = "elsewhere.csv"
    over2 = {s: dict(v) for s, v in over.items()}
    assert config_hash(over) == config_hash(over2)


def test_config_hash_is_sha256_of_the_scientific_lines():
    def oracle(cfg):
        lines = [f"{s}.{k}={v!r}" if isinstance(v, float) else f"{s}.{k}={v}"
                 for s in sorted(cfg) if s != "output" for k, v in sorted(cfg[s].items())]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]

    parser = build_parser()
    configs = [resolve_config(parser.parse_args([command]))
               for command in ("qfi", "eigen", "simulate", "decompose", "sweep")]
    for argv in (["qfi", "--kind", "ring", "--n", "16", "--r", "0.125"],
                 ["simulate", "--kind", "rect", "--px", "2.5", "--seed", "7"],
                 ["sweep", "--quantity", "eigenvalues", "--stop", "1e-3", "--out", "x.csv"]):
        configs.append(resolve_config(parser.parse_args(argv)))
    for cfg in configs:
        assert config_hash(cfg) == oracle(cfg)


def test_cli_import_does_not_load_openssl():
    env = {**os.environ, "PYTHONPATH": str(Path(qconstel.__file__).parents[1])}
    code = "import sys, qconstel.cli; print('_hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout == "False\n"


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nkind = hexagon\n")
    code, _, err = run(capsys, ["qfi", "-c", str(bad)])
    assert code == 2
    assert "config error" in err

    bad2 = tmp_path / "bad2.ini"
    bad2.write_text("[model]\nwavelength = 5\n")
    assert run(capsys, ["qfi", "-c", str(bad2)])[0] == 2

    bad3 = tmp_path / "bad3.ini"
    bad3.write_text("[model]\np = fast\n")
    assert run(capsys, ["qfi", "-c", str(bad3)])[0] == 2

    assert run(capsys, ["qfi", "-c", str(tmp_path / "missing.ini")])[0] == 2
    assert run(capsys, ["qfi", "--kind", "pair", "--r", "-0.5"])[0] == 2
    assert run(capsys, ["qfi", "--kind", "pair", "--r", "0"])[0] == 2  # boundary: no derivative
    assert run(capsys, ["simulate", "--kind", "rect"])[0] == 2
    assert run(capsys, ["sweep", "--kind", "pair", "--parameter", "zz"])[0] == 2
    assert run(capsys, ["simulate", "--kind", "pair", "--bounds", "oops"])[0] == 2
    assert run(capsys, ["simulate", "--kind", "pair", "--basis", "netlist"])[0] == 2
    # the model is validated before the preset circuit is built
    for n in ("1", "0"):
        code, _, err = run(capsys, ["decompose", "--kind", "ring", "--n", n])
        assert code == 2 and err.startswith("config error:")
    # a non-finite psf momentum is a config error and nothing else reaches stderr
    for model in (["--kind", "pair", "--p", "inf"], ["--kind", "pair", "--p", "nan"],
                  ["--kind", "ring", "--p", "inf"], ["--kind", "ring", "--n", "5", "--p", "nan"],
                  ["--kind", "rect", "--px", "inf"], ["--kind", "rect", "--py", "nan"],
                  # so is a non-finite angle, rejected before it reaches cos/sin
                  ["--kind", "pair", "--theta", "inf"], ["--kind", "ring", "--phase", "inf"],
                  ["--kind", "pair", "--psf-angle", "inf"], ["--kind", "ring", "--psf-phase", "nan"]):
        code, _, err = run(capsys, ["qfi", *model])
        assert code == 2 and err.startswith("config error:") and err.count("\n") == 1, err
    # study bounds must be finite, ordered and inside the model's open domain
    for bounds in ("0.1,inf", "0,0.5", "0.5,0.1", "nan,0.5"):
        code, _, err = run(capsys, ["simulate", "--kind", "pair", "--bounds", bounds])
        assert code == 2 and err.startswith("config error: bounds") and err.count("\n") == 1, err
    # a non-finite sweep end is named before it reaches linspace
    for end in (["--start", "inf"], ["--stop", "nan"]):
        code, _, err = run(capsys, ["sweep", "--kind", "pair", *end])
        assert code == 2 and err.startswith(f"config error: sweep.{end[0][2:]} must be finite")
        assert err.count("\n") == 1, err
    # a non-finite netlist angle is named with its line before it reaches cos/sin
    for record in ("BS 0 1 inf 0", "BS 0 1 0.5 nan"):
        netfile = tmp_path / "bad.net"
        netfile.write_text(record + "\n")
        code, _, err = run(capsys, ["simulate", "--kind", "pair", "--r", "0.3", "--photons", "100",
                                    "--trials", "3", "--basis", "netlist", "--netlist", str(netfile)])
        assert code == 2 and err.startswith("config error:") and err.count("\n") == 1, err
        assert f"netlist line 1: {record!r}: beamsplitter" in err
    # and in a fresh interpreter, where numpy warnings would print to stderr
    env = {**os.environ, "PYTHONPATH": str(Path(qconstel.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "qconstel.cli", "qfi", "--kind", "pair", "--p", "inf"],
        env=env, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 2
    assert proc.stderr == "config error: psf momentum magnitude must be positive and finite, got inf\n"
    for bad_study in (["--seed", "-1"], ["--grid", "0"], ["--grid", "1"], ["--grid", "-3"]):
        code, _, err = run(capsys, ["simulate", "--kind", "pair", *bad_study])
        assert code == 2 and "config error" in err
    # --check on an eigenvalue sweep is refused before any output is written
    out = tmp_path / "eigs.csv"
    code, stdout, _ = run(capsys, ["sweep", "--quantity", "eigenvalues", "--check", "1e-3",
                                   "--out", str(out)])
    assert code == 2 and stdout == "" and not out.exists()


def _other_value(setting):
    """A value of the setting's type that differs from its default."""
    if setting.choices:
        return next(c for c in setting.choices if c != setting.default)
    if setting.type is str:
        return setting.default + "x"
    return setting.default + setting.type(1.5)


@pytest.mark.parametrize("command", ["qfi", "eigen", "simulate", "decompose", "sweep"])
def test_settings_table_drives_ini_and_flags(tmp_path, capsys, command):
    ns = build_parser().parse_args([command])
    defaults, accepted = resolve_config(ns), vars(ns)
    flagged = 0
    for section, keys in SETTINGS.items():
        for key, setting in keys.items():
            if key not in accepted:
                continue
            flagged += 1
            value = _other_value(setting)
            ini = tmp_path / f"{key}.ini"
            ini.write_text(f"[{section}]\n{key} = {value}\n")
            flag = "--out" if key == "path" else "--" + key.replace("_", "-")
            by_ini = resolve_config(build_parser().parse_args([command, "-c", str(ini)]))
            by_flag = resolve_config(build_parser().parse_args([command, flag, str(value)]))
            assert by_ini == by_flag, (section, key)
            assert by_ini[section][key] == value != defaults[section][key]
            assert config_hash(by_ini) == config_hash(by_flag)
    assert flagged >= len(SETTINGS["model"]) + len(SETTINGS["output"])
    # every choice key, in every section, is checked when it comes from an INI file
    for section, keys in SETTINGS.items():
        for key, setting in keys.items():
            if setting.choices:
                ini = tmp_path / "bad-choice.ini"
                ini.write_text(f"[{section}]\n{key} = bogus\n")
                code, _, err = run(capsys, [command, "-c", str(ini)])
                assert code == 2 and f"{section}.{key}" in err, (section, key)
