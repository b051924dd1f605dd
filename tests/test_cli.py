import builtins
import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qconstel
from qconstel import cli
from qconstel.circuit import (
    Beamsplitter,
    InterferometerNetlist,
    fourier_circuit,
    from_text,
    netlist_unitary,
    to_text,
)
from qconstel.cli import SETTINGS, build_parser, config_hash, main, read_inputs, resolve_config
from qconstel.estimation import ring_model
from qconstel.simulate import BlockResult, StudyReport
from qconstel.symmetry import AbelianGroup, qft_matrix

from oracles import haar_unitary


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


def test_qfi_two_source_ring_takes_the_pair_closed_form(capsys):
    # the closed form follows the orientation whichever kind names the two sources
    outs = {}
    for kind, angles in (("pair", ["--phase", "0.5"]), ("ring", ["--n", "2", "--phase", "0.5"])):
        code, outs[kind], err = run(capsys, ["qfi", "--kind", kind, *angles, "--check", "1e-6"])
        assert code == 0, err
    assert outs["ring"].splitlines()[1:] == outs["pair"].splitlines()[1:]
    assert "3.0806046117362795" in outs["ring"]


def test_qfi_perpendicular_pair(capsys):
    # the psf perpendicular to the sources: the pair builds, and both routes read ~0
    code, out, err = run(capsys, ["qfi", "--kind", "pair", "--phase", "1.5707963267948966",
                                  "--check", "1e-30"])
    assert code == 0 and err == "" and "max |numeric - analytic| = " in out, err


def test_pair_builds_the_two_source_ring():
    # --kind pair forces n = 2 and otherwise builds the model that --kind ring --n 2 builds
    parser = build_parser()
    for angles in ([], ["--phase", "0.7"], ["--phase", "-1.1", "--psf-phase", "0.4"]):
        pair, ring = (cli.build_model(resolve_config(parser.parse_args(["qfi", *kind, *angles])))
                      for kind in (["--kind", "pair", "--n", "5"], ["--kind", "ring", "--n", "2"]))
        cfg = resolve_config(parser.parse_args(["qfi", *angles]))["model"]
        direct = ring_model(2, 1.0, cfg["phase"], cfg["psf_phase"])
        for model in (pair[0], ring[0]):
            assert model.group.factors == (2,)
            assert np.array_equal(model.phases, direct.phases)
        assert np.array_equal(pair[1], ring[1])
        assert np.array_equal(pair[0].closed_form, ring[0].closed_form)
        assert pair[0].box == ring[0].box == direct.box


def test_removed_pair_angle_settings_are_refused(tmp_path, capsys):
    assert len(SETTINGS["model"]) == 10
    for flag in ("--theta", "--psf-angle"):
        with pytest.raises(SystemExit) as exc:
            main(["qfi", "--kind", "pair", flag, "0.5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err
    ini = tmp_path / "theta.ini"
    ini.write_text("[model]\nkind = pair\ntheta = 0.5\n")
    code, out, err = run(capsys, ["qfi", "-c", str(ini)])
    assert code == 2 and out == ""
    assert err == "config error: unknown key 'theta' in section [model]\n"


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


@pytest.mark.parametrize("model", [["--kind", "pair"], ["--kind", "ring", "--n", "16"],
                                   ["--kind", "rect", "--x0", "0", "--y0", "0"]])
def test_eigen_weights_at_zero_radius_are_exact(tmp_path, capsys, model):
    out = tmp_path / "eigen.json"
    argv = ["eigen", *model, "--r", "0", "--format", "json", "--out", str(out)]
    assert run(capsys, argv)[0] == 0
    weights = json.loads(out.read_text())["weights"]
    assert weights == [1.0] + [0.0] * (len(weights) - 1)


def test_eigen_matches_table(capsys):
    code, out, _ = run(capsys, ["eigen", "--kind", "pair", "--p", "1", "--r", "0.4"])
    assert code == 0
    rows = [ln.split() for ln in out.splitlines() if ln and not ln.startswith(("#", "lambda"))]
    diffs = [float(r[3]) for r in rows]
    assert max(diffs) <= 1e-9


def test_eigen_eigensolves_a_rho_built_apart_from_the_phase_tensor(capsys, monkeypatch):
    # the weights come from the phase tensor and the eigenvalues from rho of
    # the points and momenta, so a wrong tensor shows as a gap between them
    def tampered(*args):
        model = ring_model(*args)
        model.__dict__["phases"] = 2.0 * model.phases  # the weights now read the sources at 2 r
        return model

    monkeypatch.setattr(cli, "ring_model", tampered)
    code, out, _ = run(capsys, ["eigen", "--kind", "ring", "--n", "4", "--p", "1", "--r", "0.5"])
    assert code == 0
    rows = [ln.split() for ln in out.splitlines() if ln and not ln.startswith(("#", "lambda"))]
    assert max(float(r[3]) for r in rows) > 1e-3


def test_simulate_csv_format(tmp_path, capsys):
    out_path = tmp_path / "study.csv"
    code, out, _ = run(
        capsys,
        ["simulate", "--kind", "pair", "--p", "1", "--r", "0.3", "--photons", "300,900",
         "--trials", "20", "--seed", "3", "--out", str(out_path)],
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[1] == "M,trials,failures,mse,crb,ratio"
    assert len(lines) == 4
    first = lines[2].split(",")
    assert first[:3] == ["300", "20", "0"]


def test_simulate_reports_estimator_failures(tmp_path, capsys, monkeypatch):
    block = BlockResult(photons=1000, trials=150, estimates=np.full(149, 0.3), failures=1,
                        mse=0.25, crb=0.5, ratio=0.5)
    report = StudyReport(qfi=4.0, blocks=(block,))
    assert report.rows() == [(1000, 150, 1, 0.25, 0.5, 0.5)]
    monkeypatch.setattr(cli, "crb_study", lambda study: report)
    out_path = tmp_path / "study.csv"
    code, out, _ = run(capsys, ["simulate", "--kind", "pair", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().splitlines()[1:] == ["M,trials,failures,mse,crb,ratio",
                                                     "1000,150,1,0.25,0.5,0.5"]
    table = [line.split() for line in out.splitlines()[1:3]]
    assert table == [["M", "trials", "failures", "mse", "crb", "ratio"],
                     ["1000", "150", "1", "0.25", "0.5", "0.5"]]


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
    assert float(rows["ring"][2].split(",")[5]) < 2.0


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
    netfile.write_text(to_text(fourier_circuit(ring_model(2, 1.0).group)))
    code, out, _ = run(
        capsys,
        ["simulate", "--kind", "pair", "--r", "0.3", "--photons", "400", "--trials", "10",
         "--basis", "netlist", "--netlist", str(netfile)],
    )
    assert code == 0


def test_netlist_is_read_once_per_job(tmp_path, capsys, monkeypatch):
    # the config hash and the measurement basis come from one read of the file
    netfile = tmp_path / "pair.net"
    netfile.write_text(to_text(fourier_circuit(ring_model(2, 1.0).group)))
    argv = ["simulate", "--kind", "pair", "--r", "0.3", "--photons", "400", "--trials", "10",
            "--basis", "netlist", "--netlist", str(netfile), "--out", str(tmp_path / "out.csv")]
    expected = run(capsys, argv)
    expected_out = (tmp_path / "out.csv").read_bytes()
    lines = [f"{s}.{k}={v!r}" if isinstance(v, float) else f"{s}.{k}={v}"
             for s, keys in sorted(resolve_config(build_parser().parse_args(argv)).items())
             if s != "output" for k, v in sorted(keys.items())]
    lines = [f"measurement.netlist={hashlib.sha256(netfile.read_bytes()).hexdigest()}"
             if line.startswith("measurement.netlist=") else line for line in lines]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]
    assert expected[0] == 0 and expected[1].splitlines()[0] == f"# config {digest}"
    reads = count_opens(monkeypatch)
    for jobs in (1, 2):
        assert run(capsys, argv) == expected
        assert (tmp_path / "out.csv").read_bytes() == expected_out
        assert reads.count(netfile) == jobs


def count_opens(monkeypatch) -> list[Path]:
    """Record the path of every ``open`` from here on."""
    reads = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        reads.append(Path(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    return reads


def test_csv_and_text_jobs_leave_no_cyclic_garbage(tmp_path, capsys):
    # reference counting frees every object of a csv or text job, so a job
    # leaves no memory for the cycle collector to find (a JSON job leaves the
    # cycles of the pure-Python encoder that json.dumps(indent=2) runs)
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"matrix": [[[z.real, z.imag] for z in row]
                                            for row in haar_unitary(5, np.random.default_rng(1))]}))
    out = ["--format", "csv", "--out", str(tmp_path / "out.csv")]
    jobs = [["qfi", "--kind", "ring", "--n", "5", "--r", "0.4", *out],
            ["eigen", "--kind", "rect", *out],
            ["sweep", "--kind", "pair", "--count", "4", *out],
            ["sweep", "--kind", "ring", "--n", "6", "--quantity", "eigenvalues", *out],
            ["simulate", "--kind", "ring", "--n", "4", "--trials", "3", "--photons", "200", *out],
            ["decompose", "--kind", "ring", "--n", "4", "--format", "text",
             "--out", str(tmp_path / "f.net")],
            ["decompose", "--unitary", str(ufile), "--format", "text",
             "--out", str(tmp_path / "u.net")]]
    for argv in jobs:  # first runs fill the caches of the parser and of numpy
        assert main(argv) == 0, capsys.readouterr().err
    gc.collect()
    gc.disable()
    try:
        for argv in jobs * 3:
            main(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_unitary_file_is_read_once_per_job(tmp_path, capsys, monkeypatch):
    # the config hash and the decomposed matrix come from one read of the file
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"matrix": [[[z.real, z.imag] for z in row]
                                            for row in haar_unitary(4, np.random.default_rng(3))]}))
    argv = ["decompose", "--unitary", str(ufile), "--out", str(tmp_path / "out.net")]
    expected = run(capsys, argv)
    expected_out = (tmp_path / "out.net").read_bytes()
    assert expected[0] == 0
    reads = count_opens(monkeypatch)
    for jobs in (1, 2):
        assert run(capsys, argv) == expected
        assert (tmp_path / "out.net").read_bytes() == expected_out
        assert reads.count(ufile) == jobs
    cfg = resolve_config(build_parser().parse_args(argv))
    h = config_hash(cfg, {"unitary": ufile.read_bytes()})
    assert expected[1].splitlines()[0] == f"# config {h}" and h != config_hash(cfg, {})


def test_config_hash_names_input_files_by_content(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("a.net").write_text(to_text(fourier_circuit(ring_model(4, 1.0).group)))
    Path("b.net").write_bytes(Path("a.net").read_bytes())
    study = ["simulate", "--kind", "ring", "--r", "0.3", "--photons", "100", "--trials", "2",
             "--basis", "netlist", "--netlist"]

    def first_line(argv):
        code, out, err = run(capsys, argv)
        assert code == 0, err
        return out.splitlines()[0]

    same = {first_line(study + [path]) for path in ("a.net", "./a.net", "b.net",
                                                     str(tmp_path / "b.net"))}
    assert len(same) == 1
    with open("b.net", "a", encoding="utf-8") as fh:  # edited in place: same path, new content
        fh.write("PS 0 0\n")
    assert first_line(study + ["b.net"]) not in same
    # a netlist path without basis = netlist is not an input
    eigen = study[:-2] + ["eigenbasis"]
    assert first_line(eigen) == first_line(eigen + ["--netlist", "missing.net"])

    rng = np.random.default_rng(5)
    for name in ("u.json", "v.json"):
        Path(name).write_text(json.dumps([[[z.real, z.imag] for z in row]
                                          for row in haar_unitary(3, rng)]))
    hashes = {first_line(["decompose", "--unitary", name]) for name in ("u.json", "v.json")}
    assert len(hashes) == 2 and first_line(["decompose"]) not in hashes
    for argv in (study + ["missing.net"], ["decompose", "--unitary", "missing.json"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err.count("\n") == 1, err
        assert err.startswith("config error: cannot read") and "missing" in err


def test_decompose_roundtrip_through_file(tmp_path, capsys):
    u = haar_unitary(4, np.random.default_rng(0))
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"matrix": [[[z.real, z.imag] for z in row] for row in u]}))
    netfile = tmp_path / "net.txt"
    code, out, _ = run(capsys, ["decompose", "--unitary", str(ufile), "--out", str(netfile)])
    assert code == 0
    assert "round-trip residual" in out
    parsed = from_text(netfile.read_text(), n_modes=4)
    assert np.abs(netlist_unitary(parsed) - u).max() <= 1e-9


@pytest.mark.parametrize("entry", [[1.0, 0.0]])
def test_decompose_rejects_nonunitary_file(tmp_path, capsys, entry):
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"matrix": [[[1.0, 0.0], [0.0, 0.0]], [entry, [1.0, 0.0]]]}))
    code, out, err = run(capsys, ["decompose", "--unitary", str(ufile)])
    assert code == 3 and out == ""
    assert "not unitary" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("entry", [[1.0], [1.0, 0.0, 5.0]])
def test_decompose_rejects_malformed_entries(tmp_path, capsys, entry):
    # an entry that is not one [re, im] pair is named, not cut short or dropped
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"matrix": [[entry]]}))
    code, out, err = run(capsys, ["decompose", "--unitary", str(ufile)])
    assert code == 2 and out == ""
    assert "matrix entry (0, 0) must be an [re, im] pair" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("matrix, shape", [([], "(0,)"), ([[[1, 0], [0, 0]]], "(1, 2)")])
def test_decompose_rejects_nonsquare_file(tmp_path, capsys, matrix, shape):
    # a config error naming the shape, not a numerical failure of the synthesis
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps({"matrix": matrix}))
    code, out, err = run(capsys, ["decompose", "--unitary", str(ufile)])
    assert code == 2 and out == ""
    assert f"non-empty square matrix, got shape {shape}" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("data, fault", [
    (b'{"m": []}', 'expected a JSON object with a "matrix" member'),
    (b'{"matrix": 5}', "matrix must be a list of rows, got int"),
    (b"5", "matrix must be a list of rows, got int"),
    (b'{"matrix": [5]}', "matrix row 0 must be a list of [re, im] pairs, got int"),
    (b"[[[1" + b"0" * 400 + b", 0]]]", "matrix entry (0, 0) is out of float range"),
    (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"[[[1, 0]], [[1, 0], [0, 0]]]", "matrix row 1 has 2 entries, row 0 has 1"),
    (b"[[[1e400, 0]]]", "matrix entry (0, 0) must be finite, got inf"),
    (b'{"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[NaN, 0.0], [1.0, 0.0]]]}',
     "matrix entry (1, 0) must be finite, got nan"),
    (b'{"matrix": [[[-Infinity, 0]]]}', "matrix entry (0, 0) must be finite, got -inf"),
    (b"[" * 100000 + b"]" * 100000, "JSON document is nested too deeply"),
], ids=["no-matrix", "matrix-int", "int", "row-int", "huge-int", "not-utf8", "ragged",
        "huge-float", "nan", "infinity", "deep"])
def test_decompose_names_the_fault_in_a_malformed_file(tmp_path, capsys, data, fault):
    ufile = tmp_path / "u.json"
    ufile.write_bytes(data)
    code, out, err = run(capsys, ["decompose", "--unitary", str(ufile)])
    assert (code, out, err) == (2, "", f"config error: cannot read unitary from {ufile}: {fault}\n")


def test_decompose_two_source_ring_is_the_pair_circuit(capsys):
    code, pair, _ = run(capsys, ["decompose", "--kind", "pair"])
    assert code == 0
    code, ring, _ = run(capsys, ["decompose", "--kind", "ring", "--n", "2"])
    assert code == 0
    assert ring.splitlines()[1:] == pair.splitlines()[1:]  # all but the config hash
    assert pair.splitlines()[1:3] == ["BS 0 1 0.78539816339744828 0",
                                      "# elements: 1  beamsplitters: 1"]


@pytest.mark.parametrize("command", ["qfi", "eigen", "simulate", "sweep"])
def test_text_format_is_refused_outside_decompose(tmp_path, capsys, command):
    out = tmp_path / "out.txt"
    code, stdout, err = run(capsys, [command, "--format", "text", "--out", str(out)])
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"config error: {command} writes csv or json, not text\n"


def test_decompose_writes_netlist_text_for_csv_and_text(tmp_path, capsys):
    outs = []
    for fmt in ("csv", "text"):
        out = tmp_path / f"ring4.{fmt}"
        assert run(capsys, ["decompose", "--kind", "ring", "--n", "4", "--format", fmt,
                            "--out", str(out)])[0] == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert outs[0].startswith("BS ")


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
    # the residual is max |U - T| with no global-phase freedom, bit for bit; for
    # the Reck round trip of u it reads 2.0e-16, and 1.6e-16 at the best global phase
    u = haar_unitary(4, np.random.default_rng(6))
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in u]))
    for argv, target in ((["--kind", "ring", "--n", "4"], qft_matrix(AbelianGroup((4,)))),
                         (["--unitary", str(ufile)], u)):
        assert run(capsys, ["decompose", *argv, "--out", str(out_path), "--format", "json"])[0] == 0
        doc = json.loads(out_path.read_text())
        net = doc["netlist"]
        parsed = InterferometerNetlist(net["modes"], tuple(
            Beamsplitter(e["i"], e["j"], e["mixing"], e["phase"]) for e in net["elements"]),
            tuple(net["output_phases"]))
        assert doc["residual"] == np.abs(netlist_unitary(parsed) - target).max()


@pytest.mark.parametrize("argv, fmt", [
    (["qfi", "--kind", "rect", "--check", "1e-5"], "csv"),
    (["eigen", "--kind", "ring", "--n", "5"], "json"),
    (["simulate", "--r", "0.3", "--photons", "100", "--trials", "3", "--basis", "netlist",
      "--netlist", "pair.net"], "csv"),
    (["decompose", "--unitary", "u.json"], "text"),
    (["decompose", "--kind", "rect"], "json"),
    (["sweep", "--kind", "ring", "--count", "3", "--check", "1e-5"], "json"),
    (["sweep", "--quantity", "eigenvalues", "--count", "3"], "csv"),
])
def test_commands_compute_and_main_does_the_io(tmp_path, capsys, monkeypatch, argv, fmt):
    # a command prints nothing and opens no file; main prints the "# config" line
    # and the command's stdout, and writes its csv/text body or JSON payload
    monkeypatch.chdir(tmp_path)
    Path("pair.net").write_text(to_text(fourier_circuit(ring_model(2, 1.0).group)))
    Path("u.json").write_text(json.dumps([[[z.real, z.imag] for z in row]
                                          for row in haar_unitary(3, np.random.default_rng(1))]))
    argv = argv + ["--format", fmt, "--out", "out"]
    args = build_parser().parse_args(argv)
    cfg = resolve_config(args)
    inputs = read_inputs(cfg, getattr(args, "unitary", None))
    h = config_hash(cfg, inputs)
    with monkeypatch.context() as patch:
        reads = count_opens(patch)
        result = args.func(args, cfg, h, inputs)
    assert reads == [] and capsys.readouterr() == ("", "") and not Path("out").exists()
    assert run(capsys, argv) == (0, f"# config {h}\n{result.stdout}", "")
    if fmt == "json":
        assert json.loads(Path("out").read_text()) == {"config_hash": h, **result.payload}
    else:
        assert Path("out").read_text() == result.text


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
    assert config_hash(base, {}) != config_hash(over, {})
    over["output"]["path"] = "elsewhere.csv"
    over2 = {s: dict(v) for s, v in over.items()}
    assert config_hash(over, {}) == config_hash(over2, {})


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
        assert config_hash(cfg, {}) == oracle(cfg)


def test_cli_import_does_not_load_openssl():
    env = {**os.environ, "PYTHONPATH": str(Path(qconstel.__file__).parents[1])}
    code = "import sys, qconstel.cli; print('_hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout == "False\n"


def test_only_an_ini_run_imports_configparser(tmp_path):
    # flags-only jobs and --help never read an INI file, so never load configparser
    (tmp_path / "run.ini").write_text("[model]\nkind = ring\nn = 4\n")
    script = (
        "import contextlib, io, sys\n"
        "from qconstel import cli\n"
        "def run(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            return cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            return exc.code\n"
        "codes = [run(['--help']), run(['simulate', '--trials', '3', '--photons', '100']),\n"
        "         run(['decompose', '--kind', 'ring', '--n', '5'])]\n"
        "print(codes, 'configparser' in sys.modules)\n"
        "print(run(['qfi', '-c', 'run.ini']), 'configparser' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qconstel.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.splitlines() == ["[0, 0, 0] False", "0 True"], proc.stdout


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
    code, _, err = run(capsys, ["simulate", "--kind", "rect"])
    assert code == 2 and "single scalar parameter" in err
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
                  ["--kind", "pair", "--phase", "inf"], ["--kind", "ring", "--phase", "inf"],
                  ["--kind", "pair", "--psf-phase", "inf"], ["--kind", "ring", "--psf-phase", "nan"]):
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
    # an eigenvalue sweep outside the closed domain is refused like the qfi sweep
    for quantity in ("eigenvalues", "qfi"):
        code, stdout, err = run(capsys, ["sweep", "--quantity", quantity, "--start", "-0.5",
                                         "--stop", "0.5", "--count", "3"])
        assert code == 2 and stdout == "" and err.count("\n") == 1, err
        assert err.startswith("config error: parameter r=-0.5 outside"), err
    # unreadable config files: no section header, duplicates, undecodable bytes, no '='
    for name, data in (("nohead.ini", b"p = 1\n"), ("dupsec.ini", b"[model]\n[model]\n"),
                       ("dupkey.ini", b"[model]\np = 1\np = 2\n"),
                       ("utf16.ini", b"\xff\xfe[\x00m\x00"), ("noeq.ini", b"[model]\np\n")):
        cfg = tmp_path / name
        cfg.write_bytes(data)
        code, _, err = run(capsys, ["qfi", "-c", str(cfg)])
        assert code == 2 and err.startswith("config error: cannot read config file"), err
        assert err.count("\n") == 1, err
    # an output path that cannot be written is named, for every writer
    missing = tmp_path / "nodir"
    for argv in (["qfi", "--out", str(missing / "x.csv")],
                 ["qfi", "--out", str(missing / "x.json"), "--format", "json"],
                 ["decompose", "--kind", "ring", "--n", "4", "--out", str(missing / "x.net")]):
        code, _, err = run(capsys, argv)
        assert code == 2 and err.startswith("config error: cannot write output file"), err
        assert err.count("\n") == 1, err


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
            assert config_hash(by_ini, {}) == config_hash(by_flag, {})
    assert flagged >= len(SETTINGS["model"]) + len(SETTINGS["output"])
    # every choice key, in every section, is checked when it comes from an INI file
    for section, keys in SETTINGS.items():
        for key, setting in keys.items():
            if setting.choices:
                ini = tmp_path / "bad-choice.ini"
                ini.write_text(f"[{section}]\n{key} = bogus\n")
                code, _, err = run(capsys, [command, "-c", str(ini)])
                assert code == 2 and f"{section}.{key}" in err, (section, key)


def test_photon_count_beyond_int64_is_a_config_error(capsys):
    # the multinomial draw takes int64 counts; a larger one would end in an
    # uncaught OverflowError inside Generator.multinomial
    code, out, err = run(capsys, ["simulate", "--kind", "pair", "--photons", "9999999999999999999"])
    assert (code, out) == (2, "")
    assert err == ("config error: photon counts must be <= 9223372036854775807 (int64), "
                   "got 9999999999999999999\n")


def test_decompose_builds_its_json_payload_only_for_json(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "to_json_dict", lambda net: calls.append(net) or {"n": 1})
    for fmt in ("csv", "text", "json"):
        argv = ["decompose", "--kind", "ring", "--n", "4", "--format", fmt,
                "--out", str(tmp_path / fmt)]
        assert run(capsys, argv)[0] == 0
        assert len(calls) == (fmt == "json")
    assert json.loads((tmp_path / "json").read_text())["netlist"] == {"n": 1}


def test_cli_loads_no_lazy_numpy_module():
    # numpy.fft and other numpy subpackages load on first use and would add
    # memory and start-up time to every CLI process; only numpy.random joins
    # what "import numpy" loads
    script = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "from qconstel import cli\n"
        "runs = [['qfi', '--kind', 'rect'], ['eigen', '--kind', 'ring', '--n', '16'],\n"
        "        ['sweep', '--kind', 'ring', '--n', '6', '--quantity', 'eigenvalues'],\n"
        "        ['simulate', '--kind', 'ring', '--n', '4', '--trials', '3', '--photons', '100',\n"
        "         '--basis', 'direct'],\n"
        "        ['simulate', '--kind', 'pair', '--trials', '3', '--photons', '100'],\n"
        "        ['decompose', '--kind', 'ring', '--n', '5']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    with contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes = [cli.main(argv) for argv in runs]\n"
        "print(codes)\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        "             if m.split('.')[0] in ('numpy', 'scipy')\n"
        "             and not m.startswith('numpy.random')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qconstel.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.splitlines() == ["[0, 0, 0, 3, 0, 0]", "[]"], proc.stdout


def test_simulate_at_a_large_p_runs_in_the_units_of_the_period(capsys):
    # the default box keeps BOX_MARGIN / p inside the period, so it is not
    # empty at large p (an absolute margin empties the pair's above p = 785)
    ratios = []
    for p, r in (("1", "0.1"), ("1e4", "1e-5")):
        code, out, err = run(capsys, ["simulate", "--kind", "pair", "--p", p, "--r", r,
                                      "--photons", "1000", "--seed", "3"])
        assert (code, err) == (0, ""), err
        ratios.append(float(out.splitlines()[2].split()[-1]))
    assert ratios[1] == pytest.approx(ratios[0], rel=1e-3)


def test_an_allocation_failure_is_a_numerical_failure(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(np, "linspace", refuse)
    code, out, err = run(capsys, ["sweep", "--kind", "pair", "--count", "100000000000"])
    assert (code, out) == (3, "")
    assert err == "numerical failure: Unable to allocate 745. GiB\n"


OPEN_DOMAIN = ("qfi", "sweep-qfi", "simulate")  # a zero model point is out of their domain
KIND_PARAMETERS = {"pair": ("r",), "ring": ("r",), "rect": ("x0", "y0")}


@settings(max_examples=300)
@given(command=st.sampled_from(["qfi", "eigen", "sweep-qfi", "sweep-eigenvalues", "simulate",
                                "decompose"]),
       kind=st.sampled_from(sorted(KIND_PARAMETERS)), data=st.data())
def test_a_model_point_outside_the_domain_is_a_config_error(command, kind, data):
    # one bad model parameter per case, checked by the library alone: exit 2,
    # nothing on stdout and one stderr line, whichever command reads the point
    bad = st.sampled_from([np.nan, np.inf, -np.inf]) | st.floats(max_value=0.0, exclude_max=True)
    value = data.draw(bad | st.just(0.0) if command in OPEN_DOMAIN else bad)
    name = data.draw(st.sampled_from(KIND_PARAMETERS[kind]))
    argv = [command.split("-")[0], "--kind", kind, f"--{name}={value!r}"]
    if command.startswith("sweep"):
        # the swept parameter takes its grid, so its bad value is the grid's start
        swept = data.draw(st.sampled_from(KIND_PARAMETERS[kind]))
        argv += ["--quantity", command.split("-")[1], "--parameter", swept, "--count", "3"]
        if swept == name:
            argv.append(f"--start={value!r}")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert (code, stdout.getvalue()) == (2, ""), (argv, err)
    assert err.startswith("config error:") and err.count("\n") == 1, (argv, err)
