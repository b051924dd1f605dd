"""Batch command-line front end.

Subcommands: ``qfi``, ``eigen``, ``simulate``, ``decompose``, ``sweep``.
Settings come from an INI config file (section.key) overridden by flags, as
``config.SETTINGS`` declares them; machine-readable CSV/JSON outputs are
byte-reproducible and carry a hash of the resolved scientific config.
Every subcommand reads the ``model`` and ``output`` sections, ``simulate``
also ``measurement`` and ``study``, and ``sweep`` also ``sweep``; each takes
flags for the sections it reads.

Each ``cmd_*`` computes and returns a ``Result``; it prints nothing and
opens no file.  ``main`` does the I/O: it reads the run's input files once
(``config.read_inputs``), prints ``# config <hash>`` and the command's
stdout, writes the output file, and enforces ``--check``.

Exit codes: 0 success, 2 config error or a model point outside its family's
domain (``DomainError``), 3 numerical failure, 4 self-check violation
(``--check``).  Write a negative value in exponent form as ``--phase=-1e-3``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import NamedTuple

import numpy as np

from .circuit import (
    fourier_circuit,
    from_text,
    load_unitary,
    netlist_unitary,
    reck_decompose,
    to_json_dict,
    to_text,
)
from .config import SETTINGS, ConfigError, config_hash, read_inputs, resolve_config
from .estimation import (
    DomainError,
    ModelFamily,
    outcome_probabilities,
    qfim,
    rectangle_model,
    ring_model,
)
from .linalg import ConvergenceError, eig_hermitian
from .simulate import EstimationError, StudyConfig, StudyError, crb_study
from .symmetry import qft_matrix


class CheckFailure(RuntimeError):
    """A --check threshold was violated."""


class Result(NamedTuple):
    """A command's stdout after the ``# config`` line, csv (or netlist) file body, JSON
    payload beside ``config_hash``, and (name, largest deviation) for ``--check``."""

    stdout: str
    text: str
    payload: dict
    check: tuple[str, float] | None = None


def build_model(cfg: dict) -> tuple[ModelFamily, np.ndarray]:
    """Model family and evaluation point from the config.

    ``pair`` is the two-source ring: both kinds build ``ring_model(n, p,
    phase, psf_phase)``, with n = 2 for ``pair``.
    """
    m = cfg["model"]
    try:
        if m["kind"] == "rect":
            model = rectangle_model(m["px"], m["py"])
            values = np.array([m["x0"], m["y0"]])
        else:
            n = 2 if m["kind"] == "pair" else m["n"]
            model = ring_model(n, m["p"], m["phase"], m["psf_phase"])
            values = np.array([m["r"]])
        model.check_block(values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return model, values


def measurement_basis(cfg: dict, model: ModelFamily, netlist: bytes | None) -> np.ndarray:
    """The basis that ``measurement.basis`` names; ``netlist`` is the file's bytes."""
    choice = cfg["measurement"]["basis"]
    if choice == "eigenbasis":
        return model.qft_basis
    if choice == "direct":
        return np.eye(model.dim)
    if netlist is None:  # choice == "netlist"
        raise ConfigError("measurement.basis=netlist needs measurement.netlist=<file>")
    try:
        net = from_text(netlist.decode("utf-8"), n_modes=model.dim)
    except ValueError as exc:
        path = cfg["measurement"]["netlist"]
        raise ConfigError(f"cannot read netlist file {path}: {exc}") from None
    return netlist_unitary(net).conj().T


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _table(h: str, header: list[str], rows: list[tuple], payload: dict,
           notes: tuple[str, ...] = (), check: tuple[str, float] | None = None) -> Result:
    """A table command's result: aligned columns and ``notes`` on stdout, and the csv."""
    cells = [header] + [[_fmt(x) for x in row] for row in rows]
    widths = [max(len(row[c]) for row in cells) for c in range(len(header))]
    table = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells]
    csv = [f"# config_hash={h}"] + [",".join(row) for row in cells]
    return Result("\n".join(table + list(notes)) + "\n", "\n".join(csv) + "\n", payload, check)


def cmd_qfi(args: argparse.Namespace, cfg: dict, h: str, inputs: dict) -> Result:
    model, values = build_model(cfg)
    numeric, ana = qfim(model, values), model.closed_form
    diff = float(np.max(np.abs(numeric - ana)))
    header = ["mu", "nu", "numeric", "analytic", "abs_diff"]
    rows = [
        (model.names[a], model.names[b], float(numeric[a, b]), float(ana[a, b]),
         abs(float(numeric[a, b] - ana[a, b])))
        for a in range(model.n_params)
        for b in range(model.n_params)
    ]
    payload = {"qfim": numeric.tolist(), "analytic": ana.tolist(), "max_abs_diff": diff}
    return _table(h, header, rows, payload, (f"max |numeric - analytic| = {diff:.3e}",),
                  ("QFI", diff))


def cmd_eigen(args: argparse.Namespace, cfg: dict, h: str, inputs: dict) -> Result:
    model, values = build_model(cfg)
    weights = outcome_probabilities(model, values, model.qft_basis)
    evals, _vecs = eig_hermitian(model.rho(values))
    order_w = np.argsort(weights)[::-1]
    order_e = np.argsort(evals)[::-1]
    matched = np.empty_like(evals)
    matched[order_w] = evals[order_e]
    header = ["lambda", "weight", "eigenvalue", "abs_diff"]
    rows = [
        (int(k), float(weights[k]), float(matched[k]), abs(float(weights[k] - matched[k])))
        for k in range(len(weights))
    ]
    return _table(h, header, rows, {"weights": weights.tolist(), "eigenvalues": evals.tolist()})


def _study_bounds(cfg: dict, model: ModelFamily) -> tuple[float, float]:
    raw = cfg["study"]["bounds"]
    if not raw:
        return model.box[0]
    try:
        lo, hi = (float(x) for x in raw.split(","))
    except ValueError:
        raise ConfigError(f"study.bounds must be 'lo,hi', got {raw!r}") from None
    return lo, hi


def cmd_simulate(args: argparse.Namespace, cfg: dict, h: str, inputs: dict) -> Result:
    model, values = build_model(cfg)
    try:
        photons = tuple(int(x) for x in str(cfg["study"]["photons"]).split(","))
    except ValueError:
        raise ConfigError(f"study.photons must be comma-separated ints, got "
                          f"{cfg['study']['photons']!r}") from None
    try:
        study = StudyConfig(
            model=model,
            truth=float(values[0]),
            photon_counts=photons,
            trials=cfg["study"]["trials"],
            seed=cfg["study"]["seed"],
            bounds=_study_bounds(cfg, model),
            basis=measurement_basis(cfg, model, inputs.get("netlist")),
            grid_points=cfg["study"]["grid"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    report = crb_study(study)
    header = ["M", "trials", "failures", "mse", "crb", "ratio"]
    return _table(h, header, report.rows(), report.to_dict(), (f"qfi = {report.qfi:.17g}",))


def cmd_decompose(args: argparse.Namespace, cfg: dict, h: str, inputs: dict) -> Result:
    if args.unitary:
        try:
            target = load_unitary(inputs["unitary"])
        except ValueError as exc:
            raise ConfigError(f"cannot read unitary from {args.unitary}: {exc}") from None
        try:
            net = reck_decompose(target)
        except ValueError as exc:
            raise ConvergenceError(str(exc))
    else:
        group = build_model(cfg)[0].group
        net, target = fourier_circuit(group), qft_matrix(group)
    # both syntheses realize the target exactly, global phase included
    residual = float(np.abs(netlist_unitary(net) - target).max())
    text = to_text(net)
    stdout = (f"{text}# elements: {len(net.elements)}  beamsplitters: {net.beamsplitter_count}\n"
              f"# round-trip residual: {residual:.3e}\n")
    json_out = cfg["output"]["format"] == "json"  # the only output that reads the payload
    return Result(stdout, text, {"netlist": to_json_dict(net), "residual": residual}
                  if json_out else {})


def cmd_sweep(args: argparse.Namespace, cfg: dict, h: str, inputs: dict) -> Result:
    model, values = build_model(cfg)
    s = cfg["sweep"]
    param = s["parameter"] or model.names[0]
    if param not in model.names:
        raise ConfigError(f"sweep parameter {param!r} not in model parameters {model.names}")
    idx = model.names.index(param)
    if s["count"] < 1:
        raise ConfigError("sweep.count must be >= 1")
    if args.check is not None and s["quantity"] != "qfi":
        raise ConfigError("--check applies to quantity=qfi sweeps")
    for key in ("start", "stop"):
        if not np.isfinite(s[key]):
            raise ConfigError(f"sweep.{key} must be finite, got {s[key]}")
    grid = np.linspace(s["start"], s["stop"], s["count"])
    block = np.tile(values, (len(grid), 1))
    block[:, idx] = grid
    if s["quantity"] == "qfi":
        header = [param, "qfi_numeric", "qfi_analytic", "abs_diff"]
        an = float(model.closed_form[idx, idx])
        nums = [float(qfim(model, point)[idx, idx]) for point in block]
        rows = [(float(x), num, an, abs(num - an)) for x, num in zip(grid, nums)]
    else:
        header = [param] + [f"lambda_{k}" for k in range(model.dim)]
        weights = outcome_probabilities(model, block, model.qft_basis)
        rows = [(float(x), *(float(w) for w in q)) for x, q in zip(grid, weights)]
    check = ("sweep", max(r[3] for r in rows)) if s["quantity"] == "qfi" else None
    return _table(h, header, rows, {"header": header, "rows": [list(r) for r in rows]},
                  check=check)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing does not change it; rebuilding it for every in-process ``main``
    call left some 600 objects of cyclic garbage behind per call.
    """
    parser = argparse.ArgumentParser(
        prog="qconstel",
        description="Quantum-limited estimation for symmetric point-source constellations.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    commands = (  # name, function, help, sections beyond model and output
        ("qfi", cmd_qfi, "numeric QFIM vs the closed form", ()),
        ("eigen", cmd_eigen, "eigensolver vs outcome probabilities in the Fourier basis", ()),
        ("simulate", cmd_simulate, "Monte Carlo Cramer-Rao study", ("measurement", "study")),
        ("decompose", cmd_decompose, "beamsplitter netlist synthesis; its round-trip "
         "residual is max |U - T| over the entries, with no global-phase freedom", ()),
        ("sweep", cmd_sweep, "tabulate QFI or eigenvalues over a grid", ("sweep",)),
    )
    sub = {}
    for name, func, help_, sections in commands:
        p = sub[name] = subs.add_parser(name, help=help_)
        p.add_argument("-c", "--config", help="INI config file")
        for section in ("model", "output", *sections):
            for key, s in SETTINGS[section].items():
                flag = "--out" if key == "path" else "--" + key.replace("_", "-")
                p.add_argument(flag, dest=key, type=s.type, choices=s.choices, help=s.help)
        p.set_defaults(func=func)
    sub["qfi"].add_argument("--check", type=float, metavar="TOL",
                            help="exit 4 if |numeric - analytic| exceeds TOL")
    sub["decompose"].add_argument("--unitary", help="JSON file with a matrix of [re, im] pairs")
    sub["sweep"].add_argument("--check", type=float, metavar="TOL",
                              help="exit 4 if any |numeric - analytic| exceeds TOL")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        out = cfg["output"]
        if out["format"] == "text" and args.command != "decompose":
            raise ConfigError(f"{args.command} writes csv or json, not text")
        inputs = read_inputs(cfg, getattr(args, "unitary", None))
        h = config_hash(cfg, inputs)
        result = args.func(args, cfg, h, inputs)
        print(f"# config {h}")
        sys.stdout.write(result.stdout)
        if out["path"]:
            text = result.text if out["format"] != "json" else (
                json.dumps({"config_hash": h, **result.payload}, sort_keys=True, indent=2) + "\n")
            try:
                with open(out["path"], "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write output file {out['path']}: {exc}") from None
        tol = getattr(args, "check", None)
        if result.check and tol is not None and result.check[1] > tol:
            name, dev = result.check
            raise CheckFailure(f"max {name} deviation {dev:.3e} exceeds --check {tol:.3e}")
        return 0
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 4
    except (ConvergenceError, StudyError, EstimationError, ValueError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
