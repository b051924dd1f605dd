"""Batch command-line front end.

Subcommands: ``qfi``, ``eigen``, ``simulate``, ``decompose``, ``sweep``.
Settings come from an INI config file (section.key) overridden by flags;
machine-readable CSV/JSON outputs are byte-reproducible and carry a hash
of the resolved scientific config.

``SETTINGS`` is the one place a setting is declared (section, key, type,
default, choices, help); flags, INI types, defaults and choice checks derive
from it.  The flag of key ``k`` is ``--k`` with ``_`` spelled ``-``, except
``output.path``, which is ``--out``.  Every subcommand reads the ``model`` and
``output`` sections, ``simulate`` also ``measurement`` and ``study``, and
``sweep`` also ``sweep``; each takes flags for the sections it reads.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 self-check
violation (``--check``).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import sys
from typing import NamedTuple
try:  # builtin SHA-256 first: importing hashlib loads OpenSSL just to hash the config
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

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
from .estimation import (
    ModelFamily,
    analytic_qfi,
    orbit_states,
    outcome_probabilities,
    qfim,
    rectangle_model,
    ring_model,
)
from .linalg import ConvergenceError, eig_hermitian, unitary_distance
from .simulate import EstimationError, StudyConfig, StudyError, crb_study
from .symmetry import qft_matrix


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class CheckFailure(RuntimeError):
    """A --check threshold was violated."""


class Setting(NamedTuple):
    """Type (INI and flag), default, allowed values (None: any) and ``--help`` text."""

    type: type
    default: object
    choices: tuple[str, ...] | None = None
    help: str | None = None


SETTINGS = {
    "model": {
        "kind": Setting(str, "pair", ("pair", "rect", "ring")),
        "p": Setting(float, 1.0, help="psf momentum magnitude (pair/ring)"),
        "px": Setting(float, 1.0, help="psf x momentum (rect)"),
        "py": Setting(float, 1.0, help="psf y momentum (rect)"),
        "n": Setting(int, 4, help="number of ring sources/modes (pair fixes n = 2)"),
        "phase": Setting(float, 0.0, help="pair/ring angle of the first source"),
        "psf_phase": Setting(float, 0.0, help="pair/ring psf absolute angle; the default 0.0 "
                             "aligns the psf with phase-0 sources"),
        "r": Setting(float, 0.3, help="pair/ring radius"),
        "x0": Setting(float, 0.4, help="rectangle half-side x"),
        "y0": Setting(float, 0.4, help="rectangle half-side y"),
    },
    "measurement": {
        "basis": Setting(str, "eigenbasis", ("eigenbasis", "direct", "netlist")),
        "netlist": Setting(str, "", help="netlist file for basis=netlist"),
    },
    "sweep": {
        "parameter": Setting(str, "", help="swept parameter name"),
        "start": Setting(float, 0.1),
        "stop": Setting(float, 1.2),
        "count": Setting(int, 25),
        "quantity": Setting(str, "qfi", ("qfi", "eigenvalues")),
    },
    "study": {
        "photons": Setting(str, "10000", help="comma-separated photon counts"),
        "trials": Setting(int, 200),
        "seed": Setting(int, 7),
        "bounds": Setting(str, "", help="estimator search interval 'lo,hi'; by default from 1e-3 "
                                        "to pi/(2p) - 1e-3 for two sources and to pi/p - 1e-3 "
                                        "for larger rings"),
        "grid": Setting(int, 256, help="MLE scan grid points"),
    },
    "output": {
        "path": Setting(str, "", help="output file path"),
        "format": Setting(str, "csv", ("csv", "json", "text"),
                          help="output file format; decompose writes the netlist text for csv "
                               "and text, the other subcommands take csv or json only"),
    },
}


def _read_config_file(path: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    out: dict = {}
    for section in parser.sections():
        if section not in SETTINGS:
            raise ConfigError(f"unknown config section [{section}]")
        keys = SETTINGS[section]
        out[section] = {}
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            type_ = keys[key].type
            try:
                out[section][key] = type_(raw)
            except ValueError:
                raise ConfigError(
                    f"bad value for {section}.{key}: {raw!r} (expected {type_.__name__})"
                ) from None
    return out


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- config file <- command-line flags, with choices checked."""
    cfg = {s: {k: v.default for k, v in keys.items()} for s, keys in SETTINGS.items()}
    if getattr(args, "config", None):
        for section, values in _read_config_file(args.config).items():
            cfg[section].update(values)
    for section, keys in SETTINGS.items():
        for key, setting in keys.items():
            val = getattr(args, key, None)
            if val is not None:
                cfg[section][key] = val
            if setting.choices and cfg[section][key] not in setting.choices:
                raise ConfigError(
                    f"{section}.{key} must be one of {', '.join(setting.choices)}, "
                    f"got {cfg[section][key]!r}"
                )
    return cfg


def _file_sha256(path: str, error: str) -> str:
    try:
        with open(path, "rb") as fh:
            return sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise ConfigError(f"{error} {path}: {exc}") from None


def config_hash(cfg: dict, unitary: str | None = None) -> str:
    """Hash of the scientific part of the resolved config (not output paths).

    Input files enter by content: the netlist if ``measurement.basis`` is
    ``netlist`` (else it hashes empty), and the ``decompose`` unitary.
    """
    lines = []
    for section in sorted(cfg):
        if section == "output":
            continue
        for key in sorted(cfg[section]):
            val = cfg[section][key]
            if (section, key) == ("measurement", "netlist"):
                val = (_file_sha256(val, "cannot read netlist file")
                       if val and cfg[section]["basis"] == "netlist" else "")
            elif isinstance(val, float):
                val = repr(val)
            lines.append(f"{section}.{key}={val}")
    if unitary:
        lines.append(f"unitary={_file_sha256(unitary, 'cannot read unitary from')}")
    return sha256("\n".join(lines).encode()).hexdigest()[:12]


def build_model(cfg: dict) -> tuple[ModelFamily, np.ndarray, np.ndarray]:
    """Model family, evaluation point, and analytic QFIM from the config.

    ``pair`` is the two-source ring: both kinds build ``ring_model(n, p,
    phase, psf_phase)``, with n = 2 for ``pair``.  At n = 2 the closed form
    is ``pair_off_axis`` at that orientation, whichever kind names it;
    larger rings take ``ring``.
    """
    m = cfg["model"]
    try:
        if m["kind"] == "rect":
            model = rectangle_model(m["px"], m["py"])
            values = np.array([m["x0"], m["y0"]])
            ana = analytic_qfi("rectangle", p_x=m["px"], p_y=m["py"])
        else:
            n = 2 if m["kind"] == "pair" else m["n"]
            model = ring_model(n, m["p"], m["phase"], m["psf_phase"])
            values = np.array([m["r"]])
            qfi = (analytic_qfi("pair_off_axis", p=m["p"], theta=m["phase"],
                                theta0=m["psf_phase"])
                   if n == 2 else analytic_qfi("ring", n=n, p=m["p"]))
            ana = np.array([[qfi]])
        model.check_values(values, closed=True)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return model, values, ana


def _require(check, values: np.ndarray) -> None:
    """Run a model's domain check; its ValueError is a config error."""
    try:
        check(values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def measurement_basis(cfg: dict, model: ModelFamily) -> np.ndarray:
    choice = cfg["measurement"]["basis"]
    if choice == "eigenbasis":
        return model.qft_basis
    if choice == "direct":
        return np.eye(model.dim)
    path = cfg["measurement"]["netlist"]  # choice == "netlist"
    if not path:
        raise ConfigError("measurement.basis=netlist needs measurement.netlist=<file>")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            net = from_text(fh.read(), n_modes=model.dim)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read netlist file {path}: {exc}") from None
    return netlist_unitary(net).conj().T


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def print_table(hash_: str, header: list[str], rows: list[tuple]) -> None:
    print(f"# config {hash_}")
    cells = [header] + [[_fmt(x) for x in row] for row in rows]
    widths = [max(len(row[c]) for row in cells) for c in range(len(header))]
    for row in cells:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from None


def write_csv(path: str, hash_: str, header: list[str], rows: list[tuple]) -> None:
    lines = [f"# config_hash={hash_}", ",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, hash_: str, payload: dict) -> None:
    doc = {"config_hash": hash_, **payload}
    write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _emit(cfg: dict, hash_: str, header: list[str], rows: list[tuple], payload: dict) -> None:
    path = cfg["output"]["path"]
    if not path:
        return
    if cfg["output"]["format"] == "json":
        write_json(path, hash_, payload)
    else:
        write_csv(path, hash_, header, rows)


def cmd_qfi(args: argparse.Namespace, cfg: dict, h: str) -> int:
    model, values, ana = build_model(cfg)
    _require(model.check_values, values)
    numeric = qfim(model, values)
    diff = float(np.max(np.abs(numeric - ana)))
    header = ["mu", "nu", "numeric", "analytic", "abs_diff"]
    rows = [
        (model.names[a], model.names[b], float(numeric[a, b]), float(ana[a, b]),
         abs(float(numeric[a, b] - ana[a, b])))
        for a in range(model.n_params)
        for b in range(model.n_params)
    ]
    print_table(h, header, rows)
    print(f"max |numeric - analytic| = {diff:.3e}")
    _emit(cfg, h, header, rows,
          {"qfim": numeric.tolist(), "analytic": np.asarray(ana).tolist(), "max_abs_diff": diff})
    if args.check is not None and diff > args.check:
        raise CheckFailure(f"max QFI deviation {diff:.3e} exceeds --check {args.check:.3e}")
    return 0


def cmd_eigen(args: argparse.Namespace, cfg: dict, h: str) -> int:
    model, values, _ = build_model(cfg)
    weights = outcome_probabilities(model, values, model.qft_basis)
    # orbit-state mixture: equals the model density matrix and also covers
    # degenerate boundary points like zero separation
    states = orbit_states(model, values)
    rho = states.T @ states.conj() / states.shape[0]
    evals, _vecs = eig_hermitian(rho)
    order_w = np.argsort(weights)[::-1]
    order_e = np.argsort(evals)[::-1]
    matched = np.empty_like(evals)
    matched[order_w] = evals[order_e]
    header = ["lambda", "weight", "eigenvalue", "abs_diff"]
    rows = [
        (int(k), float(weights[k]), float(matched[k]), abs(float(weights[k] - matched[k])))
        for k in range(len(weights))
    ]
    print_table(h, header, rows)
    _emit(cfg, h, header, rows, {"weights": weights.tolist(), "eigenvalues": evals.tolist()})
    return 0


def _study_bounds(cfg: dict, model: ModelFamily) -> tuple[float, float]:
    raw = cfg["study"]["bounds"]
    if raw:
        try:
            lo, hi = (float(x) for x in raw.split(","))
        except ValueError:
            raise ConfigError(f"study.bounds must be 'lo,hi', got {raw!r}") from None
        return lo, hi
    # a two-source likelihood mirrors exactly at pi/(2p); simulate rejects rect before this
    p, delta = cfg["model"]["p"], 1e-3
    if model.dim == 2:
        return delta, np.pi / (2.0 * p) - delta
    return delta, np.pi / p - delta


def cmd_simulate(args: argparse.Namespace, cfg: dict, h: str) -> int:
    model, values, _ = build_model(cfg)
    if model.n_params != 1:
        raise ConfigError("simulate estimates a single scalar parameter; use pair or ring")
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
            basis=measurement_basis(cfg, model),
            grid_points=cfg["study"]["grid"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    report = crb_study(study)
    header = ["M", "trials", "failures", "mse", "crb", "ratio"]
    rows = report.rows()
    print_table(h, header, rows)
    print(f"qfi = {report.qfi:.17g}")
    _emit(cfg, h, header, rows, report.to_dict())
    return 0


def cmd_decompose(args: argparse.Namespace, cfg: dict, h: str) -> int:
    if args.unitary:
        try:
            target = load_unitary(args.unitary)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot read unitary from {args.unitary}: {exc}") from None
        try:
            net = reck_decompose(target)
        except ValueError as exc:
            raise ConvergenceError(str(exc))
        residual = unitary_distance(netlist_unitary(net), target)
    else:
        model = build_model(cfg)[0]
        net = fourier_circuit(model.group)
        residual = unitary_distance(netlist_unitary(net), qft_matrix(model.group))
    text = to_text(net)
    print(f"# config {h}")
    sys.stdout.write(text)
    print(f"# elements: {len(net.elements)}  beamsplitters: {net.beamsplitter_count}")
    print(f"# round-trip residual: {residual:.3e}")
    path = cfg["output"]["path"]
    if path:
        if cfg["output"]["format"] == "json":
            write_json(path, h, {"netlist": to_json_dict(net), "residual": residual})
        else:
            write_text(path, text)
    return 0


def cmd_sweep(args: argparse.Namespace, cfg: dict, h: str) -> int:
    model, values, ana = build_model(cfg)
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
        header, rows = [param, "qfi_numeric", "qfi_analytic", "abs_diff"], []
        for x, point in zip(grid, block):
            _require(model.check_values, point)
            num = float(qfim(model, point)[idx, idx])
            an = float(np.asarray(ana)[idx, idx])
            rows.append((float(x), num, an, abs(num - an)))
        maxdiff = max(r[3] for r in rows)
    else:
        header = [param] + [f"lambda_{k}" for k in range(model.dim)]
        _require(model.check_block, block)
        weights = outcome_probabilities(model, block, model.qft_basis)
        rows = [(float(x), *(float(w) for w in q)) for x, q in zip(grid, weights)]
    print_table(h, header, rows)
    _emit(cfg, h, header, rows, {"header": header, "rows": [list(r) for r in rows]})
    if args.check is not None and maxdiff > args.check:
        raise CheckFailure(f"max sweep deviation {maxdiff:.3e} exceeds --check {args.check:.3e}")
    return 0


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
        ("decompose", cmd_decompose, "beamsplitter netlist synthesis", ()),
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
        if cfg["output"]["format"] == "text" and args.command != "decompose":
            raise ConfigError(f"{args.command} writes csv or json, not text")
        return args.func(args, cfg, config_hash(cfg, getattr(args, "unitary", None)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 4
    except (ConvergenceError, StudyError, EstimationError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
