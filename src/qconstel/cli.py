"""Batch command-line front end.

Subcommands: ``qfi``, ``eigen``, ``simulate``, ``decompose``, ``sweep``.
Settings come from an INI config file (section.key) overridden by flags;
machine-readable CSV/JSON outputs are byte-reproducible and carry a hash
of the resolved scientific config.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 self-check
violation (``--check``).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import sys

import numpy as np

from .circuit import (
    from_text,
    load_unitary,
    netlist_unitary,
    preset_circuit,
    reck_decompose,
    relabeling_distance,
    to_json_dict,
    to_text,
)
from .estimation import (
    ModelFamily,
    analytic_qfi,
    character_basis,
    orbit_states,
    pair_model,
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


MODEL_KEYS = {
    "kind": str,
    "p": float,
    "px": float,
    "py": float,
    "n": int,
    "theta": float,
    "psf_angle": float,
    "phase": float,
    "psf_phase": float,
    "r": float,
    "x0": float,
    "y0": float,
}
MEASUREMENT_KEYS = {"basis": str, "netlist": str}
SWEEP_KEYS = {"parameter": str, "start": float, "stop": float, "count": int, "quantity": str}
STUDY_KEYS = {"photons": str, "trials": int, "seed": int, "bounds": str, "grid": int}
OUTPUT_KEYS = {"path": str, "format": str}

SECTIONS = {
    "model": MODEL_KEYS,
    "measurement": MEASUREMENT_KEYS,
    "sweep": SWEEP_KEYS,
    "study": STUDY_KEYS,
    "output": OUTPUT_KEYS,
}

DEFAULTS = {
    "model": {"kind": "pair", "p": 1.0, "px": 1.0, "py": 1.0, "n": 4, "theta": 0.0,
              "psf_angle": 0.0, "phase": 0.0, "psf_phase": 0.0, "r": 0.3,
              "x0": 0.4, "y0": 0.4},
    "measurement": {"basis": "eigenbasis", "netlist": ""},
    "sweep": {"parameter": "", "start": 0.1, "stop": 1.2, "count": 25, "quantity": "qfi"},
    "study": {"photons": "10000", "trials": 200, "seed": 7, "bounds": "", "grid": 256},
    "output": {"path": "", "format": "csv"},
}


def _read_config_file(path: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    out: dict = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        keys = SECTIONS[section]
        out[section] = {}
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                out[section][key] = keys[key](raw)
            except ValueError:
                raise ConfigError(
                    f"bad value for {section}.{key}: {raw!r} (expected {keys[key].__name__})"
                ) from None
    return out


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- config file <- command-line flags."""
    cfg = {s: dict(v) for s, v in DEFAULTS.items()}
    if getattr(args, "config", None):
        for section, values in _read_config_file(args.config).items():
            cfg[section].update(values)
    for section, keys in SECTIONS.items():
        for key in keys:
            val = getattr(args, key, None)
            if val is not None:
                cfg[section][key] = val
    if cfg["model"]["kind"] not in ("pair", "rect", "ring"):
        raise ConfigError(f"unknown model kind {cfg['model']['kind']!r}")
    if cfg["output"]["format"] not in ("csv", "json", "text"):
        raise ConfigError(f"unknown output format {cfg['output']['format']!r}")
    return cfg


def config_hash(cfg: dict) -> str:
    """Hash of the scientific part of the resolved config (not output paths)."""
    lines = []
    for section in sorted(cfg):
        if section == "output":
            continue
        for key in sorted(cfg[section]):
            val = cfg[section][key]
            if isinstance(val, float):
                val = repr(val)
            lines.append(f"{section}.{key}={val}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest[:12]


def build_model(cfg: dict) -> tuple[ModelFamily, np.ndarray, np.ndarray]:
    """Model family, evaluation point, and analytic QFIM from the config."""
    m = cfg["model"]
    kind = m["kind"]
    try:
        if kind == "pair":
            model = pair_model(m["p"], m["theta"], m["psf_angle"])
            values = np.array([m["r"]])
            ana = np.array(
                [[analytic_qfi("pair_off_axis", p=m["p"], theta=m["theta"], theta0=m["psf_angle"])]]
            )
        elif kind == "rect":
            model = rectangle_model(m["px"], m["py"])
            values = np.array([m["x0"], m["y0"]])
            ana = analytic_qfi("rectangle", p_x=m["px"], p_y=m["py"])
        else:
            model = ring_model(m["n"], m["p"], m["phase"], m["psf_phase"])
            values = np.array([m["r"]])
            ana = np.array([[analytic_qfi("ring", n=m["n"], p=m["p"])]])
        model.check_values(values, closed=True)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return model, values, ana


def _require_interior(model: ModelFamily, values: np.ndarray) -> None:
    try:
        model.check_values(values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def measurement_basis(cfg: dict, model: ModelFamily) -> np.ndarray:
    choice = cfg["measurement"]["basis"]
    if choice == "eigenbasis":
        return model.qft_basis
    if choice == "direct":
        return np.eye(model.dim)
    if choice == "netlist":
        path = cfg["measurement"]["netlist"]
        if not path:
            raise ConfigError("measurement.basis=netlist needs measurement.netlist=<file>")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                net = from_text(fh.read(), n_modes=model.dim)
        except OSError as exc:
            raise ConfigError(f"cannot read netlist file {path}: {exc}") from None
        return netlist_unitary(net).conj().T
    raise ConfigError(f"unknown measurement basis {choice!r}")


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


def write_csv(path: str, hash_: str, header: list[str], rows: list[tuple]) -> None:
    lines = [f"# config_hash={hash_}", ",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, hash_: str, payload: dict) -> None:
    doc = {"config_hash": hash_, **payload}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _emit(cfg: dict, hash_: str, header: list[str], rows: list[tuple], payload: dict) -> None:
    path = cfg["output"]["path"]
    if not path:
        return
    if cfg["output"]["format"] == "json":
        write_json(path, hash_, payload)
    else:
        write_csv(path, hash_, header, rows)


def cmd_qfi(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    h = config_hash(cfg)
    model, values, ana = build_model(cfg)
    _require_interior(model, values)
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


def cmd_eigen(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    h = config_hash(cfg)
    model, values, _ = build_model(cfg)
    basis = character_basis(model, values)
    # orbit-state mixture: equals the model density matrix and also covers
    # degenerate boundary points like zero separation
    states = orbit_states(model, values)
    rho = states.T @ states.conj() / states.shape[0]
    evals, _vecs = eig_hermitian(rho)
    order_w = np.argsort(basis.weights)[::-1]
    order_e = np.argsort(evals)[::-1]
    matched = np.empty_like(evals)
    matched[order_w] = evals[order_e]
    header = ["lambda", "weight", "eigenvalue", "abs_diff"]
    rows = [
        (int(k), float(basis.weights[k]), float(matched[k]),
         abs(float(basis.weights[k] - matched[k])))
        for k in range(len(basis.weights))
    ]
    print_table(h, header, rows)
    _emit(cfg, h, header, rows,
          {"weights": basis.weights.tolist(), "eigenvalues": evals.tolist()})
    return 0


def _study_bounds(cfg: dict, model: ModelFamily) -> tuple[float, float]:
    raw = cfg["study"]["bounds"]
    if raw:
        try:
            lo, hi = (float(x) for x in raw.split(","))
        except ValueError:
            raise ConfigError(f"study.bounds must be 'lo,hi', got {raw!r}") from None
        return lo, hi
    m = cfg["model"]
    delta = 1e-3
    if m["kind"] == "pair":
        return delta, np.pi / (2.0 * m["p"]) - delta
    if m["kind"] == "ring":
        return delta, np.pi / m["p"] - delta
    raise ConfigError("studies need an explicit study.bounds for this model kind")


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    h = config_hash(cfg)
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
    header = ["M", "trials", "mse", "crb", "ratio"]
    rows = report.rows()
    print_table(h, header, rows)
    print(f"qfi = {report.qfi:.17g}")
    _emit(cfg, h, header, rows, report.to_dict())
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    h = config_hash(cfg)
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
        kind = cfg["model"]["kind"]
        preset = {"pair": "pair", "rect": "rect", "ring": "ring"}[kind]
        n = cfg["model"]["n"] if preset == "ring" else None
        net = preset_circuit(preset, n)
        group = build_model(cfg)[0].group
        residual, _perm = relabeling_distance(netlist_unitary(net), qft_matrix(group))
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
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    h = config_hash(cfg)
    model, values, ana = build_model(cfg)
    s = cfg["sweep"]
    param = s["parameter"] or model.names[0]
    if param not in model.names:
        raise ConfigError(f"sweep parameter {param!r} not in model parameters {model.names}")
    idx = model.names.index(param)
    if s["count"] < 1:
        raise ConfigError("sweep.count must be >= 1")
    grid = np.linspace(s["start"], s["stop"], s["count"])
    quantity = s["quantity"]
    rows = []
    if quantity == "qfi":
        header = [param, "qfi_numeric", "qfi_analytic", "abs_diff"]
        for x in grid:
            point = values.copy()
            point[idx] = x
            _require_interior(model, point)
            num = float(qfim(model, point)[idx, idx])
            an = float(np.asarray(ana)[idx, idx])
            rows.append((float(x), num, an, abs(num - an)))
        maxdiff = max(r[3] for r in rows)
    elif quantity == "eigenvalues":
        header = [param] + [f"lambda_{k}" for k in range(model.dim)]
        for x in grid:
            point = values.copy()
            point[idx] = x
            rows.append((float(x), *(float(w) for w in character_basis(model, point).weights)))
        maxdiff = None
    else:
        raise ConfigError(f"unknown sweep quantity {quantity!r}")
    print_table(h, header, rows)
    _emit(cfg, h, header, rows, {"header": header, "rows": [list(r) for r in rows]})
    if args.check is not None:
        if maxdiff is None:
            raise ConfigError("--check applies to quantity=qfi sweeps")
        if maxdiff > args.check:
            raise CheckFailure(
                f"max sweep deviation {maxdiff:.3e} exceeds --check {args.check:.3e}"
            )
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-c", "--config", help="INI config file")
    sub.add_argument("--kind", choices=["pair", "rect", "ring"])
    sub.add_argument("--p", type=float, help="psf momentum magnitude (pair/ring)")
    sub.add_argument("--px", type=float, help="psf x momentum (rect)")
    sub.add_argument("--py", type=float, help="psf y momentum (rect)")
    sub.add_argument("--n", type=int, help="number of ring sources/modes")
    sub.add_argument("--theta", type=float, help="pair source angle")
    sub.add_argument("--psf-angle", dest="psf_angle", type=float, help="pair psf angle")
    sub.add_argument("--phase", type=float, help="ring constellation phase")
    sub.add_argument("--psf-phase", dest="psf_phase", type=float, help="ring psf phase")
    sub.add_argument("--r", type=float, help="pair/ring radius")
    sub.add_argument("--x0", type=float, help="rectangle half-side x")
    sub.add_argument("--y0", type=float, help="rectangle half-side y")
    sub.add_argument("--out", dest="path", help="output file path")
    sub.add_argument("--format", choices=["csv", "json", "text"])


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

    p_qfi = subs.add_parser("qfi", help="numeric QFIM vs the closed form")
    _add_common(p_qfi)
    p_qfi.add_argument("--check", type=float, metavar="TOL",
                       help="exit 4 if |numeric - analytic| exceeds TOL")
    p_qfi.set_defaults(func=cmd_qfi)

    p_eig = subs.add_parser("eigen", help="eigenvalues vs character-basis weights")
    _add_common(p_eig)
    p_eig.set_defaults(func=cmd_eigen)

    p_sim = subs.add_parser("simulate", help="Monte Carlo Cramer-Rao study")
    _add_common(p_sim)
    p_sim.add_argument("--basis", choices=["eigenbasis", "direct", "netlist"])
    p_sim.add_argument("--netlist", help="netlist file for basis=netlist")
    p_sim.add_argument("--photons", help="comma-separated photon counts")
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--bounds", help="estimator search interval 'lo,hi'")
    p_sim.add_argument("--grid", type=int, help="MLE scan grid points")
    p_sim.set_defaults(func=cmd_simulate)

    p_dec = subs.add_parser("decompose", help="beamsplitter netlist synthesis")
    _add_common(p_dec)
    p_dec.add_argument("--unitary", help="JSON file with a matrix of [re, im] pairs")
    p_dec.set_defaults(func=cmd_decompose)

    p_swp = subs.add_parser("sweep", help="tabulate QFI or eigenvalues over a grid")
    _add_common(p_swp)
    p_swp.add_argument("--parameter", help="swept parameter name")
    p_swp.add_argument("--start", type=float)
    p_swp.add_argument("--stop", type=float)
    p_swp.add_argument("--count", type=int)
    p_swp.add_argument("--quantity", choices=["qfi", "eigenvalues"])
    p_swp.add_argument("--check", type=float, metavar="TOL",
                       help="exit 4 if any |numeric - analytic| exceeds TOL")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
