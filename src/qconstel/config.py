"""Run configuration and input files of the command-line front end.

``SETTINGS`` is the one place a setting is declared (section, key, type,
default, choices, help); flags, INI types, defaults and choice checks derive
from it.  The flag of key ``k`` is ``--k`` with ``_`` spelled ``-``, except
``output.path``, which is ``--out``.  ``resolve_config`` layers defaults, an
INI config file (section.key) and flags.  ``read_inputs`` reads each input
file a run names once, and ``config_hash`` names the resolved scientific
config and those input bytes without opening anything.
"""

from __future__ import annotations

import argparse
from typing import NamedTuple
try:  # builtin SHA-256 first: importing hashlib loads OpenSSL just to hash the config
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


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
        "bounds": Setting(str, "", help="estimator search interval 'lo,hi'; by default the "
                                        "model family's box (ModelFamily.box)"),
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
    import configparser  # only an INI run pays for it
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


def read_inputs(cfg: dict, unitary: str | None) -> dict[str, bytes]:
    """By input name, the bytes of each file the run names, read once.

    ``netlist`` is ``measurement.netlist`` when ``measurement.basis`` is
    ``netlist``, ``unitary`` the ``decompose --unitary`` file; an input with
    no path is absent.  ``config_hash`` hashes the bytes, the commands parse them.
    """
    netlist = cfg["measurement"]["netlist"] if cfg["measurement"]["basis"] == "netlist" else ""
    inputs = {}
    for name, path, error in (("netlist", netlist, "cannot read netlist file"),
                              ("unitary", unitary, "cannot read unitary from")):
        if path:
            try:
                with open(path, "rb") as fh:
                    inputs[name] = fh.read()
            except OSError as exc:
                raise ConfigError(f"{error} {path}: {exc}") from None
    return inputs


def config_hash(cfg: dict, inputs: dict[str, bytes]) -> str:
    """Hash of the scientific part of the resolved config (not output paths).

    Input files enter by content, as ``read_inputs`` returns them: the
    netlist's hash stands for its path (empty without one), and the unitary's
    hash is a line of its own.
    """
    lines = []
    for section in sorted(cfg):
        if section == "output":
            continue
        for key in sorted(cfg[section]):
            val = cfg[section][key]
            if (section, key) == ("measurement", "netlist"):
                val = sha256(inputs["netlist"]).hexdigest() if "netlist" in inputs else ""
            elif isinstance(val, float):
                val = repr(val)
            lines.append(f"{section}.{key}={val}")
    if "unitary" in inputs:
        lines.append(f"unitary={sha256(inputs['unitary']).hexdigest()}")
    return sha256("\n".join(lines).encode()).hexdigest()[:12]
