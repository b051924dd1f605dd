"""Workloads: job templates, their input pools and the seeded job stream.

A workload is a fixed set of job templates.  Each template has a weight
(jobs per round) and a finite pool of members (a study seed, a psf
momentum, a Haar-unitary index).  The workload seed only picks pool
members and the order of jobs inside each round, so every seed gives the
same mix of job sizes while no two seeds give the same job list.  Because
pools are finite, the outputs of every member can be stored with the
benchmark as reference outputs (see ``reference.json``).

The weights put the 50th and 90th percentiles of job time inside a
template's cost tier rather than on the boundary between two tiers, where
a quantile would jump between two job kinds from run to run.
"""

from __future__ import annotations

import json
import random
import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# Pool inputs are derived from this fixed seed, never from the workload seed,
# so that their reference outputs can be stored.
POOL_SEED = 2206_14788

STUDY_SEEDS = tuple(range(32))
P_POOL = (0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2)
HAAR_POOL = tuple(range(8))

CRB_RADIUS = 0.3
CRB_TRIALS = 4


@dataclass(frozen=True)
class Job:
    """One CLI call; ``argv`` lacks the ``--out`` flag the harness appends."""

    key: str
    argv: tuple[str, ...]
    fmt: str
    spec: dict

    @property
    def template(self) -> str:
        return self.key.split("/")[1]

    @property
    def suffix(self) -> str:
        return {"csv": ".csv", "json": ".json", "text": ".txt"}[self.fmt]


@dataclass(frozen=True)
class Template:
    name: str
    weight: int
    pool: tuple
    build: Callable[[object, Path], Job]


# ---------------------------------------------------------------- crb


def _simulate(name: str, kind: str, n: int, photons: str, basis: str):
    def build(seed, inputs: Path) -> Job:
        argv = ["simulate", "--kind", kind, "--n", str(n), "--p", "1.0",
                "--r", repr(CRB_RADIUS), "--photons", photons,
                "--trials", str(CRB_TRIALS), "--seed", str(seed), "--format", "json"]
        if basis == "netlist":
            argv += ["--basis", "netlist", "--netlist", str(inputs / "ring8.net")]
        spec = {"check": "simulate", "kind": kind, "n": n if kind == "ring" else 2, "p": 1.0,
                "r": CRB_RADIUS, "photons": [int(m) for m in photons.split(",")],
                "trials": CRB_TRIALS}
        return Job(f"crb/{name}/seed={seed}", tuple(argv), "json", spec)

    return build


def _crb_templates() -> list[Template]:
    """Monte Carlo CRB studies: rho rebuilds and outcome probabilities in the MLE dominate."""
    rows = [  # name, weight, kind, n, photons, basis
        ("pair-1e3", 2, "pair", 2, "1000", "eigenbasis"),
        ("pair-1e4", 1, "pair", 2, "10000", "eigenbasis"),
        ("ring4-1e3", 1, "ring", 4, "1000", "eigenbasis"),
        ("ring4-1e4", 1, "ring", 4, "10000", "eigenbasis"),
        ("ring5-1e3", 1, "ring", 5, "1000", "eigenbasis"),
        ("ring5-1e4", 1, "ring", 5, "10000", "eigenbasis"),
        ("ring8-1e3", 1, "ring", 8, "1000", "eigenbasis"),
        ("ring8-1e4", 1, "ring", 8, "10000", "eigenbasis"),
        ("ring8-both", 2, "ring", 8, "1000,10000", "eigenbasis"),
        ("ring8-netlist", 1, "ring", 8, "10000", "netlist"),
    ]
    return [Template(name, w, STUDY_SEEDS, _simulate(name, *args)) for name, w, *args in rows]


def _crb_inputs(inputs: Path, cli_main: Callable) -> None:
    # the measurement circuit of the netlist-basis job, made by the CLI itself
    argv = ["decompose", "--kind", "ring", "--n", "8", "--out", str(inputs / "ring8.net")]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")


# ---------------------------------------------------------------- sweep


def _ini_job(name: str, command: str, model: dict, sweep: dict):
    def build(p, inputs: Path) -> Job:
        key = f"sweep/{name}/p={p!r}"
        path = inputs / f"{name}-p{p!r}.ini"
        argv = (command, "-c", str(path))
        m = dict(model)
        if m["kind"] == "rect":
            m["px"] = p
        else:
            m["p"] = p
        spec = {"check": command, "model": m, "sweep": sweep, "ini": path.name}
        return Job(key, argv, "csv", spec)

    return build


def _sweep_templates() -> list[Template]:
    """QFI and eigenvalue tables: finite-difference SLD and the eigensolver dominate.

    The eigenvalue jobs reach ``estimation`` through the symmetric eigenbasis
    instead of the general eigensolver, so a change that speeds one route and
    slows the other shows.  No MLE and no circuit code runs here.
    """
    lin = {"start": 0.1, "stop": 1.2}
    rows = [  # name, weight, command, [model], [sweep]; the psf momentum comes from the pool
        ("pair", 4, "sweep", {"kind": "pair", "r": 0.3}, {**lin, "count": 8}),
        ("rect", 2, "sweep", {"kind": "rect", "py": 1.0, "x0": 0.4, "y0": 0.4},
         {**lin, "count": 6, "parameter": "x0"}),
        ("ring5", 2, "sweep", {"kind": "ring", "n": 5, "r": 0.3}, {**lin, "count": 8}),
        ("ring8", 2, "sweep", {"kind": "ring", "n": 8, "r": 0.3}, {**lin, "count": 6}),
        ("ring16", 3, "sweep", {"kind": "ring", "n": 16, "r": 0.3}, {**lin, "count": 3}),
        ("ring16-eigvals", 4, "sweep", {"kind": "ring", "n": 16, "r": 0.3},
         {**lin, "count": 8, "quantity": "eigenvalues"}),
        ("ring16-eigen", 2, "eigen", {"kind": "ring", "n": 16, "r": 0.5}, {}),
        ("ring32-qfi", 1, "qfi", {"kind": "ring", "n": 32, "r": 0.5}, {}),
    ]
    return [Template(name, w, P_POOL, _ini_job(name, *args)) for name, w, *args in rows]


def _write_ini(path: Path, model: dict, sweep: dict) -> None:
    lines = []
    for section, values in (("model", model), ("sweep", sweep)):
        if values:
            lines += [f"[{section}]"] + [f"{k} = {v}" for k, v in values.items()] + [""]
    path.write_text("\n".join(lines), encoding="utf-8")


def _sweep_inputs(inputs: Path) -> None:
    for t in _sweep_templates():
        for p in t.pool:
            job = t.build(p, inputs)
            _write_ini(inputs / job.spec["ini"], job.spec["model"], job.spec["sweep"])


# ---------------------------------------------------------------- circuit


def haar_unitary(n: int, idx: int) -> np.ndarray:
    """Pool member ``idx`` of the n-mode Haar unitaries (QR of a Ginibre matrix)."""
    rng = np.random.default_rng([POOL_SEED, n, idx])
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _haar(n: int):
    def build(idx, inputs: Path) -> Job:
        path = inputs / f"haar{n}-{idx}.json"
        return Job(f"circuit/haar{n}/idx={idx}", ("decompose", "--unitary", str(path)),
                   "text", {"check": "haar", "n": n, "idx": idx})

    return build


def _preset(kind: str, n: int):
    def build(_member, inputs: Path) -> Job:
        argv = ["decompose", "--kind", kind, "--format", "json"]
        if kind == "ring":
            argv += ["--n", str(n)]
        return Job(f"circuit/preset-{kind}{n}", tuple(argv), "json",
                   {"check": "preset", "kind": kind, "n": n})

    return build


def _circuit_templates() -> list[Template]:
    """Reck synthesis and the phase search of ``unitary_distance``; no estimation code."""
    haar = [Template(f"haar{n}", 2 if n == 16 else 1, HAAR_POOL, _haar(n)) for n in (2, 4, 8, 16)]
    presets = [Template(f"preset-{k}{n}", 2 if n == 16 else 1, (None,), _preset(k, n))
               for k, n in (("pair", 2), ("rect", 4), ("ring", 4), ("ring", 8), ("ring", 16))]
    return haar + presets


def _circuit_inputs(inputs: Path) -> None:
    for n in (2, 4, 8, 16):
        for idx in HAAR_POOL:
            rows = [[[float(z.real), float(z.imag)] for z in row] for row in haar_unitary(n, idx)]
            (inputs / f"haar{n}-{idx}.json").write_text(json.dumps({"matrix": rows}) + "\n")


# ---------------------------------------------------------------- common

TEMPLATES = {
    "crb": _crb_templates,
    "sweep": _sweep_templates,
    "circuit": _circuit_templates,
}


def templates(workload: str) -> list[Template]:
    return TEMPLATES[workload]()


def rounds(workload: str, seed: int, inputs: Path) -> Iterator[list[Job]]:
    """Endless seeded stream of rounds; a round holds every template ``weight`` times.

    Each template deals its pool members without replacement, reshuffling
    when the pool runs out, so a run of a few rounds uses every member about
    equally often whatever the seed (job cost depends on the member).
    """
    rng = random.Random(f"{workload}/{seed}")
    temps = templates(workload)
    decks: dict[str, list] = {t.name: [] for t in temps}

    def deal(t: Template):
        deck = decks[t.name]
        if not deck:
            deck.extend(rng.sample(t.pool, len(t.pool)))
        return deck.pop()

    while True:
        jobs = [t.build(deal(t), inputs) for t in temps for _ in range(t.weight)]
        rng.shuffle(jobs)
        yield jobs


def warmup_job(workload: str, inputs: Path) -> Job:
    """The same job for every seed, so set-up time does not depend on the seed."""
    t = templates(workload)[0]
    return t.build(t.pool[0], inputs)


def write_inputs(workload: str, inputs: Path, cli_main: Callable) -> None:
    """Write every input file a job of the workload can name."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "crb":
        _crb_inputs(inputs, cli_main)
    elif workload == "sweep":
        _sweep_inputs(inputs)
    else:
        _circuit_inputs(inputs)

