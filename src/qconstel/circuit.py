"""Beamsplitter/phaseshifter netlists realizing measurement unitaries.

Convention: a beamsplitter on modes (i, j) with mixing angle t and relative
phase f acts on the (i, j) block as::

    [[cos t,            e^{if} sin t],
     [e^{-if} sin t,   -cos t       ]]

This block is unitary and Hermitian (an involution); the 50:50 setting
t = pi/4, f = 0 is exactly the real Hadamard mix.  Elements are applied in
list order, output phases last.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import unitarity_defect, unitary_distance
from .symmetry import AbelianGroup, qft_matrix

UNITARY_ATOL = 1e-10
PRUNE_TOL = 1e-12


@dataclass(frozen=True)
class Beamsplitter:
    """Two-mode mixer; ``mixing`` = pi/4 is 50:50."""

    i: int
    j: int
    mixing: float
    phase: float = 0.0

    def __post_init__(self):
        if self.i < 0 or self.j < 0 or self.i >= self.j:
            raise ValueError(f"beamsplitter needs 0 <= i < j, got ({self.i}, {self.j})")


@dataclass(frozen=True)
class PhaseShifter:
    """Single-mode phase e^{i phase}."""

    mode: int
    phase: float

    def __post_init__(self):
        if self.mode < 0:
            raise ValueError(f"phaseshifter mode must be >= 0, got {self.mode}")


@dataclass(frozen=True)
class InterferometerNetlist:
    """Ordered optical elements on ``n_modes`` modes plus an output phase layer."""

    n_modes: int
    elements: tuple
    output_phases: tuple[float, ...] = ()

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("netlist needs at least one mode")
        for el in self.elements:
            top = el.j if isinstance(el, Beamsplitter) else el.mode
            if top >= self.n_modes:
                raise ValueError(f"element {el} exceeds mode count {self.n_modes}")
        if self.output_phases and len(self.output_phases) != self.n_modes:
            raise ValueError("output phase layer must cover every mode")

    @property
    def beamsplitter_count(self) -> int:
        return sum(isinstance(el, Beamsplitter) for el in self.elements)


def element_unitary(el, n: int) -> np.ndarray:
    u = np.eye(n, dtype=np.complex128)
    if isinstance(el, Beamsplitter):
        c = np.cos(el.mixing)
        s = np.sin(el.mixing)
        u[el.i, el.i] = c
        u[el.i, el.j] = np.exp(1j * el.phase) * s
        u[el.j, el.i] = np.exp(-1j * el.phase) * s
        u[el.j, el.j] = -c
    elif isinstance(el, PhaseShifter):
        u[el.mode, el.mode] = np.exp(1j * el.phase)
    else:
        raise TypeError(f"unknown netlist element: {el!r}")
    return u


def netlist_unitary(net: InterferometerNetlist) -> np.ndarray:
    """Total mode transformation of the netlist (elements first, phases last)."""
    u = np.eye(net.n_modes, dtype=np.complex128)
    for el in net.elements:
        u = element_unitary(el, net.n_modes) @ u
    if net.output_phases:
        u = np.exp(1j * np.asarray(net.output_phases))[:, None] * u
    return u


def reck_decompose(u: np.ndarray) -> InterferometerNetlist:
    """Triangular beamsplitter mesh (plus output phases) realizing ``u``.

    Emits at most n(n-1)/2 beamsplitters; rotations with mixing angle
    below ``PRUNE_TOL`` are pruned.  Raises ValueError with the residual
    when the input is not unitary within 1e-10.
    """
    u = np.array(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    defect = unitarity_defect(u)
    if defect > UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary: max |U^H U - I| = {defect:.3e}")

    n = u.shape[0]
    work = u.copy()
    elements: list[Beamsplitter] = []
    for i in range(n - 1, 0, -1):
        for j in range(i):
            a = work[i, j]
            b = work[i, i]
            if abs(a) <= PRUNE_TOL:
                continue
            mixing = np.arctan2(abs(a), abs(b))
            phase = 0.0 if abs(b) == 0.0 else float(np.angle(b) - np.angle(a) - np.pi)
            phase = float((phase + np.pi) % (2.0 * np.pi) - np.pi)
            bs = Beamsplitter(j, i, float(mixing), phase)
            work = work @ element_unitary(bs, n)
            elements.append(bs)
    phases = tuple(
        0.0 if abs(a) <= PRUNE_TOL else float(a) for a in np.angle(np.diag(work))
    )
    return InterferometerNetlist(n_modes=n, elements=tuple(elements), output_phases=phases)


def preset_circuit(kind: str, n: int | None = None) -> InterferometerNetlist:
    """Hand-laid measurement circuits for the symmetric constellations.

    ``pair``: one 50:50 beamsplitter (the Hadamard mix).  ``rect``: the
    four-beamsplitter, two-layer Walsh mesh.  ``ring``: a triangular mesh
    realizing the cyclic-group Fourier transform on n modes.
    """
    if kind == "pair":
        if n not in (None, 2):
            raise ValueError("the pair circuit has exactly 2 modes")
        return InterferometerNetlist(2, (Beamsplitter(0, 1, np.pi / 4),))
    if kind == "rect":
        if n not in (None, 4):
            raise ValueError("the rectangle circuit has exactly 4 modes")
        half = np.pi / 4
        layers = (
            Beamsplitter(0, 1, half),
            Beamsplitter(2, 3, half),
            Beamsplitter(0, 2, half),
            Beamsplitter(1, 3, half),
        )
        return InterferometerNetlist(4, layers)
    if kind == "ring":
        if n is None or n < 2:
            raise ValueError("ring circuit needs the number of modes n >= 2")
        return reck_decompose(qft_matrix(AbelianGroup((n,))))
    raise ValueError(f"unknown preset: {kind!r}")


def relabeling_distance(u: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray]:
    """Distance between u and v up to global phase and an output relabeling.

    Recovers the best permutation P from u v^H (valid when u ~ e^{i phi} P v)
    and returns (unitary_distance(u, P v), permutation).  Falls back to the
    identity relabeling when u v^H is not permutation-like.
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    m = u @ v.conj().T
    perm = np.argmax(np.abs(m), axis=1)
    if len(set(perm.tolist())) != len(perm):
        perm = np.arange(u.shape[0])
    return unitary_distance(u, v[perm, :]), perm


def to_text(net: InterferometerNetlist) -> str:
    """Serialize as ordered ``BS i j angle phase`` / ``PS i phase`` records."""
    lines = []
    for el in net.elements:
        if isinstance(el, Beamsplitter):
            lines.append(f"BS {el.i} {el.j} {el.mixing:.17g} {el.phase:.17g}")
        else:
            lines.append(f"PS {el.mode} {el.phase:.17g}")
    for mode, phase in enumerate(net.output_phases):
        if abs(phase) > PRUNE_TOL:
            lines.append(f"PS {mode} {phase:.17g}")
    return "\n".join(lines) + ("\n" if lines else "")


def from_text(text: str, n_modes: int | None = None) -> InterferometerNetlist:
    """Parse the text netlist format; mode count is inferred unless given.

    Every record, trailing PS records included, becomes an element and the
    output phase layer stays empty; the total unitary is the same as that of
    the serialized netlist.
    """
    elements = []
    top = 0
    for ln, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            if parts[0] == "BS" and len(parts) == 5:
                el = Beamsplitter(int(parts[1]), int(parts[2]), float(parts[3]), float(parts[4]))
                top = max(top, el.j)
            elif parts[0] == "PS" and len(parts) == 3:
                el = PhaseShifter(int(parts[1]), float(parts[2]))
                top = max(top, el.mode)
            else:
                raise ValueError("unrecognized record")
        except (ValueError, TypeError) as exc:
            raise ValueError(f"netlist line {ln}: {line!r}: {exc}") from None
        elements.append(el)
    n = n_modes if n_modes is not None else top + 1
    return InterferometerNetlist(n_modes=n, elements=tuple(elements))


def to_json_dict(net: InterferometerNetlist) -> dict:
    els = []
    for el in net.elements:
        if isinstance(el, Beamsplitter):
            els.append(
                {"type": "bs", "i": el.i, "j": el.j, "mixing": el.mixing, "phase": el.phase}
            )
        else:
            els.append({"type": "ps", "mode": el.mode, "phase": el.phase})
    return {
        "modes": net.n_modes,
        "elements": els,
        "output_phases": list(net.output_phases),
    }


def from_json_dict(data: dict) -> InterferometerNetlist:
    elements = []
    for el in data["elements"]:
        if el["type"] == "bs":
            elements.append(Beamsplitter(el["i"], el["j"], el["mixing"], el["phase"]))
        elif el["type"] == "ps":
            elements.append(PhaseShifter(el["mode"], el["phase"]))
        else:
            raise ValueError(f"unknown element type {el['type']!r}")
    return InterferometerNetlist(
        n_modes=data["modes"],
        elements=tuple(elements),
        output_phases=tuple(data.get("output_phases", ())),
    )


def load_unitary(path: str) -> np.ndarray:
    """Load a complex matrix from JSON: nested rows of [re, im] pairs."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    rows = data["matrix"] if isinstance(data, dict) else data
    mat = np.array([[complex(e[0], e[1]) for e in row] for row in rows])
    return mat
