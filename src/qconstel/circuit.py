"""Beamsplitter/phaseshifter netlists realizing measurement unitaries.

Convention: a beamsplitter on modes (i, j) with mixing angle t and relative
phase f acts on the (i, j) block as::

    [[cos t,            e^{if} sin t],
     [e^{-if} sin t,   -cos t       ]]

This block is unitary and Hermitian (an involution); the 50:50 setting
t = pi/4, f = 0 is exactly the real Hadamard mix.  Its transpose is the same
beamsplitter with phase -f.  Elements are applied in list order, output
phases last.  Each element updates only the rows of its modes, in place, so
it costs O(n) and the n-mode Reck synthesis costs O(n^3).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import UNITARY_ATOL, unitarity_defect
from .symmetry import AbelianGroup, qft_matrix

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
        for name, value in (("mixing", self.mixing), ("phase", self.phase)):
            if not math.isfinite(value):
                raise ValueError(f"beamsplitter {name} must be finite, got {value}")


@dataclass(frozen=True)
class PhaseShifter:
    """Single-mode phase e^{i phase}."""

    mode: int
    phase: float

    def __post_init__(self):
        if self.mode < 0:
            raise ValueError(f"phaseshifter mode must be >= 0, got {self.mode}")
        if not math.isfinite(self.phase):
            raise ValueError(f"phaseshifter phase must be finite, got {self.phase}")


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
            if not isinstance(el, (Beamsplitter, PhaseShifter)):
                raise TypeError(f"unknown netlist element: {el!r}")
            top = el.j if isinstance(el, Beamsplitter) else el.mode
            if top >= self.n_modes:
                raise ValueError(f"element {el} exceeds mode count {self.n_modes}")
        if self.output_phases and len(self.output_phases) != self.n_modes:
            raise ValueError("output phase layer must cover every mode")
        for mode, phase in enumerate(self.output_phases):
            if not math.isfinite(phase):
                raise ValueError(f"output phase of mode {mode} must be finite, got {phase}")

    @property
    def beamsplitter_count(self) -> int:
        return sum(isinstance(el, Beamsplitter) for el in self.elements)


def _mix(rows: np.ndarray, i: int, j: int, mixing: float, phase: float) -> None:
    """Left-multiply rows i and j in place by the beamsplitter block."""
    c, s = math.cos(mixing), cmath.exp(1j * phase) * math.sin(mixing)
    top = rows[i].copy()
    rows[i] = c * top + s * rows[j]
    rows[j] = s.conjugate() * top - c * rows[j]


def _apply(el, rows: np.ndarray) -> None:
    """Left-multiply ``rows`` in place by the element's n-mode unitary."""
    if isinstance(el, PhaseShifter):
        rows[el.mode] *= cmath.exp(1j * el.phase)
    else:
        _mix(rows, el.i, el.j, el.mixing, el.phase)


def netlist_unitary(net: InterferometerNetlist) -> np.ndarray:
    """Total mode transformation of the netlist (elements first, phases last)."""
    u = np.eye(net.n_modes, dtype=np.complex128)
    for el in net.elements:
        _apply(el, u)
    if net.output_phases:
        u = np.exp(1j * np.asarray(net.output_phases))[:, None] * u
    return u


def reck_decompose(u: np.ndarray) -> InterferometerNetlist:
    """Triangular beamsplitter mesh (plus output phases) realizing ``u``.

    Emits at most n(n-1)/2 beamsplitters; rotations with mixing angle
    below ``PRUNE_TOL`` are pruned.  Each rotation updates the two columns
    it nulls in place, through the transposed view of the running matrix,
    so the synthesis costs O(n^3).  Raises ValueError with the residual
    when the input is not unitary within 1e-10 (or has a non-finite entry).
    """
    u = np.array(u, dtype=np.complex128)
    defect = unitarity_defect(u)  # ValueError for a non-square or empty matrix
    if not defect <= UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary: max |U^H U - I| = {defect:.3e}")

    n = u.shape[0]
    work = u.copy()
    elements: list[Beamsplitter] = []
    for i in range(n - 1, 0, -1):
        for j in range(i):
            a = work[i, j]
            abs_a = abs(a)
            if abs_a <= PRUNE_TOL:
                continue
            b = work[i, i]
            abs_b = abs(b)
            mixing = float(np.arctan2(abs_a, abs_b))
            # np.angle's own arithmetic, without its per-call array handling
            phase = 0.0 if abs_b == 0.0 else float(
                np.arctan2(b.imag, b.real) - np.arctan2(a.imag, a.real) - np.pi)
            phase = float((phase + np.pi) % (2.0 * np.pi) - np.pi)
            elements.append(Beamsplitter(j, i, mixing, phase))
            # work @ B = (B^T work^T)^T, and B^T is B with phase -f
            _mix(work.T, j, i, mixing, -phase)
    phases = tuple(
        0.0 if abs(a) <= PRUNE_TOL else float(a) for a in np.angle(np.diag(work))
    )
    return InterferometerNetlist(n_modes=n, elements=tuple(elements), output_phases=phases)


def fourier_circuit(group: AbelianGroup) -> InterferometerNetlist:
    """Netlist of the group Fourier transform ``qft_matrix(group)``.

    When every cyclic factor is 2 (the pair is Z_2, the rectangle Z_2 x Z_2),
    the transform is a tensor power of the 50:50 mix: one layer of
    ``Beamsplitter(m, m + s, pi/4)`` per factor, strides s = 1, 2, 4, ... in
    that order, pairing the modes m with ``m & s == 0``.  That is
    (n/2) log2 n beamsplitters, no output phases, and exactly ``qft_matrix``
    with no output relabeling.  Any other group gets
    ``reck_decompose(qft_matrix(group))``.
    """
    if any(f != 2 for f in group.factors):
        return reck_decompose(qft_matrix(group))
    n = group.order
    layers = tuple(
        Beamsplitter(m, m + s, np.pi / 4)
        for s in (1 << b for b in range(len(group.factors)))
        for m in range(n)
        if not m & s
    )
    return InterferometerNetlist(n, layers)


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


def from_text(text: str, n_modes: int) -> InterferometerNetlist:
    """Parse the text netlist format into a netlist on ``n_modes`` modes.

    Every record, trailing PS records included, becomes an element and the
    output phase layer stays empty; the total unitary is the same as that of
    the serialized netlist.
    """
    elements = []
    for ln, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            if parts[0] == "BS" and len(parts) == 5:
                el = Beamsplitter(int(parts[1]), int(parts[2]), float(parts[3]), float(parts[4]))
            elif parts[0] == "PS" and len(parts) == 3:
                el = PhaseShifter(int(parts[1]), float(parts[2]))
            else:
                raise ValueError("unrecognized record")
        except (ValueError, TypeError) as exc:
            raise ValueError(f"netlist line {ln}: {line!r}: {exc}") from None
        elements.append(el)
    return InterferometerNetlist(n_modes=n_modes, elements=tuple(elements))


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


def _complex_entry(entry, i: int, j: int) -> complex:
    if not (isinstance(entry, list) and len(entry) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)):
        raise ValueError(f"matrix entry ({i}, {j}) must be an [re, im] pair of real numbers, "
                         f"got {entry!r}")
    try:
        z = complex(entry[0], entry[1])
    except OverflowError:  # an integer too large for a float
        raise ValueError(f"matrix entry ({i}, {j}) is out of float range") from None
    for x in (z.real, z.imag):  # JSON's NaN and Infinity, or a float literal past 1.8e308
        if not math.isfinite(x):
            raise ValueError(f"matrix entry ({i}, {j}) must be finite, got {x}")
    return z


def load_unitary(data: bytes) -> np.ndarray:
    """Parse a complex matrix from UTF-8 JSON bytes: rows of [re, im] pairs.

    The rows are the document itself or its ``"matrix"`` member.  Every
    fault raises ValueError naming it: bytes that are not UTF-8 JSON, an
    object without ``"matrix"``, rows or entries of the wrong type, a ragged
    row, a non-finite entry, a document nested past the recursion limit, or a
    matrix that is not a non-empty n x n.  The caller reads the file.
    """
    # newlines as a text-mode read gives them, so JSON errors count the same characters
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None
    if isinstance(doc, dict) and "matrix" not in doc:
        raise ValueError('expected a JSON object with a "matrix" member')
    rows = doc["matrix"] if isinstance(doc, dict) else doc
    if not isinstance(rows, list):
        raise ValueError(f"matrix must be a list of rows, got {type(rows).__name__}")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"matrix row {i} must be a list of [re, im] pairs, "
                             f"got {type(row).__name__}")
        if len(row) != len(rows[0]):
            raise ValueError(f"matrix row {i} has {len(row)} entries, row 0 has {len(rows[0])}")
    u = np.array([[_complex_entry(e, i, j) for j, e in enumerate(row)]
                  for i, row in enumerate(rows)])
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {u.shape}")
    return u
