"""Output checks: independent oracles and reference outputs.

Every job output is checked twice, after the timed batch and outside it:

* against an oracle computed here with numpy alone: the radial QFI of the
  ring and pair models from their exact eigenvalues (the eigenvectors do
  not depend on r, so sum_k (d lambda_k)^2 / lambda_k is the whole QFI),
  ring eigenvalues from ``eigvalsh`` of a density matrix built here, and
  netlists multiplied out here and compared with their target unitary;
* against ``reference.json``, the parsed outputs of every pool member as
  written by the CLI when the benchmark was made, within ``REFERENCE_TOL``.

The odd-N rings miss the closed-form ring QFI 2 p^2 (they agree with the
oracle).  That is a known defect; it is counted, not treated as a failure.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import Job, haar_unitary

# (rtol, atol) for comparing an output with its reference, by output kind.
# QFI and estimates leave room for an exact-derivative or batched estimator
# (finite differences with h = 1e-6 are accurate to ~1e-9 relative; the MLE
# refines to 1e-8); netlist angles are compared modulo 2 pi.
REFERENCE_TOL = {
    "qfi": (1e-7, 1e-10),
    "eigen": (1e-9, 1e-12),
    "simulate": (1e-7, 1e-7),
    "netlist": (0.0, 1e-9),
}
ORACLE_QFI_RTOL = 1e-6
CLOSED_FORM_RTOL = 1e-6
EIGEN_ATOL = 1e-10
RECK_RESIDUAL_MAX = 1e-10
SELF_CONSISTENCY_RTOL = 1e-9
STUDY_BOUND_DELTA = 1e-3  # the CLI's default estimator interval margin


# ---------------------------------------------------------------- oracles


def ring_qfi(n: int, p: float, r: float) -> float:
    """Radial QFI of the n-source ring (n = 2 is the on-axis pair), eigenvalue route."""
    c = np.cos(2.0 * np.pi * np.arange(n) / n)
    f = np.exp(-1j * p * r * c)
    a = np.fft.ifft(f)
    da = np.fft.ifft(-1j * p * c * f)
    lam = np.abs(a) ** 2
    dlam = 2.0 * np.real(np.conj(a) * da)
    keep = lam > 0.0
    return float(np.sum(dlam[keep] ** 2 / lam[keep]))


def closed_form_qfi(kind: str, n: int, p: float) -> float:
    """The closed form the CLI prints as 'analytic': 4p^2 for a pair, 2p^2 for a ring."""
    return 4.0 * p * p if kind in ("pair", "rect") or n == 2 else 2.0 * p * p


def ring_eigenvalues(n: int, p: float, r: float) -> np.ndarray:
    """Ascending eigenvalues of the ring density matrix built from its source states."""
    ang = 2.0 * np.pi * np.arange(n) / n
    momenta = p * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    sources = r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    states = np.exp(-1j * sources @ momenta.T) / np.sqrt(n)
    rho = states.T @ states.conj() / n
    return np.linalg.eigvalsh(rho)


def netlist_matrix(n: int, elements) -> np.ndarray:
    """Mode transformation of (kind, modes..., angles...) records applied in order."""
    u = np.eye(n, dtype=np.complex128)
    for el in elements:
        if el[0] == "BS":
            _, i, j, t, f = el
            c, s = math.cos(t), math.sin(t)
            rows = u[[i, j], :]
            u[i, :] = c * rows[0] + np.exp(1j * f) * s * rows[1]
            u[j, :] = np.exp(-1j * f) * s * rows[0] - c * rows[1]
        else:
            _, mode, phase = el
            u[mode, :] *= np.exp(1j * phase)
    return u


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """max |u - e^{i phi} v| at the phase of tr(v^H u)."""
    tr = np.trace(v.conj().T @ u)
    phase = np.exp(1j * np.angle(tr)) if abs(tr) > 0 else 1.0
    return float(np.max(np.abs(u - phase * v)))


def group_fourier(kind: str, n: int) -> np.ndarray:
    """Fourier transform of the constellation's symmetry group, up to row order."""
    if kind == "rect":
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        return np.kron(h, h).astype(np.complex128)
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


# ---------------------------------------------------------------- parsing


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def extract(job: Job, path: Path) -> dict:
    """Parsed content of one output file; what the references store."""
    text = path.read_text(encoding="utf-8")
    if job.fmt == "csv":
        lines = text.splitlines()
        if not lines or not lines[0].startswith("# config_hash=") or len(lines[0]) != 26:
            raise ValueError("missing config hash line")
        return {"header": lines[1].split(","),
                "rows": [[_cell(c) for c in ln.split(",")] for ln in lines[2:]]}
    if job.fmt == "text":
        elements = []
        for ln in text.splitlines():
            parts = ln.split()
            if parts[0] == "BS":
                elements.append(["BS", int(parts[1]), int(parts[2]),
                                 float(parts[3]), float(parts[4])])
            else:
                elements.append(["PS", int(parts[1]), float(parts[2])])
        return {"elements": elements}
    doc = json.loads(text)
    if job.spec["check"] == "simulate":
        return {"qfi": doc["qfi"],
                "blocks": [{k: b[k] for k in ("photons", "trials", "failures", "estimates")}
                           for b in doc["blocks"]]}
    return {"netlist": doc["netlist"]}


def reference_kind(job: Job) -> str:
    check = job.spec["check"]
    if check in ("haar", "preset"):
        return "netlist"
    if check == "simulate":
        return "simulate"
    if check == "eigen" or job.spec["sweep"].get("quantity") == "eigenvalues":
        return "eigen"
    return "qfi"


def compare(got, want, rtol: float, atol: float, angles: bool, where: str = "") -> str | None:
    """First difference between two parsed outputs, or None."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return f"{where}: keys differ"
        for k in want:
            msg = compare(got[k], want[k], rtol, atol, angles, f"{where}.{k}")
            if msg:
                return msg
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            msg = compare(g, w, rtol, atol, angles, f"{where}[{i}]")
            if msg:
                return msg
        return None
    if isinstance(want, float) and isinstance(got, (int, float)):
        diff = abs(got - want)
        if angles:
            diff = abs((got - want + math.pi) % (2.0 * math.pi) - math.pi)
        if diff > atol + rtol * abs(want):
            return f"{where}: {got!r} vs reference {want!r}"
        return None
    return None if got == want else f"{where}: {got!r} vs reference {want!r}"


# ---------------------------------------------------------------- oracle checks


class Verdict:
    """Outcome of checking one output."""

    def __init__(self):
        self.problems: list[str] = []
        self.closed_form_mismatch = False
        self.trials = 0
        self.failed_trials = 0

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _check_qfi_value(v: Verdict, kind: str, n: int, p: float, r: float,
                     numeric: float, analytic: float) -> None:
    exact = ring_qfi(2 if kind in ("pair", "rect") else n, p, r)
    v.require(abs(numeric - exact) <= ORACLE_QFI_RTOL * exact,
              f"QFI {numeric!r} at r={r!r} misses the oracle {exact!r}")
    closed = closed_form_qfi(kind, n, p)
    v.require(abs(analytic - closed) <= 1e-12 * closed,
              f"closed form {analytic!r} should be {closed!r}")
    if abs(numeric - closed) > CLOSED_FORM_RTOL * closed:
        v.closed_form_mismatch = True


def _check_sweep(v: Verdict, job: Job, content: dict) -> None:
    m, s = job.spec["model"], job.spec["sweep"]
    kind, n = m["kind"], m.get("n", 2)
    grid = np.linspace(s["start"], s["stop"], s["count"])
    rows = content["rows"]
    v.require(len(rows) == len(grid), f"{len(rows)} rows, expected {len(grid)}")
    for x, row in zip(grid, rows):
        v.require(row[0] == float(x), f"grid point {row[0]!r} should be {float(x)!r}")
        if s.get("quantity") == "eigenvalues":
            want = ring_eigenvalues(n, m["p"], row[0])
            got = np.sort(np.asarray(row[1:], dtype=float))
            v.require(got.shape == want.shape and np.max(np.abs(got - want)) <= EIGEN_ATOL,
                      f"eigenvalues at r={row[0]!r} miss the oracle")
        else:
            p = m["px"] if kind == "rect" else m["p"]
            _check_qfi_value(v, kind, n, p, row[0], row[1], row[2])
            v.require(row[3] == abs(row[1] - row[2]), "abs_diff column is inconsistent")


def _check_eigen(v: Verdict, job: Job, content: dict) -> None:
    m = job.spec["model"]
    rows = content["rows"]
    weights = np.array([row[1] for row in rows])
    for row in rows:
        v.require(row[3] <= EIGEN_ATOL, f"eigen abs_diff {row[3]!r} exceeds {EIGEN_ATOL}")
    want = ring_eigenvalues(m["n"], m["p"], m["r"])
    v.require(weights.shape == want.shape
              and np.max(np.abs(np.sort(weights) - want)) <= EIGEN_ATOL,
              "character weights miss the oracle eigenvalues")


def _check_qfi(v: Verdict, job: Job, content: dict) -> None:
    m = job.spec["model"]
    (row,) = content["rows"]
    _check_qfi_value(v, m["kind"], m["n"], m["p"], m["r"], row[2], row[3])


def _check_simulate(v: Verdict, job: Job, path: Path) -> None:
    s = job.spec
    doc = json.loads(path.read_text(encoding="utf-8"))
    qfi = doc["qfi"]
    closed = closed_form_qfi(s["kind"], s["n"], s["p"])
    _check_qfi_value(v, s["kind"], s["n"], s["p"], s["r"], qfi, closed)
    period = math.pi / (2.0 * s["p"]) if s["kind"] == "pair" else math.pi / s["p"]
    hi = period - STUDY_BOUND_DELTA
    blocks = doc["blocks"]
    v.require([b["photons"] for b in blocks] == s["photons"], "photon counts differ from the job")
    for b in blocks:
        est = np.asarray(b["estimates"], dtype=float)
        v.trials += b["trials"]
        v.failed_trials += b["failures"]
        v.require(b["trials"] == s["trials"], "trial count differs from the job")
        v.require(est.size == b["trials"] - b["failures"], "estimate count != trials - failures")
        v.require(bool(np.all((est >= STUDY_BOUND_DELTA) & (est <= hi))),
                  "an estimate lies outside the search interval")
        mse = float(np.mean((est - s["r"]) ** 2))
        crb = 1.0 / (b["photons"] * qfi)
        for name, got, want in (("mse", b["mse"], mse), ("crb", b["crb"], crb),
                                ("ratio", b["ratio"], mse / crb)):
            v.require(abs(got - want) <= SELF_CONSISTENCY_RTOL * abs(want),
                      f"{name} {got!r} does not follow from the estimates ({want!r})")


def _check_netlist(v: Verdict, job: Job, content: dict, path: Path) -> None:
    s = job.spec
    n = s["n"]
    if s["check"] == "haar":
        elements = content["elements"]
        target = haar_unitary(n, s["idx"])
    else:
        net = content["netlist"]
        elements = [["BS", e["i"], e["j"], e["mixing"], e["phase"]] if e["type"] == "bs"
                    else ["PS", e["mode"], e["phase"]] for e in net["elements"]]
        elements += [["PS", mode, ph] for mode, ph in enumerate(net["output_phases"])]
        residual = json.loads(path.read_text(encoding="utf-8"))["residual"]
        v.require(residual <= RECK_RESIDUAL_MAX, f"reported residual {residual!r}")
        target = group_fourier(s["kind"], n)
    v.require(sum(e[0] == "BS" for e in elements) <= n * (n - 1) // 2,
              "more beamsplitters than a triangular mesh has")
    u = netlist_matrix(n, elements)
    if s["check"] == "preset":
        perm = np.argmax(np.abs(u @ target.conj().T), axis=1)
        v.require(len(set(perm.tolist())) == n, "netlist is not a relabeled group transform")
        target = target[perm, :]
    dist = phase_distance(u, target)
    v.require(dist <= RECK_RESIDUAL_MAX, f"netlist misses its target by {dist:.3e}")


def check_output(job: Job, path: Path, reference: dict | None) -> Verdict:
    """Oracle and reference checks of one job output."""
    v = Verdict()
    try:
        content = extract(job, path)
        check = job.spec["check"]
        if check == "simulate":
            _check_simulate(v, job, path)
        elif check in ("haar", "preset"):
            _check_netlist(v, job, content, path)
        elif check == "eigen":
            _check_eigen(v, job, content)
        elif check == "qfi":
            _check_qfi(v, job, content)
        else:
            _check_sweep(v, job, content)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        v.problems.append(f"unreadable output: {exc!r}")
        return v
    if reference is not None:
        want = reference.get(job.key)
        if want is None:
            v.problems.append("no reference output stored for this job")
        else:
            rtol, atol = REFERENCE_TOL[reference_kind(job)]
            msg = compare(content, want, rtol, atol, angles=reference_kind(job) == "netlist")
            v.require(msg is None, f"differs from reference: {msg}")
    return v
