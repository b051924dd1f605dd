"""Single-photon momentum-qudit states and constellation density matrices."""

from __future__ import annotations

import numpy as np

from .constellation import Constellation, DiscretePSF


def source_state(psf: DiscretePSF, r) -> np.ndarray:
    """Pure state of one source at position r imaged through a delta-comb psf.

    Amplitude on momentum basis state j is exp(-i p_j . r) / sqrt(N).
    """
    if len(psf) == 0:
        raise ValueError("psf has no momenta")
    r = np.asarray(r, dtype=float).reshape(2)
    phases = psf.momenta @ r
    return np.exp(-1j * phases) / np.sqrt(len(psf))


def density_matrix(c: Constellation, psf: DiscretePSF) -> np.ndarray:
    """Uniform mixture of the constellation's source states.

    rho = (1/N_S) sum_i |psi_i><psi_i|; Hermitian with unit trace.
    """
    if len(c) == 0:
        raise ValueError("constellation has no sources")
    states = np.stack([source_state(psf, r) for r in c.points])
    return (states.T @ states.conj()) / len(c)

