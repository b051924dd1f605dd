"""Single-photon momentum-qudit states and the density matrix of a point set.

Both take plain arrays: (N, 2) psf momenta p_j and (m, 2) source points,
such as the ones ``constellation.make_ring`` and ``make_rectangle`` build.
"""

from __future__ import annotations

import numpy as np


def source_state(momenta, x) -> np.ndarray:
    """Pure state of one source at position x imaged through a delta-comb psf.

    Amplitude on momentum basis state j is exp(-i p_j . x) / sqrt(N).
    """
    momenta = np.asarray(momenta, dtype=float)
    if len(momenta) == 0:
        raise ValueError("psf has no momenta")
    phases = momenta @ np.asarray(x, dtype=float).reshape(2)
    return np.exp(-1j * phases) / np.sqrt(len(momenta))


def density_matrix(points, momenta) -> np.ndarray:
    """Uniform mixture of the source states of ``points``.

    rho = (1/N_S) sum_i |psi_i><psi_i|; Hermitian with unit trace.
    """
    if len(points) == 0:
        raise ValueError("no source points")
    states = np.stack([source_state(momenta, x) for x in points])
    return (states.T @ states.conj()) / len(points)
