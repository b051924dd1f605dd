"""The density matrix of a point set imaged through a delta-comb psf.

``density_matrix`` takes plain arrays: (N, 2) psf momenta p_j and (m, 2)
source points, such as the ones ``constellation.make_ring`` and ``make_rectangle`` build.
"""

from __future__ import annotations

import numpy as np


def density_matrix(points, momenta) -> np.ndarray:
    """Uniform mixture rho = (1/N_S) sum_i |psi_i><psi_i|; Hermitian with unit trace.

    Source i has amplitude exp(-i p_j . x_i) / sqrt(N) on momentum basis state
    j.  Each phase vector is its own (N, 2) @ (2,) product, as a batched product
    rounds differently.
    """
    if len(points) == 0:
        raise ValueError("no source points")
    momenta = np.asarray(momenta, dtype=float)
    if len(momenta) == 0:
        raise ValueError("psf has no momenta")
    states = np.stack([np.exp(-1j * (momenta @ x)) for x in np.asarray(points, dtype=float)])
    states /= np.sqrt(len(momenta))
    return (states.T @ states.conj()) / len(points)
