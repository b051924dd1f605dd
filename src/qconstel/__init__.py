"""Quantum-limited estimation for symmetric point-source constellations.

Builds density matrices of equal-brightness constellations imaged through
discrete momentum-space point spread functions, diagonalizes them through
their abelian symmetry group, computes quantum and classical Fisher
information, simulates photon-counting estimation, and synthesizes the
optimal measurement as a beamsplitter/phaseshifter netlist.
"""

from .constellation import SymmetryError, make_rectangle, make_ring
from .linalg import (
    ConvergenceError,
    eig_hermitian,
    hermiticity_defect,
    unitarity_defect,
)
from .states import density_matrix
from .symmetry import AbelianGroup, qft_matrix
from .estimation import (
    DomainError,
    ModelFamily,
    classical_fi,
    drho,
    outcome_probabilities,
    qfim,
    rectangle_model,
    ring_model,
    spectral_qfim,
)
from .simulate import (
    EstimationError,
    StudyConfig,
    StudyError,
    StudyReport,
    crb_study,
)
from .circuit import (
    Beamsplitter,
    InterferometerNetlist,
    PhaseShifter,
    fourier_circuit,
    netlist_unitary,
    reck_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "Beamsplitter",
    "ConvergenceError",
    "DomainError",
    "EstimationError",
    "InterferometerNetlist",
    "ModelFamily",
    "PhaseShifter",
    "StudyConfig",
    "StudyError",
    "StudyReport",
    "SymmetryError",
    "classical_fi",
    "crb_study",
    "density_matrix",
    "drho",
    "eig_hermitian",
    "fourier_circuit",
    "hermiticity_defect",
    "make_rectangle",
    "make_ring",
    "netlist_unitary",
    "outcome_probabilities",
    "qfim",
    "qft_matrix",
    "reck_decompose",
    "rectangle_model",
    "ring_model",
    "spectral_qfim",
    "unitarity_defect",
]
