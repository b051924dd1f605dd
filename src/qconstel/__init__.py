"""Quantum-limited estimation for symmetric point-source constellations.

Builds density matrices of equal-brightness constellations imaged through
discrete momentum-space point spread functions, diagonalizes them through
their abelian symmetry group, computes quantum and classical Fisher
information, simulates photon-counting estimation, and synthesizes the
optimal measurement as a beamsplitter/phaseshifter netlist.
"""

from .constellation import (
    Constellation,
    DiscretePSF,
    SymmetryError,
    SymmetrySpec,
    apply_group_element,
    make_pair,
    make_rectangle,
    make_ring,
    matching_psf,
    validate_symmetry,
)
from .linalg import (
    ConvergenceError,
    eig_hermitian,
    haar_unitary,
    hermiticity_defect,
    unitarity_defect,
    unitary_distance,
)
from .states import density_matrix, overlap, source_state
from .symmetry import (
    AbelianGroup,
    SymmetricEigenbasis,
    characters,
    permutation_matrix,
    qft_matrix,
    symmetric_eigenbasis,
    verify_multiplicity_free,
)
from .estimation import (
    ModelFamily,
    analytic_qfi,
    character_basis,
    classical_fi,
    drho,
    orbit_states,
    outcome_probabilities,
    pair_model,
    qfim,
    rectangle_model,
    ring_amplitudes,
    ring_eigenvalues,
    ring_model,
    ring_qfi_parseval,
    ring_qfi_spectral,
    sld,
    spectral_qfim,
)
from .simulate import (
    EstimationError,
    StudyConfig,
    StudyError,
    StudyReport,
    crb_study,
    mle_1d,
    sample_outcomes,
)
from .circuit import (
    Beamsplitter,
    InterferometerNetlist,
    PhaseShifter,
    netlist_unitary,
    preset_circuit,
    reck_decompose,
    relabeling_distance,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "Beamsplitter",
    "Constellation",
    "ConvergenceError",
    "DiscretePSF",
    "EstimationError",
    "InterferometerNetlist",
    "ModelFamily",
    "PhaseShifter",
    "StudyConfig",
    "StudyError",
    "StudyReport",
    "SymmetricEigenbasis",
    "SymmetryError",
    "SymmetrySpec",
    "analytic_qfi",
    "apply_group_element",
    "character_basis",
    "characters",
    "classical_fi",
    "crb_study",
    "density_matrix",
    "drho",
    "eig_hermitian",
    "haar_unitary",
    "hermiticity_defect",
    "make_pair",
    "make_rectangle",
    "make_ring",
    "matching_psf",
    "mle_1d",
    "netlist_unitary",
    "orbit_states",
    "outcome_probabilities",
    "overlap",
    "pair_model",
    "permutation_matrix",
    "preset_circuit",
    "qfim",
    "qft_matrix",
    "reck_decompose",
    "rectangle_model",
    "relabeling_distance",
    "ring_amplitudes",
    "ring_eigenvalues",
    "ring_model",
    "ring_qfi_parseval",
    "ring_qfi_spectral",
    "sample_outcomes",
    "sld",
    "source_state",
    "spectral_qfim",
    "symmetric_eigenbasis",
    "unitarity_defect",
    "unitary_distance",
    "validate_symmetry",
    "verify_multiplicity_free",
]
