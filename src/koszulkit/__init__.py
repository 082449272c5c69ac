"""Computable multivariable operator theory at desk scale.

Koszul-complex cohomology and indices of commuting matrix tuples, joint
spectra with polynomial calculus, banded eventually-periodic operators
on l2(N) with certified finite-section kernels and indices, kernel-tower
decompositions, and the two perturbation-obstruction certificates
(finite-rank growth tables and compactness obstructions).
"""

from .errors import (
    DeflationFailure,
    DegreeError,
    FormatError,
    IndexSignError,
    IndexZeroError,
    InvarianceViolation,
    KoszulKitError,
    ModeMismatch,
    NonCommuting,
    NotStabilized,
    PreconditionError,
    ShapeError,
)
from .scalars import EXACT, FLOAT, GaussianRational
from .linalg import (
    Mat,
    kernel_basis,
    rank,
    solve,
    spectral_radius,
)
from .koszul import (
    CohomologyReport,
    CommutingTuple,
    KoszulComplex,
    augment_les,
    cohomology,
    form_basis,
    induced_map,
    koszul_complex,
    koszul_differential,
    validate_tuple,
)
from .polymap import Polynomial, PolyMap
from .spectrum import (
    JointSpectrum,
    apply_poly_map,
    joint_spectrum,
    spectral_mapping_check,
)
from .ell2 import (
    BandedOperator,
    Diagonal,
    IndexCertificate,
    StabilizedSubspace,
    TruncationWindow,
    fredholm_index_banded,
    identity_op,
    make_catalog_operator,
    zero_op,
)
from .tower import (
    CommutantBlocks,
    GrowthTable,
    KernelTower,
    ObstructionCertificate,
    augmented_pair_cohomology,
    commutant_blocks,
    growth_table,
    kernel_restriction_check,
    kernel_tower,
    obstruction_certificate,
)

__version__ = "0.1.0"
