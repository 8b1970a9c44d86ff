"""Exact verification toolkit for sl2-invariant R-matrices.

The package constructs the recoupling matrices that reduce the
braid-form Yang-Baxter equation to the highest-weight spaces of the
triple tensor power, evaluates the known solution families exactly over
Q and Q(sqrt(d)), and runs the classification scans (degeneracy of the
four-matrix system, diagonal ratio obstructions, constant R-matrices,
permutation rigidity) with zero numerical error.  An exact dense oracle
cross-validates the reduced formalism on small spins.
"""
from .amatrix import (GaugedMatrix, LevelRange, a_matrix,
                      consecutive_level_ratio, eta, eta_closed_form,
                      rank_one_projector, sign_diagonal, top_level,
                      verify_a_properties, verify_sign_conjugation)
from .classify import (DegeneracyRecord, ansatz_residual_crosscheck,
                       coeff_functions, constant_m_prime, constant_roots,
                       degeneracy_scan, eta_level4_m3,
                       exceptional_level_combination, fgh_matrices,
                       level_three_five_ratio, permutation_rigidity,
                       projector_obstruction_check)
from .exact import DomainError, HalfInt, QuadExt, factorial, sqrt_canonicalize
from .sixj import SixJArgs, racah_identity_residual, sixj, triangle_ok
from .spectral import (PoleError, RationalFunction, SpectralFamily, baxter_b,
                       baxter_tl, check_regularity_unitarity, constant_baxter,
                       custom_family, exceptional_s3, family_from_json,
                       identity_family, krs_prefix, make_family,
                       permutation_family, reduced_d, yang, zamolodchikov)
from .ybe import ReducedResidual, constant_check, full_check, reduced_ybe_check

__version__ = "0.1.0"
