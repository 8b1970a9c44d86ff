"""Dense floating-point oracle on the full tensor cube.

Builds the total-spin projectors on V_s (x) V_s by Casimir polynomial
interpolation, embeds them on three sites, and checks the operator
identities and the full braid-form equation numerically.  This module is
the cross-check for the exact reduced machinery, never the ground truth;
tolerances are fixed module constants.  numpy is imported by the functions
that build arrays, so the exact checks never load it.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

from .amatrix import top_level
from .exact import DomainError, HalfInt, minus_one_pow
from .spectral import SpectralFamily
from .ybe import reduced_ybe_check

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "IDENTITIES_TWO_S_CAP",
    "IDENTITY_TOL",
    "PROJECTOR_TWO_S_CAP",
    "PROJECTOR_TOL",
    "YBE_TOL",
    "dense_operator_identities",
    "dense_projectors",
    "dense_r_matrix",
    "dense_ybe_residual",
    "permutation_dense",
    "reduction_consistency",
    "spin_matrices",
]

PROJECTOR_TOL = 1e-10   # projector algebra: idempotence, orthogonality, sums
IDENTITY_TOL = 1e-9     # three-site operator identities
YBE_TOL = 1e-10         # full braid-form residual for exact solutions

PROJECTOR_TWO_S_CAP = 4    # (2s+1)^3 = 125 at the cap
IDENTITIES_TWO_S_CAP = 3   # the three-site identities, (2s+1)^3 = 64


def _two_s(s) -> int:
    return HalfInt.coerce(s).twice


def spin_matrices(s) -> tuple[np.ndarray, np.ndarray]:
    """(S_z, S_plus) in the standard ladder basis, real matrices."""
    import numpy as np
    ts = _two_s(s)
    sv = ts / 2.0
    dim = ts + 1
    mz = np.array([sv - i for i in range(dim)])
    sz = np.diag(mz)
    sp = np.zeros((dim, dim))
    for i in range(1, dim):
        m = mz[i]
        sp[i - 1, i] = math.sqrt(sv * (sv + 1) - m * (m + 1))
    return sz, sp


def _two_site_casimir(s) -> np.ndarray:
    import numpy as np
    sz, sp = spin_matrices(s)
    sm = sp.T
    sv = _two_s(s) / 2.0
    dim = sz.shape[0]
    return (2 * sv * (sv + 1) * np.eye(dim * dim)
            + 2 * np.kron(sz, sz) + np.kron(sp, sm) + np.kron(sm, sp))


def dense_projectors(s) -> list[np.ndarray]:
    """Projectors P^j, j = 0..2s, on V_s (x) V_s via Lagrange interpolation
    in the two-site Casimir; all real double precision, built once per 2s
    and read-only."""
    return list(_projectors(_two_s(s)))


@lru_cache(maxsize=None)
def _projectors(ts: int) -> tuple:
    import numpy as np
    if ts > PROJECTOR_TWO_S_CAP:
        raise DomainError(f"2s={ts} above the dense cap {PROJECTOR_TWO_S_CAP}")
    j2 = _two_site_casimir(HalfInt(ts))
    dim2 = j2.shape[0]
    eigs = [j * (j + 1) for j in range(ts + 1)]
    projs = []
    for j in range(ts + 1):
        p = np.eye(dim2)
        for i in range(ts + 1):
            if i != j:
                p = p @ (j2 - eigs[i] * np.eye(dim2)) / (eigs[j] - eigs[i])
        p.setflags(write=False)
        projs.append(p)
    return tuple(projs)


def permutation_dense(s) -> np.ndarray:
    ts = _two_s(s)
    projs = dense_projectors(s)
    return sum(minus_one_pow(ts - j) * projs[j] for j in range(ts + 1))


def _three_site_pair(op2: np.ndarray, dim: int, left: bool) -> np.ndarray:
    import numpy as np
    eye = np.eye(dim)
    return np.kron(op2, eye) if left else np.kron(eye, op2)


def _maxabs(x: np.ndarray) -> float:
    return float(abs(x).max())


def dense_operator_identities(s) -> dict:
    """Max-norm residuals of the three-site relations among the
    permutation, the singlet projector, and every P^j sandwich

        P0_12 P^j_23 P0_12 = (2j+1)/(2s+1)^2 P0_12,

    with xi = (-1)^2s and eta = 1/(2s+1); both site orders checked.
    """
    import numpy as np
    ts = _two_s(s)
    if ts > IDENTITIES_TWO_S_CAP:
        raise DomainError(f"2s={ts} above the dense cap {IDENTITIES_TWO_S_CAP}")
    dim = ts + 1
    projs = dense_projectors(s)
    perm = permutation_dense(s)
    xi = minus_one_pow(ts)
    eta = 1.0 / (ts + 1)
    eye3 = np.eye(dim ** 3)
    residuals = {}
    for order in ("12-23", "23-12"):
        left_first = order == "12-23"
        pl = _three_site_pair(perm, dim, left_first)
        plp = _three_site_pair(perm, dim, not left_first)
        p0l = _three_site_pair(projs[0], dim, left_first)
        p0lp = _three_site_pair(projs[0], dim, not left_first)
        rel = {
            "idempotent": p0l @ p0l - p0l,
            "involution": pl @ pl - eye3,
            "absorb-left": p0l @ pl - xi * p0l,
            "absorb-right": pl @ p0l - xi * p0l,
            "braid": pl @ plp @ pl - plp @ pl @ plp,
            "intertwine-a": p0l @ plp @ pl - plp @ pl @ p0lp,
            "intertwine-b": pl @ p0lp @ pl - plp @ p0l @ plp,
            "sandwich": p0l @ plp @ p0l - eta * p0l,
            "sandwich-sq": p0l @ p0lp @ p0l - eta * eta * p0l,
            "chain-a": p0l @ p0lp @ pl - xi * eta * (p0l @ plp),
            "chain-b": pl @ p0lp @ p0l - xi * eta * (plp @ p0l),
        }
        for j in range(ts + 1):
            pj = _three_site_pair(projs[j], dim, not left_first)
            rel[f"spin-{j}-sandwich"] = (p0l @ pj @ p0l
                                         - ((2 * j + 1) / (ts + 1) ** 2) * p0l)
        for name, mat in rel.items():
            residuals[f"{order}/{name}"] = _maxabs(mat)
    worst = max(residuals.values())
    return {"s": str(HalfInt.coerce(s)), "residuals": residuals,
            "max_residual": worst, "tolerance": IDENTITY_TOL,
            "pass": worst < IDENTITY_TOL}


def dense_r_matrix(fam: SpectralFamily, lam) -> np.ndarray:
    """R(lam) = sum_j r_j(lam) P^j as a dense float matrix."""
    ts = fam.s.twice
    projs = dense_projectors(fam.s)
    out = 0.0 * projs[0]
    for j in range(ts + 1):
        out += float(fam.eval_coeff(j, lam)) * projs[j]
    return out


def dense_ybe_residual(fam: SpectralFamily, lam, mu) -> float:
    """Max-norm of R12(l) R23(l+m) R12(m) - R23(m) R12(l+m) R23(l)."""
    dim = fam.s.twice + 1
    comp = fam.compose(lam, mu)
    r12 = [_three_site_pair(dense_r_matrix(fam, x), dim, True)
           for x in (lam, comp, mu)]
    r23 = [_three_site_pair(dense_r_matrix(fam, x), dim, False)
           for x in (lam, comp, mu)]
    lhs = r12[0] @ r23[1] @ r12[2]
    rhs = r23[2] @ r12[1] @ r23[0]
    return _maxabs(lhs - rhs)


def reduction_consistency(fam: SpectralFamily, samples) -> dict:
    """Dense verdict (residual below tolerance) must agree with the exact
    verdict (every reduced level exactly zero) on each sample; a mismatch
    is a hard failure."""
    cases = []
    for lam, mu in samples:
        dense = dense_ybe_residual(fam, lam, mu)
        dense_zero = dense < IDENTITY_TOL
        exact_zero = all(reduced_ybe_check(fam, n, lam, mu).is_zero
                         for n in range(top_level(fam.s) + 1))
        consistent = dense_zero == exact_zero
        cases.append({"lambda": str(lam), "mu": str(mu),
                      "dense_residual": dense, "dense_zero": dense_zero,
                      "exact_zero": exact_zero, "consistent": consistent})
        if not consistent:
            raise AssertionError(
                f"dense/exact verdict mismatch for {fam.tag} at ({lam}, {mu}): "
                f"dense {dense} vs exact_zero={exact_zero}")
    return {"family": fam.tag, "s": str(fam.s), "cases": cases, "pass": True}
