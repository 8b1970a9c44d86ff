"""Exact Wigner 6-j symbols of sl2 via the Racah single-sum formula.

A symbol {a b e; c d f} evaluates to a single surd c*sqrt(r), the
QuadExt with a = 0: the four triangle coefficients multiply under one
radical and the alternating factorial sum is rational; both come from
`amatrix`, whose A^(s,n) is built from the same sum.  The symbol is exact
zero where the triangle coefficients are, on an inadmissible triad.  The
Racah sum rule of one level is sign conjugation of the cached A^(s,n) in
6-j form, so checking it evaluates no sum and needs no arithmetic on surds.
"""
from __future__ import annotations

from fractions import Fraction

from .amatrix import _racah_sum, _triangle_sq, a_matrix
from .exact import DomainError, HalfInt, QuadExt, sqrt_canonicalize

__all__ = [
    "racah_identity_residual",
    "sixj",
]


def sixj(a, b, e, c, d, f) -> QuadExt:
    """Exact {a b e; c d f}, each label text, a number or a HalfInt; zero
    unless each triad (a,b,e), (a,d,f), (b,c,f), (c,d,e) is admissible.  A
    spin label below 0 has no 6-j symbol and is refused."""
    labels = [HalfInt.coerce(x) for x in (a, b, e, c, d, f)]
    if any(x.twice < 0 for x in labels):
        raise DomainError("spin labels must be >= 0, got "
                          + " ".join(str(x) for x in labels))
    ta, tb, te, tc, td, tf = (x.twice for x in labels)
    radicand = _triangle_sq((ta, tb, te), (ta, td, tf), (tb, tc, tf), (tc, td, te))
    if not radicand[0]:
        return QuadExt(0)
    return sqrt_canonicalize(Fraction(*_racah_sum(ta, tb, te, tc, td, tf)),
                             Fraction(*radicand))


def racah_identity_residual(s, n: int) -> tuple:
    """Integer residual of the Racah sum rule at level (s, n),

        sum_p (-1)^p (2p+1) W_lp W_pl' - (-1)^(l+l') W_ll',
        W_lp = {s s l; s r4 p},  r4 = 3s - n,

    over l, p = 2s - k for k in the level range, rows and columns in
    ascending k.  The rule is sign conjugation of A^(s,n) in 6-j form,
    and this is the sign-conjugation residual of A^(s,n): the rule's
    residual times positive factors, nonzero at exactly the same cells
    (README "On one level (s, n)").
    """
    return a_matrix(s, n).sign_conjugation_residual()
