"""Exact Wigner 6-j symbols of sl2 via the Racah single-sum formula.

A symbol {a b e; c d f} evaluates to a single surd c*sqrt(r), the
QuadExt with a = 0: the four triangle coefficients multiply under one
radical and the alternating factorial sum is rational; both come from
`amatrix`, whose A^(s,n) is built from the same sum.  Inadmissible
arguments give exact zero.  The Racah sum rule of one level is sign
conjugation of the cached A^(s,n) in 6-j form, so checking it evaluates
no sum and needs no arithmetic on surds.
"""
from __future__ import annotations

from fractions import Fraction

from .amatrix import _racah_sum, _triangle_sq, a_matrix
from .exact import DomainError, HalfInt, QuadExt, sqrt_canonicalize

__all__ = [
    "SixJArgs",
    "racah_identity_residual",
    "sixj",
    "triangle_ok",
]


def triangle_ok(x: HalfInt, y: HalfInt, z: HalfInt) -> bool:
    """|x-y| <= z <= x+y with integer perimeter x+y+z."""
    tx, ty, tz = x.twice, y.twice, z.twice
    return abs(tx - ty) <= tz <= tx + ty and (tx + ty + tz) % 2 == 0


class SixJArgs:
    """Arguments laid out as {a b e; c d f}.

    The four coupling triads are (a,b,e), (a,d,f), (b,c,f), (c,d,e); the
    symbol vanishes unless each satisfies the triangle condition with an
    integer perimeter.
    """

    __slots__ = ("a", "b", "e", "c", "d", "f")

    def __init__(self, a: HalfInt, b: HalfInt, e: HalfInt, c: HalfInt, d: HalfInt,
                 f: HalfInt):
        self.a, self.b, self.e, self.c, self.d, self.f = a, b, e, c, d, f

    @classmethod
    def coerce(cls, *args) -> "SixJArgs":
        """Labels given as text or numbers; a spin label below 0 has no
        6-j symbol and is refused."""
        labels = [HalfInt.coerce(x) for x in args]
        if any(x.twice < 0 for x in labels):
            raise DomainError("spin labels must be >= 0, got "
                              + " ".join(str(x) for x in labels))
        return cls(*labels)

    def triads(self):
        return ((self.a, self.b, self.e), (self.a, self.d, self.f),
                (self.b, self.c, self.f), (self.c, self.d, self.e))

    def admissible(self) -> bool:
        return (min(x.twice for x in (self.a, self.b, self.e, self.c, self.d, self.f)) >= 0
                and all(triangle_ok(*t) for t in self.triads()))


def sixj(args: SixJArgs) -> QuadExt:
    """Exact 6-j value; zero for inadmissible arguments."""
    if not args.admissible():
        return QuadExt(0)
    radicand = _triangle_sq(*([x.twice for x in t] for t in args.triads()))
    labels = (args.a, args.b, args.e, args.c, args.d, args.f)
    return sqrt_canonicalize(Fraction(*_racah_sum(*(x.twice for x in labels))),
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
