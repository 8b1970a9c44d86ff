"""Exact Wigner 6-j symbols of sl2 via the Racah single-sum formula.

A symbol {a b e; c d f} evaluates to a single SqrtRational: the four
triangle coefficients multiply under one radical and the alternating
factorial sum is rational.  Inadmissible arguments give exact zero.
Values are memoized on the six labels until clear_sixj_cache().
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import (DomainError, HalfInt, SqrtRational, factorial,
                    minus_one_pow, sqrt_canonicalize)

__all__ = [
    "SixJArgs",
    "clear_sixj_cache",
    "racah_identity_residual",
    "sixj",
    "triangle_ok",
]


def triangle_ok(x: HalfInt, y: HalfInt, z: HalfInt) -> bool:
    """|x-y| <= z <= x+y with integer perimeter x+y+z."""
    tx, ty, tz = x.twice, y.twice, z.twice
    return abs(tx - ty) <= tz <= tx + ty and (tx + ty + tz) % 2 == 0


@dataclass(frozen=True)
class SixJArgs:
    """Arguments laid out as {a b e; c d f}.

    The four coupling triads are (a,b,e), (a,d,f), (b,c,f), (c,d,e); the
    symbol vanishes unless each satisfies the triangle condition with an
    integer perimeter.
    """

    a: HalfInt
    b: HalfInt
    e: HalfInt
    c: HalfInt
    d: HalfInt
    f: HalfInt

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


def _triangle_sq(x: HalfInt, y: HalfInt, z: HalfInt) -> Fraction:
    """Squared triangle coefficient (a+b-c)!(a-b+c)!(-a+b+c)!/(a+b+c+1)!."""
    tx, ty, tz = x.twice, y.twice, z.twice
    return Fraction(
        factorial((tx + ty - tz) // 2)
        * factorial((tx - ty + tz) // 2)
        * factorial((-tx + ty + tz) // 2),
        factorial((tx + ty + tz) // 2 + 1),
    )


def sixj(args: SixJArgs) -> SqrtRational:
    """Exact 6-j value; zero for inadmissible arguments.  Memoized on the
    six labels (twice each spin) until clear_sixj_cache()."""
    return _sixj_cached(args.a.twice, args.b.twice, args.e.twice,
                        args.c.twice, args.d.twice, args.f.twice)


def clear_sixj_cache() -> None:
    """Drop every memoized 6-j value."""
    _sixj_cached.cache_clear()


@lru_cache(maxsize=None)
def _sixj_cached(ta: int, tb: int, te: int, tc: int, td: int, tf: int) -> SqrtRational:
    args = SixJArgs(*map(HalfInt, (ta, tb, te, tc, td, tf)))
    if not args.admissible():
        return SqrtRational(0)
    radicand = Fraction(1)
    for t in args.triads():
        radicand *= _triangle_sq(*t)
    triad_sums = [(ta + tb + te) // 2, (ta + td + tf) // 2,
                  (tb + tc + tf) // 2, (tc + td + te) // 2]
    quad_sums = [(ta + tb + tc + td) // 2, (tb + te + td + tf) // 2,
                 (te + ta + tf + tc) // 2]
    total = Fraction(0)
    for t in range(max(triad_sums), min(quad_sums) + 1):
        den = 1
        for ts_ in triad_sums:
            den *= factorial(t - ts_)
        for qs in quad_sums:
            den *= factorial(qs - t)
        total += Fraction(minus_one_pow(t) * factorial(t + 1), den)
    return sqrt_canonicalize(total, radicand)


def _half_sign(value: HalfInt) -> int:
    if not value.is_integer:
        raise DomainError(f"(-1)**({value}) is undefined for half-integers")
    return minus_one_pow(value.twice // 2)


def racah_identity_residual(r1: HalfInt, r2: HalfInt, r3: HalfInt,
                            r4: HalfInt, l: HalfInt, lp: HalfInt) -> SqrtRational:
    """Residual of the Racah sum rule

        sum_p (-1)^p (2p+1) {r1 r3 l; r2 r4 p} {r1 r2 l'; r3 r4 p}
            - (-1)^(l+l') {r3 r1 l; r2 r4 l'}

    which must vanish identically.  The p-dependent triangle radicals
    square away, so every term shares one radicand class and the residual
    is a single exact SqrtRational.  All exponents must come out integer.
    """
    lo = max(abs(r1.twice - r4.twice), abs(r2.twice - r3.twice))
    hi = min(r1.twice + r4.twice, r2.twice + r3.twice)
    total = SqrtRational(0)
    for tp in range(lo, hi + 1, 2):
        p = HalfInt(tp)
        term = sixj(SixJArgs(r1, r3, l, r2, r4, p)) * sixj(SixJArgs(r1, r2, lp, r3, r4, p))
        if term.is_zero:
            continue
        total = total + term * (_half_sign(p) * (tp + 1))
    rhs = sixj(SixJArgs(r3, r1, l, r2, r4, lp))
    return total - _half_sign(l + lp) * rhs
