"""Exact scalar arithmetic: half-integer labels and quadratic extensions
Q(sqrt(d)), whose a = 0 elements c*sqrt(r) carry the square roots of
rationals (6-j symbols and raw recoupling entries).

All values are immutable; rationals are `fractions.Fraction` throughout,
and no floating point enters.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "DomainError",
    "HalfInt",
    "QuadExt",
    "display_discriminant",
    "parse_rational",
    "rescale_surd",
    "sqrt_canonicalize",
    "squarefree_split",
]


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


def minus_one_pow(e: int) -> int:
    """(-1)**e kept in integers for arbitrary (possibly negative) e."""
    return -1 if e % 2 else 1


# Trial division up to this bound extracts every square factor of a smooth
# integer, such as the products of small factorials this package produces.
# The bound affects only how a value prints: equality, field membership and
# arithmetic never factor.
_TRIAL_BOUND = 100_000


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = m*m*d and return (m, d).  Used for printing only.

    Trial division by every p up to 1e5 leaves a cofactor whose prime
    factors all exceed 1e5.  Below 1e15 = (1e5)^3 that cofactor has at most
    two of them, so it is squarefree unless isqrt shows it to be a square.
    Only a larger cofactor that is not a square may keep a square factor
    in d."""
    if n < 0:
        raise DomainError("squarefree_split of negative integer")
    if n == 0:
        return 0, 1
    m, d, rest, p = 1, 1, n, 2
    while p * p <= rest and p <= _TRIAL_BOUND:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            m *= p ** (e // 2)
            d *= p ** (e % 2)
        p += 1 if p == 2 else 2
    r = math.isqrt(rest)
    if r * r == rest:
        return m * r, d
    return m, d * rest


def display_discriminant(d: int) -> int:
    """The discriminant printed for the field Q(sqrt(d)): d with its square
    factors removed (for smooth d).  Display only; arithmetic keeps d.  The
    limit is `squarefree_split`'s, and only factoring would lift it: d = p^2 q
    with primes p, q > 1e5 prints whole, as QuadExt's str prints it, so
    Q(sqrt(p^2 q)) and Q(sqrt(q)) print differently."""
    return squarefree_split(d)[1]


def _perfect_root(n: int) -> int | None:
    """isqrt(n) when n is a perfect square, else None."""
    r = math.isqrt(n)
    return r if r * r == n else None


def _split_radicand(radicand: Fraction) -> tuple[Fraction | int, int]:
    """(c, n) with sqrt(radicand) == c*sqrt(n) for a radicand >= 0, where n
    is 1 or a positive integer that is not a square (n == 1, c == 0 for a
    zero radicand).  Nothing is factored: only the denominator and the
    integer radicand are tested for being squares."""
    p, q = radicand.numerator, radicand.denominator
    c, n = 1, p
    if q != 1:
        root = _perfect_root(q)
        c, n = (Fraction(1, root), p) if root is not None else (Fraction(1, q), p * q)
    root = _perfect_root(n)
    return (c * root, 1) if root is not None else (c, n)


def rescale_surd(b: Fraction, d: int, target: int) -> Fraction:
    """The b' with b*sqrt(d) == b'*sqrt(target), for d and target each 1 or
    not a square.  The two roots span one field iff d*target is a perfect
    square, decided by isqrt without factoring; otherwise ValueError."""
    if d == target:
        return b
    root = _perfect_root(d * target)
    if root is None:
        raise ValueError(f"mixed discriminants sqrt({d}) vs sqrt({target})")
    return b * Fraction(root, target)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _surd_eq(b1: Fraction, d1: int, b2: Fraction, d2: int) -> bool:
    """b1*sqrt(d1) == b2*sqrt(d2): the signs agree and the squares do."""
    if d1 == d2:
        return b1 == b2
    return _sign(b1) == _sign(b2) and b1 * b1 * d1 == b2 * b2 * d2


class HalfInt:
    """A spin or level label x stored as twice = 2x, so all index
    arithmetic stays in plain integers.  Labels compare and hash by twice."""

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        object.__setattr__(self, "twice", twice)

    def __setattr__(self, *args):
        raise AttributeError("HalfInt is immutable")

    def __eq__(self, other):
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        return NotImplemented

    def __hash__(self):
        return hash(self.twice)

    def __lt__(self, other):
        if isinstance(other, HalfInt):
            return self.twice < other.twice
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, HalfInt):
            return self.twice <= other.twice
        return NotImplemented

    @classmethod
    def coerce(cls, value) -> "HalfInt":
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return cls(2 * value)
        if isinstance(value, Fraction):
            if value.denominator not in (1, 2):
                raise DomainError(f"{value} is not a half-integer")
            return cls(int(2 * value))
        if isinstance(value, str):
            return cls.parse(value)
        raise TypeError(f"cannot interpret {value!r} as a half-integer")

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        frac = parse_rational(text)
        if frac.denominator not in (1, 2):
            raise DomainError(f"{text!r} is not a half-integer")
        return cls(int(2 * frac))

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def as_spin(self) -> "HalfInt":
        """The label as a spin, refused when negative."""
        if self.twice < 0:
            raise DomainError(f"spin s={self} is negative")
        return self

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


_RATIONAL_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """An integer or a p/q literal; decimal, exponent and float notation
    raise DomainError, so inexact input never enters the exact layer."""
    literal = text.strip()
    if not _RATIONAL_LITERAL.fullmatch(literal):
        raise DomainError(f"{text!r} is not an integer or p/q rational")
    try:
        return Fraction(literal)
    except ZeroDivisionError:
        raise DomainError(f"{text!r} has a zero denominator") from None


def sqrt_canonicalize(coeff: Fraction, radicand: Fraction) -> "QuadExt":
    """coeff*sqrt(radicand) as the a = 0 element of Q(sqrt(radicand)): the
    radicand becomes a positive integer, 1 iff the value is rational.
    Square factors are not extracted (see QuadExt), so nothing is factored."""
    if radicand < 0:
        raise DomainError("negative radicand (no complex support)")
    return QuadExt(0, coeff, radicand)


class QuadExt:
    """Element a + b*sqrt(d) of Q(sqrt(d)).

    The discriminant d is a positive integer, 1 iff the value is rational
    (b == 0); it is not reduced to squarefree form.  Two irrational values
    lie in one field iff the product of their discriminants is a square,
    and arithmetic then rescales the second to the first one's d.
    Equality, hashing and str() all read a, the sign of b and b^2 d;
    str() factors b^2 d to print it, the only place anything is factored.
    Rational values embed into any extension, and a pure surd c*sqrt(r)
    is the element with a = 0 (`sqrt_canonicalize`).
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=1):
        a, b, d = Fraction(a), Fraction(b), Fraction(d)
        if d < 0:
            raise DomainError("negative discriminant (no complex support)")
        n = 1
        if b != 0:
            # sqrt(d) = c*sqrt(n), folded into a when n == 1
            c, n = _split_radicand(d)
            if c != 1:
                b *= c
            if n == 1:
                a, b = a + b, Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", n if b != 0 else 1)

    def __setattr__(self, *args):
        raise AttributeError("QuadExt is immutable")

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise DomainError(f"{self} is irrational")
        return self.a

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.b != 0 and self.b != 0 and other.d != self.d:
                return QuadExt(other.a, rescale_surd(other.b, other.d, self.d), self.d)
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other)
        return None
    def _field_d(self, other: "QuadExt") -> int:
        return self.d if self.b != 0 else other.d

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadExt(self.a + other.a, self.b + other.b, self._field_d(other))

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._field_d(other)
        return QuadExt(self.a * other.a + self.b * other.b * d,
                       self.a * other.b + self.b * other.a, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        norm = self.a * self.a - self.d * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError(f"{self} is not invertible")
        return QuadExt(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            return self.a == other.a and _surd_eq(self.b, self.d, other.b, other.d)
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, _sign(self.b), self.b * self.b * self.d))

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d!r})"

    def __str__(self) -> str:
        """a + c*sqrt(r), read from a, the sign of b and b^2 d alone, so equal
        values print alike however d is written: with b^2 d = p/q in lowest
        terms, |b| sqrt(d) = sqrt(p q) / q, and squarefree_split(p q) gives
        c and r."""
        if self.b == 0:
            return str(self.a)
        x = self.b * self.b * self.d
        m, r = squarefree_split(x.numerator * x.denominator)
        c = Fraction(m, x.denominator)
        if self.a == 0:
            return f"{c if self.b > 0 else -c}*sqrt({r})"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {c}*sqrt({r})"
