"""Catalog of sl2-invariant R-matrix families with exact coefficient
evaluation.

Every family, catalog or custom, is a table of spectral coefficients
r_j, each an exact RationalFunction with coefficients in Q (Fraction) or
in a quadratic extension Q(sqrt(d)) (QuadExt), evaluated at rational
sample points.  A table is cleared to integer vectors once, when it is
built (`linalg.clear_denominators`), so an evaluation runs in integers
to integer parts, the exact kernels' input.  A family fixes its
one field Q(sqrt(d)) when it is built, the smallest d among its tables,
and every residual is taken over it.  A family's Sampling is the one
place that knows how it is sampled: in lambda (ADDITIVE), or, for the
Temperley-Lieb style family, in t = exp(gamma*lambda) (MULTIPLICATIVE),
where (lambda, mu, lambda+mu) become (t, u, t*u) and all stays exact.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .amatrix import LevelRange, eta_closed_form
from .exact import (DomainError, HalfInt, QuadExt, minus_one_pow,
                    parse_rational, rescale_surd)
from .linalg import clear_denominators

__all__ = [
    "ADDITIVE",
    "MULTIPLICATIVE",
    "PoleError",
    "RationalFunction",
    "Sampling",
    "SpectralFamily",
    "baxter_tl",
    "check_regularity_unitarity",
    "constant_baxter",
    "constant_root",
    "custom_family",
    "exceptional_s3",
    "family_from_json",
    "identity_family",
    "krs_prefix",
    "make_family",
    "permutation_family",
    "reduced_d",
    "yang",
    "zamolodchikov",
]


class PoleError(ZeroDivisionError):
    """Evaluation at a pole of a spectral coefficient."""


class Sampling:
    """One parameterization: compose(x, y) is the argument of lambda + mu,
    invert(x) that of -lambda, origin that of lambda = 0 (the regularity
    point and the constant check's marker); grid the default check's two
    disjoint 6-pair grids, run as one; dense the product grid of 13 points,
    above the catalog degree bound (<= 12 per variable); unitarity the
    unitarity check's points, where each r_j is defined and nonzero at the
    point and its inverse; shown the points `family show` prints under
    label.  Grid and unitarity points are positive and clear of every
    catalog pole (poles sit at irrational t or at -a, a > 0 a root of a
    one-factor table)."""

    __slots__ = ("compose", "invert", "origin", "grid", "dense", "unitarity", "shown", "label")

    def __init__(self, compose, invert, origin, grid, dense, unitarity, shown, label):
        self.compose, self.invert, self.origin, self.label = compose, invert, origin, label
        self.grid = tuple((Fraction(a), Fraction(b)) for a, b in grid)
        self.dense = tuple(product(map(Fraction, dense), repeat=2))
        self.unitarity, self.shown = tuple(map(Fraction, unitarity)), tuple(map(Fraction, shown))


def _reciprocal(t):
    if t == 0:
        raise PoleError("sample t = 0 has no multiplicative inverse")
    return 1 / t


ADDITIVE = Sampling(
    operator.add, operator.neg, Fraction(0),
    [("1/2", "1/3"), (1, 2), ("1/3", "1/5"), ("3/2", "1/4"), ("2/5", "3/7"), ("5/2", "1/6"),
     ("1/4", "1/7"), (2, 3), ("1/5", "2/3"), ("7/3", "1/2"), ("3/8", "5/6"), (4, "1/9")],
    ["1/7", "1/5", "1/3", "2/5", "1/2", "3/5", "2/3", 1, "4/3", "3/2", 2, "7/3", 3],
    ["1/3", "2/7", "5/9"], [0, "1/2", 1], "additive samples lambda")
# t-samples > 1 keep t, u and t*u distinct
MULTIPLICATIVE = Sampling(
    operator.mul, _reciprocal, Fraction(1),
    [(2, 3), (2, 5), (3, 4), (5, 2), (7, 3), (4, 9), (3, 5), (2, 7), (9, 2), (5, 3), (6, 7),
     (8, 3)], range(2, 15), [2, 3, "9/2"], [2, 3], "multiplicative samples t")


class RationalFunction:
    """num(x)/den(x) with coefficients in Q or Q(sqrt(d)), ascending powers.

    The table is cleared once, when it is built: both sides are padded to
    one length k + 1 and written by `linalg.clear_denominators` as integer
    vectors `rows` over one scale, the rational parts and, when any
    coefficient has one, the sqrt(d) parts, d the smallest discriminant
    among them (None when no coefficient is a QuadExt).  The scale and the
    q^k of a sample x = p/q cancel in num/den, so `parts` runs Horner in
    integers; a call builds a Fraction, or a QuadExt when any coefficient
    is one, from the parts.  Surds over incompatible fields (sqrt(2) with
    sqrt(3)) are refused with clear_denominators' ValueError.

    `parts` is the single pole check of the package: it raises PoleError
    wherever the denominator vanishes.  Two functions are equal when their
    coefficient tuples are, so a table can key a dict.
    """

    __slots__ = ("num", "den", "rows", "d")

    def __init__(self, num: tuple, den: tuple):
        if not num or not den:
            raise DomainError("a rational function needs at least one numerator "
                              "and one denominator coefficient")
        rows, d = _clear(num, den)
        for name, value in (("num", num), ("den", den), ("rows", rows), ("d", d)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError("RationalFunction is immutable")

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def parts(self, x) -> tuple:
        """(a, b, c), c > 0, with (a + b sqrt(d)) / c the value at a rational
        x over the table's d, b = 0 over Q: (a + b sqrt(d)) / (c + e sqrt(d))
        in integers, made rational in the denominator by its conjugate."""
        p, q = x.numerator, x.denominator
        a, c, *surd = (_homogeneous(row, p, q) for row in self.rows)
        b, e = surd or (0, 0)
        if c == 0 and e == 0:
            raise PoleError(f"denominator {[str(c) for c in self.den]} "
                            f"vanishes at {x}")
        if e:
            a, b, c = a * c - self.d * b * e, b * c - a * e, c * c - self.d * e * e
        return (a, b, c) if c > 0 else (-a, -b, -c)

    def __call__(self, x):
        """The value at a rational x, built from its parts."""
        a, b, c = self.parts(x)
        return Fraction(a, c) if self.d is None else QuadExt(Fraction(a, c), Fraction(b, c), self.d)


def _clear(num: tuple, den: tuple) -> tuple:
    """(rows, d) of a table: rows the integer vectors (num, den) of the
    rational parts, then (num, den) of the sqrt(d) parts when any
    coefficient has one, over one scale and of one length; d is None when
    no coefficient is a QuadExt, else the smallest sqrt(d) among them (1 if
    none is irrational)."""
    quads = [c for c in num + den if isinstance(c, QuadExt)]
    d = min((c.d for c in quads if c.b), default=1) if quads else None
    width = max(len(num), len(den))
    _, rows = clear_denominators([side + (0,) * (width - len(side)) for side in (num, den)],
                                 d or 1)
    return rows, d


def _homogeneous(coeffs: tuple, p: int, q: int) -> int:
    """q^k f(p/q) for the integer polynomial f = sum coeffs[i] x^i of
    degree at most k = len(coeffs) - 1, by Horner in integers."""
    acc, power = coeffs[-1], 1
    for c in coeffs[-2::-1]:
        power *= q
        acc = acc * p + c * power
    return acc


class SpectralFamily:
    """A named R-matrix family with evaluable spectral coefficients.

    It holds only what its tables cannot tell.  coeffs maps the
    total-spin label j, 0 <= j <= 2s, to its coefficient table; labels
    absent from the map are undefined for this family (the prefix-style
    families only pin the top few).  Every other fact is read from the
    tables: the family is constant when every table is a constant (one
    numerator and one denominator coefficient), and any other family is
    spectral and must be regular, r_j = 1 at the origin.  discriminant,
    fixed here, is the d of the coefficient field Q(sqrt(d)) as the
    arithmetic keeps it: the smallest d among the tables' sqrt(d), 1 if
    none (display_discriminant gives the printed d).  Tables over
    incompatible fields (sqrt(2) with sqrt(3)) are refused with
    rescale_surd's ValueError.  The multiplicative flag picks sampling.
    """

    __slots__ = ("tag", "s", "coeffs", "m", "sampling", "discriminant")

    def __init__(self, tag: str, s: HalfInt, coeffs: dict, m: int | None = None,
                 multiplicative: bool = False):
        if tag not in _CATALOG and tag != "custom":
            raise DomainError(f"unknown family tag {tag!r}")
        s.as_spin()
        for j in sorted(coeffs):
            if not 0 <= j <= s.twice:
                raise DomainError(f"coefficient label j={j} outside 0..2s={s.twice}")
        self.tag, self.s, self.coeffs, self.m = tag, s, coeffs, m
        self.sampling = MULTIPLICATIVE if multiplicative else ADDITIVE
        ds = {rf.d for rf in coeffs.values()} - {None, 1}
        self.discriminant = min(ds, default=1)
        for d in sorted(ds):
            rescale_surd(Fraction(1), d, self.discriminant)
        if not self.constant:
            for j in sorted(self.coeffs):
                a, b, c = self.coeffs[j].parts(self.sampling.origin)
                if (a, b) != (c, 0):
                    raise DomainError(f"family {self.tag} not regular: r_{j} at the "
                                      f"origin is {self.coeffs[j](self.sampling.origin)}")

    @property
    def multiplicative(self) -> bool:
        return self.sampling is MULTIPLICATIVE

    @property
    def constant(self) -> bool:
        return all(len(rf.num) == len(rf.den) == 1 for rf in self.coeffs.values())

    def defined(self):
        return sorted(self.coeffs)

    def table(self, j: int) -> RationalFunction:
        if j not in self.coeffs:
            raise DomainError(f"family {self.tag} does not define r_{j} "
                              f"(defined: {self.defined()})")
        return self.coeffs[j]

    def eval_coeff(self, j: int, lam):
        return self.table(j)(lam)

    def coeff_parts(self, j: int, lam) -> tuple:
        """r_j(lam) as parts (a, b, c, e), (a + b sqrt(e)) / c with e the table's d."""
        rf = self.table(j)
        return (*rf.parts(lam), rf.d or 1)


def reduced_d(fam: SpectralFamily, n: int, lam) -> tuple:
    """Entries r_{2s-k}(lam) of the level-n diagonal D(lam), k over the
    level range."""
    rng = LevelRange.for_level(fam.s, n)
    ts = fam.s.twice
    return tuple(fam.eval_coeff(ts - k, lam) for k in rng.indices())


def constant_root(eta: Fraction, branch: int = +1) -> QuadExt:
    """Root g = (-1 +- sqrt(D)) / (2 eta^2) of 1 + g + eta^2 g^2, with
    D = 1 - 4 eta^2: the + sign for branch +1, the - sign for branch -1."""
    eta = Fraction(eta)
    if eta == 0:
        raise DomainError("eta must be nonzero")
    disc = 1 - 4 * eta * eta
    if disc < 0:
        raise DomainError("discriminant 1 - 4*eta^2 is negative")
    scale = 1 / (2 * eta * eta)
    return QuadExt(-scale, scale if branch >= 0 else -scale, disc)


def _require_spin(s, minimum_twice: int, why: str) -> HalfInt:
    s = HalfInt.coerce(s)
    if s.twice < minimum_twice:
        raise DomainError(why)
    return s


def _require_index(s: HalfInt, m) -> None:
    """The distinguished index m of a shifted family or level-m check."""
    if m is None or not 2 <= m <= s.twice:
        raise DomainError(f"m={m} must satisfy 2 <= m <= 2s={s.twice}")


@lru_cache
def _one_factor(*roots) -> RationalFunction:
    """The table prod (a - x)/(a + x) over the roots a, expanded over Q;
    1 for no roots.  Tables are immutable, so families share one per roots."""
    num = den = (Fraction(1),)
    for a in map(Fraction, roots):
        num = tuple(a * c - c_prev for c, c_prev in zip(num + (0,), (0,) + num))
        den = tuple(a * c + c_prev for c, c_prev in zip(den + (0,), (0,) + den))
    return RationalFunction(num, den)


def _constant(value) -> RationalFunction:
    return RationalFunction((value,), (Fraction(1),))


def _yang_roots(ts: int, j: int) -> tuple:
    """yang's roots at label j: a = 1 where 2s - j is odd, none where even."""
    return (1,) if (ts - j) % 2 else ()


def yang(s) -> SpectralFamily:
    """Rational family r_j = (1 + (-1)^(2s-j) lambda)/(1 + lambda): one
    factor at a = 1 where 2s - j is odd, the constant 1 where it is even."""
    s = HalfInt.coerce(s)
    ts = s.twice
    return SpectralFamily("yang", s, {
        j: _one_factor(*_yang_roots(ts, j)) for j in range(ts + 1)})


def zamolodchikov(s, m: int | None = None) -> SpectralFamily:
    """Family with a shifted coefficient at j = 2s - m:

        r_j = (1 + (-1)^(2s-j) lambda + [j == 2s-m] g(lambda)) / (1 + lambda),
        g(lambda) = lambda / (eta - xi/2 - xi eta lambda),

    with xi = (-1)^m and eta the level-m diagonal constant.  Coefficients
    below j = 2s - m are undefined unless m = 2s.  Above 2s - m the tables
    are yang's; the shifted r_{2s-m} is yang's r_{2s-m+1} times one factor
    at a = 1/(2 eta) - xi, so its roots are a and, for even m, 1.
    """
    s = _require_spin(s, 2, "the shifted family needs s >= 1")
    ts = s.twice
    if m is None:
        m = ts
    _require_index(s, m)
    root = 1 / (2 * eta_closed_form(s, m)) - minus_one_pow(m)
    coeffs = {j: _one_factor(*_yang_roots(ts, j)) for j in range(ts - m + 1, ts + 1)}
    coeffs[ts - m] = _one_factor(*_yang_roots(ts, ts - m + 1), root)
    return SpectralFamily("zamolodchikov", s, coeffs, m=m)


def baxter_tl(s) -> SpectralFamily:
    """Temperley-Lieb style family over Q(sqrt(D)), D = 1 - 4 eta^2 with
    eta = 1/(2s+1), multiplicative samples:

        r_0(t) = (A t - B)/(A - B t),  r_j = 1 for j >= 1,

    where A, B = (1 +- sqrt(D))/2 are the roots of x^2 - x + eta^2.  The
    family is the m = 2s member, the only one with a closed form for every
    coefficient, and records m = 2s.  The r_j for j >= 1 stay rational.
    """
    s = _require_spin(s, 2, "the Temperley-Lieb family needs s >= 1")
    ts = s.twice
    eta = eta_closed_form(s, ts)
    big_a, big_b = (QuadExt(Fraction(1, 2), Fraction(sign, 2), 1 - 4 * eta * eta)
                    for sign in (1, -1))
    coeffs = {j: _constant(Fraction(1)) for j in range(1, ts + 1)}
    coeffs[0] = RationalFunction((-big_b, big_a), (big_a, -big_b))
    return SpectralFamily("baxter-tl", s, coeffs, m=ts, multiplicative=True)


def krs_prefix(s) -> SpectralFamily:
    """Only the three highest coefficients are pinned, zamolodchikov(s, 2)'s:

        r_2s = 1,  r_{2s-1} = (1-l)/(1+l),
        r_{2s-2} = (1-l)/(1+l) * (1 - tau l)/(1 + tau l),  tau = 2s/(2s-1),

    so r_{2s-1} has the root a = 1 and r_{2s-2} the roots 1 and 1/tau.
    Lower coefficients are undefined.  A level is formed when its
    diagonal reads only these three: levels 0, 1 and 2 at every s, and the
    top level, whose diagonal is shifted, at s <= 2 (level 3 at s = 1
    reads only r_1).  The default check runs the contiguous prefix of
    formed levels: 0..3 at s = 1 and 0..2 above.
    """
    s = _require_spin(s, 2, "the prefix family needs s >= 1")
    return SpectralFamily("krs-prefix", s, zamolodchikov(s, 2).coeffs)


def exceptional_s3() -> SpectralFamily:
    """The spin-3 solution with shifted coefficients at j = 3 and j = 0:

        r_6 = r_4 = r_2 = 1,  r_5 = r_1 = (1-l)/(1+l),
        r_3 = (4-l)/(4+l),    r_0 = (1-l)/(1+l) * (6-l)/(6+l).

    r_3..r_6 are zamolodchikov(3, 3)'s tables (r_3 has the root a = 4), r_2
    and r_1 are yang's, and r_0 has the roots 1 and 6: r_1 times one factor.
    """
    rational = yang(3).coeffs
    return SpectralFamily("exceptional-s3", HalfInt(6), {
        **zamolodchikov(3, 3).coeffs, 2: rational[2], 1: rational[1],
        0: _one_factor(1, 6)}, m=3)


def constant_baxter(s, m: int | None) -> SpectralFamily:
    """Constant family r_j = 1 + [j == 2s-m] g with g the +1 root
    (constant_root) of the level-m quadratic 1 + g + eta^2 g^2 = 0,
    living in Q(sqrt(1-4 eta^2)).

    For m = 2s this is a full solution.  For m < 2s it is only the leading
    part of one: it passes every level up through m and fails at level
    m + 1, which is exactly the obstruction forcing lower coefficients.
    """
    s = _require_spin(s, 2, "constant shifted family needs s >= 1")
    if m is None:
        raise DomainError("family 'constant-baxter' needs m")
    ts = s.twice
    _require_index(s, m)
    shifted = 1 + constant_root(eta_closed_form(s, m))
    coeffs = {j: _constant(Fraction(1)) for j in range(ts + 1)}
    coeffs[ts - m] = _constant(shifted.as_fraction() if shifted.is_rational
                               else shifted)
    return SpectralFamily("constant-baxter", s, coeffs, m=m)


def permutation_family(s) -> SpectralFamily:
    s = HalfInt.coerce(s)
    ts = s.twice
    return SpectralFamily(
        "permutation", s,
        {j: _constant(Fraction(minus_one_pow(ts - j))) for j in range(ts + 1)})


def identity_family(s) -> SpectralFamily:
    s = HalfInt.coerce(s)
    return SpectralFamily(
        "identity", s, {j: _constant(Fraction(1)) for j in range(s.twice + 1)})


def custom_family(s, tables: dict, multiplicative: bool = False) -> SpectralFamily:
    """Family from explicit rational-function coefficient tables."""
    s = HalfInt.coerce(s)
    return SpectralFamily("custom", s, dict(tables), multiplicative=multiplicative)


# tag -> (factory, the options it takes in call order); "custom" is no
# catalog tag: a custom family comes from its coefficient tables.
_CATALOG = {
    "yang": (yang, ("s",)),
    "baxter-tl": (baxter_tl, ("s",)),
    "zamolodchikov": (zamolodchikov, ("s", "m")),
    "krs-prefix": (krs_prefix, ("s",)),
    "exceptional-s3": (exceptional_s3, ()),
    "constant-baxter": (constant_baxter, ("s", "m")),
    "permutation": (permutation_family, ("s",)),
    "identity": (identity_family, ("s",)),
}


def make_family(tag: str, s=None, m: int | None = None) -> SpectralFamily:
    """The catalog family of the tag; an option the tag does not take is
    refused, not dropped."""
    if tag not in _CATALOG:
        raise DomainError(f"unknown family tag {tag!r} (one of {tuple(_CATALOG)}); "
                          "a custom family is loaded from a family document "
                          "(--family-file)")
    factory, takes = _CATALOG[tag]
    options = {"s": s, "m": m}
    for name, value in options.items():
        if value is not None and name not in takes:
            raise DomainError(f"family {tag!r} takes no {name}")
    if "s" in takes and s is None:
        raise DomainError(f"family {tag!r} needs a spin")
    return factory(*(options[name] for name in takes))


def _coefficient_list(entry, key: str, j: int) -> tuple:
    if isinstance(entry, dict) and (extra := [k for k in entry if k not in ("num", "den")]):
        raise DomainError(f"coeffs[{j}] takes no key {extra[0]!r}, only 'num' and 'den'")
    values = entry.get(key) if isinstance(entry, dict) else None
    if not isinstance(values, list):
        raise DomainError(f"coeffs[{j}] needs a {key!r} list")
    return tuple(parse_rational(str(c)) for c in values)


def family_from_json(doc: dict) -> SpectralFamily:
    """The custom family of a family document, already parsed from JSON:
    "tag" is "custom", "s" is "p/2" or an integer, "coeffs" is
    [{"num": [...], "den": [...]} | null, ...] indexed by j = 0..2s, and
    "multiplicative" is true or false (default false).  Coefficient lists
    are ascending powers, entries "p/q" strings or integer numbers.  A
    catalog family is named by tag, spin and m on the command line, never
    by a document, so any other tag raises DomainError, and so do an "m"
    key, any key not named here, a label beyond 2s and a document of any
    other shape, a non-integer JSON number among them."""
    if not isinstance(doc, dict) or not isinstance(doc.get("tag"), str):
        raise DomainError("a family document is a JSON object with a string \"tag\"")
    if doc["tag"] != "custom":
        raise DomainError(f"a family file holds a custom family, not {doc['tag']!r}; "
                          "name a catalog family with --family, --s and --m")
    if extra := [key for key in doc if key not in ("tag", "s", "coeffs", "multiplicative", "m")]:
        raise DomainError(f"a family document takes no key {extra[0]!r}")
    if doc.get("m") is not None:
        raise DomainError("family 'custom' takes no m")
    if "s" not in doc:
        raise DomainError("a custom family needs \"s\"")
    s = HalfInt.parse(str(doc["s"]))
    coeffs = doc.get("coeffs", [])
    if not isinstance(coeffs, list):
        raise DomainError("\"coeffs\" must be a list")
    multiplicative = doc.get("multiplicative", False)
    if not isinstance(multiplicative, bool):
        raise DomainError(f"\"multiplicative\" must be true or false, not {multiplicative!r}")
    tables = {j: RationalFunction(_coefficient_list(entry, "num", j),
                                  _coefficient_list(entry, "den", j))
              for j, entry in enumerate(coeffs) if entry is not None}
    return custom_family(s, tables, multiplicative=multiplicative)


def check_regularity_unitarity(fam: SpectralFamily, samples) -> dict:
    """Exact unitarity and normalization at each sample:

        r_j(x) r_j(inv x) = 1,  r_{2s}(x) = 1.

    Regularity, r_j(origin) = 1, holds already: building a spectral
    family enforces it.  Both read integer parts (c > 0): over one table's
    d, the product is 1 iff a1 a2 + d b1 b2 = c1 c2 and a1 b2 + a2 b1 = 0.
    """
    ts = fam.s.twice
    failures = []
    for x in samples:
        for j in fam.defined():
            a1, b1, c1, d = fam.coeff_parts(j, x)
            a2, b2, c2, _ = fam.coeff_parts(j, fam.sampling.invert(x))
            if a1 * a2 + d * b1 * b2 != c1 * c2 or a1 * b2 + a2 * b1:
                failures.append({"check": "unitary", "j": j, "sample": str(x)})
        if ts in fam.coeffs:
            a, b, c, _ = fam.coeff_parts(ts, x)
            if (a, b) != (c, 0):
                failures.append({"check": "normalized", "sample": str(x)})
    return {"failures": failures, "pass": not failures}
