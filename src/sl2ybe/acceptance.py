"""The acceptance battery: every headline identity and scan, each decided
exactly.

One criterion is retained in a deliberately failing literal form: the
strict full-rank expectation for non-degenerate scan cells (criterion 6,
third part).  Exact computation shows that small-index cells carry one
exact linear relation, so the literal check reports FAIL with the witness
while the corrected non-degeneracy statement passes alongside; see README
"Known discrepancies".
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .amatrix import (LevelRange, a_matrix, consecutive_level_ratio, eta,
                      eta_closed_form, top_level, verify_a_properties,
                      verify_sign_conjugation)
from .classify import (constant_m_prime, constant_roots, degeneracy_scan,
                       eta_level4_m3, exceptional_level_combination,
                       level_three_five_ratio, permutation_rigidity,
                       projector_obstruction_check)
from .exact import HalfInt, format_rational
from .oracle import (dense_operator_identities, dense_ybe_residual,
                     reduction_consistency)
from .sixj import racah_identity_residual
from .spectral import (RationalFunction, baxter_tl, custom_family,
                       exceptional_s3, krs_prefix, permutation_family, yang,
                       zamolodchikov)
from .ybe import constant_check, full_check, reduced_ybe_check

__all__ = ["CriterionResult", "run_all"]

F = Fraction


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: list = field(default_factory=list)
    defect: str | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = " (documented discrepancy)" if (not self.passed and self.defect) else ""
        return f"[{status}] criterion {self.number}: {self.title}{note}"


def _level_grid(max_two_s: int):
    for ts in range(1, max_two_s + 1):
        s = HalfInt(ts)
        for n in range(top_level(s) + 1):
            yield s, n


def perturbed_yang(two_s: int = 1):
    """Negative control: yang, regular and unitary in the top coefficients,
    with the bottom coefficient's numerator times (1 + lambda^2)."""
    tables = dict(yang(HalfInt(two_s)).coeffs)
    r0 = tables[0]
    tables[0] = RationalFunction(r0.num + r0.num, r0.den)  # (1+x^2)(a+bx)
    return custom_family(HalfInt(two_s), tables)


def deformed_permutation(two_s: int, m: int, g: Fraction):
    """Constant control: the permutation signs with g added at j = 2s-m."""
    tables = dict(permutation_family(HalfInt(two_s)).coeffs)
    r = tables[two_s - m]
    tables[two_s - m] = RationalFunction((r.num[0] + g,), r.den)
    return custom_family(HalfInt(two_s), tables)


def criterion_1(max_two_s: int = 6) -> CriterionResult:
    details = []
    count = 0
    for s, n in _level_grid(max_two_s):
        count += 1
        if not (verify_a_properties(s, n) and verify_sign_conjugation(s, n)):
            details.append(f"failed at (s={s}, n={n})")
    ok = not details
    details.append(f"{count} levels: symmetry, involution, sign conjugation all exact"
                   if ok else f"{count} levels, {len(details)} failed")
    return CriterionResult(1, "recoupling matrix properties (exact)", ok, details)


def criterion_2(max_two_s: int = 6) -> CriterionResult:
    details = []
    cells = 0
    for s, n in _level_grid(max_two_s):
        k_min = LevelRange.for_level(s, n).k_min
        for i, row in enumerate(racah_identity_residual(s, n)):
            cells += len(row)
            for j, x in enumerate(row):
                if x != 0:
                    details.append(f"nonzero at (s={s}, n={n}, k={k_min + i}, "
                                   f"k'={k_min + j})")
    ok = not details
    details.append(f"{cells} Racah sum-rule residuals, " + (
        "all exactly zero" if ok else f"{len(details)} nonzero"))
    return CriterionResult(2, "Racah identity on the full level grid (exact)", ok, details)


def criterion_3() -> CriterionResult:
    details, ok = [], True
    for ts in range(2, 9):
        s = HalfInt(ts)
        for m in range(2, ts + 1):
            if eta(s, m, m) != eta_closed_form(s, m):
                ok = False
                details.append(f"closed form mismatch at (s={s}, m={m})")
    checks = [
        (eta(HalfInt(2), 2, 2) == F(1, 3), "eta(s=1, m=2) == 1/3"),
        (eta(HalfInt(3), 3, 3) == F(1, 4), "eta(s=3/2, m=3) == 1/4"),
        (all(eta_closed_form(HalfInt(ts), ts) == F(1, ts + 1)
             for ts in range(1, 9)),
         "top index reduces to 1/(2s+1)"),
    ]
    for good, label in checks:
        ok = ok and good
        details.append(("ok: " if good else "FAIL: ") + label)
    return CriterionResult(3, "diagonal constant closed form (exact)", ok, details)


def criterion_4() -> CriterionResult:
    details, ok = [], True
    for ts in range(3, 13):
        value = eta_level4_m3(HalfInt(ts))
        if value != F(1, 2):
            ok = False
            details.append(f"level-4 constant is {value} at 2s={ts}")
    details.append("level-4 diagonal constant equals 1/2 for 2s in 3..12 "
                   "(entry for 2s >= 4; exact ratio continuation at 2s = 3)")
    return CriterionResult(4, "level-4 diagonal constant is 1/2 (exact)", ok, details)


def criterion_5() -> CriterionResult:
    details, ok = [], True
    # consecutive-level ratio on its validity grid; |A_mm| equality across
    # levels never holds (at m = 2s the index leaves level m+1)
    for ts in range(2, 9):
        s = HalfInt(ts)
        for m in range(2, ts):
            a_mm = a_matrix(s, m).diagonal_rational(m)
            a_next = a_matrix(s, m + 1).diagonal_rational(m)
            if a_next != consecutive_level_ratio(s, m) * a_mm:
                ok = False
                details.append(f"consecutive ratio fails at (s={s}, m={m})")
            if abs(a_mm) == abs(a_next):
                ok = False
                details.append(f"magnitude equality unexpectedly holds at (s={s}, m={m})")
    details.append("consecutive-level diagonal ratio exact for 2 <= m <= 2s-1, 2s <= 8")
    details.append("cross-level magnitude equality fails everywhere on 2 <= m <= 2s-1, 2s <= 8")
    # level 3 vs level 5 ratio and its single spin-3 root
    for ts in range(4, 13):
        s = HalfInt(ts)
        a3 = a_matrix(s, 3).diagonal_rational(3)
        a5 = a_matrix(s, 5).diagonal_rational(3)
        if a5 != level_three_five_ratio(s) * a3:
            ok = False
            details.append(f"3-to-5 ratio fails at 2s={ts}")
        if (a3 == a5) != (ts == 6):
            ok = False
            details.append(f"level-3/5 equality verdict wrong at 2s={ts}")
    details.append("3-to-5 ratio exact on 2s in 4..12; equality only at s = 3 "
                   "(the other root 7/6 is not a half-integer)")
    return CriterionResult(5, "diagonal ratio identities and obstructions (exact)",
                           ok, details)


def criterion_6(max_two_s: int = 6) -> CriterionResult:
    details = []
    scan = degeneracy_scan(max_two_s)
    expected = {(ts, 3, 4) for ts in range(4, max_two_s + 1)}
    got = {(r.s.twice, r.m, r.n) for r in scan.unshifted_degeneracies()}
    part_a = got == expected
    details.append(("ok: " if part_a else "FAIL: ")
                   + f"unshifted degeneracies exactly {sorted(got)}")
    part_b = all(r.beta == 2 for r in scan.unshifted_degeneracies())
    details.append(("ok: " if part_b else "FAIL: ")
                   + "each degeneracy has matching transpose pair and H + H~ = 2G")
    # literal full-rank expectation: provably false, kept as stated
    offenders = [r for r in scan.records
                 if not r.shifted and not r.holds_transpose and r.rank != 4]
    part_c = not offenders
    if offenders:
        w = offenders[0]
        details.append(
            f"FAIL: literal full-rank claim; witness (s={w.s}, m={w.m}, n={w.n}) "
            f"rank {w.rank}, exact relation H + H~ = {w.beta} G + {w.beta_tilde} F")
    # The scan raises at any cell where H == H~ and the scalar-multiple
    # relation disagree, so no other cell satisfies either relation.
    details.append("ok: corrected statement: no other unshifted cell satisfies "
                   "either degeneracy relation")
    shifted_rule = all(r.beta in (None, -2 * (-1) ** r.m)
                       for r in scan.degeneracies if r.shifted)
    details.append(("ok: " if shifted_rule else "FAIL: ")
                   + "shifted-range degeneracies (outside the regime the "
                     "degeneracy statement addresses) all follow beta = -2*(-1)^m")
    passed = part_a and part_b and part_c and shifted_rule
    defect = None
    if part_a and part_b and shifted_rule and not part_c:
        defect = ("the literal rank-4 expectation is contradicted by exact "
                  "computation; generic small-index cells carry one exact linear "
                  "relation among the four matrices")
    return CriterionResult(6, "degeneracy scan of the four-matrix system", passed,
                           details, defect=defect)


def criterion_7() -> CriterionResult:
    details, ok = [], True
    jobs = []
    for ts in (1, 2, 3, 4):
        jobs.append((yang(HalfInt(ts)), None))
    for ts in (2, 3, 4):
        jobs.append((baxter_tl(HalfInt(ts)), None))
        jobs.append((zamolodchikov(HalfInt(ts), ts), None))
    jobs.append((exceptional_s3(), range(0, 10)))
    for ts in (2, 3, 4, 5, 6):
        jobs.append((krs_prefix(HalfInt(ts)), range(0, 3)))
    for fam, levels in jobs:
        if not full_check(fam, levels=levels)["pass"]:
            ok = False
            details.append(f"{fam.tag} s={fam.s} failed")
    details.append(f"{len(jobs)} family runs x 2 disjoint 6-point grids, all levels "
                   "exactly zero")
    return CriterionResult(7, "solution families pass every reduced level (exact)",
                           ok, details)


def criterion_8() -> CriterionResult:
    details, ok = [], True
    res = reduced_ybe_check(perturbed_yang(1), 1, F(1), F(1))
    good = not res.is_zero
    ok = ok and good
    details.append(("ok: " if good else "FAIL: ")
                   + "perturbed family has nonzero exact residual at level 1")
    for ts in range(2, 7):
        for m in range(2, ts + 1):
            if not permutation_rigidity(HalfInt(ts), m):
                ok = False
                details.append(f"rigidity fails at (2s={ts}, m={m})")
    details.append("permutation rigidity holds for all 2 <= m <= 2s <= 6")
    for g in (F(1), F(-3, 7)):
        fam = deformed_permutation(2, 2, g)
        report = constant_check(fam, levels=[2])
        good = not report["pass"]
        ok = ok and good
        details.append(("ok: " if good else "FAIL: ")
                       + f"deformed permutation with g={g} fails at its level")
    return CriterionResult(8, "negative controls fail exactly", ok, details)


def criterion_9() -> CriterionResult:
    details, ok = [], True
    for ts in range(2, 7):
        s = HalfInt(ts)
        for m in range(2, ts + 1):
            constant_roots(s, m)  # self-verifying against the quadratic
            constant_m_prime(s, m)  # raises unless level m+1 is incompatible
        for m in range(1, ts + 1):
            if not projector_obstruction_check(s, m):
                ok = False
                details.append(f"obstruction check fails at (2s={ts}, m={m})")
    details.append("quadratic roots verified in Q(sqrt(d)); next level always "
                   "incompatible; projector obstruction holds on the grid")
    return CriterionResult(9, "constant R-matrix analysis (exact)", ok, details)


def criterion_10() -> CriterionResult:
    details, ok = [], True
    for s in ("1/2", 1, "3/2"):
        report = dense_operator_identities(s)
        good = report["pass"]
        ok = ok and good
        details.append(("ok: " if good else "FAIL: ")
                       + f"dense identities at s={s}: {len(report['residuals'])} "
                         f"residuals, max exactly {format_rational(report['max_residual'])}")
    pairs = [(F(1, 2), F(1, 3)), (F(1), F(2)), (F(1, 3), F(1, 5)), (F(2), F(1, 4))]
    for fam in (yang("1/2"), yang(1), yang("3/2"), zamolodchikov(1, 2),
                zamolodchikov("3/2", 3)):
        worst = max(dense_ybe_residual(fam, lam, mu) for lam, mu in pairs)
        good = worst == 0
        ok = ok and good
        details.append(("ok: " if good else "FAIL: ")
                       + f"dense braid residual {fam.tag} s={fam.s} on {len(pairs)} "
                         f"sample pairs: max exactly {format_rational(worst)}")
    cases = [
        (yang(1), [(F(1, 2), F(1, 3)), (F(1), F(2))]),
        (yang("1/2"), [(F(1, 3), F(1, 5))]),
        (zamolodchikov(1, 2), [(F(1, 2), F(1, 3)), (F(2), F(1, 4))]),
        (permutation_family(1), [(F(0), F(0))]),
        (perturbed_yang(1), [(F(1), F(1))]),
        (perturbed_yang(2), [(F(1, 2), F(1, 2))]),
    ]
    total = 0
    for fam, samples in cases:
        reduction_consistency(fam, samples)  # raises on any verdict mismatch
        total += len(samples)
    details.append(f"dense and exact verdicts agree on {total} cases "
                   "(two negative controls included)")
    return CriterionResult(10, "dense oracle cross-validation", ok, details)


def criterion_11() -> CriterionResult:
    details, ok = [], True
    grid = [(F(1), F(2)), (F(1, 2), F(1, 2)), (F(1, 3), F(1, 5)), (F(2), F(3, 7))]
    for ts in (3, 4, 5, 6):
        for lam, mu in grid:
            value = exceptional_level_combination(HalfInt(ts), lam, mu)
            if value != 0:
                ok = False
                details.append(f"combination {value} at (2s={ts}, {lam}, {mu})")
    details.append("level-4 scalar combination exactly zero for 2s in 3..6 on a "
                   "4-point grid (the level-4 constant 1/2 kills it)")
    return CriterionResult(11, "exceptional-level scalar identity (exact)", ok, details)


def run_all(max_two_s: int = 6) -> list[CriterionResult]:
    """Every criterion in order; max_two_s widens the level grids of
    criteria 1 and 2 and the scan of criterion 6, and every other criterion
    runs the fixed range its details state."""
    return [criterion_1(max_two_s), criterion_2(max_two_s), criterion_3(),
            criterion_4(), criterion_5(), criterion_6(max_two_s), criterion_7(),
            criterion_8(), criterion_9(), criterion_10(), criterion_11()]
