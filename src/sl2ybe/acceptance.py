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

from fractions import Fraction

from .amatrix import (LevelRange, a_matrix, consecutive_level_ratio, eta,
                      eta_closed_form, top_level, verify_a_properties,
                      verify_sign_conjugation)
from .classify import (constant_m_prime, constant_roots, degeneracy_scan,
                       eta_level4_m3, exceptional_level_combination,
                       level_three_five_ratio, permutation_rigidity,
                       projector_obstruction_check)
from .exact import HalfInt
from .oracle import (dense_operator_identities, dense_ybe_residual,
                     reduction_consistency)
from .sixj import racah_identity_residual
from .spectral import (RationalFunction, baxter_tl, custom_family,
                       exceptional_s3, krs_prefix, permutation_family, yang,
                       zamolodchikov)
from .ybe import constant_check, full_check, reduced_ybe_check

__all__ = ["CriterionResult", "run_all"]

F = Fraction


class CriterionResult:
    """One criterion's verdict and the lines that explain it.  Every check
    is recorded through `check` or `claim`, so a line claims a result only
    when that result holds."""

    __slots__ = ("number", "title", "passed", "details", "defect")

    def __init__(self, number: int, title: str):
        self.number, self.title = number, title
        self.passed, self.details, self.defect = True, [], None

    def check(self, good: bool, statement: str) -> None:
        self.passed = self.passed and good
        self.details.append(("ok: " if good else "FAIL: ") + statement)

    def claim(self, witnesses: list, summary: str | None = None,
              failed: str | None = None) -> None:
        """A check over a range: `summary` when no witness turned up,
        otherwise one line per witness, then `failed` when given."""
        self.passed = self.passed and not witnesses
        self.details.extend(witnesses)
        closing = failed if witnesses else summary
        if closing is not None:
            self.details.append(closing)

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
    pad = (F(0),) * 2
    tables[0] = RationalFunction(tuple(map(sum, zip(r0.num + pad, pad + r0.num))), r0.den)
    return custom_family(HalfInt(two_s), tables)


def deformed_permutation(two_s: int, m: int, g: Fraction):
    """Constant control: the permutation signs with g added at j = 2s-m."""
    tables = dict(permutation_family(HalfInt(two_s)).coeffs)
    r = tables[two_s - m]
    tables[two_s - m] = RationalFunction((r.num[0] + g,), r.den)
    return custom_family(HalfInt(two_s), tables)


def criterion_1(max_two_s: int = 6) -> CriterionResult:
    result = CriterionResult(1, "recoupling matrix properties (exact)")
    levels = list(_level_grid(max_two_s))
    failed = [f"failed at (s={s}, n={n})" for s, n in levels
              if not (verify_a_properties(s, n) and verify_sign_conjugation(s, n))]
    result.claim(failed,
                 f"{len(levels)} levels: symmetry, involution, sign conjugation all exact",
                 f"{len(levels)} levels, {len(failed)} failed")
    return result


def criterion_2(max_two_s: int = 6) -> CriterionResult:
    result = CriterionResult(2, "Racah identity on the full level grid (exact)")
    nonzero, cells = [], 0
    for s, n in _level_grid(max_two_s):
        k_min = LevelRange.for_level(s, n).k_min
        for i, row in enumerate(racah_identity_residual(s, n)):
            cells += len(row)
            nonzero += [f"nonzero at (s={s}, n={n}, k={k_min + i}, k'={k_min + j})"
                        for j, x in enumerate(row) if x != 0]
    result.claim(nonzero, f"{cells} Racah sum-rule residuals, all exactly zero",
                 f"{cells} Racah sum-rule residuals, {len(nonzero)} nonzero")
    return result


def criterion_3() -> CriterionResult:
    result = CriterionResult(3, "diagonal constant closed form (exact)")
    result.claim([f"closed form mismatch at (s={s}, m={m})"
                  for s in map(HalfInt, range(2, 9)) for m in range(2, s.twice + 1)
                  if eta(s, m, m) != eta_closed_form(s, m)])
    result.check(eta(HalfInt(2), 2, 2) == F(1, 3), "eta(s=1, m=2) == 1/3")
    result.check(eta(HalfInt(3), 3, 3) == F(1, 4), "eta(s=3/2, m=3) == 1/4")
    result.check(all(eta_closed_form(HalfInt(ts), ts) == F(1, ts + 1)
                     for ts in range(1, 9)),
                 "top index reduces to 1/(2s+1)")
    return result


def criterion_4() -> CriterionResult:
    result = CriterionResult(4, "level-4 diagonal constant is 1/2 (exact)")
    values = [(ts, eta_level4_m3(HalfInt(ts))) for ts in range(3, 13)]
    result.claim([f"level-4 constant is {value} at 2s={ts}"
                  for ts, value in values if value != F(1, 2)],
                 "level-4 diagonal constant equals 1/2 for 2s in 3..12 "
                 "(entry for 2s >= 4; exact ratio continuation at 2s = 3)")
    return result


def criterion_5() -> CriterionResult:
    result = CriterionResult(5, "diagonal ratio identities and obstructions (exact)")
    # consecutive-level ratio on its validity grid; |A_mm| equality across
    # levels never holds (at m = 2s the index leaves level m+1)
    ratio, equal = [], []
    for ts in range(2, 9):
        s = HalfInt(ts)
        for m in range(2, ts):
            a_mm = a_matrix(s, m).diagonal_rational(m)
            a_next = a_matrix(s, m + 1).diagonal_rational(m)
            if a_next != consecutive_level_ratio(s, m) * a_mm:
                ratio.append(f"consecutive ratio fails at (s={s}, m={m})")
            if abs(a_mm) == abs(a_next):
                equal.append(f"magnitude equality unexpectedly holds at (s={s}, m={m})")
    result.claim(ratio, "consecutive-level diagonal ratio exact for 2 <= m <= 2s-1, 2s <= 8")
    result.claim(equal, "cross-level magnitude equality fails everywhere on "
                        "2 <= m <= 2s-1, 2s <= 8")
    # level 3 vs level 5 ratio and its single spin-3 root
    wrong = []
    for ts in range(4, 13):
        s = HalfInt(ts)
        a3 = a_matrix(s, 3).diagonal_rational(3)
        a5 = a_matrix(s, 5).diagonal_rational(3)
        if a5 != level_three_five_ratio(s) * a3:
            wrong.append(f"3-to-5 ratio fails at 2s={ts}")
        if (a3 == a5) != (ts == 6):
            wrong.append(f"level-3/5 equality verdict wrong at 2s={ts}")
    result.claim(wrong, "3-to-5 ratio exact on 2s in 4..12; equality only at s = 3 "
                        "(the other root 7/6 is not a half-integer)")
    return result


def criterion_6(max_two_s: int = 6) -> CriterionResult:
    result = CriterionResult(6, "degeneracy scan of the four-matrix system")
    scan = degeneracy_scan(max_two_s)
    expected = {(ts, 3, 4) for ts in range(4, max_two_s + 1)}
    got = {(r.s.twice, r.m, r.n) for r in scan.unshifted_degeneracies()}
    result.check(got == expected, f"unshifted degeneracies exactly {sorted(got)}")
    result.check(all(r.beta == 2 for r in scan.unshifted_degeneracies()),
                 "each degeneracy has matching transpose pair and H + H~ = 2G")
    relations_hold = result.passed
    # literal full-rank expectation: provably false, kept as stated
    offenders = [r for r in scan.records
                 if not r.shifted and not r.holds_transpose and r.rank != 4]
    if offenders:
        w = offenders[0]
        result.check(False, f"literal full-rank claim; witness (s={w.s}, m={w.m}, n={w.n}) "
                            f"rank {w.rank}, exact relation H + H~ = {w.beta} G + "
                            f"{w.beta_tilde} F")
    # The scan raises at any cell where H == H~ and the scalar-multiple
    # relation disagree, so `got` holds every unshifted cell satisfying either.
    result.check(got <= expected, "corrected statement: no other unshifted cell "
                                  "satisfies either degeneracy relation")
    shifted_rule = all(r.beta in (None, -2 * (-1) ** r.m)
                       for r in scan.degeneracies if r.shifted)
    result.check(shifted_rule, "shifted-range degeneracies (outside the regime the "
                               "degeneracy statement addresses) all follow beta = -2*(-1)^m")
    if relations_hold and shifted_rule and offenders:
        result.defect = ("the literal rank-4 expectation is contradicted by exact "
                         "computation; generic small-index cells carry one exact linear "
                         "relation among the four matrices")
    return result


def criterion_7() -> CriterionResult:
    result = CriterionResult(7, "solution families pass every reduced level (exact)")
    families = [yang(HalfInt(ts)) for ts in (1, 2, 3, 4)]
    for ts in (2, 3, 4):
        families += [baxter_tl(HalfInt(ts)), zamolodchikov(HalfInt(ts), ts)]
    families.append(exceptional_s3())
    families += [krs_prefix(HalfInt(ts)) for ts in (2, 3, 4, 5, 6)]
    result.claim([f"{fam.tag} s={fam.s} failed" for fam in families
                  if not full_check(fam)["pass"]],
                 f"{len(families)} family runs x 2 disjoint 6-point grids, all levels "
                 "exactly zero")
    return result


def criterion_8() -> CriterionResult:
    result = CriterionResult(8, "negative controls fail exactly")
    result.check(not reduced_ybe_check(perturbed_yang(1), 1, F(1), F(1)).is_zero,
                 "perturbed family has nonzero exact residual at level 1")
    result.claim([f"rigidity fails at (2s={ts}, m={m})"
                  for ts in range(2, 7) for m in range(2, ts + 1)
                  if not permutation_rigidity(HalfInt(ts), m)],
                 "permutation rigidity holds for all 2 <= m <= 2s <= 6")
    for g in (F(1), F(-3, 7)):
        report = constant_check(deformed_permutation(2, 2, g), levels=[2])
        result.check(not report["pass"], f"deformed permutation with g={g} fails at its level")
    return result


def criterion_9() -> CriterionResult:
    result = CriterionResult(9, "constant R-matrix analysis (exact)")
    failed = []
    for ts in range(2, 7):
        s = HalfInt(ts)
        for m in range(2, ts + 1):
            constant_roots(s, m)  # self-verifying against the quadratic
            constant_m_prime(s, m)  # raises unless level m+1 is incompatible
        failed += [f"obstruction check fails at (2s={ts}, m={m})"
                   for m in range(1, ts + 1) if not projector_obstruction_check(s, m)]
    result.claim(failed, "quadratic roots verified in Q(sqrt(d)); next level always "
                         "incompatible; projector obstruction holds on the grid")
    return result


def criterion_10() -> CriterionResult:
    result = CriterionResult(10, "dense oracle cross-validation")
    for s in ("1/2", 1, "3/2"):
        report = dense_operator_identities(s)
        result.check(report["pass"],
                     f"dense identities at s={s}: {len(report['residuals'])} "
                     f"residuals, max exactly {report['max_residual']}")
    pairs = [(F(1, 2), F(1, 3)), (F(1), F(2)), (F(1, 3), F(1, 5)), (F(2), F(1, 4))]
    for fam in (yang("1/2"), yang(1), yang("3/2"), zamolodchikov(1, 2),
                zamolodchikov("3/2", 3)):
        worst = max(dense_ybe_residual(fam, lam, mu) for lam, mu in pairs)
        result.check(worst == 0,
                     f"dense braid residual {fam.tag} s={fam.s} on {len(pairs)} "
                     f"sample pairs: max exactly {worst}")
    cases = [
        (yang(1), [(F(1, 2), F(1, 3)), (F(1), F(2))]),
        (yang("1/2"), [(F(1, 3), F(1, 5))]),
        (zamolodchikov(1, 2), [(F(1, 2), F(1, 3)), (F(2), F(1, 4))]),
        (permutation_family(1), [(F(0), F(0))]),
        (perturbed_yang(1), [(F(1), F(1))]),
        (perturbed_yang(2), [(F(1, 2), F(1, 2))]),
    ]
    for fam, samples in cases:
        reduction_consistency(fam, samples)  # raises on any verdict mismatch
    result.claim([], f"dense and exact verdicts agree on "
                     f"{sum(len(samples) for _, samples in cases)} cases "
                     "(two negative controls included)")
    return result


def criterion_11() -> CriterionResult:
    result = CriterionResult(11, "exceptional-level scalar identity (exact)")
    grid = [(F(1), F(2)), (F(1, 2), F(1, 2)), (F(1, 3), F(1, 5)), (F(2), F(3, 7))]
    values = [(ts, lam, mu, exceptional_level_combination(HalfInt(ts), lam, mu))
              for ts in (3, 4, 5, 6) for lam, mu in grid]
    result.claim([f"combination {value} at (2s={ts}, {lam}, {mu})"
                  for ts, lam, mu, value in values if value != 0],
                 "level-4 scalar combination exactly zero for 2s in 3..6 on a "
                 "4-point grid (the level-4 constant 1/2 kills it)")
    return result


def run_all(max_two_s: int = 6) -> list[CriterionResult]:
    """Every criterion in order; max_two_s widens the level grids of
    criteria 1 and 2 and the scan of criterion 6, and every other criterion
    runs the fixed range its details state."""
    return [criterion_1(max_two_s), criterion_2(max_two_s), criterion_3(),
            criterion_4(), criterion_5(), criterion_6(max_two_s), criterion_7(),
            criterion_8(), criterion_9(), criterion_10(), criterion_11()]
