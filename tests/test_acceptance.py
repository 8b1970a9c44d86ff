"""Acceptance battery as a test module: one test per criterion, each
printing its pass/fail line.  Every criterion, the dense-oracle one
included, tolerates nothing: each verdict is an exact zero test.

The literal full-rank expectation inside criterion 6 is strict-xfail: the
exact computation gives rank 3 with an explicit relation at small-index
generic cells, so the honest verdict for that sub-claim is a documented
failure, not a pass.
"""
import time
from fractions import Fraction

import pytest

from sl2ybe import acceptance, classify, spectral
from sl2ybe.classify import DegeneracyRecord, degeneracy_scan
from sl2ybe.exact import HalfInt

MAX_TWO_S = 6


@pytest.fixture(scope="module")
def battery():
    """One timed run of the whole battery, shared by every test here."""
    start = time.monotonic()
    out = {r.number: r for r in acceptance.run_all(MAX_TWO_S)}
    elapsed = time.monotonic() - start
    for r in sorted(out):
        print(out[r].line())
    return out, elapsed


@pytest.fixture(scope="module")
def results(battery):
    return battery[0]


def _report(result):
    print(result.line())
    for line in result.details:
        print("   ", line)


@pytest.mark.parametrize("number", [1, 2, 3, 4, 5, 7, 8, 9, 10, 11])
def test_criterion(results, number):
    result = results[number]
    _report(result)
    assert result.passed, result.details


def test_criterion_6_degeneracy_set_and_relations(results):
    result = results[6]
    _report(result)
    detail = "\n".join(result.details)
    assert "ok: unshifted degeneracies exactly [(4, 3, 4), (5, 3, 4), (6, 3, 4)]" in detail
    assert "ok: each degeneracy has matching transpose pair and H + H~ = 2G" in detail
    assert "ok: corrected statement" in detail
    # the criterion as a whole carries the documented discrepancy
    assert not result.passed and result.defect


@pytest.mark.xfail(strict=True,
                   reason="exact rank is 3 at small-index generic cells, e.g. "
                          "(s=1, m=2, n=2) where H + H~ = G - (2/3) F")
def test_criterion_6_literal_full_rank_claim():
    scan = degeneracy_scan(MAX_TWO_S)
    for rec in scan.records:
        if not rec.shifted and not rec.holds_transpose:
            assert rec.rank == 4, (str(rec.s), rec.m, rec.n, rec.rank)


def test_criterion_6_shifted_rule_failure_is_no_documented_discrepancy(monkeypatch):
    # beta = 5 planted on the shifted degenerate cell (s=3/2, m=2, n=4),
    # where the rule asks for -2*(-1)^m = -2
    real = acceptance.degeneracy_scan

    def planted(max_two_s):
        scan = real(max_two_s)
        scan.records = [DegeneracyRecord(r.s, r.m, r.n, r.dim, r.shifted,
                                         r.holds_transpose, Fraction(5), r.beta_tilde,
                                         r.rank)
                        if (r.s, r.m, r.n) == (HalfInt(3), 2, 4) else r
                        for r in scan.records]
        return scan

    monkeypatch.setattr(acceptance, "degeneracy_scan", planted)
    result = acceptance.criterion_6(MAX_TWO_S)
    assert any(d.startswith("FAIL: shifted-range degeneracies") for d in result.details)
    assert not result.passed and result.defect is None
    assert "(documented discrepancy)" not in result.line()


def test_criterion_6_corrected_statement_fails_on_an_extra_degeneracy(monkeypatch):
    # H == H~ planted on the generic unshifted cell (s=1, m=2, n=2)
    real = acceptance.degeneracy_scan

    def planted(max_two_s):
        scan = real(max_two_s)
        scan.records = [DegeneracyRecord(r.s, r.m, r.n, r.dim, r.shifted, True, r.beta,
                                         r.beta_tilde, r.rank)
                        if (r.s, r.m, r.n) == (HalfInt(2), 2, 2) else r
                        for r in scan.records]
        return scan

    monkeypatch.setattr(acceptance, "degeneracy_scan", planted)
    result = acceptance.criterion_6(MAX_TWO_S)
    assert any(d.startswith("FAIL: corrected statement") for d in result.details)
    assert not any(d.startswith("ok: corrected statement") for d in result.details)
    assert not result.passed and result.defect is None


def test_every_criterion_explains_itself(results):
    # a criterion that records nothing would pass silently
    assert all(result.details for result in results.values())


def test_criterion_2_witness_names_the_cell(monkeypatch):
    # one nonzero entry planted at row 1, column 2 of the shifted level
    # (s=2, n=5), whose range starts at k_min = 1
    real = acceptance.racah_identity_residual

    def planted(s, n):
        residual = [list(row) for row in real(s, n)]
        if (s, n) == (HalfInt(4), 5):
            residual[1][2] = -3
        return residual

    monkeypatch.setattr(acceptance, "racah_identity_residual", planted)
    result = acceptance.criterion_2(4)
    assert not result.passed and result.defect is None
    assert result.line() == ("[FAIL] criterion 2: Racah identity on the full "
                             "level grid (exact)")
    assert result.details == ["nonzero at (s=2, n=5, k=2, k'=3)",
                              "119 Racah sum-rule residuals, 1 nonzero"]


def test_criterion_1_witness_replaces_the_summary(monkeypatch):
    real = acceptance.verify_sign_conjugation

    def planted(s, n):
        return (s, n) != (HalfInt(2), 1) and real(s, n)

    monkeypatch.setattr(acceptance, "verify_sign_conjugation", planted)
    result = acceptance.criterion_1(2)
    assert not result.passed
    assert result.line() == "[FAIL] criterion 1: recoupling matrix properties (exact)"
    assert result.details == ["failed at (s=1, n=1)", "6 levels, 1 failed"]


def test_suite_runtime_budget(battery):
    # the full battery must stay far under the two-minute target
    assert battery[1] < 120


def test_criterion_5_detects_a_wrong_consecutive_ratio(monkeypatch):
    real = acceptance.consecutive_level_ratio
    monkeypatch.setattr(acceptance, "consecutive_level_ratio",
                        lambda s, m: real(s, m) + 1)
    result = acceptance.criterion_5()
    assert not result.passed and result.defect is None
    assert result.details[0] == "consecutive ratio fails at (s=3/2, m=2)"
    assert not any(d.startswith("consecutive-level diagonal ratio exact")
                   for d in result.details)


def test_criterion_5_detects_a_wrong_three_five_ratio(monkeypatch):
    real = acceptance.level_three_five_ratio
    monkeypatch.setattr(acceptance, "level_three_five_ratio",
                        lambda s: real(s) + 1)
    result = acceptance.criterion_5()
    assert not result.passed and result.defect is None
    assert "3-to-5 ratio fails at 2s=4" in result.details
    assert not any(d.startswith("3-to-5 ratio exact") for d in result.details)


def test_criteria_8_and_9_run_their_stated_range(monkeypatch):
    # their details state 2 <= m <= 2s <= 6 whatever grid the suite widens
    seen = {"rigidity": set(), "m_prime": set(), "obstruction": set()}

    def recording(key, real):
        def call(s, *rest):
            seen[key].add(s.twice)
            return real(s, *rest)
        return call

    for key, name in (("rigidity", "permutation_rigidity"), ("m_prime", "constant_m_prime"),
                      ("obstruction", "projector_obstruction_check")):
        monkeypatch.setattr(acceptance, name, recording(key, getattr(acceptance, name)))
    results = {r.number: r for r in acceptance.run_all(4)}
    assert results[8].passed and results[9].passed
    assert seen == {"rigidity": set(range(2, 7)), "m_prime": set(range(2, 7)),
                    "obstruction": set(range(2, 7))}


# A planted fault leaves the witness and no success claim for its range.

def test_criterion_4_failure_drops_the_summary(monkeypatch):
    real = acceptance.eta_level4_m3
    monkeypatch.setattr(acceptance, "eta_level4_m3",
                        lambda s: Fraction(1, 3) if s == HalfInt(5) else real(s))
    result = acceptance.criterion_4()
    assert not result.passed
    assert result.details == ["level-4 constant is 1/3 at 2s=5"]


def test_criterion_7_failure_drops_the_summary(monkeypatch):
    real = acceptance.full_check

    def planted(fam, *args, **kwargs):
        if (fam.tag, fam.s) == ("yang", HalfInt(1)):
            return {"pass": False}
        return real(fam, *args, **kwargs)

    monkeypatch.setattr(acceptance, "full_check", planted)
    result = acceptance.criterion_7()
    assert not result.passed
    assert result.details == ["yang s=1/2 failed"]


def test_criterion_8_failure_drops_the_summary(monkeypatch):
    real = acceptance.permutation_rigidity
    monkeypatch.setattr(acceptance, "permutation_rigidity",
                        lambda s, m: m != 2 and real(s, m))
    result = acceptance.criterion_8()
    assert not result.passed
    assert [d for d in result.details if d.startswith("rigidity fails")] == [
        f"rigidity fails at (2s={ts}, m=2)" for ts in range(2, 7)]
    assert "permutation rigidity holds for all 2 <= m <= 2s <= 6" not in result.details
    assert sum(d.startswith("ok: ") for d in result.details) == 3


def test_criterion_9_failure_drops_the_summary(monkeypatch):
    real = acceptance.projector_obstruction_check
    monkeypatch.setattr(acceptance, "projector_obstruction_check",
                        lambda s, m: m != 3 and real(s, m))
    result = acceptance.criterion_9()
    assert not result.passed
    assert result.details == [f"obstruction check fails at (2s={ts}, m=3)"
                              for ts in range(3, 7)]


def test_criterion_11_failure_drops_the_summary(monkeypatch):
    real = acceptance.exceptional_level_combination

    def planted(s, lam, mu):
        if (s, lam, mu) == (HalfInt(4), Fraction(2), Fraction(3, 7)):
            return 7
        return real(s, lam, mu)

    monkeypatch.setattr(acceptance, "exceptional_level_combination", planted)
    result = acceptance.criterion_11()
    assert not result.passed
    assert result.details == ["combination 7 at (2s=4, 2, 3/7)"]


def test_criterion_11_fails_on_a_wrong_shifted_root(monkeypatch):
    # the combination reads g off zamolodchikov(s, 3)'s shifted table, one
    # factor at a = 5 - 6/(2s); with a stray yang root a = 1 beside it at
    # 2s = 5, as an even m would carry, g leaves the one-factor shape, level
    # 4 no longer cancels and every grid pair at that spin is a witness.
    # (Moving a alone is not seen: the combination vanishes for every a.)
    real = classify.zamolodchikov

    def wrong_root(s, m):
        fam = real(s, m)
        if s == HalfInt(5):
            fam.coeffs[s.twice - m] = spectral._one_factor(1, Fraction(19, 5))
        return fam

    monkeypatch.setattr(classify, "zamolodchikov", wrong_root)
    result = acceptance.criterion_11()
    assert not result.passed
    assert result.details == [
        "combination -2760/493 at (2s=5, 1, 2)", "combination -1215/3698 at (2s=5, 1/2, 1/2)",
        "combination -41824/755625 at (2s=5, 1/3, 1/5)",
        "combination -12325680/5730893 at (2s=5, 2, 3/7)"]
