"""Command-line surface: exact checks with deterministic, machine-readable
reports.

All spins are given in "p/2" or integer notation and all sample points as
exact rationals "p/q" or integers; decimal, exponent and float input is
rejected at the boundary (exit 2), in family files too, where a
coefficient is a "p/q" string or an integer JSON number.  `verify`,
`oracle` and `family show` share one set of family options: a catalog
family by `--family`, `--s` and `--m`, or a custom family by
`--family-file`, but not both.  Every command takes `--json`.
JSON payloads are byte-stable for identical invocations (wall time is
shown only in the human-readable summary).  `acceptance`, `classify`,
`oracle` and `sixj` are imported by the commands that call them, so a
fresh `verify`, `family show`, `amat` or `eta` loads none of them.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .amatrix import a_matrix, eta
from .exact import DomainError, HalfInt, display_discriminant, parse_rational
from .spectral import (PoleError, check_regularity_unitarity, family_from_json,
                       make_family)
from .ybe import constant_check, full_check

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


def _emit(doc, args, human_lines):
    for line in ([json.dumps(doc, sort_keys=True, separators=(",", ":"))]
                 if args.json else human_lines):
        print(line)


def _parse_levels(text: str | None):
    """--levels as n or lo..hi, both ends included."""
    if text is None:
        return None
    try:
        bounds = [int(x) for x in text.split("..")]
    except ValueError:
        bounds = []
    if len(bounds) not in (1, 2):
        raise DomainError(f"--levels takes n or lo..hi, not {text!r}")
    return range(bounds[0], bounds[-1] + 1)


def _load_family(args):
    """The catalog family named by tag, spin and m, or the custom family a
    family file holds; naming both is a usage error, since the file would
    silently win, and so is a file nested past the JSON decoder's depth."""
    if args.family_file:
        named = [opt for opt, value in (("--family", args.family), ("--s", args.s),
                                        ("--m", args.m)) if value is not None]
        if named:
            raise DomainError("a family file fixes the family, its spin and m; "
                              f"drop {', '.join(named)}")
        with open(args.family_file) as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise DomainError(f"family file {args.family_file} is nested too deeply") from None
        return family_from_json(doc)
    if args.family is None:
        raise DomainError("no family given: name one with --family or --family-file")
    s = HalfInt.parse(args.s) if args.s else None
    return make_family(args.family, s, args.m)


def _field(disc: int) -> str:
    """The coefficient field as printed: Q, or Q(sqrt(d)) for d != 1."""
    return f"Q(sqrt({disc}))" if disc != 1 else "Q"


def cmd_sixj(args):
    from .sixj import sixj
    value = sixj(*args.labels)
    doc = {"check": "sixj", "args": args.labels, "value": str(value)}
    _emit(doc, args, [str(value)])
    return EXIT_PASS


def cmd_amat(args):
    a = a_matrix(HalfInt.parse(args.s).as_spin(), args.n)
    rng = a.range
    doc = {
        "check": "recoupling-matrix", "s": str(rng.s), "n": rng.n,
        "k_min": rng.k_min, "k_max": rng.k_max,
    }
    if args.gauge:
        doc["weights"] = [str(w) for w in a.weights]
        doc["core"] = [[str(x) for x in row] for row in a.core]
        lines = [f"A(s={rng.s}, n={rng.n}) in gauge form, indices {rng.k_min}..{rng.k_max}",
                 "u = [" + ", ".join(doc["weights"]) + "]"]
        lines += ["M: " + "  ".join(row) for row in doc["core"]]
    else:
        entries = [[str(a.entry(k, kp)) for kp in rng.indices()] for k in rng.indices()]
        doc["entries"] = entries
        lines = [f"A(s={rng.s}, n={rng.n}), indices {rng.k_min}..{rng.k_max}"]
        lines += ["  ".join(row) for row in entries]
    _emit(doc, args, lines)
    return EXIT_PASS


def cmd_eta(args):
    s = HalfInt.parse(args.s).as_spin()
    value = eta(s, args.m, args.n)
    doc = {"check": "diagonal-constant", "s": str(s), "m": args.m, "n": args.n,
           "value": str(value)}
    _emit(doc, args, [str(value)])
    return EXIT_PASS


def cmd_family(args):
    fam = _load_family(args)
    disc = display_discriminant(fam.discriminant)
    doc = {
        "check": "family-show", "tag": fam.tag, "s": str(fam.s),
        "m": fam.m, "constant": fam.constant,
        "multiplicative": fam.multiplicative,
        "discriminant": disc,
        "defined_coefficients": fam.defined(),
    }
    values = {}
    for x in fam.sampling.shown:
        try:
            values[str(x)] = {str(j): str(fam.eval_coeff(j, x)) for j in fam.defined()}
        except PoleError:
            values[str(x)] = "pole"
    doc["values"] = values
    lines = [f"{fam.tag}: s={fam.s}, m={fam.m}, field={_field(disc)}",
             f"defined coefficients: r_j for j in {fam.defined()}",
             fam.sampling.label]
    for x, vals in values.items():
        lines.append(f"  at {x}: " + (vals if isinstance(vals, str) else
                                      ", ".join(f"r_{j}={v}" for j, v in vals.items())))
    _emit(doc, args, lines)
    return EXIT_PASS


def cmd_verify(args):
    fam = _load_family(args)
    levels = _parse_levels(args.levels)
    start = time.monotonic()
    if fam.constant:
        # the residual does not depend on the sample, so --grid is moot
        grid_note = "one marker sample per level (constant family)"
        report = constant_check(fam, levels=levels)
    else:
        if args.grid == "dense":
            samples, grid_note = fam.sampling.dense, "dense 13x13 product grid"
        else:
            samples, grid_note = fam.sampling.grid, "two disjoint 6-point grids"
        report = full_check(fam, levels=levels, samples=samples)
        unit = fam.sampling.unitarity
        report["regularity_samples"] = [str(x) for x in unit]
        report["regularity"] = check_regularity_unitarity(fam, unit)["pass"]
    elapsed = time.monotonic() - start
    report.update({"check": "reduced-braid", "grid": grid_note,
                   "version": __version__, "command": args.command_echo})
    status = "PASS" if report["pass"] else "FAIL"
    lines = [f"{status} {fam.tag} s={fam.s}: levels "
             f"{[lvl['n'] for lvl in report['levels']]} on {grid_note}",
             f"elapsed {elapsed:.2f}s"]
    _emit(report, args, lines)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def cmd_scan(args):
    from .classify import degeneracy_scan
    scan = degeneracy_scan(args.max_2s)
    records = []
    for rec in scan.records:
        records.append({
            "check": "degeneracy-cell", "s": str(rec.s), "m": rec.m, "n": rec.n,
            "dim": rec.dim, "shifted": rec.shifted,
            "transpose_pair": rec.holds_transpose,
            # the scan raises unless the two relations agree
            "scalar_multiple": rec.holds_transpose,
            "beta": None if rec.beta is None else str(rec.beta),
            "beta_tilde": None if rec.beta_tilde is None else str(rec.beta_tilde),
            "rank": rec.rank,
        })
    if args.json:
        for rec in records:
            print(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        for cell in scan.skipped:
            print(json.dumps({"check": "degeneracy-cell", "skipped": cell},
                             sort_keys=True, separators=(",", ":")))
    else:
        degen = [(str(r.s), r.m, r.n) for r in scan.degeneracies]
        print(f"scanned {len(scan.records)} cells (2s <= {args.max_2s}), "
              f"skipped {len(scan.skipped)} out-of-range cells")
        print(f"degenerate cells: {degen}")
        print(f"unshifted degenerate cells: "
              f"{[(str(r.s), r.m, r.n) for r in scan.unshifted_degeneracies()]}")
        nonzero = scan.beta_tilde_nonzero()
        print(f"cells with nonzero second decomposition coefficient: {len(nonzero)}")
    return EXIT_PASS


def cmd_classify_constant(args):
    from .classify import constant_m_prime, constant_roots, projector_obstruction_check
    s = HalfInt.parse(args.s).as_spin()
    plus, minus = constant_roots(s, args.m)
    mprime = constant_m_prime(s, args.m)
    obstruction = projector_obstruction_check(s, args.m)
    disc = display_discriminant(plus.d)
    doc = {"check": "constant-analysis", "s": str(s), "m": args.m,
           "roots": [str(plus), str(minus)], "discriminant": disc,
           "next_incompatible_level": mprime, "obstruction_holds": obstruction}
    lines = [f"quadratic roots at (s={s}, m={args.m}): {plus}  |  {minus}",
             f"field: {_field(disc)}",
             f"lowest incompatible continuation: m' = {mprime}",
             f"projector obstruction: {obstruction}"]
    _emit(doc, args, lines)
    return EXIT_PASS if obstruction else EXIT_FAIL


def cmd_rigidity(args):
    from .classify import permutation_rigidity
    s = HalfInt.parse(args.s).as_spin()
    rigid = permutation_rigidity(s, args.m)
    doc = {"check": "permutation-rigidity", "s": str(s), "m": args.m, "rigid": rigid}
    _emit(doc, args, [f"rigid: {rigid}"])
    return EXIT_PASS if rigid else EXIT_FAIL


def cmd_oracle(args):
    from .oracle import dense_operator_identities, reduction_consistency
    fam = _load_family(args)
    lam, mu = parse_rational(args.lam), parse_rational(args.mu)
    identities = dense_operator_identities(fam.s)
    case, = reduction_consistency(fam, [(lam, mu)])
    residual = str(case["dense_residual"])
    worst = str(identities["max_residual"])
    doc = {"check": "dense-oracle", "family": fam.tag, "s": str(fam.s),
           "lambda": str(lam), "mu": str(mu), "braid_residual": residual,
           "dense_zero": case["dense_zero"], "exact_zero": case["exact_zero"],
           "consistent": case["consistent"], "identities_max_residual": worst,
           "identities_pass": identities["pass"]}
    lines = [f"dense braid residual: {residual} (exact)",
             f"exact reduced verdict: {'zero' if case['exact_zero'] else 'nonzero'}",
             f"dense/exact consistent: {case['consistent']}",
             f"operator identities max residual: {worst} (exact)"]
    _emit(doc, args, lines)
    return EXIT_PASS


def cmd_suite(args):
    from .acceptance import run_all
    start = time.monotonic()
    results = run_all(args.max_2s)
    elapsed = time.monotonic() - start
    overall = all(r.passed for r in results)
    doc = {"check": "acceptance-suite", "version": __version__,
           "command": args.command_echo, "max_2s": args.max_2s,
           "criteria": [{"number": r.number, "title": r.title, "pass": r.passed,
                         "details": r.details,
                         "documented_discrepancy": r.defect}
                        for r in results],
           "pass": overall}
    lines = []
    for r in results:
        lines.append(r.line())
        for d in r.details:
            lines.append(f"    {d}")
    lines.append(f"suite: {'PASS' if overall else 'FAIL'} "
                 f"({sum(r.passed for r in results)}/{len(results)} criteria)"
                 f" in {elapsed:.1f}s")
    _emit(doc, args, lines)
    return EXIT_PASS if overall else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    # options several commands share, each declared once in a parent parser
    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", action="store_true",
                          help="print the payload as one JSON line "
                               "(scan-degeneracy: one line per scanned cell)")
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", help="catalog family tag")
    family.add_argument("--family-file", help="JSON document of a custom family")
    family.add_argument("--s")
    family.add_argument("--m", type=int)
    spin_m = argparse.ArgumentParser(add_help=False)
    spin_m.add_argument("--s", required=True)
    spin_m.add_argument("--m", required=True, type=int)
    max_2s = argparse.ArgumentParser(add_help=False)
    max_2s.add_argument("--max-2s", type=int, default=6)

    def command(subparsers, name, fn, help, *parents):
        p = subparsers.add_parser(name, help=help, parents=[json_opt, *parents])
        p.set_defaults(fn=fn)
        return p

    parser = argparse.ArgumentParser(
        prog="sl2ybe",
        description="Exact verification of sl2-invariant R-matrices and the "
                    "reduced braid-form equation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = command(sub, "sixj", cmd_sixj, "exact 6-j symbol {a b e; c d f}")
    p.add_argument("labels", nargs=6, metavar="label",
                   help="the six spins of {a b e; c d f}, in the order a b e c d f")

    p = command(sub, "amat", cmd_amat, "exact recoupling matrix at one level")
    p.add_argument("--s", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--gauge", action="store_true",
                   help="print weights and rational core instead of entries")

    p = command(sub, "eta", cmd_eta, "diagonal constant (-1)^n A_mm at one level", spin_m)
    p.add_argument("--n", required=True, type=int)

    p = sub.add_parser("family", help="inspect a coefficient family")
    command(p.add_subparsers(dest="family_command", required=True), "show", cmd_family,
            "defined coefficients and their values at sample points", family)

    p = command(sub, "verify", cmd_verify, "reduced-equation residuals for a family", family)
    p.add_argument("--levels", help="single level or a..b range")
    p.add_argument("--grid", choices=("default", "dense"), default="default",
                   help="sample grid of a spectral family; a constant family "
                        "is checked on one marker sample per level")

    command(sub, "scan-degeneracy", cmd_scan, "four-matrix degeneracy scan", max_2s)
    command(sub, "classify-constant", cmd_classify_constant, "constant R-matrix analysis",
            spin_m)
    command(sub, "rigidity", cmd_rigidity, "permutation rigidity at one index", spin_m)

    p = command(sub, "oracle", cmd_oracle, "dense cross-check at one sample pair", family)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)

    command(sub, "suite", cmd_suite, "run the whole acceptance battery", max_2s)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = parser.parse_args(argv)
    args.command_echo = " ".join(argv)
    try:
        return args.fn(args)
    except (DomainError, PoleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        # raised by the package's own cross-checks, never by bad input
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
