"""Command-line front end.

Subcommands: formula, simulate, minor, class, validate.  Exit codes:
0 success, 1 usage error, 2 validation failure, 3 I/O or parse error.
All output is deterministic given identical arguments and seed; CSV floats
use 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import formulas, validate
from .errors import FqminorsError, ParseError
from .matrix import FqMatrix, parse_matrix
from .matroid import Matroid, catalog, from_matrix, parse_matroid
from .minor import (
    DEFAULT_BUDGET,
    decide,
    find_minor_matrix,
    has_excluded_minor_matrix,
    verify_witness_matrix,
)
from .sampler import SeedSpec, sample_matrix
from .sweep import class_rows_to_csv, minor_rows_to_csv, run_class_sweep, run_minor_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_matroid(spec: str) -> Matroid:
    """`name:<catalog-name>` or a matroid text file path."""
    if spec.startswith("name:"):
        return catalog(spec[5:])
    with open(spec, "r", encoding="utf-8") as fh:
        return parse_matroid(fh.read())


def _load_matrix(path: str) -> FqMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _frac_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator), "float": float(x)}


def _frac_text(name: str, x: Fraction) -> str:
    return f"{name} = {x.numerator}/{x.denominator}\nfloat = {float(x):.12g}\n"


# ----------------------------------------------------------------------
# formula
# ----------------------------------------------------------------------


def _add_formula_parser(sub):
    p = sub.add_parser("formula", help="evaluate a closed form or bound")
    fsub = p.add_subparsers(dest="formula_cmd", required=True)

    def common(sp, *flags):
        for flag in flags:
            if flag == "target":
                sp.add_argument("--target", required=True,
                                help="matroid: name:<catalog> or file path")
            else:
                sp.add_argument(f"--{flag}", type=int, required=True)
        sp.add_argument("--json", action="store_true")

    common(fsub.add_parser("gaussian"), "n", "k", "q")
    common(fsub.add_parser("rank-count"), "m", "n", "q", "k")
    common(fsub.add_parser("free-prob"), "m", "n", "q", "r")
    common(fsub.add_parser("colrank-prob"), "m", "n", "q")
    common(fsub.add_parser("upper"), "m", "n", "q")
    common(fsub.add_parser("lower"), "m", "n", "q", "target")
    common(fsub.add_parser("block-lower"), "m", "n", "q", "target")
    common(fsub.add_parser("liminf"), "q", "target")
    cq = fsub.add_parser("cq")
    cq.add_argument("--q", type=int, required=True)
    cq.add_argument("--tol", type=float, default=1e-9)
    cq.add_argument("--json", action="store_true")
    common(fsub.add_parser("psmq"), "s", "q", "target")
    common(fsub.add_parser("repcount"), "m", "q", "target")


def _cmd_formula(args) -> int:
    cmd = args.formula_cmd
    if cmd == "gaussian":
        v = formulas.gaussian_binomial(args.n, args.k, args.q)
        out = {"value": str(v)} if args.json else f"gaussian_binomial = {v}\n"
    elif cmd == "rank-count":
        v = formulas.count_rank_matrices(args.m, args.n, args.q, args.k)
        out = {"value": str(v)} if args.json else f"count_rank_matrices = {v}\n"
    elif cmd == "free-prob":
        x = formulas.prob_free_minor(args.m, args.n, args.q, args.r)
        note = args.r > min(args.m, args.n)
        if args.json:
            out = _frac_json(x)
            if note:
                out["note"] = "rank exceeds min(m, n); the minor is impossible"
        else:
            out = _frac_text("exact", x)
            if note:
                out += "note: rank exceeds min(m, n); the minor is impossible\n"
    elif cmd == "colrank-prob":
        x = formulas.prob_full_col_rank(args.m, args.n, args.q)
        out = _frac_json(x) if args.json else _frac_text("exact", x)
    elif cmd == "upper":
        x = formulas.upper_bound_nonfree(args.m, args.n, args.q)
        out = _frac_json(x) if args.json else _frac_text("upper", x)
    elif cmd == "lower":
        st = _load_matroid(args.target).stats()
        rep = formulas.lower_bound_nonfree(args.m, args.n, args.q, st)
        if args.json:
            out = rep.to_json()
        else:
            out = _frac_text("lower", rep.value)
            out += f"best_k = {rep.best_k}\n"
            if rep.note:
                out += f"note: {rep.note}\n"
    elif cmd == "block-lower":
        st = _load_matroid(args.target).stats()
        x = formulas.lower_bound_block(args.m, args.n, args.q, st)
        out = _frac_json(x) if args.json else _frac_text("lower", x)
    elif cmd == "liminf":
        st = _load_matroid(args.target).stats()
        x = formulas.asymptotic_liminf_bound(args.q, st)
        out = _frac_json(x) if args.json else _frac_text("liminf", x)
    elif cmd == "cq":
        approx, terms, floor_bound = formulas.cq_constant(args.q, args.tol)
        if args.json:
            out = {
                "approx": approx,
                "partial_terms": terms,
                "pentagonal_floor": _frac_json(floor_bound),
            }
        else:
            out = (
                f"approx = {approx:.12g}\npartial_terms = {terms}\n"
                f"pentagonal_floor = {floor_bound.numerator}/{floor_bound.denominator}\n"
            )
    elif cmd == "psmq":
        st = _load_matroid(args.target).stats()
        x = formulas.p_smq(args.s, args.q, st)
        out = _frac_json(x) if args.json else _frac_text("p_smq", x)
    elif cmd == "repcount":
        st = _load_matroid(args.target).stats()
        v = formulas.rep_count_lower_bound(args.m, args.q, st)
        out = {"value": str(v)} if args.json else f"rep_count_lower_bound = {v}\n"
    else:  # pragma: no cover
        raise AssertionError(cmd)
    if args.json:
        sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
    else:
        sys.stdout.write(out)
    return EXIT_OK


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def _add_simulate_parser(sub):
    p = sub.add_parser("simulate", help="Monte Carlo sweep of minor containment")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--target", required=True, help="name:<catalog> or file path")
    p.add_argument("--n-start", type=int, required=True)
    p.add_argument("--n-stop", type=int, required=True)
    p.add_argument("--n-step", type=int, default=1)
    p.add_argument("--m-rule", required=True,
                   help="constant:c | n-minus:d | n-plus:d | ratio:r")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")


def _cmd_simulate(args) -> int:
    target = _load_matroid(args.target)
    rows = run_minor_sweep(
        args.q, target, (args.n_start, args.n_stop, args.n_step), args.m_rule,
        args.trials, args.seed, args.budget, args.jobs,
    )
    if args.json:
        payload = []
        for r in rows:
            d = {"n": r.n, "m": r.m, "estimate": r.estimate.to_json()}
            d["lower_bound"] = None if r.lower is None else _frac_json(r.lower)
            d["upper_bound"] = None if r.upper is None else _frac_json(r.upper)
            payload.append(d)
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    else:
        _emit(minor_rows_to_csv(rows), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# minor
# ----------------------------------------------------------------------


def _add_host_args(p):
    p.add_argument("--host", default=None, help="matrix text file for the host")
    p.add_argument("--sample", nargs=3, type=int, metavar=("Q", "M", "N"),
                   default=None, help="sample the host matrix instead")
    p.add_argument("--seed", type=int, default=0)


def _host_matrix(args) -> FqMatrix:
    if (args.host is None) == (args.sample is None):
        raise FqminorsError("exactly one of --host / --sample is required")
    if args.host is not None:
        return _load_matrix(args.host)
    q, m, n = args.sample
    return sample_matrix(q, m, n, SeedSpec(args.seed, 0))


def _add_minor_parser(sub):
    p = sub.add_parser("minor", help="search for a target minor in a host")
    _add_host_args(p)
    p.add_argument("--target", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")


def _cmd_minor(args) -> int:
    A = _host_matrix(args)
    target = _load_matroid(args.target)
    outcome, w = decide(A, target, args.budget, find_minor_matrix, verify_witness_matrix)
    witness = None if w is None else w.to_json()
    verified = None if w is None else outcome == "found"
    if args.json:
        sys.stdout.write(json.dumps(
            {"outcome": outcome, "witness": witness, "verified": verified},
            sort_keys=True) + "\n")
    else:
        sys.stdout.write(f"outcome: {outcome}\n")
        if witness is not None:
            sys.stdout.write(f"witness: {json.dumps(witness, sort_keys=True)}\n")
            sys.stdout.write(f"verified: {'true' if verified else 'false'}\n")
    return EXIT_VALIDATION if outcome == "unverified" else EXIT_OK


# ----------------------------------------------------------------------
# class
# ----------------------------------------------------------------------


def _add_class_parser(sub):
    p = sub.add_parser("class", help="minor-closed class membership (graphic)")
    p.add_argument("--class", dest="class_name", default="graphic")
    _add_host_args(p)
    p.add_argument("--budget", type=int, default=None,
                   help="work units per target search (sweep default 20000)")
    p.add_argument("--sweep", action="store_true",
                   help="estimate the non-member frequency over a sweep")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--n-start", type=int, default=None)
    p.add_argument("--n-stop", type=int, default=None)
    p.add_argument("--n-step", type=int, default=1)
    p.add_argument("--m-rule", default=None)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")


def _row_floor_line(q: int, rows) -> str:
    # the smallest excluded minor representable over GF(q) has rank 2 for
    # q > 2 (U_{2,4}) but rank 3 for q = 2 (F7), and m(n) must reach it
    need = 3 if q == 2 else 2
    bad = [r.n for r in rows if r.m < need]
    status = "satisfied for all n" if not bad else f"violated at n in {bad}"
    return f"# row-floor: q={q} requires m(n) >= {need}: {status}"


def _cmd_class(args) -> int:
    if args.sweep:
        for name, v in (("--q", args.q), ("--n-start", args.n_start),
                        ("--n-stop", args.n_stop), ("--m-rule", args.m_rule)):
            if v is None:
                raise FqminorsError(f"{name} is required with --sweep")
        budget = 20000 if args.budget is None else args.budget
        rows = run_class_sweep(args.q, args.class_name,
                               (args.n_start, args.n_stop, args.n_step),
                               args.m_rule, args.trials, args.seed, budget)
        header = _row_floor_line(args.q, rows)
        _emit(header + "\n" + class_rows_to_csv(rows), args.out)
        return EXIT_OK
    A = _host_matrix(args)
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    report = has_excluded_minor_matrix(A, args.class_name, budget)
    if args.json:
        payload = {
            "class": args.class_name,
            "membership": report.membership,
            "outcomes": report.outcomes,
            "witnesses": {k: w.to_json() for k, w in report.witnesses.items()},
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stdout.write(f"class: {args.class_name}\n")
        sys.stdout.write(f"membership: {report.membership}\n")
        for name, outcome in report.outcomes.items():
            sys.stdout.write(f"{name}: {outcome}\n")
    return EXIT_VALIDATION if "unverified" in report.outcomes.values() else EXIT_OK


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------


def _add_validate_parser(sub):
    p = sub.add_parser("validate", help="run the oracle-vs-formula check suite")
    p.add_argument("--json", action="store_true")


def _cmd_validate(args) -> int:
    results = validate.run_checks()
    failures = [r for r in results if not r[1]]
    if args.json:
        payload = {
            "ok": not failures,
            "checks": [{"name": n, "pass": ok, "detail": d} for n, ok, d in results],
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        for name, ok, detail in results:
            if ok:
                sys.stdout.write(f"PASS {name} ({detail})\n")
            else:
                sys.stdout.write(f"FAIL {name}: {detail}\n")
        if failures:
            sys.stdout.write(f"{len(failures)} check(s) failed\n")
        else:
            sys.stdout.write("all checks passed\n")
    return EXIT_VALIDATION if failures else EXIT_OK


# ----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="fqminors", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    _add_formula_parser(sub)
    _add_simulate_parser(sub)
    _add_minor_parser(sub)
    _add_class_parser(sub)
    _add_validate_parser(sub)
    return parser


_DISPATCH = {
    "formula": _cmd_formula,
    "simulate": _cmd_simulate,
    "minor": _cmd_minor,
    "class": _cmd_class,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.cmd](args)
    except (ParseError, OSError) as exc:
        sys.stderr.write(f"fqminors: {exc}\n")
        return EXIT_IO
    except FqminorsError as exc:
        sys.stderr.write(f"fqminors: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
