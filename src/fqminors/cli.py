"""Command-line front end.

Subcommands: formula, simulate, minor, class, validate.  Exit codes:
0 success, 1 usage error, 2 validation failure, 3 I/O or parse error.
Every command returns its exit code, JSON payload and text, and one write
path prints the JSON under --json and the text otherwise, to the --out file
when simulate or class is given one and to stdout otherwise.  All output is
deterministic given identical arguments and seed; CSV floats use 12
significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import formulas, validate
from .errors import FqminorsError, ParseError
from .matrix import FqMatrix, parse_matrix
from .matroid import Matroid, catalog, parse_matroid
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


def _frac_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator), "float": float(x)}


def _frac_text(name: str, x: Fraction) -> str:
    return f"{name} = {x.numerator}/{x.denominator}\nfloat = {float(x):.12g}\n"


# ----------------------------------------------------------------------
# formula
# ----------------------------------------------------------------------


def _stats(args):
    return _load_matroid(args.target).stats()


def _size(*xs: int) -> int:
    """The product of a formula's size arguments, a negative one as 0."""
    out = 1
    for x in xs:
        out *= max(x, 0)
    return out


# subcommand -> (flags, text label, value of the parsed args, exponent of
# the largest power of q it forms or None), in --help order
_FORMULAS = {
    "gaussian": (("n", "k", "q"), "gaussian_binomial",
                 lambda a: formulas.gaussian_binomial(a.n, a.k, a.q),
                 lambda a: _size(a.n, a.k)),
    "rank-count": (("m", "n", "q", "k"), "count_rank_matrices",
                   lambda a: formulas.count_rank_matrices(a.m, a.n, a.q, a.k),
                   lambda a: _size(a.m, a.n)),
    "free-prob": (("m", "n", "q", "r"), "exact",
                  lambda a: formulas.prob_free_minor(a.m, a.n, a.q, a.r),
                  lambda a: _size(a.m, a.n)),
    "colrank-prob": (("m", "n", "q"), "exact",
                     lambda a: formulas.prob_full_col_rank(a.m, a.n, a.q),
                     lambda a: _size(a.m, a.n)),
    "upper": (("m", "n", "q"), "upper",
              lambda a: formulas.upper_bound_nonfree(a.m, a.n, a.q),
              lambda a: _size(a.m, a.n)),
    "lower": (("m", "n", "q", "target"), "lower",
              lambda a: formulas.lower_bound_nonfree(a.m, a.n, a.q, _stats(a)),
              lambda a: _size(a.m, a.n)),
    "block-lower": (("m", "n", "q", "target"), "lower",
                    lambda a: formulas.lower_bound_block(a.m, a.n, a.q, _stats(a)),
                    lambda a: _size(a.m, a.n)),
    "liminf": (("q", "target"), "liminf",
               lambda a: formulas.asymptotic_liminf_bound(a.q, _stats(a)),
               lambda a: _stats(a).e ** 2),
    "cq": (("q", "tol"), None, lambda a: formulas.cq_constant(a.q, a.tol), None),
    "psmq": (("s", "q", "target"), "p_smq", lambda a: formulas.p_smq(a.s, a.q, _stats(a)),
             lambda a: _size(a.s, _stats(a).e)),
    "repcount": (("m", "q", "target"), "rep_count_lower_bound",
                 lambda a: formulas.rep_count_lower_bound(a.m, a.q, _stats(a)),
                 lambda a: _size(a.m, _stats(a).e)),
}

_FORMULA_FLAGS = {
    "target": {"required": True, "help": "matroid: name:<catalog> or file path"},
    "tol": {"type": float, "default": 1e-9},
}


def _add_formula_parser(sub):
    p = sub.add_parser("formula", help="evaluate a closed form or bound")
    fsub = p.add_subparsers(dest="formula_cmd", required=True)
    for cmd, (flags, *_) in _FORMULAS.items():
        sp = fsub.add_parser(cmd)
        for flag in flags:
            sp.add_argument(f"--{flag}",
                            **_FORMULA_FLAGS.get(flag, {"type": int, "required": True}))
        sp.add_argument("--json", action="store_true")


def _cmd_formula(args):
    _, label, value, exponent = _FORMULAS[args.formula_cmd]
    if exponent is not None:
        formulas.check_size(args.q, exponent(args))
    v = value(args)
    if isinstance(v, int):
        return EXIT_OK, {"value": str(v)}, f"{label} = {v}\n"
    if isinstance(v, Fraction):
        payload, text = _frac_json(v), _frac_text(label, v)
        if args.formula_cmd == "free-prob" and args.r > min(args.m, args.n):
            payload["note"] = "rank exceeds min(m, n); the minor is impossible"
            text += f"note: {payload['note']}\n"
        return EXIT_OK, payload, text
    if isinstance(v, formulas.BoundReport):
        text = _frac_text(label, v.value) + f"best_k = {v.best_k}\n"
        if v.note:
            text += f"note: {v.note}\n"
        return EXIT_OK, v.to_json(), text
    approx, terms, floor_bound = v  # cq
    payload = {"approx": approx, "partial_terms": terms,
               "pentagonal_floor": _frac_json(floor_bound)}
    text = (f"approx = {approx:.12g}\npartial_terms = {terms}\n"
            f"pentagonal_floor = {floor_bound.numerator}/{floor_bound.denominator}\n")
    return EXIT_OK, payload, text


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


def _cmd_simulate(args):
    target = _load_matroid(args.target)
    rows = run_minor_sweep(
        args.q, target, (args.n_start, args.n_stop, args.n_step), args.m_rule,
        args.trials, args.seed, args.budget, args.jobs,
    )
    payload = [
        {"n": r.n, "m": r.m, "estimate": r.estimate.to_json(),
         "lower_bound": None if r.lower is None else _frac_json(r.lower),
         "upper_bound": None if r.upper is None else _frac_json(r.upper)}
        for r in rows
    ]
    return EXIT_OK, payload, minor_rows_to_csv(rows)


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


def _cmd_minor(args):
    A = _host_matrix(args)
    target = _load_matroid(args.target)
    outcome, w = decide(A, target, args.budget, find_minor_matrix, verify_witness_matrix)
    witness = None if w is None else w.to_json()
    verified = None if w is None else outcome == "found"
    text = f"outcome: {outcome}\n"
    if witness is not None:
        text += (f"witness: {json.dumps(witness, sort_keys=True)}\n"
                 f"verified: {'true' if verified else 'false'}\n")
    code = EXIT_VALIDATION if outcome == "unverified" else EXIT_OK
    return code, {"outcome": outcome, "witness": witness, "verified": verified}, text


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


def _cmd_class_sweep(args):
    for name, v in (("--q", args.q), ("--n-start", args.n_start),
                    ("--n-stop", args.n_stop), ("--m-rule", args.m_rule)):
        if v is None:
            raise FqminorsError(f"{name} is required with --sweep")
    budget = 20000 if args.budget is None else args.budget
    rows = run_class_sweep(args.q, args.class_name,
                           (args.n_start, args.n_stop, args.n_step),
                           args.m_rule, args.trials, args.seed, budget)
    # the smallest excluded minor representable over GF(q) has rank 2 for
    # q > 2 (U_{2,4}) but rank 3 for q = 2 (F7), and m(n) must reach it
    need = 3 if args.q == 2 else 2
    bad = [r.n for r in rows if r.m < need]
    status = "satisfied for all n" if not bad else f"violated at n in {bad}"
    payload = {
        "row_floor": status,
        "rows": [{"n": r.n, "m": r.m, "trials": r.trials, "nongraphic_found": r.confirmed_out,
                  "unknown": r.unknown, "frequency": r.frequency} for r in rows],
    }
    text = (f"# row-floor: q={args.q} requires m(n) >= {need}: {status}\n"
            + class_rows_to_csv(rows))
    return EXIT_OK, payload, text


def _cmd_class(args):
    if args.sweep:
        return _cmd_class_sweep(args)
    A = _host_matrix(args)
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    report = has_excluded_minor_matrix(A, args.class_name, budget)
    payload = {
        "class": args.class_name,
        "membership": report.membership,
        "outcomes": report.outcomes,
        "witnesses": {k: w.to_json() for k, w in report.witnesses.items()},
    }
    text = f"class: {args.class_name}\nmembership: {report.membership}\n" + "".join(
        f"{name}: {outcome}\n" for name, outcome in report.outcomes.items())
    code = EXIT_VALIDATION if "unverified" in report.outcomes.values() else EXIT_OK
    return code, payload, text


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------


def _add_validate_parser(sub):
    p = sub.add_parser("validate", help="run the oracle-vs-formula check suite")
    p.add_argument("--json", action="store_true")


def _cmd_validate(args):
    results = validate.run_checks()
    failures = [r for r in results if not r[1]]
    payload = {
        "ok": not failures,
        "checks": [{"name": n, "pass": ok, "detail": d} for n, ok, d in results],
    }
    text = "".join(f"PASS {name} ({detail})\n" if ok else f"FAIL {name}: {detail}\n"
                   for name, ok, detail in results)
    text += f"{len(failures)} check(s) failed\n" if failures else "all checks passed\n"
    return (EXIT_VALIDATION if failures else EXIT_OK), payload, text


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
        code, payload, text = _DISPATCH[args.cmd](args)
        if args.json:
            text = json.dumps(payload, sort_keys=True) + "\n"
        out = getattr(args, "out", None)  # only simulate and class take --out
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (ParseError, OSError) as exc:
        sys.stderr.write(f"fqminors: {exc}\n")
        return EXIT_IO
    except FqminorsError as exc:
        sys.stderr.write(f"fqminors: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
