import json

import pytest

from conftest import format_matrix, format_matroid, identity, run_cli
from fqminors import cli, formulas
from fqminors.gf import field
from fqminors.matrix import FqMatrix


def fano_file(tmp_path):
    entries = []
    for i in range(3):
        for c in range(1, 8):
            entries.append((c >> i) & 1)
    path = tmp_path / "fano.txt"
    path.write_text(format_matrix(FqMatrix(field(2), 3, 7, tuple(entries))))
    return str(path)


def test_formula_gaussian(capsys):
    assert cli.main(["formula", "gaussian", "--n", "4", "--k", "2", "--q", "2"]) == 0
    assert "35" in capsys.readouterr().out


def test_formula_lower_json(capsys):
    rc = cli.main(["formula", "lower", "--q", "2", "--m", "2", "--n", "4",
                   "--target", "name:U:1,2", "--json"])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert (d["num"], d["den"], d["best_k"]) == ("7", "32", 1)


def test_formula_cq(capsys):
    assert cli.main(["formula", "cq", "--q", "2", "--tol", "1e-9"]) == 0
    out = capsys.readouterr().out
    assert "0.288788095" in out and "1/4" in out


def test_formula_psmq_and_repcount(capsys):
    assert cli.main(["formula", "psmq", "--s", "1", "--q", "2",
                     "--target", "name:U:1,2"]) == 0
    assert "1/4" in capsys.readouterr().out
    assert cli.main(["formula", "repcount", "--m", "2", "--q", "2",
                     "--target", "name:U:2,3"]) == 0
    assert "6" in capsys.readouterr().out


def test_formula_remaining_subcommands(capsys):
    assert cli.main(["formula", "rank-count", "--m", "2", "--n", "2",
                     "--q", "2", "--k", "1"]) == 0
    assert "9" in capsys.readouterr().out
    assert cli.main(["formula", "colrank-prob", "--m", "3", "--n", "2", "--q", "2"]) == 0
    assert "21/32" in capsys.readouterr().out
    assert cli.main(["formula", "upper", "--m", "2", "--n", "2", "--q", "2"]) == 0
    assert "5/8" in capsys.readouterr().out
    assert cli.main(["formula", "block-lower", "--m", "1", "--n", "4", "--q", "2",
                     "--target", "name:U:1,2"]) == 0
    assert "7/16" in capsys.readouterr().out
    assert cli.main(["formula", "liminf", "--q", "2", "--target", "name:U:1,2"]) == 0
    assert "3/16" in capsys.readouterr().out
    assert cli.main(["formula", "free-prob", "--m", "2", "--n", "2",
                     "--q", "2", "--r", "1"]) == 0
    assert "15/16" in capsys.readouterr().out


# stdout and exit code of every `formula` subcommand, text and --json
FORMULA_GOLDEN = [
    ('gaussian --n 4 --k 2 --q 2', 0, 'gaussian_binomial = 35\n'),
    ('gaussian --n 4 --k 2 --q 2 --json', 0, '{"value": "35"}\n'),
    ('gaussian --n 2 --k 3 --q 2', 1, ''),
    ('gaussian --n 2 --k 3 --q 2 --json', 1, ''),
    ('rank-count --m 3 --n 4 --q 3 --k 2', 0, 'count_rank_matrices = 81120\n'),
    ('rank-count --m 3 --n 4 --q 3 --k 2 --json', 0, '{"value": "81120"}\n'),
    ('free-prob --m 3 --n 4 --q 2 --r 2', 0, 'exact = 1995/2048\nfloat = 0.97412109375\n'),
    ('free-prob --m 3 --n 4 --q 2 --r 2 --json', 0,
     '{"den": "2048", "float": 0.97412109375, "num": "1995"}\n'),
    ('free-prob --m 2 --n 3 --q 2 --r 3', 0,
     'exact = 0/1\nfloat = 0\nnote: rank exceeds min(m, n); the minor is impossible\n'),
    ('free-prob --m 2 --n 3 --q 2 --r 3 --json', 0,
     '{"den": "1", "float": 0.0, "note": "rank exceeds min(m, n); the minor is impossible",'
     ' "num": "0"}\n'),
    ('colrank-prob --m 5 --n 3 --q 3', 0, 'exact = 503360/531441\nfloat = 0.947160644361\n'),
    ('colrank-prob --m 5 --n 3 --q 3 --json', 0,
     '{"den": "531441", "float": 0.9471606443612743, "num": "503360"}\n'),
    ('upper --m 4 --n 3 --q 2', 0, 'upper = 197/512\nfloat = 0.384765625\n'),
    ('upper --m 4 --n 3 --q 2 --json', 0,
     '{"den": "512", "float": 0.384765625, "num": "197"}\n'),
    ('lower --m 2 --n 4 --q 2 --target name:U:1,2', 0,
     'lower = 7/32\nfloat = 0.21875\nbest_k = 1\n'),
    ('lower --m 2 --n 4 --q 2 --target name:U:1,2 --json', 0,
     '{"best_k": 1, "components": {"k_max": 1, "p_smq": {"den": "4", "num": "1"}, "t": 1},'
     ' "den": "32", "float": 0.21875, "kind": "lower", "num": "7"}\n'),
    ('lower --m 1 --n 2 --q 2 --target name:U:1,2', 0,
     'lower = 1/4\nfloat = 0.25\nbest_k = None\nnote: k-range empty\n'),
    ('lower --m 1 --n 2 --q 2 --target name:U:1,2 --json', 0,
     '{"best_k": null, "components": {"p_smq": {"den": "4", "num": "1"}, "t": 1}, "den": "4",'
     ' "float": 0.25, "kind": "lower", "note": "k-range empty", "num": "1"}\n'),
    ('block-lower --m 1 --n 4 --q 2 --target name:U:1,2', 0, 'lower = 7/16\nfloat = 0.4375\n'),
    ('block-lower --m 1 --n 4 --q 2 --target name:U:1,2 --json', 0,
     '{"den": "16", "float": 0.4375, "num": "7"}\n'),
    ('liminf --q 2 --target name:U:1,2', 0, 'liminf = 3/16\nfloat = 0.1875\n'),
    ('liminf --q 2 --target name:U:1,2 --json', 0,
     '{"den": "16", "float": 0.1875, "num": "3"}\n'),
    ('cq --q 2', 0, 'approx = 0.288788095356\npartial_terms = 30\npentagonal_floor = 1/4\n'),
    ('cq --q 2 --json', 0,
     '{"approx": 0.2887880953555573, "partial_terms": 30,'
     ' "pentagonal_floor": {"den": "4", "float": 0.25, "num": "1"}}\n'),
    ('cq --q 2 --tol inf', 1, ''),
    ('psmq --s 3 --q 5 --target name:U:2,4', 0,
     'p_smq = 47616/48828125\nfloat = 0.00097517568\n'),
    ('psmq --s 3 --q 5 --target name:U:2,4 --json', 0,
     '{"den": "48828125", "float": 0.00097517568, "num": "47616"}\n'),
    ('repcount --m 2 --q 2 --target name:U:2,3', 0, 'rep_count_lower_bound = 6\n'),
    ('repcount --m 2 --q 2 --target name:U:2,3 --json', 0, '{"value": "6"}\n'),
    # GF(6) does not exist; GF(17) and GF(32) do, past the field tables
    ('rank-count --m 3 --n 4 --q 6 --k 2', 1, ''),
    ('rank-count --m 3 --n 4 --q 6 --k 2 --json', 1, ''),
    ('free-prob --m 3 --n 4 --q 6 --r 2', 1, ''),
    ('colrank-prob --m 5 --n 3 --q 6', 1, ''),
    ('cq --q 6', 1, ''),
    ('cq --q 6 --json', 1, ''),
    ('gaussian --n 4 --k 2 --q 6', 1, ''),
    ('upper --m 4 --n 3 --q 6', 1, ''),
    ('lower --m 2 --n 4 --q 6 --target name:U:1,2', 1, ''),
    ('cq --q 17', 0, 'approx = 0.937716969852\npartial_terms = 7\npentagonal_floor = 271/289\n'),
    ('gaussian --n 4 --k 2 --q 32', 0, 'gaussian_binomial = 1083425\n'),
    ('rank-count --m 2 --n 3 --q 17 --k 2', 0, 'count_rank_matrices = 24049152\n'),
    ('free-prob --m 3 --n 4 --q 32 --r 2', 0,
     'exact = 36028796984328225/36028797018963968\nfloat = 0.999999999039\n'),
    # q is bounded by 2^64, checked before the prime-power test
    ('gaussian --n 2 --k 1 --q 18446744073709551616', 0,
     'gaussian_binomial = 18446744073709551617\n'),
    ('cq --q 18446744073709551617', 1, ''),
    # a value past the size bound is a usage error before any arithmetic;
    # the first would print past Python's digit limit, the others ran
    # past 20 s
    ('upper --m 100000000 --n 1 --q 2', 1, ''),
    ('gaussian --n 20000 --k 10000 --q 2', 1, ''),
    ('rank-count --m 3000 --n 3000 --q 16 --k 3000', 1, ''),
    ('lower --m 50 --n 100000 --q 2 --target name:U:1,2', 1, ''),
]

# the one stderr line of each failing FORMULA_GOLDEN case, by its
# arguments without --json
FORMULA_ERRORS = {
    "gaussian --n 2 --k 3 --q 2": "need 0 <= k <= n, got n=2 k=3",
    "cq --q 2 --tol inf": "tolerance must be positive and finite, got inf",
    **{args: "q=6 is not a prime power" for args, _, _ in FORMULA_GOLDEN if "--q 6" in args},
    "cq --q 18446744073709551617": "q must be <= 2^64, got a 65-bit q",
    "upper --m 100000000 --n 1 --q 2":
        "q^100000000 takes 100000000 bits, over the 14000-bit bound",
    "gaussian --n 20000 --k 10000 --q 2":
        "q^200000000 takes 200000000 bits, over the 14000-bit bound",
    "rank-count --m 3000 --n 3000 --q 16 --k 3000":
        "q^9000000 takes 36000000 bits, over the 14000-bit bound",
    "lower --m 50 --n 100000 --q 2 --target name:U:1,2":
        "q^5000000 takes 5000000 bits, over the 14000-bit bound",
}


def test_formula_size_bound_edge(capsys):
    # q^(m·n) at exactly MAX_BITS bits is accepted and prints in full, one
    # more row is not
    assert formulas.MAX_BITS == 14000
    assert cli.main(["formula", "upper", "--m", "140", "--n", "100", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("upper = ") and len(out.split("/")[1].split()[0]) > 2700
    assert cli.main(["formula", "upper", "--m", "141", "--n", "100", "--q", "2"]) == 1
    assert capsys.readouterr().err == \
        "fqminors: q^14100 takes 14100 bits, over the 14000-bit bound\n"


@pytest.mark.parametrize("args,code,stdout", FORMULA_GOLDEN, ids=[a for a, _, _ in FORMULA_GOLDEN])
def test_formula_golden(args, code, stdout, capsys):
    assert cli.main(["formula", *args.split()]) == code
    captured = capsys.readouterr()
    assert captured.out == stdout
    if code:
        assert captured.err == f"fqminors: {FORMULA_ERRORS[args.removesuffix(' --json')]}\n"


def test_target_from_matroid_file(tmp_path, capsys):
    from fqminors.matroid import catalog

    path = tmp_path / "u12.matroid"
    path.write_text(format_matroid(catalog("U:1,2")))
    rc = cli.main(["formula", "lower", "--q", "2", "--m", "2", "--n", "4",
                   "--target", str(path), "--json"])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert (d["num"], d["den"]) == ("7", "32")


def test_minor_found_and_verified(tmp_path, capsys):
    rc = cli.main(["minor", "--host", fano_file(tmp_path), "--target", "name:F7", "--json"])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert d["outcome"] == "found" and d["verified"] is True
    assert d["witness"]["contract"] == [] and d["witness"]["delete"] == []


def test_minor_unverified_witness_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_witness_matrix", lambda A, target, w: False)
    host = fano_file(tmp_path)
    rc = cli.main(["minor", "--host", host, "--target", "name:F7"])
    assert rc == cli.EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "outcome: unverified" in out and "verified: false" in out
    assert "found" not in out
    rc = cli.main(["minor", "--host", host, "--target", "name:F7", "--json"])
    assert rc == cli.EXIT_VALIDATION
    d = json.loads(capsys.readouterr().out)
    assert d["outcome"] == "unverified" and d["verified"] is False


def test_minor_absent(tmp_path, capsys):
    path = tmp_path / "ident.txt"
    path.write_text(format_matrix(identity(field(2), 4)))
    rc = cli.main(["minor", "--host", str(path), "--target", "name:U:1,2"])
    assert rc == 0
    assert "absent" in capsys.readouterr().out


def test_minor_parse_error_exit_3(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2 2\n1 0\n1 oops\n")
    res = run_cli(["minor", "--host", str(path), "--target", "name:U:1,2"])
    assert res.returncode == 3
    assert "line 3" in res.stderr


def test_missing_file_exit_3(tmp_path):
    res = run_cli(["minor", "--host", str(tmp_path / "nope.txt"), "--target", "name:U:1,2"])
    assert res.returncode == 3


def test_usage_errors_exit_1():
    assert run_cli(["formula", "gaussian", "--n", "4"]).returncode == 1
    assert run_cli(["no-such-command"]).returncode == 1
    res = run_cli(["minor", "--target", "name:U:1,2"])  # no host
    assert res.returncode == 1
    res = run_cli(["minor", "--sample", "2", "2", "2", "--target", "name:U:9,4"])
    assert res.returncode == 1
    res = run_cli(["minor", "--sample", "6", "2", "2", "--target", "name:U:1,2"])
    assert res.returncode == 1 and "prime power" in res.stderr


def test_class_graphic_yes(tmp_path, capsys):
    k4_edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    rows = [[1 if v in e else 0 for e in k4_edges] for v in range(4)]
    path = tmp_path / "k4.txt"
    path.write_text(format_matrix(FqMatrix.from_rows(field(2), rows)))
    rc = cli.main(["class", "--host", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "membership: yes" in out


def test_class_graphic_no_u24(tmp_path, capsys):
    path = tmp_path / "u24.txt"
    path.write_text(format_matrix(FqMatrix.from_rows(field(5), [[1, 1, 1, 1], [0, 1, 2, 3]])))
    rc = cli.main(["class", "--host", str(path), "--json"])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert d["membership"] == "no" and d["outcomes"]["U:2,4"] == "found"


def test_class_unverified_witness_is_not_membership(tmp_path, monkeypatch, capsys):
    from fqminors import minor

    monkeypatch.setattr(minor, "verify_witness_matrix", lambda A, target, w: False)
    path = tmp_path / "u24.txt"
    path.write_text(format_matrix(FqMatrix.from_rows(field(5), [[1, 1, 1, 1], [0, 1, 2, 3]])))
    rc = cli.main(["class", "--host", str(path), "--json"])
    assert rc == cli.EXIT_VALIDATION
    d = json.loads(capsys.readouterr().out)
    assert d["outcomes"]["U:2,4"] == "unverified"
    assert d["membership"] == "unknown" and d["witnesses"] == {}


def test_simulate_csv_deterministic():
    args = ["simulate", "--q", "2", "--target", "name:U:1,2",
            "--n-start", "4", "--n-stop", "8", "--n-step", "2",
            "--m-rule", "n-minus:2", "--trials", "200", "--seed", "31"]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == 0 and a.stdout == b.stdout
    lines = a.stdout.strip().splitlines()
    assert lines[0] == "n,m,trials,point,ci_lo,ci_hi,lower_bound,upper_bound"
    assert len(lines) == 4


def test_simulate_bad_jobs_exit_1(capsys):
    rc = cli.main(["simulate", "--q", "2", "--target", "name:U:1,2",
                   "--n-start", "4", "--n-stop", "4", "--m-rule", "n-minus:2",
                   "--trials", "10", "--jobs", "0"])
    assert rc == cli.EXIT_USAGE
    assert "jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["minor", "--sample", "2", "6", "10", "--seed", "1", "--target", "name:U:1,2",
     "--budget", "-5"],
    ["class", "--sample", "2", "6", "10", "--budget", "0"],
    ["class", "--sweep", "--q", "2", "--n-start", "10", "--n-stop", "10",
     "--m-rule", "n-minus:8", "--trials", "5", "--budget", "0"],
    ["simulate", "--q", "2", "--target", "name:U:1,2", "--n-start", "6", "--n-stop", "6",
     "--m-rule", "n-minus:2", "--trials", "5", "--budget", "0"],
], ids=["minor", "class-host", "class-sweep", "simulate"])
def test_nonpositive_budget_exit_1(args, capsys):
    assert cli.main(args) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "fqminors: budget must be >= 1\n" and captured.out == ""


def test_simulate_out_file(tmp_path):
    out = tmp_path / "rows.csv"
    res = run_cli(["simulate", "--q", "2", "--target", "name:free:2",
                   "--n-start", "3", "--n-stop", "3", "--m-rule", "constant:3",
                   "--trials", "50", "--seed", "1", "--out", str(out)])
    assert res.returncode == 0
    text = out.read_text()
    # free target rows carry the exact probability in both bound columns
    row = text.strip().splitlines()[1].split(",")
    assert row[6] == row[7] != ""


def test_class_sweep_csv(capsys):
    rc = cli.main(["class", "--sweep", "--q", "2", "--n-start", "10", "--n-stop", "12",
                   "--n-step", "2", "--m-rule", "n-minus:8", "--trials", "30",
                   "--seed", "2", "--budget", "5000"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("# row-floor: q=2 requires m(n) >= 3")
    assert lines[1] == "n,m,trials,nongraphic_found,unknown,frequency"
    assert len(lines) == 4


def test_class_sweep_json_rows_equal_csv(capsys):
    args = ["class", "--sweep", "--q", "2", "--n-start", "2", "--n-stop", "10",
            "--n-step", "4", "--m-rule", "n-minus:1", "--trials", "6", "--seed", "2"]
    assert cli.main(args) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert cli.main(args + ["--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert header == f"# row-floor: q=2 requires m(n) >= 3: {d['row_floor']}"
    assert d["row_floor"] == "violated at n in [2]"
    keys = lines[0].split(",")
    assert [list(r) for r in d["rows"]] == [sorted(keys)] * 3
    assert [",".join(format(r[k], ".12g") for k in keys) for r in d["rows"]] == lines[1:]


def test_class_host_out_file(tmp_path, capsys):
    out = tmp_path / "class.txt"
    args = ["class", "--sample", "2", "4", "8", "--seed", "3"]
    assert cli.main(args) == 0
    text = capsys.readouterr().out
    assert cli.main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == text and text.startswith("class: graphic\n")


@pytest.mark.parametrize("args", [
    ["simulate", "--q", "2", "--target", "name:U:1,2", "--n-start", "4", "--n-stop", "6",
     "--m-rule", "ratio:1e300", "--trials", "3"],
    ["simulate", "--q", "2", "--target", "name:U:1,2", "--n-start", "4", "--n-stop", "6",
     "--m-rule", "constant:100000000", "--trials", "3"],
    ["simulate", "--q", "2", "--target", "name:U:1,2", "--n-start", "4",
     "--n-stop", "1000000000000", "--m-rule", "n-minus:2", "--trials", "3"],
    ["minor", "--sample", "2", "100000000", "100", "--target", "name:U:1,2"],
], ids=["ratio", "constant", "n-stop", "minor-sample"])
def test_oversized_shape_exit_1(args, monkeypatch, capsys):
    from fqminors import sampler

    def no_sampling(*a):
        raise AssertionError("sampled before the shape check")

    monkeypatch.setattr(sampler, "sample_entries", no_sampling)
    assert cli.main(args) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fqminors: shape ") and captured.err.count("\n") == 1
    assert f"exceeds {sampler.MAX_ENTRIES} entries" in captured.err


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_class_sweep_bad_trials_exit_1(trials, capsys):
    rc = cli.main(["class", "--sweep", "--q", "2", "--n-start", "10", "--n-stop", "10",
                   "--m-rule", "n-minus:8", "--trials", trials])
    assert rc == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "fqminors: trials must be >= 1\n" and captured.out == ""


def test_validate_passes(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out and "FAIL" not in out


def test_validate_catches_corrupted_formula(monkeypatch, capsys):
    from fqminors import formulas

    real = formulas.count_rank_matrices

    def corrupted(m, n, q, k):
        v = real(m, n, q, k)
        return v + 1 if (m, n, q, k) == (2, 2, 2, 1) else v

    monkeypatch.setattr(formulas, "count_rank_matrices", corrupted)
    rc = cli.main(["validate"])
    assert rc == 2
    out = capsys.readouterr().out
    assert "FAIL rank-counts-vs-oracle" in out


def test_validate_catches_crashing_psmq(monkeypatch, capsys):
    from fqminors import formulas

    def crashing(m, q, st):
        raise ArithmeticError("p_smq broken")

    monkeypatch.setattr(formulas, "p_smq", crashing)
    rc = cli.main(["validate"])
    assert rc == 2
    out = capsys.readouterr().out
    assert "FAIL psmq-repcount-consistency" in out


BROKEN_MATRIX_SEARCH = {
    "find_minor_matrix": lambda A, target, budget=None: None,
    "verify_witness_matrix": lambda A, target, w: False,
}


@pytest.mark.parametrize("name", sorted(BROKEN_MATRIX_SEARCH))
def test_minor_agreement_check_catches_broken_matrix_search(name, monkeypatch):
    from fqminors import minor, validate

    monkeypatch.setattr(minor, name, BROKEN_MATRIX_SEARCH[name])
    ok, detail = validate.check_minor_brute_agreement()
    assert not ok, detail


def test_validate_byte_identical_runs():
    a = run_cli(["validate"])
    b = run_cli(["validate"])
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.splitlines() == [
        "PASS field-axioms (q in {2,3,4,5,7,8,9,11,13,16})",
        "PASS rank-transpose (GF(2) exhaustive to 3x3)",
        "PASS rank-counts-vs-oracle (q in {2,3} small shapes)",
        "PASS colrank-free-prob-vs-oracle (q in {2,3} small shapes)",
        "PASS li-bound-strict (q in {2,3}, m <= 6)",
        "PASS psmq-repcount-consistency (uniform catalog, m <= 3, q in {2,3})",
        "PASS repcount-vs-exact (small catalog targets)",
        "PASS bound-sandwich (U12, U02, U23+loop at q=2, m <= 2, n <= 4)",
        "PASS change-of-basis-bijection (GF(2) 2x1 and 2x2, all invertible P)",
        "PASS reduce-conditional-uniform (GF(2) shapes (2,2), (3,2), (2,3) at k=1)",
        "PASS minor-brute-agreement (12 seeded random instances vs all-(C,D) brute force)",
        "PASS mc-determinism (2000 trials at 4x4, q=2)",
        "PASS sweep-bounds-bracket (U12 sweep, n=4..8, 400 trials)",
        "PASS cq-floor (q in {2,3,4})",
        "all checks passed",
    ]


# exact stdout of GF(3) `minor`, `class` and `simulate` runs, recorded with
# the table backend for every GF(3) path: the witness each search picks
# depends on the order of its direction keys, and the estimates on every
# trial's outcome, so the plane backend must reproduce both
GF3_GOLDEN = [
    ('minor --sample 3 4 8 --target name:U:2,4 --seed 0', 0,
     'outcome: found\n'
     'witness: {"bijection": [1, 2, 4, 5], "contract": [0, 3], "delete": [6, 7]}\n'
     'verified: true\n'),
    ('minor --sample 3 5 10 --target name:U:2,4 --seed 1 --json', 0,
     '{"outcome": "found", "verified": true, "witness": {"bijection": [3, 5, 6, 8], '
     '"contract": [0, 1, 2], "delete": [4, 7, 9]}}\n'),
    ('minor --sample 3 6 9 --target name:U:2,4 --seed 7', 0,
     'outcome: found\n'
     'witness: {"bijection": [2, 3, 6, 7], "contract": [0, 1, 5, 8], "delete": [4]}\n'
     'verified: true\n'),
    ('minor --sample 3 10 16 --target name:U:2,4 --seed 5 --json', 0,
     '{"outcome": "found", "verified": true, "witness": {"bijection": [8, 9, 11, 12], '
     '"contract": [0, 1, 2, 3, 4, 5, 6, 7], "delete": [10, 13, 14, 15]}}\n'),
    ('minor --sample 3 5 9 --target name:U:3,5 --seed 2 --json', 0,
     '{"outcome": "absent", "verified": null, "witness": null}\n'),
    ('minor --sample 3 3 8 --target name:U:2,5 --seed 2 --json', 0,
     '{"outcome": "absent", "verified": null, "witness": null}\n'),
    ('class --sample 3 4 8 --seed 1', 0,
     'class: graphic\n'
     'membership: no\n'
     'U:2,4: found\n'
     'F7: absent\n'
     'F7*: absent\n'
     'MK5*: absent\n'
     'MK33*: absent\n'),
    ('class --sample 3 5 9 --seed 4 --json', 0,
     '{"class": "graphic", "membership": "yes", "outcomes": {"F7": "absent", "F7*": "absent", '
     '"MK33*": "absent", "MK5*": "absent", "U:2,4": "absent"}, "witnesses": {}}\n'),
    ('class --sample 3 5 10 --seed 3 --json', 0,
     '{"class": "graphic", "membership": "no", "outcomes": {"F7": "absent", "F7*": "absent", '
     '"MK33*": "absent", "MK5*": "absent", "U:2,4": "found"}, '
     '"witnesses": {"U:2,4": {"bijection": [0, 1, 3, 7], "contract": [2, 5, 8], "delete": [4, '
     '6, 9]}}}\n'),
    ('class --sample 3 4 10 --seed 9', 0,
     'class: graphic\n'
     'membership: no\n'
     'U:2,4: found\n'
     'F7: absent\n'
     'F7*: absent\n'
     'MK5*: absent\n'
     'MK33*: absent\n'),
    ('class --sweep --q 3 --n-start 6 --n-stop 9 --m-rule n-minus:3 --trials 20 --seed 1', 0,
     '# row-floor: q=3 requires m(n) >= 2: satisfied for all n\n'
     'n,m,trials,nongraphic_found,unknown,frequency\n'
     '6,3,20,8,0,0.4\n'
     '7,4,20,12,0,0.6\n'
     '8,5,20,12,0,0.6\n'
     '9,6,20,18,0,0.9\n'),
    ('simulate --q 3 --target name:U:2,4 --n-start 5 --n-stop 8 --m-rule n-minus:2'
     ' --trials 30 --seed 3', 0,
     'n,m,trials,point,ci_lo,ci_hi,lower_bound,upper_bound\n'
     '5,3,30,0.1,0.0345998887473,0.256210825792,0.0289025498597,\n'
     '6,4,30,0.3,0.166647482682,0.478757874587,0.0289025498597,\n'
     '7,5,30,0.533333333333,0.361422996199,0.697676110923,0.0289025498597,\n'
     '8,6,30,0.466666666667,0.302323889077,0.638577003801,0.0289025498597,\n'),
    ('simulate --q 3 --target name:U:2,4 --n-start 8 --n-stop 8 --m-rule n-minus:3'
     ' --trials 20 --seed 12345 --json', 0,
     '[{"estimate": {"ci": [0.43285427668523624, 0.818808175898918], "method": "wilson95", '
     '"point": 0.65, "seed": 12345, "successes": 13, "trials": 20, "unknowns": 0, '
     '"unverified": 0}, "lower_bound": {"den": "531441", "float": 0.029143404441885363, '
     '"num": "15488"}, "m": 5, "n": 8, "upper_bound": null}]\n'),
]


@pytest.mark.parametrize("args,code,stdout", GF3_GOLDEN, ids=[a for a, _, _ in GF3_GOLDEN])
def test_gf3_golden(args, code, stdout, capsys):
    assert cli.main(args.split()) == code
    assert capsys.readouterr().out == stdout
