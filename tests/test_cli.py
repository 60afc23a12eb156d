import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from varchenko import cli
from varchenko.cli import build_parser, main, parse_expected_product
from varchenko.files import bundled_text, parse_matrix
from varchenko.polyring import VarId
from varchenko.varmatrix import det_symbolic, reduce_rows
from varchenko.geometry import PLUS, MINUS
from oracles import Polynomial

PAPER_PRODUCT = "(1 - h2^+ h2^-)^2 (1 - h3^+ h3^-)^2 (1 - h4^+ h4^-)^3"


@pytest.fixture
def data_dir(tmp_path):
    for name in (
        "r1.arr",
        "crossing.arr",
        "generic3.arr",
        "two_pairs.arr",
        "two_pairs_apartment.vmx",
    ):
        (tmp_path / name).write_text(bundled_text(name))
    (tmp_path / "empty.arr").write_text("dim 2\n")
    (tmp_path / "broken.arr").write_text("dim 2\n1 0 zzz\n")
    (tmp_path / "one.vmx").write_text("vmatrix 1 1\n1\n")
    (tmp_path / "r1.vmx").write_text("vmatrix 2 1\n1\n1 * h1^-\n1 * h1^+\n1\n")
    return tmp_path


def test_faces_text(data_dir, capsys):
    assert main(["faces", str(data_dir / "r1.arr")]) == 0
    out = capsys.readouterr().out
    assert "3 faces, 2 chambers" in out


def test_faces_json(data_dir, capsys):
    assert main(["faces", str(data_dir / "crossing.arr"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert len(payload["faces"]) == 9
    assert len(payload["chambers"]) == 4


def test_faces_empty_arrangement(data_dir, capsys):
    assert main(["faces", str(data_dir / "empty.arr"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["faces"]) == 1


def test_parse_error_exits_2(data_dir, capsys):
    assert main(["faces", str(data_dir / "broken.arr")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exits_2(data_dir, capsys):
    assert main(["faces", str(data_dir / "nope.arr")]) == 2


def test_varchenko_r1(data_dir, capsys):
    assert main(["varchenko", str(data_dir / "r1.arr")]) == 0
    out = capsys.readouterr().out
    assert "determinant: 1 - 1 * h1^+ h1^-" in out
    assert "verified: True" in out


def test_varchenko_two_pairs_apartment(data_dir, capsys):
    code = main(
        [
            "varchenko",
            str(data_dir / "two_pairs.arr"),
            "--subset",
            "0",
            "--apartment-signs",
            "-",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["apartment"] == "H1^-"
    assert payload["verified"] is True
    assert payload["factored"] == (
        "(1 - 1 * h2^+ h2^-)^2 (1 - 1 * h3^+ h3^-)^2 (1 - 1 * h4^+ h4^-)^3"
    )


def test_varchenko_infeasible_apartment_exits_2(data_dir, capsys):
    code = main(
        [
            "varchenko",
            str(data_dir / "two_pairs.arr"),
            "--subset",
            "1,2",
            "--apartment-signs",
            "+,-",
        ]
    )
    assert code == 2
    assert "apartment" in capsys.readouterr().err


def test_varchenko_subset_flag_validation(data_dir, capsys):
    assert main(
        ["varchenko", str(data_dir / "r1.arr"), "--subset", "0"]
    ) == 2
    assert main(
        ["varchenko", str(data_dir / "r1.arr"), "--subset", "7",
         "--apartment-signs", "+"]
    ) == 2


def test_varchenko_negative_subset_index_exits_2(data_dir, capsys):
    argv = ["varchenko", str(data_dir / "r1.arr"), "--subset", "-1", "--apartment-signs", "+"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: hyperplane index -1 out of range 0..0\n"


def test_varchenko_modular(data_dir, capsys):
    code = main(
        [
            "varchenko",
            str(data_dir / "crossing.arr"),
            "--mode",
            "modular",
            "--seed",
            "42",
            "--trials",
            "10",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["trials"]) == 10
    assert all(t["match"] for t in payload["trials"])


@pytest.mark.parametrize(
    "argv",
    [
        ["varchenko", "crossing.arr", "--mode", "modular", "--trials", "0"],
        ["verify", "crossing.arr", "--checks", "factorization", "--trials", "0"],
        ["verify", "crossing.arr", "--checks", "factorization", "--trials", "-1"],
    ],
)
def test_trials_below_one_is_a_usage_error(data_dir, capsys, argv):
    argv = [argv[0], str(data_dir / argv[1]), *argv[2:]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--trials: must be at least 1" in err


def test_env_seed_used_as_default(data_dir, capsys, monkeypatch):
    monkeypatch.setenv("VARCHENKO_SEED", "123")
    args = [
        "varchenko",
        str(data_dir / "crossing.arr"),
        "--mode",
        "modular",
        "--json",
    ]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 123


def test_bad_env_seed_is_a_usage_error(data_dir, capsys, monkeypatch):
    monkeypatch.setenv("VARCHENKO_SEED", "abc")
    args = ["varchenko", str(data_dir / "crossing.arr"), "--mode", "modular"]
    assert main(args) == 2
    assert "error: VARCHENKO_SEED must be an integer" in capsys.readouterr().err


def test_verify_all_r1(data_dir, capsys):
    assert main(["verify", str(data_dir / "r1.arr"), "--all"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


def test_verify_selected_checks(data_dir, capsys):
    code = main(
        [
            "verify",
            str(data_dir / "crossing.arr"),
            "--checks",
            "witt,factorization",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    names = [c["name"] for c in payload["checks"]]
    assert names == ["witt_identities", "factorization"]


def test_verify_unknown_check_exits_2(data_dir, capsys):
    assert main(
        ["verify", str(data_dir / "r1.arr"), "--checks", "bogus"]
    ) == 2


def test_verify_all_apartments(data_dir, capsys):
    code = main(
        [
            "verify",
            str(data_dir / "crossing.arr"),
            "--checks",
            "factorization",
            "--all-apartments",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    # subsets: {} -> 1, {0} -> 2, {1} -> 2, {0,1} -> 4 apartments
    assert len(payload["checks"]) == 9
    assert all(c["status"] == "pass" for c in payload["checks"])


@pytest.mark.parametrize(
    "flags",
    [["--subset", "0", "--apartment-signs", "+"], ["--subset", "0"]],
)
def test_verify_all_apartments_rejects_apartment_flags(data_dir, capsys, flags):
    args = ["verify", str(data_dir / "crossing.arr"), "--checks", "beta"]
    assert main(args + ["--all-apartments", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--all-apartments cannot be combined" in captured.err


@pytest.mark.parametrize(
    "name",
    ["r1.arr", "generic3.arr", "crossing.arr", "r3.arr", "two_pairs.arr",
     "parallel2.arr"],
)
def test_varchenko_agrees_with_verify_factorization(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_text(bundled_text(name))
    code = main(["varchenko", str(path), "--json"])
    shown = json.loads(capsys.readouterr().out)
    assert code == (0 if shown["verified"] else 1)
    assert main(["verify", str(path), "--checks", "factorization", "--json"]) == code
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["status"] == ("pass" if shown["verified"] else "fail")
    assert check["details"]["mode"] == shown["mode"]


def test_verify_json_is_deterministic(data_dir, capsys):
    args = ["verify", str(data_dir / "generic3.arr"), "--all", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_detfile_bundled_matrix(data_dir, capsys):
    code = main(
        [
            "detfile",
            str(data_dir / "two_pairs_apartment.vmx"),
            "--expected",
            PAPER_PRODUCT,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "verified: True" in out


def test_detfile_wrong_expected_exits_1(data_dir, capsys):
    code = main(
        [
            "detfile",
            str(data_dir / "two_pairs_apartment.vmx"),
            "--expected",
            "(1 - h2^+ h2^-)^6",
        ]
    )
    assert code == 1


def test_detfile_trivial_matrices(data_dir, capsys):
    assert main(["detfile", str(data_dir / "one.vmx")]) == 0
    assert "determinant: 1" in capsys.readouterr().out
    assert main(["detfile", str(data_dir / "r1.vmx")]) == 0
    assert "determinant: 1 - 1 * h1^+ h1^-" in capsys.readouterr().out


@pytest.mark.parametrize(
    "expected",
    ["(1 - 1)", "(1 - 0)", "(1 - h1^+ + h1^-)(1 - h1^+)"],
    ids=["constant", "zero", "binomial"],
)
def test_detfile_rejects_factor_that_is_not_one_minus_monomial(
    data_dir, capsys, expected
):
    argv = ["detfile", str(data_dir / "two_pairs_apartment.vmx")]
    assert main([*argv, "--expected", expected]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: factor ") and "(1 - MONOMIAL)" in err


def test_detfile_degree_mismatch_fails_without_expanding(data_dir, capsys):
    # Expanding this power would never finish; the degrees 0 and
    # 2 * 99999999999 differ, so the product cannot match.
    argv = ["detfile", str(data_dir / "one.vmx"), "--json"]
    assert main([*argv, "--expected", "(1 - h1^+ h1^-)^99999999999"]) == 1
    assert json.loads(capsys.readouterr().out)["verified"] is False


@pytest.mark.parametrize(
    "expected",
    # the matrix's exponent bounds are at most 4, in 3-bit fields; the
    # first product has the determinant's degree 14, the second is
    # (1 - h2^+ h2^-)^(2**3)
    ["(1 - h3^+ h3^-)^7", "(1 - h2^+ h2^-)^8"],
)
def test_detfile_product_beyond_matrix_bounds_is_unequal(data_dir, capsys, expected):
    argv = ["detfile", str(data_dir / "two_pairs_apartment.vmx"), "--json"]
    assert main([*argv, "--expected", expected]) == 1
    assert json.loads(capsys.readouterr().out)["verified"] is False


def test_detfile_huge_hyperplane_count_exits_2(data_dir, tmp_path, capsys):
    huge = tmp_path / "huge.vmx"
    huge.write_text("vmatrix 2 99999999999\n1\nh1^+\nh1^-\n1\n")
    assert main(["detfile", str(huge)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: ") and "hyperplanes" in err
    none = tmp_path / "none.vmx"
    none.write_text("vmatrix 1 0\n1\n")
    for path in (none, data_dir / "one.vmx", data_dir / "two_pairs_apartment.vmx"):
        assert main(["detfile", str(path)]) == 0


@pytest.mark.parametrize(
    "text, line",
    [("dim 999999999\n", 1), ("dim 2\n1 0 1e400000000\n", 2)],
    ids=["huge-dimension", "exponent-notation"],
)
def test_arrangement_that_would_not_finish_exits_2(tmp_path, capsys, text, line):
    path = tmp_path / "slow.arr"
    path.write_text(text)
    assert main(["faces", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


def test_detfile_malformed_exits_2(data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.vmx"
    bad.write_text("vmatrix 2 1\n1\n1 * h1^+\n")
    assert main(["detfile", str(bad)]) == 2


def test_detfile_rejects_entry_on_both_sides_of_a_hyperplane(tmp_path, capsys):
    # Square-free with coefficient 1 and opposite to its transpose, but no
    # distance holds both h1^+ and h1^-.
    bad = tmp_path / "both.vmx"
    bad.write_text("vmatrix 2 1\n1\nh1^+ h1^-\nh1^- h1^+\n1\n")
    assert main(["detfile", str(bad)]) == 2
    assert "not a distance matrix" in capsys.readouterr().err


def test_detfile_rejects_matrix_that_no_chamber_set_realizes(tmp_path, capsys):
    # Chambers 1 and 2 both lie on the h1^+ side of chamber 0, yet
    # v(2, 1) = h1^+ puts them on opposite sides of H1.
    bad = tmp_path / "unrealizable.vmx"
    entries = ["1", "h1^+", "h1^+", "h1^-", "1", "h1^+", "h1^-", "h1^-", "1"]
    bad.write_text("vmatrix 3 1\n" + "\n".join(entries) + "\n")
    assert main(["detfile", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: line 1: not a distance matrix: "
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["faces", "nope.arr"], "cannot read"),
        (["detfile", "nope.vmx"], "cannot read"),
        (["verify", "r1.arr", "--checks", "tits,bogus"], "unknown checks"),
        # a run that checks nothing must not report success
        (["verify", "r1.arr", "--checks", ","], "names no check"),
        (["verify", "r1.arr", "--checks", ""], "names no check"),
        (["verify", "r1.arr", "--checks", " , "], "names no check"),
        (["verify", "r1.arr", "--checks", "tits,tits"], "repeats tits"),
        (
            ["detfile", "two_pairs_apartment.vmx", "--expected", "garbage"],
            "unparsed trailing text",
        ),
        # an empty product is checked, not taken for no product at all
        (["detfile", "two_pairs_apartment.vmx", "--expected", ""], "contains no factors"),
        (["detfile", "two_pairs_apartment.vmx", "--expected", " "], "contains no factors"),
    ],
    ids=[
        "unreadable-arr",
        "unreadable-vmx",
        "unknown-check",
        "checks-comma",
        "checks-empty",
        "checks-blank",
        "checks-repeated",
        "bad-expected",
        "expected-empty",
        "expected-blank",
    ],
)
def test_errors_outside_a_file_name_no_line(data_dir, capsys, argv, message):
    argv = [argv[0], str(data_dir / argv[1]), *argv[2:]]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""  # input is checked before anything is written
    assert err.startswith("error: ") and message in err
    assert "line 0" not in err


def test_parse_expected_product():
    factored = parse_expected_product(PAPER_PRODUCT, 8)
    one = Polynomial.one(8)

    def pair(h):
        return Polynomial.variable(8, VarId(h, PLUS)) * Polynomial.variable(
            8, VarId(h, MINUS)
        )

    assert factored.expand() == (
        (one - pair(1)) ** 2 * (one - pair(2)) ** 2 * (one - pair(3)) ** 3
    )
    with pytest.raises(ValueError):
        parse_expected_product("garbage", 8)
    with pytest.raises(ValueError):
        parse_expected_product("(1 - h1^+ h1^-)^2 junk", 8)


def test_detfile_cost_does_not_grow_with_declared_hyperplanes(tmp_path, capsys):
    # A variable that occurs in no entry splits no row group, reduces no
    # row and is never printed, so declaring 10,000 hyperplanes instead of
    # 4 changes neither the output nor, much, the CPU time.
    text = bundled_text("two_pairs_apartment.vmx")
    assert "vmatrix 6 4\n" in text
    small, big = tmp_path / "small.vmx", tmp_path / "big.vmx"
    small.write_text(text)
    big.write_text(text.replace("vmatrix 6 4\n", "vmatrix 6 10000\n"))

    def cpu_seconds(path):
        best = math.inf
        for _ in range(5):
            started = time.process_time()
            assert main(["detfile", str(path), "--expected", PAPER_PRODUCT]) == 0
            best = min(best, time.process_time() - started)
        return best, capsys.readouterr().out

    small_s, small_out = cpu_seconds(small)
    big_s, big_out = cpu_seconds(big)
    assert big_out == small_out and "verified: True" in big_out
    assert big_s <= 5 * small_s, (big_s, small_s)


def test_monomials_hold_only_the_variables_that_occur(tmp_path, capsys):
    # Declaring 10,000 hyperplanes makes a ring of 20,000 variables, of
    # which the matrix and the product use 6; a monomial lists the
    # variables it holds, so none grows with the header.
    text = bundled_text("two_pairs_apartment.vmx")
    small, big = tmp_path / "small.vmx", tmp_path / "big.vmx"
    small.write_text(text)
    big.write_text(text.replace("vmatrix 6 4\n", "vmatrix 6 10000\n"))
    matrix = parse_matrix(big.read_text())
    occurring = {
        i for row in matrix.entries for e in row for i in range(e.bit_length())
        if e >> i & 1
    }
    factored = parse_expected_product(PAPER_PRODUCT, 20_000)
    assert len(occurring) == 6 and matrix.nvars == factored.nvars == 20_000
    for monomials in (
        det_symbolic(matrix).terms,
        factored.expand().terms,
        factored.factors,
    ):
        assert all(len(mono) <= len(occurring) for mono in monomials)

    outputs = []
    for path in (small, big):
        argv = ["detfile", str(path), "--json", "--expected", PAPER_PRODUCT]
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_pulled_out_counts_hold_only_the_hyperplanes_that_occur(tmp_path, capsys):
    # reduce_rows keeps a count per hyperplane that gave a factor, not a
    # slot per declared hyperplane, so 10,000 declared instead of 4 changes
    # neither the counts nor what detfile prints
    text = bundled_text("two_pairs_apartment.vmx")
    small, big = tmp_path / "small.vmx", tmp_path / "big.vmx"
    small.write_text(text)
    big.write_text(text.replace("vmatrix 6 4\n", "vmatrix 6 10000\n"))
    matrix = parse_matrix(big.read_text())
    occurring = {
        i // 2 for row in matrix.entries for e in row for i in range(e.bit_length())
        if e >> i & 1
    }
    counts = reduce_rows(matrix)[1]
    assert counts and set(counts) <= occurring
    assert counts == reduce_rows(parse_matrix(text))[1]

    outputs = []
    for path in (small, big):
        assert main(["detfile", str(path), "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_mode_help_names_the_symbolic_threshold(monkeypatch, capsys):
    # the help is built from the threshold, so it follows a change to it
    monkeypatch.setattr(cli, "DEFAULT_SYMBOLIC_THRESHOLD", 17)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["varchenko", "--help"])
    assert "auto picks symbolic up to 17 chambers" in " ".join(
        capsys.readouterr().out.split()
    )


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "first, second",
    [
        (["varchenko", "r1.arr", "--mode", "modular", "--seed", "4", "--json"],
         ["varchenko", "r1.arr", "--mode", "modular", "--json"]),
        (["verify", "two_pairs.arr", "--checks", "beta", "--json"],
         ["verify", "two_pairs.arr", "--all", "--json"]),
        (["faces", "crossing.arr", "--json"], ["verify", "crossing.arr"]),
    ],
    ids=["seed then none", "checks then all", "faces then verify"],
)
def test_reused_parser_keeps_no_state_between_calls(
    data_dir, capsys, monkeypatch, first, second
):
    monkeypatch.delenv("VARCHENKO_SEED", raising=False)
    first, second = ([argv[0], str(data_dir / argv[1]), *argv[2:]] for argv in (first, second))
    separate = []
    for argv in (first, second):
        cli._parser.cache_clear()  # as in a fresh process
        separate.append(_run(argv, capsys))
    assert separate[0] != separate[1]
    cli._parser.cache_clear()
    assert [_run(first, capsys), _run(second, capsys)] == separate
    assert build_parser() is build_parser()


def test_command_rebound_after_the_first_call_is_the_one_run(data_dir, capsys, monkeypatch):
    path = str(data_dir / "r1.arr")
    assert main(["faces", path]) == 0  # the parser is built and kept
    calls = []
    monkeypatch.setattr(cli, "cmd_faces", lambda args: calls.append(args.file) or 0)
    assert main(["faces", path, "--json"]) == 0
    assert calls == [path]


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
def test_verify_writes_results_while_the_sweep_runs(tmp_path, monkeypatch, flags):
    # when the sweep's last record is made, stdout already holds earlier ones
    path = tmp_path / "cyclic5.arr"
    path.write_text("dim 2\n" + "".join(f"{t} 1 {t * t}\n" for t in range(1, 6)))
    out = io.StringIO()
    written_before = []
    verify_factorization = cli.verify_factorization

    def noting_what_is_written(*args, **kwargs):
        written_before.append(out.tell())
        return verify_factorization(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_factorization", noting_what_is_written)
    with contextlib.redirect_stdout(out):
        assert main(["verify", str(path), "--checks", "beta,factorization",
                     "--all-apartments", *flags]) == 0
    assert written_before and written_before[-1] > 0


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    # `verify ... --json | head -c 100`: the reader goes away mid-output
    path = tmp_path / "cyclic6.arr"
    path.write_text("dim 2\n" + "".join(f"{t} 1 {t * t}\n" for t in range(1, 7)))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "varchenko.cli", "verify", str(path),
         "--checks", "beta,factorization", "--all-apartments", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(100)) == 100  # the report is far longer than a pipe holds
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert stderr == b""
