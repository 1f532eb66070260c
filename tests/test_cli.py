import hashlib
import json

import pytest

from thetasums.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_examples(capsys):
    code, out, _ = run(capsys, "expand", "Y(q)", "--order", "10")
    assert code == 0
    assert out.strip() == "0:1 1:1 5:1 8:1"

    code, out, _ = run(capsys, "expand", "phi(q)^2", "--order", "6")
    assert code == 0
    assert out.strip() == "0:1 1:4 2:4 4:4 5:8"

    code, out, _ = run(capsys, "expand", "f(q,q^2)", "--order", "8")
    assert code == 0
    assert out.strip() == "0:1 1:1 2:1 5:1 7:1"


@pytest.mark.parametrize(
    "expression, order, human, report",
    [
        (
            "0",
            "10",
            "\n",
            '{"schema": "thetasums-report/1", "config": {"order": 10}, "expression": "0", '
            '"coefficients": []}\n',
        ),
        (
            "3*q^2*phi(q)^2*f(q^0, q^3)",
            "16",
            "2:6 3:24 4:24 5:6 6:48 7:72 9:24 10:72 11:30 12:72 13:48 14:24 15:120\n",
            '{"schema": "thetasums-report/1", "config": {"order": 16}, '
            '"expression": "3*q^2*phi(q)^2*f(q^0, q^3)", "coefficients": '
            "[[2, 6], [3, 24], [4, 24], [5, 6], [6, 48], [7, 72], [9, 24], [10, 72], "
            "[11, 30], [12, 72], [13, 48], [14, 24], [15, 120]]}\n",
        ),
    ],
    ids=["zero", "scaled-shifted-power-unit-argument"],
)
def test_expand_output_is_pinned(capsys, expression, order, human, report):
    assert run(capsys, "expand", expression, "--order", order) == (0, human, "")
    assert run(capsys, "expand", expression, "--order", order, "--format", "report") == (
        0,
        report,
        "",
    )


def test_expand_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "expand", "phi(q")
    assert code == 2
    assert "expected" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("expand", "phi(q^\u00b2)"), "error: line 1, cols 7-7: unexpected character '\u00b2'\n"),
        (("universal", "p3 + p\u0663"), "error: line 1, cols 7-7: unexpected character '\u0663'\n"),
        (("equiv", "p3", "p\u00e9"), "error: line 1, cols 2-2: unexpected character '\u00e9'\n"),
        (
            ("universal", "p" + "9" * 5000),
            "error: line 1, cols 2-5001: polygonal order has too many digits\n",
        ),
    ],
    ids=["superscript-exponent", "arabic-indic-order", "accented-letter", "over-long-order"],
)
def test_literals_outside_the_grammar_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", message)


def test_expand_report_format(capsys):
    code, out, _ = run(capsys, "expand", "Y(q)", "--order", "10", "--format", "report")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == [[0, 1], [1, 1], [5, 1], [8, 1]]


def test_verify_single_key(capsys):
    code, out, _ = run(capsys, "verify", "eq-2.12", "--order", "500")
    assert code == 0
    assert "PASS" in out

    code, out, _ = run(capsys, "verify", "Q17", "--order", "600")
    assert code == 0


def test_verify_unknown_key_exits_2(capsys):
    code, _, err = run(capsys, "verify", "eq-9.99")
    assert code == 2
    assert "unknown catalog key" in err


def test_verify_all_small_order(capsys):
    code, out, _ = run(capsys, "verify", "all", "--order", "150", "--bound", "1500")
    assert code == 0
    assert "0 failed" in out


def test_verify_catalog_file_argument(tmp_path, capsys):
    path = tmp_path / "extra.cat"
    path.write_text(
        '[local-check] kind: identity ref: "local"\n'
        "lhs: phi(q)\nrhs: phi(q^4) + 2*q*psi(q^8)\n"
    )
    code, out, _ = run(capsys, "verify", "all", "--catalog", str(path), "--order", "200")
    assert code == 0
    assert "local-check" in out

    # A bare .cat path is not a catalog selector.
    code, _, err = run(capsys, "verify", str(path), "--order", "200")
    assert code == 2
    assert "unknown catalog key" in err


def test_verify_failure_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.cat"
    path.write_text(
        '[broken] kind: identity ref: "local"\n'
        "lhs: phi(q)\nrhs: phi(q^4) + q*psi(q^8)\n"
    )
    code, out, _ = run(capsys, "verify", "all", "--catalog", str(path), "--order", "100")
    assert code == 1
    assert "first difference at q^1" in out


def test_an_unreadable_catalog_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.cat"
    path.write_bytes(b'[x] kind: base-fact ref: "\xff"\nsum: p3 + p3 + p3\n')
    code, out, err = run(capsys, "verify", "all", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: not UTF-8 text (invalid start byte at byte 26)\n"


def test_universal_examples(capsys):
    code, out, _ = run(capsys, "universal", "p5 + p5 + p5 + 4*p5", "--bound", "50000")
    assert code == 0
    assert "universal up to 50000" in out

    code, out, _ = run(capsys, "universal", "2*p4+2*p4+2*p4+2*p4", "--bound", "500")
    assert code == 1
    assert "missing 1" in out

    code, out, _ = run(capsys, "universal", "p3+p3+p3", "--bound", "20000")
    assert code == 0


def test_universal_report_format(capsys):
    code, out, _ = run(
        capsys, "universal", "2*p4+2*p4+2*p4+2*p4", "--bound", "100",
        "--format", "report",
    )
    assert code == 1
    data = json.loads(out)
    assert data["universal_up_to_bound"] is False
    assert data["missing_head"][0] == 1
    assert data["config"]["bound"] == 100


def test_universal_report_at_a_large_bound(capsys):
    code, out, _ = run(
        capsys, "universal", "2*p4+2*p4+2*p4+2*p4", "--bound", "200000",
        "--format", "report",
    )
    assert code == 1
    data = json.loads(out)
    assert data["missing_count"] == 100000
    assert data["missing_head"] == list(range(1, 40, 2))


def test_equiv_examples(capsys):
    code, out, _ = run(capsys, "equiv", "p3+p3", "p4+2*p3", "--bound", "20000")
    assert code == 0
    assert "equal" in out

    code, out, _ = run(capsys, "equiv", "p4+p3", "p5+2*p5", "--bound", "20000")
    assert code == 0

    code, out, _ = run(capsys, "equiv", "p3", "p4", "--bound", "100")
    assert code == 1
    assert "differ at 3" in out


def test_reproduce_row_counts(capsys):
    code, out, _ = run(capsys, "reproduce", "thm3.2", "--order", "300",
                       "--bound", "3000")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(rows) == 13

    code, out, _ = run(capsys, "reproduce", "thm3.4", "--order", "100",
                       "--bound", "2000")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(rows) == 26


def test_reproduce_report_format(capsys):
    code, out, _ = run(capsys, "reproduce", "thm3.3", "--order", "200",
                       "--bound", "2000", "--format", "report")
    assert code == 0
    data = json.loads(out)
    assert data["summary"] == {"pass": 16, "fail": 0}
    assert all(r["key"].startswith("thm3.3") for r in data["rows"])
    keys = [r["key"] for r in data["rows"]]
    assert keys == sorted(keys)


def test_reproduce_all_report_is_byte_identical(capsys):
    # The report contract: at the default order and bound, every catalog
    # row and its detail text, byte for byte.  A change that moves this
    # digest changes what a run reports.
    code, out, err = run(capsys, "reproduce", "all", "--format", "report")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3f454a55cc913af1e6016e9f0f51faaf7651b314513396a17ad4fc178605fdc2"
    )


def test_reproduce_parallel_workers(capsys):
    # The worker pool is gone: --workers is a usage error and one process
    # prints the rows in key order.
    with pytest.raises(SystemExit) as info:
        main(["reproduce", "thm3.2", "--workers", "2"])
    assert info.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "reproduce", "thm3.2", "--order", "200",
                       "--bound", "2000")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("PASS")]
    assert rows == sorted(rows)


def test_reproduce_catalog_option(tmp_path, capsys):
    path = tmp_path / "mini.cat"
    path.write_text('[only] kind: base-fact ref: "x"\nsum: p3 + p3 + p3\n')
    code, out, _ = run(capsys, "reproduce", "all", "--catalog", str(path),
                       "--bound", "2000")
    assert code == 0
    assert out.splitlines()[0].startswith("PASS  only")
    assert "1 passed, 0 failed" in out


def test_a_repeated_key_across_files_exits_2(tmp_path, capsys):
    (tmp_path / "a.cat").write_text('[x] kind: base-fact ref: "x"\nsum: p3 + p3 + p3\n')
    (tmp_path / "b.cat").write_text('\n[x] kind: base-fact ref: "x"\nsum: p4 + p4 + p4 + p4\n')
    code, out, err = run(capsys, "reproduce", "all", "--catalog", str(tmp_path),
                         "--bound", "2000")
    assert code == 2
    assert out == ""
    assert err == "error: b.cat:2: duplicate catalog key 'x', first at a.cat:1\n"


@pytest.mark.parametrize(
    "command, catalog, message",
    [
        (("reproduce", "all"), "empty", "no *.cat files"),
        (("reproduce", "thm3.1"), "mini.cat", "error: no catalog entries selected"),
        (("verify", "all"), "mini.cat", "error: no catalog entries selected"),
    ],
    ids=["reproduce-empty-dir", "reproduce-no-match", "verify-no-match"],
)
def test_runs_that_select_nothing_exit_2(tmp_path, capsys, command, catalog, message):
    (tmp_path / "empty").mkdir()
    (tmp_path / "mini.cat").write_text('[only] kind: base-fact ref: "x"\nsum: p3 + p3 + p3\n')
    code, out, err = run(capsys, *command, "--catalog", str(tmp_path / catalog),
                         "--bound", "2000")
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("expand", "phi(q)", "--order", "1"), "order must be >= 2"),
        (("universal", "p3 + p3", "--bound", "0"), "bound must be >= 1"),
        (("equiv", "p3", "p3", "--bound", "0"), "bound must be >= 1"),
        (("verify", "all", "--order", "1"), "need order >= 2 and bound >= 1"),
        (("universal", "p2", "--bound", "0"), "line 1, cols 1-1: polygonal order 2 < 3"),
        (
            ("reproduce", "all", "--bound", "0", "--catalog", "{missing}"),
            "need order >= 2 and bound >= 1",
        ),
        (("verify", "all", "Q1"), "'all' takes no other keys"),
        (
            ("reproduce", "all", "--catalog", "{long_via}"),
            "long-via.cat:3: [t]: via residue term has too many digits",
        ),
        (
            ("reproduce", "all", "--catalog", "{long_modulus}"),
            "long-modulus.cat:3: [d]: modulus has too many digits",
        ),
        (
            ("expand", "phi(q)^99999999999999999999"),
            "line 1, cols 8-27: product term has more than 256 atoms",
        ),
    ],
    ids=[
        "expand-order", "universal-bound", "equiv-bound", "verify-order",
        "parse-error-before-bound", "bound-before-missing-catalog", "verify-all-and-a-key",
        "over-long-via-residue", "over-long-modulus", "atom-power-past-the-cap",
    ],
)
def test_a_bad_argument_value_is_one_error_line(tmp_path, capsys, argv, message):
    long_via = tmp_path / "long-via.cat"
    long_via.write_text("[t] kind: target-sum\nsum: p3 + p3 + p3\nvia: Q1 r" + "9" * 5000 + "\n")
    long_modulus = tmp_path / "long-modulus.cat"
    long_modulus.write_text(
        "[d] kind: decomposition\nlhs: phi(q)^3\nmodulus: " + "9" * 5000 + "\nrhs: phi(q)^3\n"
    )
    argv = [
        a.format(missing=tmp_path / "missing", long_via=long_via, long_modulus=long_modulus)
        for a in argv
    ]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["reproduce", "thm9.9"])
    assert info.value.code == 2
