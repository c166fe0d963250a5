"""The food command line."""

import json

import pytest
from conftest import CORPUS, eval_source

from food.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(capsys):
    code, out, err = run(capsys, "check", str(CORPUS / "sets_oop.food"))
    assert code == 0 and out == "" and err == ""


def test_check_reports_diagnostics_on_stderr(capsys, tmp_path):
    bad = tmp_path / "bad.food"
    bad.write_text("def f(self: D)(): Bool = match { case _ => true case C() => false }\nx")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1 and out == ""
    assert "wildcard clause must be last" in err


def test_check_rejects_non_ascii_digit_without_traceback(capsys, tmp_path):
    bad = tmp_path / "bad.food"
    bad.write_text("1 + 2\u00b2", encoding="utf-8")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1 and out == ""
    assert "1:6: unexpected character '\u00b2'" in err
    assert "Traceback" not in err


def test_transform_matches_expected_output(capsys):
    code, out, err = run(capsys, "transform", str(CORPUS / "setlist_oop.food"), "--types", "Set")
    assert code == 0 and err == ""
    assert out == (CORPUS / "expected" / "setlist_oop.sel_set.food").read_text()


def test_transform_all_types_by_default(capsys, tmp_path):
    code, out, _ = run(capsys, "transform", str(CORPUS / "exp_oop.food"))
    assert code == 0
    assert "data Exp" in out and "case Lit(n: Int) extends Exp" in out


def test_transform_output_file(capsys, tmp_path):
    target = tmp_path / "out.food"
    code, out, _ = run(
        capsys, "transform", str(CORPUS / "sets_oop.food"), "--types", "Set", "-o", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("data Set")


def test_roundtrip_empty_diff(capsys):
    code, out, err = run(capsys, "roundtrip", str(CORPUS / "sets_fp.food"))
    assert code == 0 and out == "" and err == ""


def test_eval_prints_value(capsys):
    code, out, err = run(capsys, "eval", str(CORPUS / "exp_oop.food"))
    assert code == 0 and out == "1\n" and err == ""


def test_eval_prints_a_deep_object(capsys, tmp_path):
    # build(Z())(3000) without the count: the result is a 3000-deep object
    text = eval_source("peano_fp", 3000).replace("count(build(Z())(3000))", "build(Z())(3000)")
    source = tmp_path / "build.food"
    source.write_text(text)
    code, out, err = run(capsys, "eval", str(source))
    assert code == 0 and err == ""
    assert out == "obj(S, " * 3000 + "obj(Z)" + ")" * 3000 + "\n"


def test_eval_counts_a_deep_peano_number_in_both_styles(capsys, tmp_path):
    for style in ("peano_fp", "peano_oo"):
        source = tmp_path / f"{style}.food"
        source.write_text(eval_source(style, 3000))
        code, out, err = run(capsys, "eval", str(source))
        assert (code, out, err) == (0, "3000\n", ""), style


def test_eval_missing_file(capsys):
    code, out, err = run(capsys, "eval", "nosuch.food")
    assert code == 1 and out == ""
    assert "nosuch.food" in err


def test_eval_fuel_flag_and_env(capsys, monkeypatch):
    code, _, err = run(capsys, "eval", str(CORPUS / "sets_fp.food"), "--fuel", "1")
    assert code == 1 and "fuel exhausted" in err
    monkeypatch.setenv("FOOD_FUEL", "1")
    code, _, err = run(capsys, "eval", str(CORPUS / "sets_fp.food"))
    assert code == 1 and "fuel exhausted" in err
    monkeypatch.setenv("FOOD_FUEL", "100000")
    code, out, _ = run(capsys, "eval", str(CORPUS / "sets_fp.food"))
    assert code == 0 and out == "false\n"


def test_trace_prints_numbered_steps(capsys):
    code, out, err = run(capsys, "trace", str(CORPUS / "exp_fp.food"), "--limit", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("   0  eval(Sub(Lit(2), Lit(1)))")
    assert len([l for l in lines if not l.startswith("   =>")]) == 3
    assert lines[-1] == "   => 1"


def test_ctx_dump(capsys):
    code, out, _ = run(capsys, "ctx", str(CORPUS / "sets_fp.food"))
    assert code == 0
    assert "dt: Set" in out
    assert "csm[Set]: isEmpty, contains, insert, union" in out


def test_ctx_dump_restricted(capsys):
    code, out, _ = run(capsys, "ctx", str(CORPUS / "setlist_oop.food"), "--types", "Set")
    assert code == 0
    assert "gen[List]: -" in out and "gen[Set]: Empty, Insert, Union" in out


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("1 + 2"))
    code, out, _ = run(capsys, "eval", "-")
    assert code == 0 and out == "3\n"


def test_fuzz_reports_json_lines(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "5", "--seed", "11", "--fuel", "5000")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert len(lines) == 6  # one per trial plus a summary
    assert all(l["ok"] for l in lines[:-1])
    assert lines[-1] == {"trials": 5, "failed": 0}


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "food" in capsys.readouterr().out
