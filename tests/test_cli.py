"""The food command line."""

import argparse
import collections
import dataclasses
import functools
import inspect
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from conftest import CORPUS, eval_source
from mutators import mutate_drop_consumer

from food import cli, fuzz, interp
from food.cli import main
from food.syntax import IntLit, Program


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(capsys):
    code, out, err = run(capsys, "check", str(CORPUS / "sets_oop.food"))
    assert code == 0 and out == "" and err == ""


MISPLACED_WILDCARD = "data D\ncase C() extends D\ndef f(self: D)(): Bool = match { case _ => true case C() => false }\n1"


def test_check_reports_diagnostics_on_stderr(capsys, tmp_path):
    bad = tmp_path / "bad.food"
    bad.write_text(MISPLACED_WILDCARD)
    code, out, err = run(capsys, "check", str(bad))
    assert (code, out, err) == (1, "", f"{bad}:3:1: consumer f on D: wildcard clause must be last\n")


def test_ctx_runs_no_checker(capsys, tmp_path):
    # ctx reports parse and context errors only; clause order is the checker's
    path = tmp_path / "misplaced.food"
    path.write_text(MISPLACED_WILDCARD)
    code, out, err = run(capsys, "ctx", str(path))
    assert code == 0 and err == "" and "csm[D]: f" in out


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


def test_roundtrip_prints_the_diff_and_exits_1(capsys, monkeypatch):
    # a double transform that loses the main expression shows as a one-line diff
    real = cli.transform

    def transform(program, selected, ctx=None):
        result = real(program, selected, ctx)
        if ctx is None:  # the second transform
            result = dataclasses.replace(result, program=Program(result.program.defs, IntLit(0)))
        return result

    monkeypatch.setattr(cli, "transform", transform)
    code, out, err = run(capsys, "roundtrip", str(CORPUS / "exp_oop.food"))
    assert code == 1 and err == ""
    assert out.startswith("--- canonicalized input\n+++ double transform\n")
    assert [line for line in out.splitlines() if line[:1] in "+-" and line[1:2] not in "+-"] == [
        "-" + (CORPUS / "exp_oop.food").read_text().splitlines()[-1],
        "+0",
    ]


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


def test_every_entry_point_defaults_to_the_one_fuel(capsys, monkeypatch):
    # interp.DEFAULT_FUEL is the default step budget of the library and of
    # the command line, and each --fuel help text prints it
    for fn in (interp.eval_program, fuzz.check_properties, fuzz.run_properties):
        assert inspect.signature(fn).parameters["fuel"].default == interp.DEFAULT_FUEL, fn.__name__
    monkeypatch.delenv("FOOD_FUEL", raising=False)
    assert cli._fuel(argparse.Namespace(fuel=None)) == interp.DEFAULT_FUEL == 100_000
    for command in ("eval", "trace", "fuzz"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "step budget (default: FOOD_FUEL or 100000)" in " ".join(capsys.readouterr().out.split()), command


@pytest.mark.parametrize("command", ["eval", "trace"])
def test_fuel_exhaustion_exits_1(capsys, command):
    code, out, err = run(capsys, command, str(CORPUS / "sets_fp.food"), "--fuel", "1")
    assert code == 1 and err == "fuel exhausted\n"
    # trace still prints each state it reached: the start and the one step taken
    assert out.count("\n") == (2 if command == "trace" else 0)


def test_trace_prints_numbered_steps(capsys):
    code, out, err = run(capsys, "trace", str(CORPUS / "exp_fp.food"), "--limit", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("   0  eval(Sub(Lit(2), Lit(1)))")
    assert len([l for l in lines if not l.startswith("   =>")]) == 3
    assert lines[-1] == "   => 1"


def test_trace_keeps_no_states(capsys, tmp_path):
    # the 4,205 states of this run, each up to 600 deep, took 36 MB when
    # the whole trace was stored before printing
    src = tmp_path / "peano.food"
    src.write_text(eval_source("peano_fp", 600))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "trace", str(src), "--limit", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    assert out == "   0  count(build(Z())(600))\n   => 600\n"
    assert peak < 4_000_000


def test_trace_plugs_only_the_states_it_prints(capsys, tmp_path, monkeypatch):
    # a state is O(depth) to plug; the outcome line needs the run's end, not its states
    plugged = []
    interp_plug_all = interp._plug_all

    def plug_all(frames, e):
        plugged.append(e)
        return interp_plug_all(frames, e)

    # every state's plug is built in interp, the one module that plugs frames
    monkeypatch.setattr(interp, "_plug_all", plug_all)
    src = tmp_path / "peano.food"
    src.write_text(eval_source("peano_fp", 600))
    code, out, err = run(capsys, "trace", str(src), "--limit", "1")
    assert (code, out, err) == (0, "   0  count(build(Z())(600))\n   => 600\n", "")
    assert len(plugged) <= 1


def nested_sum(depth, inner):
    """``1 + (1 + (… + inner))`` as printed: ``depth`` additions."""
    return "1 + (" * (depth - 1) + "1 + " + inner + ")" * (depth - 1)


@pytest.mark.parametrize("command", ["check", "ctx", "transform", "roundtrip", "eval", "trace"])
def test_deeply_nested_input_gives_its_real_output(capsys, tmp_path, command):
    # every subcommand gives its real output at any depth of expression; the
    # trace stops after two 3,000-deep states, as all 3,001 print 27 MB
    source = tmp_path / "deep.food"
    source.write_text("1 + (" * 3000 + "1" + ")" * 3000 + "\n")
    code, out, err = run(capsys, command, str(source), *(["--limit", "2"] if command == "trace" else []))
    expected = {
        "check": "",
        "ctx": "dt: -\nit: -\n",
        "transform": nested_sum(3000, "1") + "\n",
        "roundtrip": "",
        "eval": "3001\n",
        "trace": f"   0  {nested_sum(3000, '1')}\n   1  {nested_sum(2999, '2')}\n   => 3001\n",
    }
    assert (code, out, err) == (0, expected[command], "")


def test_trace_prints_every_deep_state(capsys, tmp_path):
    # the states of count(build(Z())(400)) grow 400 deep before counting down;
    # every one prints, 7n + 5 = 2,805 steps
    source = tmp_path / "peano.food"
    source.write_text(eval_source("peano_fp", 400))
    code, out, err = run(capsys, "trace", str(source))
    lines = out.splitlines()
    assert (code, err) == (0, "") and len(lines) == 2807
    assert lines[0] == "   0  count(build(Z())(400))" and lines[-1] == "   => 400"
    assert max(map(len, lines)) > 400 * len("S(")


@pytest.mark.parametrize("command", ["eval", "transform", "roundtrip"])
def test_a_deep_method_body_gives_its_real_output(capsys, tmp_path, command):
    # eval binds a call's environment and evaluates its body on a stack of frames,
    # and the transformation renames the receiver as it types the body, in
    # one fold: both take any depth
    source = tmp_path / "deep_body.food"
    body = "1 + (" * 3000 + "n" + ")" * 3000
    source.write_text(f"data D\ncase C() extends D\ndef f(self: D)(n: Int): Int = {body}\nf(C())(1)\n")
    assert run(capsys, "check", str(source)) == (0, "", "")
    printed = "1 + (" * 2999 + "1 + n" + ")" * 2999
    interface = f"interface D {{\n  def f(n: Int): Int = {printed}\n}}\nclass C() implements D {{}}\nnew C().f(1)\n"
    expected = {
        "eval": (0, "3001\n", ""),
        "transform": (0, interface, ""),
        "roundtrip": (0, "", ""),
    }
    assert run(capsys, command, str(source)) == expected[command]


@pytest.mark.parametrize("fuel", [0, 1, 2, 3, 4, None])
def test_a_deep_body_read_back_when_the_fuel_runs_out(capsys, tmp_path, fuel):
    # the fuel runs out on g(C()) at 2 and 3, with the deep right operand
    # unevaluated: the stopped state is read back by subst, a fold
    source = tmp_path / "deep_read_back.food"
    body = "g(C())() + " + nested_sum(3000, "n")
    source.write_text(
        f"data D\ncase C() extends D\ndef g(self: D)(): Int = 1\ndef f(self: D)(n: Int): Int = {body}\nf(C())(1)\n"
    )
    expected = (0, "3002\n", "") if fuel is None else (1, "", "fuel exhausted\n")
    assert run(capsys, "eval", str(source), *([] if fuel is None else ["--fuel", str(fuel)])) == expected


def test_trace_rejects_a_negative_limit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", str(CORPUS / "exp_fp.food"), "--limit", "-1"])
    assert exc.value.code == 2
    assert "must not be negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("fuzz", "--trials", "-3"), "argument --trials: must not be negative, got -3"),
        (("fuzz", "--trials", "1", "--fuel", "-5"), "argument --fuel: must not be negative, got -5"),
        (("eval", str(CORPUS / "sets_fp.food"), "--fuel", "-5"), "argument --fuel: must not be negative, got -5"),
        (("trace", str(CORPUS / "sets_fp.food"), "--fuel", "-5"), "argument --fuel: must not be negative, got -5"),
        (("fuzz", "--trials", "abc"), "argument --trials: must be an integer, got 'abc'"),
        (("fuzz", "--diverge-prob", "-1"), "argument --diverge-prob: must be a probability in [0, 1], got -1.0"),
        (("fuzz", "--diverge-prob", "2"), "argument --diverge-prob: must be a probability in [0, 1], got 2.0"),
        (("fuzz", "--diverge-prob", "nan"), "argument --diverge-prob: must be a probability in [0, 1], got nan"),
        (("fuzz", "--diverge-prob", "abc"), "argument --diverge-prob: must be a number, got 'abc'"),
    ],
)
def test_bad_counts_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_negative_fuel_from_the_environment_fails(capsys, monkeypatch):
    monkeypatch.setenv("FOOD_FUEL", "-5")
    code, out, err = run(capsys, "eval", str(CORPUS / "sets_fp.food"))
    assert (code, out, err) == (1, "", "FOOD_FUEL must not be negative, got -5\n")
    monkeypatch.setenv("FOOD_FUEL", "five")
    code, out, err = run(capsys, "eval", str(CORPUS / "sets_fp.food"))
    assert (code, out, err) == (1, "", "FOOD_FUEL must be an integer, got 'five'\n")


def test_ctx_dump(capsys):
    code, out, _ = run(capsys, "ctx", str(CORPUS / "sets_fp.food"))
    assert code == 0
    assert "dt: Set" in out
    assert "csm[Set]: isEmpty, contains, insert, union" in out


def test_ctx_dump_restricted(capsys):
    code, out, _ = run(capsys, "ctx", str(CORPUS / "setlist_oop.food"), "--types", "Set")
    assert code == 0
    assert "gen[List]: -" in out and "gen[Set]: Empty, Insert, Union" in out


def test_ctx_diagnostics_name_the_file(capsys, tmp_path):
    bad = tmp_path / "twice.food"
    bad.write_text("data D\ndata D\n1")
    code, out, err = run(capsys, "ctx", str(bad))
    assert (code, out, err) == (1, "", f"{bad}:2:1: duplicate definition of D\n")


@pytest.mark.parametrize("command", ["transform", "roundtrip"])
def test_unknown_selected_type_names_the_file(capsys, command):
    path = CORPUS / "sets_fp.food"
    code, out, err = run(capsys, command, str(path), "--types", "Nope")
    assert (code, out, err) == (1, "", f"{path}: unknown selected type Nope\n")


@pytest.mark.parametrize(
    "main, message", [("x", "unbound variable 'x'"), ("1 + true", "true has type Bool, expected Int")]
)
def test_a_main_expression_type_error_names_the_file(capsys, tmp_path, main, message):
    path = tmp_path / "t.food"
    path.write_text(main + "\n")
    assert run(capsys, "check", str(path)) == (1, "", f"{path}: {message}\n")


def test_python_m_food_runs_the_command_line():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "food", "eval", str(CORPUS / "sets_oop.food")]
    done = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"false\n", b"")


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"1 + 2")))
    code, out, _ = run(capsys, "eval", "-")
    assert code == 0 and out == "3\n"


@pytest.mark.parametrize("where", ["file", "stdin"])
def test_input_that_is_not_utf8_is_a_diagnostic(capsys, monkeypatch, tmp_path, where):
    path = tmp_path / "latin1.food"
    path.write_bytes(b"\xff1")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff1")))
    name = str(path) if where == "file" else "-"
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert run(capsys, "check", name) == (1, "", f"cannot read {name}: {reason}\n")


def test_unwritable_output_is_a_diagnostic(capsys, tmp_path):
    target = tmp_path / "missing" / "out.food"
    code, out, err = run(capsys, "transform", str(CORPUS / "sets_oop.food"), "-o", str(target))
    assert (code, out, err) == (1, "", f"cannot write {target}: No such file or directory\n")


def test_a_closed_pipe_ends_quietly(tmp_path):
    # the reader takes one line of a long trace and closes the pipe; the next
    # write fails with EPIPE, and food prints nothing more
    source = tmp_path / "peano.food"
    source.write_text(eval_source("peano_fp", 400))
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "food.cli", "trace", str(source)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (first, code, err) == (b"   0  count(build(Z())(400))\n", 1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no full device")
def test_a_full_device_is_a_diagnostic():
    # a write error other than a closed pipe is reported once, on stderr
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "food", "eval", str(CORPUS / "sets_oop.food")]
    with open("/dev/full", "w") as full:
        done = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (1, b"cannot write <stdout>: No space left on device\n")


def test_fuzz_reports_json_lines(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "5", "--seed", "11", "--fuel", "5000")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert len(lines) == 6  # one per trial plus a summary
    assert all(l["ok"] for l in lines[:-1])
    assert lines[-1] == {"trials": 5, "failed": 0, "failures_by_prop": {}}


def test_fuzz_runs_looping_programs(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "5", "--seed", "1", "--diverge-prob", "1")
    *trials, summary = [json.loads(l) for l in out.splitlines()]
    assert code == 0 and len(trials) == 5 and all(t["ok"] for t in trials)
    assert summary == {"trials": 5, "failed": 0, "failures_by_prop": {}}


def test_fuzz_summary_counts_failures_by_property(capsys, monkeypatch):
    # a mutation of every transformed program makes trials fail; the summary
    # counts each property's failures over the trial lines
    mutated = functools.partial(fuzz.run_properties, mutate=mutate_drop_consumer)
    monkeypatch.setattr(cli, "run_properties", mutated)
    code, out, _ = run(capsys, "fuzz", "--trials", "5", "--seed", "11", "--fuel", "5000")
    *trials, summary = [json.loads(l) for l in out.splitlines()]
    by_prop = collections.Counter(f["prop"] for t in trials for f in t.get("failures", ()))
    assert code == 1 and summary["trials"] == 5
    assert summary["failed"] == sum(not t["ok"] for t in trials) > 0
    assert summary["failures_by_prop"] == dict(by_prop) and by_prop["wf-preservation"] > 0


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "food" in capsys.readouterr().out
