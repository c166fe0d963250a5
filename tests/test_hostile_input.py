"""Hostile input: deep nesting, odd digits, huge literals, empty, truncated and non-UTF-8 files, and a full device.

Trees are compared with ``==``, which compares every field at any depth.
"""

import os
import pathlib
import subprocess
import sys

import pytest
from conftest import CORPUS, deep_body_source

import food
from food import parse
from food.cli import main
from food.syntax import App, BoolLit, CtrCall, If, IntLit, New, PrimOp, Sel, Var


def nest(n, wrap, inner):
    for _ in range(n):
        inner = wrap(inner)
    return inner


# name: (source at depth n, the tree it parses to)
NESTINGS = {
    "parentheses": (lambda n: "(" * n + "1" + ")" * n, lambda n: IntLit(1)),
    "sums": (
        lambda n: "1 + (" * n + "1" + ")" * n,
        lambda n: nest(n, lambda e: PrimOp("+", IntLit(1), e), IntLit(1)),
    ),
    "constructors": (lambda n: "S(" * n + "1" + ")" * n, lambda n: nest(n, lambda e: CtrCall("S", (e,)), IntLit(1))),
    "objects": (
        lambda n: "new S(" * n + "1" + ")" * n,
        lambda n: nest(n, lambda e: New("S", (e,)), IntLit(1)),
    ),
    "selections": (lambda n: "x" + ".f()" * n, lambda n: nest(n, lambda e: Sel(e, "f", ()), Var("x"))),
    "receivers": (lambda n: "f(" * n + "x" + ")" * n, lambda n: nest(n, lambda e: App("f", e, ()), Var("x"))),
    "ifs": (
        lambda n: "if (true) " * n + "1" + " else 2" * n,
        lambda n: nest(n, lambda e: If(BoolLit(True), e, IntLit(2)), IntLit(1)),
    ),
}


@pytest.mark.parametrize("depth", [10**4, 10**5])
@pytest.mark.parametrize("form", sorted(NESTINGS))
def test_parse_takes_any_depth(form, depth):
    source, tree = NESTINGS[form]
    program = parse(source(depth))
    assert program.defs == () and program.main == tree(depth)


def test_same_tree_tells_trees_apart():
    assert parse("f(x)(1)").main == App("f", Var("x"), (IntLit(1),))
    assert parse("1 - 2 - 3").main != PrimOp("-", IntLit(1), PrimOp("-", IntLit(2), IntLit(3)))
    assert parse("S(1)").main != New("S", (IntLit(1),))
    assert parse("S(1, 2)").main != CtrCall("S", (IntLit(1),))


COMMANDS = ["check", "ctx", "transform", "roundtrip", "eval", "trace"]

HOSTILE_FILES = {
    "deep sums": NESTINGS["sums"][0](10**4),
    "deep constructors": NESTINGS["constructors"][0](10**4),
    "deep method body": deep_body_source(10**4),
    "arabic-indic digit": "٣",
    "superscript two": "²",
    "5000-digit literal": "1" * 5000,
    "empty": "",
    "not UTF-8": b"\xff1",
}


def run_cli(capsys, tmp_path, command, text):
    path = tmp_path / "input.food"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    code = main([command, str(path), *(["--limit", "5"] if command == "trace" else [])])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", sorted(HOSTILE_FILES))
def test_hostile_files_end_in_an_exit_code(capsys, tmp_path, command, name):
    code, out, err = run_cli(capsys, tmp_path, command, HOSTILE_FILES[name])
    assert code in (0, 1) and "Traceback" not in out + err


@pytest.mark.parametrize("command", COMMANDS)
def test_every_prefix_of_a_program_ends_in_an_exit_code(capsys, tmp_path, command):
    text = (CORPUS / "exp_fp.food").read_text()
    for n in range(len(text) + 1):
        code, out, err = run_cli(capsys, tmp_path, command, text[:n])
        assert code in (0, 1) and "Traceback" not in out + err, n


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no full device")
@pytest.mark.parametrize("command", ["ctx", "transform", "eval", "trace", "fuzz"])
def test_a_full_device_on_stdout_is_a_diagnostic(command):
    # every write to /dev/full fails with ENOSPC; the output of a small run
    # sits in stdout's buffer until the flush before exit
    argv = [sys.executable, "-m", "food.cli", command]
    argv += ["--trials", "2"] if command == "fuzz" else [str(CORPUS / "exp_fp.food")]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(food.__file__).parents[1])}
    with open("/dev/full", "w") as full:
        done = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (1, b"cannot write <stdout>: No space left on device\n")


def test_a_test_that_recurses_over_a_deep_tree_fails_quickly(tmp_path):
    # pytest compares the locals of a RecursionError's frames to find where it
    # repeats, and a frame holding a 10**5-deep node compares the whole tree;
    # the hook in conftest.py turns the error into a one-line failure first
    (tmp_path / "test_deep.py").write_text(
        "from food.syntax import IntLit, PrimOp\n"
        "def depth(e):\n"
        "    return 1 + depth(e.rhs) if type(e) is PrimOp else 0\n"
        "def test_depth():\n"
        "    e = IntLit(0)\n"
        "    for _ in range(10**5):\n"
        "        e = PrimOp('+', IntLit(1), e)\n"
        "    assert depth(e) == 10**5\n"
    )
    tests = pathlib.Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (tests, pathlib.Path(food.__file__).parents[1])))}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest", "test_deep.py"]
    done = subprocess.run(argv, capture_output=True, cwd=tmp_path, env=env, timeout=120, text=True)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout and "AssertionError: RecursionError in depth" in done.stdout
