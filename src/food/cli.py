"""The food command line: check, ctx, transform, roundtrip, eval, trace, fuzz.

Program text goes to stdout, diagnostics to stderr.  Exit code 0 means the
subcommand's semantic result is success, 1 a pipeline failure, 2 a usage
error.  ``eval`` and ``trace`` exit 1 when the fuel runs out or evaluation gets
stuck.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys

from . import __version__
from .context import GlobalCtx, preprocess, restrict
from .diagnostics import FoodError
from .fuzz import GenConfig, run_properties
from .interp import DEFAULT_FUEL, Done, FuelExhausted, Stuck, eval_program, states
from .parser import parse
from .pretty import pretty, pretty_expr
from .syntax import Program, canonicalize
from .transform import transform
from .wellformed import check


class _Failure(Exception):
    def __init__(self, message: str):
        self.message = message


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _Failure(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise _Failure(f"cannot read {path}: {exc}")


def _checked(path: str) -> tuple[Program, GlobalCtx]:
    program = parse(_read(path))
    ctx = preprocess(program)
    if diags := check(program, ctx):
        raise FoodError(diags)
    return program, ctx


def _selected(arg: str | None) -> set[str] | None:
    if arg is None:
        return None
    return {name.strip() for name in arg.split(",") if name.strip()}


def _fuel(args: argparse.Namespace) -> int:
    if args.fuel is not None:
        return args.fuel
    env = os.environ.get("FOOD_FUEL")
    if env is not None:
        try:
            return _count(env)
        except argparse.ArgumentTypeError as exc:
            raise _Failure(f"FOOD_FUEL {exc}")
    return DEFAULT_FUEL


def _count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {n}")
    return n


def _probability(text: str) -> float:
    try:
        p = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}")
    if not 0.0 <= p <= 1.0:  # also false for NaN
        raise argparse.ArgumentTypeError(f"must be a probability in [0, 1], got {p}")
    return p


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _Failure(f"cannot write {out_path}: {exc.strerror}")


def _report(outcome: Done | FuelExhausted | Stuck, prefix: str) -> int:
    """Print how evaluation ended, the value after prefix, and return the exit code."""
    match outcome:
        case Done(value):
            print(prefix + pretty_expr(value, runtime=True))
            return 0
        case FuelExhausted():
            print("fuel exhausted", file=sys.stderr)
        case Stuck(reason, _):
            print(f"stuck: {reason}", file=sys.stderr)
    return 1


# -- subcommands


def _cmd_check(args: argparse.Namespace) -> int:
    _checked(args.file)
    return 0


def _cmd_ctx(args: argparse.Namespace) -> int:
    ctx = preprocess(parse(_read(args.file)))
    if args.types is not None:
        ctx = restrict(ctx, _selected(args.types) or set())
    sys.stdout.write(ctx.dump())
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    program, ctx = _checked(args.file)
    result = transform(program, _selected(args.types), ctx)
    _emit(pretty(canonicalize(result.program)), args.output)
    return 0


def _cmd_roundtrip(args: argparse.Namespace) -> int:
    program, ctx = _checked(args.file)
    selected = _selected(args.types)
    once = transform(program, selected, ctx)
    twice = transform(once.program, selected)
    expected = pretty(canonicalize(program))
    actual = pretty(canonicalize(twice.program))
    if actual == expected and once.program_type == twice.program_type:
        return 0
    diff = difflib.unified_diff(
        expected.splitlines(keepends=True),
        actual.splitlines(keepends=True),
        fromfile="canonicalized input",
        tofile="double transform",
    )
    sys.stdout.writelines(diff)
    return 1


def _cmd_eval(args: argparse.Namespace) -> int:
    program, ctx = _checked(args.file)
    return _report(eval_program(program, _fuel(args), ctx), "")


def _cmd_trace(args: argparse.Namespace) -> int:
    program, ctx = _checked(args.file)
    # print each state as the machine reaches it and keep none: a state is
    # O(depth), so only the states printed are plugged into whole terms
    for i, out in enumerate(states(program.main, ctx, _fuel(args))):
        if type(out) is tuple and (args.limit is None or i < args.limit):
            print(f"{i:4}  {pretty_expr(out[3](out[0]), runtime=True)}")
    return _report(out, "   => ")


def _cmd_fuzz(args: argparse.Namespace) -> int:
    cfg = GenConfig(seed=args.seed, diverge_prob=args.diverge_prob)
    report = run_properties(cfg, args.trials, fuel=_fuel(args))
    for t in report.trials:
        line = {"seed": t.seed, "selected": list(t.selected), "ok": t.ok}
        if not t.ok:
            line["failures"] = [{"prop": f.prop, "detail": f.detail} for f in t.failures]
            line["witness"] = t.witness
        print(json.dumps(line))
    by_prop = report.failures_by_prop()
    print(json.dumps({"trials": len(report.trials), "failed": report.failed, "failures_by_prop": by_prop}))
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="food", description=__doc__)
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def with_file(cmd: str, help_text: str) -> argparse.ArgumentParser:
        c = sub.add_parser(cmd, help=help_text)
        c.add_argument("file", help="input program, or - for standard input")
        return c

    with_file("check", "parse and check a program").set_defaults(fn=_cmd_check)

    c = with_file("ctx", "dump the preprocessed global context")
    c.add_argument("--types", help="comma-separated selected types to restrict to")
    c.set_defaults(fn=_cmd_ctx)

    c = with_file("transform", "transform the selected types")
    c.add_argument("--types", help="comma-separated selected types (default: all)")
    c.add_argument("-o", "--output", help="write the result here instead of stdout")
    c.set_defaults(fn=_cmd_transform)

    c = with_file("roundtrip", "transform twice and diff against the input")
    c.add_argument("--types", help="comma-separated selected types (default: all)")
    c.set_defaults(fn=_cmd_roundtrip)

    c = with_file("eval", "evaluate the main expression")
    c.add_argument("--fuel", type=_count, help=f"step budget (default: FOOD_FUEL or {DEFAULT_FUEL})")
    c.set_defaults(fn=_cmd_eval)

    c = with_file("trace", "print the step sequence")
    c.add_argument("--fuel", type=_count, help=f"step budget (default: FOOD_FUEL or {DEFAULT_FUEL})")
    c.add_argument("--limit", type=_count, help="print at most this many steps")
    c.set_defaults(fn=_cmd_trace)

    c = sub.add_parser("fuzz", help="generate programs and run the property battery")
    c.add_argument("--trials", type=_count, default=100)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--fuel", type=_count, help=f"step budget (default: FOOD_FUEL or {DEFAULT_FUEL})")
    c.add_argument("--diverge-prob", type=_probability, default=0.01)
    c.set_defaults(fn=_cmd_fuzz)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    where = getattr(args, "file", args.command)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a write that fails, such as to a full device, fails here at the latest
        return code
    except _Failure as exc:
        print(exc.message, file=sys.stderr)
        return 1
    except FoodError as exc:  # parse, context, check and transform diagnostics, after the file name
        lines = (f"{where}:{d.render()}" if d.line else f"{where}: {d.message}" for d in exc.diagnostics)
        print("\n".join(lines), file=sys.stderr)
        return 1
    except OSError as exc:
        # a write to stdout failed; when its reader has gone, print nothing
        # more.  What is still buffered goes to the null device, where the
        # exit's flush cannot fail
        if not isinstance(exc, BrokenPipeError):
            print(f"cannot write <stdout>: {exc.strerror}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
