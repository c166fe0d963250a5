import functools
import pathlib

from food import parse
from food.fuzz import GenConfig, gen_program
from food.syntax import Program

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

# (program, natural selected-type set) for every corpus pair member
GOLDEN_SELECTIONS = {
    "sets_oop": {"Set"},
    "sets_fp": {"Set"},
    "exp_oop": {"Exp"},
    "exp_fp": {"Exp"},
    "setlist_oop": {"Set"},
    "setlist_fp": {"Set"},
    "boolnorm_ctx_oop": {"Context"},
    "boolnorm_ctx_fp": {"Context"},
}


def corpus_text(name: str) -> str:
    return (CORPUS / f"{name}.food").read_text()


def load(name: str) -> Program:
    """Parse one corpus program."""
    return parse(corpus_text(name))


@functools.cache
def generated(cfg: GenConfig) -> Program:
    """``gen_program(cfg)``, made once per test session.

    Generation is a pure function of the frozen ``cfg`` and programs are
    immutable, so the modules that draw the same seeds share one copy.
    """
    return gen_program(cfg)


# The benchmark's eval programs, with {n} for the size.  Peano takes 7n+5
# steps to n, the countdown 5k+4 steps to k(k+1)/2, in both styles.
EVAL_TEMPLATES = {
    "peano_fp": (
        "data Nat\n"
        "case Z() extends Nat\n"
        "case S(n: Nat) extends Nat\n"
        "def count(self: Nat)(): Int = match {\n"
        "  case Z() => 0\n"
        "  case S(n) => 1 + count(n)\n"
        "}\n"
        "def build(self: Nat)(k: Int): Nat = if (k == 0) self else build(S(self))(k - 1)\n"
        "count(build(Z())({n}))\n"
    ),
    "peano_oo": (
        "interface Nat {\n"
        "  def count(): Int\n"
        "  def build(k: Int): Nat = if (k == 0) this else new S(this).build(k - 1)\n"
        "}\n"
        "class Z() implements Nat {\n"
        "  def count(): Int = 0\n"
        "}\n"
        "class S(n: Nat) implements Nat {\n"
        "  def count(): Int = 1 + n.count()\n"
        "}\n"
        "new Z().build({n}).count()\n"
    ),
    "countdown_fp": (
        "data Loop\n"
        "case Go() extends Loop\n"
        "def sum(self: Loop)(k: Int, acc: Int): Int = if (k == 0) acc else sum(self)(k - 1, acc + k)\n"
        "sum(Go())({n}, 0)\n"
    ),
    "countdown_oo": (
        "interface Loop {\n"
        "  def sum(k: Int, acc: Int): Int\n"
        "}\n"
        "class Go() implements Loop {\n"
        "  def sum(k: Int, acc: Int): Int = if (k == 0) acc else this.sum(k - 1, acc + k)\n"
        "}\n"
        "new Go().sum({n}, 0)\n"
    ),
}


def eval_source(template: str, n: int) -> str:
    return EVAL_TEMPLATES[template].replace("{n}", str(n))


def deep_body_source(n: int, leaf: str = "n") -> str:
    """A program whose one method body is ``1 + (1 + (… leaf))``, ``n`` sums deep."""
    body = "1 + (" * n + leaf + ")" * n
    return f"data D\ncase C() extends D\ndef f(self: D)(n: Int): Int = {body}\nf(C())(0)\n"
