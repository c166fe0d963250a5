"""A fixed pure-Python kernel that measures how fast the machine runs right now.

The benchmark's host is a shared 2-vCPU guest whose speed moves in phases of
seconds to minutes, by up to 1.8x, with CPU time equal to wall time (no steal
to subtract).  Sampled between items, this kernel tracks those phases, and the
benchmark divides each item's time by the kernel's slowdown against
``REFERENCE_S``.  The kernel does the kind of work ``food`` does -- frozen
dataclasses, structural pattern matching, recursion, hashing and string
building -- and uses none of ``food``'s code, so a change to ``food`` cannot
move it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

# about the median kernel time on the host the baseline was measured on; a
# constant, so that scaled figures from different runs and commits compare
REFERENCE_S = 0.0025
REPEATS = 3


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Add:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Mul:
    lhs: object
    rhs: object


def build(depth: int, seed: int):
    if depth == 0:
        return Num(seed % 7)
    left, right = build(depth - 1, seed * 3 + 1), build(depth - 1, seed * 5 + 2)
    return Add(left, right) if seed % 3 else Mul(left, right)


def simplify(e):
    match e:
        case Add(Num(0), x) | Add(x, Num(0)) | Mul(Num(1), x) | Mul(x, Num(1)):
            return simplify(x)
        case Mul(Num(0), _) | Mul(_, Num(0)):
            return Num(0)
        case Add(lhs, rhs):
            return Add(simplify(lhs), simplify(rhs))
        case Mul(lhs, rhs):
            return Mul(simplify(lhs), simplify(rhs))
    return e


def show(e) -> str:
    match e:
        case Num(value):
            return str(value)
        case Add(lhs, rhs):
            return f"({show(lhs)} + {show(rhs)})"
        case Mul(lhs, rhs):
            return f"{show(lhs)} * {show(rhs)}"
    raise TypeError(e)


def once() -> float:
    start = perf_counter()
    for seed in range(4):
        tree = build(6, seed)
        seen = {tree: show(simplify(tree))}
        if len(seen[tree]) == 0:
            raise AssertionError("kernel printed nothing")
    return perf_counter() - start


def sample() -> float:
    """Seconds the kernel takes now: the least of a few back-to-back runs."""
    return min(once() for _ in range(REPEATS))
