"""Call-by-value small-step semantics, run under fuel by one machine.

A step contracts the leftmost redex: receiver before arguments, arguments left
to right.  Boolean operators short-circuit, consuming one step; integers wrap
to 64 bits.  ``_contract`` holds every contraction rule, once, and keeps the
common case cheap: an arithmetic result in int64 is not wrapped, and one in
-5..256 is a shared ``IntLit`` node, built once at import; every boolean it
computes is one of two shared ``BoolLit`` nodes; and a call binds its
receiver, fields and parameters in one dict, built in place, with no loop
over a cell that binds no fields or a member with no parameters.

The machine, ``_machine``, keeps the redex's context as a stack of frames,
so no depth of term recurses.  A frame is a compound node, its environment,
its slots and the values of those evaluated so far; it is contracted when it
has them all, and the value it contracts to goes to the frame below.  The top
frame is held in locals and the frames below it on a list; it is pushed only
while one of its slots is evaluated, so a redex whose slots are values in
place is contracted with no push (top-of-stack caching: Ertl, "Stack Caching
for Interpreters", PLDI 1995).  So no term is searched from its root and
nothing is plugged on the way to a value.  At a method call the machine has
two binding disciplines, one per entry point:

* ``run`` (so ``trace`` and the fuzzer's typed run) and ``step`` substitute
  the bindings into the body (``subst``), so every state is a closed term.
  The machine yields each state as its redex and frames; plugging the redex
  into every frame (``_read_back``, through ``syntax.with_children``) gives
  the state, at O(depth) per state.  Going on from the contractum in the
  same frames, not from the root, is refocusing (Danvy and Nielsen,
  "Refocusing in Reduction Semantics", BRICS RS-04-26, 2004).
* ``eval_program`` evaluates the body with the bindings as its environment,
  and yields only the outcome: the environment machine that Biernacka and
  Danvy, "A Concrete Framework for Environment Machines", ACM TOCL 9(1),
  2007, derive from the same reduction semantics; its target is the CEK
  machine of Felleisen and Friedman (1986).  A method body binds nothing, so
  a call's environment is exactly the mapping a substituting call
  substitutes, and code read back in its environment is ``subst(code,
  env)``.  The same rebuild reads back ``Stuck.expr`` and
  ``FuelExhausted.last``, once, at O(size).

The machine dispatches on each node's exact class, as ``children`` does,
testing ``PrimOp``, the most frequent redex, first; and it reads each method
body off its cell in the context's decomposition matrix (``context.matrix``).
Values are expressions in value form (``IntLit``,
``BoolLit`` and ``Obj``), and ``Done`` carries the final value itself.  The
nodes the machine builds are ``@node`` classes, whose constructors write their
slots directly (see ``syntax``).
"""

from __future__ import annotations

import operator
from typing import Iterator, Sequence

from .context import GlobalCtx, preprocess
from .syntax import (
    App,
    BoolLit,
    children,
    Constructor,
    CtrCall,
    Expr,
    Generator,
    If,
    IntLit,
    New,
    node,
    Obj,
    PrimOp,
    Program,
    SELF,
    Sel,
    subst,
    THIS,
    Var,
    with_children,
)

# ---------------------------------------------------------------------------
# Values and outcomes

# values are the value-form expressions; the names stay for callers
IntV, BoolV, ObjV = IntLit, BoolLit, Obj


@node
class Stepped:
    """One step taken: the next state."""

    next: Expr


@node
class Done:
    """Evaluation ended in a value."""

    value: Expr


@node
class Stuck:
    """No rule applies: why, and the expression that is stuck."""

    reason: str
    expr: Expr


@node
class FuelExhausted:
    """The fuel ran out: the last state reached."""

    last: Expr


@node
class Trace:
    """Every state of a run, in order, and how it ended."""

    steps: tuple[Expr, ...]
    outcome: Done | FuelExhausted | Stuck


_VALUE_FORMS = frozenset((IntLit, BoolLit, Obj))


# ---------------------------------------------------------------------------
# Body lookup


def dtr_body(f: str, c: str, ctx: GlobalCtx) -> tuple[tuple[str, ...], tuple[str, ...], Expr] | None:
    """Field names, parameter names and body of destructor f's cell on class C; None without one."""
    cell = ctx.cells.get((f, c))
    return None if cell is None or type(ctx.defs.get(c)) is not Generator else cell


def csm_body(f: str, c: str, ctx: GlobalCtx) -> tuple[tuple[str, ...], tuple[str, ...], Expr] | None:
    """Pattern variables, parameter names and body of consumer f's cell on constructor C; None without one."""
    cell = ctx.cells.get((f, c))
    return None if cell is None or type(ctx.defs.get(c)) is not Constructor else cell


# ---------------------------------------------------------------------------
# The contraction rules


def _wrap64(n: int) -> int:
    return (n + 2**63) % 2**64 - 2**63


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# every boolean a contraction computes is one of these two
_TRUE, _FALSE = BoolLit(True), BoolLit(False)
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {"==": operator.eq, "<=": operator.le, "<": operator.lt}
# every arithmetic result in -5..256, CPython's small-int range, is _SMALL[n + 5]
_SMALL = tuple(map(IntLit, range(-5, 257)))


# The machine tests exact classes, most frequent first, as ``children`` does:
# class patterns cost about a microsecond more per node, isinstance less.  On
# the way to a value, helper calls and allocations cost more than the rules
# (Ertl and Gregg, "The Structure and Performance of Efficient Interpreters",
# JILP 5, 2003): so an operator is looked up in _ARITH before && and || are
# tested, arithmetic returns a node of _SMALL for a result in -5..256 and
# wraps only one outside int64, comparisons, && and || return _TRUE or
# _FALSE, and a call checks arity and binds inline, skipping the field loop
# of a cell that binds none and the parameter loop of a member with none.
def _contract(e: Expr, vals: Sequence[Expr], ctx: GlobalCtx) -> Expr | tuple[Expr, dict[str, Expr] | None] | str:
    """What the redex e contracts to, given the values of its slots.

    vals starts with those values, in the order in which ``_machine``
    evaluates the slots: the receiver and then the arguments, or the
    operands, or the condition.  The answer is
    a value; or (code, mapping), the body of a call and its bindings, or
    (code, None), a subterm of e; or a str, why e is stuck.
    """
    cls = type(e)
    if cls is PrimOp:
        op, lhs = e.op, vals[0]
        arith = _ARITH.get(op)
        if arith is None and op in ("&&", "||"):
            if type(lhs) is not BoolLit:
                return f"{op} on a non-boolean"
            if op == "&&":
                return (e.rhs, None) if lhs.value else _FALSE
            return _TRUE if lhs.value else (e.rhs, None)
        rhs = vals[1]
        if type(lhs) is not IntLit or type(rhs) is not IntLit:
            return f"{op} on non-integers"
        if arith is not None:
            n = arith(lhs.value, rhs.value)
            if -5 <= n <= 256:
                return _SMALL[n + 5]
            return IntLit(n if _INT64_MIN <= n <= _INT64_MAX else _wrap64(n))
        compare = _COMPARE.get(op)
        if compare is not None:
            return _TRUE if compare(lhs.value, rhs.value) else _FALSE
        return f"unknown operator {op!r}"
    if cls is If:
        if type(vals[0]) is not BoolLit:
            return "condition of if is not a boolean"
        return (e.then if vals[0].value else e.els), None
    if cls is Sel or cls is App:
        # one rule in the two decompositions: a destructor selected on an
        # object, or a consumer applied to one
        recv, f, oo = vals[0], e.name, cls is Sel
        if type(recv) is not Obj:
            call = f"selection of {f!r} on" if oo else f"consumer {f!r} applied to"
            return f"{call} a non-object"
        found = dtr_body(f, recv.name, ctx) if oo else csm_body(f, recv.name, ctx)
        if found is None:
            member = f"destructor {f!r} on" if oo else f"consumer {f!r} covers"
            return f"no {member} {recv.name}"
        bound, params, body = found
        # defaults and wildcard clauses bind no fields, however many the object carries
        if len(params) != len(vals) - 1 or (bound and len(bound) != len(recv.args)):
            call = f"invoking {f!r} on" if oo else f"applying {f!r} to"
            return f"arity mismatch {call} {recv.name}"
        # the receiver, then its fields, then the parameters: a later binding wins
        mapping = {THIS if oo else SELF: recv}
        if bound:
            for i, name in enumerate(bound):
                mapping[name] = recv.args[i]
        if params:
            for i, name in enumerate(params, 1):
                mapping[name] = vals[i]
        return body, mapping
    if cls is CtrCall or cls is New:
        oo = cls is New
        if not isinstance(ctx.defs.get(e.name), Generator if oo else Constructor):
            return f"{e.name} is not a {'class' if oo else 'constructor'}"
        return Obj(e.name, tuple(vals))
    if cls is Var:
        return f"unbound variable {e.name!r}"
    return f"no rule applies to {type(e).__name__}"


# ---------------------------------------------------------------------------
# The machine

# the frames below the top one, which ``_machine`` holds in locals: each is
# (node, env, its slots, values of those evaluated)
Frames = list[tuple[Expr, dict[str, Expr], tuple[Expr, ...], list[Expr]]]


def _read_back(node: Expr, env: dict[str, Expr], done: list[Expr]) -> Expr:
    """node as a substituting run holds it: done in its first slots, the rest its code in env."""
    kids = children(node)
    if not env and all(map(operator.is_, done, kids)):
        return node  # after subst, every value usually sits in its slot already
    rest = kids[len(done) :]
    return with_children(node, (*done, *([subst(kid, env) for kid in rest] if env else rest)))


def _plug_all(e: Expr, frames: Frames) -> Expr:
    """The whole term: e plugged into every frame, innermost first, each read back."""
    for node, env, _, vals in reversed(frames):
        e = _read_back(node, env, [*vals, e])
    return e


def _machine(
    e: Expr, ctx: GlobalCtx, fuel: int, states: bool = True
) -> Iterator[tuple[Expr, Frames, Expr | None] | Done | FuelExhausted | Stuck]:
    """Yield (focus, frames, contractum) for each state from e on, then the outcome.

    A compound term becomes the top frame, held in locals, which takes the
    values of its slots one by one, in evaluation order, and is contracted
    when it has them all; it goes on the list of frames below only while one
    of its slots is evaluated.  A node's slots are its receiver, then its
    arguments; or its operands, or its condition.  The right operand of &&
    and || is no slot, as it belongs to the contractum.  A method call
    either substitutes its bindings into the body (``subst``), so that every
    state is a closed term; or, with states False, evaluates the body in the
    bindings as its environment, and yields only the outcome.

    The focus is the state's redex (``_read_back``), or its value at the
    end.  The contractum is what the last step contracted its redex to, None
    in the first state.  The frames change in place, so a caller plugs a
    state (``_plug_all``) before asking for the next.  A redex is
    contracted, and may be stuck, before the fuel is looked at.
    """
    frames: Frames = []
    env: dict[str, Expr] = {}
    out = None
    while True:
        # e in env: a compound term becomes the top frame, a value goes to the one popped
        cls = type(e)
        if cls is PrimOp:
            node = e
            if e.op in ("&&", "||"):
                slots, vals = (e.lhs,), []
            else:
                slots = lhs, rhs = e.lhs, e.rhs
                lhs = env.get(lhs.name) if type(lhs) is Var else lhs
                rhs = env.get(rhs.name) if type(rhs) is Var else rhs
                # integers in place: the slots are full
                vals = [lhs, rhs] if type(lhs) is IntLit and type(rhs) is IntLit else []
        elif cls is Sel or cls is App:
            node, slots, vals = e, (e.recv, *e.args), []
        elif cls is If:
            node, slots, vals = e, (e.cond,), []
        elif cls is CtrCall or cls is New:
            node, slots, vals = e, e.args, []
        else:
            v = env.get(e.name) if cls is Var else e if cls in _VALUE_FORMS else None
            if v is None:
                if states:
                    yield e, frames, out
                yield Stuck(_contract(e, (), ctx), e)
                return
            if type(v) not in _VALUE_FORMS:  # an unevaluated field of a hand-built object
                e, env = v, {}
                continue
            if not frames:
                if states:
                    yield v, frames, out
                yield Done(v)
                return
            node, env, slots, vals = frames.pop()
            vals.append(v)
        # the top frame takes its next slot, a value in place, or is pushed while
        # the slot is evaluated, or is contracted; a value goes to the frame popped
        while True:
            k = len(vals)
            if k < len(slots):
                e = slots[k]
                cls = type(e)
                if cls is Var:
                    v = env.get(e.name)
                    if v is not None and type(v) in _VALUE_FORMS:
                        vals.append(v)
                        continue
                elif cls in _VALUE_FORMS:
                    vals.append(e)
                    continue
                frames.append((node, env, slots, vals))
                break
            if states:
                yield _read_back(node, env, vals), frames, out
            out = _contract(node, vals, ctx)
            if type(out) is str:
                yield Stuck(out, _read_back(node, env, vals))
                return
            if fuel <= 0:
                yield FuelExhausted(_plug_all(_read_back(node, env, vals), frames))
                return
            fuel -= 1
            if type(out) is tuple:
                e, mapping = out
                if mapping is not None:
                    if states:
                        e = subst(e, mapping)
                    else:
                        env = mapping
                out = e
                break
            if not frames:
                if states:
                    yield out, frames, out
                yield Done(out)
                return
            node, env, slots, vals = frames.pop()
            vals.append(out)


def step(e: Expr, ctx: GlobalCtx) -> Stepped | Done | Stuck:
    """Reduce exactly one redex, or report the value / stuck state: the machine's first transition."""
    machine = _machine(e, ctx, 1)
    next(machine)
    out = next(machine)
    return Stepped(_plug_all(out[0], out[1])) if isinstance(out, tuple) else out


def run(e: Expr, ctx: GlobalCtx, fuel: int) -> Iterator[Expr | Done | FuelExhausted | Stuck]:
    """Yield each state from e on, then the outcome; at most fuel steps are taken."""
    for out in _machine(e, ctx, fuel):
        yield _plug_all(out[0], out[1]) if isinstance(out, tuple) else out


def eval_program(
    program: Program, fuel: int = 100_000, ctx: GlobalCtx | None = None
) -> Done | FuelExhausted | Stuck:
    """The outcome of iterating the step relation on the main expression at most fuel times.

    The machine computes it with environments: the contractions of ``run``,
    in the same order, each counted against the fuel.  ``Stuck.expr`` and
    ``FuelExhausted.last`` are read back into the states ``run`` ends on:
    an evaluated slot holds its value, as in the substituted term, and any
    other subterm is its code substituted with its environment, as a
    substituting call put it there.
    """
    if ctx is None:
        ctx = preprocess(program)
    return next(_machine(program.main, ctx, fuel, states=False))


def trace(program: Program, fuel: int = 100_000, ctx: GlobalCtx | None = None) -> Trace:
    """The step sequence starting at the main expression, up to value or fuel."""
    if ctx is None:
        ctx = preprocess(program)
    *steps, outcome = run(program.main, ctx, fuel)
    return Trace(tuple(steps), outcome)
