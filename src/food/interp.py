"""Call-by-value small-step semantics, run under fuel by one machine.

A step contracts the leftmost redex: receiver before arguments, arguments left
to right.  Boolean operators short-circuit, consuming one step; integers wrap
to 64 bits.  The machine writes every contraction rule once, in its loop, and
keeps the common case cheap: an arithmetic result in int64 is not wrapped, and
one in -5..256 is one of the ``IntLit`` nodes ``syntax`` shares, which the
parser reads too; every boolean it computes is ``syntax.TRUE`` or ``FALSE``;
and a call binds its receiver, fields and parameters in one dict, built in
place, with no loop over a cell that binds no fields or a member with no
parameters.

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

* ``states``, the public stream that ``run``, ``step``, ``food trace`` and
  the fuzzer's typed run consume, substitutes the bindings into the body
  (``subst``), so every state is a closed term.  A state is its redex, the
  contractum of the step that reached it, its depth (the frames below the
  redex) and its plug, the context: ``plug(redex)`` builds the whole term,
  plugging the redex into every frame, each by one ``syntax.with_children``
  call on its values (``_read_back``), at O(depth).  The frames change in
  place, so a plug is valid only until the next state is taken, and a state
  is kept by plugging it.  Going on from the contractum in the same frames,
  not from the root, is refocusing (Danvy and Nielsen, "Refocusing in
  Reduction Semantics", BRICS RS-04-26, 2004): evaluation is the stream of
  decompositions.
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
Values are expressions in value form (``IntLit``, ``BoolLit`` and ``Obj``),
and ``Done`` carries the final value itself.  An outcome counts its steps, k,
in a field that takes no part in ``==`` or ``repr``; ``states`` yields k + 1
states before it.  The nodes the machine builds are ``@node`` classes, whose
constructors write their slots directly (see ``syntax``).
"""

from __future__ import annotations

import operator
from dataclasses import field
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Sequence

from .context import GlobalCtx, preprocess
from .syntax import (
    App,
    BoolLit,
    children,
    Constructor,
    CtrCall,
    Expr,
    FALSE as _FALSE,
    Generator,
    If,
    INT64_MAX,
    INT64_MIN,
    IntLit,
    New,
    node,
    Obj,
    PrimOp,
    Program,
    SELF,
    Sel,
    SMALL_INTS as _SMALL,
    subst,
    THIS,
    TRUE as _TRUE,
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
    """Evaluation ended in a value; steps counts the steps taken."""

    value: Expr
    steps: int = field(default=0, compare=False, repr=False)


@node
class Stuck:
    """No rule applies: why, and the expression that is stuck; steps counts the steps taken."""

    reason: str
    expr: Expr
    steps: int = field(default=0, compare=False, repr=False)


@node
class FuelExhausted:
    """The fuel ran out: the last state reached; steps counts the steps taken, all the fuel."""

    last: Expr
    steps: int = field(default=0, compare=False, repr=False)


_VALUE_FORMS = frozenset((IntLit, BoolLit, Obj))
DEFAULT_FUEL = 100_000  # the step budget of every entry point that takes one, and of the food command


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
# The tables of the contraction rules, which ``_machine`` writes once, in its
# loop: on the way to a value, calls and allocations cost more than the rules
# (Ertl and Gregg, "The Structure and Performance of Efficient Interpreters",
# JILP 5, 2003), so a redex is contracted with no call and no result to test.
# The machine tests exact classes, most frequent first, as ``children`` does:
# class patterns cost about a microsecond more per node, isinstance less.  An
# operator is looked up in _ARITH before && and || are tested.


def _wrap64(n: int) -> int:
    return (n + 2**63) % 2**64 - 2**63


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {"==": operator.eq, "<=": operator.le, "<": operator.lt}


# ---------------------------------------------------------------------------
# The machine

# the frames below the top one, which ``_machine`` holds in locals: each is
# (node, env, its slots, values of those evaluated)
Frames = list[tuple[Expr, dict[str, Expr], tuple[Expr, ...], list[Expr]]]
# a state of the stream: (redex, contractum of the step to it, depth, plug)
State = tuple[Expr, Expr | None, int, Callable[[Expr], Expr]]


def _read_back(node: Expr, env: dict[str, Expr], done: Sequence[Expr]) -> Expr:
    """done in node's first slots, by one ``with_children`` call; in an env, the rest listed and substituted."""
    if env:
        done = (*done, *[subst(kid, env) for kid in children(node)[len(done) :]])
    return with_children(node, done)


def _plug_all(frames: Frames, e: Expr) -> Expr:
    """The whole term: e plugged into every frame, innermost first, each read back."""
    for node, env, _, vals in reversed(frames):
        e = _read_back(node, env, [*vals, e])
    return e


def _machine(e: Expr, ctx: GlobalCtx, fuel: int, stream: bool = True) -> Iterator[State | Done | FuelExhausted | Stuck]:
    """Yield each state from e on, as ``states`` describes, then the outcome.

    A compound term becomes the top frame, held in locals, which takes the
    values of its slots one by one, in evaluation order, and is contracted
    when it has them all; it goes on the list of frames below only while one
    of its slots is evaluated.  A node's slots are its receiver, then its
    arguments; or its operands, or its condition.  The right operand of &&
    and || is no slot, as it belongs to the contractum.  A method call
    either substitutes its bindings into the body (``subst``), so that every
    state is a closed term; or, with stream False, evaluates the body in the
    bindings as its environment, and yields only the outcome.

    A state's redex is its top frame read back (``_read_back``), or the value
    at the end, and its plug is ``_plug_all`` over the frames, which change
    in place.  A redex is contracted, and may be stuck, before the fuel is
    looked at; each outcome counts the steps taken, the fuel spent.
    """
    frames: Frames = []
    env: dict[str, Expr] = {}
    out = stuck = None  # a stuck reason ends the run, so it is set once
    start = fuel
    plug = partial(_plug_all, frames)
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
                if stream:
                    yield e, out, len(frames), plug
                stuck = f"unbound variable {e.name!r}" if cls is Var else f"no rule applies to {cls.__name__}"
                yield Stuck(stuck, e, start - fuel)
                return
            if type(v) not in _VALUE_FORMS:  # an unevaluated field of a hand-built object
                e, env = v, {}
                continue
            if not frames:
                if stream:
                    yield v, out, 0, plug
                yield Done(v, start - fuel)
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
            if stream:
                yield _read_back(node, env, vals), out, len(frames), plug
            # the rules: the redex contracts to a value, out; or to code, a subterm
            # or a call's body with its bindings, mapping; or it is stuck, and why
            cls, code, mapping = type(node), None, None
            if cls is PrimOp:
                op, lhs = node.op, vals[0]
                arith = _ARITH.get(op)
                if arith is None and op in ("&&", "||"):
                    if type(lhs) is not BoolLit:
                        stuck = f"{op} on a non-boolean"
                    elif (op == "&&") == bool(lhs.value):  # true && r and false || r go on with r
                        code = node.rhs
                    else:
                        out = _FALSE if op == "&&" else _TRUE
                elif type(lhs) is not IntLit or type(vals[1]) is not IntLit:
                    stuck = f"{op} on non-integers"
                elif arith is not None:
                    n = arith(lhs.value, vals[1].value)
                    out = _SMALL[n + 5] if -5 <= n <= 256 else IntLit(n if INT64_MIN <= n <= INT64_MAX else _wrap64(n))
                elif (compare := _COMPARE.get(op)) is not None:
                    out = _TRUE if compare(lhs.value, vals[1].value) else _FALSE
                else:
                    stuck = f"unknown operator {op!r}"
            elif cls is If:
                if type(vals[0]) is not BoolLit:
                    stuck = "condition of if is not a boolean"
                else:
                    code = node.then if vals[0].value else node.els
            elif cls is Sel or cls is App:
                # one rule in the two decompositions: a destructor selected on an
                # object, or a consumer applied to one
                recv, f, oo = vals[0], node.name, cls is Sel
                if type(recv) is not Obj:
                    call = f"selection of {f!r} on" if oo else f"consumer {f!r} applied to"
                    stuck = f"{call} a non-object"
                elif (found := dtr_body(f, recv.name, ctx) if oo else csm_body(f, recv.name, ctx)) is None:
                    member = f"destructor {f!r} on" if oo else f"consumer {f!r} covers"
                    stuck = f"no {member} {recv.name}"
                else:
                    fields, params, body = found
                    # defaults and wildcard clauses bind no fields, however many the object carries
                    if len(params) != len(vals) - 1 or (fields and len(fields) != len(recv.args)):
                        call = f"invoking {f!r} on" if oo else f"applying {f!r} to"
                        stuck = f"arity mismatch {call} {recv.name}"
                    else:
                        # the receiver, then its fields, then the parameters: a later binding wins
                        code, mapping = body, {THIS if oo else SELF: recv}
                        if fields:
                            for i, name in enumerate(fields):
                                mapping[name] = recv.args[i]
                        if params:
                            for i, name in enumerate(params, 1):
                                mapping[name] = vals[i]
            else:  # CtrCall or New, the other forms a frame holds
                oo = cls is New
                if not isinstance(ctx.defs.get(node.name), Generator if oo else Constructor):
                    stuck = f"{node.name} is not a {'class' if oo else 'constructor'}"
                else:
                    out = Obj(node.name, tuple(vals))
            if stuck is not None:
                yield Stuck(stuck, _read_back(node, env, vals), start - fuel)
                return
            if fuel <= 0:
                yield FuelExhausted(_plug_all(frames, _read_back(node, env, vals)), start - fuel)
                return
            fuel -= 1
            if code is not None:
                if mapping is not None:
                    if stream:
                        code = subst(code, mapping)
                    else:
                        env = mapping
                e = out = code
                break
            if not frames:  # the value ends the run, as a value term does
                e = out
                break
            node, env, slots, vals = frames.pop()
            vals.append(out)


def states(e: Expr, ctx: GlobalCtx, fuel: int) -> Iterator[State | Done | FuelExhausted | Stuck]:
    """Yield each state from e on, then the outcome; at most fuel steps are taken.

    A state is (redex, contractum, depth, plug).  The redex is the subterm the
    next step contracts, or the value or stuck term the run ends on; the
    contractum is what the step to this state contracted its redex to, None
    in the first state; the depth is the number of frames around the redex;
    and the plug is its context: ``plug(t)`` is the whole term with t in the
    redex's place, at O(depth), so ``plug(redex)`` is the state, a closed
    term.  A plug is valid only until the next state is taken, as the frames
    it reads then change: a caller that keeps a state keeps what its plug
    returned.  The outcome is no state: the last state's plug still holds.
    """
    return _machine(e, ctx, fuel)


def step(e: Expr, ctx: GlobalCtx) -> Stepped | Done | Stuck:
    """Reduce exactly one redex, or report the value / stuck state: the first transition of ``states``."""
    out = next(islice(states(e, ctx, 1), 1, None))
    return Stepped(out[3](out[0])) if type(out) is tuple else out


def run(e: Expr, ctx: GlobalCtx, fuel: int) -> Iterator[Expr | Done | FuelExhausted | Stuck]:
    """Yield each state of ``states`` plugged whole, then the outcome; at most fuel steps are taken."""
    for out in states(e, ctx, fuel):
        yield out[3](out[0]) if type(out) is tuple else out


def eval_program(
    program: Program, fuel: int = DEFAULT_FUEL, ctx: GlobalCtx | None = None
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
    return next(_machine(program.main, ctx, fuel, stream=False))
