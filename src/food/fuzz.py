"""Seeded generation of well-formed programs and the property drivers.

The generator builds a style-neutral model of each type hierarchy (its
constructors, operations, and which cases get specific bodies) and then renders
every hierarchy natively in its assigned decomposition style, so the corpus
never depends on the transformation it is used to test.  Recursive calls are
made only on fields, which keeps generated programs terminating except for the
deliberately looping ones that exercise the divergence branch.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from .context import Cell, GlobalCtx, preprocess, restrict, translate_ctx
from .diagnostics import FoodError
from .interp import DEFAULT_FUEL, Done, FuelExhausted, Stuck, csm_body, dtr_body, states
from .parser import parse
from .pretty import pretty, pretty_type
from .syntax import (
    App,
    BOOL,
    BoolLit,
    Clause,
    Constructor,
    Consumer,
    CtrCall,
    Datatype,
    Def,
    Dtr,
    Expr,
    FALSE,
    Generator,
    If,
    INT,
    IntLit,
    Interface,
    Named,
    New,
    Obj,
    OPERATORS,
    Param,
    Pattern,
    PrimOp,
    Program,
    SELF,
    Sel,
    THIS,
    Type,
    Var,
    WILDCARD,
    canonicalize,
    children,
    node,
)
# transform_expr is unused here, but bound for the benchmark's tracer to wrap
from .transform import _typing, transform, transform_expr, type_program  # noqa: F401
from .wellformed import check

_MAX_FIELD_ARITY = 2
_RECURSION_BIAS = 0.6  # probability a body recurses on a field
_OVERLOAD_PROB = 0.2  # probability an op reuses a name from another type
# the operators of each result type, in table order
_OPS = {t: [op for op, (_, _, result) in OPERATORS.items() if result == t] for t in (INT, BOOL)}


@node
class GenConfig:
    """Knobs for the program generator; generation is a pure function of seed."""

    seed: int
    max_types: int = 3
    max_ctors_per_type: int = 3
    max_ops_per_type: int = 3
    max_expr_depth: int = 4
    style_mix: float = 0.5  # probability a type is rendered object-oriented
    diverge_prob: float = 0.0  # probability the program deliberately loops


# ---------------------------------------------------------------------------
# Generator


@dataclass
class _Op:
    """A generated member: its signature and each variant's body, or a default."""

    name: str
    params: tuple[Param, ...]
    ret: Type
    has_default: bool
    specific: dict[str, Expr] = field(default_factory=dict)  # ctor name -> body
    default_body: Expr | None = None


@dataclass
class _TypeModel:
    """A generated type, its style, its variants and its members."""

    name: str
    oo: bool
    ctors: list[tuple[str, tuple[Param, ...]]] = field(default_factory=list)
    ops: list[_Op] = field(default_factory=list)


@node
class _Binding:
    """A name in scope while a body is generated, with its type."""

    name: str
    type: Type
    is_field: bool


class _Gen:
    def __init__(self, cfg: GenConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.types: list[_TypeModel] = []
        self.ctor_counter = 0
        self.op_counter = 0
        self.diverging: _Op | None = None

    def by_name(self, name: str) -> _TypeModel:
        return next(t for t in self.types if t.name == name)

    # -- structure

    def run(self) -> Program:
        rng, cfg = self.rng, self.cfg
        for i in range(rng.randint(1, cfg.max_types)):
            model = _TypeModel(f"T{i}", oo=rng.random() < cfg.style_mix)
            self.types.append(model)
            for j in range(rng.randint(1, cfg.max_ctors_per_type)):
                fields = tuple(
                    Param(f"y{k}", self.field_type(i, allow_self=j > 0))
                    for k in range(rng.randint(0, _MAX_FIELD_ARITY))
                )
                model.ctors.append((f"C{self.ctor_counter}", fields))
                self.ctor_counter += 1
        for model in self.types:
            for _ in range(rng.randint(1, cfg.max_ops_per_type)):
                model.ops.append(self.make_op(model))
        diverge = rng.random() < cfg.diverge_prob
        for model in self.types:
            for op in model.ops:
                self.fill_bodies(model, op)
        if diverge:
            self.plant_loop()
        return self.render(self.main())

    def field_type(self, index: int, allow_self: bool) -> Type:
        pool: list[Type] = [INT, BOOL]
        pool.extend(Named(t.name) for t in self.types[:index])
        if allow_self:
            pool.extend([Named(self.types[index].name)] * 2)
        return self.rng.choice(pool)

    def any_type_pool(self) -> list[Type]:
        return [INT, INT, BOOL] + [Named(t.name) for t in self.types]

    def make_op(self, model: _TypeModel) -> _Op:
        rng = self.rng
        taken = {op.name for op in model.ops}
        reusable = [
            op.name for t in self.types for op in t.ops if t is not model and op.name not in taken
        ]
        if reusable and rng.random() < _OVERLOAD_PROB:
            name = rng.choice(reusable)
        else:
            name = f"f{self.op_counter}"
            self.op_counter += 1
        params = tuple(
            Param(f"x{k}", rng.choice(self.any_type_pool())) for k in range(rng.randint(0, 2))
        )
        ret = rng.choice(self.any_type_pool())
        return _Op(name, params, ret, has_default=rng.random() < 0.35)

    def fill_bodies(self, model: _TypeModel, op: _Op) -> None:
        receiver = _Binding(THIS if model.oo else SELF, Named(model.name), is_field=False)
        if op.has_default:
            env = [receiver] + [_Binding(p.name, p.type, False) for p in op.params]
            op.default_body = self.expr(op.ret, env, self.cfg.max_expr_depth - 1)
        for ctor, fields in model.ctors:
            if op.has_default and self.rng.random() < 0.5:
                continue
            env = (
                [receiver]
                + [_Binding(f.name, f.type, True) for f in fields]
                + [_Binding(p.name, p.type, False) for p in op.params]
            )
            op.specific[ctor] = self.expr(op.ret, env, self.cfg.max_expr_depth - 1)

    def plant_loop(self) -> None:
        """Add an op to the first type whose every case applies itself again."""
        model = self.types[0]
        op = _Op(f"f{self.op_counter}", (), INT, has_default=False)
        self.op_counter += 1
        body = self.render_call(Var(THIS if model.oo else SELF), model, op, [], 0)
        for ctor, _ in model.ctors:
            op.specific[ctor] = body
        model.ops.append(op)
        self.diverging = op

    # -- expressions

    def minimal(self, name: str) -> Expr:
        model = self.by_name(name)
        ctor, fields = model.ctors[0]
        args = tuple(self.minimal_of(f.type) for f in fields)
        return New(ctor, args) if model.oo else CtrCall(ctor, args)

    def minimal_of(self, t: Type) -> Expr:
        if t == INT:
            return IntLit(0)
        if t == BOOL:
            return FALSE
        assert isinstance(t, Named)
        return self.minimal(t.name)

    def construct(self, name: str, env: list[_Binding], depth: int) -> Expr:
        model = self.by_name(name)
        if depth <= 0:
            return self.minimal(name)
        ctor, fields = self.rng.choice(model.ctors)
        args = tuple(self.expr(f.type, env, depth - 1) for f in fields)
        return New(ctor, args) if model.oo else CtrCall(ctor, args)

    def call_candidates(self, target: Type, env: list[_Binding]):
        out = []
        for b in env:
            if not b.is_field or not isinstance(b.type, Named):
                continue
            host = self.by_name(b.type.name)
            for op in host.ops:
                if op.ret == target:
                    out.append((b, host, op))
        return out

    def render_call(self, recv: Expr, host: _TypeModel, op: _Op, env, depth: int) -> Expr:
        args = tuple(self.expr(p.type, env, depth - 1) for p in op.params)
        if host.oo:
            return Sel(recv, op.name, args)
        return App(op.name, recv, args)

    def expr(self, target: Type, env: list[_Binding], depth: int) -> Expr:
        rng = self.rng
        calls = self.call_candidates(target, env) if depth > 0 else []
        if calls and rng.random() < _RECURSION_BIAS:
            b, host, op = rng.choice(calls)
            return self.render_call(Var(b.name), host, op, env, depth)
        variables = [b for b in env if b.type == target]
        options: list[str] = []
        if variables:
            options += ["var"] * 3
        if depth <= 0:
            if target == INT or target == BOOL or not variables:
                options += ["leaf"]
        else:
            options += ["leaf", "branch", "if"]
        choice = rng.choice(options)
        if choice == "var":
            return Var(rng.choice(variables).name)
        if choice == "if":
            return If(
                self.expr(BOOL, env, depth - 1),
                self.expr(target, env, depth - 1),
                self.expr(target, env, depth - 1),
            )
        if choice == "branch" and (target == INT or target == BOOL):
            op = rng.choice(_OPS[target])
            operand = OPERATORS[op][1]
            return PrimOp(op, self.expr(operand, env, depth - 1), self.expr(operand, env, depth - 1))
        # leaves (and Named-type branches, which are constructions)
        if target == INT:
            return IntLit(rng.randrange(10))
        if target == BOOL:
            return BoolLit(rng.random() < 0.5)
        assert isinstance(target, Named)
        return self.construct(target.name, env, depth if choice == "branch" else 0)

    # -- main expression

    def main_call(self, target: Type) -> Expr | None:
        candidates = [(t, op) for t in self.types for op in t.ops if op.ret == target]
        if not candidates:
            return None
        host, op = self.rng.choice(candidates)
        recv = self.construct(host.name, [], self.rng.randint(1, 2))
        return self.render_call(recv, host, op, [], 2)

    def main(self) -> Expr:
        rng = self.rng
        if self.diverging is not None:
            host = self.types[0]
            recv = self.minimal(host.name)
            return self.render_call(recv, host, self.diverging, [], 1)
        target = INT if rng.random() < 0.5 else BOOL
        first = self.main_call(target)
        if first is None:
            target, first = INT, IntLit(rng.randrange(10))
        if rng.random() < 0.5:
            second = self.main_call(target) or self.expr(target, [], 1)
            op = rng.choice(_OPS[target][:2])  # + or -, && or ||
            return PrimOp(op, first, second)
        return first

    # -- rendering

    def render(self, main: Expr) -> Program:
        defs: list[Def] = []
        for model in self.types:
            if model.oo:
                members = []
                for op in model.ops:
                    members.append(Dtr(op.name, op.params, op.ret, op.default_body))
                defs.append(Interface(model.name, tuple(members)))
                for ctor, fields in model.ctors:
                    funs = tuple(
                        Dtr(op.name, op.params, op.ret, op.specific[ctor])
                        for op in model.ops
                        if ctor in op.specific
                    )
                    defs.append(Generator(ctor, fields, model.name, funs))
            else:
                defs.append(Datatype(model.name))
                for ctor, fields in model.ctors:
                    defs.append(Constructor(ctor, fields, model.name))
                for op in model.ops:
                    clauses = [
                        Clause(Pattern(ctor, tuple(f.name for f in fields)), op.specific[ctor])
                        for ctor, fields in model.ctors
                        if ctor in op.specific
                    ]
                    if op.has_default:
                        clauses.append(Clause(WILDCARD, op.default_body))
                    defs.append(
                        Consumer(op.name, model.name, op.params, op.ret, clauses=tuple(clauses))
                    )
        return Program(tuple(defs), main)


def gen_program(cfg: GenConfig) -> Program:
    """Generate a program that passes the well-formedness check."""
    return _Gen(cfg).run()


# ---------------------------------------------------------------------------
# Property battery


@node
class PropFail:
    """A property that failed, and the detail of how."""

    prop: str
    detail: str


@node
class TrialReport:
    """The outcome of one trial: its seed, selection, failures and witness."""

    seed: int
    selected: tuple[str, ...]
    failures: tuple[PropFail, ...]
    witness: str  # pretty text of the minimized failing program, "" when ok

    @property
    def ok(self) -> bool:
        return not self.failures


@node
class FuzzReport:
    """The trial reports of a run of the battery."""

    trials: tuple[TrialReport, ...]

    @property
    def failed(self) -> int:
        return sum(1 for t in self.trials if not t.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def failures_by_prop(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.trials:
            for f in t.failures:
                out[f.prop] = out.get(f.prop, 0) + 1
        return out


def _typed_run(program: Program, ctx: GlobalCtx, fuel: int):
    """Evaluate the main expression, typing every reached state.

    Returns (outcome, type_failure_detail).  State 0, the main expression, is
    typed and its nodes counted in one pass.  After that, each step types only
    its redex and its contractum, which ``interp.states`` yields with the
    state, and no state is plugged but the ones cycle detection keeps.  FOOD
    has no binders, so every subterm of a closed state is closed, and the
    typer is one rule per form, ``_typing``: a contractum that types as its
    redex leaves the state's type as it was.  This is the replacement argument
    of Wright and Felleisen, "A Syntactic Approach to Type Soundness"
    (1994).  A value can be as deep as the run is long, and every redex that
    uses it holds it, so each object is typed once per run, keyed by identity,
    and a call's contractum costs what its body does.  On any difference or
    error the state is plugged and measured whole, reusing the objects typed
    so far, so a failure's text is the whole state's.

    Evaluation is deterministic, so once a state repeats the run is periodic
    until the fuel runs out, and no state in the cycle is a value or
    stuck.  Every later state types as the one it repeats already did.  Repeats
    are found by Brent's cycle detection ("An improved Monte Carlo
    factorization algorithm", BIT 20, 1980), which compares each state with
    one saved state: by cheap keys (node count, depth, the redex's class and
    name) and, only when they match, in full, at any depth.  The run stops one
    period on, with the state the fuel would end on, and the verdict is the
    one the whole run would give.
    """
    known: dict[int, tuple[Expr, tuple]] = {}  # id of an object -> (it, its measure)
    rule = partial(_typing, ctx, {}, deque(maxlen=0))  # the call types that typing lists are dropped

    def measure(e: Expr) -> tuple:
        """(type or error, node count) of closed ``e``."""
        types, sizes, todo = [], [], [e]
        while todo:
            x = todo.pop()
            if type(x) is tuple:  # (node, n): the measures of its n children end the lists
                x, n = x
                t, size = rule(x, types[-n:]), 1 + sum(sizes[-n:])
                del types[-n:], sizes[-n:]
                if type(x) is Obj:
                    known[id(x)] = x, (t, size)
            elif (hit := known.get(id(x))) is not None:
                t, size = hit[1]
            elif kids := children(x):
                todo.append((x, len(kids)))
                todo += reversed(kids)
                continue
            else:
                t, size = rule(x, ()), 1
            types.append(t)
            sizes.append(size)
        return types[0], sizes[0]

    expected, size = measure(program.main)
    if callable(expected):
        return None, f"main expression does not type: {expected()}"
    stream = states(program.main, ctx, fuel)
    focus, _, depth, plug = next(stream)
    saved, saved_key = plug(focus), (size, depth, type(focus), getattr(focus, "name", None))
    power = lam = 1
    for i in itertools.count(1):
        redex = focus
        out = next(stream)
        if type(out) is not tuple:
            return out, None
        focus, contractum, depth, plug = out
        (t_redex, n_redex), (t, n) = measure(redex), measure(contractum)
        size += n - n_redex
        if callable(t) or t is not t_redex and t != t_redex:
            t = measure(plug(focus))[0]
            if callable(t):
                return None, f"step result fails to type: {t()}"
            if t != expected:
                return None, (
                    f"type changed from {pretty_type(expected)} to {pretty_type(t)} "
                    "during evaluation"
                )
        key = (size, depth, type(focus), getattr(focus, "name", None))
        if key == saved_key and plug(focus) == saved:
            # the run has period lam from here on: go on to the state the fuel ends on
            for _ in range((fuel - i) % lam):
                focus, _, _, plug = next(stream)
            return FuelExhausted(plug(focus)), None
        if lam == power:
            saved, saved_key = plug(focus), key
            power, lam = 2 * power, 0
        lam += 1


def _lookup_duality_failures(rctx: GlobalCtx, ctx2: GlobalCtx, cells: dict[tuple[str, str], Cell]) -> list[str]:
    """Check that body lookup commutes with translation for every (f, C): each cell of
    the translated definitions (``cells``, which a passing ``check`` covered) is what
    the other style looks up after, of the same kind, as a kind does not depend on style."""
    out = []
    # destructor before == consumer after, then consumer before == destructor after
    for oo in (True, False):
        lookup_after, member = (csm_body, "destructor") if oo else (dtr_body, "consumer")
        for d_name in rctx.it if oo else rctx.dt:
            for c_name in (rctx.gen if oo else rctx.ctr)[d_name]:
                for f in (rctx.dtr if oo else rctx.csm)[d_name]:
                    cell, found = cells[f, c_name], lookup_after(f, c_name, ctx2)
                    if found != cell or found.kind != cell.kind:
                        out.append(f"{member} {f} on {c_name} does not survive translation")
    return out


def check_properties(
    program: Program,
    selected: set[str] | frozenset[str] | None = None,
    fuel: int = DEFAULT_FUEL,
    mutate: Callable[[Program], Program] | None = None,
) -> list[PropFail]:
    """Run the whole property battery against one (program, selection) pair.

    Each ``FoodError`` of preprocessing, checking, transforming, typing or
    reparsing is reported as a ``PropFail``, and none is raised.  The transformed
    program is judged by ``check``, as the source is: its diagnostics make one
    ``wf-preservation``, and its type is compared only when it has none.
    ``mutate``, when given, perturbs the transformed program before the
    properties run; the mutation harness in ``tests/mutators.py`` uses it to
    confirm the properties have teeth.
    """
    fails: list[PropFail] = []
    try:
        ctx = preprocess(program)
    except FoodError as exc:
        return [PropFail("wellformed", f"preprocess failed: {exc}")]
    if selected is None:
        selected = set(ctx.type_names())
    # check keeps its typing on ctx, so the transforms of program only translate
    if diags := check(program, ctx):
        return [PropFail("wellformed", "; ".join(d.render() for d in diags[:3]))]
    skip = transform(program, frozenset(), ctx=ctx)
    t0 = skip.program_type
    if skip.program != program:
        fails.append(PropFail("skip-identity", "transform with no selected types changed the program"))

    try:
        r1 = transform(program, selected, ctx=ctx)
    except FoodError as exc:
        fails.append(PropFail("transform", str(exc)))
        return fails
    p2 = r1.program
    if mutate is not None:
        p2 = mutate(p2)

    try:
        ctx2 = preprocess(p2)
    except FoodError as exc:
        fails.append(PropFail("round-trip", f"transformed program does not preprocess: {exc}"))
        return fails
    if diags2 := check(p2, ctx2):  # keeps a passing typing, so r2 below only translates
        fails.append(PropFail("wf-preservation", "; ".join(d.render() for d in diags2[:3])))
    elif type_program(p2, ctx2)[1] != t0:
        fails.append(PropFail("type-preservation", "transformed program has a different type"))

    try:
        r2 = transform(p2, selected, ctx=ctx2)
        if canonicalize(r2.program) != canonicalize(program):
            fails.append(PropFail("round-trip", "double transform is not the canonicalized input"))
    except FoodError as exc:
        fails.append(PropFail("round-trip", f"second transform failed: {exc}"))

    rctx = restrict(ctx, selected)
    try:
        expected_ctx = translate_ctx(rctx)
        actual_ctx = restrict(ctx2, selected)
        if actual_ctx.duality_parts() != expected_ctx.duality_parts():
            fails.append(PropFail("ctx-duality", "context translation mismatch"))
    except FoodError as exc:
        fails.append(PropFail("ctx-duality", str(exc)))

    for problem in _lookup_duality_failures(rctx, ctx2, r1.cells):
        fails.append(PropFail("lookup-duality", problem))

    out1, bad1 = _typed_run(program, ctx, fuel)
    out2, bad2 = _typed_run(p2, ctx2, fuel)
    for bad in (bad1, bad2):
        if bad is not None:
            fails.append(PropFail("type-safety", bad))
    for where, out in (("source", out1), ("transformed", out2)):
        if isinstance(out, Stuck):
            fails.append(PropFail("type-safety", f"{where} program got stuck: {out.reason}"))
    if out1 is not None and out2 is not None and not isinstance(out1, Stuck) and not isinstance(out2, Stuck):
        if isinstance(out1, Done) != isinstance(out2, Done):
            fails.append(PropFail("eval-agreement", "only one side terminated within fuel"))
        elif isinstance(out1, Done) and out1.value != out2.value:
            fails.append(PropFail("eval-agreement", "terminating results differ"))

    for label, q in (("source", program), ("transformed", p2)):
        try:
            if parse(pretty(q)) != q:
                fails.append(PropFail("parse-pretty", f"{label} program does not round-trip"))
        except FoodError as exc:
            fails.append(PropFail("parse-pretty", f"{label} program reparse failed: {exc}"))

    return fails


# ---------------------------------------------------------------------------
# Shrinking

_PARTS = {Consumer: "clauses", Interface: "dtrs", Generator: "funs"}  # the parts a shrink drops one by one


def _pruned(defs: tuple[Def, ...], main: Expr) -> Program:
    """The program without whatever names a missing type, constructor or member.

    That is the variants and consumers of a missing type, the clauses of a
    missing constructor and the class methods of a missing interface member.
    """
    types = {d.name for d in defs if isinstance(d, (Datatype, Interface))}
    # a type names itself, a variant its parent and a consumer its self type
    kept = [d for d in defs if getattr(d, "parent", getattr(d, "self_type", d.name)) in types]
    ctors = {d.name for d in kept if isinstance(d, Constructor)} | {None}  # None: a wildcard
    members = {d.name: {m.name for m in d.dtrs} for d in kept if isinstance(d, Interface)}
    for i, d in enumerate(kept):
        if isinstance(d, Consumer):
            kept[i] = replace(d, clauses=tuple(c for c in d.clauses if c.pattern.name in ctors))
        elif isinstance(d, Generator):
            kept[i] = replace(d, funs=tuple(f for f in d.funs if f.name in members.get(d.parent, ())))
    return Program(tuple(kept), main)


def _without_def(program: Program, index: int) -> Program:
    return _pruned(program.defs[:index] + program.defs[index + 1 :], program.main)


def _shrink_candidates(program: Program):
    """The programs one step smaller than ``program``, in the order a shrink tries them.

    The first ones each drop one definition, the next ones one clause of a
    consumer, method of a class or member of an interface; each then drops
    whatever named what it dropped (``_pruned``).  The last, when ``main``
    is not 0, sets it to 0.
    """
    for i in range(len(program.defs)):
        yield _without_def(program, i)
    for i, d in enumerate(program.defs):
        attr = _PARTS.get(type(d))
        parts = getattr(d, attr) if attr else ()
        for j in range(len(parts)):
            smaller = replace(d, **{attr: parts[:j] + parts[j + 1 :]})
            yield _pruned(program.defs[:i] + (smaller,) + program.defs[i + 1 :], program.main)
    if program.main != IntLit(0):
        yield Program(program.defs, IntLit(0))


def shrink(
    program: Program,
    prop: str,
    rerun,
) -> Program:
    """Greedy deletion that keeps ``prop`` failing.

    Each round moves to the first of ``_shrink_candidates`` on which
    ``rerun`` reports ``prop``, so each definition, clause, class method and
    interface member is dropped while its loss keeps the failure, and ``main``
    becomes 0 if that keeps it.  A round with no such candidate ends the
    shrink.  What ``rerun`` raises propagates.
    """
    while True:
        for candidate in _shrink_candidates(program):
            if any(f.prop == prop for f in rerun(candidate)):
                program = candidate
                break
        else:
            return program


# ---------------------------------------------------------------------------
# Driver


def _derive_seed(seed: int, index: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + index) % 2**63


def _choose_selected(ctx_names: tuple[str, ...], rng: random.Random) -> set[str]:
    if len(ctx_names) <= 1 or rng.random() < 0.7:
        return set(ctx_names)
    k = rng.randint(1, len(ctx_names) - 1)
    return set(rng.sample(list(ctx_names), k))


def run_properties(
    cfg: GenConfig,
    trials: int,
    fuel: int = DEFAULT_FUEL,
    mutate: Callable[[Program], Program] | None = None,
) -> FuzzReport:
    """Generate trial programs and run the full property battery on each.

    Failing trials carry their seed and a greedily minimized witness program.
    """
    reports = []
    for index in range(trials):
        seed = _derive_seed(cfg.seed, index)
        program = gen_program(replace(cfg, seed=seed))
        rng = random.Random(_derive_seed(seed, 1))
        selected = _choose_selected(_type_names(program), rng)
        failures = tuple(check_properties(program, selected, fuel, mutate))
        witness = ""
        if failures:
            prop = failures[0].prop
            small = shrink(
                program, prop, lambda q: check_properties(q, selected & set(_type_names(q)), fuel, mutate)
            )
            witness = pretty(small)
        reports.append(TrialReport(seed, tuple(sorted(selected)), failures, witness))
    return FuzzReport(tuple(reports))


def _type_names(program: Program) -> tuple[str, ...]:
    """The declared type names, in definition order (trial selection samples from it)."""
    return tuple(d.name for d in program.defs if isinstance(d, (Datatype, Interface)))
