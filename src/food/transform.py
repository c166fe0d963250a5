"""Type-directed bidirectional translation between decomposition styles.

One pass serves as both type checker and rewriter: every expression is
assigned a type, and its translated form depends on whether the types involved
were selected for transformation.  Selected interfaces become datatypes with
consumers, selected datatypes become interfaces with generators, and all other
definitions pass through with only their inner expressions translated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .context import GlobalCtx, TypeEnv, preprocess, restrict
from .diagnostics import Diagnostic, TransformError
from .pretty import pretty_expr, pretty_type
from .syntax import (
    App,
    Arrow,
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
    Generator,
    If,
    INT,
    IntLit,
    Interface,
    Named,
    New,
    Obj,
    Param,
    Pattern,
    PrimOp,
    Program,
    SELF,
    Sel,
    subst,
    THIS,
    Type,
    Var,
    WILDCARD,
)

_TO_SELF = {THIS: Var(SELF)}
_TO_THIS = {SELF: Var(THIS)}

_ARITH = {"+", "-", "*"}
_CMP = {"==", "<=", "<"}
_LOGIC = {"&&", "||"}


@dataclass(frozen=True)
class TransformResult:
    program: Program
    program_type: Type


def _err(message: str, pos: tuple[int, int] | None = None) -> TransformError:
    line, col = pos or (0, 0)
    return TransformError([Diagnostic(message, line, col)])


def transform_expr(e: Expr, ctx: GlobalCtx, env: TypeEnv) -> tuple[Expr, Type]:
    """Translate one expression, returning its rewritten form and type."""
    match e:
        case Var(name):
            if name not in env:
                raise _err(f"unbound variable {name!r}")
            return e, env[name]
        case IntLit():
            return e, INT
        case BoolLit():
            return e, BOOL
        case PrimOp(op, lhs, rhs):
            want = INT if op in _ARITH or op in _CMP else BOOL
            lhs2 = _expect(lhs, want, ctx, env)
            rhs2 = _expect(rhs, want, ctx, env)
            return PrimOp(op, lhs2, rhs2), (INT if op in _ARITH else BOOL)
        case If(cond, then, els):
            cond2 = _expect(cond, BOOL, ctx, env)
            then2, t1 = transform_expr(then, ctx, env)
            els2, t2 = transform_expr(els, ctx, env)
            if t1 != t2:
                raise _err(
                    f"branches of {pretty_expr(e)} have different types "
                    f"{pretty_type(t1)} and {pretty_type(t2)}"
                )
            return If(cond2, then2, els2), t1
        case Sel(recv, f, args):
            recv2, rt = transform_expr(recv, ctx, env)
            if not isinstance(rt, Named):
                raise _err(f"cannot select {f!r} on a value of type {pretty_type(rt)}")
            sig = ctx.dtr_sig.get((f, rt.name))
            if sig is None:
                raise _err(f"type {rt.name} has no destructor {f!r}")
            args2 = _check_args(e, args, sig.params, ctx, env)
            if f in ctx.dtr.get(rt.name, ()):  # Sel2App
                return App(f, recv2, args2), sig.ret
            return Sel(recv2, f, args2), sig.ret
        case App(f, recv, args):
            recv2, rt = transform_expr(recv, ctx, env)
            if not isinstance(rt, Named):
                raise _err(f"cannot apply consumer {f!r} to a value of type {pretty_type(rt)}")
            sig = ctx.sig.get((f, rt.name))
            if sig is None:
                raise _err(f"type {rt.name} has no consumer {f!r}")
            inner = sig.ret
            assert isinstance(inner, Arrow)
            args2 = _check_args(e, args, inner.params, ctx, env)
            if f in ctx.csm.get(rt.name, ()):  # App2Sel
                return Sel(recv2, f, args2), inner.ret
            return App(f, recv2, args2), inner.ret
        case CtrCall(c, args):
            sig = ctx.sig.get(c)
            if sig is None or not isinstance(ctx.defs.get(c), Constructor):
                raise _err(f"{c} is not a constructor")
            args2 = _check_args(e, args, sig.params, ctx, env)
            parent = sig.ret
            assert isinstance(parent, Named)
            if c in ctx.ctr.get(parent.name, ()):  # Obj2New
                return New(c, args2), parent
            return CtrCall(c, args2), parent
        case New(c, args):
            sig = ctx.sig.get(c)
            if sig is None or not isinstance(ctx.defs.get(c), Generator):
                raise _err(f"{c} is not a class")
            args2 = _check_args(e, args, sig.params, ctx, env)
            parent = sig.ret
            assert isinstance(parent, Named)
            if c in ctx.gen.get(parent.name, ()):  # New2Obj
                return CtrCall(c, args2), parent
            return New(c, args2), parent
        case Obj(c, values):
            # runtime objects appear only when typing evaluation traces; they
            # are values shared by both styles and are never rewritten
            sig = ctx.sig.get(c)
            if sig is None:
                raise _err(f"object tag {c} has no signature")
            _check_args(e, values, sig.params, ctx, env)
            parent = sig.ret
            assert isinstance(parent, Named)
            return e, parent
    raise _err(f"unknown expression form {e!r}")


def _expect(e: Expr, want: Type, ctx: GlobalCtx, env: TypeEnv) -> Expr:
    e2, got = transform_expr(e, ctx, env)
    if got != want:
        raise _err(
            f"{pretty_expr(e, runtime=True)} has type {pretty_type(got)}, expected {pretty_type(want)}"
        )
    return e2


def _check_args(
    call: Expr, args: tuple[Expr, ...], params: tuple[Type, ...], ctx: GlobalCtx, env: TypeEnv
) -> tuple[Expr, ...]:
    if len(args) != len(params):
        raise _err(
            f"{pretty_expr(call, runtime=True)} takes {len(params)} argument(s), got {len(args)}"
        )
    return tuple(_expect(a, p, ctx, env) for a, p in zip(args, params))


# ---------------------------------------------------------------------------
# Definition translation


def _env(*groups: dict[str, Type]) -> TypeEnv:
    out: TypeEnv = {}
    for g in groups:
        out.update(g)
    return out


def _param_env(params: tuple[Param, ...]) -> dict[str, Type]:
    return {p.name: p.type for p in params}


def _body(
    what: str, body: Expr, want: Type, ctx: GlobalCtx, env: TypeEnv, rename: dict[str, Expr]
) -> Expr:
    body2, got = transform_expr(body, ctx, env)
    if got != want:
        raise _err(f"{what} has type {pretty_type(got)}, declared {pretty_type(want)}")
    return subst(body2, rename)


def _translate_datatype(d: Datatype, ctx: GlobalCtx) -> list[Def]:
    if d.name not in ctx.dt:
        return [d]  # Dt2Dt
    # Dt2It: consumers become destructor declarations; a wildcard clause
    # becomes the default implementation
    dtrs = []
    for f in ctx.csm[d.name]:
        c = ctx.defs[(f, d.name)]
        assert isinstance(c, Consumer)
        wild = c.wildcard_clause()
        if wild is None:
            dtrs.append(Dtr(f, c.params, c.ret))  # Csm2Dec
        else:  # Csm2Fun
            env = _env({SELF: Named(d.name)}, _param_env(c.params))
            body = _body(f"consumer {f} on {d.name}", wild.body, c.ret, ctx, env, _TO_THIS)
            dtrs.append(Dtr(f, c.params, c.ret, body))
    return [Interface(d.name, tuple(dtrs), pos=d.pos)]


def _translate_interface(d: Interface, ctx: GlobalCtx) -> list[Def]:
    if d.name not in ctx.it:  # It2It
        members = []
        for m in d.dtrs:
            if m.body is None:
                members.append(m)
            else:
                env = _env({THIS: Named(d.name)}, _param_env(m.params))
                body = _body(f"default {m.name} in {d.name}", m.body, m.ret, ctx, env, {})
                members.append(replace(m, body=body))
        return [Interface(d.name, tuple(members), pos=d.pos)]
    # It2Dt: each destructor becomes a consumer whose clauses are harvested
    # from the generators, plus a wildcard clause from any default
    out: list[Def] = [Datatype(d.name, pos=d.pos)]
    for m in d.dtrs:
        clauses: list[Clause] = []
        for c_name in ctx.gen[d.name]:
            g = ctx.defs[c_name]
            assert isinstance(g, Generator)
            impl = next((fun for fun in g.funs if fun.name == m.name), None)
            if impl is None:
                continue
            assert impl.body is not None
            env = _env({THIS: Named(d.name)}, _param_env(g.fields), _param_env(impl.params))
            body = _body(
                f"method {m.name} in class {c_name}", impl.body, m.ret, ctx, env, _TO_SELF
            )  # Fun2Case
            clauses.append(Clause(Pattern(c_name, tuple(p.name for p in g.fields)), body))
        if m.body is not None:  # Fun2Csm
            env = _env({THIS: Named(d.name)}, _param_env(m.params))
            body = _body(f"default {m.name} in {d.name}", m.body, m.ret, ctx, env, _TO_SELF)
            clauses.append(Clause(WILDCARD, body))
        out.append(Consumer(m.name, d.name, m.params, m.ret, clauses=tuple(clauses)))
    return out


def _translate_constructor(d: Constructor, ctx: GlobalCtx) -> list[Def]:
    if d.name not in ctx.ctr.get(d.parent, ()):
        return [d]  # Ctr2Ctr
    # Ctr2Gen: for every consumer with a clause naming this constructor,
    # produce a method from that clause
    funs = []
    for f in ctx.csm[d.parent]:
        c = ctx.defs[(f, d.parent)]
        assert isinstance(c, Consumer)
        clause = c.clause_for(d.name)
        if clause is None:
            continue
        env = _env({SELF: Named(d.parent)}, _param_env(d.fields), _param_env(c.params))
        body = _body(
            f"clause for {d.name} in consumer {f}", clause.body, c.ret, ctx, env, _TO_THIS
        )  # Case2Fun
        funs.append(Dtr(f, c.params, c.ret, body))
    return [Generator(d.name, d.fields, d.parent, tuple(funs), pos=d.pos)]


def _translate_generator(d: Generator, ctx: GlobalCtx) -> list[Def]:
    if d.name in ctx.gen.get(d.parent, ()):
        return [Constructor(d.name, d.fields, d.parent, pos=d.pos)]  # Gen2Ctr
    members = []  # Gen2Gen
    for fun in d.funs:
        assert fun.body is not None
        env = _env({THIS: Named(d.parent)}, _param_env(d.fields), _param_env(fun.params))
        body = _body(f"method {fun.name} in class {d.name}", fun.body, fun.ret, ctx, env, {})
        members.append(replace(fun, body=body))
    return [Generator(d.name, d.fields, d.parent, tuple(members), pos=d.pos)]


def _translate_consumer(d: Consumer, ctx: GlobalCtx) -> list[Def]:
    if d.body is not None:
        raise _err(f"consumer {d.name} must be desugared before transformation", d.pos)
    if d.self_type in ctx.dt:
        return []  # CsmElim
    clauses = []  # Csm2Csm
    for clause in d.clauses or ():
        if clause.pattern.is_wildcard:
            pat_env: dict[str, Type] = {}
        else:
            c_sig = ctx.sig.get(clause.pattern.name)
            if c_sig is None or len(c_sig.params) != len(clause.pattern.vars):
                raise _err(
                    f"pattern {clause.pattern.name} in consumer {d.name} does not match "
                    "a constructor of that arity",
                    d.pos,
                )
            pat_env = dict(zip(clause.pattern.vars, c_sig.params))
        env = _env({SELF: Named(d.self_type)}, pat_env, _param_env(d.params))
        body = _body(f"consumer {d.name} on {d.self_type}", clause.body, d.ret, ctx, env, {})
        clauses.append(Clause(clause.pattern, body))
    return [replace(d, clauses=tuple(clauses))]


def _translate_def(d: Def, ctx: GlobalCtx) -> list[Def]:
    match d:
        case Datatype():
            return _translate_datatype(d, ctx)
        case Interface():
            return _translate_interface(d, ctx)
        case Constructor():
            return _translate_constructor(d, ctx)
        case Generator():
            return _translate_generator(d, ctx)
        case Consumer():
            return _translate_consumer(d, ctx)
    raise _err(f"unknown definition form {d!r}")


def transform(
    program: Program,
    selected: set[str] | frozenset[str] | None = None,
    ctx: GlobalCtx | None = None,
) -> TransformResult:
    """Transform all selected types of a desugared, well-formed program.

    ``selected=None`` selects every declared type; an empty set turns the
    whole pass into a type check that returns the program unchanged.
    """
    full = ctx if ctx is not None else preprocess(program)
    if selected is None:
        selected = set(full.type_names())
    rctx = restrict(full, selected)
    defs: list[Def] = []
    for d in program.defs:
        defs.extend(_translate_def(d, rctx))
    main, main_type = transform_expr(program.main, rctx, {})
    return TransformResult(Program(tuple(defs), main), main_type)


def typecheck(program: Program, ctx: GlobalCtx | None = None) -> Type:
    """Type of the program's main expression; the whole program is derived."""
    return transform(program, frozenset(), ctx=ctx).program_type


def typing_diagnostics(program: Program, ctx: GlobalCtx) -> list[Diagnostic]:
    """All per-definition typing errors, collected rather than raised."""
    rctx = restrict(ctx, frozenset())
    diags: list[Diagnostic] = []
    for d in program.defs:
        try:
            _translate_def(d, rctx)
        except TransformError as exc:
            pos = getattr(d, "pos", None) or (0, 0)
            diags.extend(
                dg if dg.line else Diagnostic(dg.message, pos[0], pos[1]) for dg in exc.diagnostics
            )
    try:
        transform_expr(program.main, rctx, {})
    except TransformError as exc:
        diags.extend(exc.diagnostics)
    return diags
