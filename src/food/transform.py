"""Type-directed bidirectional translation between decomposition styles.

One pass serves as both type checker and rewriter: every expression is
assigned a type, and its translated form depends on whether the types involved
were selected for transformation.  Selected interfaces become datatypes with
consumers, selected datatypes become interfaces with generators, and all other
definitions pass through with only their inner expressions translated.

Expressions are typed by one rule per form over ``syntax.fold``, which returns
the error a recursive pass meets first: the receiver's, the node's own, then
the arguments'.  Errors are carried as functions that build them.

Each FP⇄OO rule pair is written once: Sel2App/App2Sel and Obj2New/New2Obj are
one case each of its rule ``_typed``, and Csm2Fun/Fun2Csm and Case2Fun/Fun2Case
are ``_body``.  Dt2It/It2Dt and Ctr2Gen/Gen2Ctr keep one function per source
form, as member bodies live in consumers on one side and in generators on the
other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

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
    fold,
)

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
    out = fold(e, partial(_typed, ctx, env))
    if type(out) is not tuple:
        raise out()
    return out


def _typed(ctx: GlobalCtx, env: TypeEnv, e: Expr, kids: list):
    """The (translation, type) of ``e`` from its children's, or its first error."""
    cls = type(e)
    if cls is Var:
        t = env.get(e.name)
        return (e, t) if t is not None else partial(_err, f"unbound variable {e.name!r}")
    if cls is IntLit:
        return e, INT
    if cls is BoolLit:
        return e, BOOL
    if cls is Sel or cls is App:
        # one rule for both decompositions: a destructor selected, or a consumer applied
        oo, f, recv = cls is Sel, e.name, kids[0]
        if type(recv) is not tuple:
            return recv
        recv2, rt = recv
        if type(rt) is not Named:
            call = f"select {f!r} on" if oo else f"apply consumer {f!r} to"
            return partial(_err, f"cannot {call} a value of type {pretty_type(rt)}")
        sig = (ctx.dtr_sig if oo else ctx.sig).get((f, rt.name))
        if sig is None:
            return partial(_err, f"type {rt.name} has no {'destructor' if oo else 'consumer'} {f!r}")
        if not oo:  # a consumer's signature is D -> (T...) -> T
            sig = sig.ret
            assert isinstance(sig, Arrow)
        if failed := _check_args(e, e.args, kids[1:], sig.params):
            return failed
        args2 = tuple([kid[0] for kid in kids[1:]])
        flip = f in (ctx.dtr if oo else ctx.csm).get(rt.name, ())
        if oo != flip:  # a selection kept, or App2Sel
            return Sel(recv2, f, args2), sig.ret
        return App(f, recv2, args2), sig.ret  # an application kept, or Sel2App
    if cls is PrimOp:
        op = e.op
        want = INT if op in _ARITH or op in _CMP else BOOL
        failed = _expect(e.lhs, kids[0], want) or _expect(e.rhs, kids[1], want)
        return failed or (PrimOp(op, kids[0][0], kids[1][0]), (INT if op in _ARITH else BOOL))
    if cls is If:
        if failed := _expect(e.cond, kids[0], BOOL) or _expect(e.then, kids[1]) or _expect(e.els, kids[2]):
            return failed
        (cond2, _), (then2, t1), (els2, t2) = kids
        if t1 is not t2 and t1 != t2:
            types = f" have different types {pretty_type(t1)} and {pretty_type(t2)}"
            return _printing("branches of ", e, types, runtime=False)
        return If(cond2, then2, els2), t1
    if cls is CtrCall or cls is New:
        oo, c = cls is New, e.name
        sig = ctx.sig.get(c)
        if sig is None or not isinstance(ctx.defs.get(c), Generator if oo else Constructor):
            return partial(_err, f"{c} is not a {'class' if oo else 'constructor'}")
        if failed := _check_args(e, e.args, kids, sig.params):
            return failed
        args2 = tuple([kid[0] for kid in kids])
        parent = sig.ret
        assert isinstance(parent, Named)
        flip = c in (ctx.gen if oo else ctx.ctr).get(parent.name, ())
        if oo != flip:  # an instantiation kept, or Obj2New
            return New(c, args2), parent
        return CtrCall(c, args2), parent  # a constructor call kept, or New2Obj
    if cls is Obj:
        # runtime objects appear only when typing evaluation traces; they
        # are values shared by both styles and are never rewritten
        sig = ctx.sig.get(e.name)
        if sig is None:
            return partial(_err, f"object tag {e.name} has no signature")
        return _check_args(e, e.args, kids, sig.params) or (e, sig.ret)
    return partial(_err, f"unknown expression form {e!r}")


def _expect(e: Expr, kid, want: Type | None = None):
    """The error of child ``e``, typed as ``kid``, where ``want`` is expected; None if it has none."""
    if type(kid) is not tuple:
        return kid
    got = kid[1]
    # INT and BOOL are shared instances: identity settles most checks before __eq__
    if want is None or got is want or got == want:
        return None
    return _printing("", e, f" has type {pretty_type(got)}, expected {pretty_type(want)}")


def _check_args(call: Expr, args: tuple[Expr, ...], kids: list, params: tuple[Type, ...]):
    """The first error of a call's arguments, typed as ``kids``, against ``params``; None if none."""
    if len(args) != len(params):
        return _printing("", call, f" takes {len(params)} argument(s), got {len(args)}")
    return next(filter(None, map(_expect, args, kids, params)), None)


def _printing(prefix: str, e: Expr, suffix: str, runtime: bool = True):
    """The error ``prefix``, ``e`` printed, ``suffix``, built only when it is raised."""
    return lambda: _err(prefix + pretty_expr(e, runtime=runtime) + suffix)


# ---------------------------------------------------------------------------
# Definition translation


def _body(
    what: str, body: Expr, want: Type, ctx: GlobalCtx, recv: str, self_type: str, *scopes: tuple[Param, ...]
) -> Expr:
    """A member body typed with receiver ``recv`` of ``self_type`` and the scopes' binders.

    When ``self_type`` is selected the body moves to the other style, so its
    receiver takes that style's name.
    """
    env: TypeEnv = {recv: Named(self_type)}
    env.update((p.name, p.type) for params in scopes for p in params)
    body2, got = transform_expr(body, ctx, env)
    if got is not want and got != want:
        raise _err(f"{what} has type {pretty_type(got)}, declared {pretty_type(want)}")
    oo = recv == THIS
    if self_type in (ctx.it if oo else ctx.dt):
        return subst(body2, {recv: Var(SELF if oo else THIS)})
    return body2


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
            body = _body(f"consumer {f} on {d.name}", wild.body, c.ret, ctx, SELF, d.name, c.params)
            dtrs.append(Dtr(f, c.params, c.ret, body))
    return [Interface(d.name, tuple(dtrs), pos=d.pos)]


def _translate_interface(d: Interface, ctx: GlobalCtx) -> list[Def]:
    if d.name not in ctx.it:  # It2It
        members = []
        for m in d.dtrs:
            if m.body is None:
                members.append(m)
            else:
                body = _body(f"default {m.name} in {d.name}", m.body, m.ret, ctx, THIS, d.name, m.params)
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
            what = f"method {m.name} in class {c_name}"
            body = _body(what, impl.body, m.ret, ctx, THIS, d.name, g.fields, impl.params)  # Fun2Case
            clauses.append(Clause(Pattern(c_name, tuple(p.name for p in g.fields)), body))
        if m.body is not None:  # Fun2Csm
            body = _body(f"default {m.name} in {d.name}", m.body, m.ret, ctx, THIS, d.name, m.params)
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
        what = f"clause for {d.name} in consumer {f}"
        body = _body(what, clause.body, c.ret, ctx, SELF, d.parent, d.fields, c.params)  # Case2Fun
        funs.append(Dtr(f, c.params, c.ret, body))
    return [Generator(d.name, d.fields, d.parent, tuple(funs), pos=d.pos)]


def _translate_generator(d: Generator, ctx: GlobalCtx) -> list[Def]:
    if d.name in ctx.gen.get(d.parent, ()):
        return [Constructor(d.name, d.fields, d.parent, pos=d.pos)]  # Gen2Ctr
    members = []  # Gen2Gen
    for fun in d.funs:
        assert fun.body is not None
        what = f"method {fun.name} in class {d.name}"
        body = _body(what, fun.body, fun.ret, ctx, THIS, d.parent, d.fields, fun.params)
        members.append(replace(fun, body=body))
    return [Generator(d.name, d.fields, d.parent, tuple(members), pos=d.pos)]


def _translate_consumer(d: Consumer, ctx: GlobalCtx) -> list[Def]:
    if d.body is not None:
        raise _err(f"consumer {d.name} must be desugared before transformation", d.pos)
    if d.self_type in ctx.dt:
        return []  # CsmElim
    clauses = []  # Csm2Csm
    for clause in d.clauses or ():
        binders: tuple[Param, ...] = ()
        if not clause.pattern.is_wildcard:
            c_sig = ctx.sig.get(clause.pattern.name)
            if c_sig is None or len(c_sig.params) != len(clause.pattern.vars):
                raise _err(
                    f"pattern {clause.pattern.name} in consumer {d.name} does not match "
                    "a constructor of that arity",
                    d.pos,
                )
            binders = tuple(map(Param, clause.pattern.vars, c_sig.params))
        what = f"consumer {d.name} on {d.self_type}"
        body = _body(what, clause.body, d.ret, ctx, SELF, d.self_type, binders, d.params)
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
