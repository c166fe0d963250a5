"""Type-directed bidirectional translation between decomposition styles.

Selected datatypes become interfaces with classes, selected interfaces become
datatypes with consumers, and all other definitions keep their form.  This
takes two steps.  The typed pass (``_typed_def``) types and translates every
member body where it stands, in one fold per body: Sel2App/App2Sel,
Obj2New/New2Obj and the receiver of a selected type, which moves with its body
to the other style and takes that style's name, are one case each of the
typing rule ``_typed``.  ``transform`` raises every definition's first error,
at that definition, with the main expression's, so with no type selected it is
``check``'s typing half.  The regrouping (``_regroup``) never types: one case
per definition rule moves the translated bodies between consumers and classes.

Expressions are typed by one rule per form over ``syntax.fold``, which returns
the error a recursive pass meets first: the receiver's, the node's own, then
the arguments'.  Errors are carried as functions that build them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .context import DefKey, GlobalCtx, TypeEnv, preprocess, restrict
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
    THIS,
    Type,
    Var,
    WILDCARD,
    fold,
)

_ARITH = {"+", "-", "*"}
_CMP = {"==", "<=", "<"}


@dataclass(frozen=True)
class TransformResult:
    program: Program
    program_type: Type


def _err(message: str, pos: tuple[int, int] | None = None) -> TransformError:
    line, col = pos or (0, 0)
    return TransformError([Diagnostic(message, line, col)])


def transform_expr(e: Expr, ctx: GlobalCtx, env: TypeEnv) -> tuple[Expr, Type]:
    """Translate one expression, returning its rewritten form and type.

    The translation renames a selected type's receiver: ``this`` of an interface
    in ``ctx.it`` becomes ``self``, and ``self`` of a datatype in ``ctx.dt`` ``this``.
    """
    out = fold(e, partial(_typed, ctx, env))
    if type(out) is not tuple:
        raise out()
    return out


def _typed(ctx: GlobalCtx, env: TypeEnv, e: Expr, kids: list):
    """The (translation, type) of ``e`` from its children's, or its first error."""
    cls = type(e)
    if cls is Var:
        name, t = e.name, env.get(e.name)
        if t is None:
            return partial(_err, f"unbound variable {name!r}")
        # a selected type's receiver moves with its member body to the other style, and takes its name
        if name == THIS and type(t) is Named and t.name in ctx.it:
            return Var(SELF), t
        if name == SELF and type(t) is Named and t.name in ctx.dt:
            return Var(THIS), t
        return e, t
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
# Definitions: type every body in place, then regroup


def _body(
    what: str, body: Expr, want: Type, ctx: GlobalCtx, recv: str, self_type: str, *scopes: tuple[Param, ...]
) -> Expr:
    """A member body typed and translated with receiver ``recv`` of ``self_type`` and the scopes' binders."""
    env: TypeEnv = {recv: Named(self_type)}
    env.update((p.name, p.type) for params in scopes for p in params)
    body2, got = transform_expr(body, ctx, env)
    if got is not want and got != want:
        raise _err(f"{what} has type {pretty_type(got)}, declared {pretty_type(want)}")
    return body2


def _method(what: str, m: Dtr, ctx: GlobalCtx, self_type: str, *fields: tuple[Param, ...]) -> Dtr:
    """Method or default ``m`` of ``self_type`` with its body typed."""
    return Dtr(m.name, m.params, m.ret, _body(what, m.body, m.ret, ctx, THIS, self_type, *fields, m.params))


def _typed_def(d: Def, ctx: GlobalCtx) -> Def:
    """``d`` in its own form, with every member body typed and translated."""
    cls = type(d)
    if cls is Datatype or cls is Constructor:
        return d
    if cls is Interface:
        dtrs = [
            m if m.body is None else _method(f"default {m.name} in {d.name}", m, ctx, d.name) for m in d.dtrs
        ]
        return Interface(d.name, tuple(dtrs), d.pos)
    if cls is Generator:
        funs = [_method(f"method {f.name} in class {d.name}", f, ctx, d.parent, d.fields) for f in d.funs]
        return Generator(d.name, d.fields, d.parent, tuple(funs), d.pos)
    if cls is not Consumer:
        raise _err(f"unknown definition form {d!r}")
    if d.body is not None:
        raise _err(f"consumer {d.name} must be desugared before transformation", d.pos)
    what = f"consumer {d.name} on {d.self_type}"
    clauses = []
    for clause in d.clauses or ():
        binders: tuple[Param, ...] = ()
        if not clause.pattern.is_wildcard:
            c_sig = ctx.sig.get(clause.pattern.name)
            if c_sig is None or len(c_sig.params) != len(clause.pattern.vars):
                pattern = f"pattern {clause.pattern.name} in consumer {d.name}"
                raise _err(f"{pattern} does not match a constructor of that arity", d.pos)
            binders = tuple(map(Param, clause.pattern.vars, c_sig.params))
        body = _body(what, clause.body, d.ret, ctx, SELF, d.self_type, binders, d.params)
        clauses.append(Clause(clause.pattern, body))
    return Consumer(d.name, d.self_type, d.params, d.ret, tuple(clauses), None, d.pos)


def _regroup(d: Def, typed: dict[DefKey, Def], ctx: GlobalCtx) -> list[Def]:
    """What ``d`` becomes: its typed form, or its part of a selected type's other decomposition.

    ``typed`` maps each definition's key in ``ctx.defs`` to its ``_typed_def``;
    the bodies it holds move between consumers and classes unchanged.
    """
    cls = type(d)
    if cls is Datatype:
        if d.name not in ctx.dt:
            return [d]  # Dt2Dt
        dtrs = []  # Dt2It
        for f in ctx.csm[d.name]:
            c = typed[(f, d.name)]
            wild = c.wildcard_clause()  # Csm2Dec without one, Csm2Fun with one
            dtrs.append(Dtr(f, c.params, c.ret, None if wild is None else wild.body))
        return [Interface(d.name, tuple(dtrs), d.pos)]
    if cls is Interface:
        if d.name not in ctx.it:
            return [typed[d.name]]  # It2It
        out: list[Def] = [Datatype(d.name, d.pos)]  # It2Dt
        for m in typed[d.name].dtrs:
            clauses = []
            for c_name in ctx.gen[d.name]:
                g = typed[c_name]
                impl = next((fun for fun in g.funs if fun.name == m.name), None)
                if impl is not None:  # Fun2Case
                    clauses.append(Clause(Pattern(c_name, tuple(p.name for p in g.fields)), impl.body))
            if m.body is not None:  # Fun2Csm
                clauses.append(Clause(WILDCARD, m.body))
            out.append(Consumer(m.name, d.name, m.params, m.ret, tuple(clauses)))
        return out
    if cls is Constructor:
        if d.name not in ctx.ctr.get(d.parent, ()):
            return [d]  # Ctr2Ctr
        funs = []  # Ctr2Gen
        for f in ctx.csm[d.parent]:
            c = typed[(f, d.parent)]
            clause = c.clause_for(d.name)
            if clause is not None:  # Case2Fun
                funs.append(Dtr(f, c.params, c.ret, clause.body))
        return [Generator(d.name, d.fields, d.parent, tuple(funs), d.pos)]
    if cls is Generator:
        if d.name in ctx.gen.get(d.parent, ()):
            return [Constructor(d.name, d.fields, d.parent, d.pos)]  # Gen2Ctr
        return [typed[d.name]]  # Gen2Gen
    if d.self_type in ctx.dt:
        return []  # CsmElim
    return [typed[(d.name, d.self_type)]]  # Csm2Csm


def transform(
    program: Program,
    selected: set[str] | frozenset[str] | None = None,
    ctx: GlobalCtx | None = None,
) -> TransformResult:
    """Transform all selected types of a desugared, well-formed program.

    ``selected=None`` selects every declared type; an empty set turns the
    whole pass into a type check that returns the program unchanged.  Each
    definition's first typing error, at that definition, and the main
    expression's are raised in one ``TransformError``.
    """
    full = ctx if ctx is not None else preprocess(program)
    if selected is None:
        selected = set(full.type_names())
    rctx = restrict(full, selected)
    typed: dict[DefKey, Def] = {}
    diags: list[Diagnostic] = []
    for d in program.defs:
        try:
            typed[(d.name, d.self_type) if type(d) is Consumer else d.name] = _typed_def(d, rctx)
        except TransformError as exc:
            line, col = getattr(d, "pos", None) or (0, 0)
            diags.extend(dg if dg.line else Diagnostic(dg.message, line, col) for dg in exc.diagnostics)
    try:
        main, main_type = transform_expr(program.main, rctx, {})
    except TransformError as exc:
        diags.extend(exc.diagnostics)
    if diags:
        raise TransformError(diags)
    defs = [out for d in program.defs for out in _regroup(d, typed, rctx)]
    return TransformResult(Program(tuple(defs), main), main_type)


def typecheck(program: Program, ctx: GlobalCtx | None = None) -> Type:
    """Type of the program's main expression; the whole program is derived."""
    return transform(program, frozenset(), ctx=ctx).program_type
