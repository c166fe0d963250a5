"""Type-directed bidirectional translation between decomposition styles.

Selected datatypes become interfaces with classes, selected interfaces become
datatypes with consumers, and all other definitions keep their form.  Typing
does not depend on the selection, and a call flips exactly when its receiver's
type, or its constructor's parent, is selected.  So this takes three steps:

- Typing (``type_program``) types each member body where it stands and builds
  no node.  It raises each definition's first error, at that definition, and
  the main expression's: it is ``check``'s typing half.  It lists the type
  each call flips by, per body.  A typing that passes is kept on the context,
  so a program that ``check`` or ``transform`` typed is not typed again.  No
  other module reads or writes that cache.
- Translation (``_translated``) makes no type check.  Sel2App/App2Sel and
  Obj2New/New2Obj flip a call exactly when its listed type is selected, and a
  selected type's receiver, which moves with its body, takes the other
  style's name.  A body with nothing to flip or rename is kept as it is.
  Each body is translated once.
- Regrouping (``_regroup``) keeps each translated definition whose type is
  not selected, and transposes their matrix (``context.matrix``, kept as
  ``TransformResult.cells``): it moves each body between consumers and classes.

Typing is one rule per form over ``syntax.fold``, and returns the error a
recursive pass meets first: the receiver's, the node's own, then the
arguments'.  Errors are functions that build them with no position;
``type_program`` places each definition's at that definition, and the main
expression's at none.  Translation, like the printer and the machine, is a
hand-written loop: ``syntax.rebuild``, which ``subst`` shares, rebuilds each
node by its exact class and reads at each call whether it flips.
"""

from __future__ import annotations

from dataclasses import field
from functools import partial

from .context import Cell, DefKey, GlobalCtx, TypeEnv, matrix, preprocess, restrict
from .diagnostics import Diagnostic, TransformError, at
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
    node,
    rebuild,
)

_ARITH = {"+", "-", "*"}
_CMP = {"==", "<=", "<"}


# a program's typing: each member body with its environment and call types, and the main expression's type
Typing = tuple[list[tuple[Expr, TypeEnv, list[str]]], Type]


@node
class TransformResult:
    """The transformed program, its type, and the matrix of the translated definitions."""

    program: Program
    program_type: Type
    # the cells that regrouping transposed (``context.matrix``); empty when no type is selected
    cells: dict[tuple[str, str], Cell] = field(compare=False, repr=False)


def _err(message: str) -> TransformError:
    return TransformError([Diagnostic(message)])


def type_expr(e: Expr, ctx: GlobalCtx, env: TypeEnv, names: list[str] | None = None) -> Type:
    """The type of ``e``, or its first error raised; builds no node.  ``names`` gets, in
    fold order, the type each call flips by: a selection's or application's receiver
    type, or a constructor call's or instantiation's parent."""
    t = fold(e, partial(_typing, ctx, env, [] if names is None else names))
    if callable(t):
        raise t()
    return t


def transform_expr(e: Expr, ctx: GlobalCtx, env: TypeEnv) -> tuple[Expr, Type]:
    """The translation of ``e`` and its type.  A selected type's receiver is renamed:
    ``this`` of an interface in ``ctx.it`` to ``self``, ``self`` of a datatype in ``ctx.dt`` to ``this``."""
    names: list[str] = []
    t = type_expr(e, ctx, env, names)
    return _translated(e, env, names, {*ctx.dt, *ctx.it}), t


def _typing(ctx: GlobalCtx, env: TypeEnv, names: list[str], e: Expr, kids: list):
    """The type of ``e`` from its children's, or its first error."""
    cls = type(e)
    if cls is Var:
        t = env.get(e.name)
        return partial(_err, f"unbound variable {e.name!r}") if t is None else t
    if cls is IntLit:
        return INT
    if cls is BoolLit:
        return BOOL
    if cls is Sel or cls is App:
        # one rule for both decompositions: a destructor selected, or a consumer applied
        oo, f, rt = cls is Sel, e.name, kids[0]
        if callable(rt):
            return rt
        if type(rt) is not Named:
            call = f"select {f!r} on" if oo else f"apply consumer {f!r} to"
            return partial(_err, f"cannot {call} a value of type {pretty_type(rt)}")
        sig = (ctx.dtr_sig if oo else ctx.sig).get((f, rt.name))
        if sig is None:
            return partial(_err, f"type {rt.name} has no {'destructor' if oo else 'consumer'} {f!r}")
        if not oo:  # a consumer's signature is D -> (T...) -> T
            sig = sig.ret
            assert isinstance(sig, Arrow)
        kids, flips_by = kids[1:], rt.name
    elif cls is CtrCall or cls is New:
        oo, c = cls is New, e.name
        sig = ctx.sig.get(c)
        if sig is None or not isinstance(ctx.defs.get(c), Generator if oo else Constructor):
            return partial(_err, f"{c} is not a {'class' if oo else 'constructor'}")
        flips_by = sig.ret.name
    elif cls is PrimOp:
        op = e.op
        want = INT if op in _ARITH or op in _CMP else BOOL
        return _expect(e.lhs, kids[0], want) or _expect(e.rhs, kids[1], want) or (INT if op in _ARITH else BOOL)
    elif cls is If:
        if failed := _expect(e.cond, kids[0], BOOL) or _expect(e.then, kids[1]) or _expect(e.els, kids[2]):
            return failed
        _, t1, t2 = kids
        if t1 is not t2 and t1 != t2:
            types = f" have different types {pretty_type(t1)} and {pretty_type(t2)}"
            return _printing("branches of ", e, types)
        return t1
    elif cls is Obj:
        # runtime objects appear only when typing evaluation traces
        sig = ctx.sig.get(e.name)
        if sig is None:
            return partial(_err, f"object tag {e.name} has no signature")
        return _check_args(e, e.args, kids, sig.params) or sig.ret
    else:
        return partial(_err, f"unknown expression form {type(e).__name__}")
    if failed := _check_args(e, e.args, kids, sig.params):  # a call: its arguments, then its flip type
        return failed
    names.append(flips_by)
    return sig.ret


def _expect(e: Expr, got, want: Type | None = None):
    """The error of child ``e``, typed ``got``, where ``want`` is expected; None if it has none."""
    if callable(got):
        return got
    # INT and BOOL are shared instances: identity settles most checks before __eq__
    if want is None or got is want or got == want:
        return None
    return _printing("", e, f" has type {pretty_type(got)}, expected {pretty_type(want)}")


def _check_args(call: Expr, args: tuple[Expr, ...], kids: list, params: tuple[Type, ...]):
    """The first error of a call's arguments, typed as ``kids``, against ``params``; None if none."""
    if len(args) != len(params):
        return _printing("", call, f" takes {len(params)} argument(s), got {len(args)}")
    return next(filter(None, map(_expect, args, kids, params)), None)


def _printing(prefix: str, e: Expr, suffix: str):
    """The error ``prefix``, ``e`` printed, ``suffix``, built only when it is raised."""
    return lambda: _err(prefix + pretty_expr(e) + suffix)


def _translated(e: Expr, env: TypeEnv, names: list[str], kept: set[str]) -> Expr:
    """``e``, typed in ``env`` with the call types ``names``, translated with the types ``kept`` selected."""
    # a selected type's receiver moves with its member body to the other style, and takes its
    # name: ``this`` is always an interface's and ``self`` a datatype's, and no two types share one
    renames = {
        recv: Var(other)
        for recv, other in ((THIS, SELF), (SELF, THIS))
        if type(t := env.get(recv)) is Named and t.name in kept
    }
    if not renames and kept.isdisjoint(names):
        return e  # no call flips and no receiver moves
    # a call flips when its listed type is selected: the typing listed the types in the
    # post-order in which the rebuild reads the flips
    return rebuild(e, renames, map(kept.__contains__, names))


# ---------------------------------------------------------------------------
# Definitions: type every body where it stands, translate it, then regroup


def _members(d: Def, ctx: GlobalCtx):
    """Each member body of ``d``: what it is, the body, its declared type and its typing environment."""
    cls = type(d)
    if cls is Interface:
        for m in d.dtrs:
            if m.body is not None:
                yield f"default {m.name} in {d.name}", m.body, m.ret, _env(THIS, d.name, m.params)
    elif cls is Generator:
        for f in d.funs:
            yield f"method {f.name} in class {d.name}", f.body, f.ret, _env(THIS, d.parent, d.fields, f.params)
    elif cls is Consumer:
        for clause in d.clauses:
            binders: tuple[Param, ...] = ()
            if not clause.pattern.is_wildcard:
                c_sig = ctx.sig.get(clause.pattern.name)
                if c_sig is None or len(c_sig.params) != len(clause.pattern.vars):
                    pattern = f"pattern {clause.pattern.name} in consumer {d.name}"
                    raise _err(f"{pattern} does not match a constructor of that arity")
                binders = tuple(map(Param, clause.pattern.vars, c_sig.params))
            env = _env(SELF, d.self_type, binders, d.params)
            yield f"consumer {d.name} on {d.self_type}", clause.body, d.ret, env
    elif cls is not Datatype and cls is not Constructor:
        raise _err(f"unknown definition form {cls.__name__}")


def _env(recv: str, self_type: str, *scopes: tuple[Param, ...]) -> TypeEnv:
    """The typing environment of a member body: receiver ``recv`` of ``self_type``, then the scopes' binders."""
    env: TypeEnv = {recv: Named(self_type)}
    env.update((p.name, p.type) for params in scopes for p in params)
    return env


def _with_bodies(d: Def, bodies) -> Def:
    """``d`` with its member bodies, in ``_members`` order, taken from the iterator ``bodies``."""
    cls = type(d)
    if cls is Interface:
        dtrs = [m if m.body is None else Dtr(m.name, m.params, m.ret, next(bodies)) for m in d.dtrs]
        return Interface(d.name, tuple(dtrs), d.pos)
    if cls is Generator:
        funs = [Dtr(f.name, f.params, f.ret, next(bodies)) for f in d.funs]
        return Generator(d.name, d.fields, d.parent, tuple(funs), d.pos)
    if cls is Consumer:
        clauses = [Clause(c.pattern, next(bodies)) for c in d.clauses]
        return Consumer(d.name, d.self_type, d.params, d.ret, tuple(clauses), d.pos)
    return d


def type_program(program: Program, ctx: GlobalCtx) -> Typing:
    """Each member body, in ``_members`` order and the main expression last, with
    its typing environment and call types (``type_expr``), and the main expression's
    type.  The typing kept on ``ctx`` for this very program is returned as it is;
    otherwise the program is typed, and the typing is kept if it passes.  A
    failing typing raises each definition's first error, at that definition,
    and the main expression's in one ``TransformError``."""
    kept = ctx.typings.get(id(program))
    if kept is not None and kept[0] is program:
        return kept[1]
    bodies: list[tuple[Expr, TypeEnv, list[str]]] = []
    diags: list[Diagnostic] = []
    for d in program.defs:
        try:
            for what, body, want, env in _members(d, ctx):
                bodies.append((body, env, names := []))
                got = type_expr(body, ctx, env, names)
                if got is not want and got != want:
                    raise _err(f"{what} has type {pretty_type(got)}, declared {pretty_type(want)}")
        except TransformError as exc:
            diags.extend(dg if dg.line else at(dg.message, getattr(d, "pos", None)) for dg in exc.diagnostics)
    bodies.append((program.main, {}, names := []))
    try:
        main_type = type_expr(program.main, ctx, {}, names)
    except TransformError as exc:
        diags.extend(exc.diagnostics)
    if diags:
        raise TransformError(diags)
    ctx.typings[id(program)] = program, (bodies, main_type)
    return bodies, main_type


def _regroup(d: Def, ctx: GlobalCtx, kept: set, cells: dict) -> list[Def]:
    """What translated ``d`` becomes: itself, or its part of a selected type's other decomposition.

    ``cells`` is the matrix of the translated definitions: the bodies it holds
    move between consumers and classes unchanged.  ``kept`` holds the selected
    types' names.  Translation keeps signatures, so they are read off ``ctx.defs``.
    """
    cls = type(d)
    owner = d.name if cls is Datatype or cls is Interface else d.self_type if cls is Consumer else d.parent
    if owner not in kept:
        return [d]  # Dt2Dt, It2It, Ctr2Ctr, Gen2Gen, Csm2Csm
    if cls is Datatype:
        dtrs = []  # Dt2It
        for f in ctx.csm[d.name]:
            c, wild = ctx.defs[(f, d.name)], cells.get((f, d.name))  # Csm2Dec without a wildcard, Csm2Fun with one
            dtrs.append(Dtr(f, c.params, c.ret, None if wild is None else wild.body))
        return [Interface(d.name, tuple(dtrs), d.pos)]
    if cls is Interface:
        out: list[Def] = [Datatype(d.name, d.pos)]  # It2Dt
        for m in d.dtrs:
            clauses = []
            for c_name in ctx.gen[d.name]:
                cell = cells.get((m.name, c_name))
                if cell is not None and cell.kind == "own":  # Fun2Case
                    clauses.append(Clause(Pattern(c_name, cell.bound), cell.body))
            if m.body is not None:  # Fun2Csm
                clauses.append(Clause(WILDCARD, m.body))
            out.append(Consumer(m.name, d.name, m.params, m.ret, tuple(clauses)))
        return out
    if cls is Constructor:
        funs = []  # Ctr2Gen
        for f in ctx.csm[d.parent]:
            c, cell = ctx.defs[(f, d.parent)], cells.get((f, d.name))
            if cell is not None and cell.kind == "own":  # Case2Fun
                funs.append(Dtr(f, c.params, c.ret, cell.body))
        return [Generator(d.name, d.fields, d.parent, tuple(funs), d.pos)]
    if cls is Generator:
        return [Constructor(d.name, d.fields, d.parent, d.pos)]  # Gen2Ctr
    return []  # CsmElim


def transform(
    program: Program,
    selected: set[str] | frozenset[str] | None = None,
    ctx: GlobalCtx | None = None,
) -> TransformResult:
    """Transform all selected types of a well-formed program.

    ``selected=None`` selects every declared type; an empty set returns the
    program unchanged.  The program is typed by ``type_program``, which raises
    its errors and reads a typing kept on ``ctx``.
    """
    full = ctx if ctx is not None else preprocess(program)
    if selected is None:
        selected = set(full.type_names())
    rctx = restrict(full, selected)
    bodies, main_type = type_program(program, rctx)
    kept = {*rctx.dt, *rctx.it}
    translated = (_translated(body, env, names, kept) for body, env, names in bodies)
    typed: dict[DefKey, Def] = {}
    for d in program.defs:
        typed[(d.name, d.self_type) if type(d) is Consumer else d.name] = _with_bodies(d, translated)
    cells = matrix(typed) if kept else {}  # only a selected type's definitions read the cells
    defs = [out for d in typed.values() for out in _regroup(d, rctx, kept, cells)]
    return TransformResult(Program(tuple(defs), next(translated)), main_type, cells)


def typecheck(program: Program, ctx: GlobalCtx | None = None) -> Type:
    """Type of the program's main expression; the whole program is typed."""
    return type_program(program, ctx if ctx is not None else preprocess(program))[1]
