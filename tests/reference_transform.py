"""The definition layer of the transformation, one paper rule at a time: a test-only reference.

``reference(p, S)`` is what ``transform(p, S).program`` must be, exactly.  It
scans the definitions of ``p`` directly, reads no matrix and no
``transform._regroup``, and applies the paper's definition rules to each:

- a selected datatype: Dt2It, with one Csm2Dec (a consumer with no wildcard
  clause) or Csm2Fun (its wildcard clause becomes the default) per consumer;
- a selected interface: It2Dt, with one consumer per destructor, made of
  Fun2Case (a clause per class that defines the member) and Fun2Csm (the
  default becomes the wildcard clause);
- a constructor of a selected datatype: Ctr2Gen, with Case2Fun (a method per
  consumer with a clause for it);
- a class of a selected interface: Gen2Ctr;
- a consumer of a selected datatype: CsmElim;
- everything else keeps its form (Dt2Dt, It2It, Ctr2Ctr, Gen2Gen, Csm2Csm).

Every body is translated by ``reference_recursive.transform_expr`` on the
restricted context, and a selected type's receiver is then renamed by
``subst``, as the transformation did before it renamed in its translation.
Each rule lists members and variants in definition order, and each body keeps
the names it binds: check requires a clause's pattern to bind the
constructor's field names, in order.
"""

from __future__ import annotations

import reference_recursive as ref

from food.context import GlobalCtx, TypeEnv, preprocess, restrict
from food.syntax import (
    Clause,
    Constructor,
    Consumer,
    Datatype,
    Dtr,
    Expr,
    Generator,
    Interface,
    Named,
    Param,
    Pattern,
    Program,
    SELF,
    THIS,
    Var,
    WILDCARD,
    subst,
)


def reference_typed(e: Expr, ctx: GlobalCtx, env: TypeEnv):
    """``ref.transform_expr``, then the receiver of a selected type renamed by ``subst``."""
    out, t = ref.transform_expr(e, ctx, env)
    for recv, other, selected in ((THIS, SELF, ctx.it), (SELF, THIS, ctx.dt)):
        if isinstance(env.get(recv), Named) and env[recv].name in selected:
            out = subst(out, {recv: Var(other)})
    return out, t


def reference(program: Program, selected: set[str] | frozenset[str]) -> Program:
    """The transformed program of a checked ``program`` with the types ``selected``, rule by rule."""
    ctx = restrict(preprocess(program), selected)
    defs = program.defs
    fields = {d.name: d.fields for d in defs if type(d) is Constructor}

    def body(e: Expr, recv: str, owner: str, *scopes: tuple[Param, ...]) -> Expr:
        env: TypeEnv = {recv: Named(owner)}
        env.update((p.name, p.type) for params in scopes for p in params)
        return reference_typed(e, ctx, env)[0]

    def clause_body(csm: Consumer, c: Clause) -> Expr:
        binders = () if c.pattern.is_wildcard else fields[c.pattern.name]
        return body(c.body, SELF, csm.self_type, binders, csm.params)

    def consumers(t: str) -> list[Consumer]:
        return [d for d in defs if type(d) is Consumer and d.self_type == t]

    out = []
    for d in defs:
        cls = type(d)
        if cls is Datatype and d.name in selected:  # Dt2It
            dtrs = []
            for csm in consumers(d.name):
                wild = next((c for c in csm.clauses if c.pattern.is_wildcard), None)
                default = None if wild is None else clause_body(csm, wild)  # Csm2Dec, or Csm2Fun
                dtrs.append(Dtr(csm.name, csm.params, csm.ret, default))
            out.append(Interface(d.name, tuple(dtrs)))
        elif cls is Interface and d.name in selected:  # It2Dt
            out.append(Datatype(d.name))
            classes = [g for g in defs if type(g) is Generator and g.parent == d.name]
            for m in d.dtrs:
                clauses = []
                for g in classes:  # Fun2Case
                    fun = next((f for f in g.funs if f.name == m.name), None)
                    if fun is not None:
                        own = body(fun.body, THIS, d.name, g.fields, fun.params)
                        clauses.append(Clause(Pattern(g.name, tuple(p.name for p in g.fields)), own))
                if m.body is not None:  # Fun2Csm
                    clauses.append(Clause(WILDCARD, body(m.body, THIS, d.name, m.params)))
                out.append(Consumer(m.name, d.name, m.params, m.ret, tuple(clauses)))
        elif cls is Constructor and d.parent in selected:  # Ctr2Gen
            funs = []
            for csm in consumers(d.parent):  # Case2Fun
                case = next((c for c in csm.clauses if c.pattern.name == d.name), None)
                if case is not None:
                    funs.append(Dtr(csm.name, csm.params, csm.ret, clause_body(csm, case)))
            out.append(Generator(d.name, d.fields, d.parent, tuple(funs)))
        elif cls is Generator and d.parent in selected:  # Gen2Ctr
            out.append(Constructor(d.name, d.fields, d.parent))
        elif cls is Consumer and d.self_type in selected:  # CsmElim
            pass
        elif cls is Interface:  # It2It
            dtrs = [m if m.body is None else Dtr(m.name, m.params, m.ret, body(m.body, THIS, d.name, m.params))
                    for m in d.dtrs]
            out.append(Interface(d.name, tuple(dtrs)))
        elif cls is Generator:  # Gen2Gen
            funs = [Dtr(f.name, f.params, f.ret, body(f.body, THIS, d.parent, d.fields, f.params))
                    for f in d.funs]
            out.append(Generator(d.name, d.fields, d.parent, tuple(funs)))
        elif cls is Consumer:  # Csm2Csm
            clauses = [Clause(c.pattern, clause_body(d, c)) for c in d.clauses]
            out.append(Consumer(d.name, d.self_type, d.params, d.ret, tuple(clauses)))
        else:  # Dt2Dt, Ctr2Ctr
            out.append(d)
    return Program(tuple(out), reference_typed(program.main, ctx, {})[0])
