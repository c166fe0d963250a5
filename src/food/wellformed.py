"""Static checks assumed before translation.

Collects one diagnostic per violation of the structural conditions that
typing cannot see: declared types in signatures, reserved, duplicate and
shadowing binders (disjointness keeps the evaluation substitutions well
defined), exact interface implementation, desugared and non-overlapping
clauses that name constructors of their datatype, the pattern/field naming
restriction, exhaustiveness, and the absence of runtime objects.  Once those
hold, the typing pass (``transform.type_program``) reports scoping, call kind,
member names and arity, so that a clean check guarantees the transformation
cannot fail.  A passing check keeps its typing on the context for ``transform``.
"""

from __future__ import annotations

from .context import GlobalCtx
from .diagnostics import Diagnostic, TransformError
from .syntax import (
    Constructor,
    Consumer,
    Datatype,
    Dtr,
    Expr,
    Generator,
    Interface,
    Named,
    Param,
    Program,
    RESERVED_BINDERS,
    Type,
    contains_obj,
)
from .transform import keep_typing


def check(program: Program, ctx: GlobalCtx) -> list[Diagnostic]:
    """Check a desugared program against its unrestricted context.

    Returns the empty list when the program is well formed.
    """
    diags = check_structure(program, ctx)
    if not diags:
        try:
            keep_typing(program, ctx)
        except TransformError as exc:
            return list(exc.diagnostics)
    return diags


def check_structure(program: Program, ctx: GlobalCtx) -> list[Diagnostic]:
    """The structural half of ``check``: its diagnostics other than typing's."""
    checker = _Checker(program, ctx)
    checker.run()
    return checker.diags


class _Checker:
    def __init__(self, program: Program, ctx: GlobalCtx):
        self.program = program
        self.ctx = ctx
        self.diags: list[Diagnostic] = []
        self.declared = set(ctx.dt) | set(ctx.it)

    def report(self, message: str, pos: tuple[int, int] | None) -> None:
        line, col = pos or (0, 0)
        self.diags.append(Diagnostic(message, line, col))

    def run(self) -> None:
        for d in self.program.defs:
            match d:
                case Interface():
                    self.check_interface(d)
                case Generator():
                    self.check_generator(d)
                case Constructor():
                    self.check_params(d.fields, f"constructor {d.name}", d.pos)
                case Consumer():
                    self.check_consumer(d)
                case Datatype():
                    pass
        self.check_body(self.program.main, None)

    # -- helpers

    def check_type(self, t: Type, where: str, pos: tuple[int, int] | None) -> None:
        if isinstance(t, Named) and t.name not in self.declared:
            self.report(f"{where} mentions undeclared type {t.name}", pos)

    def check_params(self, params: tuple[Param, ...], where: str, pos: tuple[int, int] | None) -> list[str]:
        seen: list[str] = []
        for p in params:
            if p.name in RESERVED_BINDERS:
                self.report(f"{where} declares reserved name {p.name!r}", pos)
            if p.name in seen:
                self.report(f"{where} declares {p.name!r} twice", pos)
            seen.append(p.name)
            self.check_type(p.type, where, pos)
        return seen

    def check_body(self, e: Expr, pos: tuple[int, int] | None) -> None:
        if contains_obj(e):
            self.report("runtime object in source program", pos)

    # -- definitions

    def check_interface(self, d: Interface) -> None:
        for m in d.dtrs:
            where = f"destructor {m.name} of {d.name}"
            self.check_params(m.params, where, d.pos)
            self.check_type(m.ret, where, d.pos)
            if m.body is not None:
                self.check_body(m.body, d.pos)

    def check_generator(self, d: Generator) -> None:
        where = f"class {d.name}"
        fields = self.check_params(d.fields, where, d.pos)
        if d.parent not in self.ctx.it:
            return  # reported by preprocessing
        declared = {m.name: m for m in self.interface_members(d.parent)}
        required = {name for name, m in declared.items() if m.body is None}
        seen: set[str] = set()
        for fun in d.funs:
            mwhere = f"method {fun.name} of class {d.name}"
            if fun.name in seen:
                self.report(f"{mwhere} is defined twice", d.pos)
            seen.add(fun.name)
            if fun.name not in declared:
                self.report(f"{mwhere} is not declared by interface {d.parent}", d.pos)
                continue
            decl = declared[fun.name]
            if fun.params != decl.params or fun.ret != decl.ret:
                self.report(f"{mwhere} does not match the declared signature", d.pos)
            params = self.check_params(fun.params, mwhere, d.pos)
            overlap = set(params) & set(fields)
            if overlap:
                self.report(f"{mwhere} shadows field(s) {', '.join(sorted(overlap))}", d.pos)
            if fun.body is not None:
                self.check_body(fun.body, d.pos)
        for name in sorted(required - seen):
            self.report(f"class {d.name} does not implement {name!r}", d.pos)

    def interface_members(self, name: str) -> tuple[Dtr, ...]:
        d = self.ctx.defs.get(name)
        return d.dtrs if isinstance(d, Interface) else ()

    def check_consumer(self, d: Consumer) -> None:
        where = f"consumer {d.name} on {d.self_type}"
        params = self.check_params(d.params, where, d.pos)
        self.check_type(d.ret, where, d.pos)
        if d.body is not None:
            self.report(f"{where} has not been desugared", d.pos)
            self.check_body(d.body, d.pos)
            return
        ctors = self.ctx.ctr.get(d.self_type, ())
        wildcard = d.wildcard_clause() is not None
        seen: list[str] = []
        for i, clause in enumerate(d.clauses or ()):
            if clause.pattern.is_wildcard:
                if i != len(d.clauses) - 1:
                    self.report(f"{where}: wildcard clause must be last", d.pos)
                self.check_body(clause.body, d.pos)
                continue
            c = clause.pattern.name
            if c in seen:
                self.report(f"{where} has two clauses for {c}", d.pos)
            seen.append(c)
            if c not in ctors:
                self.report(f"{where} matches {c}, which is not a constructor of {d.self_type}", d.pos)
                continue
            ctor = self.ctx.defs[c]
            assert isinstance(ctor, Constructor)
            field_names = tuple(p.name for p in ctor.fields)
            if clause.pattern.vars != field_names:
                self.report(
                    f"{where}: pattern for {c} must bind the field names "
                    f"({', '.join(field_names)}) in order",
                    d.pos,
                )
            overlap = set(clause.pattern.vars) & set(params)
            if overlap:
                self.report(f"{where}: pattern for {c} shadows parameter(s) {', '.join(sorted(overlap))}", d.pos)
            self.check_body(clause.body, d.pos)
        if not wildcard:
            for c in ctors:
                if c not in seen:
                    self.report(f"{where} has no clause for constructor {c}", d.pos)
