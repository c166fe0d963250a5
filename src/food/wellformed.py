"""Static checks assumed before translation, with ``check`` their one entry.

Collects one diagnostic per violation of the structural conditions that typing
cannot see: declared names that the parser reads as names of their kind (by
``syntax.KEYWORDS``, ``RESERVED_TYPES`` and ``IDENT``), declared types and no
function type in signatures, reserved, duplicate and shadowing binders
(disjointness keeps the evaluation substitutions well defined), exact
interface implementation, non-overlapping clauses that name constructors of
their datatype with any wildcard clause last, the pattern/field naming
restriction, exhaustiveness, integer literals whose value is an int in
0..2**63 - 1 (what the parser reads) and no runtime objects; coverage is read
off the matrix that ``context.matrix`` builds.  Only when those hold does the
typing pass (``transform.type_program``) run, reporting scoping, operators
outside ``syntax.OPERATORS``, call kind, member names and arity, so a clean
check guarantees the transformation cannot fail, and keeping a passing typing
on the context for a later ``transform``.  Every diagnostic of a definition
sits at that definition, whose position ``run`` sets once; the main
expression's have none.
"""

from __future__ import annotations

from .context import GlobalCtx
from .diagnostics import Diagnostic, TransformError, at
from .syntax import (
    Arrow,
    Constructor,
    Consumer,
    Datatype,
    Expr,
    Generator,
    INT64_MAX,
    IntLit,
    Interface,
    is_identifier,
    KEYWORDS,
    Named,
    Obj,
    Param,
    Program,
    RESERVED_BINDERS,
    RESERVED_TYPES,
    Type,
    _nodes,
)
from .transform import type_program


def check(program: Program, ctx: GlobalCtx) -> list[Diagnostic]:
    """The diagnostics of a program, parsed or built, against its unrestricted context: none when well formed."""
    diags = _Checker(program, ctx).run()
    if not diags:
        try:
            type_program(program, ctx)
        except TransformError as exc:
            return list(exc.diagnostics)
    return diags


class _Checker:
    def __init__(self, program: Program, ctx: GlobalCtx):
        self.program = program
        self.ctx = ctx
        self.diags: list[Diagnostic] = []
        self.declared = set(ctx.dt) | set(ctx.it)
        self.pos: tuple[int, int] | None = None  # where report places a diagnostic

    def report(self, message: str) -> None:
        self.diags.append(at(message, self.pos))

    def run(self) -> list[Diagnostic]:
        for d in self.program.defs:
            self.pos = getattr(d, "pos", None)  # every diagnostic of d sits at d
            match d:
                case Interface():
                    self.check_name(d.name, "interface")
                    self.check_interface(d)
                case Generator():
                    self.check_name(d.name, "class")
                    self.check_generator(d)
                case Constructor():
                    self.check_name(d.name, "constructor")
                    self.check_params(d.fields, f"constructor {d.name}", "field")
                case Consumer():
                    self.check_name(d.name, "consumer")
                    self.check_consumer(d)
                case Datatype():
                    self.check_name(d.name, "datatype")
        self.pos = None  # the main expression's have no position
        self.check_body(self.program.main)
        return self.diags

    # -- helpers

    def check_type(self, t: Type, where: str) -> None:
        if isinstance(t, Named) and t.name not in self.declared:
            self.report(f"{where} mentions undeclared type {t.name}")
        elif isinstance(t, Arrow):  # collected signatures only: no source text declares one
            self.report(f"{where} mentions a function type")

    def check_name(self, name: str, kind: str) -> None:
        """Report a declared name that the parser cannot read as a name of its kind."""
        upper = kind in ("datatype", "interface", "constructor", "class")
        if not is_identifier(name):
            self.report(f"{kind} name {name!r} is not an identifier")
        elif name in KEYWORDS:
            self.report(f"{kind} name {name!r} is a keyword")
        elif upper and name in RESERVED_TYPES:
            self.report(f"{kind} name {name!r} is a reserved type name")
        elif kind == "consumer" and name in RESERVED_BINDERS:  # the parser reads no call of it
            self.report(f"{kind} name {name!r} is reserved")
        elif not (name[0].isupper() if upper else name[0].islower()):
            self.report(f"{kind} name {name!r} must start with {'an uppercase' if upper else 'a lowercase'} letter")

    def check_params(self, params: tuple[Param, ...], where: str, kind: str = "parameter") -> list[str]:
        seen: list[str] = []
        for p in params:
            self.check_name(p.name, kind)
            if p.name in RESERVED_BINDERS:
                self.report(f"{where} declares reserved name {p.name!r}")
            if p.name in seen:
                self.report(f"{where} declares {p.name!r} twice")
            seen.append(p.name)
            self.check_type(p.type, where)
        return seen

    def check_body(self, e: Expr) -> None:
        found = _nodes(e, (Obj, IntLit))  # one scan for both rules
        if Obj in map(type, found):
            self.report("runtime object in source program")
        for n in (x.value for x in found if type(x) is IntLit):
            if type(n) is not int:  # a bool or a float prints as text the parser does not read
                self.report(f"integer literal value {n!r} is not an int")
            elif not 0 <= n <= INT64_MAX:
                self.report(f"integer literal {n} is outside 0..{INT64_MAX}")

    # -- definitions

    def check_interface(self, d: Interface) -> None:
        for m in d.dtrs:
            self.check_name(m.name, "method")
            where = f"destructor {m.name} of {d.name}"
            self.check_params(m.params, where)
            self.check_type(m.ret, where)
            if m.body is not None:
                self.check_body(m.body)

    def check_generator(self, d: Generator) -> None:
        where = f"class {d.name}"
        fields = self.check_params(d.fields, where, "field")
        if d.parent not in self.ctx.it:
            return  # reported by preprocessing
        # the interface's declared signatures, compared with each method's: this map picks
        # no body (the matrix does), so it is the one lookup of members outside context
        declared = {m.name: m for m in self.ctx.defs[d.parent].dtrs}
        seen: set[str] = set()
        for fun in d.funs:
            mwhere = f"method {fun.name} of class {d.name}"
            if fun.name in seen:
                self.report(f"{mwhere} is defined twice")
            seen.add(fun.name)
            if fun.name not in declared:
                self.report(f"{mwhere} is not declared by interface {d.parent}")
                continue
            decl = declared[fun.name]
            if fun.params != decl.params or fun.ret != decl.ret:
                self.report(f"{mwhere} does not match the declared signature")
            params = self.check_params(fun.params, mwhere)
            overlap = set(params) & set(fields)
            if overlap:
                self.report(f"{mwhere} shadows field(s) {', '.join(sorted(overlap))}")
            if fun.body is None:
                self.report(f"{mwhere} has no body")
            else:
                self.check_body(fun.body)
        for name in sorted(n for n in declared if n not in seen and (n, d.name) not in self.ctx.cells):
            self.report(f"class {d.name} does not implement {name!r}")

    def check_consumer(self, d: Consumer) -> None:
        where = f"consumer {d.name} on {d.self_type}"
        params = self.check_params(d.params, where)
        self.check_type(d.ret, where)
        ctors = self.ctx.ctr.get(d.self_type, ())
        ctor_set = set(ctors)
        seen: set[str] = set()
        for i, clause in enumerate(d.clauses):
            if clause.pattern.is_wildcard:
                if i != len(d.clauses) - 1:
                    self.report(f"{where}: wildcard clause must be last")
                self.check_body(clause.body)
                continue
            c = clause.pattern.name
            if c in seen:
                self.report(f"{where} has two clauses for {c}")
            seen.add(c)
            if c not in ctor_set:
                self.report(f"{where} matches {c}, which is not a constructor of {d.self_type}")
                continue
            ctor = self.ctx.defs[c]
            assert isinstance(ctor, Constructor)
            field_names = tuple(p.name for p in ctor.fields)
            if clause.pattern.vars != field_names:
                self.report(f"{where}: pattern for {c} must bind the field names ({', '.join(field_names)}) in order")
            overlap = set(clause.pattern.vars) & set(params)
            if overlap:
                self.report(f"{where}: pattern for {c} shadows parameter(s) {', '.join(sorted(overlap))}")
            self.check_body(clause.body)
        for c in ctors:
            if (d.name, c) not in self.ctx.cells:
                self.report(f"{where} has no clause for constructor {c}")
