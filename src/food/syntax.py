"""Abstract syntax of FOOD programs, the desugaring and canonicalization passes,
and one stack-safe expression traversal, which takes any depth.  Only the
evaluator's machines walk expressions by hand, for speed; ``subst``, the
printer, the typer and the translation each give ``fold`` one rule per form.

All nodes are immutable; structural equality is dataclass equality and ignores
the (non-compared) source positions attached to definitions.

Every layer builds nodes: the parser and the transformation build programs,
and each step of the substituting machine builds a few (``subst`` rebuilds a
method body, the machine plugs a parent).  So node classes are declared with
``@node``: a frozen dataclass with slots, whose ``__init__`` stores each field
through its slot's descriptor, bound once per class.  The ``__init__`` a
frozen dataclass generates calls ``object.__setattr__`` per field and costs
about twice as much.  Only ``__init__`` writes a field; assigning or deleting
one afterwards raises ``FrozenInstanceError``, and equality, hashing,
``repr``, class patterns and ``dataclasses.replace`` are the dataclass's own.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace


def node(cls):
    """``cls`` as a frozen, slotted dataclass with a constructor that writes its slots directly.

    A field may have a plain default, such as ``pos=None``, but no default factory.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    names, defaults = [], {}
    for f in fields(cls):
        if f.default_factory is not MISSING or f.kw_only:
            raise TypeError(f"@node field {cls.__name__}.{f.name} is keyword-only or has a factory")
        names.append(f.name)
        if f.default is not MISSING:
            defaults[f.name] = f.default
    params = [f"{x}=_default_{x}" if x in defaults else x for x in names]
    # the setters and defaults are arguments of an outer function, so the
    # constructor reads them as closure cells
    outer = [f"_set_{x}" for x in names] + [f"_default_{x}" for x in defaults]
    body = "".join(f"  _set_{x}(self, {x})\n" for x in names) or "  pass\n"
    src = (
        f"def outer({', '.join(outer)}):\n"
        f" def __init__({', '.join(['self', *params])}):\n{body}"
        " return __init__\n"
    )
    scope: dict = {}
    exec(src, scope)
    init = scope["outer"](*(cls.__dict__[x].__set__ for x in names), *defaults.values())
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


# ---------------------------------------------------------------------------
# Types


class Type:
    """A FOOD type: a named datatype/interface, Int, Bool, or an arrow."""

    __slots__ = ()


@node
class Named(Type):
    name: str


@node
class IntT(Type):
    pass


@node
class BoolT(Type):
    pass


@node
class Arrow(Type):
    """Arrows occur only in collected signatures, never in parsed source."""

    params: tuple[Type, ...]
    ret: Type


INT = IntT()
BOOL = BoolT()


# ---------------------------------------------------------------------------
# Expressions

class Expr:
    """Base class for FOOD expressions."""

    __slots__ = ()


@node
class Var(Expr):
    name: str


@node
class Sel(Expr):
    """Method selection ``recv.f(args)``."""

    recv: Expr
    name: str
    args: tuple[Expr, ...]


@node
class App(Expr):
    """Consumer application ``f(recv)(args)``."""

    name: str
    recv: Expr
    args: tuple[Expr, ...]


@node
class CtrCall(Expr):
    """Constructor call ``C(args)``."""

    name: str
    args: tuple[Expr, ...]


@node
class New(Expr):
    """Object creation ``new C(args)``."""

    name: str
    args: tuple[Expr, ...]


@node
class Obj(Expr):
    """Runtime object; never appears in parsed source. Args are value forms."""

    name: str
    args: tuple[Expr, ...]


@node
class IntLit(Expr):
    value: int


@node
class BoolLit(Expr):
    value: bool


@node
class PrimOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr


# Binding strength of the binary operators, for the parser and the printer;
# every level is left-associative.
PREC = {"||": 1, "&&": 2, "==": 3, "<=": 3, "<": 3, "+": 4, "-": 4, "*": 5}


@node
class If(Expr):
    cond: Expr
    then: Expr
    els: Expr


# ---------------------------------------------------------------------------
# Definitions


@node
class Param:
    name: str
    type: Type


@node
class Pattern:
    """Top-level pattern ``C(vars)``; a wildcard has name None and no vars."""

    name: str | None
    vars: tuple[str, ...] = ()

    @property
    def is_wildcard(self) -> bool:
        return self.name is None


WILDCARD = Pattern(None)


@node
class Clause:
    pattern: Pattern
    body: Expr


@node
class Dtr:
    """Interface member: a declaration (no body) or a function (with body)."""

    name: str
    params: tuple[Param, ...]
    ret: Type
    body: Expr | None = None


class Def:
    """Base class for the five definition forms."""

    __slots__ = ()


@node
class Datatype(Def):
    name: str
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@node
class Interface(Def):
    name: str
    dtrs: tuple[Dtr, ...]
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@node
class Constructor(Def):
    name: str
    fields: tuple[Param, ...]
    parent: str
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@node
class Generator(Def):
    name: str
    fields: tuple[Param, ...]
    parent: str
    funs: tuple[Dtr, ...]
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@node
class Consumer(Def):
    """Pattern-matching function on a datatype.

    Exactly one of ``clauses``/``body`` is set; a bare expression body is the
    sugared form that ``desugar`` rewrites into a single wildcard clause.
    """

    name: str
    self_type: str
    params: tuple[Param, ...]
    ret: Type
    clauses: tuple[Clause, ...] | None = None
    body: Expr | None = None
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def wildcard_clause(self) -> Clause | None:
        for clause in self.clauses or ():
            if clause.pattern.is_wildcard:
                return clause
        return None

    def clause_for(self, ctor: str) -> Clause | None:
        for clause in self.clauses or ():
            if clause.pattern.name == ctor:
                return clause
        return None


@node
class Program:
    defs: tuple[Def, ...]
    main: Expr


SELF = "self"
THIS = "this"
RESERVED_BINDERS = (SELF, THIS)


# ---------------------------------------------------------------------------
# Passes


def desugar(program: Program) -> Program:
    """Rewrite every bare-expression consumer body into one wildcard clause."""
    defs = []
    for d in program.defs:
        if isinstance(d, Consumer) and d.body is not None:
            d = replace(d, clauses=(Clause(WILDCARD, d.body),), body=None)
        defs.append(d)
    return Program(tuple(defs), program.main)


def canonicalize(program: Program) -> Program:
    """Normalize definition placement and clause order.

    Each datatype is immediately followed by its consumers in source consumer
    order, and each consumer's named clauses are reordered to the declaration
    order of the datatype's constructors (any wildcard stays last).  The
    relative order of all other definitions is preserved.
    """
    ctor_order: dict[str, list[str]] = {}
    consumers: dict[str, list[Consumer]] = {}
    datatypes = {d.name for d in program.defs if isinstance(d, Datatype)}
    for d in program.defs:
        if isinstance(d, Constructor):
            ctor_order.setdefault(d.parent, []).append(d.name)
        elif isinstance(d, Consumer) and d.self_type in datatypes:
            consumers.setdefault(d.self_type, []).append(d)

    def sort_clauses(c: Consumer) -> Consumer:
        if c.clauses is None:
            return c
        order = ctor_order.get(c.self_type, [])
        named = [cl for cl in c.clauses if not cl.pattern.is_wildcard]
        wild = [cl for cl in c.clauses if cl.pattern.is_wildcard]
        named.sort(
            key=lambda cl: order.index(cl.pattern.name)
            if cl.pattern.name in order
            else len(order)
        )
        return replace(c, clauses=tuple(named + wild))

    defs: list[Def] = []
    for d in program.defs:
        if isinstance(d, Consumer) and d.self_type in datatypes:
            continue  # re-emitted right after its datatype
        defs.append(d)
        if isinstance(d, Datatype):
            defs.extend(sort_clauses(c) for c in consumers.get(d.name, []))
    return Program(tuple(defs), program.main)


def subst(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Simultaneous variable substitution, at any depth.

    FOOD expressions contain no binders, so no capture is possible.
    """
    # the substituting machine's call rule; the environment machine reads a
    # stopped state back with it
    if not mapping:
        return e

    def rule(x: Expr, kids: list) -> Expr:
        if not kids:
            return mapping.get(x.name, x) if type(x) is Var else x
        return x if type(x) is Obj else with_children(x, tuple(kids))  # runtime objects hold values only

    return fold(e, rule)


# ---------------------------------------------------------------------------
# Generic traversal, with exact class tests


def children(e: Expr) -> tuple[Expr, ...]:
    """The immediate subexpressions of ``e``, left to right."""
    cls = type(e)
    if cls is Sel or cls is App:
        return (e.recv, *e.args)
    if cls is CtrCall or cls is New or cls is Obj:
        return e.args
    if cls is PrimOp:
        return (e.lhs, e.rhs)
    if cls is If:
        return (e.cond, e.then, e.els)
    return ()


def with_children(e: Expr, kids: tuple[Expr, ...]) -> Expr:
    """``e`` with its immediate subexpressions replaced by ``kids``, in ``children`` order."""
    cls = type(e)
    if cls is Sel or cls is App:
        return Sel(kids[0], e.name, kids[1:]) if cls is Sel else App(e.name, kids[0], kids[1:])
    if cls is CtrCall or cls is New or cls is Obj:
        return cls(e.name, kids)
    if cls is PrimOp:
        return PrimOp(e.op, *kids)
    if cls is If:
        return If(*kids)
    return e


def walk(e: Expr):
    """Every subexpression of ``e`` (``e`` included) in pre-order, at any depth."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(children(e)))


def rewrite_first(e: Expr, fn) -> Expr | None:
    """``e`` with its first subexpression, in pre-order, that ``fn`` maps to an
    expression (not None) replaced by that expression; None if there is none."""
    stack = [(e, None)]  # (node, up): up is (parent, slot, the parent's up), None at e
    while stack:
        node, up = stack.pop()
        new = fn(node)
        if new is not None:
            while up is not None:
                parent, slot, up = up
                kids = children(parent)
                new = with_children(parent, (*kids[:slot], new, *kids[slot + 1 :]))
            return new
        stack.extend((kid, (node, i, up)) for i, kid in reversed(tuple(enumerate(children(node)))))
    return None


def fold(e: Expr, fn):
    """``fn(node, results of its children, left to right)`` at ``e``, computed
    bottom-up over every subexpression, at any depth."""
    results: list = []
    todo: list = [e]
    pop, push = todo.pop, results.append
    while todo:
        x = pop()
        if type(x) is tuple:  # (node, n): the results of its n children end the list
            x, n = x
            kids = results[-n:]
            del results[-n:]
            push(fn(x, kids))
        elif kids := children(x):
            todo.append((x, len(kids)))
            todo += reversed(kids)
        else:
            push(fn(x, ()))
    return results[0]


def same(a: Expr, b: Expr) -> bool:
    """``a == b``, at any depth: dataclass ``==`` recurses once per nesting level."""
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        if x is y:
            continue
        cls = type(x)
        if cls is not type(y):
            return False
        if cls is PrimOp:
            label = x.op == y.op
        elif cls is IntLit or cls is BoolLit:
            label = x.value == y.value
        else:
            label = cls is If or x.name == y.name
        kx, ky = children(x), children(y)
        if not label or len(kx) != len(ky):
            return False
        pairs += zip(kx, ky)
    return True


def free_vars(e: Expr) -> set[str]:
    return {x.name for x in walk(e) if isinstance(x, Var)}


def contains_obj(e: Expr) -> bool:
    return any(isinstance(x, Obj) for x in walk(e))
