"""Abstract syntax of FOOD programs, the canonicalization pass, and stack-safe
expression traversals, which take any depth.  The evaluator's one machine, the
typer (``transform.type_count``), the printer, ``_nodes`` (the one search
loop, which finds the checker's objects and literals in one scan) and
``rebuild`` (which ``subst`` and the translation share) walk expressions by
hand on a list, dispatching on each node's exact class, for speed.

All nodes are immutable; ``==`` is structural equality at any depth, which
ignores the (non-compared) source positions of definitions; ``hash``, the hash
of one flat tuple of a node's structure, and ``repr`` take any depth too.  So
every layer shares the value nodes defined here, built once at import:
``TRUE``, ``FALSE`` and ``SMALL_INTS``, the integers -5..256; the parser reads
``true``, ``false`` and 0..256 as them, and the machine computes them.  The
names the parser reads are defined here too, for the parser and the checker:
``KEYWORDS``, the reserved type names ``RESERVED_TYPES``, and an identifier's
text, ``IDENT``, which ``is_identifier`` tests.

Every layer builds nodes: the parser and the transformation build programs,
and each step of the machine that substitutes at calls builds a few (``subst``
rebuilds a method body, a state plugs its redex's parents).  So node classes
are declared with ``@node``, which builds each one once: a slotted class whose
``__init__`` stores each field through its slot's descriptor, bound once per
class (the ``__init__`` a frozen dataclass generates calls
``object.__setattr__`` per field and costs about twice as much).  Only
``__init__`` writes a field; assigning or deleting one raises
``FrozenInstanceError``.  ``==``, ``hash``, ``repr``, ``dataclasses.fields``
and ``replace``, copies and class patterns act as on a frozen dataclass.
Only ``__init__`` is compiled per class; other frozen records use ``@node`` too.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields, replace
from operator import attrgetter
from sys import _getframe

_COMPARED: dict[type, tuple[str, ...]] = {}  # each node class's compared fields
# each node class's repr head, "Name(", and its shown fields, each with the text before its value
_SHOWN: dict[type, tuple[str, tuple[tuple[str, str], ...]]] = {}


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def node(cls):
    """``cls`` built once, frozen and slotted, with a constructor that writes its slots and an ``==`` at any depth.

    Only the constructor is compiled per class; ``==``, ``hash``, ``repr`` and copying are written once, here,
    over the class's fields.  A field may have a plain default, such as ``pos=None``, but no default
    factory.  Only the outermost node compare of an ``==`` falls back to ``_deep_eq`` past the recursion limit;
    ``hash`` is ``_hash``, CPython's ``hash`` of one flat tuple, and ``repr`` is ``_repr``; both take any depth.
    """
    cls = dataclass(init=False, repr=False, eq=False)(cls)  # records the fields; writes no method
    names, defaults = [], {}
    for f in fields(cls):
        if f.default_factory is not MISSING or f.kw_only:
            raise TypeError(f"@node field {cls.__name__}.{f.name} is keyword-only or has a factory")
        names.append(f.name)
        if f.default is not MISSING:
            defaults[f.name] = f.default
    # the slotted class replaces cls, whose default class attributes would clash with the slots
    space = {k: v for k, v in vars(cls).items() if k not in defaults and k not in ("__dict__", "__weakref__")}
    space.update(__slots__=tuple(names), __qualname__=cls.__qualname__, __setattr__=_frozen, __delattr__=_frozen)
    cls = type(cls)(cls.__name__, cls.__bases__, space)
    compared = _COMPARED[cls] = tuple(f.name for f in fields(cls) if f.compare)
    # attrgetter gives a tuple only for two names or more: == compares a lone field bare, as a 1-tuple
    # does for any field whose == is reflexive
    get = attrgetter(*compared) if compared else lambda x: ()
    shown = [f.name for f in fields(cls) if f.repr]
    _SHOWN[cls] = cls.__qualname__ + "(", tuple((", " * (k > 0) + x + "=", x) for k, x in enumerate(shown))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        try:
            return get(self) == get(other)
        except RecursionError:
            if _getframe(1).f_code is __eq__.__code__:  # a nested node compare passes it up
                raise
            return _deep_eq(self, other)

    def __hash__(self):
        return _hash(self)

    def __repr__(self):
        return _repr(self)

    def __reduce__(self):  # copy and pickle rebuild through the constructor, as __setattr__ refuses
        return self.__class__, tuple(getattr(self, x) for x in names)

    params = [f"{x}=_default_{x}" if x in defaults else x for x in names]
    # the setters and defaults are arguments of an outer function, read by the constructor as closure cells
    outer = [f"_set_{x}" for x in names] + [f"_default_{x}" for x in defaults]
    body = "".join(f"  _set_{x}(self, {x})\n" for x in names) or "  pass\n"
    src = f"def outer({', '.join(outer)}):\n def __init__({', '.join(['self', *params])}):\n{body} return __init__\n"
    exec(src, globals(), scope := {})
    __init__ = scope["outer"](*(cls.__dict__[x].__set__ for x in names), *defaults.values())
    for fn in (__init__, __eq__, __hash__, __repr__, __reduce__):
        fn.__qualname__, fn.__module__ = f"{cls.__qualname__}.{fn.__name__}", cls.__module__
        setattr(cls, fn.__name__, fn)
    return cls


def _deep_eq(a, b) -> bool:
    """``a == b`` on an explicit stack of compared field pairs, where a node's ``==`` recursed too deep."""
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        if x is y:
            continue
        cls = type(x)
        if cls is type(y) is tuple:
            if len(x) != len(y):
                return False
            pairs += zip(x, y)
        elif cls is type(y) and cls in _COMPARED:
            pairs += [(getattr(x, name), getattr(y, name)) for name in _COMPARED[cls]]
        elif x != y:  # leaves, and operands of two classes, as == compares them
            return False
    return True


def _hash(top) -> int:
    """``hash(top)`` on an explicit stack: CPython's ``hash`` of one flat tuple of ``top``'s structure.

    In pre-order, a node adds its class, then its compared fields; a tuple adds its length, then its items; any
    other value adds itself.  Equal nodes have the same classes, lengths and equal leaves in the same places, so
    they flatten to equal tuples and hash alike.
    """
    flat, todo = [], [top]
    while todo:
        x = todo.pop()
        cls = x.__class__
        if cls is tuple:
            flat.append(len(x))
            todo += reversed(x)
        elif cls in _COMPARED:
            flat.append(cls)
            todo += [getattr(x, name) for name in reversed(_COMPARED[cls])]
        else:
            flat.append(x)
    return hash(tuple(flat))


def _repr(top) -> str:
    """``repr(top)`` on an explicit stack: nodes and tuples are expanded, any other value takes its own ``repr``."""
    out, todo = [], [top]
    while todo:  # in pre-order: a string is output text, a node or a tuple pushes its pieces last first
        x = todo.pop()
        cls = x.__class__
        if cls is str:
            out.append(x)
            continue
        if cls is tuple:
            todo.append(",)" if len(x) == 1 else ")")
            for k in range(len(x) - 1, -1, -1):
                v = x[k]
                todo.append(v if v.__class__ is tuple or v.__class__ in _SHOWN else repr(v))
                if k:
                    todo.append(", ")
            todo.append("(")
        else:
            head, labels = _SHOWN[cls]
            todo.append(")")
            for label, name in reversed(labels):
                v = getattr(x, name)
                todo += (v if v.__class__ is tuple or v.__class__ in _SHOWN else repr(v), label)
            todo.append(head)
    return "".join(out)


# ---------------------------------------------------------------------------
# Types


class Type:
    """A FOOD type: a named datatype/interface, Int, Bool, or an arrow."""

    __slots__ = ()


@node
class Named(Type):
    """A declared datatype or interface, by name."""

    name: str


@node
class IntT(Type):
    """The type of 64-bit integers."""

    pass


@node
class BoolT(Type):
    """The type of booleans."""

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
    """A variable: a parameter, field, pattern variable, ``self`` or ``this``."""

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
    """An integer literal."""

    value: int


@node
class BoolLit(Expr):
    """A boolean literal."""

    value: bool


@node
class PrimOp(Expr):
    """A binary operator ``lhs op rhs``; ``check`` rejects an ``op`` that is no key of ``OPERATORS``."""

    op: str
    lhs: Expr
    rhs: Expr


# The binary operators, each with its binding strength (every level is
# left-associative), its operand type and its result type: the parser and the
# printer read the strengths, ``PREC``, and the typer and the generator the types.
OPERATORS = {
    "+": (4, INT, INT), "-": (4, INT, INT), "*": (5, INT, INT),
    "&&": (2, BOOL, BOOL), "||": (1, BOOL, BOOL),
    "==": (3, INT, BOOL), "<=": (3, INT, BOOL), "<": (3, INT, BOOL),
}
PREC = {op: prec for op, (prec, _, _) in OPERATORS.items()}


@node
class If(Expr):
    """The conditional ``if (cond) then else els``."""

    cond: Expr
    then: Expr
    els: Expr


# ---------------------------------------------------------------------------
# Definitions


@node
class Param:
    """A typed binder: a parameter or a field."""

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
    """One ``case pattern => body`` of a consumer."""

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
    """The declaration ``data D``; its constructors name it as their parent."""

    name: str
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@node
class Interface(Def):
    """The declaration ``interface I { ... }`` with its members."""

    name: str
    dtrs: tuple[Dtr, ...]
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@node
class Constructor(Def):
    """A constructor ``case C(fields) extends D`` of a datatype."""

    name: str
    fields: tuple[Param, ...]
    parent: str
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@node
class Generator(Def):
    """A class ``class C(fields) implements I { ... }`` with its methods."""

    name: str
    fields: tuple[Param, ...]
    parent: str
    funs: tuple[Dtr, ...]
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@node
class Consumer(Def):
    """Pattern-matching function on a datatype.

    The parser reads a bare expression body as one wildcard clause.
    """

    name: str
    self_type: str
    params: tuple[Param, ...]
    ret: Type
    clauses: tuple[Clause, ...]
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@node
class Program:
    """The definitions of a program and its main expression."""

    defs: tuple[Def, ...]
    main: Expr


SELF = "self"
THIS = "this"
RESERVED_BINDERS = (SELF, THIS)
# the machine wraps integers to INT64_MIN..INT64_MAX; literals lie in 0..INT64_MAX, the range the parser reads
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# the value nodes every layer shares: SMALL_INTS[n + 5] is IntLit(n) for n in -5..256, CPython's small ints
TRUE, FALSE = BoolLit(True), BoolLit(False)
SMALL_INTS = tuple(map(IntLit, range(-5, 257)))

KEYWORDS = frozenset(
    ("data", "interface", "case", "class", "def", "extends", "implements", "new", "match", "if", "else", "true", "false")
)
# the type names no definition may declare, and the types they name
RESERVED_TYPES = {"Int": INT, "Bool": BOOL}
# An identifier is a letter, then letters, digits and underscores: the
# lexer's IDENT, whose first character is also a letter by str.isalpha
# (which '²' is not).  A name is an identifier that is no keyword; a type,
# constructor or class name starts with an uppercase letter and is no reserved
# type name, and every other name starts with a lowercase letter.
IDENT = r"[^\W\d_]\w*"


def is_identifier(text: str) -> bool:
    """Whether ``text`` is one identifier, by IDENT's rule: \\w is exactly str.isalnum or '_'."""
    return text[:1].isalpha() and text.replace("_", "a").isalnum()


# ---------------------------------------------------------------------------
# Passes


def desugar(program: Program) -> Program:
    """``program`` itself: the parser already reads a bare consumer body as a wildcard clause."""
    return program


def canonicalize(program: Program) -> Program:
    """Normalize definition placement and clause order.

    Each datatype is immediately followed by its consumers in source consumer
    order, and each consumer's named clauses are reordered to the declaration
    order of the datatype's constructors (any wildcard stays last).  The
    relative order of all other definitions is preserved.
    """
    ctor_rank: dict[str, dict[str, int]] = {}  # datatype -> constructor -> its first declaration's rank
    consumers: dict[str, list[Consumer]] = {}
    datatypes = {d.name for d in program.defs if isinstance(d, Datatype)}
    for d in program.defs:
        if isinstance(d, Constructor):
            rank = ctor_rank.setdefault(d.parent, {})
            rank.setdefault(d.name, len(rank))
        elif isinstance(d, Consumer) and d.self_type in datatypes:
            consumers.setdefault(d.self_type, []).append(d)

    def sort_clauses(c: Consumer) -> Consumer:
        rank = ctor_rank.get(c.self_type, {})
        named = [cl for cl in c.clauses if not cl.pattern.is_wildcard]
        wild = [cl for cl in c.clauses if cl.pattern.is_wildcard]
        named.sort(key=lambda cl: rank.get(cl.pattern.name, len(rank)))
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
    # the machine's call rule, in the stream and in the run eval_program
    # hands a stuck or fuel-exhausted evaluation to
    return rebuild(e, mapping) if mapping else e


_FLIPPED = {Sel: App, App: Sel, CtrCall: New, New: CtrCall}  # each call form's form in the other style


def rebuild(e: Expr, mapping: dict[str, Expr], flips=None) -> Expr:
    """``e`` rebuilt bottom-up, at any depth, with each variable that ``mapping`` names replaced by its image.

    ``flips``, if given, is an iterator of booleans, advanced once at each call in post-order: a call
    whose flip is true changes style, a selection becoming an application, a constructor call an
    instantiation, and back.  Literals and runtime objects, which hold values only, are kept as they are.
    """
    out: list = []
    todo: list = [e]
    pop, push = todo.pop, out.append
    while todo:  # a node with children pushes itself, their count and them, first child on top
        x = pop()
        cls = type(x)
        if cls is Var:
            push(mapping.get(x.name, x))
        elif cls is int:  # the results of the node below's x children end the list
            n, x = x, pop()
            cls = type(x)
            if cls is PrimOp:
                rhs = out.pop()
                out[-1] = PrimOp(x.op, out[-1], rhs)
                continue
            if cls is If:
                els, then = out.pop(), out.pop()
                out[-1] = If(out[-1], then, els)
                continue
            k = len(out) - n
            kids = tuple(out[k:])
            del out[k:]
            if flips is not None and next(flips):
                cls = _FLIPPED[cls]
            if cls is Sel:
                push(Sel(kids[0], x.name, kids[1:]))
            elif cls is App:
                push(App(x.name, kids[0], kids[1:]))
            else:
                push(cls(x.name, kids))
        elif cls is PrimOp:
            todo += (x, 2, x.rhs, x.lhs)
        elif cls is Sel or cls is App:
            todo += (x, len(x.args) + 1, *x.args[::-1], x.recv)
        elif cls is If:
            todo += (x, 3, x.els, x.then, x.cond)
        elif (cls is CtrCall or cls is New) and (x.args or flips is not None):
            todo += (x, len(x.args), *x.args[::-1])
        else:  # a literal, a runtime object, or a call with nothing to rebuild
            push(x)
    return out[0]


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


def with_children(e: Expr, kids: tuple[Expr, ...] | list[Expr]) -> Expr:
    """``e`` with its first ``len(kids)`` immediate subexpressions, in ``children`` order, replaced by ``kids``."""
    cls = type(e)
    if cls is PrimOp:
        return PrimOp(e.op, kids[0], kids[1] if len(kids) > 1 else e.rhs) if kids else e
    if (cls is Sel or cls is App) and kids:
        args = (*kids[1:], *e.args[len(kids) - 1 :])
        return Sel(kids[0], e.name, args) if cls is Sel else App(e.name, kids[0], args)
    if cls is CtrCall or cls is New or cls is Obj:
        return cls(e.name, (*kids, *e.args[len(kids) :]))
    if cls is If:
        return If(*kids, *(e.cond, e.then, e.els)[len(kids) :])
    return e


def _nodes(e: Expr, kinds: tuple[type, ...]) -> list:
    """Every subexpression of ``e`` (``e`` included) whose class is one of ``kinds``, at any depth, in no set order."""
    found, todo = [], [e]
    while todo:
        x = todo.pop()
        cls = type(x)
        if cls in kinds:
            found.append(x)
        if cls is PrimOp:
            todo += (x.lhs, x.rhs)
        elif cls is Sel or cls is App:
            todo.append(x.recv)
            todo += x.args
        elif cls is If:
            todo += (x.cond, x.then, x.els)
        elif cls is CtrCall or cls is New or cls is Obj:
            todo += x.args
    return found
