"""The preprocessed global context that drives type-directed rule dispatch.

Consumers are keyed by (name, datatype) pairs so that the same name may be
overloaded across different first-argument types; dispatch picks the entry for
the receiver's type.

Each context also holds the decomposition matrix of its definitions
(``matrix``): the body a call of each member runs on each class or
constructor.  No other module decides which body runs where.
"""

from __future__ import annotations

from dataclasses import field, replace
from typing import NamedTuple

from .diagnostics import ContextError, Diagnostic, at
from .pretty import pretty_type
from .syntax import (
    Arrow,
    Constructor,
    Consumer,
    Datatype,
    Def,
    Expr,
    Generator,
    Interface,
    Named,
    Param,
    Program,
    Type,
    node,
)

# Keys of sig/def maps: a constructor/generator name, a type name, or a
# (consumer-name, datatype) pair.
DefKey = str | tuple[str, str]

# Typing environments map variable names to types; the innermost binding wins,
# which plain dict update gives us.
TypeEnv = dict[str, Type]


class Cell(NamedTuple):
    """A matrix cell: the names a call binds from the object, its parameter names and its body."""

    bound: tuple[str, ...]
    params: tuple[str, ...]
    body: Expr
    kind = "own"  # the class's first method, or the first clause naming the constructor


class Fallback(Cell):
    __slots__ = ()
    kind = "fallback"  # the interface default, or the first wildcard clause: it binds no fields


@node
class GlobalCtx:
    """The global context of a program: its types, members, signatures, definitions and cells."""

    dt: tuple[str, ...]
    it: tuple[str, ...]
    ctr: dict[str, tuple[str, ...]]
    gen: dict[str, tuple[str, ...]]
    dtr: dict[str, tuple[str, ...]]
    csm: dict[str, tuple[str, ...]]
    sig: dict[DefKey, Arrow]
    dtr_sig: dict[tuple[str, str], Arrow]
    defs: dict[DefKey, Def]
    # the decomposition matrix of defs; a context with the same defs shares it
    cells: dict[tuple[str, str], Cell] = field(compare=False, repr=False)
    # id(program) -> (program, its typing): the cache of ``transform.type_program``,
    # which alone reads and writes it; shared like cells, as typing reads no
    # selection.
    typings: dict = field(compare=False, repr=False)

    def type_names(self) -> tuple[str, ...]:
        return self.dt + self.it

    def duality_parts(self):
        """The components the duality checks compare.

        The def map is excluded: it holds whole definitions, which are related
        by the program translation itself rather than by the context swap.
        """
        return (
            frozenset(self.dt),
            frozenset(self.it),
            self.ctr,
            self.gen,
            self.dtr,
            self.csm,
            self.sig,
            self.dtr_sig,
        )

    def dump(self) -> str:
        """Deterministic key-sorted text form, used by the ctx CLI command."""

        def key_text(k: DefKey) -> str:
            return f"{k[0]}@{k[1]}" if isinstance(k, tuple) else k

        lines = [
            "dt: " + (", ".join(self.dt) if self.dt else "-"),
            "it: " + (", ".join(self.it) if self.it else "-"),
        ]
        for label, mapping in (("ctr", self.ctr), ("gen", self.gen), ("dtr", self.dtr), ("csm", self.csm)):
            for name in sorted(mapping):
                lines.append(f"{label}[{name}]: " + (", ".join(mapping[name]) or "-"))
        for label, sigmap in (("sig", self.sig), ("dtrSig", self.dtr_sig)):
            for k in sorted(sigmap, key=key_text):
                lines.append(f"{label}[{key_text(k)}]: {pretty_type(sigmap[k])}")
        for k in sorted(self.defs, key=key_text):
            lines.append(f"def[{key_text(k)}]: {type(self.defs[k]).__name__.lower()}")
        return "\n".join(lines) + "\n"


def _names(params: tuple[Param, ...]) -> tuple[str, ...]:
    return tuple([p.name for p in params])


def matrix(defs: dict[DefKey, Def]) -> dict[tuple[str, str], Cell]:
    """The cells of a def map, keyed (member, class or constructor): its own body,
    or else the type's fallback, which is also keyed (member, type)."""
    table: dict[tuple[str, str], Cell] = {}
    ctors: dict[str, list[str]] = {}
    for d in defs.values():
        if type(d) is Constructor:
            ctors.setdefault(d.parent, []).append(d.name)
    for key, d in defs.items():  # each loop runs backwards, so that the first body wins
        cls = type(d)
        if cls is Interface or cls is Generator:
            parent = d if cls is Interface else defs.get(d.parent)
            for m in reversed(parent.dtrs) if type(parent) is Interface else ():
                if m.body is not None:
                    table[m.name, key] = Fallback((), _names(m.params), m.body)
            for fun in reversed(d.funs) if cls is Generator else ():
                if fun.body is not None:
                    table[fun.name, key] = Cell(_names(d.fields), _names(fun.params), fun.body)
        elif cls is Consumer:
            (f, t), params = key, _names(d.params)
            wild = next((clause for clause in d.clauses if clause.pattern.name is None), None)
            if wild is not None:
                table[key] = fallback = Fallback((), params, wild.body)
                table.update(((f, c), fallback) for c in ctors.get(t, ()))
            for clause in reversed(d.clauses):
                if type(ctor := defs.get(c := clause.pattern.name)) is Constructor and ctor.parent == t:
                    table[f, c] = Cell(clause.pattern.vars, params, clause.body)
    return table


def preprocess(program: Program) -> GlobalCtx:
    """Collect the global context of a parse-valid program."""
    diags: list[Diagnostic] = []
    dt: list[str] = []
    it: list[str] = []
    ctr: dict[str, list[str]] = {}
    gen: dict[str, list[str]] = {}
    dtr: dict[str, list[str]] = {}
    csm: dict[str, list[str]] = {}
    sig: dict[DefKey, Arrow] = {}
    dtr_sig: dict[tuple[str, str], Arrow] = {}
    defs: dict[DefKey, Def] = {}

    def declare(key: DefKey, d: Def) -> None:
        if key in defs:
            name = f"{key[0]} on {key[1]}" if isinstance(key, tuple) else key
            diags.append(at(f"duplicate definition of {name}", d.pos))
        else:
            defs[key] = d

    # first pass: type names, so parents can be validated in order-independent
    # fashion
    for d in program.defs:
        if isinstance(d, (Datatype, Interface)):
            declare(d.name, d)
            (dt if isinstance(d, Datatype) else it).append(d.name)
            for members in (ctr, csm, gen, dtr):
                members[d.name] = []

    for d in program.defs:
        if isinstance(d, Interface):
            for m in d.dtrs:
                if (m.name, d.name) in dtr_sig:
                    diags.append(at(f"duplicate destructor {m.name} in interface {d.name}", d.pos))
                    continue
                dtr[d.name].append(m.name)
                dtr_sig[(m.name, d.name)] = Arrow(tuple(p.type for p in m.params), m.ret)
        elif isinstance(d, (Constructor, Generator)):
            declare(d.name, d)
            fp = isinstance(d, Constructor)
            if d.parent not in (dt if fp else it):
                message = (
                    f"constructor {d.name} extends {d.parent}, which is not a declared datatype"
                    if fp
                    else f"class {d.name} implements {d.parent}, which is not a declared interface"
                )
                diags.append(at(message, d.pos))
                continue
            (ctr if fp else gen)[d.parent].append(d.name)
            sig[d.name] = Arrow(tuple(f.type for f in d.fields), Named(d.parent))
        elif isinstance(d, Consumer):
            key = (d.name, d.self_type)
            if d.self_type not in dt:
                diags.append(at(f"consumer {d.name} needs a declared datatype, got {d.self_type}", d.pos))
                continue
            declare(key, d)
            if key in sig:
                continue
            csm[d.self_type].append(d.name)
            sig[key] = Arrow((Named(d.self_type),), Arrow(tuple(p.type for p in d.params), d.ret))

    if diags:
        raise ContextError(diags)
    return GlobalCtx(
        dt=tuple(dt),
        it=tuple(it),
        ctr={k: tuple(v) for k, v in ctr.items()},
        gen={k: tuple(v) for k, v in gen.items()},
        dtr={k: tuple(v) for k, v in dtr.items()},
        csm={k: tuple(v) for k, v in csm.items()},
        sig=sig,
        dtr_sig=dtr_sig,
        defs=defs,
        cells=matrix(defs),
        typings={},
    )


def restrict(ctx: GlobalCtx, selected: frozenset[str] | set[str]) -> GlobalCtx:
    """Keep only the selected types eligible for transformation.

    Unselected names leave dt/it and their constructor/consumer (generator/
    destructor) lists become empty; signatures and definitions stay, because
    the skip rules still consult them.
    """
    declared = set(ctx.dt) | set(ctx.it)
    unknown = sorted(set(selected) - declared)
    if unknown:
        raise ContextError([Diagnostic(f"unknown selected type {n}") for n in unknown])
    keep = set(selected)
    return replace(
        ctx,
        dt=tuple(d for d in ctx.dt if d in keep),
        it=tuple(d for d in ctx.it if d in keep),
        ctr={k: (v if k in keep else ()) for k, v in ctx.ctr.items()},
        gen={k: (v if k in keep else ()) for k, v in ctx.gen.items()},
        dtr={k: (v if k in keep else ()) for k, v in ctx.dtr.items()},
        csm={k: (v if k in keep else ()) for k, v in ctx.csm.items()},
    )


def translate_ctx(ctx: GlobalCtx) -> GlobalCtx:
    """The context the transformed program will preprocess to.

    Datatypes and interfaces swap roles, as do their member lists; consumer
    signatures become destructor signatures with the leading self type dropped
    and vice versa.  The def map, and so the cells, are carried over unchanged.
    """
    sig: dict[DefKey, Arrow] = {}
    dtr_sig: dict[tuple[str, str], Arrow] = {}
    for key, s in (*ctx.sig.items(), *ctx.dtr_sig.items()):
        in_sig = key in ctx.sig
        if isinstance(key, tuple) and key[0] in (ctx.csm if in_sig else ctx.dtr).get(key[1], ()):
            # a translated member swaps maps: a consumer's signature drops its
            # self type, a destructor's gains it
            s = s.ret if in_sig else Arrow((Named(key[1]),), s)
            assert isinstance(s, Arrow)
            in_sig = not in_sig
        (sig if in_sig else dtr_sig)[key] = s
    return GlobalCtx(
        dt=ctx.it,
        it=ctx.dt,
        ctr=dict(ctx.gen),
        gen=dict(ctx.ctr),
        dtr=dict(ctx.csm),
        csm=dict(ctx.dtr),
        sig=sig,
        dtr_sig=dtr_sig,
        defs=dict(ctx.defs),
        cells=ctx.cells,
        typings={},
    )
