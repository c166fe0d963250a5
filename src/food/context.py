"""The preprocessed global context that drives type-directed rule dispatch.

Consumers are keyed by (name, datatype) pairs so that the same name may be
overloaded across different first-argument types; dispatch picks the entry for
the receiver's type.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .diagnostics import ContextError, Diagnostic
from .pretty import pretty_type
from .syntax import (
    Arrow,
    Constructor,
    Consumer,
    Datatype,
    Def,
    Generator,
    Interface,
    Named,
    Program,
    Type,
)

# Keys of sig/def maps: a constructor/generator name, a type name, or a
# (consumer-name, datatype) pair.
DefKey = str | tuple[str, str]

# Typing environments map variable names to types; the innermost binding wins,
# which plain dict update gives us.
TypeEnv = dict[str, Type]


@dataclass(frozen=True)
class GlobalCtx:
    dt: tuple[str, ...]
    it: tuple[str, ...]
    ctr: dict[str, tuple[str, ...]]
    gen: dict[str, tuple[str, ...]]
    dtr: dict[str, tuple[str, ...]]
    csm: dict[str, tuple[str, ...]]
    sig: dict[DefKey, Arrow]
    dtr_sig: dict[tuple[str, str], Arrow]
    defs: dict[DefKey, Def]
    # (member, class or constructor, lookup) -> what ``interp.dtr_body`` or
    # ``csm_body`` answered, None included; filled by those lookups.  It
    # depends on defs alone, so a context with the same defs dict shares it.
    bodies: dict = field(default_factory=dict, compare=False, repr=False)
    # id(program) -> (program, its ``type_program``), kept by ``keep_typing``
    # (a passing ``check`` calls it) for ``transform``; shared like bodies, as
    # typing reads no selection.
    typings: dict = field(default_factory=dict, compare=False, repr=False)

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

        def type_text(t: Type) -> str:
            if isinstance(t, Arrow) and isinstance(t.ret, Arrow):
                # consumer signatures read better curried: D -> (T...) -> T
                return "(" + ", ".join(pretty_type(p) for p in t.params) + ") -> " + type_text(t.ret)
            return pretty_type(t)

        lines = [
            "dt: " + (", ".join(self.dt) if self.dt else "-"),
            "it: " + (", ".join(self.it) if self.it else "-"),
        ]
        for label, mapping in (("ctr", self.ctr), ("gen", self.gen), ("dtr", self.dtr), ("csm", self.csm)):
            for name in sorted(mapping):
                lines.append(f"{label}[{name}]: " + (", ".join(mapping[name]) or "-"))
        for label, sigmap in (("sig", self.sig), ("dtrSig", self.dtr_sig)):
            for k in sorted(sigmap, key=key_text):
                lines.append(f"{label}[{key_text(k)}]: {type_text(sigmap[k])}")
        for k in sorted(self.defs, key=key_text):
            lines.append(f"def[{key_text(k)}]: {type(self.defs[k]).__name__.lower()}")
        return "\n".join(lines) + "\n"


def _pos(d: Def) -> tuple[int, int]:
    return d.pos or (0, 0)


def preprocess(program: Program) -> GlobalCtx:
    """Collect the global context of a desugared, parse-valid program."""
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
            line, col = _pos(d)
            diags.append(Diagnostic(f"duplicate definition of {name}", line, col))
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
        line, col = _pos(d)
        if isinstance(d, Interface):
            for m in d.dtrs:
                if (m.name, d.name) in dtr_sig:
                    diags.append(Diagnostic(f"duplicate destructor {m.name} in interface {d.name}", line, col))
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
                diags.append(Diagnostic(message, line, col))
                continue
            (ctr if fp else gen)[d.parent].append(d.name)
            sig[d.name] = Arrow(tuple(f.type for f in d.fields), Named(d.parent))
        elif isinstance(d, Consumer):
            key = (d.name, d.self_type)
            if d.self_type not in dt:
                diags.append(
                    Diagnostic(f"consumer {d.name} needs a declared datatype, got {d.self_type}", line, col)
                )
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
    and vice versa.  The def map is carried over unchanged.
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
    )
