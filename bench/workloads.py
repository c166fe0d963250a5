"""The benchmark's three workloads: ``compile``, ``eval`` and ``fuzz``.

Each workload is built from a namespace of ``food`` functions and classes
(see ``run.load_food``).  ``run(item)`` is the timed call and goes through
``self.api``, which the traced run replaces with wrapped functions;
``stream(seed)`` makes the items and ``verify(item, output)`` checks an output
against its reference, both outside the timed region and through the
unwrapped ``self.tools``.  Items come in cycles of ``cycle`` items whose mix
is fixed, and a run takes a fixed number of whole cycles (``run.item_count``),
so every seed measures the same mix of work and a run's count of attempted
and failed items does not depend on how fast the machine ran.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

FUEL = 100_000


@dataclass
class Item:
    kind: str
    chars: int  # source text size of the item's program
    text: str = ""
    selected: frozenset[str] | None = None
    ref_program: object = None  # canonical program the output must equal
    ref_text: str | None = None  # text the output must equal
    program: object = None
    ctx: object = None
    answer: int = 0
    steps: int = 0
    seed: int = 0
    diverge: bool = False


# ---------------------------------------------------------------------------
# compile: parse -> desugar -> preprocess -> check -> transform -> pretty

# Corpus pairs with the selection that turns each side into its partner.  The
# Set-only selection of the setlist pair leaves List alone, so its reference
# is the frozen text in corpus/expected/ rather than the partner file.
CORPUS_PAIRS = (
    ("sets_oop", "sets_fp", None),
    ("exp_oop", "exp_fp", None),
    ("boolnorm_ctx_oop", "boolnorm_ctx_fp", frozenset({"Context"})),
    ("setlist_oop", "setlist_fp", frozenset({"Set"})),
)
EXPECTED = {"setlist_oop": "setlist_oop.sel_set.food", "setlist_fp": "setlist_fp.sel_set.food"}

LARGE_GEN = {"max_types": 5, "max_ctors_per_type": 4, "max_ops_per_type": 4, "max_expr_depth": 5}

# A nested constructor chain as main expression, like a long list literal
# written out in source.  Both texts are in the printer's canonical layout, so
# each side is, byte for byte, the expected output of transforming the other.
DEEP_OO = (
    "interface Nat {\n  def size(): Int\n}\n"
    "class Z() implements Nat {\n  def size(): Int = 0\n}\n"
    "class S(n: Nat) implements Nat {\n  def size(): Int = 1 + n.size()\n}\n"
)
DEEP_FP = (
    "data Nat\n"
    "def size(self: Nat)(): Int = match {\n  case Z() => 0\n  case S(n) => 1 + size(n)\n}\n"
    "case Z() extends Nat\ncase S(n: Nat) extends Nat\n"
)
# Depths come from a fixed log-spaced ladder over 16-1024, one rung per deep
# draw and each rung once per cycle, in seeded order: a log-uniform draw
# whose count of over-deep chains is the same for every seed.
DEEP_MIN, DEEP_MAX, DEEP_RUNGS = 16, 1024, 9
DEEP_LADDER = tuple(
    round(DEEP_MIN * (DEEP_MAX / DEEP_MIN) ** (rung / (DEEP_RUNGS - 1))) for rung in range(DEEP_RUNGS)
)


def deep_texts(depth: int) -> tuple[str, str]:
    oo = DEEP_OO + "new S(" * depth + "new Z()" + ")" * depth + "\n"
    fp = DEEP_FP + "S(" * depth + "Z()" + ")" * depth + "\n"
    return oo, fp


# one block: 10 pairs of items, in a seeded order
COMPILE_BLOCK = ("deep", "corpus") + ("gen",) * 4 + ("gen_large",) * 4


class Compile:
    block = 2 * len(COMPILE_BLOCK)
    cycle = DEEP_RUNGS * block
    per_second = 150  # items per reference second (kernel.py) at the seed commit

    def __init__(self, api, root: Path):
        self.api = self.tools = api
        corpus = root / "corpus"
        self.corpus: list[tuple[Item, Item]] = []
        for left, right, selected in CORPUS_PAIRS:
            texts = {n: (corpus / f"{n}.food").read_text() for n in (left, right)}
            items = []
            for name, partner in ((left, right), (right, left)):
                item = Item("corpus", len(texts[name]), texts[name], selected)
                if name in EXPECTED:
                    item.ref_text = (corpus / "expected" / EXPECTED[name]).read_text()
                else:
                    partner_program = api.desugar(api.parse(texts[partner]))
                    item.ref_program = api.canonicalize(partner_program)
                items.append(item)
            self.corpus.append(tuple(items))

    def run(self, item: Item):
        api = self.api
        program = api.desugar(api.parse(item.text))
        ctx = api.preprocess(program)
        diagnostics = api.check(program, ctx)
        if diagnostics:
            raise ValueError(f"check rejected the program: {diagnostics[0].render()}")
        result = api.canonicalize(api.transform(program, item.selected, ctx=ctx).program)
        return result, api.pretty(result)

    def verify(self, item: Item, output) -> bool:
        program, text = output
        if item.ref_text is not None:
            return text == item.ref_text
        return program == item.ref_program

    def _generated_pair(self, seed: int, large: bool) -> tuple[Item, Item]:
        api = self.tools
        cfg = api.GenConfig(seed=seed, **(LARGE_GEN if large else {}))
        oo = api.gen_program(replace(cfg, style_mix=1.0))
        fp = api.gen_program(replace(cfg, style_mix=0.0))
        kind = "gen_large" if large else "gen"
        oo_text, fp_text = api.pretty(oo), api.pretty(fp)
        return (
            Item(kind, len(oo_text), oo_text, ref_program=api.canonicalize(fp)),
            Item(kind, len(fp_text), fp_text, ref_program=api.canonicalize(oo)),
        )

    def _pairs(self, seed: int):
        rng = random.Random(seed)
        rungs: list[int] = []
        while True:
            for kind in rng.sample(COMPILE_BLOCK, len(COMPILE_BLOCK)):
                if kind == "corpus":
                    yield rng.choice(self.corpus)
                elif kind == "deep":
                    if not rungs:
                        rungs = rng.sample(DEEP_LADDER, DEEP_RUNGS)
                    oo, fp = deep_texts(rungs.pop())
                    yield Item("deep", len(oo), oo, ref_text=fp), Item("deep", len(fp), fp, ref_text=oo)
                else:
                    yield self._generated_pair(rng.getrandbits(62), kind == "gen_large")

    def stream(self, seed: int):
        for pair in self._pairs(seed):
            yield from pair

    def warmup(self):
        for pair in self.corpus:
            yield from pair
        yield from self._generated_pair(1, large=True)


# ---------------------------------------------------------------------------
# eval: one eval_program call per item on a program checked in set-up

# Each template is (family, source with {n} for the size).  The step counts are
# closed forms of the small-step semantics: 7n+5 for Peano, 5k+4 for the
# countdown, the same in both styles.
TEMPLATES = {
    "peano_fp": (
        "peano",
        "data Nat\n"
        "case Z() extends Nat\n"
        "case S(n: Nat) extends Nat\n"
        "def count(self: Nat)(): Int = match {\n"
        "  case Z() => 0\n"
        "  case S(n) => 1 + count(n)\n"
        "}\n"
        "def build(self: Nat)(k: Int): Nat = if (k == 0) self else build(S(self))(k - 1)\n"
        "count(build(Z())({n}))\n",
    ),
    "peano_oo": (
        "peano",
        "interface Nat {\n"
        "  def count(): Int\n"
        "  def build(k: Int): Nat = if (k == 0) this else new S(this).build(k - 1)\n"
        "}\n"
        "class Z() implements Nat {\n"
        "  def count(): Int = 0\n"
        "}\n"
        "class S(n: Nat) implements Nat {\n"
        "  def count(): Int = 1 + n.count()\n"
        "}\n"
        "new Z().build({n}).count()\n",
    ),
    "countdown_fp": (
        "countdown",
        "data Loop\n"
        "case Go() extends Loop\n"
        "def sum(self: Loop)(k: Int, acc: Int): Int = if (k == 0) acc else sum(self)(k - 1, acc + k)\n"
        "sum(Go())({n}, 0)\n",
    ),
    "countdown_oo": (
        "countdown",
        "interface Loop {\n"
        "  def sum(k: Int, acc: Int): Int\n"
        "}\n"
        "class Go() implements Loop {\n"
        "  def sum(k: Int, acc: Int): Int = if (k == 0) acc else this.sum(k - 1, acc + k)\n"
        "}\n"
        "new Go().sum({n}, 0)\n",
    ),
}
SIZES = {"peano": (10, 150), "countdown": (100, 1500)}


def answer(family: str, n: int) -> int:
    return n if family == "peano" else n * (n + 1) // 2


def steps(family: str, n: int) -> int:
    return 7 * n + 5 if family == "peano" else 5 * n + 4


def source(template: str, n: int) -> str:
    return TEMPLATES[template][1].replace("{n}", str(n))


class Eval:
    block = cycle = len(TEMPLATES)
    per_second = 20

    def __init__(self, api, root: Path):
        self.api = self.tools = api
        # every template is parsed and checked once; items only swap the size
        # literal in the main expression
        self.checked = {}
        for name in TEMPLATES:
            program = api.desugar(api.parse(source(name, 0)))
            ctx = api.preprocess(program)
            diagnostics = api.check(program, ctx)
            if diagnostics:
                raise ValueError(f"template {name} does not check: {diagnostics[0].render()}")
            self.checked[name] = program, ctx

    def item(self, template: str, n: int) -> Item:
        family = TEMPLATES[template][0]
        program, ctx = self.checked[template]
        main = self.tools.parse(source(template, n).splitlines()[-1]).main
        return Item(
            family,
            len(source(template, n)),
            program=self.tools.Program(program.defs, main),
            ctx=ctx,
            answer=answer(family, n),
            steps=steps(family, n),
        )

    def run(self, item: Item):
        return self.api.eval_program(item.program, FUEL, item.ctx)

    def verify(self, item: Item, output) -> bool:
        return isinstance(output, self.tools.Done) and output.value == self.tools.IntV(item.answer)

    def stream(self, seed: int):
        rng = random.Random(seed)
        while True:
            for template in rng.sample(list(TEMPLATES), len(TEMPLATES)):
                yield self.item(template, rng.randint(*SIZES[TEMPLATES[template][0]]))

    def warmup(self):
        for template, (family, _) in TEMPLATES.items():
            yield self.item(template, SIZES[family][0])


# ---------------------------------------------------------------------------
# fuzz: one trial of the property battery per item

# The acceptance fixture draws diverge_prob=0.01.  A looping trial costs about
# 400 times a terminating one, so a binomial count of them would set most of a
# run's spread; instead every block of 100 trials holds exactly one, at a
# seeded position.  The generator draws its divergence coin in the same place
# whatever the probability, so the programs are those the fixture would draw.
FUZZ_BLOCK = 100


class Fuzz:
    block = cycle = FUZZ_BLOCK
    per_second = 26

    def __init__(self, api, root: Path):
        self.api = self.tools = api

    def run(self, item: Item):
        cfg = self.api.GenConfig(seed=item.seed, diverge_prob=1.0 if item.diverge else 0.0)
        return self.api.run_properties(cfg, 1, fuel=FUEL)

    def verify(self, item: Item, output) -> bool:
        if len(output.trials) != 1 or not output.ok:
            return False
        # source size of the generated program, for source_kb_per_s
        tools = self.tools
        cfg = tools.GenConfig(seed=output.trials[0].seed, diverge_prob=1.0 if item.diverge else 0.0)
        item.chars = len(tools.pretty(tools.gen_program(cfg)))
        return True

    def stream(self, seed: int):
        rng = random.Random(seed)
        base = seed * 1_000_000  # disjoint trial seeds for distinct run seeds
        index = 0
        while True:
            looping = rng.randrange(FUZZ_BLOCK)
            for position in range(FUZZ_BLOCK):
                yield Item("loop" if position == looping else "trial", 0, seed=base + index,
                           diverge=position == looping)
                index += 1

    def warmup(self):
        for index in range(3):
            yield Item("trial", 0, seed=-1 - index)


WORKLOADS = {"compile": Compile, "eval": Eval, "fuzz": Fuzz}
