"""Properties of the package source itself."""

import ast
import pathlib
import re
import tokenize

import food
from food import interp, syntax

SOURCES = sorted(pathlib.Path(food.__file__).parent.glob("*.py"))


def test_no_function_level_imports():
    # a module may be imported twice in one process (bench/test_bench.py
    # reloads food); an import run later inside a function would then bind
    # classes from the second copy, which the first copy's isinstance tests
    # do not recognise
    found = []
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert len(SOURCES) >= 10 and found == []


def test_no_recursion_limit_or_stack_size_changes():
    # node == recurses in C as well as in Python frames; a higher limit turns
    # its RecursionError into a crash, so == could not fall back to
    # syntax._deep_eq.  Depth is handled with explicit stacks instead, as
    # hash and repr do
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr in ("setrecursionlimit", "stack_size")
        or isinstance(node, ast.alias)
        and node.name in ("setrecursionlimit", "stack_size")
    ]
    assert found == []


def test_node_hash_copies_no_tuple_hash():
    # syntax._hash returns CPython's hash of one flat tuple; a Python copy of
    # the tuple hash's round would need the platform's hash width, which only
    # sys.hash_info gives
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Name)
        and node.id == "hash_info"
        or isinstance(node, ast.Attribute)
        and node.attr == "hash_info"
        or isinstance(node, ast.alias)
        and node.name == "hash_info"
    ]
    assert found == []


def test_package_imports_nothing_from_the_tests():
    # the test oracles (reference_*) and the mutation harness (mutators) stay
    # test-only: no module of the package imports a module of tests/
    test_modules = {p.stem for p in pathlib.Path(__file__).parent.glob("*.py")} | {"tests"}
    imported = {}
    for path in SOURCES:
        names = imported[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    found = sorted(f"{stem} imports {name}" for stem, names in imported.items() for name in names & test_modules)
    assert {"mutators", "reference_parser"} <= test_modules and "re" in imported["parser"] and found == []


def test_every_import_is_used():
    # no linter runs on the package, so an import that a move leaves behind
    # would go unseen.  An imported name must be read in its module or listed
    # in __all__; the __init__ that syntax.node compiles reads no global.  fuzz
    # binds transform_expr, unused, for the benchmark's tracer to wrap
    assert syntax.Var.__init__.__code__.co_names == ()
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
                used |= set(ast.literal_eval(node.value))
        found += [
            f"{path.stem}.{(alias.asname or alias.name).split('.')[0]}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name).split(".")[0] not in used
        ]
    assert len(SOURCES) >= 10 and sorted(set(found) - {"fuzz.transform_expr"}) == []


def test_node_classes_use_the_slotted_constructor():
    # a node class declared with a plain frozen dataclass would still pass
    # every other test, at twice the price per node built, and every import
    # would compile four methods for it where @node compiles one
    def classes(path):
        return [c for c in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(c, ast.ClassDef)]

    def decorators(c):
        return [ast.unparse(d) for d in c.decorator_list]

    def frozen_dataclass(d):
        return isinstance(d, ast.Call) and ast.unparse(d.func).endswith("dataclass") and any(
            k.arg == "frozen" and ast.unparse(k.value) == "True" for k in d.keywords
        )

    # in syntax.py every class but the three bases is a node class.  interp.py
    # declares node classes for its outcomes, but no expression form: values
    # are syntax's value forms
    package = pathlib.Path(food.__file__).parent
    nodes = [c for c in classes(package / "syntax.py") if c.name not in ("Type", "Expr", "Def")]
    outcomes = [c.name for c in classes(package / "interp.py") if "node" in decorators(c)]
    assert len(nodes) >= 24 and len(outcomes) >= 4
    assert [name for name in outcomes if issubclass(getattr(interp, name), syntax.Expr)] == []
    assert interp.IntV is syntax.IntLit and interp.BoolV is syntax.BoolLit and interp.ObjV is syntax.Obj
    assert [c.name for c in nodes if decorators(c) != ["node"]] == []
    # the package's frozen records are node classes too
    found = [f"{path.name}:{d.lineno}" for path in SOURCES for c in classes(path) for d in c.decorator_list if frozen_dataclass(d)]
    assert len(SOURCES) >= 10 and found == []
    # and every node class shares one ==, hash and repr: only __init__ is compiled per class
    declared = {c.name for path in SOURCES for c in classes(path) if "node" in decorators(c)}
    assert len(declared) >= 36 and declared <= {c.__name__ for c in syntax._COMPARED}
    codes = [(c.__eq__.__code__, c.__hash__.__code__, c.__repr__.__code__) for c in syntax._COMPARED]
    assert all(mine is shared for three in codes for mine, shared in zip(three, codes[0]))


def test_transform_builds_nodes_with_their_constructors():
    # dataclasses.replace reads the class's fields and rebuilds its keyword
    # arguments for every node it copies; transform builds nodes with their
    # slotted constructors instead
    tree = ast.parse((pathlib.Path(food.__file__).parent / "transform.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module == "dataclasses"
        and "replace" in [alias.name for alias in node.names]
        or isinstance(node, ast.Attribute)
        and ast.unparse(node) == "dataclasses.replace"
    ]
    assert found == []


def test_transform_names_no_subst():
    # a selected type's receiver is renamed where _translated translates
    # it, in the body's one translating rebuild; a subst after translating
    # would be a second pass over every moved body
    tree = ast.parse((pathlib.Path(food.__file__).parent / "transform.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.alias) and node.name == "subst"
        or isinstance(node, ast.Name) and node.id == "subst"
        or isinstance(node, ast.Attribute) and node.attr == "subst"
    ]
    assert found == []


def test_no_function_recurses_on_its_input():
    # a function that calls itself, directly or through others in its module,
    # takes one Python frame per nesting level and fails a few hundred levels
    # deep; walks over expressions loop over an explicit stack, as the typer
    # (transform.type_count), the printer, syntax._nodes, syntax.rebuild and
    # the machine do
    allowed = {
        "pretty.pretty_type",  # types nest only as deep as a signature
        # the generator's own recursion is bounded by GenConfig.max_expr_depth
        *(f"fuzz.{name}" for name in ("expr", "construct", "render_call", "minimal", "minimal_of")),
    }
    found = []
    for path in SOURCES:
        calls: dict[str, set[str]] = {}
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callees = calls.setdefault(fn.name, set())
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                        callees.add(node.func.id)
                    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                        if isinstance(node.func.value, ast.Name) and node.func.value.id == "self":
                            callees.add(node.func.attr)
        for name in calls:
            reached, todo = set(), list(calls[name])
            while todo:
                callee = todo.pop()
                if callee in calls and callee not in reached:
                    reached.add(callee)
                    todo += calls[callee]
            if name in reached:
                found.append(f"{path.stem}.{name}")
    assert len(SOURCES) >= 10 and sorted(set(found) - allowed) == []
    assert {"pretty.pretty_type"} <= set(found)


def test_only_syntax_names_desugar():
    # the parser reads a bare consumer body as one wildcard clause, so no later
    # layer knows the sugar; syntax keeps desugar, exported, as the identity
    # only because the benchmark still calls it
    found = [
        f"{path.name}:{i}"
        for path in SOURCES
        if path.name not in ("syntax.py", "__init__.py")
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "desugar" in line
    ]
    assert len(SOURCES) >= 10 and found == []


def test_only_transform_writes_the_typing_rules():
    # transform.type_count writes every typing rule once, in its loop, as the
    # machine does the contraction rules: no fold or per-form typing rule is
    # defined beside it, no module but transform.py (and context.py, which
    # builds them) reads the signatures that type a call, and the battery's
    # typed run reads no child of a term: it types each term with the loop
    def tree(path):
        return ast.parse(path.read_text(), str(path))

    defined = [
        f"{path.name}:{n.lineno} {n.name}"
        for path in SOURCES
        for n in ast.walk(tree(path))
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name in ("fold", "_typing")
    ]
    signatures = [
        f"{path.name}:{n.lineno} {n.attr}"
        for path in SOURCES
        if path.name not in ("context.py", "transform.py")
        for n in ast.walk(tree(path))
        if isinstance(n, ast.Attribute) and n.attr in ("sig", "dtr_sig")
    ]
    fuzz_tree = tree(pathlib.Path(food.__file__).parent / "fuzz.py")
    typed_run = next(fn for fn in fuzz_tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "_typed_run")
    slots = ("args", "recv", "lhs", "rhs", "cond", "then", "els")
    walks = [
        f"fuzz.py:{n.lineno}"
        for n in ast.walk(typed_run)
        if isinstance(n, ast.Attribute) and n.attr in slots or isinstance(n, ast.Name) and n.id == "children"
    ]
    walks += [
        f"fuzz.py:{n.lineno} {alias.name}"
        for n in ast.walk(fuzz_tree)
        if isinstance(n, ast.ImportFrom)
        for alias in n.names
        if alias.name in ("children", "with_children", "fold")
    ]
    calls = {n.func.id for n in ast.walk(typed_run) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert len(SOURCES) >= 10 and defined == [] and signatures == [] and walks == []
    assert "type_count" in calls and not hasattr(syntax, "fold")


def test_only_transform_names_the_typing_cache():
    # type_program keeps a passing typing on the context and reads it back;
    # every other module types through type_program and never sees the cache
    found = [
        f"{path.name}:{i}"
        for path in SOURCES
        if path.name not in ("context.py", "transform.py")
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "typings" in line
    ]
    assert len(SOURCES) >= 10 and found == []


def test_only_context_decides_which_body_runs():
    # context.matrix builds the cells of a def map: the body a member runs on
    # each class or constructor.  The interpreter, the transformation and the
    # fuzzer read those cells; no other module builds a cell, or searches a
    # definition's methods, defaults or clauses for a body: by comparing names,
    # by returning or taking the next match, or by indexing them in a dict.
    # The one lookup allowed outside context is wellformed's map of an
    # interface's declared signatures, which check_generator compares with
    # each method's: it picks no body
    parts = ("funs", "dtrs", "clauses")

    def over_parts(loop):
        return any(isinstance(n, ast.Attribute) and n.attr in parts for n in ast.walk(loop.iter))

    def compares_a_name(n):
        operands = (n.left, *n.comparators) if isinstance(n, ast.Compare) and ast.Eq in map(type, n.ops) else ()
        return any(isinstance(x, ast.Attribute) and x.attr == "name" for x in operands)

    def searches(node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "next":
                return any(isinstance(a, ast.GeneratorExp) and any(map(over_parts, a.generators)) for a in node.args)
            return node.func.id in ("Cell", "Fallback")
        if isinstance(node, ast.For) and over_parts(node):
            inner = [n for stmt in node.body for n in ast.walk(stmt)]
        elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
            if not any(map(over_parts, node.generators)):
                return False
            if isinstance(node, ast.DictComp):
                return True
            inner = list(ast.walk(node))
        else:
            return False
        return any(isinstance(n, ast.Return) or compares_a_name(n) for n in inner)

    wellformed = pathlib.Path(food.__file__).parent / "wellformed.py"
    checker = next(c for c in ast.parse(wellformed.read_text()).body if isinstance(c, ast.ClassDef))
    check_generator = next(fn for fn in checker.body if getattr(fn, "name", None) == "check_generator")
    assigned = {ast.unparse(n.targets[0]): n.value for n in ast.walk(check_generator) if isinstance(n, ast.Assign)}
    signatures = assigned["declared"]
    assert ast.unparse(signatures) == "{m.name: m for m in self.ctx.defs[d.parent].dtrs}"
    found = {
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if searches(node)
    }
    assert f"wellformed.py:{signatures.lineno}" in found
    found.remove(f"wellformed.py:{signatures.lineno}")
    assert len(SOURCES) >= 10 and {f for f in found if not f.startswith("context.py:")} == set()
    assert found  # context builds the cells


def test_only_diagnostics_places_a_diagnostic():
    # diagnostics.at is the one rule that places a diagnostic: at a position,
    # or at 0:0 when there is none.  No other module writes that fallback, and
    # the parser raises ParseError itself, with no exception class of its own
    # for program() to unwrap
    found = [
        f"{path.name}:{i}"
        for path in SOURCES
        if path.name != "diagnostics.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "(0, 0)" in line or "pos or" in line
    ]
    parser = pathlib.Path(food.__file__).parent / "parser.py"
    found += [
        f"parser.py:{c.lineno} {c.name}"
        for c in ast.walk(ast.parse(parser.read_text()))
        if isinstance(c, ast.ClassDef) and any(ast.unparse(b).endswith(("Exception", "Error")) for b in c.bases)
    ]
    assert len(SOURCES) >= 10 and found == []


def test_only_interp_reads_the_machine_frames():
    # how the machine pushes and plugs frames is its own business; a caller
    # plugs a state whole and takes the contractum the machine yields.  The
    # frames change in place, so a copy of the list still shares them: a
    # state is kept only by plugging it
    def is_frames(node):
        return isinstance(node, ast.Name) and node.id == "frames"

    def reads(node):
        if isinstance(node, (ast.Subscript, ast.Starred)):
            return is_frames(node.value)  # frames[i], frames[:], [*frames]
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in ("tuple", "list"):
                return any(map(is_frames, node.args))
            return isinstance(f, ast.Attribute) and f.attr == "copy" and is_frames(f.value)
        return False

    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "interp.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if reads(node)
    ]
    assert len(SOURCES) >= 10 and found == []


def test_interp_builds_no_compound_node():
    # the machine rebuilds a frame only through syntax.with_children, and
    # flat code builds none; a compound node's constructor called in interp.py,
    # by name or through a variable holding type(...), would be a second plug
    # beside it.  The machine's rules still build values, which have no frame
    tree = ast.parse(pathlib.Path(interp.__file__).read_text())
    values = {c.__name__ for c in interp._VALUE_FORMS}
    compound = {c.__name__ for c in vars(syntax).values() if isinstance(c, type) and issubclass(c, syntax.Expr)}
    compound -= values | {"Expr", "Var"}
    held = {
        target.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call) and ast.unparse(n.value.func) == "type"
        for target in n.targets
        if isinstance(target, ast.Name)
    }
    found = [
        f"interp.py:{n.lineno} {n.func.id}"
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in compound | held
    ]
    assert found == [] and {"PrimOp", "If", "Sel", "App", "CtrCall", "New"} <= compound and "cls" in held


def test_only_the_machine_names_the_contraction_rules():
    # the machine's contraction step holds every contraction rule once, and
    # contracts every redex with them, and flat code's loop holds the rules on
    # the way to a value: no rule is written again beside the two, no helper
    # holds them, and every body lookup goes through the names the
    # benchmark's tracer rebinds
    rules = {"_ARITH", "_COMPARE", "_SMALL", "_wrap64", "_TRUE", "_FALSE", "dtr_body", "csm_body"}
    tree = ast.parse(pathlib.Path(interp.__file__).read_text())
    loops = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in ("_machine", "_execute")]
    inside = {id(n) for fn in loops for n in ast.walk(fn)}
    named = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in rules and isinstance(n.ctx, ast.Load)]
    found = [f"interp.py:{n.lineno} {n.id}" for n in named if id(n) not in inside]
    assert found == [] and len(loops) == 2
    assert all({n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id in rules} == rules for fn in loops)


def test_flat_code_leaves_every_other_outcome_to_the_machine():
    # flat code covers only the way to a value: it writes no stuck reason and
    # builds no Stuck or FuelExhausted, so eval_program's other outcomes are
    # the machine's, reached from the main expression
    tree = ast.parse(pathlib.Path(interp.__file__).read_text())
    found = []
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in ("_compile", "_execute"):
            doc = fn.body[0].value
            found += [
                f"interp.py:{n.lineno} {ast.unparse(n)}"
                for n in ast.walk(fn)
                if isinstance(n, ast.JoinedStr)
                or isinstance(n, ast.Constant) and type(n.value) is str and n is not doc and n.value not in ("&&", "||")
                or isinstance(n, ast.Name) and n.id in ("Stuck", "FuelExhausted", "stuck")
            ]
            found += [f"interp.py:{fn.lineno} {fn.name}"] if ast.get_docstring(fn) is None else []
    assert found == [] and {"_compile", "_execute"} <= set(vars(interp))


def test_only_syntax_spells_the_reserved_type_names():
    # syntax.RESERVED_TYPES is the one home of Int and Bool: the parser, the
    # checker and the printer read the names from it
    spelt = [
        f"{path.name}:{n.lineno}"
        for path in SOURCES
        for n in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(n, ast.Constant) and type(n.value) is str and n.value in syntax.RESERVED_TYPES
    ]
    assert [s.split(":")[0] for s in spelt] == ["syntax.py", "syntax.py"]


def test_only_node_equality_names_recursion_error():
    # every pass is a loop; only the __eq__ that syntax.node shares
    # among node classes catches RecursionError, from its recursive compare,
    # and hands the compare to syntax._deep_eq.  A catch anywhere else would
    # hide a pass that recurses on its input.  Every token is searched,
    # strings and comments too, so a name inside generated source text counts
    tree = ast.parse(pathlib.Path(syntax.__file__).read_text())
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    eq = next(fn for fn in functions["node"].body if isinstance(fn, ast.FunctionDef) and fn.name == "__eq__")
    allowed = {line for fn in (eq, functions["_deep_eq"]) for line in range(fn.lineno, fn.end_lineno + 1)}
    named, found = [], []
    for path in SOURCES:
        with path.open("rb") as f:
            for tok in tokenize.tokenize(f.readline):
                if "RecursionError" in tok.string:
                    line = tok.start[0]
                    named.append(line)
                    if path.name != "syntax.py" or line not in allowed:
                        found.append(f"{path.name}:{line}")
    assert len(SOURCES) >= 10 and found == [] and named != []
    assert "RecursionError" in syntax.Var.__eq__.__code__.co_names


def test_only_syntax_builds_the_shared_literals_and_interp_sets_the_fuel():
    # syntax builds true, false and the integers -5..256 once, and the parser
    # and the machine share those nodes; interp.DEFAULT_FUEL is the one
    # default step budget, which the battery and the command line read
    def lines(path):
        return enumerate(path.read_text().splitlines(), 1)

    literals = re.compile(r"BoolLit\((True|False)\)|map\(IntLit|IntLit\(\w+\) for \w+ in range")
    built = [f"{p.name}:{i}" for p in SOURCES for i, line in lines(p) if literals.search(line)]
    fuel = [f"{p.name}:{i}" for p in SOURCES for i, line in lines(p) if "100_000" in line or "100000" in line]
    assert [b.split(":")[0] for b in built] == ["syntax.py", "syntax.py"]
    assert [f.split(":")[0] for f in fuel] == ["interp.py"] and interp.DEFAULT_FUEL == 100_000


def test_only_interp_names_the_machine():
    # every caller steps through interp.states, the one public stream of
    # states: the machine, its plug and flat code are named nowhere else, not
    # even in a comment, and no second stepping API keeps every state
    private = re.compile(r"\b(_machine|_plug_all|_execute)\b")
    found = []
    for path in SOURCES:
        with path.open("rb") as f:
            found += [
                f"{path.name}:{tok.start[0]} {name}"
                for tok in tokenize.tokenize(f.readline)
                for name in private.findall(tok.string)
                if path.name != "interp.py"
            ]
    assert len(SOURCES) >= 10 and found == []
    assert all(callable(getattr(interp, name)) for name in ("_machine", "_plug_all", "_execute", "states"))
    assert {"trace", "Trace"} & (set(vars(interp)) | set(food.__all__)) == set()
