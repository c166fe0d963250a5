"""Properties of the package source itself."""

import ast
import pathlib
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
    # node ==, hash and repr recurse in C as well as in Python frames; a higher
    # limit turns their RecursionError into a crash, so == could not fall back
    # to syntax._deep_eq.  Depth is handled with explicit stacks instead
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
    assert len(nodes) >= 24 and len(outcomes) >= 5
    assert [name for name in outcomes if issubclass(getattr(interp, name), syntax.Expr)] == []
    assert interp.IntV is syntax.IntLit and interp.BoolV is syntax.BoolLit and interp.ObjV is syntax.Obj
    assert [c.name for c in nodes if decorators(c) != ["node"]] == []
    # the package's frozen records are node classes too
    found = [f"{path.name}:{d.lineno}" for path in SOURCES for c in classes(path) for d in c.decorator_list if frozen_dataclass(d)]
    assert len(SOURCES) >= 10 and found == []
    # and every node class shares one ==, hash and repr: only __init__ is compiled per class
    declared = {c.name for path in SOURCES for c in classes(path) if "node" in decorators(c)}
    assert len(declared) >= 37 and declared <= {c.__name__ for c in syntax._COMPARED}
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
    # deep; walks over expressions use syntax.fold or walk, or loop over an
    # explicit stack, as the printer, free_vars, contains_obj and the machine do
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
    # the machine rebuilds a frame in one place, _read_back, through
    # syntax.with_children; a compound node's constructor called in interp.py,
    # by name or through a variable holding type(...), would be a second plug
    # beside it.  _contract still builds values, which have no frame
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


def test_only_contract_names_the_contraction_rules():
    # _contract holds every contraction rule once, and the machine calls it
    # for every redex: no rule is written again beside it, and every body
    # lookup goes through the names the benchmark's tracer rebinds
    rules = {"_ARITH", "_COMPARE", "_SMALL", "_wrap64", "_TRUE", "_FALSE", "dtr_body", "csm_body"}
    tree = ast.parse(pathlib.Path(interp.__file__).read_text())
    contract = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "_contract")
    inside = set(map(id, ast.walk(contract)))
    named = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in rules and isinstance(n.ctx, ast.Load)]
    found = [f"interp.py:{n.lineno} {n.id}" for n in named if id(n) not in inside]
    assert found == [] and {n.id for n in named} == rules


def test_only_node_equality_names_recursion_error():
    # every pass is a fold or a loop; only the __eq__ that syntax.node shares
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
