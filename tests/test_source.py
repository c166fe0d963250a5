"""Properties of the package source itself."""

import ast
import pathlib

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
    # a higher limit turns RecursionError into a crash in the C-level
    # recursion of dataclass ==, hash and repr; depth is handled with
    # explicit stacks instead
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


def test_parser_imports_nothing_from_the_tests():
    # the test oracles (reference_lexer, reference_parser) stay test-only
    test_modules = {p.stem for p in pathlib.Path(__file__).parent.glob("*.py")} | {"tests"}
    parser = pathlib.Path(food.__file__).parent / "parser.py"
    imported = set()
    for node in ast.walk(ast.parse(parser.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "re" in imported and imported.isdisjoint(test_modules)


def test_node_classes_use_the_slotted_constructor():
    # a node class declared with a plain frozen dataclass would still pass
    # every other test, at twice the price per node built
    package = pathlib.Path(food.__file__).parent

    def classes(module):
        tree = ast.parse((package / module).read_text())
        return [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]

    def decorators(c):
        return [ast.unparse(d) for d in c.decorator_list]

    # in syntax.py every class but the three bases is a node class; values
    # are syntax's value forms, so interp.py declares none
    nodes = [c for c in classes("syntax.py") if c.name not in ("Type", "Expr", "Def")]
    assert len(nodes) >= 24 and [c.name for c in classes("interp.py") if "node" in decorators(c)] == []
    assert interp.IntV is syntax.IntLit and interp.BoolV is syntax.BoolLit and interp.ObjV is syntax.Obj
    assert [c.name for c in nodes if decorators(c) != ["node"]] == []


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


def test_no_function_recurses_on_its_input():
    # a function that calls itself, directly or through others in its module,
    # takes one Python frame per nesting level and fails a few hundred levels
    # deep; walks over expressions use syntax.fold, walk or rewrite_first
    allowed = {
        "syntax.subst",  # the evaluator's hot path, as deep as a method body
        "pretty.pretty_type",  # types nest only as deep as a signature
        "context.type_text",  # the same, for a consumer's curried signature
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
    assert {"syntax.subst", "pretty.pretty_type"} <= set(found)
