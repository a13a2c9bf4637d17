"""Properties of the package as a whole."""

import ast
import pathlib
import sys

import efasynth


def test_package_imports_only_the_standard_library():
    # relative imports are efasynth itself
    sources = sorted(pathlib.Path(efasynth.__file__).parent.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []


def test_no_module_imports_a_private_name_of_another():
    # a name with a leading underscore belongs to its own module
    sources = sorted(pathlib.Path(efasynth.__file__).parent.glob("*.py"))
    private = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("efasynth")
            ):
                private += [
                    f"{path.name}: {alias.name}" for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert private == []


def _call_graph(tree):
    """Functions of a module by qualified name, each with the names it
    calls: module functions called by name, and ``self.<method>`` calls
    within a class."""
    graph = {}

    def calls(func, cls):
        out = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                out.add(f.id)
            elif (cls and isinstance(f, ast.Attribute)
                  and isinstance(f.value, ast.Name) and f.value.id == "self"):
                out.add(f"{cls}.{f.attr}")
        return out

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            graph[node.name] = calls(node, None)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    graph[f"{node.name}.{item.name}"] = calls(item, node.name)
    return {name: callees & graph.keys() for name, callees in graph.items()}


def _on_a_cycle(graph):
    cyclic = set()
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo += graph[name]
        if start in seen:
            cyclic.add(start)
    return cyclic


def test_only_the_bdd_kernels_and_the_reference_evaluator_recurse():
    # Everything else walks models, expressions and diagrams of any size
    # on explicit stacks; ROADMAP item 2 makes the kernels iterative too.
    sources = sorted(pathlib.Path(efasynth.__file__).parent.glob("*.py"))
    recursive = set()
    for path in sources:
        graph = _call_graph(ast.parse(path.read_text(), str(path)))
        recursive |= {f"{path.stem}.{name}" for name in _on_a_cycle(graph)}
    kernels = ["_apply", "_not", "_ite", "_exists", "_replace", "_restrict",
               "_relprod", "_saturate"]
    assert recursive == {f"bdd.BddManager.{k}" for k in kernels} | {
        "model.eval_expr"
    }
