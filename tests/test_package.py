"""Properties of the package as a whole."""

import ast
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import efasynth
from efasynth.synthesis import SynthesisConfig


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


def test_the_bdd_operation_boundary_is_one_method():
    # Every public operation ends through _run, so no operation can leave
    # its temporaries marked.
    path = pathlib.Path(efasynth.__file__).parent / "bdd.py"
    graph = _call_graph(ast.parse(path.read_text(), str(path)))
    callers = [name for name, callees in graph.items()
               if "BddManager._end" in callees]
    assert callers == ["BddManager._run"]


def test_only_the_bdd_kernels_build_nodes_or_call_a_kernel():
    # Any other method reaches the kernels and _node through _run alone,
    # so an answer given before _run builds no node outside an operation.
    # The lambda saturate hands to _run runs inside _run.
    path = pathlib.Path(efasynth.__file__).parent / "bdd.py"
    tree = ast.parse(path.read_text(), str(path))
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "BddManager"]
    kernels = {"_apply", "_not", "_ite", "_exists", "_replace", "_restrict",
               "_relprod", "_saturate"}

    def self_call(node):
        f = node.func if isinstance(node, ast.Call) else None
        return (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                and f.value.id == "self" and f.attr)

    callers = set()
    for func in cls.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        handed = {node for call in ast.walk(func) if self_call(call) == "_run"
                  for arg in call.args if isinstance(arg, ast.Lambda)
                  for node in ast.walk(arg)}
        if any(self_call(node) in kernels | {"_node"}
               for node in ast.walk(func) if node not in handed):
            callers.add(func.name)
    assert callers == kernels


def _referrers(attr):
    """The functions of the package, by module and qualified name, that
    name the attribute ``attr``: called, or passed on uncalled."""
    out = []
    for path in sorted(pathlib.Path(efasynth.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        funcs = [(node.name, node) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
        funcs += [(f"{node.name}.{item.name}", item) for node in tree.body
                  if isinstance(node, ast.ClassDef) for item in node.body
                  if isinstance(item, ast.FunctionDef)]
        out += [f"{path.stem}.{name}" for name, func in funcs
                if any(isinstance(n, ast.Attribute) and n.attr == attr
                       for n in ast.walk(func))]
    return out


def test_nodes_are_freed_only_at_the_fixed_point_safe_point():
    # The collector frees every node no registered root holds, so it may
    # run only where no caller keeps a handle it has not registered: the
    # safe point, which only compound reachability places.
    path = pathlib.Path(efasynth.__file__).parent / "bdd.py"
    graph = _call_graph(ast.parse(path.read_text(), str(path)))
    callers = [name for name, callees in graph.items()
               if "BddManager._collect" in callees]
    assert callers == ["BddManager.safe_point"]
    assert _referrers("_collect") == ["bdd.BddManager.safe_point"]
    assert _referrers("safe_point") == ["synthesis.FixedPointEngine.reach"]


# Run in a subprocess: install() patches the toolkit for good.
_TRACED_RUN = """
import importlib.util, json, sys
from efasynth import emit, parser, synthesis, transform

def run(path):
    out = {}
    for preset in ("v08", "v40"):
        plant = transform.plantify(parser.parse_file(path))
        model, _ = transform.linearize(plant)
        config = synthesis.SynthesisConfig.preset(preset)
        result = synthesis.synthesize(model, config)
        metrics = dict(result.metrics)
        del metrics["count_s"]  # wall time
        text = parser.unparse(emit.emit(plant, result))
        out[preset] = [metrics, result.manager.op_counts(), text]
    return out

model, spans_path = sys.argv[1:]
plain = run(model)
spec = importlib.util.spec_from_file_location("spans", spans_path)
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
spans.install(tracer)
traced = run(model)
print(json.dumps({"same": plain == traced, "calls": tracer.calls}))
"""


def test_the_benchmark_trace_mode_leaves_results_unchanged(models_dir):
    # The benchmark's span tracer wraps public BDD methods and
    # FixedPointEngine.reach by name and signature; a renamed method or
    # a changed signature breaks it here rather than in a benchmark run.
    root = models_dir.parent
    src = pathlib.Path(efasynth.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN,
         str(models_dir / "producer_consumer.efa"),
         str(root / "synthbench" / "spans.py")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["same"]
    assert report["calls"]["synthesis.nonblocking"] > 0
    assert report["calls"]["bdd.relprev"] > 0


def test_the_benchmark_workloads_match_their_ci_pins(models_dir):
    # The CI workflow pins each workload's summed operations, peak nodes,
    # emitted bytes and allocated nodes in one table; one round of every
    # workload, run through the benchmark's own functions, must match it.
    root = models_dir.parent
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    table = re.search(r"declare -A counters=\((.*?)\)", workflow, re.S)
    pins = {name: [int(x) for x in values.split()]
            for name, values in re.findall(r'\[(\w+)\]="([^"]*)"',
                                           table.group(1))}
    synthbench = root / "synthbench"
    path, modules = sys.path[:], set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location(
            "synthbench_run", synthbench / "run.py")
        run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        got = {}
        for name, workload in run.WORKLOADS.items():
            config = SynthesisConfig.preset(workload.preset)
            records = [run.synthesize_and_emit(p, config)
                       for p in run.prepare(workload, run.tag_for(1))]
            got[name] = [
                sum(r.metrics["operations"] for r in records),
                sum(r.metrics["peak_nodes"] for r in records),
                sum(len(r.text.encode()) for r in records),
                sum(r.allocated for r in records),
            ]
    finally:
        # run.py puts synthbench/ on the path and imports its helpers as
        # top-level modules
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            where = getattr(sys.modules[name], "__file__", None) or ""
            if pathlib.Path(where).parent == synthbench:
                del sys.modules[name]
    assert got == pins
