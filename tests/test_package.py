"""Properties of the package as a whole."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import efasynth
from efasynth.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The directory this toolkit is imported from, for subprocesses
SRC = pathlib.Path(efasynth.__file__).resolve().parent.parent


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
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN,
         str(models_dir / "producer_consumer.efa"),
         str(root / "synthbench" / "spans.py")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["same"]
    assert report["calls"]["synthesis.nonblocking"] > 0
    assert report["calls"]["bdd.relprev"] > 0


# Each workload's bdd_ops, peak_nodes and sup_bytes from a ``--trace 0``
# run, and bdd.alloc_nodes from a ``--trace 1`` run, the same for every
# seed: a kernel change that moves a counter, or skips or adds an
# allocation, on the generated families fails here, not only in the golden
# rows of the shipped models.
WORKLOAD_PINS = {
    "philo": [293801, 6137, 81231, 77774],
    "chain": [1494, 1196, 39546, 1794],
    "tank": [35124, 4126, 6527, 19251],
}


def test_the_benchmark_workloads_match_their_ci_pins(tmp_path):
    # One short run of each workload in BENCHMARK.json per trace mode, as
    # the benchmark runs it; a workload with no pin row fails.  Trace runs
    # write .synthbench/ under the working directory, so the runs start in
    # a temporary one whose src links to this toolkit.
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    assert sorted(workloads) == sorted(WORKLOAD_PINS)
    (tmp_path / "src").symlink_to(SRC, target_is_directory=True)
    runs = {
        (name, trace): subprocess.Popen(
            [sys.executable, str(ROOT / "synthbench" / "run.py"),
             "--workload", name, "--seed", "1", "--seconds", "1",
             "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=tmp_path,
        )
        for name in workloads for trace in (0, 1)
    }
    reports = {}
    for (name, trace), proc in runs.items():
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        report = json.loads(out.splitlines()[-1])
        assert report["correct"] is True, (name, trace, err)
        assert report["failed"] == 0, (name, trace)
        reports[name, trace] = report["metrics"]
    got = {
        name: [reports[name, 0][k]["value"]
               for k in ("bdd_ops", "peak_nodes", "sup_bytes")]
        + [reports[name, 1]["bdd.alloc_nodes"]["value"]]
        for name in workloads
    }
    assert got == WORKLOAD_PINS


# Run under each hash seed: every model of the suite, under both presets,
# through the command line's own entry point.
_HASH_SEED_RUNS = """
import pathlib, sys
from efasynth.cli import main

out = pathlib.Path(sys.argv[1])
for model in sys.argv[2:]:
    for config in ("v08", "v40"):
        stem = out / f"{pathlib.Path(model).stem}-{config}"
        code = main(["run", model, "--config", config,
                     "--out", f"{stem}.sup.efa", "--stats-json", f"{stem}.json"])
        if code:
            sys.exit(f"{model} {config}: exit {code}")
"""


def test_runs_are_identical_across_hash_seeds(model_suite, tmp_path):
    # String hashes, and with them set and dict orders, change with
    # PYTHONHASHSEED; no counter and no emitted byte may follow them.
    models = tmp_path / "models"
    models.mkdir()
    for name, text in model_suite.items():
        (models / f"{name}.efa").write_text(text)
    paths = sorted(str(p) for p in models.iterdir())
    runs = []
    for seed in ("0", "1"):
        (tmp_path / seed).mkdir()
        runs.append(subprocess.Popen(
            [sys.executable, "-c", _HASH_SEED_RUNS, str(tmp_path / seed),
             *paths],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed),
        ))
    for proc in runs:
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err

    def outputs(seed):
        out = {}
        for path in (tmp_path / seed).iterdir():
            if path.suffix == ".json":
                stats = json.loads(path.read_text())
                del stats["wall_time_s"], stats["count_s"]
                out[path.name] = stats
            else:
                out[path.name] = path.read_bytes()
        return out

    first = outputs("0")
    assert len(first) == 2 * 2 * len(model_suite)
    assert outputs("1") == first


def _run_python(args):
    """Run ``python *args`` from the checkout root on this toolkit."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=300,
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def _synth_run(tmp_path, model):
    """The controlled state count and emitted text of ``synth run``."""
    out, stats = tmp_path / "out.sup.efa", tmp_path / "stats.json"
    assert main(["run", str(ROOT / "models" / model),
                 "--out", str(out), "--stats-json", str(stats)]) == 0
    return json.loads(stats.read_text())["controlled_states"], out.read_text()


def test_the_readme_library_snippet_writes_what_synth_run_writes(tmp_path):
    # The snippet emits from the plantified specification, as ``synth
    # run`` does; from the raw one it would keep the requirement automaton
    # and drop the supervisor invariants and self-loops.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = _run_python(["-c", snippet])
    assert proc.returncode == 0, proc.stderr
    states, text = proc.stdout.split("\n", 1)
    want_states, want_text = _synth_run(tmp_path, "agv_mutex.efa")
    assert int(states) == want_states
    assert text == want_text + "\n"
    assert "supervisor invariant" in text


def test_the_walkthrough_demo_prints_what_synth_run_writes(tmp_path):
    proc = _run_python(["demos/walkthrough.py", "models/agv_mutex.efa"])
    assert proc.returncode == 0, proc.stderr
    text = proc.stdout.split("-- controlled system model --\n", 1)[1]
    assert text == _synth_run(tmp_path, "agv_mutex.efa")[1] + "\n"
    assert "supervisor invariant" in text


@pytest.mark.parametrize(
    "script",
    ["synthbench/selftest.py"]
    + sorted(p.relative_to(ROOT).as_posix()
             for p in (ROOT / "demos").glob("*.py")),
)
def test_the_benchmark_self_test_and_each_demo_exit_cleanly(script):
    proc = _run_python([script])
    assert proc.returncode == 0, proc.stdout + proc.stderr
