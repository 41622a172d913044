import ast
import importlib.util
import sys
from pathlib import Path

import wirelab
from wirelab import cli
from wirelab.generators import linear_output_instance
from wirelab.transforms import linearize

PERFBENCH = Path(__file__).parent.parent / "perfbench"
BENCHMARKS = Path(__file__).parent.parent / "benchmarks"


def test_runtime_imports_only_the_standard_library():
    modules = sorted(Path(wirelab.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside wirelab
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "wirelab", f"{path.name} imports {name}"


def _load_perfbench(name: str, monkeypatch):
    """``perfbench/<name>.py`` as the module ``perfbench_<name>``, listed
    in ``sys.modules`` for the test's duration (dataclasses look it up)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # the tracer looks these names up only when a traced run installs it
    tracing = _load_perfbench("tracing", monkeypatch)
    for key, owner, attr, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{key}: {owner.__name__}.{attr}"
    assert hasattr(wirelab, "BACKEND")
    c, _ = linear_output_instance(5, 6, 0.5, seed=3)
    result = linearize(c)
    tracer = tracing.Tracer()
    tracing._linearize_counts(tracer, (c,), result)
    assert result[1].added != 0  # so that a count of 0 would show
    assert tracer.bucket_counts()["transforms.wires_added"] == result[1].added


def test_benchmark_tiny_pools_pass_their_oracles_under_the_tracer(tmp_path, monkeypatch):
    # every op of every workload, once, with the parser first built while
    # the tracer's wrappers are installed
    workloads = _load_perfbench("workloads", monkeypatch)
    tracing = _load_perfbench("tracing", monkeypatch)
    cli.build_parser.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        for name, make in workloads.WORKLOADS.items():
            pool = make(1, True, tmp_path / name)
            assert pool.ops, name
            for op in pool.ops:
                out = op.run()
                attempted, failed = op.check(out)
                assert attempted >= 1 and failed == 0, f"{name}: {op.kind}"
                assert isinstance(op.digest(out), bytes)
            assert pool.verify() == [], name
    finally:
        tracer.uninstall()
        cli.build_parser.cache_clear()


def test_every_library_function_is_referenced_outside_the_tests():
    # a helper goes with its last caller: some code in the package or the
    # benchmark names each module-level function (as a name, an attribute,
    # an import or an identifier string such as the tracer's TARGETS);
    # cmd_* are exempt, cli.main looks them up by name
    package = Path(wirelab.__file__).parent
    paths = [*package.glob("*.py"), *PERFBENCH.glob("*.py"), *BENCHMARKS.glob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                referenced.add(node.value)
    unreferenced = [
        f"{path.name}: {node.name}"
        for path, tree in trees.items() if path.parent == package
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("cmd_") and node.name not in referenced
    ]
    assert unreferenced == []
