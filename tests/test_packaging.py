import ast
import importlib.util
import sys
from pathlib import Path

import wirelab
from wirelab.generators import linear_output_instance
from wirelab.transforms import linearize


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


def _benchmark_tracer():
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_name_it_wraps():
    # the tracer looks these names up only when a traced run installs it
    tracing = _benchmark_tracer()
    for key, owner, attr, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{key}: {owner.__name__}.{attr}"
    assert hasattr(wirelab, "BACKEND")
    c, _ = linear_output_instance(5, 6, 0.5, seed=3)
    result = linearize(c)
    tracer = tracing.Tracer()
    tracing._linearize_counts(tracer, (c,), result)
    assert result[1].added != 0  # so that a count of 0 would show
    assert tracer.bucket_counts()["transforms.wires_added"] == result[1].added
