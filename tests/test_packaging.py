import ast
import sys
from pathlib import Path

import wirelab


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
