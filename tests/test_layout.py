"""Source layout rules of the package."""

import ast
from pathlib import Path

import perimax


def test_no_imports_inside_functions():
    """Every import of ``src/perimax`` sits at module level, so an import
    cycle between modules shows at import time instead of hiding in a
    function body."""
    found = []
    for path in sorted(Path(perimax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, found
