"""Every imported name in src/, tests/ and tools/ is used by the scope
importing it.

Package `__init__.py` files are skipped: their imports are re-exports.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(scope: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of each import in `scope` that nothing in it reads.

    An import inside a function must be used within that function; a
    module-level import anywhere in the module.
    """
    used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
    found = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += unused_imports(node)
            continue
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in used:
                    found.append((node.lineno, name))
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_no_unused_imports():
    offenders = []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py"),
                        *ROOT.glob("tools/*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(ROOT)}:{line}: {name}"
                      for line, name in sorted(unused_imports(tree))]
    assert offenders == []
