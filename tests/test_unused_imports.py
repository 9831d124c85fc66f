"""Every imported name in src/, tests/ and tools/ is used by the scope
importing it, and every module-level private name in src/ is read
somewhere in src/.

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


def private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each module-level `_x = ...`, `def _x` or `class _X`
    in `tree`; dunder names are not private."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.endswith("__")]
    return found


def reads(tree: ast.AST) -> set[str]:
    """Names `tree` loads, as a bare name, an attribute or an import."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def test_no_unread_private_names_in_src():
    # a helper left behind when the path that called it is deleted
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(ROOT.glob("src/**/*.py"))}
    used = set().union(*map(reads, trees.values()))
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name}"
                 for path, tree in trees.items()
                 for line, name in private_definitions(tree)
                 if name not in used]
    assert offenders == []
