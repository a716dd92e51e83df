"""The package needs nothing beyond the Python standard library, and
imports nothing it does not use."""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


def test_every_module_imports_only_the_standard_library():
    package = os.path.join(SRC, "adeles2d")
    modules = sorted(name[:-3] for name in os.listdir(package)
                     if name.endswith(".py"))
    # -I ignores PYTHONPATH and the user site, so only the interpreter's
    # own library and the source tree are importable
    script = "\n".join([
        "import importlib, sys",
        f"sys.path.insert(0, {SRC!r})",
        "before = set(sys.modules)",
        f"for name in {modules!r}:",
        "    importlib.import_module('adeles2d.' + name)",
        "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}",
        "for top in sorted(loaded):",
        "    if top != 'adeles2d' and top not in sys.stdlib_module_names:",
        "        print(top)",
    ])
    done = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [], done.stdout
    assert "cli" in modules and len(modules) >= 10, modules


def _top_level_imports(tree):
    """(name bound, line) for each import at module level, the body of an
    `if TYPE_CHECKING:` block included; `__future__` features bind none."""
    body = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == \
                "TYPE_CHECKING":
            body += node.body
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                yield name, node.lineno


def test_every_top_level_import_is_used():
    # an import that a deletion leaves behind fails here
    package = os.path.join(SRC, "adeles2d")
    unused = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as src:
            tree = ast.parse(src.read())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {bound}"
                   for bound, line in _top_level_imports(tree)
                   if bound not in used]
    assert unused == [], unused
