"""The package needs nothing beyond the Python standard library."""

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
