from __future__ import annotations

import ast
import doctest
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hwgroups

MODULES = ["hwgroups"] + sorted(
    f"hwgroups.{info.name}" for info in pkgutil.iter_modules(hwgroups.__path__))
ROOT = Path(__file__).resolve().parent.parent


def _readme_python_blocks():
    readme = ROOT / "README.md"
    return re.findall(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing


def test_exports_are_imported_on_first_use():
    # In a fresh process: the package alone, then one name's module only;
    # a submodule that is not an export still imports by name.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hwgroups.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    body = ("import sys, hwgroups\n"
            "def loaded(): return sorted(m for m in sys.modules if 'hwgroups' in m)\n"
            "print(loaded(), hwgroups.F2_BACKEND)\n"
            "hwgroups.multiply\n"
            "print(loaded())\n"
            "from hwgroups import cli\n"
            "print(cli.__name__)\n")
    proc = subprocess.run([sys.executable, "-c", body], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['hwgroups'] pure",
                                        "['hwgroups', 'hwgroups.hw_group']",
                                        "hwgroups.cli"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hwgroups.no_such_name
    assert set(hwgroups.__all__) <= set(dir(hwgroups))


def test_readme_python_block_runs():
    # Run only the fenced block: doctest on the whole file would read the
    # closing fence as part of the last expected output.
    blocks = _readme_python_blocks()
    assert len(blocks) == 1
    test = doctest.DocTestParser().get_doctest(blocks[0], {}, "README",
                                               str(ROOT / "README.md"), 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


def _bound_names(stmt):
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _loaded_names(stmt):
    """The names and attributes a statement reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_public_name_has_a_user():
    # A public name stays in src/ only while something besides its own
    # unit tests uses it: a src/ statement other than the name's own
    # definition (so a docstring mention does not count), or a whole-word
    # mention in the README python block, the acceptance checklist or
    # perfbench.  Dunders such as __version__ are read by tools outside
    # the package.
    statements = [(_bound_names(stmt), _loaded_names(stmt))
                  for path in sorted((ROOT / "src" / "hwgroups").glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    outside = "\n".join(
        [*_readme_python_blocks(),
         (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"),
         *(path.read_text(encoding="utf-8")
           for path in sorted((ROOT / "perfbench").glob("*.py")))])
    unused = [f"{name}.{attr}"
              for name in MODULES
              for attr in importlib.import_module(name).__all__
              if not re.fullmatch(r"__\w+__", attr)
              and not any(attr in loaded and attr not in bound
                          for bound, loaded in statements)
              and not re.search(rf"\b{re.escape(attr)}\b", outside)]
    assert not unused, f"public names with no user: {', '.join(unused)}"
