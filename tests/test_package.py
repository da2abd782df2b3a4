from __future__ import annotations

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
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    test = doctest.DocTestParser().get_doctest(blocks[0], {}, "README", str(readme), 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
