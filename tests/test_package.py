from __future__ import annotations

import ast
import copy
import doctest
import importlib
import operator
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
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


def test_a_fresh_import_frees_the_classes_of_the_last():
    # perfbench imports the package afresh several times in one process.
    # A stale class kept alive, say by typing's cache of FrozenSet[...],
    # keeps its module's globals alive too, and with them, through
    # _Value, the old package and every module it imported.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hwgroups.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    body = ("import gc, importlib, sys, weakref\n"
            "def classes():\n"
            "    for name in [m for m in sys.modules if m.split('.')[0] == 'hwgroups']:\n"
            "        del sys.modules[name]\n"
            f"    mods = [importlib.import_module(name) for name in {MODULES!r}]\n"
            "    return [v for m in mods for v in vars(m).values()\n"
            "            if isinstance(v, type) and v.__module__ == m.__name__]\n"
            "stale = [weakref.ref(c) for c in classes()]\n"
            "assert len(stale) > 10 and classes()\n"
            "gc.collect()\n"
            "print(sorted(r().__qualname__ for r in stale if r() is not None))\n")
    proc = subprocess.run([sys.executable, "-c", body], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


# One value of each immutable class, built by keyword from fields that
# are already in normal form, and its repr, which is the frozen
# dataclass form the classes had (perfbench hashes the repr of its ops).
VALUES = [
    ("hw_group", "GroupElement", {"w": (1, 2), "t": (0, -1)},
     "GroupElement(w=(1, 2), t=(0, -1))"),
    ("exact_algebra", "IntPolynomial", {"coeffs": (1, 0, -2)},
     "IntPolynomial(coeffs=(1, 0, -2))"),
    ("cohomology_q", "Character", {"eps": (1, -1, -1)}, "Character(eps=(1, -1, -1))"),
    ("cohomology_f2", "EnBasisElement", {"grade": 2, "z_index": 1, "g_mask": 6},
     "EnBasisElement(grade=2, z_index=1, g_mask=6)"),
    ("crystal", "AffineIsometry",
     {"signs": (1, -1), "translation": (Fraction(1, 2), Fraction(0))},
     "AffineIsometry(signs=(1, -1), translation=(Fraction(1, 2), Fraction(0, 1)))"),
    ("group_ring", "RingElement", {"n": 1, "support": frozenset({hwgroups.identity(1)})},
     "RingElement(n=1, support=frozenset({GroupElement(w=(), t=(0,))}))"),
]


@pytest.mark.parametrize("module, name, fields, text", VALUES, ids=[v[1] for v in VALUES])
def test_value_semantics(module, name, fields, text):
    cls = getattr(importlib.import_module(f"hwgroups.{module}"), name)
    assert issubclass(cls, hwgroups._Value)
    value = cls(**fields)
    key = tuple(fields.values())
    assert repr(value) == text
    assert value == cls(*key) and hash(value) == hash(cls(*key)) == hash(key)
    assert value != key and key != value
    # A value is a tuple subclass, so it must refuse the plain tuple
    # itself: Python tries its reflected __eq__ first, and NotImplemented
    # there would let tuple.__eq__ answer True.
    assert value.__eq__(key) is False
    assert not hasattr(value, "__dict__")  # __slots__ only
    for k, v in fields.items():  # each field is the value passed in, of its type
        assert getattr(value, k) == v and type(getattr(value, k)) is type(v)
    # No order, so sorted() cannot quietly use one: not between values,
    # and not against the plain tuple from either side.
    for a, b in ((value, value), (value, key), (key, value)):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(a, b)
    # Nor does it concatenate or repeat its fields as a tuple would,
    # unless its class defines + or k * itself.
    if cls.__add__ is hwgroups._Value.__add__:
        for a, b in ((value, value), (value, key), (key, value)):
            with pytest.raises(TypeError, match="not a sequence"):
                a + b
    if cls.__rmul__ is hwgroups._Value.__rmul__:
        with pytest.raises(TypeError, match="not a sequence"):
            2 * value
    if cls.__mul__ is hwgroups._Value.__mul__:
        with pytest.raises(TypeError, match="not a sequence"):
            value * 2
    field = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, field, fields[field])
    with pytest.raises(AttributeError):
        delattr(value, field)
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is cls and twin == value and repr(twin) == text
    if name == "IntPolynomial":
        assert cls() == cls(coeffs=()) and repr(cls()) == "IntPolynomial(coeffs=())"


# Each checked constructor with entries that int() would truncate or
# parse: GroupElement((1.9,), (0.5, '3')) used to be w = x1 | t = (0,3).
NON_INTEGERS = [
    ("hw_group", "GroupElement", ((1.9,), (0, 3))),
    ("hw_group", "GroupElement", ((1,), (0.5, 3))),
    ("hw_group", "GroupElement", ((1,), (0, "3"))),
    ("hw_group", "GroupElement", ((Fraction(1),), (0, 0))),
    ("exact_algebra", "IntPolynomial", ((1.5, 2),)),
    ("exact_algebra", "IntPolynomial", ((Fraction(2), 2),)),
    ("exact_algebra", "IntPolynomial", (("1",),)),
    ("cohomology_q", "Character", ((1.7, -1.2),)),
    ("cohomology_q", "Character", ((1.0, -1),)),
    ("cohomology_q", "Character", ((Fraction(1), "-1"),)),
]


@pytest.mark.parametrize("module, name, args", NON_INTEGERS,
                         ids=[f"{name}-{args!r}" for _, name, args in NON_INTEGERS])
def test_checked_constructors_refuse_non_integers(module, name, args):
    cls = getattr(importlib.import_module(f"hwgroups.{module}"), name)
    with pytest.raises(TypeError):
        cls(*args)


def test_no_module_builds_a_value_around_its_constructor():
    # Every value is built by its class's checked __new__ or by a
    # partial of tuple.__new__, never field by field on a bare object.
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "hwgroups").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in ("__setattr__", "__new__")
             and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert not calls


# Each record, the call that returns one, and its field names in order.
RECORDS = [
    ("cohomology_f2", "SpectralTables", lambda m: m.spectral_tables(1),
     ("n", "e2", "z2", "b2", "e3")),
    ("cohomology_f2", "EnComparison", lambda m: m.en_vs_e3(1), ("n", "ok", "rows")),
    ("crystal", "Gamma3Report", lambda m: m.verify_hom_g2_gamma3(),
     ("ok", "relator_xy", "relator_yx", "a_squared", "b_squared")),
    ("quotient_w", "HKernelReport", lambda m: m.kernel_rank_details(4),
     ("rank", "s", "index", "euler")),
]


@pytest.mark.parametrize("module, name, build, names", RECORDS, ids=[r[1] for r in RECORDS])
def test_record_fields_and_repr(module, name, build, names):
    record = build(importlib.import_module(f"hwgroups.{module}"))
    assert type(record).__name__ == name and type(record)._fields == names
    values = [getattr(record, k) for k in names]
    assert tuple(record) == tuple(values)
    assert repr(record) == f"{name}({', '.join(f'{k}={v!r}' for k, v in zip(names, values))})"


# Each name the package root defines for every module, and the modules
# that import it from there, so that their attribute is the root's object.
SHARED = {
    "VerificationError": ("exact_algebra", "hw_group", "quotient_w", "cohomology_f2",
                          "cohomology_q", "cli"),
    "ElementSyntaxError": ("hw_group", "group_ring", "cli"),
    "BallBudgetError": ("hw_group", "cli"),
    "DEFAULT_BALL_BUDGET": ("hw_group", "cli"),
    "decimal_text": ("hw_group", "cli"),
}


def test_errors_and_limits_are_defined_once_in_the_root():
    # Every exception class is the root's, so cli catches each by class.
    mods = [importlib.import_module(name) for name in MODULES]
    strays = [f"{m.__name__}.{name}" for m in mods for name, v in vars(m).items()
              if isinstance(v, type) and issubclass(v, BaseException)
              and v.__module__.startswith("hwgroups") and v.__module__ != "hwgroups"]
    assert not strays
    sources = "".join(path.read_text(encoding="utf-8")
                      for path in (ROOT / "src" / "hwgroups").glob("*.py"))
    assert len(re.findall(r"^\s*DEFAULT_BALL_BUDGET\s*=", sources, re.MULTILINE)) == 1
    for name, modules in SHARED.items():
        for module in modules:
            assert getattr(importlib.import_module(f"hwgroups.{module}"), name) is \
                getattr(hwgroups, name), (module, name)
