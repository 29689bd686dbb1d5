"""Every module of the package imports only the standard library and itself,
uses each name it imports, draws samples through one helper, and adds no
result class beside core.Verdict; every facts key they use is documented on
PolyadicStructure; the shift relations choose their kernel in one place; and
every int/bytes conversion names its byte order."""

import ast
import re
import sys
from pathlib import Path

import pytest

from polygroth.core import PolyadicStructure

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polygroth"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def imported_modules(tree):
    """Top-level module of each import; a relative import is the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "polygroth" if node.level else node.module.split(".")[0]


def test_package_modules_are_found():
    assert {"core.py", "completion.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies
    outside = {
        (path.name, name)
        for path in PACKAGE.glob("*.py")
        for name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name != "polygroth" and name not in sys.stdlib_module_names
    }
    assert sorted(outside) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_draws_samples_only_through_index_draws(path):
    # core.IndexDraws replays rng.choice exactly; a choice call or import
    # beside it would be a second draw path
    tree = ast.parse(path.read_text(encoding="utf-8"))
    choices = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "choice"
               or isinstance(node, ast.alias) and node.name.split(".")[-1] == "choice"]
    assert choices == []


def test_result_classes_only_shrink():
    # core.Verdict is the one record of a check's outcome; the other
    # *Verdict classes stay while the benchmark reads their fields, and the
    # per-stage result classes it replaced must not come back
    classes = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)}
    verdicts = {name for name in classes if name.endswith("Verdict")}
    assert verdicts <= {"Verdict", "GroupVerdict", "CoincidenceVerdict", "AxiomsVerdict"}
    assert "Verdict" in verdicts
    assert classes.isdisjoint({"WellDefinedness", "UniversalVerdict"})


def test_retired_quer_checks_stay_gone():
    # core._checked_quer is the one quer-law check for every structure
    names = {node.name for path in PACKAGE.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert "_checked_quer" in names
    assert names.isdisjoint({"QuerFormulaFailsVerification", "_quer_slots", "all_slots_ok"})


def test_digit_codes_have_one_builder():
    # core._digit_codes builds every digit-code list, as bytes when they fit:
    # no module defines a second byte builder, and only core holds the ramp
    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                yield node.name
            elif isinstance(node, ast.Assign):
                yield from (t.id for t in node.targets if isinstance(t, ast.Name))

    defined = {path.stem: set(names(ast.parse(path.read_text(encoding="utf-8"))))
               for path in PACKAGE.glob("*.py")}
    assert "_digit_codes" in defined["core"]
    assert not any("_byte_codes" in found for found in defined.values())
    assert [module for module, found in defined.items() if "_RAMP" in found] == ["core"]


def facts_keys(tree):
    """String-literal keys of a `facts` dict: subscripted, read with .get,
    tested with `in`, or written in a facts={...} argument."""
    def is_facts(node):
        return isinstance(node, ast.Attribute) and node.attr == "facts"

    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_facts(node.value):
            keys = [node.slice]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and is_facts(node.func.value)):
            keys = node.args[:1]
        elif (isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn))
              and is_facts(node.comparators[0])):
            keys = [node.left]
        elif (isinstance(node, ast.keyword) and node.arg == "facts"
              and isinstance(node.value, ast.Dict)):
            keys = node.value.keys
        else:
            continue
        yield from (k.value for k in keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str))


def test_every_facts_key_is_documented():
    # PolyadicStructure's docstring is the one list of the facts a structure
    # may carry
    used = {key for path in PACKAGE.glob("*.py")
            for key in facts_keys(ast.parse(path.read_text(encoding="utf-8")))}
    documented = set(re.findall(r'"(\w+)"', PolyadicStructure.__doc__))
    assert used == documented


def test_shift_relation_entry_points_do_not_branch_on_the_carrier():
    # completion._shift_kernel picks the finite or the rule kernel once; the
    # witness functions and decide_equivalent only call it
    tree = ast.parse((PACKAGE / "completion.py").read_text(encoding="utf-8"))
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    entry = ("gauge_witness", "twist_witness", "decide_equivalent")
    assert {name: [node.lineno for node in ast.walk(bodies[name])
                   if isinstance(node, ast.Attribute) and node.attr == "is_finite"]
            for name in entry} == {name: [] for name in entry}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_carriers_have_one_equality(path):
    # every carrier compares elements with == and hash, as the dicts, sets
    # and memos keyed on them do; an `eq` method, a read of one, or complex
    # arithmetic that would want a tolerance would be a second equality
    tree = ast.parse(path.read_text(encoding="utf-8"))
    methods = [node.lineno for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "eq"]
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "eq"]
    assert (methods, reads) == ([], [])
    assert "cmath" not in set(imported_modules(tree))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_int_byte_conversions_name_their_byte_order(path):
    # the byte order of int.from_bytes and int.to_bytes is optional only
    # from Python 3.11, and the package supports 3.10
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bare = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("from_bytes", "to_bytes")
            and len(node.args) + len(node.keywords) < 2]
    assert bare == []
