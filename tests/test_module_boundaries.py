"""Module boundaries: no module of fracdyn imports a private name of another."""

import ast
from pathlib import Path

import fracdyn

SRC = Path(fracdyn.__file__).parent


def private_imports(source, own):
    """(module, name) of each underscore name that the module `own`, given by
    its source, imports from another fracdyn module; dunder names are public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:  # from .x import y, from . import y
            module = node.module or ""
        elif (node.module or "").split(".")[0] == "fracdyn":
            module = node.module.partition(".")[2]
        else:
            continue
        if module == own:
            continue
        found += [(module, a.name) for a in node.names
                  if a.name.startswith("_") and not a.name.endswith("__")]
    return found


def test_detector():
    source = ("from .caputo_solver import _weights, check_grid\n"
              "from fracdyn.mittag_leffler import _contour\n"
              "from . import __version__, _private\n"
              "from .scalar_analysis import _preimage\n"
              "from numpy import _globals\n")
    assert private_imports(source, "scalar_analysis") == [
        ("caputo_solver", "_weights"), ("mittag_leffler", "_contour"), ("", "_private")]


def test_no_module_imports_a_private_name_of_another():
    found = [f"{path.name}: from {module or '.'} import {name}"
             for path in sorted(SRC.glob("*.py"))
             for module, name in private_imports(path.read_text(), path.stem)]
    assert found == []
