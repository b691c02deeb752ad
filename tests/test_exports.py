"""Every name a module lists in ``__all__`` resolves. A stale entry raises
nothing on a plain import, only when someone runs ``from module import *``.
README.md documents every name the top level exports, and every name the
package's docstrings and comments quote still exists."""

import ast
import builtins
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import sensor_shapley

MODULES = ["sensor_shapley"] + [
    f"sensor_shapley.{info.name}"
    for info in pkgutil.iter_modules(sensor_shapley.__path__)
]

# Quoted words that are not Python names: the CLI's subcommands and a key of
# its JSON report.
NOT_NAMES = {"analyze", "check", "share_of_total"}

# ``name`` or :func:`~dotted.name`, where the quoted text is a dotted name
QUOTED = re.compile(r"``([A-Za-z_][\w.]*)``|:\w+:`~?([A-Za-z_][\w.]*)`")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing


def test_every_top_level_name_is_in_the_readme():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    missing = [
        name
        for name in sensor_shapley.__all__
        if not re.search(rf"\b{name}\b", readme)
    ]
    assert not missing


_MISSING = object()


def _member(owner, name):
    if name in getattr(owner, "__dataclass_fields__", {}):
        return name  # a field without a default is no class attribute
    return getattr(owner, name, _MISSING)


def _resolves(dotted, module):
    head, *rest = dotted.split(".")
    owners = [module, *map(importlib.import_module, MODULES), np, np.linalg, builtins]
    found = {"np": np, "sensor_shapley": sensor_shapley}.get(head, _MISSING)
    for owner in owners:
        if found is _MISSING:
            found = _member(owner, head)
    for name in rest:
        if found is not _MISSING:
            found = _member(found, name)
    return found is not _MISSING


def _local_names(tree, line):
    # The parameter and field names of the code a docstring or comment at
    # this line documents: the defs and classes around it, else the module.
    scopes = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.lineno <= line <= node.end_lineno
    ]
    names = set()
    for scope in scopes or [tree]:
        for node in ast.walk(scope):
            if isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.ClassDef):
                names.update(
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                )
    return names


@pytest.mark.parametrize("name", MODULES)
def test_docstrings_and_comments_name_only_what_exists(name):
    module = importlib.import_module(name)
    text = Path(module.__file__).read_text(encoding="utf-8")
    tree = ast.parse(text)
    stale = []
    for match in QUOTED.finditer(text):
        quoted = match.group(1) or match.group(2)
        line = text.count("\n", 0, match.start()) + 1
        if quoted in NOT_NAMES or _resolves(quoted, module):
            continue
        if quoted not in _local_names(tree, line):
            stale.append(f"line {line}: {quoted}")
    assert not stale
