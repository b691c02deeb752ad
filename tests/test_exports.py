"""Every name a module lists in ``__all__`` resolves. A stale entry raises
nothing on a plain import, only when someone runs ``from module import *``.
And README.md documents every name the top level exports."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import sensor_shapley

MODULES = ["sensor_shapley"] + [
    f"sensor_shapley.{info.name}"
    for info in pkgutil.iter_modules(sensor_shapley.__path__)
]


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
