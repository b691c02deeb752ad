"""The benchmark in perfbench/, its self-tests and the scripts in scripts/
import names from the package; a change that removes one of them breaks the
benchmark or a script without failing any other test."""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# `from sensor_shapley[.module] import a, b` or `import (a,\n b)`, anywhere in
# the text, so imports inside code strings run by a child process count too
IMPORT = re.compile(r"from (sensor_shapley(?:\.\w+)*) import (\([^)]*\)|[\w ,]+)")


def benchmark_imports():
    found = []
    globs = ("perfbench/*.py", "perfbench/selftest/*.py", "scripts/*.py")
    for path in sorted(path for glob in globs for path in ROOT.glob(glob)):
        for module, names in IMPORT.findall(path.read_text(encoding="utf-8")):
            for name in names.strip("()").split(","):
                name = name.split(" as ")[0].strip()
                if name:
                    found.append((path.relative_to(ROOT), module, name))
    return found


def resolves(module, name):
    # `from package import submodule` also works before the submodule is loaded
    imported = importlib.import_module(module)
    if hasattr(imported, name):
        return True
    is_package = hasattr(imported, "__path__")
    return is_package and importlib.util.find_spec(f"{module}.{name}") is not None


def test_every_name_the_benchmark_imports_resolves():
    found = benchmark_imports()
    assert found, "no package import found in perfbench/ or scripts/"
    selftests = {path.parent for path, _, _ in found}
    assert Path("perfbench/selftest") in selftests
    missing = [
        f"{path}: from {module} import {name}"
        for path, module, name in found
        if not resolves(module, name)
    ]
    assert not missing


# Sites perfbench still lists but the package no longer has; the benchmark
# change that drops them from CALL_SITES removes them here too.
RETIRED_CALL_SITES = {
    ("sensor_shapley.report", "validate_model"),
    ("sensor_shapley.shapley", "value_table"),
    ("sensor_shapley.cli", "gramian_direct"),
    ("sensor_shapley.cli", "build_report"),
}


def test_every_live_trace_site_resolves(monkeypatch):
    # perfbench/tracing.py imports only the standard library, so it loads by
    # path without perfbench on sys.path; its dataclasses look their module
    # up in sys.modules.
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    sites = {(module, attr) for module, attr, _ in tracing.CALL_SITES}
    unresolved = {
        (module, attr)
        for module, attr in sites
        if not hasattr(importlib.import_module(module), attr)
    }
    assert not unresolved - RETIRED_CALL_SITES
