"""Library-quality checks: importability, docstrings, export hygiene.

A reproduction meant for adoption must hold to library standards: every
public module, class and function documented; every ``__all__`` entry
real; every subpackage importable in isolation; no module importing a
name it never uses.
"""

import ast
import importlib
import inspect
import os
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.phy",
    "repro.mac",
    "repro.net",
    "repro.traffic",
    "repro.transport",
    "repro.core",
    "repro.baselines",
    "repro.analysis",
    "repro.metrics",
    "repro.topology",
    "repro.experiments",
    "repro.results",
    "repro.service",
]


def iter_modules():
    seen = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        seen.append(package)
        for info in pkgutil.iter_modules(package.__path__, package_name + "."):
            if info.name.endswith("__main__"):
                continue
            seen.append(importlib.import_module(info.name))
    return seen


class TestImports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_package_importable(self, package_name):
        importlib.import_module(package_name)

    def test_all_exports_resolve(self):
        for module in iter_modules():
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"

    def test_version_exposed(self):
        assert repro.__version__


class TestDocstrings:
    def test_every_module_documented(self):
        for module in iter_modules():
            assert module.__doc__, f"{module.__name__} lacks a module docstring"

    def test_public_classes_documented(self):
        for module in iter_modules():
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isclass(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue  # re-export
                assert obj.__doc__, f"{module.__name__}.{name} lacks a docstring"

    def test_public_functions_documented(self):
        for module in iter_modules():
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                assert obj.__doc__, f"{module.__name__}.{name} lacks a docstring"

    def test_public_methods_documented(self):
        undocumented = []
        for module in iter_modules():
            for cls_name, cls in vars(module).items():
                if cls_name.startswith("_") or not inspect.isclass(cls):
                    continue
                if cls.__module__ != module.__name__:
                    continue
                for method_name, method in vars(cls).items():
                    if method_name.startswith("_"):
                        continue
                    if not inspect.isfunction(method) or method.__doc__:
                        continue
                    # An override inherits its contract's documentation.
                    inherited = any(
                        getattr(base, method_name, None) is not None
                        and getattr(getattr(base, method_name), "__doc__", None)
                        for base in cls.__mro__[1:]
                    )
                    if not inherited:
                        undocumented.append(
                            f"{module.__name__}.{cls_name}.{method_name}"
                        )
        assert not undocumented, undocumented


def unused_imports(path):
    """(line, name) of every name the module at ``path`` imports but never reads.

    A name counts as read when the module loads it anywhere (an
    attribute chain counts for its root name) or lists it in
    ``__all__``. Import lines marked ``# noqa: F401`` are exempt.
    """
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    lines = source.splitlines()
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in read and "# noqa: F401" not in lines[line - 1]
    )


def unused_imports_under(root):
    """``path:line name`` of every unused import in the non-``__init__``
    modules under ``root``, paths relative to ``root``."""
    unused = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if not filename.endswith(".py") or filename == "__init__.py":
                continue
            path = os.path.join(dirpath, filename)
            unused += [
                f"{os.path.relpath(path, root)}:{line} {name}"
                for line, name in unused_imports(path)
            ]
    return unused


class TestImportHygiene:
    def test_no_module_imports_an_unused_name(self):
        """Every non-``__init__`` module under ``repro`` uses what it imports."""
        unused = unused_imports_under(os.path.dirname(os.path.abspath(repro.__file__)))
        assert not unused, unused

    def test_no_test_benchmark_or_example_imports_an_unused_name(self):
        """The same check over the tests, the benchmarks and the examples."""
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        unused = [
            f"{top}/{entry}"
            for top in ("tests", "benchmarks", "examples")
            for entry in unused_imports_under(os.path.join(repo, top))
        ]
        assert not unused, unused

    def test_check_sees_reads_exports_and_exemptions(self, tmp_path):
        module = tmp_path / "sample.py"
        module.write_text(
            "from __future__ import annotations\n"
            "import os.path\n"
            "from typing import Dict, List, Tuple\n"
            "from json import dumps  # noqa: F401\n"
            "from math import pi\n"
            "__all__ = ['pi']\n"
            "def f(x: Dict) -> None:\n"
            "    return os.path.join(x)\n"
        )
        assert unused_imports(str(module)) == [(3, "List"), (3, "Tuple")]
