"""Every library name the benchmark reads resolves in the library.

bench/run.py imports the library's modules into one namespace, lib, and
the bench files read it as lib.<module>.<name> (self.lib in spans.py);
workloads.py also reads gf.<name> through a name bound to lib.gf;
spans.py wraps the class attributes its METHODS table names; and run.py
drives cli.main.  The files are parsed, not imported, so a rename in the
library that misses one of these reads fails here, and not only when the
benchmark runs.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def parsed(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"), filename=name)


def is_lib(node: ast.expr) -> bool:
    """lib, or self.lib."""
    return ((isinstance(node, ast.Name) and node.id == "lib")
            or (isinstance(node, ast.Attribute) and node.attr == "lib"
                and isinstance(node.value, ast.Name) and node.value.id == "self"))


def lib_reads(tree: ast.Module) -> tuple[set[str], set[tuple[str, str]]]:
    """The modules read as lib.<module>, and the (module, name) pairs read
    as lib.<module>.<name>."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_lib(node.value):
            modules.add(node.attr)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                and is_lib(node.value.value):
            names.add((node.value.attr, node.attr))
    return modules, names


def constant(tree: ast.Module, name: str):
    """The literal value of the module-level assignment to name."""
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]]
    return ast.literal_eval(value)


def library(module: str):
    return importlib.import_module(f"indumatch.{module}")


def test_every_lib_read_in_bench_resolves():
    modules, names = set(), set()
    for path in sorted(BENCH.glob("*.py")):
        read_modules, read_names = lib_reads(parsed(path.name))
        modules |= read_modules
        names |= read_names
    modules |= set(constant(parsed("spans.py"), "LAYERS"))
    assert ("modules", "image_module") in names  # the reads are found
    assert [m for m in sorted(modules) if importlib.util.find_spec(f"indumatch.{m}") is None] == []
    assert sorted((m, n) for m, n in names if not hasattr(library(m), n)) == []


def test_every_gf_read_in_workloads_resolves():
    tree = parsed("workloads.py")
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "gf"}
    assert {"rank", "inverse"} <= names
    assert sorted(n for n in names if not hasattr(library("gf"), n)) == []


def test_every_method_spans_wraps_is_a_class_attribute():
    methods = constant(parsed("spans.py"), "METHODS")
    assert methods
    missing = [(module, cls, attr) for module, cls, attr, _ in methods
               if attr not in vars(getattr(library(module), cls))]
    assert missing == []


def test_run_drives_cli_main():
    tree = parsed("run.py")
    calls = {(node.func.value.id, node.func.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)}
    assert ("cli", "main") in calls
    assert callable(library("cli").main)
