"""Module boundaries: no module of the library reads another's private names.

Every module under src/indumatch is parsed with ast.  A module may import
and read only the public names of its siblings: no ``from .x import _y``
(or its absolute form) and no ``x._y`` on a name bound to a sibling
module.  Dunders are public.  Attribute reads on objects (``self._cache``,
``m._basis``) are not module reads and are not checked here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import indumatch

PACKAGE = Path(indumatch.__file__).parent
SIBLINGS = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _from_package(node: ast.ImportFrom) -> bool:
    return node.level == 1 or (node.module or "").split(".")[0] == "indumatch"


def private_reads(source: str) -> list[str]:
    """Each private name of a sibling module that source imports or reads."""
    tree = ast.parse(source)
    modules: set[str] = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _from_package(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                elif node.module in (None, "indumatch") and alias.name in SIBLINGS:
                    modules.add(alias.asname or alias.name)  # from . import gf
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("indumatch.") and alias.asname:
                    modules.add(alias.asname)  # import indumatch.gf as gf
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("name", SIBLINGS)
def test_no_module_reads_a_private_name_of_another(name):
    assert private_reads((PACKAGE / f"{name}.py").read_text()) == []


@pytest.mark.parametrize("source, want", [
    ("from .modules import _basis_matrix, barcode",
     ["line 1: imports _basis_matrix"]),
    ("from indumatch.matching import _m_table", ["line 1: imports _m_table"]),
    ("from . import gf\nk = gf._null_basis(m, p)", ["line 2: reads gf._null_basis"]),
    ("from . import modules as mo\nmo._shift_matrix(bm, 1)",
     ["line 2: reads mo._shift_matrix"]),
    ("import indumatch.gf as g\ng._canonical_columns(m, 2)",
     ["line 2: reads g._canonical_columns"]),
    # Public names, dunders and attributes of objects pass.
    ("from . import gf\nfrom .modules import basis_matrix\ngf.null_basis(m, p)", []),
    ("from . import modules\nmodules.__name__", []),
    ("from . import gf\nself._cache = gf\nm._basis", []),
    ("from dataclasses import _private_helper", []),
])
def test_private_reads_flags_imports_and_module_attributes(source, want):
    assert private_reads(source) == want
