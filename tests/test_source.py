"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "invsys"
MODULES = sorted(p.name for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    # __init__.py imports to re-export, so it is the one module left out
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def test_unused_import_check_sees_leftovers():
    tree = ast.parse("import itertools\nfrom .ring import drl_key, exp_sub\nexp_sub(1, 2)\n")
    assert _unused_imports(tree) == [(1, "itertools"), (2, "drl_key")]
