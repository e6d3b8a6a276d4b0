"""Every name a module exports in __all__ exists in it, and only verify imports the references."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import influence_lab

MODULES = ["influence_lab"] + [f"influence_lab.{m.name}" for m in pkgutil.iter_modules(influence_lab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", []) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names {missing}"


def _imported_modules(source: str) -> set[str]:
    """First components of the modules a source file imports, package prefix and dots dropped."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            # from . import a and from influence_lab import a import the module a itself
            modules = [f"{base}.{alias.name}" if base in (".", "influence_lab") else base for alias in node.names]
        else:
            continue
        names |= {m.lstrip(".").removeprefix("influence_lab.").split(".")[0] for m in modules}
    return names


def test_only_verify_imports_the_reference_modules():
    # the brute-force references in oracles and lp stay off production paths
    for path in sorted(Path(influence_lab.__file__).parent.glob("*.py")):
        found = _imported_modules(path.read_text()) & {"oracles", "lp"}
        assert path.stem == "verify" or not found, f"{path.name} imports {sorted(found)}"
