"""The package's module boundaries, read from its source with ``ast``: no
module imports or reads another module's ``_``-prefixed name, only
``__init__``, ``cli`` and ``data`` import the world simulator, and ``files``
imports nothing of the package but ``errors``."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "anchorloc"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
SIMWORLD_IMPORTERS = {"__init__", "cli", "data"}


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def package_uses(module: str) -> list[tuple[str, str | None]]:
    """(package module, name) for every name ``module`` imports from a package
    module or reads as an attribute of one it imported; (package module, None)
    for a package module it imports whole."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    bound: dict[str, str] = {}  # local name -> the package module it stands for
    uses: list[tuple[str, str | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "anchorloc":
                source = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if source is None:  # from . import m [as x]
                    bound[alias.asname or alias.name] = alias.name
                    uses.append((alias.name, None))
                else:
                    uses.append((source, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                root, _, sub = alias.name.partition(".")
                if root == "anchorloc" and sub:
                    if alias.asname:
                        bound[alias.asname] = sub
                    uses.append((sub, None))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            uses.append((bound[node.value.id], node.attr))
    return uses


def test_every_module_is_read():
    assert {"__init__", "cli", "data", "files", "optim", "simworld"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_crosses_a_module_boundary(module):
    crossing = sorted({f"{source}.{name}" for source, name in package_uses(module)
                       if name is not None and source != module and is_private(name)})
    assert crossing == []


@pytest.mark.parametrize("module", sorted(set(MODULES) - SIMWORLD_IMPORTERS))
def test_only_the_cli_and_data_import_the_world_simulator(module):
    assert "simworld" not in {source for source, _ in package_uses(module)}


def test_files_depends_only_on_errors():
    assert {source for source, _ in package_uses("files")} == {"errors"}
