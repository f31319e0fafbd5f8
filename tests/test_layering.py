"""The common core names no device class.

The core modules may use the device contract, which ``rio.devices``
defines above its first device class, and nothing below it: no device
class, no class constant, no per-class recipe.  They do not branch on a
device's ``class_name``, and the two stubs do not import each other.
Read from the source with ``ast``; nothing is imported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rio"
CORE = ("kernel", "wire", "memory", "dsm", "server", "client")


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def _contract_names() -> set[str]:
    """Every name ``devices.py`` binds at top level above its first
    ``class ...(Device)``."""
    names = set()
    for node in _tree("devices").body:
        if isinstance(node, ast.ClassDef):
            if any(isinstance(b, ast.Name) and b.id == "Device" for b in node.bases):
                return names
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    raise AssertionError("devices.py defines no device class")


def _imports(module: str):
    """(imported module, imported name or None) for every import in ``module``,
    with relative module names resolved inside the package."""
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"rio.{base}" if base else "rio"
            for alias in node.names:
                if base == "rio":  # ``from . import devices``
                    yield f"rio.{alias.name}", None
                else:
                    yield base, alias.name


def test_the_contract_is_what_the_core_needs():
    assert {"Device", "Descriptor", "MemoryContext", "RegionRef",
            "GBUF_ALLOC", "GBUF_ARG"} <= _contract_names()
    assert "AudioDevice" not in _contract_names()


@pytest.mark.parametrize("module", CORE)
def test_core_module_imports_only_the_device_contract(module):
    contract = _contract_names()
    for imported, name in _imports(module):
        if imported != "rio.devices":
            continue
        assert name is not None, f"{module} imports all of rio.devices"
        assert name in contract, f"{module} imports {name}, which is not device contract"


@pytest.mark.parametrize("module,other", [("client", "rio.server"), ("server", "rio.client")])
def test_the_stubs_do_not_import_each_other(module, other):
    assert other not in {imported for imported, _ in _imports(module)}


@pytest.mark.parametrize("module", CORE)
def test_core_module_reads_no_class_name(module):
    reads = [node.lineno for node in ast.walk(_tree(module))
             if isinstance(node, ast.Attribute) and node.attr == "class_name"]
    assert not reads, f"{module} reads .class_name on lines {reads}"
