"""A name with a leading underscore belongs to its module: no other hardylab module reads it."""

import ast
from pathlib import Path

import hardylab

PACKAGE = Path(hardylab.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def foreign_private_reads(path: Path) -> list[str]:
    """`module._name` for each private name of another hardylab module that `path` reads,
    by attribute access on an imported module or by `from module import _name`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases: dict[str, str] = {}  # local name -> the hardylab module it is bound to
    reads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        # the module imported from: "" for the package itself
        if node.level == 1:
            source = node.module or ""
        elif node.level == 0 and (node.module or "").split(".")[0] == "hardylab":
            source = node.module.removeprefix("hardylab").lstrip(".")
        else:
            continue
        for alias in node.names:
            if not source and alias.name in MODULES:
                aliases[alias.asname or alias.name] = alias.name
            elif source in MODULES and _private(alias.name):
                reads.append(f"{source}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            reads.append(f"{aliases[node.value.id]}.{node.attr}")
    return sorted(read for read in reads if not read.startswith(f"{path.stem}."))


def test_the_scan_sees_attribute_and_import_reads(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from . import hardy4, qcore as q\nfrom .gedanken import _EXACT, STATE\n"
                      "from hardylab.bellhv import _x\n"
                      "q._clamp(hardy4._bound, hardy4.cross_check, q.__name__)\n")
    assert foreign_private_reads(sample) == [
        "bellhv._x", "gedanken._EXACT", "hardy4._bound", "qcore._clamp"]


def test_no_module_reads_another_modules_private_names():
    reads = {path.name: foreign_private_reads(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}
