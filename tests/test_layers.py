"""The module layers: which modules of the package import which.

The label half (`labels`, `fusion`) imports nothing of the operator half
(`ring`, `fock`, `untwisted`, `twisted`, `zhu`, `intertwine`), so the
fusion table, the restriction bound and `decompose` stand on the labels
alone.  A new import between the package's modules must be added to
LAYERS on purpose."""

import ast
import importlib
from pathlib import Path

import orbifold_voa
from orbifold_voa import labels, zhu

# the package exports the function `fusion` under the module's name
fusion_module = importlib.import_module("orbifold_voa.fusion")

PACKAGE = Path(orbifold_voa.__file__).resolve().parent
EVERY = {"cli", "fock", "fusion", "intertwine", "labels", "ring", "twisted", "untwisted", "zhu"}
OPERATORS = {"fock", "ring", "twisted", "untwisted"}

# module -> the package modules it imports, at load time or inside a function
LAYERS = {
    "ring": set(),
    "labels": set(),
    "fock": {"labels", "ring"},
    "untwisted": {"fock", "ring"},
    "twisted": {"fock", "ring", "untwisted"},
    "zhu": OPERATORS | {"labels"},
    "intertwine": OPERATORS | {"labels"},
    "fusion": {"labels"},
    "cli": EVERY - {"cli"},
    "__init__": EVERY - {"cli"},
}


def relative_imports(path: Path) -> set[str]:
    """The package modules that `path` imports by relative import:
    `from .m import x` names m, `from . import m` names m."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module)
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_each_module_imports_only_its_layers():
    found = {path.stem: relative_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert found == LAYERS


def test_the_label_rules_are_one_object_wherever_they_are_bound():
    assert zhu.contragredient is labels.contragredient
    assert fusion_module.quasi_admissible is labels.quasi_admissible
    assert orbifold_voa.contragredient is labels.contragredient
    assert orbifold_voa.quasi_admissible is labels.quasi_admissible
