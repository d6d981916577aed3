"""The module layers: which modules of the package import which, and when.

The label half (`labels`, `fusion`) imports nothing of the operator half
(`ring`, `fock`, `untwisted`, `twisted`, `zhu`, `intertwine`, `verify`),
so the fusion table, the restriction bound, `decompose` and the naming of
the explicit constructions stand on the labels alone.  At load time `cli`
and the package `__init__` import only the label half: a command imports
the operator modules it runs inside its function, and the package binds
its operator names on first use.  A new import between the package's
modules must be added to LAYERS on purpose."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbifold_voa
from orbifold_voa import intertwine, labels, zhu

# the package exports the function `fusion` under the module's name
fusion_module = importlib.import_module("orbifold_voa.fusion")

PACKAGE = Path(orbifold_voa.__file__).resolve().parent
LABEL_HALF = {"fusion", "labels"}
OPERATORS = {"fock", "ring", "twisted", "untwisted"}
OPERATOR_HALF = OPERATORS | {"intertwine", "verify", "zhu"}

# module -> (the package modules it imports at load time, those it imports
# only inside a function)
LAYERS = {
    "ring": (set(), set()),
    "labels": (set(), set()),
    "fock": ({"labels", "ring"}, set()),
    "untwisted": ({"fock", "ring"}, set()),
    "twisted": ({"fock", "ring", "untwisted"}, set()),
    "zhu": (OPERATORS | {"labels"}, set()),
    "intertwine": (OPERATORS | LABEL_HALF, set()),
    "fusion": ({"labels"}, set()),
    "verify": (OPERATORS | LABEL_HALF | {"cli", "intertwine", "zhu"}, set()),
    "cli": (LABEL_HALF, {"intertwine", "ring", "twisted", "verify", "zhu"}),
    "__init__": (LABEL_HALF, set()),
}


def relative_imports(path: Path) -> tuple[set[str], set[str]]:
    """(at load time, only inside a function): the package modules that
    `path` imports by relative import, `from .m import x` naming m and
    `from . import m` naming m."""
    tree = ast.parse(path.read_text(), str(path))
    nested = {
        id(node)
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
    }
    load, inner = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = {node.module} if node.module else {alias.name for alias in node.names}
            (inner if id(node) in nested else load).update(names)
    return load, inner - load


def test_each_module_imports_only_its_layers():
    found = {path.stem: relative_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert found == LAYERS


def test_the_label_rules_are_one_object_wherever_they_are_bound():
    assert zhu.contragredient is labels.contragredient
    assert fusion_module.quasi_admissible is labels.quasi_admissible
    assert orbifold_voa.contragredient is labels.contragredient
    assert orbifold_voa.quasi_admissible is labels.quasi_admissible


def test_intertwine_still_binds_the_naming_half():
    # bench/layertrace.py wraps `intertwine.direct_witness` by name
    for name in ("IntertwinerSpec", "KINDS", "TILDE", "Y_RS", "Y_RS_THETA", "direct_witness"):
        assert getattr(intertwine, name) is getattr(fusion_module, name)


def test_each_operator_name_of_the_package_is_its_module_s_own():
    # the package's operator names load on first use, each from the
    # operator-half module that defines it
    assert set(orbifold_voa._LAZY.values()) <= OPERATOR_HALF
    for name, module in orbifold_voa._LAZY.items():
        assert getattr(orbifold_voa, name) is getattr(importlib.import_module(f"orbifold_voa.{module}"), name)
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        orbifold_voa.nosuch


def _loaded(*argv: str) -> set[str]:
    """The modules a fresh `python -m orbifold_voa.cli argv` has loaded when
    its command returns."""
    src = str(PACKAGE.parent)
    script = (
        "import sys; from orbifold_voa import cli; code = cli.main(sys.argv[1:]); "
        "print(' '.join(sorted(sys.modules)), file=sys.stderr); sys.exit(code)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


@pytest.mark.parametrize(
    "argv", (("fusion", "query", "--k", "2", "V+", "V+", "V+"), ("fusion", "table", "--k", "2")), ids=" ".join
)
def test_a_fresh_fusion_command_loads_no_operator_module(argv):
    loaded = _loaded(*argv)
    assert {"orbifold_voa.cli", "orbifold_voa.fusion", "orbifold_voa.labels"} <= loaded
    assert loaded & {f"orbifold_voa.{name}" for name in OPERATOR_HALF} == set()
    assert "dataclasses" not in loaded
