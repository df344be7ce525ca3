"""Static check: the flight and replanning modules call no numpy function whose bits vary by machine.

numpy runs its transcendental functions through SIMD kernels chosen by
the CPU at load, and its matrix products through the BLAS kernel of its
build; either can change a result's last bits, and with them a replay.
These modules take such functions from ``math``, one element at a time,
or build their results from exactly rounded operations instead.  The
check reads the syntax tree, so it runs no module code.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flocksim"
MODULES = ["replanner", "geo", "guidance", "coordination", "dynamics"]
MACHINE_DEPENDENT = frozenset({
    "arctan2", "arctan", "arccos", "arcsin", "hypot", "tan", "tanh", "exp", "log", "power",
    "dot", "matmul", "inner", "einsum", "linalg",
})


def _numpy_aliases(tree: ast.Module) -> set[str]:
    """The names an ``import numpy`` statement binds."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "numpy"
    }


def _machine_dependent_uses(tree: ast.Module) -> list[str]:
    numpy = _numpy_aliases(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
            node.attr == "dot"  # ndarray.dot is a BLAS product too
            or isinstance(node.value, ast.Name) and node.value.id in numpy and node.attr in MACHINE_DEPENDENT
        ):
            found.append(f"{ast.unparse(node)} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "numpy":
            found += [
                f"from {node.module} import {alias.name} (line {node.lineno})"
                for alias in node.names
                if alias.name in MACHINE_DEPENDENT or node.module.startswith("numpy.linalg")
            ]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"the @ operator (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_machine_dependent_numpy_call(module):
    path = PACKAGE / f"{module}.py"
    uses = _machine_dependent_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not uses, f"{path.name} uses {', '.join(uses)}; take it from math or from exactly rounded operations"
