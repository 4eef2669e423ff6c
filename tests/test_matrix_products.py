"""No matrix product anywhere in ``src/tmtmag``.

OpenBLAS splits a large product between threads and sums some elements
with another micro-kernel, so the bits of a BLAS product can depend on the
thread count.  Every reduction in ``tmtmag`` is elementwise numpy or
``np.einsum(..., optimize=False)``, which never calls BLAS, so ``src/``
takes no matrix product at all.  This test reads the source with ``ast``,
so a product that no test executes is caught too.
"""

import ast
from pathlib import Path

import pytest

import tmtmag

SRC = Path(tmtmag.__file__).resolve().parent
PRODUCT_CALLS = {"dot", "vdot", "matmul", "tensordot", "inner"}


def _einsum_without_blas(call: ast.Call) -> bool:
    return any(k.arg == "optimize" and isinstance(k.value, ast.Constant)
               and k.value.value is False for k in call.keywords)


def matrix_products(source: str, module: str) -> list[str]:
    """``module:line kind`` of every matrix product in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        kind = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            kind = "@"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in PRODUCT_CALLS:
                kind = name
            elif name == "einsum" and not _einsum_without_blas(node):
                kind = "einsum without optimize=False"
        if kind is not None:
            found.append(f"{module}:{node.lineno} {kind}")
    return found


def test_no_matrix_product_in_src():
    modules = sorted(SRC.glob("*.py"))
    assert {path.stem for path in modules} >= {"bench", "tmt", "wavelets"}
    found = [hit for path in modules for hit in matrix_products(path.read_text(), path.stem)]
    assert found == []


@pytest.mark.parametrize("line", [
    "c = a @ b",
    "c @= b",
    "c = np.dot(a, b)",
    "c = a.dot(b)",
    "c = np.vdot(a, b)",
    "c = np.matmul(a, b)",
    "c = np.tensordot(a, b, 1)",
    "c = np.inner(a, b)",
    "c = np.einsum('ij,jk->ik', a, b)",
    "c = np.einsum('ij,jk->ik', a, b, optimize=True)",
    "from numpy import dot\nc = dot(a, b)",
])
def test_guard_finds_each_product(line):
    source = f"def f(a, b, c):\n    {line.replace(chr(10), chr(10) + '    ')}\n"
    assert len(matrix_products(source, "tmt")) == 1


def test_guard_passes_einsum_without_blas():
    source = "def f(a, b):\n    return np.einsum('ij,jk->ik', a, b, optimize=False)\n"
    assert matrix_products(source, "tmt") == []
