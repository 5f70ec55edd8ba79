"""The package names and record fields the benchmark reads are still there.

`benchmarks/workloads.py` reaches the package through dotted names such as
"coverings.enumerate_coverings", passed to `fn`, `call` or `f`. A name that
has gone makes the benchmark record it as absent and fail its ops; this
test makes the same deletion fail here first.
"""

import ast
import importlib
from pathlib import Path

import pytest

from immaculate.coverings import enumerate_coverings
from immaculate.diagram import build_diagram

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def benchmark_names():
    names = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        first = node.args[0]
        if callee in ("fn", "call", "f") and isinstance(first, ast.Constant) \
                and isinstance(first.value, str) and "." in first.value:
            names.add(first.value)
    return sorted(names)


def test_benchmark_reads_some_names():
    names = benchmark_names()
    assert "coverings.enumerate_coverings" in names and len(names) >= 20


@pytest.mark.parametrize("path", benchmark_names())
def test_benchmark_name_resolves(path):
    module, _, attrs = path.partition(".")
    obj = importlib.import_module(f"immaculate.{module}")
    for attr in attrs.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)


def test_benchmark_record_fields():
    covering = next(enumerate_coverings((3, 1, 3), (1, 0, 0)))
    for field in ("hooks", "delta_seq", "total_sign", "terminal_cells"):
        assert getattr(covering, field) is not None
    diagram = build_diagram((3, 1, 3))
    assert diagram.tunnel_cells() == [(1, 1), (2, 1), (3, 1)]
    assert not diagram.is_exhausted()
