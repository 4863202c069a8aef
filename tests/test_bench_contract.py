"""The package still defines every name the benchmark's tracer wraps.

``bench/tracer.py`` looks each of its ``FUNCTIONS`` and ``METHODS`` up
with ``getattr`` when a traced run starts, so a refactor that drops one
breaks every traced benchmark run. This reads those lists from the
tracer's source, without importing or changing it, and fails here first.
The benchmark also reads the forward passes of training and of evaluation
off the calls made through the ``forward_batch`` those two modules import.
Its set-up imports names from the package (``from hydronets.X import
...`` in ``bench/run.py``), which tier-1 never runs; those are read the
same way and must resolve too.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
TRACED = {
    target.id: ast.literal_eval(node.value)
    for node in ast.parse(TRACER.read_text()).body if isinstance(node, ast.Assign)
    for target in node.targets if target.id in ("MODULES", "FUNCTIONS", "METHODS")
}

SETUP_IMPORTS = sorted({
    (node.module, alias.name)
    for node in ast.walk(ast.parse((BENCH / "run.py").read_text())) if isinstance(node, ast.ImportFrom)
    and (node.module or "").startswith("hydronets")
    for alias in node.names
})


@pytest.mark.parametrize("short", TRACED["MODULES"])
def test_traced_module_imports(short):
    importlib.import_module(f"hydronets.{short}")


@pytest.mark.parametrize("short, name", TRACED["FUNCTIONS"])
def test_traced_function_resolves(short, name):
    assert callable(getattr(importlib.import_module(f"hydronets.{short}"), name))


@pytest.mark.parametrize("short, cls, meth", TRACED["METHODS"])
def test_traced_method_resolves(short, cls, meth):
    assert callable(vars(getattr(importlib.import_module(f"hydronets.{short}"), cls))[meth])


@pytest.mark.parametrize("short", ["training", "metrics"])
def test_forward_batch_is_imported_where_the_benchmark_reads_it(short):
    model = importlib.import_module("hydronets.model")
    assert importlib.import_module(f"hydronets.{short}").forward_batch is model.forward_batch


def test_the_setup_imports_are_read():
    assert ("hydronets.training", "TrainConfig") in SETUP_IMPORTS


@pytest.mark.parametrize("module, name", SETUP_IMPORTS)
def test_setup_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
