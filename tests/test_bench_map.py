"""The benchmark's map of the package stays true.

``perfbench/tracing.py`` times the functions its ``LAYERS`` name, and
``perfbench/worker.py`` drives the workloads through ``ghzbell.<name>``
attributes. Both files are read here as source, never run, so a renamed or
deleted function fails this test instead of a benchmark run.

``build_settings`` is kept only because the benchmark still reads it: no
package module may call it again.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import ghzbell
import ghzbell.cli  # noqa: F401  (the worker reads ghzbell.cli.main)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(ghzbell.__file__).resolve().parent


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _layers() -> list:
    (value,) = [
        node.value
        for node in _tree("tracing.py").body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    ]
    return ast.literal_eval(value)


def _dotted(node: ast.Attribute) -> list[str] | None:
    """``["ghzbell", "cli", "main"]`` for ``ghzbell.cli.main``; None off ``ghzbell``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "ghzbell":
        return ["ghzbell", *reversed(parts)]
    return None


@pytest.mark.parametrize(
    "module, attribute", [row[:2] for row in _layers()], ids=[row[2] for row in _layers()]
)
def test_every_traced_layer_resolves(module, attribute):
    owner = importlib.import_module(module)
    if "." in attribute:  # a method, wrapped where its class defines it
        cls_name, method = attribute.split(".")
        assert method in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attribute))


@pytest.mark.parametrize("name", ["worker.py", "tracing.py"])
def test_every_package_name_the_benchmark_reads_exists(name):
    chains = {
        tuple(parts)
        for node in ast.walk(_tree(name))
        if isinstance(node, ast.Attribute) and (parts := _dotted(node))
    }
    assert chains
    for chain in chains:
        value = ghzbell
        for attr in chain[1:]:
            assert hasattr(value, attr), ".".join(chain)
            value = getattr(value, attr)


def test_build_settings_is_a_vestige_no_package_module_calls():
    callers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "build_settings"
    ]
    assert callers == []
    assert "build_settings" not in ghzbell.__all__
    assert ghzbell.build_settings(np.int64(4)) == 4
    assert type(ghzbell.build_settings(np.int64(4))) is int
