"""Checks on the package source itself."""

import ast
import importlib
import sys
from pathlib import Path

import hgpbarrier


def test_no_bare_assert_in_package():
    # python -O strips assert statements, so no check in the package may use one
    sources = sorted(Path(hgpbarrier.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_only_stdlib():
    # the runtime needs nothing outside the standard library; numpy and
    # hypothesis are for tests only
    sources = sorted(Path(hgpbarrier.__file__).parent.glob("*.py"))
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_perfbench_trace_targets_resolve():
    # a traced name the package no longer has is only reported as "not
    # traced" by a benchmark run, so check every one here; the file is read,
    # not imported, so the benchmark harness stays out of the test run
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(), filename=str(tracing))
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    missing = []
    for mod_name, attr, _, _ in ast.literal_eval(targets):
        obj = importlib.import_module(f"hgpbarrier.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
