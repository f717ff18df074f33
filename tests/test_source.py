"""Checks on the package source itself."""

import ast
import importlib
import sys
from pathlib import Path

import hgpbarrier
from hgpbarrier import verify


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


def test_readme_claims_table_matches_the_claim_list():
    # the README's claims table is the one hand-kept copy of the claim list;
    # it is read as text, first column of each row, in order
    readme = Path(__file__).resolve().parents[1] / "README.md"
    _, table = readme.read_text().split("\n| claim | what is checked |\n|---|---|\n", 1)
    names = []
    for row in table.splitlines():
        if not row.startswith("|"):
            break
        names.append(row.split("`")[1])
    assert names == [*verify.CLAIMS, "all"]


def test_all_lists_exactly_the_public_definitions():
    # every name in a module's __all__ must exist, and every public function
    # or class the module defines must be listed, so a new helper is either
    # exported or named with a leading underscore
    unresolved, unlisted = [], []
    for path in sorted(Path(hgpbarrier.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"hgpbarrier.{path.stem}")
        if path.stem == "__init__" or not hasattr(module, "__all__"):
            continue
        unresolved += [f"{path.stem}.{name}" for name in module.__all__ if not hasattr(module, name)]
        tree = ast.parse(path.read_text(), filename=str(path))
        unlisted += [
            f"{path.stem}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in module.__all__
        ]
    assert unresolved == [] and unlisted == []


def _private_definitions(stmt) -> list[str]:
    """Private, non-dunder names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _referenced_names(node) -> set[str]:
    """Names read anywhere under node, as bare names or as attributes."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_private_definition_is_used():
    # a helper that a merge left behind is referenced nowhere in the package
    # outside its own definition (a recursive call inside it does not count)
    statements = [
        (path.name, stmt)
        for path in sorted(Path(hgpbarrier.__file__).parent.glob("*.py"))
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]
    uses = [_referenced_names(stmt) for _, stmt in statements]
    unused = [
        f"{module}:{name}"
        for i, (module, stmt) in enumerate(statements)
        for name in _private_definitions(stmt)
        if not any(name in names for j, names in enumerate(uses) if j != i)
    ]
    assert unused == []
