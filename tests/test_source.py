"""Checks on the package source itself."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import hgpbarrier
from hgpbarrier import barrier, verify


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


def test_no_package_module_calls_object_setattr():
    # a record's __init__ stores its fields with self._store(locals()), the
    # one store path: _Record looks object's store up once per class, and
    # VerifyReport's class-level ``__setattr__ = object.__setattr__`` is an
    # assignment. No other module reaches past a record's frozen __setattr__
    sources = sorted(Path(hgpbarrier.__file__).parent.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    calls = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    ]
    assert calls == []
    reads = [
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
    ]
    assert reads == ["f2core.py", "verify.py"]


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


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    # a fresh interpreter imports the package and its CLI without dataclasses,
    # which compiles every record's methods at import and brings inspect, or
    # typing: both cost every process its start-up time
    src = str(Path(hgpbarrier.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import hgpbarrier, hgpbarrier.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


REPO = Path(__file__).resolve().parents[1]


def _trace_targets() -> list[tuple]:
    """perfbench's (module, attribute, group, keep span) trace targets; the
    file is read, not imported, so the benchmark harness stays out of the
    test run."""
    tracing = REPO / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(), filename=str(tracing))
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    return ast.literal_eval(targets)


def test_perfbench_trace_targets_resolve():
    # a traced name the package no longer has is only reported as "not
    # traced" by a benchmark run, so check every one here
    missing = []
    for mod_name, attr, _, _ in _trace_targets():
        obj = importlib.import_module(f"hgpbarrier.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{mod_name}.{attr}")
    assert missing == []


def test_readme_claims_table_matches_the_claim_list():
    # the README's claims table is the one hand-kept copy of the claim list;
    # it is read as text, first column of each row, in order
    _, table = (REPO / "README.md").read_text().split("\n| claim | what is checked |\n|---|---|\n", 1)
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


def _definitions(stmt) -> list[str]:
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _private_definitions(stmt) -> list[str]:
    """Private, non-dunder names a top-level statement defines."""
    return [n for n in _definitions(stmt) if n.startswith("_") and not n.startswith("__")]


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


def test_every_public_name_has_a_user():
    # a name in a module's __all__ stays only while something uses it: another
    # package module reads it, its own module reads it outside its definition,
    # the acceptance tests use it, perfbench traces it, or the README names it
    # in backticks. A name only unit tests use is documented in the README
    # with what it is for; re-exports in __init__ are imports, not uses
    modules = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(Path(hgpbarrier.__file__).parent.glob("*.py"))
    }
    acceptance = REPO / "tests" / "test_acceptance.py"
    used = _referenced_names(ast.parse(acceptance.read_text(), filename=str(acceptance)))
    used |= {attr.split(".")[0] for _, attr, _, _ in _trace_targets()}
    used |= {
        word
        for span in re.findall(r"```.*?```|`[^`]+`", (REPO / "README.md").read_text(), re.S)
        for word in re.findall(r"\w+", span)
    }
    unused = []
    for stem, tree in modules.items():
        names = getattr(importlib.import_module(f"hgpbarrier.{stem}"), "__all__", ())
        elsewhere = set().union(*(_referenced_names(t) for s, t in modules.items() if s != stem))
        for name in names:
            at_home = any(
                name in _referenced_names(stmt) for stmt in tree.body if name not in _definitions(stmt)
            )
            if not (at_home or name in elsewhere or name in used):
                unused.append(f"{stem}.{name}")
    assert unused == []


def test_syndrome_energies_come_from_the_energy_cache():
    # a SyndromeEnergy builds its check-matrix columns once, on first use;
    # one made afresh per walk or search pays for them again, so the package
    # makes them only through barrier._energy, which keeps one per matrix
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(hgpbarrier.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "SyndromeEnergy" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert found == []
    assert barrier._energy((0b11,), 2) is barrier._energy((0b11,), 2)


def _cache_name(node) -> str | None:
    """The name "lru_cache" or "cache" when node names that functools
    decorator, bare or as an attribute, else None."""
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return name if name in ("lru_cache", "cache") else None


def test_every_cache_is_bounded():
    # a process that serves many requests must not grow without limit, so
    # every cache in the package holds a bounded number of entries: no
    # lru_cache(maxsize=None), and functools.cache only on functions of no
    # arguments, which hold one entry
    found = []
    for path in sorted(Path(hgpbarrier.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Call) and _cache_name(node.func) == "lru_cache":
                sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
                if any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                    found.append(where)
            elif isinstance(node, ast.Call) and _cache_name(node.func) == "cache":
                found.append(where)  # cache(fn) wraps a function of any arguments
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                takes_args = a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg
                if takes_args and any(_cache_name(d) == "cache" for d in node.decorator_list):
                    found.append(where)
    assert found == []


def test_basis_reduction_runs_only_where_the_read_map_is_built():
    # a table read is a lookup in the edge map that MinimaxTable._edge_map
    # derives from the voltages (_voltage_basis, built with the table) once
    # per table; a read that reduces by the basis again pays a Python loop
    # over it per call, so _reduce is referenced only where the voltage
    # basis and that map are built
    found = sorted(
        f"{path.name}:{node.name}"
        for path in sorted(Path(hgpbarrier.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and "_reduce" in _referenced_names(node)
    )
    assert found == ["barrier.py:_edge_map", "barrier.py:_voltage_basis"]


def _bare_names(tree) -> set[str]:
    """Names a module imports by name or reads as bare names. A function's
    parameter shadows the module's name inside the function's body, so
    reading it there does not count."""
    names = set()

    def visit(node, params):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in params:
            names.add(node.id)
        body = ()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            own = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if arg}
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                visit(child, params | own)
        for child in ast.iter_child_nodes(node):
            if child not in body:
                visit(child, params)

    visit(tree, frozenset())
    return names


def test_row_reduction_lives_in_f2core():
    # reduction modulo a row space is f2core.Quotient's job, so the search
    # and the claim checkers read their stabilizer rows, ranks and cosets
    # from a quotient rather than row-reducing again. rref is left to
    # f2core, to codes (rank and kernel) and logicals (free columns), and
    # the package re-exports it with rank
    found = {
        name: sorted(
            path.name
            for path in sorted(Path(hgpbarrier.__file__).parent.glob("*.py"))
            if name in _bare_names(ast.parse(path.read_text(), filename=str(path)))
        )
        for name in ("rref", "rank")
    }
    assert found == {
        "rref": ["__init__.py", "codes.py", "f2core.py", "logicals.py"],
        "rank": ["__init__.py"],
    }


def test_css_matrices_are_read_only_in_hgp():
    # HX and HZ are built on first read from the parents, and hgp.py is the
    # one place that knows which sector each of them checks and which it
    # stabilizes (HgpCode.sector, HgpCode.pauli_rows): other modules ask it.
    # The hgp command alone writes the two matrices out
    found = sorted(
        f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
        for path in sorted(Path(hgpbarrier.__file__).parent.glob("*.py"))
        if path.name != "hgp.py"
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
        if any(isinstance(node, ast.Attribute) and node.attr in ("hx", "hz") for node in ast.walk(stmt))
    )
    assert found == ["cli.cmd_hgp"]


def test_table_internals_are_read_only_in_barrier():
    # a table's voltages, edge map and fibers are barrier's business: the
    # claim checkers read values, stabilizer maxima and walks through the
    # table's public members
    found = sorted(
        path.name
        for path in sorted(Path(hgpbarrier.__file__).parent.glob("*.py"))
        if any(
            isinstance(node, ast.Attribute) and node.attr in ("_voltages", "_edge_map", "_fiber")
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        )
    )
    assert found == ["barrier.py"]


def test_private_imports_between_modules_are_pinned():
    # a private name is a module's own business; each one another package
    # module imports ties the two together, so the set is pinned here and
    # grows only on purpose. deform collapses Paulis through the public
    # compose_canonical and needs no logicals internals; barrier checks
    # quantum_barrier's sector through hgp's one kind check
    found = {
        path.stem: sorted(
            f"{node.module}.{alias.name}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_")
        )
        for path in sorted(Path(hgpbarrier.__file__).parent.glob("*.py"))
    }
    assert {stem: names for stem, names in found.items() if names} == {
        "barrier": ["f2core._Record", "f2core._ones", "hgp._is_z"],
        "codes": ["f2core._Record", "f2core._ones"],
        "cli": ["verify._json_value"],
        "deform": ["f2core._Record"],
        "hgp": ["f2core._Record"],
        "logicals": ["f2core._Record"],
        "verify": ["barrier._pauli_walk", "f2core._Record", "f2core._ones"],
    }
