"""Acceptance suite: one test per criterion, each printing its pass/fail
line with timing and detail."""
import ast
import os
import subprocess
import symtable
import sys
from pathlib import Path

import primindex
from primindex import acceptance


def _check(capsys, result):
    with capsys.disabled():
        print(result.line(), flush=True)
    assert result.passed, result.line()


def test_criterion_1_power_law(capsys):
    _check(capsys, acceptance.criterion_power_law())


def test_criterion_2_upper_bound_chain(capsys):
    _check(capsys, acceptance.criterion_upper_bound_chain())


def test_criterion_3_oracle_equivalence(capsys):
    _check(capsys, acceptance.criterion_oracle_equivalence())


def test_criterion_4_whitehead_soundness(capsys):
    _check(capsys, acceptance.criterion_whitehead_soundness())


def test_criterion_5_blocker_verification(capsys):
    _check(capsys, acceptance.criterion_blockers())


def test_criterion_6_witness_words(capsys):
    _check(capsys, acceptance.criterion_witness_words())


def test_criterion_7_walk_statistics(capsys):
    _check(capsys, acceptance.criterion_walk_statistics())


def test_criterion_8_appendix_desk_check(capsys):
    _check(capsys, acceptance.criterion_appendix_desk_check())


def test_selftest_fast_passes_under_python_O():
    # the criteria must not lean on assert statements, which -O strips
    src = str(Path(primindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "primindex.cli", "selftest", "--fast"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    # python -O strips assert, so invariants must raise real errors; a raised
    # AssertionError is the same shortcut under another name
    package = Path(primindex.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert not found, found


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{line} {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    ]


def _names_used(path: Path) -> set[str]:
    """Identifiers a module reads, imports or spells as a whole string."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_no_unreferenced_functions():
    # a library function or method no code, test, script or benchmark
    # names is dead; strings count, since perfbench patches functions by name
    root = Path(__file__).resolve().parent.parent
    library = sorted((root / "src/primindex").glob("*.py"))
    used = set().union(
        *(
            _names_used(path)
            for folder in ("src/primindex", "tests", "scripts", "perfbench")
            for path in sorted((root / folder).glob("*.py"))
        )
    )
    found = [
        f"{path.relative_to(root)}:{node.lineno} {node.name}"
        for path in library
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert not found, found


def test_no_unused_imports():
    # an import nothing reads is dead code; names re-exported on purpose are
    # listed in __all__ or marked "# noqa: F401" on the import line
    root = Path(__file__).resolve().parent.parent
    found = [
        f"{path.relative_to(root)}:{entry}"
        for folder in ("src/primindex", "tests", "scripts")
        for path in sorted((root / folder).glob("*.py"))
        for entry in _unused_imports(path)
    ]
    assert not found, found


def test_noqa_reexports_are_patched_by_the_tracer():
    # an import kept only under "# noqa: F401" must be a name that
    # perfbench/tracer.py's SPECS patches on that same module; once the
    # tracer stops needing it, the re-export is dead
    root = Path(__file__).resolve().parent.parent
    tracer = ast.parse((root / "perfbench/tracer.py").read_text())
    specs = next(
        node.value for node in tracer.body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPECS" for t in node.targets
        )
    )
    patched = {(spec.elts[0].id, spec.elts[1].value) for spec in specs.elts}
    found = []
    for path in sorted((root / "src/primindex").glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines), str(path))):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.lineno - 1]:
                found += [
                    f"{path.name}:{node.lineno} {name}"
                    for name in (alias.asname or alias.name for alias in node.names)
                    if (path.stem, name) not in patched
                ]
    assert not found, found


def _library_imports(node: ast.AST, modules: set[str]):
    """(bound name, library module, attribute or None for the module itself)
    for every import from the package under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom):
            if sub.level == 1:
                target = sub.module or "__init__"
            elif sub.level == 0 and (sub.module or "").split(".")[0] == "primindex":
                target = sub.module.partition(".")[2] or "__init__"
            else:
                continue
            for alias in sub.names:
                bound = alias.asname or alias.name
                if target == "__init__" and alias.name in modules:
                    yield bound, alias.name, None
                else:
                    yield bound, target, alias.name
        elif isinstance(sub, ast.Import):
            for alias in sub.names:
                if alias.name.split(".")[0] == "primindex":
                    target = alias.name.partition(".")[2] or "__init__"
                    yield alias.asname or "primindex", target, None


def _outside_reads(path: Path, modules: set[str]) -> set[tuple[str, str]]:
    """(module, name) pairs a script or benchmark file reads from the
    library: imported names, module attributes, and names spelled as strings
    beside a module (getattr(m, "f"), or a (m, "f", ...) patch spec)."""
    tree = ast.parse(path.read_text(), str(path))
    aliases: dict[str, str] = {}
    reads = set()
    for bound, module, attr in _library_imports(tree, modules):
        if attr is None:
            aliases[bound] = module
        else:
            reads.add((module, attr))

    def module_of(node: ast.AST) -> str | None:
        # m, or x.m as in workloads.index, where m names a library module
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        return aliases.get(name, name if name in modules else None)

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and module_of(node.value):
            reads.add((module_of(node.value), node.attr))
        elif isinstance(node, (ast.Tuple, ast.Call)):
            items = node.elts if isinstance(node, ast.Tuple) else node.args
            strings = {
                e.value for e in items
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
            for module in {module_of(e) for e in items} - {None}:
                reads |= {(module, name) for name in strings}
    return reads


def _global_reads(table: symtable.SymbolTable) -> set[str]:
    """Module-level names read in a scope and the scopes nested in it."""
    names = {s.get_name() for s in table.get_symbols() if s.is_global() and s.is_referenced()}
    for child in table.get_children():
        names |= _global_reads(child)
    return names


def _unreachable_definitions(root: Path) -> list[str]:
    """Top-level library functions and classes that nothing the system runs
    reaches.  The roots are the console script, the acceptance criteria,
    __all__, the code each module runs on import, and what scripts/ and
    perfbench/ read.  Inside the library a name counts as read only where
    it resolves to the module's global scope, so a local variable does not
    keep a function of the same name alive.  Methods are left to
    test_no_unreferenced_functions."""
    paths = {p.stem: p for p in sorted((root / "src/primindex").glob("*.py"))}
    modules = set(paths)
    trees = {m: ast.parse(p.read_text(), str(p)) for m, p in paths.items()}
    tables = {m: symtable.symtable(p.read_text(), str(p), "exec") for m, p in paths.items()}
    defs = {
        m: {
            node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        for m, tree in trees.items()
    }
    imported = {
        m: {
            bound: (module, attr)
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for bound, module, attr in _library_imports(node, modules)
        }
        for m, tree in trees.items()
    }

    def resolve(module: str, name: str) -> tuple[str, str] | None:
        if name in defs[module]:
            return module, name
        module, attr = imported[module].get(name, (None, None))
        return resolve(module, attr) if attr else None

    reads = {}
    for m, table in tables.items():
        scopes = {child.get_name(): child for child in table.get_children()}
        for name, node in defs[m].items():
            reads[m, name] = {(m, n) for n in _global_reads(scopes[name])} | {
                (module, attr) for _, module, attr in _library_imports(node, modules) if attr
            }
    exported = next(
        ast.literal_eval(node.value) for node in trees["__init__"].body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        )
    )
    roots = {("cli", "main")}  # the console script
    roots |= {("acceptance", name) for name in defs["acceptance"]}
    roots |= {("__init__", name) for name in exported}
    for m, table in tables.items():  # module-level code, run on import
        roots |= {(m, s.get_name()) for s in table.get_symbols() if s.is_referenced()}
    for folder in ("scripts", "perfbench"):
        for path in sorted((root / folder).glob("*.py")):
            roots |= _outside_reads(path, modules)
    reached: set[tuple[str, str]] = set()
    stack = list(roots)
    while stack:
        key = resolve(*stack.pop())
        if key and key not in reached:
            reached.add(key)
            stack.extend(reads[key])
    return [
        f"src/primindex/{m}.py:{node.lineno} {name}"
        for m in sorted(defs) for name, node in defs[m].items()
        if (m, name) not in reached
    ]


def test_no_library_definition_reached_only_from_tests():
    # a library function or class that only tests reach is test code in the
    # wrong place: move it into the tests, or delete it with its self-tests
    found = _unreachable_definitions(Path(__file__).resolve().parent.parent)
    assert not found, found
