"""Acceptance suite: one test per criterion, each printing its pass/fail
line with timing and detail."""
import ast
import os
import subprocess
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
