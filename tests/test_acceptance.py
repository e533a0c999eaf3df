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
