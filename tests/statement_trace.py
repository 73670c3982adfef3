"""Statement trace of the package: every statement below module level runs.

A pytest plugin with no dependency beyond the standard library.  It
records the lines of ``src/curvedkepler`` that execute during the test
session (``sys.settrace`` and ``threading.settrace``), lists with ``ast``
every statement that is not directly in a module's body and never ran,
and fails the session if one of them is missing from ``ALLOWED``.  An
allowed entry that names no unexecuted statement fails it too, so the
list cannot go stale.  Run the whole suite with it::

    PYTHONPATH=src:tests python -m pytest -q -p statement_trace

A statement counts as run when any line of its own span executed, so a
statement sharing a line with the header above it (``if x: return y``)
runs with that header.  Docstrings, bare constants and ``global`` or
``nonlocal`` compile to no code and are not listed.  Code that the
package compiles from text (the integrator's kernels and the sin_k,
cos_k evaluators) has no file and is not traced; its paths are the
subject of the integrator's own tests.  Processes started by the tests
are not traced either.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "curvedkepler"

#: (module, first line of the statement's text) -> why no test runs it
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "runs only as `python -m curvedkepler.cli`, which tests start in subprocesses",
}

_root = str(PACKAGE) + "/"
_executed: set[tuple[str, int]] = set()


def _local(frame, event, arg):
    if event == "line":
        _executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_root):
        _executed.add((frame.f_code.co_filename, frame.f_lineno))
        return _local
    return None


def pytest_configure(config):
    if "curvedkepler" in sys.modules:
        raise pytest.UsageError("curvedkepler was imported before the statement trace started")
    sys.settrace(_global)
    threading.settrace(_global)


def _no_code(node: ast.stmt) -> bool:
    return isinstance(node, (ast.Global, ast.Nonlocal)) or (
        isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    )


def _nested(tree: ast.Module):
    """Every statement below module level that compiles to code."""
    for top in tree.body:
        for node in ast.walk(top):
            if node is not top and isinstance(node, ast.stmt) and not _no_code(node):
                yield node


def _unexecuted() -> list[tuple[str, int, str]]:
    """(module, line, first line of text) of each nested statement that never ran."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = {line for name, line in _executed if name == str(path)}
        for node in _nested(ast.parse(source)):
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            if lines.isdisjoint(range(first, node.end_lineno + 1)):
                text = ast.get_source_segment(source, node).splitlines()[0].strip()
                out.append((path.name, node.lineno, text))
    return sorted(out)


def _problems() -> list[str]:
    """Unexecuted statements that are not allowed, and allowed ones that ran."""
    loaded = sys.modules.get("curvedkepler")
    if loaded is None or Path(loaded.__file__).resolve().parent != PACKAGE:
        return [f"the tests did not import curvedkepler from {PACKAGE}"]
    missed = _unexecuted()
    listed = {(module, text) for module, _, text in missed}
    problems = [f"{module}:{line}: {text}" for module, line, text in missed if (module, text) not in ALLOWED]
    stale = [f"{module}: allowed, but ran or is gone: {text}" for module, text in ALLOWED.keys() - listed]
    return problems + stale


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    session.config._statement_trace = problems = _problems()
    if problems and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    problems = getattr(config, "_statement_trace", None)
    if problems is None:
        return
    terminalreporter.section("statement trace")
    if problems:
        terminalreporter.line(f"{len(problems)} problem(s) in src/curvedkepler:")
        for line in problems:
            terminalreporter.line("  " + line)
    else:
        terminalreporter.line(f"every statement of src/curvedkepler ran, {len(ALLOWED)} allowed")
