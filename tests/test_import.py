"""What importing the package costs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import curvedkepler


def _run(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = str(Path(curvedkepler.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)


def test_import_loads_no_scipy():
    # scipy.integrate alone takes most of a cold start and about 50 MiB;
    # nothing in the package needs it
    code = "import sys, curvedkepler; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = _run(code)
    assert out.stdout.strip() == "[]", out.stdout


def test_import_compiles_no_kernel_and_integrating_compiles_them_once():
    # compiling the DOP853 kernels costs milliseconds: it waits for the
    # first integration, and a second one reuses them
    code = (
        "import curvedkepler as ck; from curvedkepler.dop853 import _kernels\n"
        "print(_kernels.cache_info().currsize)\n"
        "for _ in range(2): ck.integrate(ck.PhaseState(1, 0, 0, 1), ck.KeplerParams(0, 1), 1.0)\n"
        "print(_kernels.cache_info().currsize, _kernels.cache_info().misses)"
    )
    out = _run(code)
    assert out.stdout.split("\n")[:2] == ["0", "1 1"], out.stdout


def test_the_integrator_imports_no_physics():
    # dop853 takes its flows as data: it may read the chart and the trig
    # kernel, never the modules that know the Kepler problem
    tree = ast.parse(Path(curvedkepler.__file__).with_name("dop853.py").read_text(encoding="utf-8"))
    # every dotted part of a module or name imported: ``from .dynamics import x``,
    # ``from . import dynamics`` and ``import curvedkepler.dynamics`` all name it
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((getattr(node, "module", None) or "").split("."))
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert imported & {"dynamics", "orbit", "conics", "effective_potential", "cli", "curvedkepler"} == set()
    assert imported >= {"errors", "geometry", "ktrig"}
