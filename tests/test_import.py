"""What importing the package costs."""

import os
import subprocess
import sys
from pathlib import Path

import curvedkepler


def test_import_loads_no_scipy():
    # scipy.integrate alone takes most of a cold start and about 50 MiB;
    # nothing in the package needs it
    src = str(Path(curvedkepler.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, curvedkepler; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout
