"""The package namespace: every public name is imported from its own module."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys
import fdia_lab
print(json.dumps({
    "modules": sorted(n for n in sys.modules if n.startswith("fdia_lab.")),
    "names": sorted(n for n in vars(fdia_lab) if not n.startswith("_")),
    "version": fdia_lab.__version__,
}))
"""


def test_importing_the_package_loads_no_module_and_binds_only_the_version():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = json.loads(proc.stdout)
    assert seen["modules"] == []
    assert seen["names"] == []
    assert isinstance(seen["version"], str) and seen["version"]
