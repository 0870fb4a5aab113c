"""numpy is the one runtime dependency outside the standard library."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PROBE = """
import sys
before = set(sys.modules)
import emord, emord.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_import_adds_only_numpy_outside_the_stdlib():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    added = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    packages = {name.partition(".")[0] for name in added}
    assert "emord" in packages
    assert packages - set(sys.stdlib_module_names) - {"emord"} <= {"numpy"}


def test_the_blas_kernel_probe_prints_one_name_and_exits_0():
    probe = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "blas_core.py")],
        capture_output=True,
        text=True,
        check=True,
    )
    assert re.fullmatch(r"OpenBLAS core: \S+\n", probe.stdout), probe.stdout
