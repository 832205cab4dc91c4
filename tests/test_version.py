"""The package carries one version string: ``setup.py`` reads it from
``repro/__init__.py`` instead of keeping its own copy."""

import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_setup_py_version_is_the_package_version():
    proc = subprocess.run(
        [sys.executable, "setup.py", "--version"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == repro.__version__
