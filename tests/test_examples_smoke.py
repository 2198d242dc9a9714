"""Smoke-run every example script as a subprocess.

Guards the examples against API drift; each asserts its own invariants
internally and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES.parent / "src"

EXAMPLE_SCRIPTS = sorted(p.name for p in EXAMPLES.glob("*.py"))


def _env():
    """os.environ with the repo's ``src`` prepended to PYTHONPATH (the
    subprocess does not inherit the test runner's import path)."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
    )
    return env


@pytest.mark.parametrize("script", EXAMPLE_SCRIPTS)
def test_example_runs_clean(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=tmp_path,  # examples must not depend on the repo cwd
        env=_env(),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()  # every example narrates its results


def test_quickstart_output_contents(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True, text=True, timeout=600, cwd=tmp_path,
        env=_env(),
    )
    out = proc.stdout
    assert "relative residual" in out
    assert "simulated time" in out
    # the residual the example prints must be tiny
    import re

    m = re.search(r"relative residual.*?:\s*([0-9.e+-]+)", out)
    assert m and float(m.group(1)) < 1e-10


def test_all_examples_present_and_documented():
    scripts = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert len(scripts) >= 6
    for p in EXAMPLES.glob("*.py"):
        head = p.read_text().lstrip()
        assert head.startswith('"""'), f"{p.name} lacks a module docstring"
        assert "Usage::" in head or "Usage" in head, p.name
