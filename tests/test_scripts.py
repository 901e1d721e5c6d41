"""Smoke tests: each script in scripts/ runs in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=120)


def test_scripts_found():
    assert [s.name for s in SCRIPTS] == [
        "classify_tricomi.py", "index_table.py", "run_torsion_models.py"]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.name)
def test_script_exits_zero(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and "Traceback" not in proc.stderr


def test_classify_tricomi_strata():
    # the script calls classify_mixed directly: 10 x 10 base points, 8 covectors
    out = _run(ROOT / "scripts" / "classify_tricomi.py").stdout.splitlines()
    assert out[:6] == [
        "samples: 800",
        "  characteristic  40",
        "  degenerate      60",
        "  elliptic        320",
        "  hyperbolic      380",
        "y>0: {'elliptic': 320}",
    ]
