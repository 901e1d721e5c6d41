"""The exact subcommands start without the numeric layer: mpmath is loaded
only by the commands that evaluate zeta functions or torsion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dsl_corpus import TRICOMI, WAVE

import spencerlab

SRC = str(Path(spencerlab.__file__).resolve().parent.parent)

# Runs one CLI invocation in a fresh interpreter, then prints whether mpmath
# was imported on the way.
PROBE = (
    "import sys\n"
    "from spencerlab.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "sys.stderr.write('mpmath loaded: %s\\n' % ('mpmath' in sys.modules))\n"
    "sys.exit(code)\n"
)

SYMBOLIC = [
    ["symbol", "wave.pde"],
    ["prolong", "wave.pde"],
    ["spencer", "wave.pde", "--order", "3"],
    ["involutivity", "wave.pde", "--bound", "1"],
    ["finite-type", "wave.pde", "--bound", "1"],
    ["poincare", "wave.pde", "--order", "4"],
    ["classify", "tricomi.pde", "--direction", "0,1", "--grid", "1"],
    ["classify", "wave.pde", "--mode", "elliptic"],
    ["classify", "wave.pde", "--mode", "hyperbolic", "--direction", "1,0"],
    ["restrict", "wave.pde", "--subspace", "1,0"],
    ["kunneth", "wave.pde"],
    ["index", "--model", "P1"],
    ["grr", "--model", "P1", "--twist", "2"],
    ["boundary-index", "--interior", "0:1", "--boundary", "0:2"],
]


def _run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup")
    (path / "wave.pde").write_text(WAVE)
    (path / "tricomi.pde").write_text(TRICOMI)
    (path / "both.pde").write_text(WAVE + "spectrum circ { kind circle; length 2; }\n")
    return path


@pytest.mark.parametrize("argv", SYMBOLIC, ids=[
    " ".join(a for a in argv if not a.endswith(".pde")) for argv in SYMBOLIC])
def test_symbolic_command_does_not_load_mpmath(workdir, argv):
    out = _run(argv, workdir)
    assert out.returncode == 0, out.stderr
    assert "mpmath loaded: False" in out.stderr


@pytest.mark.parametrize("argv", [
    ["det", "both.pde", "--spectrum", "circ"],
    ["symbol", "both.pde"],
], ids=["det", "symbol-on-spectrum-document"])
def test_numeric_command_or_spectrum_block_loads_mpmath(workdir, argv):
    out = _run(argv, workdir)
    assert out.returncode == 0, out.stderr
    assert "mpmath loaded: True" in out.stderr
