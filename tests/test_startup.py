"""Each subcommand loads only the layer it runs: no command loads mpmath
(the spectral layer computes in decimal), the numeric commands start
without the exact stack, the integral commands without the microlocal
and jet layers, no command loads dataclasses or inspect, and the DSL is
loaded exactly when a document is read.  The Kunneth checks complete only
the products' own ideals."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dsl_corpus import TRICOMI, WAVE

import spencerlab
import spencerlab.groebner as groebner
from spencerlab.dsl import parse_pde_dsl
from spencerlab.microlocal import factorization_check

SRC = str(Path(spencerlab.__file__).resolve().parent.parent)

# Runs one CLI invocation in a fresh interpreter, then prints whether mpmath
# was imported on the way and which spencerlab modules were.  BLOCKED first
# makes every import of mpmath fail.
BLOCKED = "import sys\nsys.modules['mpmath'] = None\n"
PROBE = (
    "import sys\n"
    "from spencerlab.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "sys.stderr.write('mpmath loaded: %s\\n' % (sys.modules.get('mpmath') is not None))\n"
    "sys.stderr.write('stdlib loaded: %s\\n' % ' '.join(\n"
    "    m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    "sys.stderr.write('spencerlab modules: %s\\n' % ' '.join(sorted(\n"
    "    m.partition('.')[2] for m in sys.modules if m.startswith('spencerlab.'))))\n"
    "sys.exit(code)\n"
)

# The exact stack that no numeric command runs, and the part of it that no
# jet command (symbol spaces, Spencer cohomology) runs.
EXACT_STACK = {"microlocal", "groebner", "spencer", "symbols", "chern", "index", "dsl",
               "linalg"}
NOT_JET = {"microlocal", "groebner", "chern", "index"}
# what the integral commands (ch.Td on a model ring) do not run
NOT_INTEGRAL = {"microlocal", "groebner", "spencer", "symbols"}

# (argv, spencerlab modules the command must not load)
SYMBOLIC = [
    (["symbol", "wave.pde"], NOT_JET),
    (["prolong", "wave.pde"], NOT_JET),
    (["spencer", "wave.pde", "--order", "3"], NOT_JET),
    (["involutivity", "wave.pde", "--bound", "1"], NOT_JET),
    (["finite-type", "wave.pde", "--bound", "1"], NOT_JET),
    (["poincare", "wave.pde", "--order", "4"], NOT_JET),
    (["classify", "tricomi.pde", "--direction", "0,1", "--grid", "1"], set()),
    (["classify", "wave.pde", "--mode", "elliptic"], set()),
    (["classify", "wave.pde", "--mode", "hyperbolic", "--direction", "1,0"], set()),
    (["restrict", "wave.pde", "--subspace", "1,0"], set()),
    (["kunneth", "wave.pde"], set()),
    (["index", "--model", "P1"], NOT_INTEGRAL),
    (["grr", "--model", "P1", "--twist", "2"], NOT_INTEGRAL),
    (["boundary-index", "--interior", "0:1", "--boundary", "0:2"], NOT_INTEGRAL),
    (["crosscheck", "--length", "6.28"], EXACT_STACK),
]


def _run(argv, cwd, probe=PROBE):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", probe, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup")
    (path / "wave.pde").write_text(WAVE)
    (path / "tricomi.pde").write_text(TRICOMI)
    (path / "both.pde").write_text(WAVE + "spectrum circ { kind circle; length 2; }\n")
    return path


def _check_layers(out, argv, absent):
    """The command succeeded, loaded the DSL exactly when it read a
    document, loaded neither dataclasses nor inspect, and loaded none of
    the modules in absent."""
    assert out.returncode == 0, out.stderr
    assert "stdlib loaded: \n" in out.stderr, out.stderr
    line = next(x for x in out.stderr.splitlines() if x.startswith("spencerlab modules:"))
    loaded = set(line.split(":", 1)[1].split())
    assert ("dsl" in loaded) == any(a.endswith(".pde") for a in argv), loaded
    assert not loaded & absent, loaded & absent


@pytest.mark.parametrize("argv, absent", SYMBOLIC, ids=[
    " ".join(a for a in argv if not a.endswith(".pde")) for argv, _ in SYMBOLIC])
def test_symbolic_command_does_not_load_mpmath(workdir, argv, absent):
    out = _run(argv, workdir)
    _check_layers(out, argv, absent)
    assert "mpmath loaded: False" in out.stderr


@pytest.mark.parametrize("argv, absent", [
    (["det", "both.pde", "--spectrum", "circ"], {"microlocal", "groebner"}),
    (["symbol", "both.pde"], NOT_JET),
    (["det", "--model", "circle", "--length", "2"], EXACT_STACK),
    (["det", "--model", "torus", "--tau", "0,1"], EXACT_STACK),
    (["torsion", "--model", "circle", "--length", "2"], EXACT_STACK),
    (["bcov", "--tau", "0,1"], EXACT_STACK),
    (["quillen", "--l2", "1", "--dets", "1:2"], EXACT_STACK),
], ids=["det", "symbol-on-spectrum-document", "det-circle", "det-torus", "torsion",
        "bcov", "quillen"])
def test_numeric_command_or_spectrum_block_loads_mpmath(workdir, argv, absent):
    """The numeric commands, and a jet command on a document with a spectrum
    block, load the spectral layer and do not load mpmath."""
    out = _run(argv, workdir)
    _check_layers(out, argv, absent)
    assert "mpmath loaded: False" in out.stderr


@pytest.mark.parametrize("argv, code, message", [
    (["det", "--model", "circle", "--length", "1e-200"], 4, "numeric error"),
    (["det", "--model", "torus", "--tau=0.2,0.0001"], 3, "more than 1000000 candidate points"),
], ids=["underflow", "lattice-budget"])
def test_spectral_error_paths_run_without_mpmath(workdir, argv, code, message):
    """With every import of mpmath made to fail, a det' below the double
    range still exits 4 and a torus past LATTICE_BUDGET still exits 3, each
    with its diagnostic and no traceback."""
    out = _run(argv, workdir, BLOCKED + PROBE)
    assert out.returncode == code, out.stderr
    assert message in out.stderr and "Traceback" not in out.stderr, out.stderr
    assert "mpmath loaded: False" in out.stderr


def test_kunneth_checks_complete_only_the_products(monkeypatch):
    """factorization_check(wave, 7) completes the characteristic ideals of
    the 1..7-fold products, and none of the 21 joins: a join's basis is the
    union of its factors' bases."""
    calls = []
    complete = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda gens: calls.append(1) or complete(gens))
    wave = next(iter(parse_pde_dsl(WAVE).systems.values()))
    report = factorization_check(wave, 7)
    assert report["all_passed"] and len(report["partition_checks"]) == 21
    assert len(calls) == 7
