"""argv fuzz over the CLI, in process: argument soup and mutations of the
README invocations must end in a documented exit code (0, 2, 3 or 4),
never in an exception, and every exit-0 report must validate against the
report schema."""

import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsl_corpus import LAPLACE, TRICOMI, WAVE

from spencerlab.cli import COMMANDS, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "report-schema.json").read_text(encoding="utf-8"))

GRAD = "system grad { vars x, y; unknowns u; eq: D[x](u) = 0; eq: D[y](u) = 0; }\n"
CONES = ("cone ahead { generators (1, 1), (1, -1); kind closed; }\n"
         "cone behind { generators (-1, 1), (-1, -1); kind closed; }\n")
DOCUMENTS = {
    "laplace.pde": LAPLACE,
    "grad.pde": GRAD,
    "tricomi.pde": TRICOMI + CONES,
    "wave.pde": WAVE + CONES,
    "cr.pde": "system cr { vars x, y; unknowns u; eq: 1/2*D[x](u) + 1/2*i*D[y](u) = 0; }\n",
    "spec.pde": ("spectrum circ { kind circle; length 6.283185307179586; }\n"
                 "spectrum tor { kind torus; tau 0.25, 1.25; }\n"
                 "spectrum listy { kind explicit; values 1, 2; multiplicities 1, 2; }\n"),
    "both.pde": LAPLACE + GRAD,
    "bad.pde": "system s { vars x; unknowns u; eq: u*u = 0; }\n",
}
FILES = [*DOCUMENTS, "missing.pde"]

# Every fuzzed value comes from this list or from an option's choices, so
# --count, --order, --copies, --bound, --grid, --n, --twist and --chi only
# get small values and every case runs well under a second.  The extreme
# values give --tau, --scale and --length thin, huge and far-off lattices,
# which the lattice budget refuses before enumerating.
VALUES = [
    "0", "1", "2", "3", "-1", "a", "", "1,0", "0,1", "1,-1/2", "1,0;0,1", "0:1", "1:2",
    "1e-300", "1e300", "1e20,1",
    "0:1,1:2", "P1", "P2", "circle", "torus", "wave", "laplace", "grad", "lower", "ahead",
    "ahead,behind", "circ", "tor", "listy", "labels", "elliptic", "hyperbolic",
    "closed_form", "euler_maclaurin", "mellin_theta", "product_half", "de-rham", "twist",
    "json", "text",
]


SUBPARSERS = build_parser()._subparsers._group_actions[0].choices
# Each subcommand's options, except --help; the
# options (of any subcommand) that take a value; the allowed values of the
# options that have choices.
OPTIONS = {name: sorted(opt for action in p._actions for opt in action.option_strings
                        if opt.startswith("--") and opt != "--help")
           for name, p in SUBPARSERS.items()}
TAKES_VALUE = {opt for p in SUBPARSERS.values() for action in p._actions if action.nargs != 0
               for opt in action.option_strings}
CHOICES = {opt: sorted(action.choices) for p in SUBPARSERS.values() for action in p._actions
           if action.choices for opt in action.option_strings}
TOKENS = sorted({*COMMANDS, *VALUES, *FILES})


def _readme_invocations():
    """The `spencerlab ...` lines of the README, each split into the
    subcommand and units: an option with its value, a flag or a file."""
    runs = []
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if not line.startswith("spencerlab "):
            continue
        command, *tokens = shlex.split(line.partition("#")[0])[1:]
        units = []
        while tokens:
            token = tokens.pop(0)
            units.append((token, tokens.pop(0)) if token in TAKES_VALUE else (token,))
        runs.append((command, units))
    return runs


README = _readme_invocations()


def _value(option):
    """A value for the option: often one of its choices, if it has any."""
    anything = st.sampled_from(VALUES + FILES)
    return st.one_of(st.sampled_from(CHOICES[option]), anything) if option in CHOICES else anything


def _unit(command):
    """A new argument unit: mostly one of the subcommand's options (with a
    value, unless it is a flag), sometimes a bare option of any subcommand,
    a subcommand name, a value or a file."""
    option = st.sampled_from(OPTIONS[command]).flatmap(
        lambda opt: st.tuples(st.just(opt), _value(opt)) if opt in TAKES_VALUE
        else st.just((opt,)))
    bare = st.sampled_from(sorted({*TOKENS, *TAKES_VALUE}))
    return st.one_of(option, option, option, bare.map(lambda t: (t,)))


@st.composite
def readme_mutation(draw):
    """One README invocation with each unit kept, dropped, duplicated or
    given another value, up to two new units inserted, and now and then
    another subcommand."""
    command, units = draw(st.sampled_from(README))
    if draw(st.integers(0, 7)) == 0:
        command = draw(st.sampled_from(sorted(COMMANDS)))
    mutated = []
    for unit in units:
        kind = draw(st.sampled_from(("keep", "keep", "drop", "duplicate", "value")))
        if kind == "value" and len(unit) == 2:
            unit = (unit[0], draw(_value(unit[0])))
        mutated += [] if kind == "drop" else [unit] * (2 if kind == "duplicate" else 1)
    for unit in draw(st.lists(_unit(command), max_size=2)):
        mutated.insert(draw(st.integers(0, len(mutated))), unit)
    return [command, *(t for unit in mutated for t in unit)]


@st.composite
def soup(draw):
    """A subcommand, maybe a file, then up to five random units."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    units = draw(st.lists(_unit(command), max_size=5))
    files = draw(st.lists(st.sampled_from(FILES), max_size=1))
    return [command, *files, *(t for unit in units for t in unit)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, text in DOCUMENTS.items():
        (path / name).write_text(text)
    return path


def _run(argv):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def test_readme_invokes_every_subcommand():
    assert {command for command, _ in README} == set(COMMANDS)


@settings(max_examples=400, deadline=None)
@given(argv=st.one_of(readme_mutation(), soup()))
def test_cli_argv_fuzz(workdir, argv):
    argv = [str(workdir / a) if a.endswith(".pde") else a for a in argv]
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        if build_parser().parse_args(argv).format == "json":
            jsonschema.validate(json.loads(out), SCHEMA)
        else:
            assert out.strip()
