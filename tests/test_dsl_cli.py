import json
import os
import random
import string
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsl_corpus import LAPLACE, TRICOMI, WAVE, corpus

from spencerlab.cli import COMMANDS, build_parser, dispatch, main
from spencerlab.dsl import parse_pde_dsl, print_document
from spencerlab.errors import ParseError, PreconditionError
from spencerlab.reports import ReportDocument, emit_report

# -- parsing ------------------------------------------------------------------------


def test_laplace_parses():
    doc = parse_pde_dsl(LAPLACE)
    sys_ = doc.systems["laplace"]
    assert sys_.indep_vars == ("x", "y")
    assert sys_.order == 2
    assert len(sys_.equations) == 1


def test_wave_parses():
    doc = parse_pde_dsl(WAVE)
    assert doc.systems["wave"].order == 2


def test_nonlinear_rejected_with_diagnostic():
    bad = "system nl { vars x; unknowns u; eq: u*u = 0; }"
    with pytest.raises(ParseError) as err:
        parse_pde_dsl(bad)
    assert "non-linear" in str(err.value)
    assert err.value.line == 1


def test_jet_product_rejected():
    bad = "system nl { vars x; unknowns u; eq: D[x](u)*D[x](u) = 0; }"
    with pytest.raises(ParseError) as err:
        parse_pde_dsl(bad)
    assert "non-linear" in str(err.value)


def test_unknown_variable_diagnostic():
    bad = "system s { vars x; unknowns u; eq: D[z](u) = 0; }"
    with pytest.raises(ParseError) as err:
        parse_pde_dsl(bad)
    assert "z" in str(err.value)
    assert err.value.expected  # carries an expected set


def test_order_zero_rejected():
    bad = "system s { vars x; unknowns u; eq: u = 0; }"
    with pytest.raises(ParseError) as err:
        parse_pde_dsl(bad)
    assert "order-0" in str(err.value)


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_pde_dsl("system s {\n  vars x %\n}")
    assert err.value.line == 2


def test_inhomogeneous_rejected():
    bad = "system s { vars x; unknowns u; eq: D[x](u) + 1 = 0; }"
    with pytest.raises(ParseError):
        parse_pde_dsl(bad)


# -- round trips ----------------------------------------------------------------------


@pytest.mark.parametrize("idx", range(50))
def test_corpus_round_trip(idx):
    text = corpus()[idx]
    doc = parse_pde_dsl(text)
    printed = print_document(doc)
    doc2 = parse_pde_dsl(printed)
    assert doc2 == doc
    assert print_document(doc2) == printed


def test_corpus_has_fifty_cases():
    assert len(corpus()) == 50


# -- fuzzing -----------------------------------------------------------------------------


def test_fuzz_parser_only_diagnostics():
    rng = random.Random(20260809)
    alphabet = string.ascii_letters + string.digits + "{}()[];:,=+-*/^<>#. \n\t"
    seeds = corpus()
    crashes = 0
    for trial in range(10_000):
        if trial % 3 == 0:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        else:
            base = list(rng.choice(seeds))
            for _ in range(rng.randint(1, 6)):
                pos = rng.randrange(max(1, len(base)))
                op = rng.random()
                if op < 0.4 and base:
                    base[pos] = rng.choice(alphabet)
                elif op < 0.7 and base:
                    del base[pos : pos + rng.randint(1, 3)]
                else:
                    base.insert(pos, rng.choice(alphabet))
            text = "".join(base)
        try:
            parse_pde_dsl(text)
        except ParseError:
            pass
        except Exception:  # noqa: BLE001 - the whole point of the fuzz test
            crashes += 1
    assert crashes == 0


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_fuzz_hypothesis_unicode(text):
    try:
        parse_pde_dsl(text)
    except ParseError:
        pass


# -- reports -----------------------------------------------------------------------------


def test_reports_are_byte_identical():
    report = ReportDocument(
        command="det",
        arguments={"model": "circle", "length": 6.283185307179586},
        payload={"det": 39.47841760435743, "ratio": __import__("fractions").Fraction(1, 3)},
        source_hash="",
        seed=0,
    )
    a = emit_report(report, "json")
    b = emit_report(report, "json")
    assert a == b
    data = json.loads(a)
    assert data["result"]["ratio"] == "1/3"


def test_text_format_is_deterministic():
    report = ReportDocument("grr", {"model": "P1"}, {"index": 4}, "", 0)
    assert emit_report(report, "text") == emit_report(report, "text")
    assert b"index = 4" in emit_report(report, "text")


# -- CLI dispatch ---------------------------------------------------------------------------


def run_cli(tmp_path, *argv, expect=0):
    rc = main(list(argv))
    assert rc == expect
    return rc


def test_cli_grr_p1(capsys, tmp_path):
    assert main(["grr", "--model", "P1", "--twist", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["index"] == 4


def test_cli_det_circle(capsys):
    assert main(["det", "--model", "circle", "--length", "6.283185307179586"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["result"]["det"] - 39.4784176043574) < 1e-6


def test_cli_classify_hyperbolic(capsys, tmp_path):
    pde = tmp_path / "wave.pde"
    pde.write_text(WAVE)
    assert main([
        "classify", str(pde), "--mode", "hyperbolic", "--direction", "1,0",
    ]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["hyperbolic"] is True


def test_cli_classify_labels(capsys, tmp_path):
    pde = tmp_path / "tricomi.pde"
    pde.write_text(TRICOMI)
    assert main(["classify", str(pde), "--direction", "0,1", "--grid", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["samples"] > 0


def test_cli_parse_error_exit_code(capsys, tmp_path):
    pde = tmp_path / "bad.pde"
    pde.write_text("system s { vars x; unknowns u; eq: u*u = 0; }")
    assert main(["symbol", str(pde)]) == 2


def test_cli_precondition_exit_code(capsys, tmp_path):
    pde = tmp_path / "heat.pde"
    pde.write_text("system heat { vars t, x; unknowns u; "
                   "eq: D[t](u) - D[x,x](u) = 0; }")
    assert main(["index", str(pde), "--model", "P1"]) == 3


def test_cli_determinism(capsys, tmp_path):
    pde = tmp_path / "laplace.pde"
    pde.write_text(LAPLACE)
    assert main(["involutivity", str(pde), "--bound", "2"]) == 0
    out1 = capsys.readouterr().out
    assert main(["involutivity", str(pde), "--bound", "2"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_cli_torsion_circle(capsys):
    assert main([
        "torsion", "--model", "circle", "--length", "2.0",
        "--convention", "exp_full",
    ]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["result"]["torsion"] - 0.25) < 1e-9


def test_cli_boundary(capsys):
    assert main(["boundary-index", "--interior", "0:1", "--boundary", "0:2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["relative_index"] == -1


def test_cli_quillen(capsys):
    assert main(["quillen", "--l2", "2.0", "--dets", "0:1.0,1:1.0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["quillen_norm"] == 2.0


def test_cli_crosscheck(capsys):
    assert main(["crosscheck", "--length", "6.283185307179586", "--n", "64"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["all_within_bound"] is True


def test_cli_kunneth(capsys, tmp_path):
    pde = tmp_path / "wave.pde"
    pde.write_text(WAVE)
    assert main(["kunneth", str(pde), "--copies", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["factorization"]["all_passed"] is True


@pytest.mark.parametrize("argv, message", [
    (["classify", "--direction", "a,b"], "--direction: 'a,b' is not a list of rationals"),
    (["classify", "--direction", "1"], "--direction: '1' has 1 entries for 2 variables"),
    (["classify", "--cones", "p,q"], "--cones: no cone named 'p'; have ['ahead', 'behind']"),
    (["classify", "--cones", "ahead"], "--cones needs two cone names a,b, got 'ahead'"),
    (["kunneth", "--other", "nope"], "--other: no system named 'nope'; have ['wave']"),
    (["restrict", "--subspace", "1,x"], "--subspace: '1,x' is not a list of rationals"),
], ids=["direction", "direction-length", "cones", "cones-count", "other", "subspace"])
def test_cli_bad_microlocal_argument(capsys, tmp_path, argv, message):
    pde = tmp_path / "wave.pde"
    pde.write_text(WAVE + "cone ahead { generators (1, 1), (1, -1); kind closed; }\n"
                   "cone behind { generators (-1, 1), (-1, -1); kind closed; }\n")
    assert main([argv[0], str(pde)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("copies", ["-1", "0", "1"])
def test_cli_kunneth_rejects_fewer_than_two_copies(capsys, tmp_path, copies):
    pde = tmp_path / "wave.pde"
    pde.write_text(WAVE)
    assert main(["kunneth", str(pde), "--copies", copies]) == 2
    assert f"argument --copies: '{copies}' is not an integer >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["prolong", "--count", "-1"], "argument --count: '-1' is not an integer >= 0"),
    (["poincare", "--order", "-1"], "argument --order: '-1' is not an integer >= 0"),
    (["classify", "--grid", "0"], "argument --grid: '0' is not an integer >= 1"),
    (["classify", "--grid", "-1"], "argument --grid: '-1' is not an integer >= 1"),
    (["symbol", "--order", "-1"], "argument --order: '-1' is not an integer >= 0"),
], ids=["prolong-count", "poincare-order", "classify-grid-0", "classify-grid-negative",
        "symbol-order"])
def test_cli_rejects_out_of_range_integer_option(capsys, tmp_path, argv, message):
    pde = tmp_path / "wave.pde"
    pde.write_text(WAVE)
    assert main([argv[0], str(pde)] + argv[1:]) == 2
    assert message in capsys.readouterr().err


def test_cli_zero_prolongations_and_order_zero_series(capsys, tmp_path):
    pde = tmp_path / "wave.pde"
    pde.write_text(WAVE)
    assert main(["prolong", str(pde), "--count", "0"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["dimensions"], result["orders"]) == ([2], [2])
    assert main(["poincare", str(pde), "--order", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["coefficients"] == [1]


def test_cli_spencer_has_no_depth_option(capsys, tmp_path):
    pde = tmp_path / "wave.pde"
    pde.write_text(WAVE)
    assert main(["spencer", str(pde), "--depth", "1"]) == 2
    assert "unrecognized arguments: --depth 1" in capsys.readouterr().err


def test_cli_entry_point_subprocess(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "spencerlab.cli", "grr", "--model", "P2", "--twist", "2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["result"]["index"] == 6


def test_cli_closed_stdout_exits_1_without_traceback(tmp_path):
    """The reader of stdout is gone before the report is written (as with
    `| head -c 50` on a large report): exit 1 and nothing on stderr."""
    pde = tmp_path / "tricomi.pde"
    pde.write_text(TRICOMI)
    proc = subprocess.Popen(
        [sys.executable, "-m", "spencerlab.cli", "classify", str(pde), "--grid", "400",
         "--direction", "0,1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the only read end: every write now fails with EPIPE
    err = proc.stderr.read()
    assert (proc.wait(), err) == (1, b"")


def test_cli_main_closed_stdout_leaves_fd_1_alone(monkeypatch):
    """In process, main reports a closed stdout as 1 and does not redirect
    the caller's file descriptor 1."""

    class ClosedBuffer:
        def write(self, data):
            raise BrokenPipeError

    class ClosedStdout:
        buffer = ClosedBuffer()

        def flush(self):
            pass

        def fileno(self):
            return 1

    before = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main(["grr", "--model", "P2", "--twist", "2"]) == 1
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


def test_cli_index_elliptic_system(capsys, tmp_path):
    pde = tmp_path / "cr.pde"
    pde.write_text(
        "system cr { vars x, y; unknowns u; "
        "eq: 1/2*D[x](u) + 1/2*i*D[y](u) = 0; }"
    )
    assert main(["index", str(pde), "--model", "P1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["index"] == 1
    assert data["result"]["method"] == "as_specialization"


def test_cli_bcov_reports_both_torsions(capsys):
    assert main(["bcov", "--tau", "0,1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["result"]["t_bcov"] - data["result"]["det_prime"]) < 1e-6
    assert abs(data["result"]["de_rham_torsion"] - 1.0) < 1e-9


def test_reports_validate_against_schema(capsys, tmp_path):
    import jsonschema

    with open("docs/report-schema.json", "r", encoding="utf-8") as fh:
        schema = json.load(fh)
    pde = tmp_path / "laplace.pde"
    pde.write_text(LAPLACE)
    invocations = [
        ["grr", "--model", "P1", "--twist", "3"],
        ["det", "--model", "circle", "--length", "6.283185307179586"],
        ["symbol", str(pde)],
        ["poincare", str(pde), "--order", "4"],
        ["quillen", "--l2", "1.0", "--dets", "1:2.0"],
        ["bcov", "--tau", "0,1"],
        ["crosscheck", "--length", "6.28", "--n", "16"],
    ]
    for argv in invocations:
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        jsonschema.validate(data, schema)


def test_cli_det_from_dsl_spectrum(capsys, tmp_path):
    pde = tmp_path / "spec.pde"
    pde.write_text("spectrum circ { kind circle; length 6.283185307179586; }")
    assert main(["det", str(pde), "--spectrum", "circ"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["result"]["det"] - 39.4784176043574) < 1e-6
    assert data["input_hash"]


@pytest.mark.parametrize("extra, named", [
    (["--model", "torus"], "--model"),
    (["--model", "circle", "--length", "2"], "--model, --length"),
    (["--length", "2"], "--length"),
    (["--tau=0,1"], "--tau"),
], ids=["model", "model-length", "length", "tau"])
def test_cli_det_spectrum_rejects_model_options(capsys, tmp_path, extra, named):
    pde = tmp_path / "spec.pde"
    pde.write_text("spectrum circ { kind circle; length 6.283185307179586; }")
    assert main(["det", str(pde), "--spectrum", "circ"] + extra) == 2
    err = capsys.readouterr().err
    assert f"{named}: not used with --spectrum" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, named, model", [
    (["det", "--model", "torus", "--tau=0,1", "--length", "2"], "--length", "torus"),
    (["det", "--model", "circle", "--length", "2", "--tau=0,1"], "--tau", "circle"),
    (["torsion", "--model", "circle", "--length", "2", "--tau=0,1"], "--tau", "circle"),
    (["torsion", "--model", "torus", "--tau=0,1", "--length", "3"], "--length", "torus"),
], ids=["det-torus-length", "det-circle-tau", "torsion-circle-tau", "torsion-torus-length"])
def test_cli_model_rejects_unused_option(capsys, argv, named, model):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{named}: not used by --model {model}" in err
    assert "Traceback" not in err


# the required arguments of each subcommand other than det
REQUIRED = {
    "symbol": ["s.pde"], "prolong": ["s.pde"], "spencer": ["s.pde"],
    "involutivity": ["s.pde"], "finite-type": ["s.pde"], "poincare": ["s.pde"],
    "classify": ["s.pde"], "restrict": ["s.pde", "--subspace", "1,0"],
    "kunneth": ["s.pde"], "index": ["--model", "P1"], "grr": ["--model", "P1"],
    "boundary-index": ["--interior", "0:1"], "torsion": ["--model", "circle"],
    "bcov": ["--tau=0,1"], "quillen": ["--l2", "1", "--dets", "0:1"],
    "crosscheck": ["--length", "1"],
}


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_cli_tolerance_is_a_det_option(capsys, command):
    assert main([command] + REQUIRED[command] + ["--tolerance=1e-30"]) == 2
    assert "unrecognized arguments: --tolerance=1e-30" in capsys.readouterr().err


def test_cli_tolerance_covers_every_other_command():
    assert sorted(REQUIRED) == sorted(set(COMMANDS) - {"det"})


def test_cli_index_system_needs_a_file(capsys):
    assert main(["index", "--model", "P1", "--system", "nope"]) == 2
    err = capsys.readouterr().err
    assert "--system: needs a DSL file argument" in err
    assert "Traceback" not in err


# (mode, exact, finite_difference, residual, bound, within_bound) as reported
CROSSCHECK_2PI_64 = [
    (1, 1.0, 0.999197067539229, 0.000802932460770678, 0.00120478569449235, True),
    (2, 1.0, 0.999197067539231, 0.000802932460768679, 0.00120478569449235, True),
    (3, 4.0, 3.98716545617984, 0.0128345438201558, 0.0192765710968777, True),
    (4, 4.0, 3.98716545617986, 0.012834543820138, 0.0192765710968777, True),
    (5, 9.0, 8.93512939694956, 0.0648706030504425, 0.0975876411738806, True),
    (6, 9.0, 8.93512939694956, 0.0648706030504353, 0.0975876411738806, True),
    (7, 16.0, 15.7954372922665, 0.204562707733469, 0.308425137535042, True),
    (8, 16.0, 15.7954372922666, 0.204562707733412, 0.308425137535042, True),
    (9, 25.0, 24.5020206268731, 0.49797937312691, 0.752991058433721, True),
    (10, 25.0, 24.5020206268731, 0.497979373126871, 0.752991058433721, True),
    (11, 36.0, 34.9710302437544, 1.02896975624562, 1.56140225876709, True),
    (12, 36.0, 34.9710302437544, 1.0289697562456, 1.56140225876709, True),
    (13, 49.0, 47.1016438573571, 1.89835614264294, 2.89269045007614, True),
    (14, 49.0, 47.1016438573571, 1.89835614264286, 2.89269045007614, True),
    (15, 64.0, 60.7770370273142, 3.22296297268583, 4.93480220054568, True),
    (16, 64.0, 60.7770370273142, 3.2229629726858, 4.93480220054568, True),
]


def test_cli_crosscheck_rows_unchanged(capsys):
    assert main(["crosscheck", "--length", "6.283185307179586", "--n", "64"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    fields = ("mode", "exact", "finite_difference", "residual", "bound", "within_bound")
    assert [tuple(row[f] for f in fields) for row in result["rows"]] == CROSSCHECK_2PI_64
    assert {k: v for k, v in result.items() if k != "rows"} == {
        "length": 6.28318530717959, "n_points": 64, "modes_checked": 16,
        "all_within_bound": True, "ordering_monotone": True,
    }


def test_cli_det_rejects_unknown_method(capsys):
    assert main(["det", "--model", "torus", "--tau=0,1", "--method", "bogus"]) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_cli_det_rejects_inapplicable_method(capsys, tmp_path):
    assert main(["det", "--model", "torus", "--tau=0,1", "--method", "euler_maclaurin"]) == 4
    err = capsys.readouterr().err
    assert "flat_torus" in err and "euler_maclaurin" in err
    pde = tmp_path / "spec.pde"
    pde.write_text("spectrum p { kind explicit; values 1,2; }")
    assert main(["det", str(pde), "--spectrum", "p", "--method", "mellin_theta"]) == 4
    err = capsys.readouterr().err
    assert "explicit" in err and "mellin_theta" in err


@pytest.mark.parametrize("length", ["1e-300", "1e-100", "1e300"])
def test_cli_crosscheck_overflow_is_numeric_error(capsys, length):
    # (n / L)^2 and lambda^2 overflow for tiny L, (L / N)^2 for huge L
    assert main(["crosscheck", "--length", length]) == 4
    err = capsys.readouterr().err
    assert "--length" in err and "overflow" in err and "Traceback" not in err


def _reference_labels(sys_, grid, directions):
    """classify_mixed labels by the per-x route it takes without a compiled
    symbol: characteristic generators evaluated through MultiPoly,
    is_elliptic on frozen_system(sys, x) and is_hyperbolic(..., x=x)."""
    from spencerlab.errors import PreconditionError
    from spencerlab.microlocal import (CovectorSample, characteristic_ideal,
                                       frozen_system, is_elliptic, is_hyperbolic)

    cv = characteristic_ideal(sys_)
    xi_pool = list(dict.fromkeys(s.xi for s in grid))
    labels = []
    for idx, sample in enumerate(grid):
        point = dict(zip(cv.ambient, sample.x + sample.xi))
        gens = cv.ideal.generators
        if gens and all(not g.evaluate(point) for g in gens):
            labels.append({"index": idx, "label": "characteristic"})
            continue
        sub_grid = [CovectorSample(sample.x, xi) for xi in xi_pool]
        try:
            verdict, cert = is_elliptic(frozen_system(sys_, sample.x), sub_grid)
        except PreconditionError:
            verdict, cert = False, {"kind": "skipped"}
        if verdict:
            labels.append({"index": idx, "label": "elliptic", "certificate": cert})
            continue
        label = {"index": idx, "label": "degenerate"}
        for theta in directions:
            try:
                rep = is_hyperbolic(sys_, theta, grid=sub_grid, strict=True, x=sample.x)
            except PreconditionError:
                continue
            if rep.value is True:
                label = {"index": idx, "label": "hyperbolic",
                         "direction": [str(t) for t in theta]}
                break
        labels.append(label)
    return labels


def _classify_grid(bases, xis):
    from fractions import Fraction

    from spencerlab.microlocal import CovectorSample

    return [CovectorSample(tuple(Fraction(v) for v in b), tuple(Fraction(v) for v in xi))
            for b in bases for xi in xis]


_CLASSIFY_XIS = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (2, 2), (1, -1),
                 ("1/2", "3/4"), ("1/2", 1), (-3, "5/2"), (2, -5)]


@pytest.mark.parametrize("text, bases, directions", [
    # Tricomi, across the fold line y = 0
    (TRICOMI, [(x, y) for x in (0, "1/2", -3) for y in (-2, "-1/3", 0, "1/2", 3)],
     [(0, 1)]),
    (LAPLACE, [(0, 0), ("7/3", -1)], None),
    (WAVE, [(0, 0), (1, "-1/2")], [(1, 0), (0, 1), (1, 1)]),
    # characteristic at the rational covector (1/2, 1)
    ("system w4 { vars t, x; unknowns u; eq: 4*D[t,t](u) - D[x,x](u) = 0; }",
     [(0, 0)], [(1, 0)]),
    # indefinite only through the mixed term
    ("system mixed { vars x, y; unknowns u; eq: D[x,x](u) + 3*D[x,y](u) + D[y,y](u) = 0; }",
     [(0, 0)], None),
    # negative definite, with a mixed term
    ("system neg { vars x, y; unknowns u; eq: -D[x,x](u) + D[x,y](u) - D[y,y](u) = 0; }",
     [(1, 1)], None),
    # non-real coefficients
    ("system cr { vars x, y; unknowns u; eq: 1/2*D[x](u) + 1/2*i*D[y](u) = 0; }",
     [(0, 0), (1, 2)], None),
    # order drop: the top-order coefficient vanishes on x = 0
    ("system drop { vars x, y; unknowns u; eq: x*D[x,x](u) + D[y](u) = 0; }",
     [(0, 0), (0, "3/2"), (1, 0), ("-1/2", 2)], None),
    # on x = 0 the first equation freezes to first order (saturation certificate)
    ("system drop2 { vars x, y; unknowns u; eq: x*D[x,x](u) + D[y](u) = 0; "
     "eq: D[x](u) = 0; }", [(0, 0), (0, -1), (2, 1)], None),
    # on x = 0 the frozen system has order 0
    ("system drop0 { vars x, y; unknowns u; eq: x*D[x](u) + u = 0; eq: u = 0; }",
     [(0, 0), (0, 1), ("1/3", 1)], None),
])
def test_classify_matches_per_x_reference(text, bases, directions):
    from spencerlab.microlocal import Region, axis_covectors, classify_mixed

    sys_ = next(iter(parse_pde_dsl(text).systems.values()))
    grid = _classify_grid(bases, _CLASSIFY_XIS)
    report = classify_mixed(sys_, Region.everywhere(), grid, directions=directions)
    expected = _reference_labels(sys_, grid, directions or axis_covectors(sys_.n)[::2])
    assert report.labels == expected
    assert sum(report.strata.values()) == len(grid)


def test_cli_remaining_commands_smoke(capsys, tmp_path):
    pde = tmp_path / "doc.pde"
    pde.write_text(LAPLACE + "\nsystem grad { vars x, y; unknowns u; "
                   "eq: D[x](u) = 0; eq: D[y](u) = 0; }\n")
    assert main(["spencer", str(pde), "--system", "laplace", "--order", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["symbol_dimensions"]["2"] == 2
    assert main(["prolong", str(pde), "--system", "laplace", "--count", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["dimensions"] == [2, 2, 2]
    assert main(["finite-type", str(pde), "--system", "grad", "--connection"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["finite_type"] is True
    assert data["result"]["flat_rank"] == 1
    assert main(["restrict", str(pde), "--system", "laplace",
                 "--subspace", "1,0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["noncharacteristic"] is True
    assert main(["symbol", str(pde), "--system", "grad", "--order", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["dimension"] == 0
    assert main(["kunneth", str(pde), "--system", "laplace",
                 "--other", "grad"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["kunneth_ok"] is True
    assert main(["classify", str(pde), "--system", "laplace",
                 "--mode", "elliptic"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["elliptic"] is True


@pytest.mark.parametrize("text", [
    "system s { vars x; unknowns u; eq: x^1/2*D[x](u) = 0; }",
    "system s { vars x; unknowns u; eq: D[x](u) = 0; }\n"
    "region r { vars x; x^1/2 > 0; }",
], ids=["coefficient", "region"])
def test_fractional_exponent_rejected(capsys, tmp_path, text):
    line = text.count("\n", 0, text.index("^1/2")) + 1
    col = text.index("^1/2") - (text.rfind("\n", 0, text.index("^1/2")) + 1) + 2
    with pytest.raises(ParseError) as err:
        parse_pde_dsl(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert "'1/2' is not an integer" in str(err.value)
    pde = tmp_path / "frac.pde"
    pde.write_text(text)
    assert main(["symbol", str(pde), "--system", "s"]) == 2
    assert f"at {line}:{col}" in capsys.readouterr().err


def test_explicit_spectrum_multiplicity_mismatch(capsys, tmp_path):
    pde = tmp_path / "p.pde"
    pde.write_text("spectrum p { kind explicit; values 1,2; multiplicities 1; }")
    assert main(["det", str(pde), "--spectrum", "p"]) == 2
    err = capsys.readouterr().err
    assert "1 multiplicities for 2 values at 1:" in err


@pytest.mark.parametrize("mode, option, value", [
    ("elliptic", "--cones", "ahead,behind"),
    ("elliptic", "--grid", "99"),
    ("elliptic", "--region", "lower"),
    ("elliptic", "--direction", "1,0"),
    ("hyperbolic", "--cones", "ahead,behind"),
    ("hyperbolic", "--grid", "4"),
    ("hyperbolic", "--region", "lower"),
], ids=["elliptic-cones", "elliptic-grid", "elliptic-region", "elliptic-direction",
        "hyperbolic-cones", "hyperbolic-grid", "hyperbolic-region"])
def test_cli_classify_rejects_unused_option(capsys, tmp_path, mode, option, value):
    pde = tmp_path / "tricomi.pde"
    pde.write_text(TRICOMI + "cone ahead { generators (1, 1), (1, -1); kind closed; }\n"
                   "cone behind { generators (-1, 1), (-1, -1); kind closed; }\n")
    argv = ["classify", str(pde), "--mode", mode, option, value]
    if mode == "hyperbolic":
        argv += ["--direction", "0,1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{option}: not used by --mode {mode}" in err
    assert "Traceback" not in err


def test_cli_classify_reports_default_grid(capsys, tmp_path):
    pde = tmp_path / "wave.pde"
    pde.write_text(WAVE)
    assert main(["classify", str(pde), "--mode", "elliptic"]) == 0
    assert json.loads(capsys.readouterr().out)["arguments"]["grid"] == 4
    assert main(["classify", str(pde), "--mode", "hyperbolic", "--direction", "1,0"]) == 0
    assert json.loads(capsys.readouterr().out)["arguments"]["grid"] == 4


@pytest.mark.parametrize("options", [
    ["--mode", "elliptic"],
    ["--mode", "hyperbolic", "--direction", "1,0"],
    ["--grid", "2"],
    [],
], ids=["elliptic", "hyperbolic", "labels-grid", "labels-default-grid"])
def test_dispatching_one_namespace_twice_gives_the_same_bytes(tmp_path, options):
    """The default --grid goes into the report, not into args."""
    pde = tmp_path / "wave.pde"
    pde.write_text(WAVE)
    args = build_parser().parse_args(["classify", str(pde), *options])
    first = emit_report(dispatch(args))
    assert emit_report(dispatch(args)) == first
    assert json.loads(first)["arguments"]["grid"] == (2 if options == ["--grid", "2"] else 4)


def _parse_output(parser, argv, capsys):
    """(exit code or None, stdout, stderr) of parsing argv with parser."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_one_subparser_parser_prints_what_the_full_parser_prints(command, capsys):
    """build_parser(command) builds one subparser, yet its help, usage and
    error text are byte for byte those of the full parser."""
    for argv in ([command, "-h"], [command], [command, "--bogus"],
                 [command, "--format", "yaml"], [command, "a.pde", "--model", "P1", "x", "y"]):
        full = _parse_output(build_parser(), argv, capsys)
        assert _parse_output(build_parser(command), argv, capsys) == full, argv
    parser = build_parser(command)
    assert list(parser._subparsers._group_actions[0].choices) == [command]


@pytest.mark.parametrize("argv, message", [
    (["quillen", "--l2", "1", "--dets", "0-1"], "--dets: '0-1' is not a degree:value pair"),
    (["quillen", "--l2", "1", "--dets", "0:1,0:2"], "--dets: degree 0 is given twice"),
    (["crosscheck", "--length", "0"], "argument --length: '0' is not a positive number"),
    (["det", "--model", "circle", "--length", "nan"],
     "argument --length: 'nan' is not a finite number"),
    (["torsion", "--model", "circle", "--length", "inf"],
     "argument --length: 'inf' is not a finite number"),
    (["bcov", "--tau=0,1", "--scale", "inf"], "argument --scale: 'inf' is not a finite number"),
    (["bcov", "--tau=0,1", "--area", "0"], "argument --area: '0' is not a positive number"),
    (["det", "--model", "torus", "--tau=nan,1"], "--tau: 'nan,1' is not 'im' or 're,im'"),
    (["det", "--model", "torus", "--tau=0,1,2"], "--tau: '0,1,2' is not 'im' or 're,im'"),
    (["boundary-index", "--interior", "0:a"], "--interior: '0:a' is not a degree:value pair"),
], ids=["quillen-dets", "quillen-dets-twice", "crosscheck-length", "det-length",
        "torsion-length", "bcov-scale", "bcov-area", "tau-nan", "tau-three", "boundary-interior"])
def test_cli_bad_numeric_argument(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_cli_non_finite_result_is_numeric_error(capsys):
    assert main(["det", "--model", "circle", "--length", "1e300"]) == 4
    assert "numeric error: result inf is not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["det", "--model", "circle", "--length", "1e-200"],  # det' = L^2 = 1e-400
    ["det", "two.pde", "--spectrum", "two", "--scale", "1e-300"],  # 4 s^3 = 4e-900
    ["det", "two.pde", "--spectrum", "two", "--scale", "1e-103"],  # 4e-309, a subnormal
    ["torsion", "--model", "circle", "--length", "1e200"],  # T = L^-2
    ["torsion", "--model", "circle", "--length", "1e300"],
], ids=["det-circle", "det-explicit", "det-explicit-subnormal", "torsion-1e200",
        "torsion-1e300"])
def test_cli_underflowing_result_is_numeric_error(capsys, tmp_path, monkeypatch, argv):
    (tmp_path / "two.pde").write_text(
        "spectrum two { kind explicit; values 1, 2; multiplicities 1, 2; }")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "underflows the double range" in err and "Traceback" not in err


def test_cli_quillen_norm_below_the_double_range_is_numeric_error(capsys):
    # norm = (1e300)^-2 = 1e-600
    assert main(["quillen", "--l2", "1", "--dets", "4:1e300"]) == 4
    err = capsys.readouterr().err
    assert "underflows the double range" in err and "Traceback" not in err


def test_cli_quillen_small_norm_in_range(capsys):
    # norm = (1e100)^-2 = 1e-200, a normal double
    assert main(["quillen", "--l2", "1", "--dets", "4:1e100"]) == 0
    norm = json.loads(capsys.readouterr().out)["result"]["quillen_norm"]
    assert abs(norm - 1e-200) <= 1e-213


def test_cli_restrict_passes_the_seed_to_the_grid(capsys, tmp_path):
    """Along the characteristic line t = x of the wave equation the symbol
    vanishes on the conormal, so no saturation certificate exists and the
    seeded grid search reports a violating base point, which the seed picks."""
    from spencerlab.microlocal import noncharacteristic_restrict

    pde = tmp_path / "wave.pde"
    pde.write_text(WAVE)
    wave = next(iter(parse_pde_dsl(WAVE).systems.values()))
    certificates = {}
    for seed in (0, 3):
        assert main(["restrict", str(pde), "--subspace", "1,1", "--seed", str(seed)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == seed
        _, ok, cert = noncharacteristic_restrict(wave, [(1, 1)], grid_seed=seed)
        assert data["result"]["certificate"] == cert and not ok
        certificates[seed] = cert
    assert certificates[0]["kind"] == "violating-conormal"
    assert certificates[0]["base"] != certificates[3]["base"]


def test_cli_index_passes_the_seed_to_is_elliptic(capsys, tmp_path, monkeypatch):
    import spencerlab.microlocal as microlocal

    seeds = []
    is_elliptic = microlocal.is_elliptic
    monkeypatch.setattr(microlocal, "is_elliptic",
                        lambda sys_, seed=0: seeds.append(seed) or is_elliptic(sys_, seed=seed))
    pde = tmp_path / "cr.pde"
    pde.write_text("system cr { vars x, y; unknowns u; "
                   "eq: 1/2*D[x](u) + 1/2*i*D[y](u) = 0; }")
    assert main(["index", str(pde), "--model", "P1", "--seed", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["seed"], data["result"]["index"], seeds) == (3, 1, [3])


@pytest.mark.parametrize("argv", [
    ["det", "--model", "circle", "--length", "2", "--seed", "5"],
    ["grr", "--model", "P2", "--seed", "5"],
])
def test_cli_seed_is_rejected_where_nothing_reads_it(capsys, argv):
    assert main(argv) == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


QUADRIC = ("system quad { vars x, y, z; unknowns u; "
           "eq: 2/3*D[x,x](u) - D[x,y](u) + 3/2*D[y,y](u) - 1/3*D[z,z](u) = 0; }")


@pytest.mark.parametrize("argv", [
    ["symbol", "--order", "100000"],
    ["involutivity", "--bound", "100000"],
    ["spencer", "--order", "100000"],
    ["prolong", "--count", "100000"],
])
def test_cli_jet_order_past_the_work_budget_exits_3(capsys, tmp_path, argv):
    pde = tmp_path / "quad.pde"
    pde.write_text(QUADRIC)
    assert main([argv[0], str(pde), *argv[1:]]) == 3
    assert "work budget" in capsys.readouterr().err


def test_jet_budget_boundary():
    from spencerlab.symbols import check_jet_budget

    check_jet_budget(2, 1, 19999)  # the Laplacian's 20000 columns
    check_jet_budget(5, 5, 14)  # default involutivity on 5-D Killing: 15300 columns
    check_jet_budget(3, 3, 8)  # the largest symbol matrix of the tests: 135 columns
    check_jet_budget(0, 1, 0)
    with pytest.raises(PreconditionError, match="20001 symbol columns"):
        check_jet_budget(2, 1, 20000)


def test_library_prolong_past_the_work_budget_raises():
    from spencerlab.symbols import geometric_symbol, prolong

    space = geometric_symbol(parse_pde_dsl(QUADRIC).systems["quad"])
    with pytest.raises(PreconditionError, match="work budget"):
        prolong(space, 100000)


KILLING_4D = """
system killing4 {
  vars x, y, z, t; unknowns u, v, w, s;
  eq: D[x](u) = 0; eq: D[y](v) = 0; eq: D[z](w) = 0; eq: D[t](s) = 0;
  eq: D[y](u) + D[x](v) = 0; eq: D[z](u) + D[x](w) = 0; eq: D[z](v) + D[y](w) = 0;
  eq: D[t](u) + D[x](s) = 0; eq: D[t](v) + D[y](s) = 0; eq: D[t](w) + D[z](s) = 0;
}
"""


def test_cli_default_involutivity_fits_the_work_budget(capsys, tmp_path):
    """The default --bound 6 on Killing's equations in four variables reaches
    order 13: 4 C(16, 13) = 2240 symbol columns, inside the budget."""
    pde = tmp_path / "killing4.pde"
    pde.write_text(KILLING_4D)
    assert main(["involutivity", str(pde)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["found"], result["involutivity_degree"]) == (True, 1)


def test_cli_report_without_seed_option_has_null_seed(capsys):
    assert main(["grr", "--model", "P2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["seed"] is None and "seed" not in data["arguments"]


MIXED = (WAVE + "spectrum circ { kind circle; length 6.283185307179586; }\n"
         "spectrum tor { kind torus; tau 0.25, 1.25; }\n")


@pytest.mark.parametrize("name, result", [
    ("circ", {"det": 39.4784176043574, "error_bound": 7.99568352087149e-24,
              "method": "closed_form", "model": "circ", "zero_modes": 1, "zeta0": -1.0}),
    ("tor", {"det": 1.68806926476889, "error_bound": 1.85913867437073e-16,
             "method": "mellin_theta", "model": "tor", "zero_modes": 1, "zeta0": -1.0}),
])
def test_system_and_spectrum_document(capsys, tmp_path, name, result):
    doc = parse_pde_dsl(MIXED)
    assert sorted(doc.systems) == ["wave"] and sorted(doc.spectra) == ["circ", "tor"]
    assert parse_pde_dsl(print_document(doc)) == doc
    pde = tmp_path / "mixed.pde"
    pde.write_text(MIXED)
    assert main(["det", str(pde), "--spectrum", name]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == result


@pytest.mark.parametrize("block", [
    "system a { vars x; unknowns u; eq: D[x](u) = 0; }",
    "region a { vars x; x > 0; }",
    "cone a { generators (1, 0); kind closed; }",
    "spectrum a { kind circle; length 1; }",
    "model a { kind P1; }",
], ids=["system", "region", "cone", "spectrum", "model"])
def test_duplicate_block_name_rejected(capsys, tmp_path, block):
    # a name may repeat across kinds, but not within one
    system = "system a { vars x; unknowns u; eq: D[x](u) = 0; }"
    text = f"{block}\n{system if block != system else 'model a { kind P2; }'}\n{block}\n"
    with pytest.raises(ParseError) as err:
        parse_pde_dsl(text)
    assert "duplicate" in str(err.value)
    assert (err.value.line, err.value.col) == (3, block.index(" a ") + 2)
    pde = tmp_path / "dup.pde"
    pde.write_text(text)
    assert main(["symbol", str(pde), "--system", "a"]) == 2
    assert "at 3:" in capsys.readouterr().err


@pytest.mark.parametrize("condition, col", [
    ("i*x > 0", 23), ("x + 2*i > 0", 23), ("-1/2*i*y <= 0", 23),
], ids=["leading", "constant", "negative"])
def test_region_rejects_non_real_sum(condition, col):
    with pytest.raises(ParseError) as err:
        parse_pde_dsl(f"region r {{ vars x, y; {condition}; }}")
    assert "region polynomials must be real" in str(err.value)
    assert (err.value.line, err.value.col) == (1, col)


def test_region_sum_uses_the_equation_grammar():
    # D and i are names like any other in a region that declares them
    doc = parse_pde_dsl("region r { vars D, i; -D^2*i + 3*D - 1 < 0; }")
    assert print_document(doc) == "region r {\n  vars D, i;\n  -1 + 3*D - D^2*i < 0;\n}\n"
    assert parse_pde_dsl(print_document(doc)) == doc


def _cli_subprocess(*argv):
    return subprocess.run([sys.executable, "-m", "spencerlab.cli", *argv],
                          capture_output=True, text=True, timeout=20)


def test_cli_torus_far_real_part_is_the_same_lattice():
    # Z + (1e20 + i) Z = Z + i Z; without reducing Re tau, det M cancels to 0
    far, unit = (_cli_subprocess("det", "--model", "torus", f"--tau={tau}")
                 for tau in ("1e20,1", "0,1"))
    assert far.returncode == 0, far.stderr
    assert json.loads(far.stdout)["result"] == json.loads(unit.stdout)["result"]


@pytest.mark.parametrize("argv, message", [
    (["det", "--model", "torus", "--tau", "0,1e-300"], "candidate points"),
    (["det", "--model", "torus", "--tau", "0,1e300"], "candidate points"),
    (["bcov", "--tau=0,1", "--scale", "1e300"], "candidate points"),
    (["det", "--model", "circle", "--length", "1e300", "--method", "mellin_theta"],
     "candidate points"),
    (["det", "--model", "torus", "--tau=0.5,1e-20"], "degenerate at the working precision"),
], ids=["thin-torus", "tall-torus", "bcov-huge-scale", "huge-circle", "cancelled-det"])
def test_cli_extreme_lattice_is_refused_before_enumeration(argv, message):
    out = _cli_subprocess(*argv)
    assert out.returncode == 3, out.stderr
    assert "precondition error: " in out.stderr and message in out.stderr
    assert "Traceback" not in out.stderr
