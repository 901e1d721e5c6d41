"""Tests of the benchmark's own code: oracles, job generation, summaries and
trace folding.  Run with ``python -m pytest perfbench/tests``."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import gamma, mp, mpf, pi

import layers
import oracles
import stats
import workloads
from run import exact_digest


# -- oracles against textbook values ---------------------------------------------------


def test_torus_det_at_i_is_gamma_quarter_closed_form():
    with mp.workdps(30):
        value = oracles.torus_det_value(1j)
        closed = gamma(mpf(1) / 4) ** 4 / (4 * pi**3)
        assert abs(value - closed) < mpf("1e-25")
    assert float(value) == pytest.approx(1.3932039297, abs=1e-10)


def test_torus_det_under_the_modular_generators():
    with mp.workdps(30):
        tau = mpf("0.3") + 0.7j
        value = oracles.torus_det_value(tau)
        assert abs(oracles.torus_det_value(tau + 1) - value) < mpf("1e-25")
        # tau -> -1/tau scales the eigenvalues by |tau|^2, and zeta(0) = -1
        assert abs(oracles.torus_det_value(-1 / tau) - value / abs(tau) ** 2) < mpf("1e-25")


@pytest.mark.parametrize("d, chi", [(-3, 1), (-2, 0), (-1, 0), (0, 1), (1, 3), (2, 6), (5, 21)])
def test_p2_euler_characteristic(d, chi):
    assert oracles.p2_euler_characteristic(d) == chi


def test_harmonic_symbol_in_three_variables_has_dimension_2k_plus_1():
    assert [oracles.quadric_symbol_dim(k) for k in range(12)] == [2 * k + 1 for k in range(12)]


def test_first_order_symbol_in_four_variables_is_sym_of_a_plane_complement():
    assert [oracles.first_order_symbol_dim(q) for q in range(5)] == [1, 3, 6, 10, 15]


def test_rectangle_det_is_symmetric_and_scales_like_zeta0_one_quarter():
    with mp.workdps(30):
        a, b = mpf("1.3"), mpf("2.1")
        base = oracles.rectangle_det_value(a, b)
        assert abs(base - oracles.rectangle_det_value(b, a)) < mpf("1e-25")
        # zeta(0) = 1/4, so det(lam^-2 Delta) = lam^(-1/2) det(Delta) for sides scaled by lam
        scaled = oracles.rectangle_det_value(2 * a, 2 * b)
        assert abs(scaled - base / mpf(2).sqrt()) < mpf("1e-25")


def test_tricomi_sign_rule():
    F = Fraction
    assert oracles.tricomi_label((F(0), F(1)), (F(1), F(0))) == "elliptic"
    assert oracles.tricomi_label((F(0), F(-1)), (F(1), F(0))) == "hyperbolic"
    assert oracles.tricomi_label((F(3), F(-1)), (F(1), F(1))) == "characteristic"
    assert oracles.tricomi_label((F(3), F(-4)), (F(1), F(2))) == "characteristic"


def test_classify_grid_shape_and_determinism():
    grid = oracles.classify_grid(10, seed=3)
    assert len(grid) == 10 * 8
    assert grid[0][0] == (0, 0)
    assert [xi for _, xi in grid[:4]] == [(1, 0), (-1, 0), (0, 1), (0, -1)]
    assert grid == oracles.classify_grid(10, seed=3)


def test_lame_oracle_follows_symbol_determinant():
    report = {"result": {"elliptic": True, "certificate": {"kind": "grid"}}}
    assert oracles.check("lame_elliptic", {"lambda": "1", "mu": "2"}, report) == []
    assert oracles.check("lame_elliptic", {"lambda": "-4", "mu": "2"}, report) != []


def test_numeric_tolerance_is_bound_plus_report_rounding():
    assert oracles.rounding(327.567176534605) == pytest.approx(5e-13)
    assert oracles.near("x", 1.0, mpf(1) + mpf("4e-15"), 0) == []
    assert oracles.near("x", 1.0, mpf(1) + mpf("6e-15"), 0) != []
    assert oracles.near("x", 1.0, mpf(1) + mpf("6e-15"), 2e-15) == []


def test_malformed_report_is_a_problem_not_a_crash():
    assert oracles.check("grr_p2", {"twist": 1}, {"result": {}}) != []


# -- job generation ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_job_list_byte_for_byte(workload):
    a = workloads.job_list_bytes(workloads.jobs(workload, 7))
    b = workloads.job_list_bytes(workloads.jobs(workload, 7))
    assert a == b
    assert a != workloads.job_list_bytes(workloads.jobs(workload, 8))


def test_every_job_names_a_known_oracle():
    for workload in workloads.WORKLOADS:
        for seed in range(20):
            for job in workloads.jobs(workload, seed):
                assert job.oracle in oracles.CHECKS


def test_lame_draws_cover_both_sides_of_the_ellipticity_rule():
    sides = set()
    for seed in range(40):
        (job,) = [j for j in workloads.jobs("microlocal", seed) if j.name == "elliptic-lame"]
        lam, mu = Fraction(job.params["lambda"]), Fraction(job.params["mu"])
        sides.add(mu * (lam + 2 * mu) != 0)
    assert sides == {True, False}


# -- summaries ---------------------------------------------------------------------------


def test_summary_median_and_quartiles():
    s = stats.summary([5, 1, 4, 2, 3])
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (3, 1.5, 4.5, 5)
    assert stats.summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    assert stats.spread([5, 1, 4, 2, 3]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        stats.summary([])


# -- tracing -----------------------------------------------------------------------------


def test_parse_importtime_takes_cumulative_microseconds():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       670 |      40370 |           numpy._core",
        "import time:      1663 |      75495 |     numpy",
        "import time:       900 |      31000 |   mpmath",
        "import time:      6835 |     230451 | spencerlab.cli",
    ])
    assert layers.parse_importtime(text) == {
        "spencerlab.cli": 230.451, "numpy": 75.495, "mpmath": 31.0}


def test_tracer_self_time_excludes_child_spans():
    tr = layers.Tracer()
    tr.enter("job")
    tr.enter("a")
    tr.enter("b")
    sum(range(20000))
    tr.exit()
    tr.exit()
    tr.exit()
    spans = tr.dump()["spans"]
    assert set(spans) == {"job", "job/a", "job/a/b"}
    calls, self_a, total_a = spans["job/a"]
    assert calls == 1 and self_a == pytest.approx(total_a - spans["job/a/b"][2])


def test_pass_totals_and_metrics_fold_by_span_name():
    trace = {"spans": {"job": [1, 50.0, 300.0], "job/cli.dispatch": [1, 10.0, 250.0],
                       "job/cli.dispatch/linalg.rref": [4, 200.0, 200.0],
                       "job/cli.dispatch/spencer.complex/linalg.rref": [2, 40.0, 40.0]},
             "counters": {"linalg.rank_calls": 4, "linalg.rank_repeats": 1,
                          "spencer.delta_cells_max": 90}}
    totals = layers.pass_totals([trace, trace], [320.0, 330.0])
    m = layers.one_pass_metrics(totals)
    assert m["linalg.rref_ms"] == 480.0 and m["linalg.rref_calls"] == 12
    assert m["linalg.rank_repeat_ratio"] == 0.25
    assert m["spencer.delta_cells_max"] == 90
    assert m["cli.job_overhead_ms"] == (320.0 - 250.0) + (330.0 - 250.0)
    assert m["microlocal.cache_hit_ratio"] == 0.0


def test_layer_metrics_cover_the_declared_list():
    totals = layers.pass_totals([{"spans": {}, "counters": {}}], [1.0])
    out = layers.layer_metrics([totals], {"spencerlab.cli": 1.0, "numpy": 1.0, "mpmath": 1.0},
                               1e-16, 1.05)
    assert list(out) == [name for name, _, _ in layers.PER_LAYER]
    assert out["zeta.err_bound_max_log10"] == pytest.approx(-16)
    no_bound = layers.layer_metrics([totals], {"spencerlab.cli": 1.0, "numpy": 1.0, "mpmath": 1.0},
                                    0.0, 1.0)
    assert no_bound["zeta.err_bound_max_log10"] == layers.NO_BOUND_LOG10


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_exact_digest_ignores_floats_only():
    a = {"result": {"det": 1.25, "rank": 3, "rows": [1.5, "1/2"]}}
    b = {"result": {"det": 1.2500001, "rank": 3, "rows": [1.6, "1/2"]}}
    c = {"result": {"det": 1.25, "rank": 4, "rows": [1.5, "1/2"]}}
    assert exact_digest(a) == exact_digest(b) != exact_digest(c)
