"""Seeded job lists for the three benchmark workloads.

A job is one ``spencerlab`` CLI invocation: an argv, the DSL files it reads
and the name and parameters of the oracle that checks its report.  The seed
decides every coefficient, covector seed, tau and length; the program only
ever sees the generated files and argv.  The same seed gives the same job
list byte for byte (``job_list_bytes``).
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction

# Job sizes.  The jet jobs are smaller than first sketched (involutivity
# bound 2, poincare order 12, spencer order 5, prolong count 4) so that
# several passes fit in one run; exact elimination still dominates the pass.
INVOLUTIVITY_BOUND = 1
POINCARE_ORDER = 8
SPENCER_ORDER = 3
PROLONG_COUNT = 3
TRICOMI_GRID = 400
KUNNETH_COPIES = 7
CROSSCHECK_POINTS = 256
TAU_COUNT = 3


@dataclass
class Job:
    name: str
    argv: list
    oracle: str
    params: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)  # file name -> DSL text


def _rational(rng, top=3):
    return Fraction(rng.randint(1, top) * rng.choice((1, -1)), rng.randint(1, top))


def _equation(terms):
    """``c1*T1 + c2*T2 ...`` with zero coefficients dropped."""
    parts = []
    for coeff, deriv in terms:
        if coeff == 0:
            continue
        text = f"{abs(coeff)}*{deriv}"
        if not parts:
            parts.append(text if coeff > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(parts) + " = 0"


def _system(name, variables, unknowns, equations):
    body = "".join(f"  eq: {eq};\n" for eq in equations)
    return (
        f"system {name} {{\n  vars {', '.join(variables)};\n"
        f"  unknowns {', '.join(unknowns)};\n{body}}}\n"
    )


def quadric(rng):
    """Seeded second-order scalar equation sum a_ij D[x_i,x_j](u) = 0 in 3 variables."""
    monomials = ("x,x", "x,y", "x,z", "y,y", "y,z", "z,z")
    coeffs = [_rational(rng) for _ in monomials]
    return _system("quad", ("x", "y", "z"), ("u",),
                   [_equation((c, f"D[{m}](u)") for c, m in zip(coeffs, monomials))])


def first_order(rng):
    """Seeded first-order scalar equation in 4 variables."""
    variables = ("x1", "x2", "x3", "x4")
    coeffs = [_rational(rng) for _ in variables]
    return _system("first", variables, ("u",),
                   [_equation((c, f"D[{v}](u)") for c, v in zip(coeffs, variables))])


KILLING = _system(
    "killing", ("x", "y", "z"), ("u", "v", "w"),
    [
        "D[x](u) = 0", "D[y](v) = 0", "D[z](w) = 0",
        "D[y](u) + D[x](v) = 0", "D[z](u) + D[x](w) = 0", "D[z](v) + D[y](w) = 0",
    ],
)
TRICOMI = _system("tricomi", ("x", "y"), ("u",), ["y*D[x,x](u) + D[y,y](u) = 0"])
WAVE = _system("wave", ("t", "x"), ("u",), ["D[t,t](u) - D[x,x](u) = 0"])
CAUCHY_RIEMANN = _system("cr", ("x", "y"), ("u",), ["1/2*D[x](u) + 1/2*i*D[y](u) = 0"])


def lame(lam, mu):
    """2-D Lame operator mu*Lap(u) + (lam + mu)*grad(div u)."""
    return _system("lame", ("x", "y"), ("u", "v"), [
        _equation(((lam + 2 * mu, "D[x,x](u)"), (mu, "D[y,y](u)"), (lam + mu, "D[x,y](v)"))),
        _equation(((lam + mu, "D[x,y](u)"), (mu, "D[x,x](v)"), (lam + 2 * mu, "D[y,y](v)"))),
    ])


def _decimal(rng, lo, hi, places=4):
    return f"{rng.uniform(lo, hi):.{places}f}"


def jet_jobs(rng):
    quad, first = quadric(rng), first_order(rng)
    return [
        Job("involutivity", ["involutivity", "quad.pde", "--bound", str(INVOLUTIVITY_BOUND)],
            "involutivity_degree", {"degree": 0}, {"quad.pde": quad}),
        Job("poincare", ["poincare", "quad.pde", "--order", str(POINCARE_ORDER)],
            "quadric_poincare", {"order": POINCARE_ORDER}, {"quad.pde": quad}),
        Job("spencer", ["spencer", "first.pde", "--order", str(SPENCER_ORDER)],
            "first_order_spencer", {"order": SPENCER_ORDER}, {"first.pde": first}),
        Job("prolong", ["prolong", "first.pde", "--count", str(PROLONG_COUNT)],
            "first_order_prolong", {"count": PROLONG_COUNT}, {"first.pde": first}),
        Job("finite-type", ["finite-type", "killing.pde", "--connection"],
            "killing_finite_type", {}, {"killing.pde": KILLING}),
    ]


def microlocal_jobs(rng):
    grid_seed = rng.randint(0, 10**6)
    mu = _rational(rng, 5)
    if rng.random() < 0.25:
        lam = -2 * mu  # degenerate: the symbol determinant vanishes identically
    else:
        lam = _rational(rng, 5)
        while lam + 2 * mu == 0:
            lam = _rational(rng, 5)
    twist = rng.randint(-6, 12)
    return [
        Job("classify-tricomi",
            ["classify", "tricomi.pde", "--grid", str(TRICOMI_GRID), "--direction", "0,1",
             "--seed", str(grid_seed)],
            "tricomi_labels", {"grid": TRICOMI_GRID, "seed": grid_seed},
            {"tricomi.pde": TRICOMI}),
        Job("kunneth-wave", ["kunneth", "wave.pde", "--copies", str(KUNNETH_COPIES)],
            "kunneth_all_passed", {"copies": KUNNETH_COPIES}, {"wave.pde": WAVE}),
        Job("elliptic-killing", ["classify", "killing.pde", "--mode", "elliptic"],
            "killing_elliptic", {}, {"killing.pde": KILLING}),
        Job("elliptic-lame", ["classify", "lame.pde", "--mode", "elliptic"],
            "lame_elliptic", {"lambda": str(lam), "mu": str(mu)}, {"lame.pde": lame(lam, mu)}),
        Job("hyperbolic-wave", ["classify", "wave.pde", "--mode", "hyperbolic", "--direction", "1,0"],
            "wave_hyperbolic", {}, {"wave.pde": WAVE}),
        Job("restrict-tricomi", ["restrict", "tricomi.pde", "--subspace", "1,0"],
            "tricomi_noncharacteristic", {"subspace": [1, 0]}, {"tricomi.pde": TRICOMI}),
        Job("index-cr", ["index", "cr.pde", "--model", "P1"],
            "cauchy_riemann_index", {}, {"cr.pde": CAUCHY_RIEMANN}),
        Job("grr-p2", ["grr", "--model", "P2", "--twist", str(twist)],
            "grr_p2", {"twist": twist}),
    ]


def spectral_jobs(rng):
    jobs = []
    for k in range(TAU_COUNT):
        # "--tau=re,im": a negative real part would otherwise read as an option
        tau = f"{_decimal(rng, -0.5, 0.5)},{_decimal(rng, 0.6, 1.5)}"
        jobs += [
            Job(f"det-torus-{k}", ["det", "--model", "torus", f"--tau={tau}"],
                "torus_det", {"tau": tau}),
            Job(f"torsion-torus-{k}", ["torsion", "--model", "torus", f"--tau={tau}"],
                "torus_torsion", {"tau": tau}),
            Job(f"bcov-{k}", ["bcov", f"--tau={tau}"], "bcov", {"tau": tau}),
        ]
    length_det, length_fd, length_q = (_decimal(rng, 0.5, 10.0) for _ in range(3))
    a, b = _decimal(rng, 0.5, 3.0), _decimal(rng, 0.5, 3.0)
    squared = repr(float(length_q) ** 2)
    jobs += [
        Job("det-circle-em",
            ["det", "--model", "circle", "--length", length_det, "--method", "euler_maclaurin"],
            "circle_det", {"length": length_det}),
        Job("det-rectangle", ["det", "rect.pde", "--spectrum", "box"],
            "rectangle_det", {"a": a, "b": b},
            {"rect.pde": f"spectrum box {{ kind rectangle; a {a}; b {b}; }}\n"}),
        Job("crosscheck", ["crosscheck", "--length", length_fd, "--n", str(CROSSCHECK_POINTS)],
            "circle_crosscheck", {"length": length_fd}),
        Job("quillen", ["quillen", "--l2", "1", "--dets", f"0:{squared},1:{squared}"],
            "quillen_norm", {"length": length_q}),
    ]
    return jobs


# Why each workload exists is recorded in BENCHMARK.json and README.md.
GENERATORS = {"jet": jet_jobs, "microlocal": microlocal_jobs, "spectral": spectral_jobs}
WORKLOADS = tuple(GENERATORS)


def jobs(workload, seed):
    """The job list of ``workload`` for ``seed``."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def job_list_bytes(job_list):
    return json.dumps([asdict(j) for j in job_list], sort_keys=True).encode("utf-8")
