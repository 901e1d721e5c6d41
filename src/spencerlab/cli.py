"""Command-line surface: one subcommand per engine operation.

Exit codes: 0 success, 1 stdout closed before the report was written,
2 parse error, 3 precondition violation, 4 numeric failure.  All work runs
on one thread.  The commands with a random grid (classify, restrict, and
index with a DSL file) take ``--seed`` and echo it in the report; the
others reject it.

``COMMANDS`` maps each subcommand to one handler, and each handler imports
the engine layer it runs: the numeric commands start without the exact
stack, and the exact commands without the spectral layer.  No command
needs anything beyond the standard library: the spectral layer computes
in ``decimal``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from functools import cached_property

from .errors import NumericError, ParseError, PreconditionError, SpencerLabError
from .reports import ReportDocument, emit_report, input_hash, to_float


def _int_at_least(low):
    """argparse type: a decimal integer no smaller than low."""

    def parse(text):
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
        return int(text)

    return parse


def _finite_float(text):
    """argparse type: a float that is neither nan nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _positive_float(text):
    """argparse type: a finite float above zero."""
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return value


def _nonnegative_float(text):
    """argparse type: a finite float no smaller than zero."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number >= 0")
    return value


class _Unbuilt:
    """Stands in for a subparser that build_parser leaves out."""

    def add_argument(self, *args, **kwargs):
        pass


def build_parser(command=None):
    """The CLI parser.  Given a subcommand name, only its subparser is built
    (the others cost start-up time); the top-level usage still spells every
    choice, so usage and error text are those of the full parser."""
    parser = argparse.ArgumentParser(
        prog="spencerlab",
        description="jet calculus, microlocal classification, index integrals "
        "and zeta-regularized torsion for linear PDE systems",
    )
    only = command in COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{%s}" % ",".join(COMMANDS) if only else None)

    def add(name, needs_file=False, seeded=False):
        if only and name != command:
            return _Unbuilt()
        p = sub.add_parser(name)
        if needs_file:
            p.add_argument("file", help="PDE DSL document")
            p.add_argument("--system", help="system name (default: the only one)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="seed of the random grid")
        return p

    p = add("symbol", needs_file=True)
    p.add_argument("--order", type=_int_at_least(0), default=None)
    p = add("prolong", needs_file=True)
    p.add_argument("--count", type=_int_at_least(0), default=1)
    p = add("spencer", needs_file=True)
    p.add_argument("--order", type=_int_at_least(0), default=None, help="maximal symbol order")
    p = add("involutivity", needs_file=True)
    p.add_argument("--bound", type=_int_at_least(0), default=6)
    p = add("finite-type", needs_file=True)
    p.add_argument("--bound", type=_int_at_least(1), default=6)
    p.add_argument("--connection", action="store_true",
                   help="also reduce to a flat connection")
    p = add("poincare", needs_file=True)
    p.add_argument("--order", type=_int_at_least(0), default=8)
    p = add("classify", needs_file=True, seeded=True)
    p.add_argument("--direction", default=None, help="covector like 1,0")
    p.add_argument("--region", default=None, help="region block name")
    p.add_argument("--cones", default=None, help="two cone names: a,b")
    p.add_argument("--grid", type=_int_at_least(1), default=None,
                   help="random base points (default 4)")
    p.add_argument("--mode", choices=("labels", "elliptic", "hyperbolic"),
                   default="labels")
    p = add("restrict", needs_file=True, seeded=True)
    p.add_argument("--subspace", required=True,
                   help="embedding columns like '1,0' or '1,0;0,1'")
    p = add("kunneth", needs_file=True)
    p.add_argument("--other", default=None, help="second system (default: same)")
    p.add_argument("--copies", type=_int_at_least(2), default=None,
                   help="run the factorization checks up to this many copies")
    p = add("index")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--system", default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the random grid (with a file; default 0)")
    p.add_argument("--model", required=True)
    p.add_argument("--twist", type=int, default=None)
    p.add_argument("--symbol-class", dest="symbol_class", default="dolbeault",
                   choices=("dolbeault", "de-rham", "twist"))
    p = add("grr")
    p.add_argument("--model", required=True)
    p.add_argument("--twist", type=int, default=0)
    p = add("boundary-index")
    p.add_argument("--interior", required=True, help="table like 0:1,1:2")
    p.add_argument("--boundary", default=None)
    p = add("torsion")
    p.add_argument("--model", choices=("circle", "torus"), required=True)
    p.add_argument("--length", type=_positive_float, default=None)
    p.add_argument("--tau", default=None, help="re,im")
    p.add_argument("--convention", choices=("exp_full", "product_half"),
                   default="exp_full")
    p = add("det")
    p.add_argument("file", nargs="?", default=None, help="DSL file with spectrum blocks")
    p.add_argument("--spectrum", default=None, help="spectrum block name from the file")
    p.add_argument("--model", choices=("circle", "torus"), default=None)
    p.add_argument("--length", type=_positive_float, default=None)
    p.add_argument("--tau", default=None)
    p.add_argument("--method", default="auto",
                   choices=("auto", "closed_form", "euler_maclaurin", "mellin_theta"))
    p.add_argument("--scale", type=_positive_float, default=1.0)
    p.add_argument("--tolerance", type=_nonnegative_float, default=None)
    p = add("bcov")
    p.add_argument("--tau", required=True)
    p.add_argument("--area", type=_positive_float, default=1.0)
    p.add_argument("--chi", type=int, default=0)
    p.add_argument("--scale", type=_positive_float, default=1.0)
    p = add("quillen")
    p.add_argument("--l2", type=_positive_float, required=True)
    p.add_argument("--dets", required=True, help="degree:value pairs like 0:1.0,1:2.5")
    p = add("crosscheck")
    p.add_argument("--length", type=_positive_float, required=True)
    p.add_argument("--n", type=_int_at_least(8), default=64)
    return parser


class _Job:
    """One invocation: the document it names, read, parsed and hashed on
    first use, and the arguments and provenance its report carries."""

    def __init__(self, args):
        self.args = args
        self.arguments = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
        self.source_hash = ""
        self.provenance = {"threads": 1}

    @cached_property
    def doc(self):
        from .dsl import parse_pde_dsl

        try:
            with open(self.args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {self.args.file!r}: {exc}") from None
        doc = parse_pde_dsl(text)
        self.source_hash = input_hash(text)
        return doc

    @cached_property
    def system(self):
        """The system named by --system, or the document's only one."""
        systems, name = self.doc.systems, self.args.system
        if name is not None:
            return _named(systems, name, "--system", "system")
        if len(systems) != 1:
            raise PreconditionError(f"document has {len(systems)} systems; pass --system")
        return next(iter(systems.values()))


def _parse_vector(text, option, n):
    """A comma-separated rational vector like 1,-1/2, one entry per variable."""
    try:
        vec = tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{option}: {text!r} is not a list of rationals") from None
    if len(vec) != n:
        raise ParseError(f"{option}: {text!r} has {len(vec)} entries for {n} variables")
    return vec


def _named(table, name, option, kind):
    """A document block named on the command line; unknown names are a
    parse error of the option."""
    if name not in table:
        raise ParseError(f"{option}: no {kind} named {name!r}; have {sorted(table)}")
    return table[name]


def _parse_table(text, option, value, bare_degree=False):
    """A degree:value table like 0:1,1:2.5; with bare_degree, an item
    without a colon is the value in degree 0."""
    table = {}
    for item in text.split(","):
        k, colon, v = item.partition(":")
        if bare_degree and not colon:
            k, v = "0", item
        try:
            degree, entry = int(k), value(v)
        except (ValueError, argparse.ArgumentTypeError):
            raise ParseError(f"{option}: {item!r} is not a degree:value pair") from None
        if degree in table:
            raise ParseError(f"{option}: degree {degree} is given twice")
        table[degree] = entry
    return table


def _parse_tau(text):
    if text is None:
        raise ParseError("--tau required for the torus model")
    try:
        parts = [_finite_float(x) for x in str(text).split(",")]
    except argparse.ArgumentTypeError:
        parts = []
    if len(parts) not in (1, 2):
        raise ParseError(f"--tau: {text!r} is not 'im' or 're,im' in finite numbers")
    return complex(0.0, parts[0]) if len(parts) == 1 else complex(*parts)


def _reject_unused(args, options, mode):
    """A parse error naming each of the options given although mode does
    not read them."""
    given = [f"--{opt}" for opt in options if getattr(args, opt) is not None]
    if given:
        raise ParseError(f"{', '.join(given)}: not used {mode}")


def _model_spectrum(args):
    """The --model spectrum: the circle of --length or the flat torus of --tau."""
    from .spectra import SpectrumModel

    if args.model == "circle":
        _reject_unused(args, ("tau",), "by --model circle")
        if args.length is None:
            raise ParseError("--length required for the circle model")
        return SpectrumModel.circle(args.length)
    _reject_unused(args, ("length",), "by --model torus")
    return SpectrumModel.flat_torus(_parse_tau(args.tau))


# -- handlers: (args, job) -> report payload -------------------------------------------


def _symbol(args, job):
    from .symbols import symbol_space

    sys_ = job.system
    q = args.order if args.order is not None else sys_.order
    space = symbol_space(sys_, q)
    return {"system": sys_.name, "degree": q, "dimension": space.dim,
            "ambient_dimension": space.ambient_dim}


def _prolong(args, job):
    from .symbols import check_jet_budget, symbol_space

    sys_ = job.system
    orders = range(sys_.order, sys_.order + args.count + 1)
    check_jet_budget(sys_.n, sys_.m, orders[-1])
    return {"system": sys_.name, "orders": list(orders),
            "dimensions": [symbol_space(sys_, q).dim for q in orders]}


def _spencer(args, job):
    from .spencer import delta_cohomology, spencer_complex

    sys_ = job.system
    cx = spencer_complex(sys_, max_order=args.order)
    table = delta_cohomology(cx)
    return {
        "system": sys_.name,
        "max_order": cx.max_order,
        "symbol_dimensions": {str(q): cx.symbols[q].dim for q in cx.symbols},
        "cohomology": {f"{q},{i}": d for (q, i), d in sorted(table.entries.items())},
    }


def _involutivity(args, job):
    from .spencer import involutivity_degree

    sys_ = job.system
    l0, table = involutivity_degree(sys_, search_bound=args.bound)
    return {
        "system": sys_.name,
        "involutivity_degree": l0,
        "found": l0 is not None,
        "search_bound": args.bound,
        "nonzero_cohomology": {
            f"{q},{i}": d for (q, i), d in sorted(table.entries.items()) if d
        },
    }


def _finite_type(args, job):
    from .spencer import finite_type_dimensions, to_flat_connection

    sys_ = job.system
    dims = finite_type_dimensions(sys_, bound=args.bound)
    finite = dims[-1] == 0
    payload = {"system": sys_.name, "finite_type": finite,
               "l0": len(dims) - 2 if finite else None}
    if finite:
        payload["solution_dimension_bound"] = sum(dims)
        if args.connection:
            # to_flat_connection returns only connections whose curvature vanishes
            payload["flat_rank"] = to_flat_connection(sys_, bound=args.bound).rank
            payload["flat"] = True
    return payload


def _poincare(args, job):
    from .spencer import poincare_series

    sys_ = job.system
    return {"system": sys_.name, "coefficients": poincare_series(sys_, args.order)}


def _check_classify_options(args, job):
    """Options that only the labels mode reads are an error in the other
    modes; --grid falls back to its default only after this check, in the
    report's arguments and not in args, so args can be dispatched again."""
    if args.mode != "labels":
        unused = ("region", "cones", "grid") + (("direction",) if args.mode == "elliptic" else ())
        _reject_unused(args, unused, f"by --mode {args.mode}")
    job.arguments.setdefault("grid", 4)


def _classify(args, job):
    from .microlocal import Region, classify_mixed, default_grid, is_elliptic, is_hyperbolic

    _check_classify_options(args, job)
    sys_, doc = job.system, job.doc
    region = Region.everywhere()
    if args.region is not None:  # a region reads the system's variables by name
        conditions = _named(doc.regions, args.region, "--region", "region").conditions
        lacking = [v for poly, _ in conditions for v in poly.vars if v not in sys_.indep_vars]
        if lacking:
            raise ParseError(f"--region: region {args.region!r} reads variable {lacking[0]!r}, "
                             f"which system {sys_.name!r} lacks")
        region = Region([(poly.extend(sys_.indep_vars), op) for poly, op in conditions])
    direction = (_parse_vector(args.direction, "--direction", sys_.n)
                 if args.direction is not None else None)
    if args.mode == "elliptic":
        ok, cert = is_elliptic(sys_, seed=args.seed)
        return {"system": sys_.name, "elliptic": ok, "certificate": cert}
    if args.mode == "hyperbolic":
        if direction is None:
            raise ParseError("--direction is required for hyperbolicity")
        rep = is_hyperbolic(sys_, direction, seed=args.seed)
        return {"system": sys_.name, "hyperbolic": rep.value, "status": rep.status,
                "certificate": rep.certificate}
    cones = None
    if args.cones is not None:
        names = args.cones.split(",")
        if len(names) != 2:
            raise ParseError(f"--cones needs two cone names a,b, got {args.cones!r}")
        cones = tuple(_named(doc.cones, c, "--cones", "cone") for c in names)
        for c, cone in zip(names, cones):
            if len(cone.generators[0]) != sys_.n:
                raise ParseError(f"--cones: cone {c!r} has generators of {len(cone.generators[0])}"
                                 f" entries for {sys_.n} variables")
    bases, covectors = default_grid(sys_, base_count=job.arguments["grid"], seed=args.seed,
                                    region=region if args.region is not None else None)
    report = classify_mixed(sys_, region, (bases, covectors),
                            directions=[direction] if direction else None, cones=cones)
    return {
        "system": sys_.name,
        "samples": len(bases) * len(covectors),
        "strata": report.strata,
        "labels": report.labels,
        "counterexamples": report.counterexamples,
        "cone_check": report.cone_check,
    }


def _restrict(args, job):
    from .microlocal import noncharacteristic_restrict

    sys_ = job.system
    columns = [_parse_vector(c, "--subspace", sys_.n) for c in args.subspace.split(";")]
    restricted, ok, cert = noncharacteristic_restrict(sys_, columns, grid_seed=args.seed)
    payload = {"system": sys_.name, "noncharacteristic": ok, "certificate": cert}
    if restricted is not None:
        payload["restricted_order"] = restricted.order
        payload["restricted_vars"] = list(restricted.indep_vars)
        payload["restricted_equations"] = len(restricted.equations)
    return payload


def _kunneth(args, job):
    from .microlocal import characteristic_ideal, external_product_char, factorization_check

    sys_ = job.system
    if args.copies is not None:
        _reject_unused(args, ("other",), "with --copies")
        return {"system": sys_.name,
                "factorization": factorization_check(sys_, max_copies=args.copies)}
    other = (sys_ if args.other is None
             else _named(job.doc.systems, args.other, "--other", "system"))
    cv, ok = external_product_char(sys_, other)
    cva = characteristic_ideal(sys_)
    cvb = characteristic_ideal(other)
    return {
        "system": sys_.name,
        "other": other.name,
        "kunneth_ok": ok,
        "dimension": cv.dimension,
        "dimension_additivity": cv.dimension == (cva.dimension + cvb.dimension),
    }


def _index(args, job):
    from .chern import MODELS, twist_class
    from .index import atiyah_singer_index, de_rham_class, grr_index

    if args.file is None:
        if args.system is not None:
            raise ParseError("--system: needs a DSL file argument")
        _reject_unused(args, ("seed",), "without a DSL file")
    if args.symbol_class == "de-rham":
        _reject_unused(args, ("twist",), "by --symbol-class de-rham")
    model = _named(MODELS, args.model, "--model", "model")
    if args.twist is not None or args.symbol_class == "twist":
        symbol_class = twist_class(model, args.twist or 0)
    elif args.symbol_class == "de-rham":
        symbol_class = de_rham_class(model)
    else:
        symbol_class = model.unit()
    if args.file is not None:
        seed = job.arguments.setdefault("seed", 0)
        report = atiyah_singer_index(job.system, symbol_class, seed=seed)
    else:
        report = grr_index(symbol_class)
    return {"model": args.model, "index": report.index, "method": report.method,
            "breakdown": report.breakdown}


def _grr(args, job):
    from .chern import MODELS, twist_class
    from .index import grr_index

    model = _named(MODELS, args.model, "--model", "model")
    report = grr_index(twist_class(model, args.twist))
    return {"model": args.model, "twist": args.twist, "index": report.index,
            "breakdown": report.breakdown}


def _boundary_index(args, job):
    from .index import boundary_index

    interior = _parse_table(args.interior, "--interior", int, bare_degree=True)
    boundary = (_parse_table(args.boundary, "--boundary", int, bare_degree=True)
                if args.boundary is not None else None)
    ind, ind_b, ind_rel = boundary_index(interior, boundary)
    return {"index": ind, "boundary_index": ind_b, "relative_index": ind_rel}


def _torsion(args, job):
    from .spectra import SpectrumModel
    from .torsion import ray_singer_torsion

    base = _model_spectrum(args)
    if args.model == "circle":
        spectra = {0: base, 1: base}
    else:
        spectra = {0: base, 1: SpectrumModel.direct_sum(base, base), 2: base}
    report = ray_singer_torsion(spectra, convention=args.convention)
    job.provenance["methods"] = sorted({d["method"] for d in report.per_degree.values()})
    return {
        "model": args.model,
        "torsion": report.torsion,
        "convention": report.convention,
        "per_degree": report.per_degree,
        "error_bound": report.error_bound,
    }


def _det(args, job):
    from .zeta import regularized_det, zeta_at_zero

    if args.spectrum is not None:
        _reject_unused(args, ("model", "length", "tau"), "with --spectrum")
        if args.file is None:
            raise ParseError("--spectrum needs a DSL file argument")
        spec = _named(job.doc.spectra, args.spectrum, "--spectrum", "spectrum")
    elif args.model is not None:
        if args.file is not None:
            raise ParseError(f"file {args.file!r}: not used by --model {args.model}")
        spec = _model_spectrum(args)
    else:
        raise ParseError("det needs --model or a --spectrum block")
    if args.scale != 1.0:
        spec = spec.scaled(args.scale)
    value, err, method = regularized_det(spec, method=args.method)
    job.provenance["methods"] = [method]
    if args.tolerance is not None and err > args.tolerance:
        raise NumericError(
            f"error bound {err} exceeds requested tolerance {args.tolerance}"
        )
    return {
        "model": args.model or args.spectrum,
        "det": to_float(value),
        "zeta0": float(zeta_at_zero(spec)),
        "error_bound": err,
        "method": method,
        "zero_modes": spec.zero_modes,
    }


def _bcov(args, job):
    from .torsion import bcov_invariant_model

    return bcov_invariant_model(
        _parse_tau(args.tau), area=args.area, chi=args.chi, lattice_scale=args.scale
    )


def _quillen(args, job):
    from .torsion import quillen_norm

    dets = _parse_table(args.dets, "--dets", _finite_float)
    return {"quillen_norm": quillen_norm(args.l2, dets)}


def _crosscheck(args, job):
    from .crosscheck import fd_spectrum_crosscheck

    return fd_spectrum_crosscheck(args.length, args.n)


COMMANDS = {
    "symbol": _symbol, "prolong": _prolong, "spencer": _spencer,
    "involutivity": _involutivity, "finite-type": _finite_type, "poincare": _poincare,
    "classify": _classify, "restrict": _restrict, "kunneth": _kunneth,
    "index": _index, "grr": _grr, "boundary-index": _boundary_index,
    "torsion": _torsion, "det": _det, "bcov": _bcov, "quillen": _quillen,
    "crosscheck": _crosscheck,
}


def dispatch(args):
    """Run one parsed CLI invocation through its handler; returns the report."""
    job = _Job(args)
    payload = COMMANDS[args.command](args, job)
    return ReportDocument(
        command=args.command,
        arguments=job.arguments,
        payload=payload,
        source_hash=job.source_hash,
        seed=job.arguments.get("seed"),
        provenance=job.provenance,
    )


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = emit_report(dispatch(args), args.format)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except PreconditionError as exc:
        sys.stderr.write(f"precondition error: {exc}\n")
        return 3
    except NumericError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return 4
    except SpencerLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    try:
        sys.stdout.buffer.write(out + b"\n")
        sys.stdout.flush()
    except BrokenPipeError:
        return 1
    return 0


def run():
    """Process entry point (``python -m spencerlab.cli`` and the console
    script): exit with main's code.  Both streams are flushed here, then
    ``os._exit`` ends the process without interpreter teardown, which would
    only free memory and cost several ms per job.  A flush that fails
    because the reader closed stdout (code 1) is dropped, so it cannot
    print an error at exit; in-process callers of main keep their
    streams."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = code or 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
