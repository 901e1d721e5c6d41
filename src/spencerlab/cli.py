"""Command-line surface: one subcommand per engine operation.

Exit codes: 0 success, 2 parse error, 3 precondition violation, 4 numeric
failure.  All work runs on one thread.  All randomized grids are seeded
and the seed is echoed in the report.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .chern import get_model, model_tangent_todd
from .dsl import parse_pde_dsl
from .errors import (
    NumericError,
    ParseError,
    PreconditionError,
    SpencerLabError,
)
from .index import (
    atiyah_singer_index,
    boundary_index,
    de_rham_class,
    dolbeault_class,
    grr_index,
    twisted_dolbeault_class,
)
from .microlocal import (
    Region,
    characteristic_ideal,
    classify_mixed,
    default_grid,
    external_product_char,
    factorization_check,
    is_elliptic,
    is_hyperbolic,
    noncharacteristic_restrict,
)
from .reports import ReportDocument, emit_report, input_hash
from .spencer import (
    delta_cohomology,
    involutivity_degree,
    is_finite_type,
    poincare_series,
    spencer_complex,
    to_flat_connection,
)
from .symbols import geometric_symbol, prolong, symbol_space

COMMANDS = (
    "symbol", "prolong", "spencer", "involutivity", "finite-type", "poincare",
    "classify", "restrict", "kunneth", "index", "grr", "boundary-index",
    "torsion", "det", "bcov", "quillen", "crosscheck",
)


def _copies(text):
    """argparse type: a factorization check needs at least two copies."""
    if not text.isdigit() or int(text) < 2:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 2")
    return int(text)


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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spencerlab",
        description="jet calculus, microlocal classification, index integrals "
        "and zeta-regularized torsion for linear PDE systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, needs_file=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if needs_file:
            p.add_argument("file", help="PDE DSL document")
            p.add_argument("--system", help="system name (default: the only one)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tolerance", type=_finite_float, default=None)
        return p

    p = add("symbol", needs_file=True)
    p.add_argument("--order", type=int, default=None)
    p = add("prolong", needs_file=True)
    p.add_argument("--count", type=int, default=1)
    p = add("spencer", needs_file=True)
    p.add_argument("--order", type=int, default=None, help="maximal symbol order")
    p.add_argument("--depth", type=int, default=None)
    p = add("involutivity", needs_file=True)
    p.add_argument("--bound", type=int, default=6)
    p = add("finite-type", needs_file=True)
    p.add_argument("--bound", type=int, default=6)
    p.add_argument("--connection", action="store_true",
                   help="also reduce to a flat connection")
    p = add("poincare", needs_file=True)
    p.add_argument("--order", type=int, default=8)
    p = add("classify", needs_file=True)
    p.add_argument("--direction", default=None, help="covector like 1,0")
    p.add_argument("--region", default=None, help="region block name")
    p.add_argument("--cones", default=None, help="two cone names: a,b")
    p.add_argument("--grid", type=int, default=None,
                   help="random base points (default 4)")
    p.add_argument("--mode", choices=("labels", "elliptic", "hyperbolic"),
                   default="labels")
    p = add("restrict", needs_file=True)
    p.add_argument("--subspace", required=True,
                   help="embedding columns like '1,0' or '1,0;0,1'")
    p = add("kunneth", needs_file=True)
    p.add_argument("--other", default=None, help="second system (default: same)")
    p.add_argument("--copies", type=_copies, default=None,
                   help="run the factorization checks up to this many copies")
    p = add("index", needs_file=False)
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--system", default=None)
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
    p.add_argument("--length", type=_finite_float, default=None)
    p.add_argument("--tau", default=None, help="re,im")
    p.add_argument("--convention", choices=("exp_full", "product_half"),
                   default="exp_full")
    p = add("det")
    p.add_argument("file", nargs="?", default=None, help="DSL file with spectrum blocks")
    p.add_argument("--spectrum", default=None, help="spectrum block name from the file")
    p.add_argument("--model", choices=("circle", "torus"), default=None)
    p.add_argument("--length", type=_finite_float, default=None)
    p.add_argument("--tau", default=None)
    p.add_argument("--method", default="auto",
                   choices=("auto", "closed_form", "euler_maclaurin", "mellin_theta"))
    p.add_argument("--scale", type=_finite_float, default=1.0)
    p = add("bcov")
    p.add_argument("--tau", required=True)
    p.add_argument("--area", type=_positive_float, default=1.0)
    p.add_argument("--chi", type=int, default=0)
    p.add_argument("--scale", type=_finite_float, default=1.0)
    p = add("quillen")
    p.add_argument("--l2", type=_finite_float, required=True)
    p.add_argument("--dets", required=True, help="degree:value pairs like 0:1.0,1:2.5")
    p = add("crosscheck")
    p.add_argument("--length", type=_positive_float, required=True)
    p.add_argument("--n", type=int, default=64)
    return parser


def _load_document(args):
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {args.file!r}: {exc}") from None
    return parse_pde_dsl(text), text


def _pick_system(doc, args):
    if getattr(args, "system", None):
        if args.system not in doc.systems:
            raise PreconditionError(
                f"no system named {args.system!r}; have {sorted(doc.systems)}"
            )
        return doc.systems[args.system]
    if len(doc.systems) != 1:
        raise PreconditionError(
            f"document has {len(doc.systems)} systems; pass --system"
        )
    return next(iter(doc.systems.values()))


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


def _symbol_class_for(args, model):
    if args.twist is not None or args.symbol_class == "twist":
        return twisted_dolbeault_class(model, args.twist or 0)
    if args.symbol_class == "de-rham":
        return de_rham_class(model)
    return dolbeault_class(model)


def dispatch(args):
    """Route one parsed CLI invocation to its engine; returns the payload."""
    cmd = args.command
    source_hash = ""
    provenance = {"threads": 1}

    if cmd == "symbol":
        doc, text = _load_document(args)
        sys_ = _pick_system(doc, args)
        source_hash = input_hash(text)
        q = args.order if args.order is not None else sys_.order
        space = symbol_space(sys_, q) if q != sys_.order else geometric_symbol(sys_)
        payload = {
            "system": sys_.name,
            "degree": q,
            "dimension": space.dim,
            "ambient_dimension": space.ambient_dim,
        }
    elif cmd == "prolong":
        doc, text = _load_document(args)
        sys_ = _pick_system(doc, args)
        source_hash = input_hash(text)
        space = geometric_symbol(sys_)
        dims = [space.dim]
        for _ in range(args.count):
            space = prolong(space, 1)
            dims.append(space.dim)
        payload = {"system": sys_.name, "dimensions": dims,
                   "orders": list(range(sys_.order, sys_.order + args.count + 1))}
    elif cmd == "spencer":
        doc, text = _load_document(args)
        sys_ = _pick_system(doc, args)
        source_hash = input_hash(text)
        cx = spencer_complex(sys_, depth=args.depth, max_order=args.order)
        table = delta_cohomology(cx)
        payload = {
            "system": sys_.name,
            "max_order": cx.max_order,
            "symbol_dimensions": {str(q): cx.symbols[q].dim for q in cx.symbols},
            "cohomology": {f"{q},{i}": d for (q, i), d in sorted(table.entries.items())},
        }
    elif cmd == "involutivity":
        doc, text = _load_document(args)
        sys_ = _pick_system(doc, args)
        source_hash = input_hash(text)
        l0, table = involutivity_degree(sys_, search_bound=args.bound)
        payload = {
            "system": sys_.name,
            "involutivity_degree": l0,
            "found": l0 is not None,
            "search_bound": args.bound,
            "nonzero_cohomology": {
                f"{q},{i}": d for (q, i), d in sorted(table.entries.items()) if d
            },
        }
    elif cmd == "finite-type":
        doc, text = _load_document(args)
        sys_ = _pick_system(doc, args)
        source_hash = input_hash(text)
        finite, l0 = is_finite_type(sys_, bound=args.bound)
        payload = {"system": sys_.name, "finite_type": finite, "l0": l0}
        if finite:
            from .spencer import solution_dim_bound

            payload["solution_dimension_bound"] = solution_dim_bound(sys_)
            if args.connection:
                flat = to_flat_connection(sys_)
                payload["flat_rank"] = flat.rank
                payload["flat"] = flat.flatness_checked
    elif cmd == "poincare":
        doc, text = _load_document(args)
        sys_ = _pick_system(doc, args)
        source_hash = input_hash(text)
        payload = {
            "system": sys_.name,
            "coefficients": poincare_series(sys_, args.order),
        }
    elif cmd == "classify":
        _check_classify_options(args)
        doc, text = _load_document(args)
        sys_ = _pick_system(doc, args)
        source_hash = input_hash(text)
        region = Region.everywhere()
        if args.region:
            if args.region not in doc.regions:
                raise PreconditionError(f"no region named {args.region!r}")
            region = doc.regions[args.region]
        direction = (_parse_vector(args.direction, "--direction", sys_.n)
                     if args.direction else None)
        if args.mode == "elliptic":
            ok, cert = is_elliptic(sys_, seed=args.seed)
            payload = {"system": sys_.name, "elliptic": ok, "certificate": cert}
        elif args.mode == "hyperbolic":
            if direction is None:
                raise PreconditionError("--direction is required for hyperbolicity")
            rep = is_hyperbolic(sys_, direction, seed=args.seed)
            payload = {
                "system": sys_.name,
                "hyperbolic": rep.value,
                "status": rep.status,
                "certificate": rep.certificate,
            }
        else:
            grid = default_grid(sys_, base_count=args.grid, seed=args.seed,
                                region=region if args.region else None)
            cones = None
            if args.cones:
                names = args.cones.split(",")
                if len(names) != 2:
                    raise ParseError(f"--cones needs two cone names a,b, got {args.cones!r}")
                cones = tuple(_named(doc.cones, c, "--cones", "cone") for c in names)
            report = classify_mixed(
                sys_, region, grid,
                directions=[direction] if direction else None,
                cones=cones,
            )
            payload = {
                "system": sys_.name,
                "samples": len(grid),
                "strata": report.strata,
                "labels": report.labels,
                "counterexamples": report.counterexamples,
                "cone_check": report.cone_check,
            }
    elif cmd == "restrict":
        doc, text = _load_document(args)
        sys_ = _pick_system(doc, args)
        source_hash = input_hash(text)
        columns = [_parse_vector(c, "--subspace", sys_.n) for c in args.subspace.split(";")]
        restricted, ok, cert = noncharacteristic_restrict(sys_, columns)
        payload = {
            "system": sys_.name,
            "noncharacteristic": ok,
            "certificate": cert,
        }
        if restricted is not None:
            payload["restricted_order"] = restricted.order
            payload["restricted_vars"] = list(restricted.indep_vars)
            payload["restricted_equations"] = len(restricted.equations)
    elif cmd == "kunneth":
        doc, text = _load_document(args)
        sys_ = _pick_system(doc, args)
        source_hash = input_hash(text)
        if args.copies is not None:
            payload = {
                "system": sys_.name,
                "factorization": factorization_check(sys_, max_copies=args.copies),
            }
        else:
            other = _named(doc.systems, args.other, "--other", "system") if args.other else sys_
            cv, ok = external_product_char(sys_, other)
            cva = characteristic_ideal(sys_)
            cvb = characteristic_ideal(other)
            payload = {
                "system": sys_.name,
                "other": other.name,
                "kunneth_ok": ok,
                "dimension": cv.dimension,
                "dimension_additivity": cv.dimension == (cva.dimension + cvb.dimension),
            }
    elif cmd == "index":
        model = get_model(args.model)
        symbol_class = _symbol_class_for(args, model)
        if args.file:
            doc, text = _load_document(args)
            sys_ = _pick_system(doc, args)
            source_hash = input_hash(text)
            report = atiyah_singer_index(sys_, model, symbol_class)
        else:
            report = grr_index(symbol_class, model_tangent_todd(model), model)
        payload = {
            "model": args.model,
            "index": report.index,
            "method": report.method,
            "breakdown": report.breakdown,
        }
    elif cmd == "grr":
        model = get_model(args.model)
        report = grr_index(
            twisted_dolbeault_class(model, args.twist), model_tangent_todd(model), model
        )
        payload = {
            "model": args.model,
            "twist": args.twist,
            "index": report.index,
            "breakdown": report.breakdown,
        }
    elif cmd == "boundary-index":
        interior = _parse_table(args.interior, "--interior", int, bare_degree=True)
        boundary = (_parse_table(args.boundary, "--boundary", int, bare_degree=True)
                    if args.boundary else None)
        ind, ind_b, ind_rel = boundary_index(interior, boundary)
        payload = {"index": ind, "boundary_index": ind_b, "relative_index": ind_rel}
    elif cmd == "torsion":
        from .spectra import SpectrumModel
        from .torsion import ray_singer_torsion

        if args.model == "circle":
            if args.length is None:
                raise PreconditionError("--length required for the circle model")
            base = SpectrumModel.circle(args.length)
            spectra = {0: base, 1: base}
        else:
            tau = _parse_tau(args.tau)
            base = SpectrumModel.flat_torus(tau)
            spectra = {0: base, 1: SpectrumModel.direct_sum(base, base), 2: base}
        report = ray_singer_torsion(spectra, convention=args.convention)
        payload = {
            "model": args.model,
            "torsion": report.torsion,
            "convention": report.convention,
            "per_degree": report.per_degree,
            "error_bound": report.error_bound,
        }
        provenance["methods"] = sorted(
            {d["method"] for d in report.per_degree.values()}
        )
    elif cmd == "det":
        from .spectra import SpectrumModel
        from .zeta import regularized_det, zeta_at

        if args.spectrum is not None:
            if args.file is None:
                raise PreconditionError("--spectrum needs a DSL file argument")
            doc, text = _load_document(args)
            source_hash = input_hash(text)
            if args.spectrum not in doc.spectra:
                raise PreconditionError(
                    f"no spectrum named {args.spectrum!r}; have {sorted(doc.spectra)}"
                )
            spec = doc.spectra[args.spectrum]
        elif args.model == "circle":
            if args.length is None:
                raise PreconditionError("--length required for the circle model")
            spec = SpectrumModel.circle(args.length)
        elif args.model == "torus":
            spec = SpectrumModel.flat_torus(_parse_tau(args.tau))
        else:
            raise PreconditionError("det needs --model or a --spectrum block")
        if args.scale != 1.0:
            spec = spec.scaled(args.scale)
        value, err, method = regularized_det(spec, method=args.method)
        zeta0 = zeta_at(spec, 0)
        payload = {
            "model": args.model or args.spectrum,
            "det": float(value),
            "zeta0": float(zeta0.value.real if hasattr(zeta0.value, "real") else zeta0.value),
            "error_bound": err,
            "method": method,
            "zero_modes": spec.zero_modes,
        }
        provenance["methods"] = [method]
        if args.tolerance is not None and err > args.tolerance:
            raise NumericError(
                f"error bound {err} exceeds requested tolerance {args.tolerance}"
            )
    elif cmd == "bcov":
        from .torsion import bcov_invariant_model

        payload = bcov_invariant_model(
            _parse_tau(args.tau), area=args.area, chi=args.chi, lattice_scale=args.scale
        )
    elif cmd == "quillen":
        from .torsion import quillen_norm

        payload = {
            "quillen_norm": quillen_norm(
                args.l2, _parse_table(args.dets, "--dets", _finite_float)
            ),
        }
    elif cmd == "crosscheck":
        from .torsion import fd_spectrum_crosscheck

        payload = fd_spectrum_crosscheck(args.length, args.n)
    else:  # pragma: no cover - argparse guards the command set
        raise PreconditionError(f"unknown command {cmd!r}")

    return ReportDocument(
        command=cmd,
        arguments={
            k: v for k, v in vars(args).items() if k not in ("command",) and v is not None
        },
        payload=payload,
        source_hash=source_hash,
        seed=getattr(args, "seed", None),
        provenance=provenance,
    )


def _check_classify_options(args):
    """Options that only the labels mode reads are an error in the other
    modes; --grid falls back to its default only after this check."""
    if args.mode != "labels":
        given = [opt for opt in ("region", "cones", "grid")
                 if getattr(args, opt) is not None]
        if args.mode == "elliptic" and args.direction is not None:
            given.append("direction")
        if given:
            options = ", ".join(f"--{opt}" for opt in given)
            raise ParseError(f"{options}: not used by --mode {args.mode}")
    if args.grid is None:
        args.grid = 4


def _parse_tau(text):
    if text is None:
        raise PreconditionError("--tau required for the torus model")
    try:
        parts = [_finite_float(x) for x in str(text).split(",")]
    except argparse.ArgumentTypeError:
        parts = []
    if len(parts) not in (1, 2):
        raise ParseError(f"--tau: {text!r} is not 'im' or 're,im' in finite numbers")
    return complex(0.0, parts[0]) if len(parts) == 1 else complex(*parts)


def main(argv=None):
    parser = build_parser()
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
    sys.stdout.buffer.write(out)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
