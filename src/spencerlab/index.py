"""Index computations: Euler characteristics, ch.Td integrals on model
rings, boundary decomposition.

The microlocal and jet layers are imported by the functions that use them,
so the integral commands (grr, boundary-index) start without them."""

from __future__ import annotations

from collections import namedtuple

from .chern import CharacterClass, log_todd_class, model_tangent_euler, model_tangent_todd
from .errors import NonIntegerIndexError, PreconditionError

IndexReport = namedtuple("IndexReport", "index method breakdown")


def spencer_euler_characteristic(table) -> int:
    """Alternating sum of a {degree: dim} table."""
    return sum((-1) ** int(i) * int(d) for i, d in table.items())


def grr_index(symbol_class: CharacterClass) -> IndexReport:
    """Exact integral of symbol_class . Td(T) over the class's model; the
    result must be an integer or the class data is inconsistent."""
    model = symbol_class.model
    tangent_todd = model_tangent_todd(model)
    total = (symbol_class * tangent_todd).integrate()
    if total.imag or total.real.denominator != 1:
        raise NonIntegerIndexError(
            f"index integral {total!r} is not an integer; class data inconsistent"
        )
    breakdown = {}
    for d in range(model.top_degree + 1):
        part = (
            symbol_class.graded_component(d)
            * tangent_todd.graded_component(model.top_degree - d)
        ).integrate()
        if part:
            breakdown[f"ch_{d}.td_{model.top_degree - d}"] = str(part.real)
    return IndexReport(int(total), "grr_integral", breakdown)


def atiyah_singer_index(sys, symbol_class: CharacterClass, seed=0) -> IndexReport:
    """Zero-section pullback integral for a system certified elliptic on the
    default grid of the given seed."""
    from .microlocal import is_elliptic

    verdict, certificate = is_elliptic(sys, seed=seed)
    if not verdict:
        raise PreconditionError(f"system is not elliptic: {certificate}")
    report = grr_index(symbol_class)
    return IndexReport(report.index, "as_specialization", report.breakdown)


def de_rham_class(model) -> CharacterClass:
    """K-class of the de Rham complex: Euler class over the Todd class,
    e(T) exp(-log Td), an exact inverse since log Td has no degree-0 part."""
    log_td = log_todd_class(model, classes=model.tangent_classes)
    return model_tangent_euler(model) * (log_td * -1).exp()


# -- the boundary rule ---------------------------------------------------------------


def boundary_index(interior, boundary):
    """Cone relation: (Ind, Ind_boundary, Ind_rel = Ind - Ind_boundary)."""
    ind = spencer_euler_characteristic(interior)
    ind_b = spencer_euler_characteristic(boundary) if boundary is not None else 0
    return ind, ind_b, ind - ind_b
