"""Index computations: Euler characteristics, ch.Td integrals on model
rings, boundary decomposition.

The microlocal and jet layers are imported by the functions that use them,
so the integral commands (grr, boundary-index) start without them."""

from __future__ import annotations

from collections import namedtuple

from .chern import (
    CharacterClass,
    get_model,
    log_todd_class,
    model_tangent_euler,
    model_tangent_todd,
    twist_class,
)
from .errors import NonIntegerIndexError, PreconditionError

IndexReport = namedtuple("IndexReport", "index method breakdown")


def spencer_euler_characteristic(table) -> int:
    """Alternating sum of a {degree: dim} table."""
    return sum((-1) ** int(i) * int(d) for i, d in table.items())


def grr_index(symbol_class: CharacterClass, tangent_todd: CharacterClass, model=None) -> IndexReport:
    """Exact integral of symbol_class . tangent_todd over the model; the
    result must be an integer or the class data is inconsistent."""
    if model is None:
        model = symbol_class.model
    if isinstance(model, str):
        model = get_model(model)
    if symbol_class.model.name != model.name or tangent_todd.model.name != model.name:
        raise PreconditionError("classes must live in the named model")
    product = symbol_class * tangent_todd
    total = product.integrate()
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


def atiyah_singer_index(sys, model, symbol_class: CharacterClass, seed=0) -> IndexReport:
    """Zero-section pullback integral for a system certified elliptic on the
    default grid of the given seed."""
    from .microlocal import is_elliptic

    if isinstance(model, str):
        model = get_model(model)
    verdict, certificate = is_elliptic(sys, seed=seed)
    if not verdict:
        raise PreconditionError(f"system is not elliptic: {certificate}")
    report = grr_index(symbol_class, model_tangent_todd(model), model)
    return IndexReport(report.index, "as_specialization", report.breakdown)


# -- bundled symbol classes for the classical complexes ----------------------------


def de_rham_class(model) -> CharacterClass:
    """K-class of the de Rham complex: Euler class over the Todd class,
    e(T) exp(-log Td), an exact inverse since log Td has no degree-0 part."""
    if isinstance(model, str):
        model = get_model(model)
    log_td = log_todd_class(model, classes=model.tangent_classes)
    return model_tangent_euler(model) * (log_td * -1).exp()


def dolbeault_class(model) -> CharacterClass:
    if isinstance(model, str):
        model = get_model(model)
    return model.unit()


def twisted_dolbeault_class(model, d) -> CharacterClass:
    if isinstance(model, str):
        model = get_model(model)
    return twist_class(model, d)


# -- the boundary rule ---------------------------------------------------------------


def boundary_index(interior, boundary):
    """Cone relation: (Ind, Ind_boundary, Ind_rel = Ind - Ind_boundary)."""
    ind = spencer_euler_characteristic(interior)
    ind_b = spencer_euler_characteristic(boundary) if boundary is not None else 0
    return ind, ind_b, ind - ind_b
