"""Oracles for the Groebner layer: sympy's grevlex bases on small random
ideals over QQ, and the former completion (`former_groebner`) on every
ideal that the golden microlocal reports complete and on the Kunneth joins
of up to four wave copies."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from former_groebner import buchberger as former_buchberger

import spencerlab.groebner as groebner
from spencerlab.cli import main
from spencerlab.dsl import parse_pde_dsl
from spencerlab.groebner import PolyIdeal, buchberger
from spencerlab.microlocal import characteristic_ideal
from spencerlab.poly import MultiPoly
from spencerlab.systems import external_product

from dsl_corpus import WAVE
from test_golden import MICROLOCAL, MICROLOCAL_DOCUMENT

NAMES = ("x", "y", "z")


def _terms(poly):
    """A reduced basis element as {exponents: coefficient}, made monic."""
    lc = poly.leading_coefficient() if isinstance(poly, MultiPoly) else poly.LC(order="grevlex")
    items = poly.terms.items() if isinstance(poly, MultiPoly) else poly.terms()
    return {tuple(m): Fraction(str(c / lc)) for m, c in items}


monomial = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda m: sum(m) <= 3)
polynomial = st.dictionaries(monomial, st.integers(-4, 4).filter(bool), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.lists(polynomial, min_size=1, max_size=3))
def test_buchberger_matches_sympy_grevlex(nvars, specs):
    names = NAMES[:nvars]
    gens = []
    for spec in specs:
        terms = {}
        for mono, c in spec.items():
            key = mono[:nvars]
            terms[key] = terms.get(key, 0) + c
        gens.append(MultiPoly(names, terms))
    ours = [_terms(g) for g in buchberger(gens)]
    symbols = sympy.symbols(names)
    exprs = [sum((sympy.Integer(int(c.re)) * sympy.Mul(*[v**e for v, e in zip(symbols, m)])
                  for m, c in g.terms.items()), sympy.Integer(0)) for g in gens]
    if not any(exprs):
        assert ours == []
        return
    theirs = sympy.groebner(exprs, *symbols, order="grevlex", domain="QQ")
    expected = [_terms(sympy.Poly(p, *symbols, domain="QQ")) for p in theirs.exprs]
    key = lambda t: sorted(t.items())
    assert sorted(ours, key=key) == sorted(expected, key=key)


# the golden microlocal reports that complete an ideal (characteristic
# ideals, saturations, Kunneth products): 20 completions in all
COMPLETING = ["classify-cr", "classify-euler", "elliptic-cr", "elliptic-killing",
              "kunneth-dx-laplace", "kunneth-wave-4", "restrict-tricomi"]


@pytest.mark.parametrize("name", COMPLETING)
def test_golden_completions_match_former_buchberger(name, tmp_path, monkeypatch, capsys):
    """Every completion a golden microlocal report runs gives the former basis."""
    calls = []

    def checked(generators):
        basis = buchberger(generators)
        assert basis == former_buchberger(generators)
        calls.append(basis)
        return basis

    monkeypatch.setattr(groebner, "buchberger", checked)
    (tmp_path / "micro.pde").write_text(MICROLOCAL_DOCUMENT, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    command, *options = MICROLOCAL[name][0]
    assert main([command, "micro.pde", *options]) == 0
    capsys.readouterr()
    assert calls


def test_kunneth_join_union_is_the_former_completion():
    """The union basis of every Kunneth join of up to 4 wave copies is the
    reduced basis that completing the join's generators gave."""
    wave = next(iter(parse_pde_dsl(WAVE).systems.values()))
    chars = {s: characteristic_ideal(external_product(*[wave] * s)) for s in range(1, 5)}
    checked = 0
    for s in range(2, 5):
        cv = chars[s]
        assert cv.ideal.groebner() == former_buchberger(cv.ideal.generators)
        for cut in range(1, s):
            parts, at = [], 0
            for f in (chars[cut], chars[s - cut]):
                k = len(f.base_vars)
                parts.append((f.ideal, cv.base_vars[at : at + k] + cv.xi_vars[at : at + k]))
                at += k
            join = PolyIdeal.join(cv.ambient, parts)
            assert join.groebner() == former_buchberger(join.generators)
            checked += 1
    assert checked == 6


def test_join_rejects_overlapping_or_reordered_blocks():
    x = MultiPoly.variable(("a", "b"), "a")
    ideal = PolyIdeal(("a", "b"), [x])
    with pytest.raises(ValueError):
        PolyIdeal.join(("p", "q", "r"), [(ideal, ("q", "p"))])
    with pytest.raises(ValueError):
        PolyIdeal.join(("p", "q", "r"), [(ideal, ("p", "q")), (ideal, ("q", "r"))])


def test_join_sorts_the_union_and_a_unit_part_gives_the_unit_ideal():
    """Joins with a zero, a unit and a nontrivial part on disjoint blocks
    give the reduced basis that completing their generators gives."""
    amb = ("a", "b")
    a, b = (MultiPoly.variable(amb, v) for v in amb)
    curve = PolyIdeal(amb, [a * a + b * 3, a * b - 1])
    unit = PolyIdeal(amb, [a + 1, a])
    zero = PolyIdeal(amb, [])
    ambient = ("p", "q", "r", "s", "u", "v")
    for parts, is_unit in [
        ([(curve, ("p", "q")), (curve, ("r", "s")), (zero, ("u", "v"))], False),
        ([(curve, ("p", "r")), (unit, ("s", "v"))], True),
        ([(zero, ("p", "q")), (unit, ("r", "s")), (curve, ("u", "v"))], True),
    ]:
        join = PolyIdeal.join(ambient, parts)
        assert join.groebner() == former_buchberger(join.generators)
        assert join.is_unit() == is_unit
