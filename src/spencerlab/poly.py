"""Sparse multivariate polynomials over Q(i) with canonical term order.

A polynomial is a map from exponent tuples (one natural per variable) to
nonzero coefficients, each a Fraction, or a QQi when its imaginary part is
nonzero (the rule of ``scalars.scalar``, applied to every coefficient that
comes in).  Variables are an explicit ordered tuple of names;
operations require both operands to share the same ambient tuple and raise
AmbientMismatchError otherwise.  Terms serialize in degrevlex order so equal
polynomials have identical printed forms.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AmbientMismatchError
from .scalars import QQi, scalar

_ZERO = Fraction(0)


def degrevlex_key(mono):
    """Sort key: larger key = larger monomial in degrevlex."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


class MultiPoly:
    __slots__ = ("vars", "terms", "_lm")  # _lm: the leading monomial, set on first use

    def __init__(self, variables, terms=None, _clean=True):
        self.vars = tuple(variables)
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = {}
            for mono, coeff in terms.items():
                c = scalar(coeff)
                if c:
                    if len(mono) != len(self.vars):
                        raise AmbientMismatchError(
                            f"exponent vector {mono} does not match variables {self.vars}"
                        )
                    self.terms[tuple(mono)] = c
        else:
            self.terms = terms

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {}, _clean=False)

    @classmethod
    def constant(cls, variables, value):
        c = scalar(value)
        n = len(tuple(variables))
        if not c:
            return cls.zero(variables)
        return cls(variables, {(0,) * n: c}, _clean=False)

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        idx = variables.index(name)
        mono = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {mono: Fraction(1)}, _clean=False)

    @classmethod
    def monomial(cls, variables, mono, coeff=1):
        return cls(variables, {tuple(mono): coeff})

    # -- basic queries ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_homogeneous_in(self, indices):
        degs = {sum(m[i] for i in indices) for m in self.terms}
        return len(degs) <= 1

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), _ZERO)

    def constant_coefficient(self):
        return self.terms.get((0,) * len(self.vars), _ZERO)

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def _check(self, other):
        if self.vars != other.vars:
            raise AmbientMismatchError(f"ambient mismatch: {self.vars} vs {other.vars}")

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = MultiPoly.constant(self.vars, other)
        self._check(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, _ZERO) + c
            if s:
                res[m] = s
            else:
                res.pop(m, None)
        return MultiPoly(self.vars, res, _clean=False)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {m: -c for m, c in self.terms.items()}, _clean=False)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = MultiPoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            c = scalar(other)
            if not c:
                return MultiPoly.zero(self.vars)
            return MultiPoly(
                self.vars, {m: k * c for m, k in self.terms.items()}, _clean=False
            )
        self._check(other)
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = res.get(m, _ZERO) + c1 * c2
                if s:
                    res[m] = s
                else:
                    res.pop(m, None)
        return MultiPoly(self.vars, res, _clean=False)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def term_mul(self, mono, coeff):
        """Multiply by coeff * x^mono."""
        coeff = scalar(coeff)
        if not coeff:
            return MultiPoly.zero(self.vars)
        return MultiPoly(
            self.vars,
            {tuple(a + b for a, b in zip(m, mono)): c * coeff for m, c in self.terms.items()},
            _clean=False,
        )

    def derivative(self, name):
        idx = self.vars.index(name)
        res = {}
        for m, c in self.terms.items():
            if m[idx] == 0:
                continue
            dm = list(m)
            dm[idx] -= 1
            res[tuple(dm)] = c * m[idx]
        return MultiPoly(self.vars, res, _clean=False)

    # -- evaluation / substitution ----------------------------------------------

    def evaluate(self, point):
        """Full evaluation; point is a mapping name -> scalar covering all vars."""
        total = _ZERO
        vals = [scalar(point[v]) for v in self.vars]
        for m, c in self.terms.items():
            term = c
            for e, v in zip(m, vals):
                for _ in range(e):
                    term = term * v
            total = total + term
        return total

    def substitute(self, mapping):
        """Substitute polynomials (over the same ambient) for variables.

        mapping: name -> MultiPoly; unmapped variables stay themselves.
        """
        target_vars = None
        for p in mapping.values():
            target_vars = p.vars
            break
        if target_vars is None:
            return self
        images = []
        for v in self.vars:
            if v in mapping:
                images.append(mapping[v])
            else:
                images.append(MultiPoly.variable(target_vars, v))
        out = MultiPoly.zero(target_vars)
        for m, c in self.terms.items():
            term = MultiPoly.constant(target_vars, c)
            for e, img in zip(m, images):
                if e:
                    term = term * img**e
            out = out + term
        return out

    def rename(self, new_vars):
        """Reinterpret over a same-length variable tuple."""
        new_vars = tuple(new_vars)
        if len(new_vars) != len(self.vars):
            raise AmbientMismatchError("rename requires same arity")
        return MultiPoly(new_vars, dict(self.terms), _clean=False)

    def extend(self, new_vars):
        """Embed into a larger ambient containing self.vars."""
        new_vars = tuple(new_vars)
        pos = [new_vars.index(v) for v in self.vars]
        res = {}
        for m, c in self.terms.items():
            nm = [0] * len(new_vars)
            for p, e in zip(pos, m):
                nm[p] = e
            res[tuple(nm)] = c
        return MultiPoly(new_vars, res, _clean=False)

    # -- leading data in degrevlex ----------------------------------------------

    def leading_monomial(self):
        try:
            return self._lm
        except AttributeError:
            self._lm = max(self.terms, key=degrevlex_key) if self.terms else None
            return self._lm

    def leading_coefficient(self):
        lm = self.leading_monomial()
        return self.terms[lm] if lm is not None else _ZERO

    def monic(self):
        lc = self.leading_coefficient()
        if not lc or lc == 1:
            return self
        return self * (1 / lc)

    # -- equality / display --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = MultiPoly.constant(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: degrevlex_key(mc[0]), reverse=True)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, m) if e
            )
            if mono:
                cs = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{cs}{mono}")
            else:
                parts.append(str(c))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")
