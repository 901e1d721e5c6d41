"""The PDE description language: lexer, recursive-descent parser, printer.

Grammar sketch (semicolon-terminated declarations, C-style blocks):

    document := (system | region | cone | spectrum | model)*
    system   := "system" NAME "{" item* "}"
    item     := "vars" names ";" | "unknowns" names ";"
              | "point" numbers ";"
              | "eq" ":" sum "=" "0" ";"
    sum      := ["-"] term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := NUMBER | "i" | NAME ["^" INT]          -- coefficient piece
              | "D" "[" names "]" "(" NAME ")"          -- jet factor
              | NAME                                    -- bare unknown = 0-jet
    region   := "region" NAME "{" "vars" names ";" (sum CMP "0" ";")* "}"
    cone     := "cone" NAME "{" "generators" vectors ";" "kind" KIND ";" "}"
    spectrum := "spectrum" NAME "{" "kind" NAME ";" (param numbers ";")* "}"
    model    := "model" NAME "{" "kind" NAME ";" ["twist" INT ";"] "}"

One sum grammar serves equations and regions: a term carries exactly one
jet factor when its block declares unknowns (so every equation is linear),
and none in a region, whose sum must also be real.  Block names are unique
per kind.  All errors carry line/column and an expected-token set; fuzzed
input must produce a ParseError, never anything else.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import ParseError
from .poly import MultiPoly
from .scalars import QQi
from .systems import Equation, PdeSystem


Token = namedtuple("Token", "kind text line col")  # kind: name | number | punct | eof


def tokenize(text):
    if not isinstance(text, str):
        raise ParseError("input must be UTF-8 text", 1, 1)
    tokens = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i : i + 2]
        if two in (">=", "<="):
            tokens.append(Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch in "{}()[],;:=+-*^><":
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and (text[i].isdigit() or text[i] in "./"):
                # a/b rationals and decimals; a second '/' or '.' ends the number
                i += 1
            tok = text[start:i]
            tokens.append(Token("number", tok, line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("name", text[start:i], line, col))
            col += i - start
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def parse_number(tok: Token) -> Fraction:
    try:
        return Fraction(tok.text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad number {tok.text!r}", tok.line, tok.col) from None


ModelDecl = namedtuple("ModelDecl", "kind twist", defaults=(0,))


class PdeDslDocument:
    """One name -> block dict per block kind (BLOCKS), and the source text,
    which equality ignores."""

    def __init__(self, source=""):
        self.systems, self.regions, self.cones, self.spectra, self.models = {}, {}, {}, {}, {}
        self.source = source

    def __eq__(self, other):
        return isinstance(other, PdeDslDocument) and all(
            getattr(self, f) == getattr(other, f) for f, _ in BLOCKS.values())


class Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0
        self.source = text

    # -- token plumbing -------------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text=None, kind=None, expected=None):
        tok = self.peek()
        if text is not None and tok.text != text:
            raise ParseError(
                f"unexpected {tok.text!r}", tok.line, tok.col,
                expected or {text},
            )
        if kind is not None and tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.text or tok.kind!r}", tok.line, tok.col,
                expected or {kind},
            )
        return self.advance()

    def at(self, text):
        return self.peek().text == text

    # -- document --------------------------------------------------------------

    def parse_document(self) -> PdeDslDocument:
        """Each block's header is read here; its body parser (BLOCKS) reads
        from after "NAME {" through the closing "}"."""
        doc = PdeDslDocument(source=self.source)
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text not in BLOCKS:
                raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col, set(BLOCKS))
            self.advance()
            name = self.expect(kind="name")
            self.expect("{")
            field_name, body = BLOCKS[tok.text]
            block = body(self, name.text)
            blocks = getattr(doc, field_name)
            if name.text in blocks:
                raise ParseError(f"duplicate {tok.text} {name.text!r}", name.line, name.col)
            blocks[name.text] = block
        return doc

    def parse_name_list(self):
        names = [self.expect(kind="name").text]
        while self.at(","):
            self.advance()
            names.append(self.expect(kind="name").text)
        return names

    def parse_number_list(self):
        nums = [self.parse_signed_number()]
        while self.at(","):
            self.advance()
            nums.append(self.parse_signed_number())
        return nums

    def parse_signed_number(self):
        sign = 1
        if self.at("-"):
            self.advance()
            sign = -1
        tok = self.expect(kind="number", expected={"number"})
        return sign * parse_number(tok)

    def parse_zero(self, message):
        """The '0 ;' that closes an equation or a sign condition."""
        zero = self.expect(kind="number", expected={"0"})
        if parse_number(zero) != 0:
            raise ParseError(message, zero.line, zero.col, {"0"})
        self.expect(";")

    # -- systems ------------------------------------------------------------------

    def parse_system(self, name):
        variables, unknowns, point = None, None, None
        raw_equations = []
        while not self.at("}"):
            tok = self.peek()
            if tok.text == "vars":
                self.advance()
                variables = tuple(self.parse_name_list())
                self.expect(";")
            elif tok.text == "unknowns":
                self.advance()
                unknowns = tuple(self.parse_name_list())
                self.expect(";")
            elif tok.text == "point":
                self.advance()
                point = tuple(self.parse_number_list())
                self.expect(";")
            elif tok.text == "eq":
                eq_tok = self.advance()
                self.expect(":")
                if variables is None or unknowns is None:
                    raise ParseError(
                        "vars and unknowns must be declared before equations",
                        eq_tok.line, eq_tok.col,
                    )
                raw_equations.append(Equation(self.parse_sum(variables, unknowns)))
                self.expect("=")
                self.parse_zero("equations must be homogeneous: right side is 0")
            else:
                raise ParseError(
                    f"unexpected {tok.text!r}", tok.line, tok.col,
                    {"vars", "unknowns", "point", "eq", "}"},
                )
        close = self.expect("}")
        if variables is None or unknowns is None:
            raise ParseError(
                f"system {name!r} needs vars and unknowns", close.line, close.col
            )
        if set(variables) & set(unknowns):
            raise ParseError(
                f"system {name!r} reuses a name as both variable and unknown",
                close.line, close.col,
            )
        if not raw_equations:
            raise ParseError(f"system {name!r} has no equations", close.line, close.col)
        order = max(eq.order() for eq in raw_equations)
        if order < 1:
            raise ParseError(
                f"system {name!r} is an order-0 equation set", close.line, close.col
            )
        try:
            return PdeSystem(variables, unknowns, order, raw_equations,
                             base_point=point, name=name)
        except Exception as exc:  # surface as a positioned semantic error
            raise ParseError(str(exc), close.line, close.col) from None

    def parse_sum(self, variables, unknowns):
        """{jet or None: coefficient} of a signed sum of terms."""
        terms = {}
        sign = 1
        if self.at("-"):
            self.advance()
            sign = -1
        while True:
            jet, coeff = self.parse_term(variables, unknowns)
            terms[jet] = terms[jet] + coeff * sign if jet in terms else coeff * sign
            if self.peek().text not in ("+", "-"):
                return terms
            sign = 1 if self.advance().text == "+" else -1

    def parse_term(self, variables, unknowns):
        """(jet, coefficient) of one term: number, i and variable factors
        times one jet factor, which a term carries exactly when the block
        declares unknowns (a region declares none, and its jet is None)."""
        coeff = MultiPoly.constant(variables, 1)
        jet = None
        first = self.peek()
        while True:
            tok = self.peek()
            factor = None
            if tok.kind == "number":
                self.advance()
                coeff = coeff * parse_number(tok)
            elif tok.text == "i" and "i" not in variables and "i" not in unknowns:
                self.advance()
                coeff = coeff * QQi(0, 1)
            elif tok.text == "D" and unknowns:
                self.advance()
                self.expect("[")
                index_names = self.parse_name_list()
                self.expect("]")
                self.expect("(")
                u_tok = self.expect(kind="name")
                self.expect(")")
                if u_tok.text not in unknowns:
                    raise ParseError(
                        f"unknown function {u_tok.text!r}", u_tok.line, u_tok.col,
                        set(unknowns),
                    )
                alpha = [0] * len(variables)
                for nm in index_names:
                    if nm not in variables:
                        raise ParseError(
                            f"unknown variable {nm!r} in derivative index",
                            tok.line, tok.col, set(variables),
                        )
                    alpha[variables.index(nm)] += 1
                factor = (unknowns.index(u_tok.text), tuple(alpha))
            elif tok.kind == "name" and tok.text in unknowns:
                self.advance()
                factor = (unknowns.index(tok.text), (0,) * len(variables))
            elif tok.kind == "name" and tok.text in variables:
                self.advance()
                coeff = coeff * MultiPoly.variable(variables, tok.text) ** self.parse_power()
            elif tok.kind == "name":
                raise ParseError(
                    f"unknown identifier {tok.text!r}", tok.line, tok.col,
                    {*variables, *unknowns, "D"} if unknowns else {*variables, "number"},
                )
            else:
                raise ParseError(
                    f"unexpected {tok.text!r} in term", tok.line, tok.col,
                    {"number", "name", "D["} if unknowns else {"number", "name"},
                )
            if factor is not None:
                if jet is not None:
                    raise ParseError(
                        "non-linear term: products of jet factors are not "
                        "allowed in a linear system",
                        tok.line, tok.col,
                    )
                jet = factor
            if not self.at("*"):
                break
            self.advance()
        if unknowns and jet is None:
            raise ParseError(
                "term carries no unknown: inhomogeneous or constant terms are "
                "not part of a linear homogeneous system",
                first.line, first.col,
            )
        return jet, coeff

    def parse_power(self):
        """Exponent after a variable: '^k' with k a non-negative integer, else 1."""
        if not self.at("^"):
            return 1
        self.advance()
        ptok = self.expect(kind="number", expected={"integer"})
        power = parse_number(ptok)  # number tokens carry no sign
        if power.denominator != 1:
            raise ParseError(
                f"exponent {ptok.text!r} is not an integer", ptok.line, ptok.col, {"integer"}
            )
        return int(power)

    # -- auxiliary blocks --------------------------------------------------------------

    def parse_region(self, name):
        from .microlocal import Region

        self.expect("vars", expected={"vars"})
        variables = tuple(self.parse_name_list())
        self.expect(";")
        conditions = []
        while not self.at("}"):
            first = self.peek()
            poly = self.parse_sum(variables, ())[None]
            if any(c.imag for c in poly.terms.values()):
                raise ParseError("region polynomials must be real", first.line, first.col)
            op_tok = self.advance()
            if op_tok.text not in REGION_OPS:
                raise ParseError(
                    f"unexpected {op_tok.text!r}", op_tok.line, op_tok.col, set(REGION_OPS)
                )
            self.parse_zero("sign conditions compare against 0")
            conditions.append((poly, REGION_OPS[op_tok.text]))
        self.expect("}")
        return Region(conditions)

    def parse_vector(self):
        self.expect("(")
        nums = self.parse_number_list()
        self.expect(")")
        return tuple(nums)

    def parse_cone(self, name):
        from .microlocal import ConeSpec

        self.expect("generators", expected={"generators"})
        gens = [self.parse_vector()]
        while self.at(","):
            self.advance()
            gens.append(self.parse_vector())
        self.expect(";")
        self.expect("kind", expected={"kind"})
        kind_tok = self.expect(kind="name")
        kind = kind_tok.text.replace("_", "-")
        self.expect(";")
        self.expect("}")
        try:
            return ConeSpec(gens, kind)
        except Exception as exc:
            raise ParseError(str(exc), kind_tok.line, kind_tok.col) from None

    def parse_spectrum(self, name):
        self.expect("kind", expected={"kind"})
        kind_tok = self.expect(kind="name")
        self.expect(";")
        params = {}
        while not self.at("}"):
            key = self.expect(kind="name").text
            params[key] = self.parse_number_list()
            self.expect(";")
        self.expect("}")
        try:
            return self.build_spectrum(kind_tok.text, params)
        except ParseError:
            raise
        except Exception as exc:
            raise ParseError(str(exc), kind_tok.line, kind_tok.col) from None

    def build_spectrum(self, kind, params):
        from .spectra import SpectrumModel

        if kind == "circle":
            return SpectrumModel.circle(params["length"][0])
        if kind == "torus":
            tau = params["tau"]
            if len(tau) != 2:
                raise ValueError("torus tau takes two numbers: re im")
            scale = params.get("scale", [Fraction(1)])[0]
            return SpectrumModel.flat_torus(
                complex(float(tau[0]), float(tau[1])), scale
            )
        if kind == "rectangle":
            return SpectrumModel.rectangle(params["a"][0], params["b"][0])
        if kind == "explicit":
            return SpectrumModel.explicit(
                params["values"],
                [int(m) for m in params["multiplicities"]]
                if "multiplicities" in params
                else None,
            )
        raise ValueError(f"unknown spectrum kind {kind!r}")

    def parse_model(self, name):
        self.expect("kind", expected={"kind"})
        kind = self.expect(kind="name").text
        self.expect(";")
        twist = 0
        while not self.at("}"):
            key = self.expect(kind="name", expected={"twist"})
            if key.text != "twist":
                raise ParseError(f"unexpected {key.text!r}", key.line, key.col, {"twist"})
            twist = int(self.parse_signed_number())
            self.expect(";")
        self.expect("}")
        return ModelDecl(kind, twist)


# keyword: (PdeDslDocument field, body parser); a block's name is unique per kind
BLOCKS = {
    "system": ("systems", Parser.parse_system),
    "region": ("regions", Parser.parse_region),
    "cone": ("cones", Parser.parse_cone),
    "spectrum": ("spectra", Parser.parse_spectrum),
    "model": ("models", Parser.parse_model),
}
REGION_OPS = {">": "gt", ">=": "ge", "<": "lt", "<=": "le"}


def parse_pde_dsl(text) -> PdeDslDocument:
    return Parser(text).parse_document()


# -- canonical printing ---------------------------------------------------------------


def _sum_text(pairs):
    """Signed sum of the (suffix, coefficient) pairs, one term per nonzero
    real or imaginary part of each coefficient monomial; "0" if empty."""
    pieces = []
    for suffix, coeff in pairs:
        for mono, c in sorted(coeff.terms.items()):
            for value, imag in ((c.real, False), (c.imag, True)):
                if value == 0:
                    continue
                bits = [] if abs(value) == 1 else [str(abs(value))]
                bits += ["i"] if imag else []
                bits += [v if e == 1 else f"{v}^{e}" for v, e in zip(coeff.vars, mono) if e]
                bits += [suffix] if suffix else []
                pieces.append(("-" if value < 0 else "+", "*".join(bits) or "1"))
    if not pieces:
        return "0"
    out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return out + "".join(f" {sign} {text}" for sign, text in pieces[1:])


def _jet_text(jet, variables, unknowns):
    a, alpha = jet
    if not any(alpha):
        return unknowns[a]
    return f"D[{','.join(v for v, e in zip(variables, alpha) for _ in range(e))}]({unknowns[a]})"


def print_document(doc: PdeDslDocument) -> str:
    lines = []
    for name, sys in doc.systems.items():
        lines.append(f"system {name} {{")
        lines.append(f"  vars {', '.join(sys.indep_vars)};")
        lines.append(f"  unknowns {', '.join(sys.unknowns)};")
        if any(b != 0 for b in sys.base_point):
            lines.append(f"  point {', '.join(str(b) for b in sys.base_point)};")
        for eq in sys.equations:
            pairs = [(_jet_text(jet, sys.indep_vars, sys.unknowns), c)
                     for jet, c in sorted(eq.terms.items())]
            lines.append(f"  eq: {_sum_text(pairs)} = 0;")
        lines.append("}")
    op_text = {op: text for text, op in REGION_OPS.items()}
    for name, region in doc.regions.items():
        lines.append(f"region {name} {{")
        if region.conditions:
            lines.append(f"  vars {', '.join(region.conditions[0][0].vars)};")
        for poly, op in region.conditions:
            lines.append(f"  {_sum_text([(None, poly)])} {op_text[op]} 0;")
        lines.append("}")
    for name, cone in doc.cones.items():
        gens = ", ".join("(" + ", ".join(str(x) for x in g) + ")" for g in cone.generators)
        kind = cone.kind.replace("-", "_")
        lines.append(f"cone {name} {{")
        lines.append(f"  generators {gens};")
        lines.append(f"  kind {kind};")
        lines.append("}")
    for name, spec in doc.spectra.items():
        lines.extend(_spectrum_lines(name, spec))
    for name, model in doc.models.items():
        lines.append(f"model {name} {{")
        lines.append(f"  kind {model.kind};")
        if model.twist:
            lines.append(f"  twist {model.twist};")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _spectrum_lines(name, spec):
    lines = [f"spectrum {name} {{"]
    if spec.kind == "circle":
        lines.append("  kind circle;")
        lines.append(f"  length {_num_text(spec.params['length'])};")
    elif spec.kind == "flat_torus":
        tau = spec.params["tau"]
        lines.append("  kind torus;")
        lines.append(f"  tau {_num_text(tau.real)}, {_num_text(tau.imag)};")
        if float(spec.params["lattice_scale"]) != 1.0:
            lines.append(f"  scale {_num_text(spec.params['lattice_scale'])};")
    elif spec.kind == "rectangle":
        lines.append("  kind rectangle;")
        lines.append(f"  a {_num_text(spec.params['a'])};")
        lines.append(f"  b {_num_text(spec.params['b'])};")
    elif spec.kind == "explicit":
        lines.append("  kind explicit;")
        values = ", ".join(_num_text(v) for v in spec.params["values"])
        mults = ", ".join(str(m) for m in spec.params["multiplicities"])
        zeros = spec.params["zero_modes"]
        all_vals = ("0, " * zeros + values).rstrip(", ")
        all_mults = ("1, " * zeros + mults).rstrip(", ")
        lines.append(f"  values {all_vals};")
        lines.append(f"  multiplicities {all_mults};")
    else:
        raise ValueError(f"spectrum kind {spec.kind!r} has no DSL form")
    lines.append("}")
    return lines


def _num_text(x):
    fx = float(x)
    if fx == int(fx):
        return str(int(fx))
    return repr(fx)
