"""Shared DSL corpus for round-trip and fuzz suites."""

LAPLACE = """
system laplace {
  vars x, y;
  unknowns u;
  eq: D[x,x](u) + D[y,y](u) = 0;
}
"""

WAVE = """
system wave {
  vars t, x;
  unknowns u;
  eq: D[t,t](u) - D[x,x](u) = 0;
}
"""

TRICOMI = """
system tricomi {
  vars x, y;
  unknowns u;
  eq: y*D[x,x](u) + D[y,y](u) = 0;
}
region lower { vars x, y; -1*y >= 0; }
"""


def corpus():
    """50 valid documents exercising every block type."""
    docs = [LAPLACE, WAVE, TRICOMI]
    docs.append(
        """
system cr {
  vars x, y;
  unknowns u;
  eq: 1/2*D[x](u) + 1/2*i*D[y](u) = 0;
}
"""
    )
    docs.append(
        """
system grad { vars x, y; unknowns u; eq: D[x](u) = 0; eq: D[y](u) = 0; }
"""
    )
    docs.append(
        """
system shifted {
  vars x, y;
  unknowns u;
  point 1, -2;
  eq: x^2*D[x,x](u) + D[y,y](u) + 3*u = 0;
}
"""
    )
    docs.append(
        """
system twou {
  vars x, y;
  unknowns u, v;
  eq: D[x](u) - D[y](v) = 0;
  eq: D[y](u) + D[x](v) = 0;
}
"""
    )
    docs.append(
        """
cone forward { generators (1, 1), (1, -1); kind closed; }
cone backward { generators (-1, 1), (-1, -1); kind closed; }
"""
    )
    docs.append(
        """
spectrum circ { kind circle; length 6.283185307179586; }
spectrum square_torus { kind torus; tau 0, 1; }
spectrum listy { kind explicit; values 0, 1, 1, 2; multiplicities 1, 1, 1, 1; }
spectrum box { kind rectangle; a 1, ; b 2; }
"""
        .replace("a 1, ;", "a 1;")
    )
    docs.append(
        """
region disk { vars x, y; x^2 + y^2 - 1 < 0; }
cone future { generators (1, 0), (1, 1); kind open_convex; }
spectrum skew { kind torus; tau 1/2, 3/2; scale 2; }
"""
    )
    # generated variants: orders, coefficients, mixed terms
    for k in range(1, 5):
        docs.append(
            f"system ord{k} {{ vars x, y; unknowns u; "
            f"eq: D[{','.join(['x'] * k)}](u) + u = 0; }}"
        )
    for c in (2, 3, 7, 11):
        docs.append(
            f"system c{c} {{ vars t, x; unknowns u; "
            f"eq: {c}*D[t](u) - 1/{c}*D[x,x](u) = 0; }}"
        )
    for name in ("a", "bb", "c_3", "zz9"):
        docs.append(
            f"system {name} {{ vars x; unknowns u; eq: D[x](u) - u = 0; }}"
        )
    for p in range(1, 5):
        docs.append(
            f"system poly{p} {{ vars x, y; unknowns u; "
            f"eq: x^{p}*D[y](u) + y*D[x](u) = 0; }}"
        )
    for a, b in [(1, 2), (2, 1), (3, 5), (5, 3)]:
        docs.append(
            f"region r{a}{b} {{ vars x, y; {a}*x + {b}*y > 0; x <= 0; }}"
        )
    for L in ("1", "2.5", "0.125", "7/2"):
        docs.append(f"spectrum s{L.replace('.', '_').replace('/', '_')} "
                    f"{{ kind circle; length {L}; }}")
    docs.append(LAPLACE + WAVE)
    docs.append(TRICOMI + "cone up { generators (0, 1); kind closed; }")
    for extra in range(len(docs), 50):
        docs.append(
            f"system filler{extra} {{ vars x, y; unknowns u; "
            f"eq: D[x,x](u) + {extra}*D[y](u) = 0; }}"
        )
    return docs[:50]


