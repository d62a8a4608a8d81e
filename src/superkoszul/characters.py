"""Exact Laurent character ring in x1, x2, x3, y for the (3|1) alphabet.

Monomial exponents follow the internal weight convention: a label
(l1,l2,l3|l4) corresponds to x1^l1 x2^l2 x3^l3 y^(-l4), which is exactly
the monomial of an internal weight tuple.  Coefficients are ints, so all
arithmetic is exact; fraction equality is tested by cross-multiplication,
and a quotient is taken only where it divides exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


class CharacterError(ValueError):
    pass


class LaurentPoly:
    """Laurent polynomial with int coefficients over exponent vectors
    (e1, e2, e3, e4)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exps, c in terms.items():
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls({tuple(exps): coeff})

    @classmethod
    def one(cls):
        return cls.monomial((0, 0, 0, 0))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def scaled(self, c):
        return LaurentPoly({e: v * c for e, v in self.terms.items()})

    def sub_y_neg(self):
        """y -> -y."""
        return LaurentPoly(
            {e: (-c if e[3] % 2 else c) for e, c in self.terms.items()}
        )

    def canonical(self):
        """Deterministic text form: terms sorted by exponent vector."""
        if not self.terms:
            return "0"
        names = ("x1", "x2", "x3", "y")
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            factors = [str(c)]
            for name, k in zip(names, e):
                if k:
                    factors.append(name if k == 1 else f"{name}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_json(self):
        return [[list(e), str(self.terms[e])] for e in sorted(self.terms)]

    def __repr__(self):
        return f"LaurentPoly({self.canonical()})"


def _lead(poly):
    e = max(poly.terms)
    return e, poly.terms[e]


def _divide_coeff(c, dc):
    q, r = divmod(c, dc)
    if r:
        raise CharacterError(f"coefficient {c} is not divisible by {dc}")
    return q


def divide_exact(num, den, step_cap=20000):
    """Laurent quotient num/den when it is a polynomial with int
    coefficients.

    Leading-term elimination in lex order; every monomial divides every
    other here, so termination certifies exactness and a step cap catches
    the divergent (non-polynomial) case.  Each quotient coefficient is a
    leading coefficient divided by den's, so a remainder there means the
    quotient has no int coefficients, and raises.
    """
    if den.is_zero():
        raise CharacterError("division by zero polynomial")
    q = {}
    rem = num
    de, dc = _lead(den)
    for _ in range(step_cap):
        if rem.is_zero():
            return LaurentPoly(q)
        ne, nc = _lead(rem)
        qe = tuple(a - b for a, b in zip(ne, de))
        qc = _divide_coeff(nc, dc)
        q[qe] = qc
        rem = rem - den * LaurentPoly.monomial(qe, qc)
    raise CharacterError("quotient is not a Laurent polynomial")


class CharFraction:
    """num/den of Laurent polynomials with cross-multiplied equality."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = LaurentPoly.one()
        if den.is_zero():
            raise CharacterError("zero denominator")
        self.num = num
        self.den = den

    def __neg__(self):
        return CharFraction(-self.num, self.den)

    def compare(self, other):
        """{'equal', 'up_to_sign'}: exact and global-sign equality."""
        cross1 = self.num * other.den
        cross2 = other.num * self.den
        eq = cross1 == cross2
        return {"equal": eq, "up_to_sign": eq or cross1 == -cross2}

    def to_poly(self):
        """Exact clearing; raises when the fraction is not polynomial."""
        return divide_exact(self.num, self.den)

    def __repr__(self):
        return f"CharFraction(({self.num.canonical()}) / ({self.den.canonical()}))"


# ---------------------------------------------------------------------------
# base expressions


def x(i, k=1):
    """Monomial x_i^k (i in 1..3) or y^k (i = 4)."""
    e = [0, 0, 0, 0]
    e[i - 1] = k
    return LaurentPoly.monomial(e)


def xxx(k=1):
    return LaurentPoly.monomial((k, k, k, 0))


def r_poly():
    """(x1+y)(x2+y)(x3+y)"""
    out = LaurentPoly.one()
    for i in (1, 2, 3):
        out = out * (x(i) + x(4))
    return out


def pi_poly():
    """(x1-x2)(x2-x3)(x1-x3)"""
    return (x(1) - x(2)) * ((x(2) - x(3)) * (x(1) - x(3)))


def a_det(t, u, v):
    """det of the 3x3 matrix with rows (x_i^(t+2), x_i^(u+1), x_i^v)."""
    cols = (t + 2, u + 1, v)
    out = {}
    for perm in permutations(range(3)):
        sign = _perm_sign(perm)
        e = [0, 0, 0, 0]
        for row in range(3):
            e[row] = cols[perm[row]]
        key = tuple(e)
        out[key] = out.get(key, 0) + sign
    return LaurentPoly(out)


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


RHO = (Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2), Fraction(-3, 2))

DELTA0_PLUS = ((1, 2), (1, 3), (2, 3))


# ---------------------------------------------------------------------------
# weight labels


def classify_weight(label):
    """Flags and atypicality type of a label (l1,l2,l3|l4).

    Atypicality conditions for (3|1): type 1 is l1+2 = l4, type 2 is
    l2+1 = l4, type 3 is l3 = l4; dominance is checked within the even
    block (the cross-block inequality would reject honest highest weights
    of finite-dimensional modules, e.g. (1,0,0|1)).
    """
    l1, l2, l3, l4 = (Fraction(c) for c in label)
    integral = (l1 - l2).denominator == 1 and (l2 - l3).denominator == 1
    dominant = l1 >= l2 >= l3
    integrable = all(c.denominator == 1 for c in (l1, l2, l3, l4))
    conds = (l1 + 2 - l4, l2 + 1 - l4, l3 - l4)
    types = [i + 1 for i, c in enumerate(conds) if c == 0]
    if dominant and len(types) > 1:
        raise CharacterError(f"dominant label {label} with two atypicality types")
    return {
        "integral": integral,
        "dominant": dominant,
        "integrable": integrable,
        "typical": not types,
        "atypical_types": types,
    }


def _check_integer_label(label):
    lab = tuple(int(c) for c in label)
    if any(Fraction(c) != l for c, l in zip(label, lab)):
        raise CharacterError(f"label {label} is not integrable")
    return lab


def _classify_dominant(label):
    """classify_weight of the label; raises CharacterError if it is not
    dominant, since no finite-dimensional irreducible has it as its highest
    weight and no character formula applies."""
    info = classify_weight(label)
    if not info["dominant"]:
        raise CharacterError(f"label {label} is not dominant")
    return info


def ch_typical(label):
    """R (x1x2x3)^(l3-1) a(l1-l3, l2-l3, 0) / (Pi y^l4)."""
    info = _classify_dominant(label)
    if not info["typical"]:
        raise CharacterError(f"label {label} is atypical")
    l1, l2, l3, l4 = _check_integer_label(label)
    num = r_poly() * xxx(l3 - 1) * a_det(l1 - l3, l2 - l3, 0)
    den = pi_poly() * x(4, l4)
    return CharFraction(num, den)


ATYPICAL_SHAPES = {
    # type: (anchor exponent, inner pair) as functions of the label
    1: (lambda l: l[0] + 2, lambda l: (l[1], l[2] - 1)),
    2: (lambda l: l[1] + 1, lambda l: (l[2] - 1, l[0] + 1)),
    3: (lambda l: l[2], lambda l: (l[0] + 1, l[1])),
}


def ch_atypical(label):
    """Three-term cyclic bracket over Pi y^l4, one shape per atypical type."""
    info = _classify_dominant(label)
    if info["typical"]:
        raise CharacterError(f"label {label} is typical")
    lab = _check_integer_label(label)
    ty = info["atypical_types"][0]
    anchor = ATYPICAL_SHAPES[ty][0](lab)
    u, v = ATYPICAL_SHAPES[ty][1](lab)
    num = LaurentPoly.zero()
    for (i, j, k) in CYCLES:
        inner = x(j + 1, u) * x(k + 1, v) - x(j + 1, v) * x(k + 1, u)
        rest = (x(j + 1) + x(4)) * (x(k + 1) + x(4))
        num = num + x(i + 1, anchor) * rest * inner
    return CharFraction(num, pi_poly() * x(4, lab[3]))


def ch_v(label):
    """ch of the irreducible with the given dominant integral label: the
    typical or the atypical formula, whichever the label calls for."""
    typical = classify_weight(label)["typical"]
    return ch_typical(label) if typical else ch_atypical(label)


# ---------------------------------------------------------------------------
# Kac orbit sum


def kac_orbit_sum(label):
    """sum over S_3 of sign(w) e^(w(label+rho)), in doubled exponents."""
    mu = [2 * (Fraction(c) + r) for c, r in zip(label, RHO)]
    if any(m.denominator != 1 for m in mu):
        raise CharacterError("label+rho is not half-integral")
    mu = [int(m) for m in mu]
    out = LaurentPoly.zero()
    for perm in permutations(range(3)):
        sign = _perm_sign(perm)
        e = [0, 0, 0, 0]
        for i in range(3):
            e[i] = mu[perm[i]]
        e[3] = -mu[3]
        out = out + LaurentPoly.monomial(tuple(e), sign)
    return out


def _kac_l1_doubled():
    out = LaurentPoly.one()
    for i in (1, 2, 3):
        e = [0, 0, 0, 0]
        e[i - 1] = 1
        e[3] = -1
        out = out * (
            LaurentPoly.monomial(tuple(e))
            + LaurentPoly.monomial(tuple(-c for c in e))
        )
    return out


def _kac_l0_doubled():
    out = LaurentPoly.one()
    for (i, j) in DELTA0_PLUS:
        e = [0, 0, 0, 0]
        e[i - 1] = 1
        e[j - 1] = -1
        out = out * (
            LaurentPoly.monomial(tuple(e))
            - LaurentPoly.monomial(tuple(-c for c in e))
        )
    return out


def _halve(poly):
    out = {}
    for e, c in poly.terms.items():
        if any(k % 2 for k in e):
            raise CharacterError("non-integral exponent after the orbit sum")
        out[tuple(k // 2 for k in e)] = c
    return LaurentPoly(out)


def kac_sum(label):
    """(L1/L0) sum sign(w) e^(w(label+rho)) as a CharFraction.

    Assembled in doubled exponents; the numerator and denominator must both
    land on even exponent vectors, anything else signals a convention bug.
    """
    info = _classify_dominant(label)
    if not info["typical"]:
        raise CharacterError(f"label {label} is atypical")
    num2 = _kac_l1_doubled() * kac_orbit_sum(label)
    den2 = _kac_l0_doubled()
    return CharFraction(_halve(num2), _halve(den2))


# ---------------------------------------------------------------------------
# hook Schur characters


def _h_classical(m):
    """Complete homogeneous polynomial of degree m in x1, x2, x3."""
    if m < 0:
        return LaurentPoly.zero()
    out = {}
    for a in range(m + 1):
        for b in range(m - a + 1):
            out[(a, b, m - a - b, 0)] = 1
    return LaurentPoly(out)


def _h_super(r, cache={}):
    """h_r of the difference alphabet x1+x2+x3-y.

    h_r(x - y) = h_r(x) - h_(r-1)(x) y: the single odd variable contributes
    e_s(y) = 0 past s = 1, so exactly two terms survive.
    """
    if r < 0:
        return LaurentPoly.zero()
    if r not in cache:
        cache[r] = _h_classical(r) - _h_classical(r - 1) * LaurentPoly.monomial(
            (0, 0, 0, 1)
        )
    return cache[r]


def in_gamma31(partition):
    parts = tuple(partition)
    if any(int(p) != p or p < 0 for p in parts):
        return False
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        return False
    return all(p <= 1 for p in parts[3:])


def ch_schur_super(partition):
    """Jacobi-Trudi determinant det(h_(mu_i - i + j)) of the super alphabet.

    Signed convention: reproduces x1+x2+x3-y on the fundamental row.
    """
    parts = tuple(int(p) for p in partition)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if not in_gamma31(parts):
        raise CharacterError(f"partition {partition} is outside the hook family")
    if not parts:
        return LaurentPoly.one()
    k = len(parts)
    out = LaurentPoly.zero()
    for perm in permutations(range(k)):
        sign = _perm_sign(perm)
        term = LaurentPoly.one()
        for i in range(k):
            term = term * _h_super(parts[i] - i + perm[i])
            if term.is_zero():
                break
        out = out + term.scaled(sign)
    return out


# ---------------------------------------------------------------------------
# enumerated characters of modules


def supercharacter(mod, signed=True):
    """Weight-table enumeration; internal weights are used as exponents."""
    out = {}
    for w, p in zip(mod.weights, mod.parities):
        c = -1 if (signed and p) else 1
        out[w] = out.get(w, 0) + c
    return LaurentPoly(out)


# ---------------------------------------------------------------------------
# closed forms for the constructed modules


def h31_char():
    """x1x2x3 / y: the one weight (1,1,1|-1) of the homology line."""
    return CharFraction(LaurentPoly.monomial((1, 1, 1, -1)))


def image_char(k, l):
    """R y^(k-3) a(l,l,0) / (Pi (x1x2x3)^l): the character of ImD(k, l) for
    k >= 2 off the degenerate line k - l = 2, where the image is reducible
    or, at (2, 0), has another character."""
    num = r_poly() * LaurentPoly.monomial((0, 0, 0, k - 3)) * a_det(l, l, 0)
    return CharFraction(num, pi_poly() * xxx(l))


def mmp_char(m, p):
    """R a(m+p, m+p, 0) / (Pi (x1x2x3)^(p+1))."""
    return CharFraction(r_poly() * a_det(m + p, m + p, 0), pi_poly() * xxx(p + 1))


def y_char(n, p):
    """(x1x2x3) R [cyclic bracket] / (Pi y) for the two-column summand."""
    num = LaurentPoly.zero()
    for (i, j, k) in CYCLES:
        inner = x(j + 1, -p - 1) * x(k + 1, n) - x(j + 1, n) * x(k + 1, -p - 1)
        rest = (x(j + 1) + x(4)) * (x(k + 1) + x(4))
        num = num + rest * inner
    num = xxx(1) * num
    return CharFraction(num, pi_poly() * x(4))


def z1_char(m):
    """R a(m+2, m+1, 0) / (Pi y (x1x2x3)^(m+1))."""
    return CharFraction(
        r_poly() * a_det(m + 2, m + 1, 0), pi_poly() * x(4) * xxx(m + 1)
    )


def zk_char(k, l, m):
    """R (x1x2x3)^(-m) y^(l-3) a(k+m, m, 0) / Pi.

    Second determinant column derived from the constructed summands (the
    stated variant sits one unit lower; see zk_char_stated and the findings
    report).
    """
    num = r_poly() * LaurentPoly.monomial((0, 0, 0, l - 3)) * a_det(k + m, m, 0)
    return CharFraction(num, pi_poly() * xxx(m))


def zk_char_stated(k, l, m):
    """Variant with the second column lowered by one; kept for findings."""
    num = r_poly() * LaurentPoly.monomial((0, 0, 0, l - 3)) * a_det(k + m, m - 1, 0)
    return CharFraction(num, pi_poly() * xxx(m))


def mfinal_char(m, t, p):
    """R (x1x2x3)^(-p) a(m+p+t-1, m+p-1, 0) / (Pi y)."""
    return CharFraction(
        r_poly() * a_det(m + p + t - 1, m + p - 1, 0),
        pi_poly() * x(4) * xxx(p),
    )
