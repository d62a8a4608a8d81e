"""Exact linear algebra over the rationals.

Everything in the package runs on top of this module: sparse matrices,
echelonized subspaces, characteristic polynomials and rational spectra.  A
SparseMap and a Subspace basis share one exact format, int numerators over
one positive denominator, so products, sums, eliminations and membership
tests are int arithmetic; the values handed out (entries, traces, spectra,
images, basis vectors) are Fractions.  No floats anywhere: values enter
through _over_common_den, which takes ints and Fractions and raises
TypeError on anything else; Subspace.residue, contains and coordinates_of
refuse the same values; and a residual either is zero or it is not.
SparseMap.combination is the one sum of maps: add, scaled, +, - and c *
are each one call of it; only glrep's derivation writes terms it knows to
be disjoint into one dict instead.

SparseMap.rational_spectrum finds eigenvalues by a bounded integer-root
search, with no factoring and no modular or probabilistic step: the
characteristic polynomial of the numerator matrix is monic over the ints,
so its rational roots are ints dividing its lowest nonzero coefficient c0,
and none exceeds the matrix's largest absolute column sum R.  Trying each
e <= min(R, isqrt|c0|) that divides c0, with its co-divisor c0/e, finds
them all; a search of more than MAX_TRIAL_DIVISIONS steps is refused with
SpectrumError before it starts.  No package code calls it or char_poly:
they are the tests' reference, kept while perfbench/spans.py traces it.

A Subspace keeps the reduced echelon basis whose pivots are each vector's
largest index, built one vector at a time by Subspace.insert, the one
elimination of the package: image and rank insert the numerator columns,
kernel inserts the numerator rows with their columns reversed and reads
the kernel basis off the reduced rows.
"""

from __future__ import annotations

from bisect import bisect
from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt, lcm

__all__ = [
    "DimensionError",
    "RestrictionError",
    "SpectrumError",
    "SubspaceError",
    "SparseMap",
    "Subspace",
    "Spectrum",
]

# the longest root search rational_spectrum makes, in trial divisions
MAX_TRIAL_DIVISIONS = 10**6


class DimensionError(ValueError):
    """Shapes do not line up."""


class WitnessedError(Exception):
    """Base of the errors that carry a witness: the data showing where a
    check failed (None when there is nothing to show)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RestrictionError(WitnessedError, ValueError):
    """A map failed to carry a subspace where it was claimed to."""


class SpectrumError(WitnessedError, ArithmeticError):
    """The spectrum is not (provably) rational; never guessed."""


class SubspaceError(ValueError):
    """Subspace algebra precondition violated."""


class SparseMap:
    """A linear map given by a sparse matrix of exact rationals.

    The matrix is stored as int numerators over one denominator: entries maps
    (row, col) to a nonzero int, and the entry's value is that int divided by
    den.  The form is canonical, den > 0 and gcd(den, every numerator) = 1,
    so two maps are equal exactly when their shapes, entries and dens are.
    The map sends the unit vector e_col to sum value[row, col] * e_row, and
    compose(A, B) is A after B.  Values leave the map as Fractions: entry,
    column, trace, char_poly, rational_spectrum, to_triples, and apply on
    Fraction vectors.
    """

    __slots__ = ("dom_dim", "cod_dim", "entries", "den", "_cols")

    def __init__(self, dom_dim, cod_dim, entries=None):
        """Entries are ints or Fractions (TypeError otherwise); zeros are
        dropped and the rest cleared to ints over their least common
        denominator."""
        if dom_dim < 0 or cod_dim < 0:
            raise DimensionError("negative dimension")
        entries = entries or {}
        for r, c in entries:
            if not (0 <= r < cod_dim and 0 <= c < dom_dim):
                raise DimensionError(f"entry ({r},{c}) outside {cod_dim}x{dom_dim}")
        nums, den = _over_common_den(entries)
        self._set(dom_dim, cod_dim, nums, den)

    def _set(self, dom_dim, cod_dim, nums, den):
        self.dom_dim = dom_dim
        self.cod_dim = cod_dim
        self.entries = nums
        self.den = den
        self._cols = None

    @classmethod
    def _from_ints(cls, dom_dim, cod_dim, nums, den=1):
        """The map with value nums[k] / den at k, trusting that nums holds
        nonzero ints inside the shape and den > 0: only their common factor
        is cancelled.  linalg and the builders of factor and generator
        matrices hand their results over through here."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {k: v // g for k, v in nums.items()}
                den //= g
        m = cls.__new__(cls)
        m._set(dom_dim, cod_dim, nums, den)
        return m

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls._from_ints(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zero(cls, dom_dim, cod_dim):
        return cls._from_ints(dom_dim, cod_dim, {})

    @classmethod
    def from_columns(cls, dom_dim, cod_dim, columns):
        return cls(dom_dim, cod_dim, {
            (r, c): v for c, col in columns.items() for r, v in col.items()})

    # -- plumbing ------------------------------------------------------------

    def entry(self, r, c):
        return Fraction(self.entries.get((r, c), 0), self.den)

    def columns(self):
        """col -> sparse vector of numerators, built once."""
        if self._cols is None:
            cols = {}
            for (r, c), v in self.entries.items():
                cols.setdefault(c, {})[r] = v
            self._cols = cols
        return self._cols

    def column(self, c):
        """Column c as a sparse vector of Fraction values."""
        den = self.den
        return {r: Fraction(v, den) for r, v in self.columns().get(c, {}).items()}

    def nnz(self):
        return len(self.entries)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, SparseMap):
            return NotImplemented
        return (
            self.dom_dim == other.dom_dim
            and self.cod_dim == other.cod_dim
            and self.den == other.den
            and self.entries == other.entries
        )

    __hash__ = None

    def __repr__(self):
        return f"SparseMap({self.dom_dim}->{self.cod_dim}, nnz={self.nnz()})"

    # -- arithmetic ----------------------------------------------------------

    def apply_numerators(self, vec, right=1):
        """den times the image of vec under id_left (x) self (x) id_right,
        indexed as lift, with each index's left copy read off the index:
        vec against the numerator columns, so ints for an int vec, and no
        lift is built.  With right == 1 an index inside the domain is its
        own column, read with no divmod."""
        cols = self.columns()
        dom, cod = self.dom_dim * right, self.cod_dim * right
        plain = right == 1
        out = {}
        for i, x in vec.items():
            if plain and i < dom:
                c, base = i, 0
            else:
                a, rest = divmod(i, dom)
                c, b = divmod(rest, right)
                base = a * cod + b
            col = cols.get(c)
            if col is None:
                continue
            for r, v in col.items():
                k = base + r * right
                out[k] = out.get(k, 0) + x * v
        return {k: y for k, y in out.items() if y}

    def apply(self, vec):
        """The image of a sparse vector, with Fraction values for Fraction
        input."""
        out = self.apply_numerators(vec)
        if self.den == 1:
            return out
        inv = Fraction(1, self.den)
        return {r: s * inv for r, s in out.items()}

    def compose(self, other):
        """self after other."""
        if other.cod_dim != self.dom_dim:
            raise DimensionError(
                f"compose: {self.dom_dim} != {other.cod_dim}"
            )
        cols = self.columns()
        ent = {}
        for c, bcol in other.columns().items():
            acc = {}
            for k, x in bcol.items():
                col = cols.get(k)
                if not col:
                    continue
                for r, v in col.items():
                    acc[r] = acc.get(r, 0) + x * v
            for r, v in acc.items():
                if v:
                    ent[(r, c)] = v
        return SparseMap._from_ints(
            other.dom_dim, self.cod_dim, ent, self.den * other.den)

    __matmul__ = compose

    def add(self, other, scale=1):
        """self + scale * other, as a combination."""
        return SparseMap.combination(
            self.dom_dim, self.cod_dim, [(1, self), (scale, other)])

    @classmethod
    def combination(cls, dom_dim, cod_dim, terms):
        """sum of c * m over the (c, SparseMap m) pairs of terms, c an int or
        a Fraction (TypeError otherwise).  The coefficients are cleared to
        ints over one den, so the sum is over that den times the lcm of the
        m.den.  The first term is scaled in one pass and the others are
        merged into it, an entry being dropped as soon as its sum cancels;
        the one way the package adds or scales maps."""
        for _, m in terms:
            if (m.dom_dim, m.cod_dim) != (dom_dim, cod_dim):
                raise DimensionError("combination: shape mismatch")
        coeffs, cden = _over_common_den(dict(enumerate(c for c, _ in terms)))
        mden = lcm(*(m.den for _, m in terms))
        ent = {}
        for j, (_, m) in enumerate(terms):
            f = coeffs.get(j, 0) * (mden // m.den)
            if not f:
                continue
            if not ent:
                ent = {k: f * v for k, v in m.entries.items()}
                continue
            for k, v in m.entries.items():
                s = ent.get(k, 0) + f * v
                if s:
                    ent[k] = s
                else:
                    del ent[k]
        return cls._from_ints(dom_dim, cod_dim, ent, cden * mden)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other, scale=-1)

    def scaled(self, c):
        return SparseMap.combination(self.dom_dim, self.cod_dim, [(c, self)])

    def __rmul__(self, c):
        return self.scaled(c)

    def kron(self, other):
        """Kronecker product, row-major index pairing."""
        ent = {}
        for (r1, c1), v1 in self.entries.items():
            for (r2, c2), v2 in other.entries.items():
                ent[(r1 * other.cod_dim + r2, c1 * other.dom_dim + c2)] = v1 * v2
        return SparseMap._from_ints(
            self.dom_dim * other.dom_dim, self.cod_dim * other.cod_dim, ent,
            self.den * other.den)

    def lift(self, left=1, right=1, left_parities=None):
        """id_left (x) self (x) id_right, indexed as kron, by re-indexing each
        entry.  Given the parity of each left index, the copies at odd ones
        are negated: the sign of an odd map crossing the left factor."""
        rows, cols = self.cod_dim * right, self.dom_dim * right
        ent = {}
        for a in range(left):
            odd = left_parities is not None and left_parities[a]
            for (r, c), v in self.entries.items():
                r0, c0 = a * rows + r * right, a * cols + c * right
                if odd:
                    v = -v
                for b in range(right):
                    ent[(r0 + b, c0 + b)] = v
        return SparseMap._from_ints(cols * left, rows * left, ent, self.den)

    # -- elimination ---------------------------------------------------------

    def rank(self):
        """The dimension of the image."""
        return self.image().dim

    def kernel(self):
        """Kernel as a Subspace of the domain.

        The numerator rows, with column c renamed last - c and fed by their
        largest renamed index, reduce to a Subspace whose vectors pivot on
        their smallest column q_j: row_j is den at q_j, zero at the other
        q's, and row_j[f] is nonzero only for f > q_j.  So each free column f gives
        den*e_f - sum_j row_j[f]*e_{q_j}, whose largest index is f and which
        vanishes at every other free column: the reduced echelon basis, with
        the free columns as pivots, and no division.
        """
        last = self.dom_dim - 1
        rows = {}
        for (r, c), v in self.entries.items():
            rows.setdefault(r, {})[last - c] = v
        rowspace = Subspace.from_vectors(self.dom_dim, sorted(rows.values(), key=max))
        den = rowspace.den
        pivots = {last - p for p in rowspace.pivots}
        free = [f for f in range(self.dom_dim) if f not in pivots]
        basis = {f: {f: den} for f in free}
        for row, p in zip(rowspace.nums, rowspace.pivots):
            for i, x in row.items():
                if i != p:
                    basis[last - i][last - p] = -x
        return Subspace(self.dom_dim, [basis[f] for f in free], free, den)

    def image(self):
        """Spanned by the numerator columns, den times the true ones."""
        cols = self.columns()
        return Subspace.from_vectors(self.cod_dim, [cols[c] for c in sorted(cols)])

    def restrict(self, dom, cod):
        """Matrix of self as a map dom -> cod in the subspace bases.

        One pass per basis vector b of dom: cod.read_coordinates builds b's
        image straight into its residue modulo cod, reads b's coordinates at
        cod's pivots and certifies them by that residue, the check cod's
        basis times C = the images taken column by column.  No image is
        kept.  Otherwise RestrictionError names the first domain basis
        vector whose image leaves cod.
        """
        if dom.ambient_dim != self.dom_dim or cod.ambient_dim != self.cod_dim:
            raise DimensionError("restrict: ambient mismatch")
        ent, bad = cod.read_coordinates(dom.nums, self)
        if bad is not None:
            b = dom.vectors[bad]
            raise RestrictionError(
                "image of subspace vector leaves the stated codomain",
                witness={"index": bad, "vector": b, "image": self.apply(b)},
            )
        return SparseMap._from_ints(dom.dim, cod.dim, ent, self.den * dom.den)

    # -- serialization --------------------------------------------------------

    def to_triples(self):
        """JSON-safe canonical form; big integers ride as decimal strings."""
        den = self.den
        ents = []
        for (r, c), v in sorted(self.entries.items()):
            x = Fraction(v, den)
            ents.append([str(r), str(c), str(x.numerator), str(x.denominator)])
        return {"dom_dim": self.dom_dim, "cod_dim": self.cod_dim, "entries": ents}

    # -- spectra ---------------------------------------------------------------

    def trace(self):
        if self.dom_dim != self.cod_dim:
            raise DimensionError("trace of non-square map")
        diag = sum(v for (r, c), v in self.entries.items() if r == c)
        return Fraction(diag, self.den)

    def char_poly(self):
        """Characteristic polynomial, ascending coefficients, monic.

        Faddeev-LeVerrier recursion: exact over Fraction, division only by
        the step index.
        """
        if self.dom_dim != self.cod_dim:
            raise DimensionError("char_poly of non-square map")
        n = self.dom_dim
        coeffs = [Fraction(1)]  # descending during build
        A = self
        for k in range(1, n + 1):
            if k > 1:
                A = self @ A.add(SparseMap.identity(n), coeffs[-1])
            c = -A.trace() / k
            coeffs.append(c)
        coeffs.reverse()
        return coeffs

    def rational_spectrum(self):
        """Exact eigenvalue data; raises SpectrumError if roots are not rational.

        The eigenvalues of M = N / den are the roots mu of N's monic int
        characteristic polynomial over den.  Each e = 1..min(R, isqrt|c0|)
        dividing c0 (see the module docstring) puts +-e and +-c0/e up to R
        forward, which covers every divisor of c0 up to R, and a root
        deflates the polynomial exactly as often as its multiplicity.  The
        geometric multiplicity of mu is n - rank(N - mu*I); M is
        diagonalizable exactly when these add up to n, since eigenspaces of
        distinct eigenvalues are independent.
        """
        n = self.dom_dim
        num = SparseMap._from_ints(n, self.cod_dim, self.entries)
        p = []
        for c in num.char_poly():
            if c.denominator != 1:
                raise SpectrumError(
                    "non-int coefficient in the characteristic polynomial "
                    "of an int matrix", witness=c)
            p.append(c.numerator)
        zeros = next(j for j, c in enumerate(p) if c)
        p = p[zeros:]
        mults = {0: zeros} if zeros else {}
        c0 = abs(p[0])
        bound = max((sum(map(abs, col.values()))
                     for col in self.columns().values()), default=0)
        steps = min(bound, isqrt(c0))
        if steps > MAX_TRIAL_DIVISIONS:
            raise SpectrumError(
                f"the root search needs {steps} trial divisions, more than "
                f"{MAX_TRIAL_DIVISIONS}", witness={"trial_divisions": steps})
        for e in range(1, steps + 1):
            if len(p) == 1:
                break
            if c0 % e:
                continue
            for mu in (e, -e, c0 // e, -(c0 // e)):
                while len(p) > 1 and abs(mu) <= bound:
                    q, rem = _deflate(p, mu)
                    if rem:
                        break
                    p = q
                    mults[mu] = mults.get(mu, 0) + 1
        if len(p) > 1:
            raise SpectrumError(
                f"only {n + 1 - len(p)} of {n} eigenvalues are rational; "
                "refusing to guess"
            )
        out = []
        eye = SparseMap.identity(n)
        for mu, alg in sorted(mults.items()):
            lam = Fraction(mu, self.den)
            geo = n - num.add(eye, -mu).rank()
            if not 1 <= geo <= alg:
                raise SpectrumError(
                    "geometric multiplicity outside 1..algebraic multiplicity",
                    witness={"eigenvalue": lam, "alg": alg, "geo": geo},
                )
            out.append((lam, alg, geo))
        return Spectrum(tuple(out), sum(g for _, _, g in out) == n)


def _check_exact(vals):
    """TypeError on the first value that is not an int or a Fraction."""
    for v in vals:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(
                f"exact values are ints or Fractions, not {type(v).__name__}")


def _over_common_den(vals):
    """(int numerators, den) of the nonzero values of vals over their least
    common denominator, the one place values enter the int format: each is
    an int or a Fraction, and anything else, a float above all, raises
    TypeError rather than be read as a binary fraction.  den //
    v.denominator is exact, den being a multiple.  The pair is canonical: a
    prime of den divides den // v.denominator not at all for a value whose
    denominator carries its full power."""
    _check_exact(vals.values())
    den = lcm(*{v.denominator for v in vals.values()})
    return {k: v.numerator * (den // v.denominator)
            for k, v in vals.items() if v}, den


# Eigenvalues with algebraic and geometric multiplicities: pairs is
# ((eigenvalue, alg, geo), ...)
Spectrum = namedtuple("Spectrum", ("pairs", "diagonalizable"))


# ---------------------------------------------------------------------------
# subspaces in reduced column echelon form


class Subspace:
    """Subspace of Q^ambient_dim with a reduced echelon basis, stored as
    SparseMap stores a matrix: nums[j] holds the int numerators of basis
    vector j over one den, den > 0 and gcd(den, every numerator) = 1.

    The vectors are sorted by pivot, each one's largest index, where its
    numerator is den; each vanishes at the others' pivots.  So v lies in
    the span exactly when den*v - sum v[p_j]*nums[j] is zero, and then its
    coordinates are the v[p_j].  Fractions appear only at the boundary:
    vectors, and residue and coordinates_of of Fraction input.
    """

    __slots__ = ("ambient_dim", "nums", "pivots", "den")

    def __init__(self, ambient_dim, nums, pivots, den=1):
        """Trusts nums and pivots to be a reduced echelon basis over den;
        only their common factor is cancelled."""
        self.ambient_dim = ambient_dim
        self.nums, self.den = _cancel(nums, den)
        self.pivots = pivots

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, [], [])

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, [{i: 1} for i in range(ambient_dim)],
                   list(range(ambient_dim)))

    @classmethod
    def from_vectors(cls, ambient_dim, vecs):
        sub = cls.zero(ambient_dim)
        for v in vecs:
            sub.insert(v)
        return sub

    @property
    def dim(self):
        return len(self.nums)

    @property
    def vectors(self):
        """The basis vectors as Fraction dicts."""
        den = self.den
        return [{i: Fraction(x, den) for i, x in b.items()} for b in self.nums]

    def residue(self, vec):
        """den*vec - sum vec[p_j]*nums[j] in one pass, as a new dict: empty
        exactly when vec lies in the span.  Ints for int input; TypeError
        on a value that is not an int or a Fraction."""
        _check_exact(vec.values())
        return _combine(self.den, vec, [
            (-vec[p], b) for b, p in zip(self.nums, self.pivots) if vec.get(p)])

    def insert(self, vec):
        """One fraction-free Gauss-Jordan step, then the common factor is
        cancelled.  The new basis vector's numerators, or None if inside."""
        if not vec:
            return None
        if min(vec) < 0 or max(vec) >= self.ambient_dim:
            raise DimensionError("vector outside ambient space")
        for x in vec.values():
            if type(x) is not int:
                vec = _over_common_den(vec)[0]
                break
        den = self.den
        r = {i: den * x for i, x in vec.items()} if den != 1 else dict(vec)
        for b, p in zip(self.nums, self.pivots):
            x = vec.get(p)
            if x:
                for i, y in b.items():
                    r[i] = r.get(i, 0) - x * y
        r = {i: x for i, x in r.items() if x}
        if not r:
            return None
        p = max(r)
        g = gcd(*r.values()) if r[p] > 0 else -gcd(*r.values())
        if g != 1:
            r = {i: x // g for i, x in r.items()}
        a = r[p]
        # the new vector is r / a; b_j - b_j[p] * r / a is over a * den, so
        # the vectors without p are only scaled by a
        nums = [_combine(a, b, [(-b[p], r)]) if p in b
                else {i: a * x for i, x in b.items()} if a != 1 else b
                for b in self.nums]
        at = bisect(self.pivots, p)
        nums.insert(at, r if den == 1 else {i: den * x for i, x in r.items()})
        self.pivots.insert(at, p)
        self.nums, self.den = _cancel(nums, a * den)
        return self.nums[at]

    def contains(self, vec):
        return not self.residue(vec)

    def coordinates_of(self, vec):
        """Coordinates in the echelon basis, or None if vec is outside."""
        if self.residue(vec):
            return None
        return [vec.get(p, 0) for p in self.pivots]

    def read_coordinates(self, vectors, op=None):
        """(entries, bad): the coordinates of int vectors in this basis,
        each certified by its residue.

        y is vectors[c], or given a SparseMap op, the image of vectors[c]
        under op's numerators, which is built here and never kept.  y[p_j]
        goes to (j, c): y's coordinates, over y's den.  The residue
        den*y - sum y[p_j]*nums[j] is built in one dict; for op, den*y is
        accumulated straight into it and y[p_j] is read back as its entry
        at p_j over den.  y lies in the span exactly when the residue is
        zero; this is the one residue code of a coordinate read.  bad is
        the first c outside the span, where reading stops, or None.  One
        pivot -> position dict finds the pivots y meets, so y costs its own
        support and the basis vectors at those pivots, not a pass over the
        basis."""
        at = {p: j for j, p in enumerate(self.pivots)}
        nums, den = self.nums, self.den
        cols = None if op is None else op.columns()
        ent = {}
        for c, v in enumerate(vectors):
            if cols is None:
                res = {i: den * x for i, x in v.items()} if den != 1 else dict(v)
            else:
                res = {}
                for i, x in v.items():
                    col = cols.get(i)
                    if col is not None:
                        x *= den
                        for r, a in col.items():
                            res[r] = res.get(r, 0) + x * a
            for j, x in [(at[i], x // den) for i, x in res.items()
                         if x and i in at]:
                ent[(j, c)] = x
                for k, z in nums[j].items():
                    res[k] = res.get(k, 0) - x * z
            if any(res.values()):
                return ent, c
        return ent, None

    def lift(self, left=1, right=1):
        """id_left (x) self (x) id_right, indexed as SparseMap.lift, with no
        elimination: vector j's copy at (a, b) pivots at a*D*right +
        p_j*right + b (D = ambient_dim), increasing in a, then j, then b,
        and copies at different (a, b) have disjoint supports, so the basis
        stays reduced echelon."""
        n = self.ambient_dim * right
        nums, pivots = [], []
        for a in range(left):
            for v, p in zip(self.nums, self.pivots):
                for b in range(right):
                    nums.append({a * n + i * right + b: x for i, x in v.items()})
                    pivots.append(a * n + p * right + b)
        return Subspace(n * left, nums, pivots, self.den)

    def basis_matrix(self):
        """The basis vectors as the columns of a map into the ambient space."""
        ent = {(i, j): v for j, b in enumerate(self.nums) for i, v in b.items()}
        return SparseMap._from_ints(self.dim, self.ambient_dim, ent, self.den)

    def intersect(self, other):
        """Spanned by N x over the kernel x of the columns [N | -N_other]."""
        self._check_ambient(other)
        if not self.nums or not other.nums:
            return Subspace.zero(self.ambient_dim)
        cols = self.nums + [{i: -x for i, x in b.items()} for b in other.nums]
        stacked = SparseMap._from_ints(len(cols), self.ambient_dim, {
            (i, j): x for j, b in enumerate(cols) for i, x in b.items()})
        mine, k = self.basis_matrix(), self.dim
        return Subspace.from_vectors(self.ambient_dim, [
            mine.apply_numerators({j: x for j, x in kv.items() if j < k})
            for kv in stacked.kernel().nums])

    def complement_of(self, inner):
        """An echelon complement of inner inside self (inner must sit inside):
        the basis vectors off the pivots of inner's coordinates."""
        self._check_ambient(inner)
        coords = []
        for v in inner.nums:
            c = self.coordinates_of(v)
            if c is None:
                raise SubspaceError("complement_of: inner subspace not contained")
            coords.append({i: x for i, x in enumerate(c) if x})
        used = set(Subspace.from_vectors(self.dim, coords).pivots)
        keep = [j for j in range(self.dim) if j not in used]
        return Subspace(self.ambient_dim, [self.nums[j] for j in keep],
                        [self.pivots[j] for j in keep], self.den)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return ((self.ambient_dim, self.pivots, self.den, self.nums)
                == (other.ambient_dim, other.pivots, other.den, other.nums))

    __hash__ = None

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient_dim})"

    def _check_ambient(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise SubspaceError("ambient dimensions differ")


def _cancel(nums, den):
    """(nums, den) with their common factor cancelled; the gcd stops at the
    first vector that brings it to 1."""
    g = den
    for b in nums:
        if g == 1:
            break
        g = gcd(g, *b.values())
    if g == 1:
        return nums, den
    return [{i: x // g for i, x in b.items()} for b in nums], den // g


def _combine(a, u, terms):
    """a*u + sum x*w over the (x, w) pairs of terms, without zeros."""
    out = {i: a * y for i, y in u.items()}
    for x, w in terms:
        for i, y in w.items():
            out[i] = out.get(i, 0) + x * y
    return {i: y for i, y in out.items() if y}


# ---------------------------------------------------------------------------
# polynomial helpers (ascending int coefficient lists)


def _deflate(coeffs, root):
    """Divide by (t - root); returns (quotient, remainder)."""
    acc = 0
    out = []
    for c in reversed(coeffs):
        acc = acc * root + c
        out.append(acc)
    rem = out.pop()
    out.reverse()
    return out, rem
