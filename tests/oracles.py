"""Reference constructions the tests compare the package against.

None of these is used by the package itself: full tensor-power symmetrizers,
a characteristic polynomial multiplied out block by block, reading power
coordinates back off a tensor, the gl(m|n) supercommutator relations, the
action of every E_ij (Cartan included) restricted to a module, and the
inverse of SparseMap.to_triples.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial

from superkoszul.linalg import DimensionError, RestrictionError, SparseMap
from superkoszul.superspace import split_graded

ZERO = Fraction(0)
ONE = Fraction(1)


def from_triples(data):
    """SparseMap from the JSON form written by SparseMap.to_triples."""
    ent = {
        (int(r), int(c)): Fraction(int(num), int(den))
        for r, c, num, den in data["entries"]
    }
    return SparseMap(data["dom_dim"], data["cod_dim"], ent)


def coords_from_tensor(basis, tvec):
    """Power-basis coordinates read off the ascending-word rows of a tensor
    vector; raises ValueError if the vector is not in the projected subspace."""
    out = {}
    for idx, mu in enumerate(basis.multisets):
        a = tvec.get(basis.word_index(mu), ZERO)
        if a:
            out[idx] = a
    if basis.to_tensor(out) != tvec:
        raise ValueError("tensor vector is not in the projected subspace")
    return out


# ---------------------------------------------------------------------------
# full tensor-power symmetrizers


def tensor_permutation_map(space, perm, degree):
    """Signed permutation of tensor factors; slot s moves to slot perm[s]."""
    d = space.dim
    dim = d ** degree
    ent = {}
    for flat in range(dim):
        word = []
        f = flat
        for _ in range(degree):
            word.append(f % d)
            f //= d
        word.reverse()
        sign = 1
        for s in range(degree):
            for t in range(s + 1, degree):
                if perm[s] > perm[t] and space.parity(word[s]) and space.parity(word[t]):
                    sign = -sign
        out = [0] * degree
        for s, letter in enumerate(word):
            out[perm[s]] = letter
        oflat = 0
        for letter in out:
            oflat = oflat * d + letter
        ent[(oflat, flat)] = Fraction(sign)
    return SparseMap(dim, dim, ent)


def symmetrizer_map(space, kind, degree):
    """Group average X_N (sym) or signed average Y_N (alt) on the tensor power."""
    dim = space.dim ** degree
    acc = SparseMap.zero(dim, dim)
    for perm in permutations(range(degree)):
        t = tensor_permutation_map(space, perm, degree)
        if kind == "alt":
            inv = sum(
                1
                for s in range(degree)
                for u in range(s + 1, degree)
                if perm[s] > perm[u]
            )
            if inv % 2:
                t = (-ONE) * t
        acc = acc + t
    return Fraction(1, factorial(degree)) * acc


# ---------------------------------------------------------------------------
# characteristic polynomials


def poly_mul(a, b):
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def blocked_char_poly(mat, weights):
    if mat.dom_dim != mat.cod_dim:
        raise DimensionError("char_poly of non-square map")
    poly = [ONE]
    for block, _, _ in split_graded(mat, weights, weights).values():
        poly = poly_mul(poly, block.char_poly())
    return poly


# ---------------------------------------------------------------------------
# gl(m|n) relations


def supercommutator_failures(space, mats):
    """[E_ab, E_cd] = delta_bc E_ad - (-1)^(p(ab)p(cd)) delta_da E_cb for
    mats, a dict holding the matrix of every E_ij; returns the list of
    failing generator pairs."""
    d = space.dim
    n = mats[(0, 0)].dom_dim
    zero = SparseMap(n, n, {})
    bad = []
    for a in range(d):
        for b in range(d):
            pab = (space.parity(a) + space.parity(b)) % 2
            for c in range(d):
                for e in range(d):
                    pcd = (space.parity(c) + space.parity(e)) % 2
                    lhs = mats[(a, b)] @ mats[(c, e)]
                    rl = mats[(c, e)] @ mats[(a, b)]
                    lhs = lhs - rl.scaled(Fraction((-1) ** (pab * pcd)))
                    rhs = zero
                    if b == c:
                        rhs = rhs + mats[(a, e)]
                    if e == a:
                        rhs = rhs - mats[(c, b)].scaled(
                            Fraction((-1) ** (pab * pcd))
                        )
                    if not (lhs - rhs).is_zero():
                        bad.append(((a, b), (c, e)))
    return bad


def supercommutator_check(act, product):
    """The supercommutator relations of the ambient action on the product."""
    d = act.space.dim
    mats = {
        (i, j): act.on_product(product, i, j) for i in range(d) for j in range(d)
    }
    return supercommutator_failures(act.space, mats)


# ---------------------------------------------------------------------------
# the full action on a module


def full_action(act, product, basis, modulo=None, pairs=None):
    """Every E_ij of pairs (all (m+n)^2 by default) on the span of basis,
    restricted from the ambient action on the product.

    With modulo the action is the one on (span(basis) + modulo) / modulo in
    the basis given, each image reduced modulo the subspace first.  Raises
    RestrictionError if an image leaves the span.
    """
    d = act.space.dim
    if pairs is None:
        pairs = [(i, j) for i in range(d) for j in range(d)]
    out = {}
    for i, j in pairs:
        amb = act.on_product(product, i, j)
        if modulo is None:
            out[(i, j)] = amb.restrict(basis, basis)
            continue
        cols = {}
        for c, v in enumerate(basis.vectors):
            coords = basis.coordinates_of(modulo._reduce(amb.apply(v)))
            if coords is None:
                raise RestrictionError("image leaves the span modulo the subspace",
                                       witness={"generator": (i, j), "index": c})
            cols[c] = {r: x for r, x in enumerate(coords) if x}
        out[(i, j)] = SparseMap.from_columns(basis.dim, basis.dim, cols)
    return out
