"""Super vector spaces and their signed symmetric/exterior powers.

A space with m even and n odd basis letters (letters 0..m-1 even, m..m+n-1
odd).  Degree-N powers come in two kinds: "sym" (odd letters square to zero)
and "alt" (even letters square to zero).  Each admissible multiset of letters
indexes one basis vector, realized inside the N-fold tensor power as the
signed sum over all distinct orderings of the multiset, normalized so the
ascending word carries coefficient 1.

Because distinct multisets hit disjoint sets of tensor words, these realized
vectors are a reduced column echelon basis of the projected subspace.  The
package never works in the tensor power itself: every map between powers is
assembled from the single-letter factor maps below (multiply by one letter
and reproject, or split one letter off), whose entries are read off the
multisets.  expansion lists the words of a basis vector for export; the
tests check the factor maps against full tensor-power projectors.
"""

from __future__ import annotations

from collections import Counter
from itertools import (
    combinations,
    combinations_with_replacement,
    permutations,
    product,
)
from math import comb, lcm
from operator import add

from .characters import _perm_sign
from .linalg import SparseMap, Subspace, SubspaceError

KINDS = ("sym", "alt")


class SuperSpace:
    """m|n super vector space; letters 0..m-1 even, m..m+n-1 odd."""

    __slots__ = ("m", "n")

    def __init__(self, m, n):
        if m < 0 or n < 0:
            raise ValueError("negative dimensions")
        self.m = m
        self.n = n

    @property
    def dim(self):
        return self.m + self.n

    def parity(self, letter):
        if not 0 <= letter < self.dim:
            raise ValueError(f"letter {letter} outside 0..{self.dim - 1}")
        return 0 if letter < self.m else 1

    def __eq__(self, other):
        return isinstance(other, SuperSpace) and (self.m, self.n) == (other.m, other.n)

    def __hash__(self):
        return hash((self.m, self.n))

    def __repr__(self):
        return f"SuperSpace({self.m}|{self.n})"


def weight_label(weight, m, n):
    """Exponent vector -> highest-weight label (odd coordinates negated)."""
    return tuple(weight[:m]) + tuple(-c for c in weight[m:])


def admissible(space, kind, multiset):
    """sym: odd letters at most once; alt: even letters at most once."""
    for letter, mult in Counter(multiset).items():
        if mult > 1:
            odd = space.parity(letter)
            if kind == "sym" and odd:
                return False
            if kind == "alt" and not odd:
                return False
    return True


def sort_sign(space, kind, word):
    """Sign acquired when sorting the word ascending by adjacent swaps.

    Each swapped pair contributes the Koszul sign (-1 iff both letters odd),
    and for "alt" an extra -1 per swap.  Equal letters never swap.
    """
    inv = 0
    oo = 0
    for s in range(len(word)):
        for t in range(s + 1, len(word)):
            if word[s] > word[t]:
                inv += 1
                if space.parity(word[s]) and space.parity(word[t]):
                    oo += 1
    sign = -1 if oo % 2 else 1
    if kind == "alt" and inv % 2:
        sign = -sign
    return sign


def distinct_orderings(mu):
    """The distinct orderings of the ascending tuple mu, in ascending
    lexicographic order, one step each: the next permutation of a multiset
    (Knuth, TAOCP 7.2.1.2, Algorithm L)."""
    a, n = list(mu), len(mu)
    while True:
        yield tuple(a)
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = n - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[:j:-1]


class PowerBasis:
    """Basis of the degree-N sym/alt power, indexed by admissible multisets.

    dual=True flips the sign of every weight (dual letters lower), nothing
    else: parities and all sign rules depend only on the letters.
    """

    def __init__(self, space, kind, degree, dual=False):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if degree < 0:
            raise ValueError("negative degree")
        self.space = space
        self.kind = kind
        self.degree = degree
        self.dual = dual
        self.multisets = [
            mu
            for mu in combinations_with_replacement(range(space.dim), degree)
            if admissible(space, kind, mu)
        ]
        self.index = {mu: i for i, mu in enumerate(self.multisets)}
        self.dim = len(self.multisets)
        sgn = -1 if dual else 1
        self.weights = []
        self.parities = []
        for mu in self.multisets:
            w = [0] * space.dim
            p = 0
            for letter in mu:
                w[letter] += sgn
                p ^= space.parity(letter)
            self.weights.append(tuple(w))
            self.parities.append(p)
        self._factor_maps = {}

    def key(self):
        return (self.space.m, self.space.n, self.kind, self.degree, self.dual)

    def __repr__(self):
        star = "*" if self.dual else ""
        return f"PowerBasis({self.kind}{star} deg={self.degree} of {self.space}, dim={self.dim})"

    # -- tensor realization ---------------------------------------------------

    def expansion(self, idx):
        """[(word, sign)] over the distinct orderings in ascending order;
        the ascending word has sign 1."""
        return [(word, sort_sign(self.space, self.kind, word))
                for word in distinct_orderings(self.multisets[idx])]

    # -- single-letter factor maps ---------------------------------------------
    #
    # Multiplying a power vector by one letter on the right (or left) and
    # reprojecting, or splitting off the rightmost (leftmost) letter, are maps
    # with one entry per column.  The signs are the cost of walking the letter
    # past the part of the multiset it has to cross, the magnitude is the
    # multiplicity ratio from the projector normalization.

    def _walk_sign(self, mu, i, from_right):
        """Walk letter i from the right (left) end into ascending position,
        crossing the letters of mu above (below) it."""
        crossed = [a for a in mu if (a > i if from_right else a < i)]
        odd_crossed = sum(1 for a in crossed if self.space.parity(a))
        sign = 1
        if self.kind == "alt" and len(crossed) % 2:
            sign = -sign
        if self.space.parity(i) and odd_crossed % 2:
            sign = -sign
        return sign

    def factor_map(self, op, i):
        """op in {"append","prepend","drop_last","drop_first"}, letter i."""
        key = (op, i)
        if key in self._factor_maps:
            return self._factor_maps[key]
        sp, kind, dual = self.space, self.kind, self.dual
        if op in ("append", "prepend"):
            target = power_basis(sp, kind, self.degree + 1, dual)
            ent = {}
            for col, mu in enumerate(self.multisets):
                nu = tuple(sorted(mu + (i,)))
                row = target.index.get(nu)
                if row is None:
                    continue
                sign = self._walk_sign(mu, i, op == "append")
                ent[(row, col)] = (mu.count(i) + 1) * sign
            m = SparseMap._from_ints(self.dim, target.dim, ent, self.degree + 1)
        elif op in ("drop_last", "drop_first"):
            if self.degree == 0:
                m = SparseMap.zero(self.dim, 0)
            else:
                target = power_basis(sp, kind, self.degree - 1, dual)
                ent = {}
                for col, mu in enumerate(self.multisets):
                    if i not in mu:
                        continue
                    nu = list(mu)
                    nu.remove(i)
                    nu = tuple(nu)
                    row = target.index[nu]
                    ent[(row, col)] = self._walk_sign(nu, i, op == "drop_last")
                m = SparseMap._from_ints(self.dim, target.dim, ent)
        else:
            raise ValueError(f"unknown factor op {op!r}")
        self._factor_maps[key] = m
        return m


_PB_CACHE = {}


def power_basis(space, kind, degree, dual=False):
    """Shared PowerBasis instances (factor maps and expansions memoize)."""
    key = (space.m, space.n, kind, degree, dual)
    if key not in _PB_CACHE:
        _PB_CACHE[key] = PowerBasis(space, kind, degree, dual)
    return _PB_CACHE[key]


def sym_dim(m, n, degree):
    """Count of admissible sym multisets, by choice of the odd subset."""
    total = 0
    for j in range(min(n, degree) + 1):
        total += comb(n, j) * comb(m - 1 + degree - j, m - 1)
    return total


def alt_dim(m, n, degree):
    total = 0
    for j in range(min(m, degree) + 1):
        total += comb(m, j) * comb(n - 1 + degree - j, n - 1)
    return total


# ---------------------------------------------------------------------------
# tensor products of power bases and modules


class ProductSpace:
    """Ordered tensor product, row-major indexing.  A factor is a PowerBasis
    or a built glrep.GLModule: either has a space, a dim, and the weight and
    parity of each basis vector, which is all the product reads.  The
    product is the one place a tensor basis's weights and parities are
    worked out."""

    def __init__(self, *factors):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = tuple(factors)
        self.dim = 1
        for f in factors:
            self.dim *= f.dim
        self._weights = None

    def weights(self):
        """Each index's weight, the sum of its factors' weights, folded in
        factor by factor in row-major order; a factor that is one vector of
        weight zero (S_0, S*_0) adds nothing and is skipped."""
        if self._weights is None:
            ws = [(0,) * self.factors[0].space.dim]
            for f in self.factors:
                if f.dim != 1 or any(f.weights[0]):
                    ws = [tuple(map(add, a, b)) for a in ws for b in f.weights]
            self._weights = ws
        return self._weights

    def parities(self):
        """Each index's parity, the sum of its factors' parities mod 2."""
        return [sum(ps) & 1 for ps in
                product(*(f.parities for f in self.factors))]

    def __repr__(self):
        return " (x) ".join(repr(f) for f in self.factors)


# ---------------------------------------------------------------------------
# weight-graded fast paths: every structural map in the package preserves
# weights, so rank/kernel/image decompose over weight blocks.  A graded
# subspace moves between the whole space and its blocks by re-indexing
# alone: each block's index list increases, so a vector's largest index
# stays its largest and the echelon basis stays reduced either way.


def weight_blocks(weights):
    """({weight: increasing indices}, position of each index in its block)."""
    blocks = {}
    local = []
    for i, w in enumerate(weights):
        idx = blocks.setdefault(w, [])
        local.append(len(idx))
        idx.append(i)
    return blocks, local


def is_dominant(weight, m):
    """Whether the even and the odd coordinates are each non-increasing:
    whether the weight is the highest weight of a finite-dimensional simple
    gl(m) + gl(n)-module."""
    return all(weight[j] >= weight[j + 1]
               for j in range(len(weight) - 1) if j != m - 1)


def weyl_dim(weight, m):
    """The dimension of the simple gl(m) + gl(n) module whose highest
    weight is the even-dominant weight (is_dominant): Weyl's formula for
    each part, the product over i < j of (w_i - w_j + j - i) / (j - i)."""
    num = den = 1
    for part in (weight[:m], weight[m:]):
        for i, j in combinations(range(len(part)), 2):
            num *= part[i] - part[j] + j - i
            den *= j - i
    return num // den


def g0_multiplicities(weights, m):
    """{mu: n_mu} for each even-dominant weight mu (is_dominant) among the
    weights of a gl(m) + gl(n)-module's basis vectors, n_mu the number of
    copies of the simple module of highest weight mu in it.  By Weyl's
    character formula and denominator identity, n_mu is the sum over w in
    S_m x S_n of sgn(w) times the number of basis vectors of weight
    mu + rho - w rho, rho = (m-1, .., 0 | n-1, .., 0), so that
    (rho - w rho)_i = w(i) - i within each part."""
    count = Counter(weights)
    if not count:
        return {}
    n = len(next(iter(count))) - m
    shifts = [(_perm_sign(even) * _perm_sign(odd),
               tuple(w - i for i, w in enumerate(even))
               + tuple(w - j for j, w in enumerate(odd)))
              for even in permutations(range(m))
              for odd in permutations(range(n))]
    return {mu: sum(sign * count.get(tuple(a + b for a, b in zip(mu, shift)), 0)
                    for sign, shift in shifts)
            for mu in count if is_dominant(mu, m)}


def _not_graded(r, c, wc, wr):
    return ValueError(
        f"map is not weight-graded: entry ({r},{c}) sends {wc} to {wr}")


def split_graded(mat, dom_weights, cod_weights):
    """Per-weight blocks of a graded map; raises if any entry crosses weights.

    Returns {weight: (block SparseMap, dom indices, cod indices)} covering
    every weight present on either side.
    """
    dom_blocks, dom_local = weight_blocks(dom_weights)
    cod_blocks, cod_local = weight_blocks(cod_weights)
    ents = {}
    for (r, c), v in mat.entries.items():
        wr, wc = cod_weights[r], dom_weights[c]
        if wr != wc:
            raise _not_graded(r, c, wc, wr)
        ents.setdefault(wc, {})[(cod_local[r], dom_local[c])] = v
    out = {}
    for w in set(dom_blocks) | set(cod_blocks):
        dom_idx = dom_blocks.get(w, [])
        cod_idx = cod_blocks.get(w, [])
        block = SparseMap._from_ints(
            len(dom_idx), len(cod_idx), ents.get(w, {}), mat.den)
        out[w] = (block, dom_idx, cod_idx)
    return out


def join(ambient_dim, parts):
    """The subspace spanned by local subspaces mapped through increasing,
    pairwise disjoint index lists: parts is an iterable of (local Subspace,
    global indices).  The numerators are re-indexed and rescaled to the lcm
    of the part dens.  Raises SubspaceError if two parts share a pivot."""
    parts = list(parts)
    den = lcm(*(part.den for part, _ in parts))
    merged = {}
    for part, idx in parts:
        f = den // part.den
        for v, p in zip(part.nums, part.pivots):
            g = idx[p]
            if g in merged:
                raise SubspaceError(f"two parts share the pivot {g}")
            merged[g] = {idx[i]: f * x for i, x in v.items()}
    pivots = sorted(merged)
    return Subspace(ambient_dim, [merged[p] for p in pivots], pivots, den)


class GradedSpan:
    """Span of weight-homogeneous vectors, reduced within each weight only.

    Vectors of different weights have disjoint supports, so per-weight
    echelon bases stay globally independent and insertion is cheap.
    """

    def __init__(self, ambient_dim, weights):
        self.ambient_dim = ambient_dim
        self.weights = weights
        self.blocks = {}

    @property
    def dim(self):
        return sum(b.dim for b in self.blocks.values())

    def insert(self, vec):
        """Insert if independent; returns the new basis vector or None.
        ValueError on a vector that mixes weights."""
        if not vec:
            return None
        weights = self.weights
        entries = iter(vec)
        w = weights[next(entries)]
        for i in entries:
            if weights[i] != w:
                raise ValueError("vector is not weight-homogeneous")
        block = self.blocks.get(w)
        if block is None:
            block = self.blocks[w] = Subspace.zero(self.ambient_dim)
        return block.insert(vec)

    def subspace(self):
        """The span as one Subspace: each weight's basis is reduced echelon
        in ambient coordinates, and bases of different weights have
        disjoint supports, so join merges them with no elimination."""
        every = range(self.ambient_dim)
        return join(self.ambient_dim, ((b, every) for b in self.blocks.values()))


def _column_span(mat, dom_weights, cod_weights):
    """The GradedSpan of a graded map's columns, each inserted into the span
    of its weight in ambient coordinates; raises ValueError as split_graded
    does."""
    cols = {}
    for (r, c), v in mat.entries.items():
        if cod_weights[r] != dom_weights[c]:
            raise _not_graded(r, c, dom_weights[c], cod_weights[r])
        cols.setdefault(c, {})[r] = v
    span = GradedSpan(mat.cod_dim, cod_weights)
    for c in sorted(cols):
        span.insert(cols[c])
    return span


def blocked_rank(mat, dom_weights, cod_weights):
    """The rank of a graded map: the dimension of its column span."""
    return _column_span(mat, dom_weights, cod_weights).dim


def blocked_kernel(mat, dom_weights, cod_weights):
    blocks = split_graded(mat, dom_weights, cod_weights).values()
    return join(mat.dom_dim, ((b.kernel(), dom_idx) for b, dom_idx, _ in blocks))


def blocked_image(mat, dom_weights, cod_weights):
    """The image of a graded map: its column span merged into one Subspace
    (GradedSpan.subspace)."""
    return _column_span(mat, dom_weights, cod_weights).subspace()
