"""Reference constructions the tests compare the package against.

None of these is used by the package itself: a basis vector's words from
every ordering of its multiset, power bases realized in the full tensor
power and tensors projected back word by word, E_ij acting on those words,
E_ij on a tensor product as a sum of Kronecker products with identity and
signed-identity factors, full tensor-power symmetrizers, a
characteristic polynomial multiplied out block by block, dense Fraction
matrices standing in for SparseMap's arithmetic, the gl(m|n)
supercommutator relations, the action of every E_ij (Cartan included)
restricted to a module or tested against an operator, the equivariance
check made at a spot itself with no line spot, the highest weight of
a module, the three-leg irreducibility test (an unblocked singular space,
the closure of arbitrary vectors under every simple generator, and the
singular space of the dual), the inverse of SparseMap.to_triples,
transposes, letter weights, row-major indices of a product space, a
map's column, a subspace's basis matrix, coordinates and containment,
subspace sums, Ker(P (x) id) against the incoming image of
P (x) id eliminated on the whole spot, the homology of the transfer
complex, the eigenvalue ladder of the insertion-side loop, the loop
spectra from every weight block with no reduction to gl(m) + gl(n)-singular
vectors, the gl(m) + gl(n)-singular vectors of a loop's space sought at
every even-dominant weight, the pinned loop cells and the digest of their
reports, a graded subspace split into its weight blocks, the two routes of
a mixed square composed on the full triple spot, maps stacked as numerator
blocks, the pair splitting's ranks from the composite del.d and the stacked
map, the pair splitting and every summand of the two triple-spot splittings
as subspaces, the Z summand taken on every vector of a lifted W, the
derivation on a product summed by SparseMap.combination, a Z module
restricted from its whole triple spot, tensor
products of modules, the calibration of d against del, and
Laurent-polynomial helpers (powers, inverted and permuted variables,
fraction equality).
"""

from collections import Counter
from fractions import Fraction
from hashlib import sha256
from itertools import permutations
from math import factorial, prod

from superkoszul.characters import (
    CharacterError,
    CharFraction,
    LaurentPoly,
)
from superkoszul.glrep import (
    GLAction,
    GLModule,
    ModuleError,
    dual_module,
    module_from_subspace,
    raising_pairs,
    simple_pairs,
)
from superkoszul.koszul import (
    KoszulError,
    Spot,
    op_target,
    verify_spectrum,
    word_end,
)
from superkoszul.linalg import (
    DimensionError,
    RestrictionError,
    SparseMap,
    Subspace,
    SubspaceError,
)
from superkoszul.superspace import (
    GradedSpan,
    ProductSpace,
    blocked_image,
    blocked_kernel,
    blocked_rank,
    is_dominant,
    join,
    sort_sign,
    split_graded,
    weight_blocks,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def from_triples(data):
    """SparseMap from the JSON form written by SparseMap.to_triples."""
    ent = {
        (int(r), int(c)): Fraction(int(num), int(den))
        for r, c, num, den in data["entries"]
    }
    return SparseMap(data["dom_dim"], data["cod_dim"], ent)


def transpose(m):
    """The transpose, over the same den."""
    return SparseMap._from_ints(
        m.cod_dim, m.dom_dim, {(c, r): v for (r, c), v in m.entries.items()}, m.den)


# ---------------------------------------------------------------------------
# dense Fraction matrices: the oracle for SparseMap's ints over one den


def dense(m):
    """SparseMap -> list of rows of Fraction values, read off the stored
    numerators and den."""
    out = [[ZERO] * m.dom_dim for _ in range(m.cod_dim)]
    for (r, c), v in m.entries.items():
        out[r][c] = Fraction(v, m.den)
    return out


def from_dense(rows):
    ent = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v:
                ent[(r, c)] = Fraction(v)
    return SparseMap(len(rows[0]) if rows else 0, len(rows), ent)


def dense_compose(a, b):
    """Rows of a after b, summed in Fractions."""
    da, db = dense(a), dense(b)
    return [[sum((da[i][k] * db[k][j] for k in range(a.dom_dim)), ZERO)
             for j in range(b.dom_dim)] for i in range(a.cod_dim)]


def dense_add(a, b, scale=ONE):
    da, db = dense(a), dense(b)
    return [[x + scale * y for x, y in zip(ra, rb)] for ra, rb in zip(da, db)]


def dense_kron(a, b):
    da, db = dense(a), dense(b)
    return [[da[i1][j1] * db[i2][j2]
             for j1 in range(a.dom_dim) for j2 in range(b.dom_dim)]
            for i1 in range(a.cod_dim) for i2 in range(b.cod_dim)]


def dense_lift(m, left, right, left_parities=None):
    """id_left (x) m (x) id_right with the copies at odd left indices
    negated, written entry by entry."""
    d = dense(m)
    rows, cols = m.cod_dim * right, m.dom_dim * right
    out = [[ZERO] * (cols * left) for _ in range(rows * left)]
    for a in range(left):
        sign = -1 if left_parities and left_parities[a] else 1
        for r in range(m.cod_dim):
            for c in range(m.dom_dim):
                r0, c0 = a * rows + r * right, a * cols + c * right
                for b in range(right):
                    out[r0 + b][c0 + b] = sign * d[r][c]
    return out


def dense_apply(m, vec):
    """m applied to a sparse vector, as a sparse dict without zeros."""
    d = dense(m)
    out = {}
    for r in range(m.cod_dim):
        s = sum((d[r][c] * x for c, x in vec.items()), ZERO)
        if s:
            out[r] = s
    return out


def naive_rref(rows):
    """Dense RREF; returns (rows, pivot_cols)."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def naive_rank(m):
    return len(naive_rref(dense(m))[0])


def dense_span(dim, vecs):
    """The reduced echelon basis of the span of vecs with each vector
    pivoted on its largest index, by the dense RREF of the vectors as rows
    with their columns reversed: (Fraction dicts sorted by pivot, pivots)."""
    rows = [[Fraction(v.get(dim - 1 - c, 0)) for c in range(dim)] for v in vecs]
    rref, cols = naive_rref(rows)
    pairs = sorted((dim - 1 - c, {dim - 1 - j: x for j, x in enumerate(r) if x})
                   for r, c in zip(rref, cols))
    return [v for _, v in pairs], [p for p, _ in pairs]


def weight_of_letter(space, letter, dual=False):
    """Weight of one letter (dual letters lower)."""
    w = [0] * space.dim
    w[letter] = -1 if dual else 1
    return tuple(w)


# ---------------------------------------------------------------------------
# power bases inside the full tensor power


def tensor_dim(basis):
    return basis.space.dim ** basis.degree


def word_index(basis, word):
    flat = 0
    for letter in word:
        flat = flat * basis.space.dim + letter
    return flat


def unindex_word(basis, flat):
    word = []
    for _ in range(basis.degree):
        word.append(flat % basis.space.dim)
        flat //= basis.space.dim
    return tuple(reversed(word))


def product_index(ps, idxs):
    """Row-major flat index of one index per factor of a ProductSpace."""
    if len(idxs) != len(ps.factors):
        raise DimensionError("index tuple length mismatch")
    flat = 0
    for i, f in zip(idxs, ps.factors):
        flat = flat * f.dim + i
    return flat


def product_unindex(ps, flat):
    """The factor indices of a flat ProductSpace index."""
    out = []
    for f in reversed(ps.factors):
        out.append(flat % f.dim)
        flat //= f.dim
    return tuple(reversed(out))


def expansion_by_permutations(basis, idx):
    """PowerBasis.expansion from every ordering of the multiset: its d!
    orderings built, deduplicated and sorted (small degrees only)."""
    return [(word, Fraction(sort_sign(basis.space, basis.kind, word)))
            for word in sorted(set(permutations(basis.multisets[idx])))]


def norm_constant(basis, mu):
    """Coefficient of the ascending word under the bare group average."""
    num = 1
    for mult in Counter(mu).values():
        num *= factorial(mult)
    return Fraction(num, factorial(basis.degree))


def to_tensor(basis, coords):
    """Power coordinates -> vector in the full tensor power."""
    out = {}
    for idx, c in coords.items():
        for word, k in basis.expansion(idx):
            flat = word_index(basis, word)
            s = out.get(flat, ZERO) + c * k
            if s:
                out[flat] = s
            else:
                del out[flat]
    return out


def project_tensor(basis, tvec):
    """Apply the group-average projector, answer in power coordinates.

    For a word w with admissible multiset mu the projector sends e_w to
    sign(w) * norm(mu) * b_mu; inadmissible multisets die.
    """
    out = {}
    for flat, a in tvec.items():
        word = unindex_word(basis, flat)
        mu = tuple(sorted(word))
        idx = basis.index.get(mu)
        if idx is None:
            continue
        k = sort_sign(basis.space, basis.kind, word)
        s = out.get(idx, ZERO) + a * k * norm_constant(basis, mu)
        if s:
            out[idx] = s
        else:
            del out[idx]
    return out


def tensor_subspace(basis):
    """Realized basis as a Subspace of the tensor power (small N only)."""
    return Subspace.from_vectors(
        tensor_dim(basis), [to_tensor(basis, {i: ONE}) for i in range(basis.dim)]
    )


def coords_from_tensor(basis, tvec):
    """Power-basis coordinates read off the ascending-word rows of a tensor
    vector; raises ValueError if the vector is not in the projected subspace."""
    out = {}
    for idx, mu in enumerate(basis.multisets):
        a = tvec.get(word_index(basis, mu), ZERO)
        if a:
            out[idx] = a
    if to_tensor(basis, out) != tvec:
        raise ValueError("tensor vector is not in the projected subspace")
    return out


def word_generator_matrix(basis, gi, gj):
    """E_(gi,gj) on a power basis, letter by letter on every word of every
    basis vector and projected back: E_ij x_k = delta_jk x_i on letters,
    E_ij xi^k = -(-1)^((p_i+p_j)p_k) delta_ki xi^j on dual letters, and
    crossing an earlier slot costs (-1)^(p(E) p(slot))."""
    space = basis.space
    pe = (space.parity(gi) + space.parity(gj)) % 2
    cols = {}
    for idx in range(basis.dim):
        acc = {}
        for word, kappa in basis.expansion(idx):
            cross = 0
            for t, letter in enumerate(word):
                if basis.dual:
                    hit = letter == gi
                    repl = gj
                    coeff = -ONE if (pe * space.parity(gi)) % 2 == 0 else ONE
                else:
                    hit = letter == gj
                    repl = gi
                    coeff = ONE
                if hit:
                    new = word[:t] + (repl,) + word[t + 1 :]
                    c = kappa * coeff
                    if pe and cross % 2:
                        c = -c
                    flat = word_index(basis, new)
                    acc[flat] = acc.get(flat, ZERO) + c
                cross += space.parity(letter)
        col = project_tensor(basis, acc)
        if col:
            cols[idx] = col
    return SparseMap.from_columns(basis.dim, basis.dim, cols)


def kron_sum_on_product(act, product, gi, gj):
    """E_(gi,gj) on a tensor product as the sum over factors f of
    S_<f (x) E_f (x) id_>f, each Kronecker product multiplied out: S_<f is
    the identity on the factors left of f, or for an odd E the diagonal of
    (-1)^(parity of the left index)."""
    pe = (act.space.parity(gi) + act.space.parity(gj)) % 2
    total = SparseMap.zero(product.dim, product.dim)
    for f, factor in enumerate(product.factors):
        term = act.on_basis(factor, gi, gj)
        if f:
            lefts = ProductSpace(*product.factors[:f])
            left = SparseMap(lefts.dim, lefts.dim, {
                (r, r): -ONE if pe and p else ONE
                for r, p in enumerate(lefts.parities())
            })
            term = left.kron(term)
        rdim = 1
        for g in product.factors[f + 1:]:
            rdim *= g.dim
        total = total + term.kron(SparseMap.identity(rdim))
    return total


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


def equivariance_at_spot(ctx, act, name, spot):
    """The equivariance check made at the spot itself, with no line spot:
    the Cartan read off the weights, the simple generators multiplied out on
    the spot's own product spaces."""
    mat = ctx.operator(name, spot)
    dom = ctx.spot_space(spot)
    cod = ctx.spot_space(op_target(name, spot))
    dw = dom.weights()
    cw = cod.weights()
    bad = {(j, j) for (r, c) in mat.entries
           for j, (a, b) in enumerate(zip(dw[c], cw[r])) if a != b}
    bad.update((i, j) for i, j in simple_pairs(ctx.space)
               if mat @ act.on_product(dom, i, j) != act.on_product(cod, i, j) @ mat)
    return {"ok": not bad, "failing_generators": sorted(bad),
            "generators_checked": ctx.space.dim ** 2}


def equivariance_failures(ctx, act, name, spot):
    """Every E_ij that does not commute with the named operator at the spot,
    each side multiplied out."""
    mat = ctx.operator(name, spot)
    dom = ctx.spot_space(spot)
    cod = ctx.spot_space(op_target(name, spot))
    d = ctx.space.dim
    return [
        (i, j) for i in range(d) for j in range(d)
        if mat @ act.on_product(dom, i, j) != act.on_product(cod, i, j) @ mat
    ]


# ---------------------------------------------------------------------------
# the full action on a module


def highest_weight(mod):
    """The unique singular weight of a module; raises ValueError if the
    singular space is not a line."""
    ker, ws = mod.singular_weights()
    if ker.dim != 1:
        raise ValueError(f"singular space has dimension {ker.dim}")
    return ws[0]


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
            # the residue is modulo.den times the image modulo the subspace
            coords = coordinates_of(basis, modulo.residue(amb.apply(v)))
            if coords is None:
                raise RestrictionError("image leaves the span modulo the subspace",
                                       witness={"generator": (i, j), "index": c})
            cols[c] = {r: x / modulo.den for r, x in enumerate(coords) if x}
        out[(i, j)] = SparseMap.from_columns(basis.dim, basis.dim, cols)
    return out


def submodule_closure(mod, vectors):
    """Closure of arbitrary vectors under the whole action.

    Each seed splits into its weight components first: the closure contains
    each one (Cartan polynomials separate them), and generator images of
    weight vectors are weight vectors.  The components are then closed under
    every simple generator, raising and lowering."""
    span = GradedSpan(mod.dim, mod.weights)
    queue = []
    for v in vectors:
        parts = {}
        for i, x in v.items():
            parts.setdefault(mod.weights[i], {})[i] = x
        queue.extend(parts.values())
    while queue:
        new = span.insert(queue.pop())
        if new is not None:
            queue.extend(g.apply_numerators(new) for g in mod.gens.values())
    return span


def singular_space(mod):
    """Joint kernel of the simple raising generators, by one elimination of
    their numerators stacked into a single map, with no weight blocks."""
    pairs = raising_pairs(mod.space)
    ent = {}
    for t, pair in enumerate(pairs):
        ent.update(((t * mod.dim + r, c), v)
                   for (r, c), v in mod.gens[pair].entries.items())
    return SparseMap._from_ints(mod.dim, len(pairs) * mod.dim, ent).kernel()


def irreducible_three_legs(mod):
    """The three-leg irreducibility test: (a) a unique singular line, (b)
    its closure under every simple generator is the whole module, and (c) a
    unique singular line in the contragredient dual.  Returns the verdict
    and the dims behind it; generated_dim and dual_singular_dim only once
    leg (a) holds."""
    ker = singular_space(mod)
    info = {"singular_dim": ker.dim}
    if ker.dim != 1:
        return False, info
    info["generated_dim"] = submodule_closure(mod, ker.nums).dim
    info["dual_singular_dim"] = singular_space(dual_module(mod)).dim
    ok = info["generated_dim"] == mod.dim and info["dual_singular_dim"] == 1
    return ok, info


# ---------------------------------------------------------------------------
# columns, basis matrices, coordinates, containment and sums


def column(m, c):
    """Column c of a SparseMap as a sparse vector of Fraction values."""
    return {r: Fraction(v, m.den) for (r, k), v in m.entries.items() if k == c}


def basis_matrix(sub):
    """A subspace's basis vectors as the columns of a map into its ambient
    space."""
    return SparseMap._from_ints(sub.dim, sub.ambient_dim, {
        (i, j): x for j, b in enumerate(sub.nums) for i, x in b.items()}, sub.den)


def coordinates_of(sub, vec):
    """vec's coordinates in sub's echelon basis, its entries at the pivots,
    or None if vec lies outside: Subspace.residue decides."""
    if sub.residue(vec):
        return None
    return [vec.get(p, 0) for p in sub.pivots]


def contains(sub, vec):
    """Whether vec lies in sub: its residue is zero."""
    return not sub.residue(vec)


def subspace_sum(a, b):
    """a + b as one echelon subspace of their common ambient space."""
    if a.ambient_dim != b.ambient_dim:
        raise SubspaceError("ambient dimensions differ")
    return Subspace.from_vectors(a.ambient_dim, a.nums + b.nums)


def subspace_le(a, b):
    """Whether a lies inside b."""
    return all(contains(b, v) for v in a.nums)


# ---------------------------------------------------------------------------
# homology of the transfer complex


def kerp_incoming_image_on_the_spot(ctx, spot):
    """KoszulContext.kerp_is_incoming_image the long way: Ker(P (x) id) and
    Im(P (x) id) from the back spot, each eliminated on its whole spot."""
    back = Spot(spot.sym + 1, spot.alt - 1, spot.dual)
    w = ctx.spot_space(spot).weights()
    im = blocked_image(ctx.operator("P", back), ctx.spot_space(back).weights(), w)
    if spot.sym == 0:
        ker = Subspace.full(len(w))
    else:
        ker = blocked_kernel(ctx.operator("P", spot), w,
                             ctx.spot_space(op_target("P", spot)).weights())
    return {"ok": im == ker, "ker_dim": ker.dim, "im_dim": im.dim}


def p_rank(ctx, p, r):
    """Rank of the transfer P on S_p (x) Lambda_r, weight block by block."""
    dom = ProductSpace(ctx.sym_basis(p), ctx.alt_basis(r))
    cod = ProductSpace(ctx.sym_basis(p - 1), ctx.alt_basis(r + 1))
    return blocked_rank(ctx.pair_p(p, r), dom.weights(), cod.weights())


def l_homology_dim(ctx, a, p):
    """Homology of the transfer complex (terms S_p (x) Lambda_{a-p}) at p."""
    r = a - p
    if p < 0 or r < 0:
        raise ValueError("spot outside the complex")
    dim = ctx.sym_basis(p).dim * ctx.alt_basis(r).dim
    rank_out = p_rank(ctx, p, r) if p >= 1 else 0
    rank_in = p_rank(ctx, p + 1, r - 1) if r >= 1 else 0
    h = dim - rank_out - rank_in
    if h < 0:
        raise KoszulError(
            "ranks exceed the dimension: image not inside the kernel",
            witness={"a": a, "p": p, "dim": dim, "rank_out": rank_out,
                     "rank_in": rank_in})
    return h


def delpqd_table(ctx, i, a):
    """[(j, eigenvalue, multiplicity)] of the insertion-side loop at (i, a)
    on (3|1), as forced by the identities.

    On S_p with no exterior letters the transfer loop QP is the identity
    (the r = 0 case of the transfer identity), which rewrites the loop at
    (i, a) as c*id + s*(conjugate of the loop at (i-1, a)); unrolling the
    recursion gives eigenvalue (a+2i+3-j)j / ((i+1)(a+i+1)) for j = 1..i+1,
    where level j acts on the part coming from S_{i+1-j} (x) S*_{a+i+1-j},
    so its multiplicity is the dimension drop between consecutive rungs of
    the ladder.
    """
    if (ctx.space.m, ctx.space.n) != (3, 1):
        raise ValueError("eigenvalue table is specific to the (3|1) alphabet")
    out = []
    for j in range(1, i + 2):
        lam = Fraction((a + 2 * i + 3 - j) * j, (i + 1) * (a + i + 1))
        hi = ctx.sym_basis(i + 1 - j).dim * ctx.dual_basis(a + i + 1 - j).dim
        if i - j >= 0:
            lo = ctx.sym_basis(i - j).dim * ctx.dual_basis(a + i - j).dim
        else:
            lo = 0
        out.append((j, lam, hi - lo))
    return out


def split(sub, weights):
    """{weight: (local Subspace, global indices)} of a graded subspace, one
    entry per weight its basis meets; raises ValueError on a basis vector
    that mixes weights."""
    blocks, local = weight_blocks(weights)
    parts = {}
    for v, p in zip(sub.nums, sub.pivots):
        w = weights[p]
        if any(weights[i] != w for i in v):
            raise ValueError("subspace basis vector is not weight-homogeneous")
        nums, pivots = parts.setdefault(w, ([], []))
        nums.append({local[i]: x for i, x in v.items()})
        pivots.append(local[p])
    return {w: (Subspace(len(blocks[w]), nums, pivots, sub.den), blocks[w])
            for w, (nums, pivots) in parts.items()}


def loop_spectrum_all_blocks(ctx, kind, params):
    """The loop spectrum with every weight block eliminated: the loop
    composed on its spot, split into all its weight blocks (restricted to
    Ker(P (x) id) for PdeldQ), each counted once, over the loop's
    candidate eigenvalues."""
    word, spot, derived, stated, candidates = ctx.loop_setup(kind, params)
    mat = ctx.composed_to(word, spot, spot)
    weights = ctx.spot_space(spot).weights()
    graded = split_graded(mat, weights, weights)
    if kind == "PdeldQ" and spot.sym >= 1:
        sub = ctx.kerp_space(spot)
        blocks = [graded[w][0].restrict(local, local)
                  for w, (local, _) in split(sub, weights).items()]
        total = sub.dim
    else:
        blocks = [blk for blk, _, _ in graded.values()]
        total = mat.dom_dim
    return verify_spectrum(blocks, total, derived, stated, kind, params,
                           candidates=candidates)


def loop_space(ctx, kind, params):
    """(spot, V) of a loop: V is the whole spot, or Ker(P (x) id) for a
    PdeldQ loop with sym >= 1."""
    _, spot, _, _, _ = ctx.loop_setup(kind, params)
    if kind == "PdeldQ" and spot.sym >= 1:
        return spot, ctx.kerp_space(spot)
    return spot, Subspace.full(ctx.spot_space(spot).dim)


def singular_dims_by_search(ctx, kind, params):
    """{mu: dim U_mu} at every even-dominant weight mu of a loop's space V,
    U_mu its gl(m) + gl(n)-singular vectors of weight mu: the joint kernel
    of the even simple raising generators sought on all of V's basis
    vectors of each such weight, with no count to say where U_mu is 0."""
    spot, sub = loop_space(ctx, kind, params)
    weights = ctx.spot_space(spot).weights()
    columns = {}
    for v, p in zip(sub.nums, sub.pivots):
        if is_dominant(weights[p], ctx.space.m):
            columns.setdefault(weights[p], []).append(v)
    kernels = ctx._singular_coordinates(GLAction(ctx.space), spot, columns)
    return {mu: ker.dim for mu, ker in kernels.items()}


# the pinned loop cells: on each alphabet every delPQd (i, a) with i, a <= 2,
# then the first PdeldQ (i, k, a) cells, i <= 1, k <= 2, a <= 2, in this
# order, whose spot has dimension at most 1,500
_DELPQD_CELLS = [("delPQd", (i, a)) for i in range(3) for a in range(3)]
_PDELDQ_CELLS = [("PdeldQ", (i, k, a))
                 for i in range(2) for k in (1, 2) for a in range(3)]
PINNED_LOOP_CELLS = tuple(
    (mn, kind, params)
    for mn, count in (((3, 1), 11), ((2, 1), 12), ((2, 2), 12), ((1, 2), 12),
                      ((4, 1), 6), ((1, 1), 12), ((3, 2), 7))
    for kind, params in _DELPQD_CELLS + _PDELDQ_CELLS[:count])


def loop_report_digest(contexts, cells):
    """sha256 of every report field a verdict reads (dimension, eigenvalues
    with multiplicities, diagonalizable, invertible, both matches, note),
    one line per (alphabet, kind, params) cell; contexts maps an alphabet
    to its KoszulContext."""
    lines = []
    for mn, kind, params in cells:
        rep = contexts[mn].loop_spectrum(kind, params)
        lines.append(repr((
            mn, kind, params, rep.dim,
            [(str(v), mult) for v, mult in rep.eigenvalues],
            rep.diagonalizable, rep.invertible, rep.matches_derived,
            rep.matches_stated, rep.note)))
    return sha256("\n".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# the mixed squares, route by route


def commute_by_composition(ctx, which, spot):
    """The mixed square compared on the full triple spot: both routes
    composed and subtracted, the reference that KoszulContext.commute_check's
    letter-pair certificate is tested against (same ok and dim; a failure
    here counts the residual's entries, residual_nnz); None when a route is
    undefined."""
    words = {"dP": (["P", "d"], ["d", "P"]),
             "delQ": (["Q", "del"], ["del", "Q"])}[which]
    if any(word_end(word, spot) is None for word in words):
        return None
    a, end = ctx.composed(words[0], spot)
    b = ctx.composed_to(words[1], spot, end)
    ok = a == b
    return {"ok": ok, "residual_nnz": 0 if ok else (a - b).nnz(),
            "dim": ctx.spot_space(spot).dim}


# ---------------------------------------------------------------------------
# the pair splitting as subspaces


def numerator_blocks(dom_dim, cod_dim, blocks):
    """The dom_dim x cod_dim map holding each (row, col, map) of blocks as
    its numerator matrix, with its top-left entry at (row, col).

    Each block is its map scaled by the map's den, a positive int, which
    keeps the joint kernel of blocks stacked in rows and the span of blocks
    side by side in columns.  Raises DimensionError if a block does not
    fit."""
    ent = {}
    for row, col, m in blocks:
        if (min(row, col) < 0 or row + m.cod_dim > cod_dim
                or col + m.dom_dim > dom_dim):
            raise DimensionError(
                f"a {m.cod_dim}x{m.dom_dim} block at ({row},{col}) "
                f"leaves {cod_dim}x{dom_dim}")
        ent.update(((row + r, col + c), v) for (r, c), v in m.entries.items())
    return SparseMap._from_ints(dom_dim, cod_dim, ent)


def xdanh_by_composition(ctx, k, l):
    """KoszulContext.xdanh_check's record the long way: every rank by
    blocked_rank, rank_proj of the composite del.d and rank_sum of
    d_(k-1,l-1) and del.d stacked side by side."""
    ps = ctx.pair_space(k, l)
    dim = ps.dim
    rank_out = blocked_rank(ctx.pair_d(k, l), ps.weights(),
                            ctx.pair_space(k + 1, l + 1).weights())
    proj = ctx.pair_del(k + 1, l + 1) @ ctx.pair_d(k, l)
    rank_proj = blocked_rank(proj, ps.weights(), ps.weights())
    blocks, off, prev_w, rank_in = [], 0, [], 0
    if k >= 1 and l >= 1:
        din = ctx.pair_d(k - 1, l - 1)
        prev_w = list(ctx.pair_space(k - 1, l - 1).weights())
        rank_in = blocked_rank(din, prev_w, ps.weights())
        blocks, off = [(0, 0, din)], din.dom_dim
    blocks.append((0, off, proj))
    stacked = numerator_blocks(off + proj.dom_dim, dim, blocks)
    rank_sum = blocked_rank(stacked, prev_w + list(ps.weights()), ps.weights())
    return {"dim": dim, "rank_in": rank_in, "rank_out": rank_out,
            "rank_proj": rank_proj, "rank_sum": rank_sum,
            "ok": (rank_in + rank_out == dim and rank_proj == rank_out
                   and rank_sum == dim)}


def xdanh_splitting(ctx, k, l):
    """(A, B) inside Lambda_k (x) S*_l for k-l != m-n: A is the image of the
    incoming insertion d_(k-1,l-1), B the image of del.d."""
    if k - l == ctx.space.m - ctx.space.n:
        raise ValueError("splitting degenerates when k-l = m-n")
    ps = ctx.pair_space(k, l)
    if k >= 1 and l >= 1:
        a_sub = blocked_image(
            ctx.pair_d(k - 1, l - 1),
            ctx.pair_space(k - 1, l - 1).weights(),
            ps.weights(),
        )
    else:
        a_sub = Subspace.zero(ps.dim)
    proj = ctx.pair_del(k + 1, l + 1) @ ctx.pair_d(k, l)
    b_sub = blocked_image(proj, ps.weights(), ps.weights())
    return a_sub, b_sub


def splitting_summands(ctx, which, params):
    """Every summand of the paper's two splittings, built the long way.

    prop1 (i,a): (A, B) on the spot (i+1, 0, a+i+1), A the image of Q.d and
    B = Ker(del.P).  prop2 (i,k,a): (A, B, W) on the spot (i+1, k+1, l+1),
    l = a+i+k+1, W the image of d, A the image of d.Q on Ker(P (x) id) and
    B = W intersected with Ker(P.del)."""
    if which == "prop1":
        i, a = params
        spot, inner = Spot(i + 1, 0, a + i + 1), Spot(i, 0, a + i)
        w, w_inner = ctx.spot_space(spot).weights(), ctx.spot_space(inner).weights()
        a_sub = blocked_image(ctx.composed_to(["d", "Q"], inner, spot), w_inner, w)
        b_sub = blocked_kernel(ctx.composed_to(["P", "del"], spot, inner), w, w_inner)
        return a_sub, b_sub
    if which == "prop2":
        i, k, a = params
        l = a + i + k + 1
        src, kspot = Spot(i + 1, k, l), Spot(i, k + 1, l)
        wspot = Spot(i + 1, k + 1, l + 1)
        w, w_k = ctx.spot_space(wspot).weights(), ctx.spot_space(kspot).weights()
        dq = ctx.composed_to(["Q", "d"], kspot, wspot)
        a_sub = (dq @ basis_matrix(ctx.kerp_space(kspot))).image()
        w_sub = blocked_image(ctx.operator("d", src), ctx.spot_space(src).weights(), w)
        pk = blocked_kernel(ctx.composed_to(["del", "P"], wspot, kspot), w, w_k)
        return a_sub, graded_intersect(w_sub, pk, w), w_sub
    raise ValueError(f"unknown splitting {which!r}")


# prop2 cells on other alphabets, each with a nonzero Z and a spot of
# dimension at most 1,500
OTHER_PROP2_CELLS = (
    ((2, 1), (0, 1, 1)), ((2, 1), (1, 2, -1)), ((2, 1), (1, 3, -3)),
    ((2, 2), (0, 2, -1)), ((2, 2), (1, 2, -2)),
    ((1, 2), (0, 2, 0)), ((1, 2), (1, 3, -1)),
    ((4, 1), (0, 2, -2)), ((4, 1), (0, 3, -3)), ((4, 1), (1, 1, -3)),
)


def lifted_w(ctx, params):
    """W = S_(i+1) (x) Im d_(k,l) of the prop2 (i,k,a) splitting, l =
    a+i+k+1, as a Subspace of its triple spot: the shared Im d lifted on
    the left (Subspace.lift)."""
    i, k, a = params
    return ctx.d_image(k, a + i + k + 1).lift(left=ctx.sym_basis(i + 1).dim)


def z_on_the_spot(ctx, params, ker):
    """The prop2 (i,k,a) summand on its triple spot, from the kernel K that
    KoszulContext.splitting gives in the coordinates of W =
    S_(i+1) (x) Im d_(k,l), l = a+i+k+1: each z = sum_t K[t] w_t.

    The z are reduced echelon over K.den * W.den with no elimination: the
    w_t's pivots increase and each w_t vanishes at the others' pivots, so z
    pivots where its last w_t does, and vanishes at the other pivots of Z
    because K does at the other pivots of K."""
    w_sub = lifted_w(ctx, params)
    basis = basis_matrix(w_sub)
    return Subspace(w_sub.ambient_dim,
                    [basis.apply_numerators(v) for v in ker.nums],
                    [w_sub.pivots[q] for q in ker.pivots],
                    ker.den * w_sub.den)


def z_splitting_on_w(ctx, params):
    """The prop2 (i,k,a) summand in W's coordinates, taken on every vector of
    the lifted W: del and then P applied at their line spots to each w_t
    (del lifted on the left, P on the right), and the kernel of the images
    taken per weight of the w_t's pivots, with no grading check."""
    i, k, a = params
    spot = Spot(i + 1, k + 1, a + i + k + 2)
    mid = op_target("del", spot)
    delta = ctx.operator("del", spot._replace(sym=0))
    p = ctx.operator("P", mid._replace(dual=0))
    right = ctx.dual_basis(mid.dual).dim
    end_dim = ctx.spot_space(op_target("P", mid)).dim
    w_sub = lifted_w(ctx, params)
    weights = ctx.spot_space(spot).weights()
    by_weight = {}
    for t, q in enumerate(w_sub.pivots):
        by_weight.setdefault(weights[q], []).append(t)
    blocks = []
    for ts in by_weight.values():
        ent = {}
        for c, t in enumerate(ts):
            img = p.apply_numerators(delta.apply_numerators(w_sub.nums[t]), right)
            ent.update(((r, c), x) for r, x in img.items())
        blocks.append((SparseMap._from_ints(len(ts), end_dim, ent).kernel(), ts))
    return join(w_sub.dim, blocks)


def product_matrix_by_combination(act, factors, gi, gj):
    """E_(gi,gj) on the tensor product of the factors (power bases or built
    modules) as the derivation, its lifted terms summed by
    SparseMap.combination: each factor's matrix lifted past the others and
    signed where an odd E crosses an odd left part."""
    pe = (act.space.parity(gi) + act.space.parity(gj)) % 2
    left_parities = [0]
    terms = []
    for f, factor in enumerate(factors):
        mat = (factor.gens[(gi, gj)] if isinstance(factor, GLModule)
               else act.on_basis(factor, gi, gj))
        rdim = prod(g.dim for g in factors[f + 1:])
        terms.append((1, mat.lift(len(left_parities), rdim,
                                  left_parities if pe else None)))
        left_parities = [p ^ q for p in left_parities for q in factor.parities]
    dim = prod(f.dim for f in factors)
    return SparseMap.combination(dim, dim, terms)


def z_summand_on_the_spot(ctx, k, l, m):
    """(the triple spot of Z(k,l,m), Z on it): the subspace a Z module was
    cut out of when every generator matrix was built on the whole spot."""
    params = (k - 1, l, m - k - l)
    return (ctx.spot_space(Spot(k, l + 1, m + 1)),
            z_on_the_spot(ctx, params, ctx.splitting("prop2", params)))


def ambient_z_module(act, ctx, k, l, m):
    """Z(k,l,m) restricted from the whole triple spot's action, with no
    ImD module as a factor."""
    product, sub = z_summand_on_the_spot(ctx, k, l, m)
    return module_from_subspace(act, product, sub, f"Z({k},{l},{m})")


def graded_intersect(a, b, weights):
    """Intersection of two weight-graded subspaces, block by block."""
    parts_b = split(b, weights)
    return join(a.ambient_dim, (
        (la.intersect(parts_b[w][0]), idx)
        for w, (la, idx) in split(a, weights).items() if w in parts_b
    ))


# ---------------------------------------------------------------------------
# tensor products of modules


def tensor_modules(a, b):
    """E acts as a super derivation: E(u x v) = Eu x v + (-1)^(p(E)p(u)) u x Ev.

    Runs over the generator keys of a; weights add."""
    if a.space != b.space:
        raise ModuleError("tensor factors act over different spaces",
                          witness={"left": a.space, "right": b.space})
    space = a.space
    idb = SparseMap.identity(b.dim)
    gens = {}
    for key, ga in a.gens.items():
        gi, gj = key
        pe = (space.parity(gi) + space.parity(gj)) % 2
        sign = SparseMap(
            a.dim, a.dim,
            {(i, i): (-ONE if pe and a.parities[i] else ONE) for i in range(a.dim)},
        )
        gens[key] = ga.kron(idb) + sign.kron(b.gens[key])
    weights = []
    parities = []
    for i in range(a.dim):
        for j in range(b.dim):
            weights.append(tuple(x + y for x, y in zip(a.weights[i], b.weights[j])))
            parities.append((a.parities[i] + b.parities[j]) % 2)
    return GLModule(space=space, name=f"{a.name}.{b.name}", gens=gens,
                    weights=weights, parities=parities)


def hook_partition(l1, l2, l3, l4):
    """I-subscript (l1,l2,l3,1^l4) as a plain partition tuple."""
    return (l1, l2, l3) + (1,) * l4


# ---------------------------------------------------------------------------
# calibration of the pair differentials


def calibration_ratio(ctx):
    """(del d)(1) divided by the super dimension; 1 iff the plain projector
    normalization of d and del matches the identity's scalars."""
    m = ctx.pair_del(1, 1) @ ctx.pair_d(0, 0)
    sdim = ctx.space.m - ctx.space.n
    return m.entry(0, 0) / sdim


# ---------------------------------------------------------------------------
# Laurent polynomials


def poly_pow(p, n):
    """p ** n by repeated squaring; raises CharacterError for n < 0."""
    if n < 0:
        raise CharacterError("negative power of a polynomial")
    out = LaurentPoly.one()
    base = p
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def invert_vars(p):
    """x_i -> 1/x_i, y -> 1/y (character of the dual)."""
    return LaurentPoly({tuple(-x for x in e): c for e, c in p.terms.items()})


def permute_x(p, perm):
    """Permute the three x variables by perm (a tuple image of 0,1,2)."""
    out = {}
    for e, c in p.terms.items():
        ne = [0, 0, 0, e[3]]
        for i in range(3):
            ne[perm[i]] = e[i]
        key = tuple(ne)
        out[key] = out.get(key, ZERO) + c
    return LaurentPoly(out)


def char_equal(e1, e2):
    """Equality of characters given as LaurentPoly or CharFraction."""
    if isinstance(e1, LaurentPoly):
        e1 = CharFraction(e1)
    if isinstance(e2, LaurentPoly):
        e2 = CharFraction(e2)
    return e1.num * e2.den == e2.num * e1.den
