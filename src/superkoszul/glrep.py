"""gl(m|n) actions on the power bases and the modules cut out by the
differentials.

The elementary matrix E_ij acts on letters by E_ij x_k = delta_jk x_i and on
dual letters by E_ij xi^k = -(-1)^((p_i+p_j)p_k) delta_ki xi^j; it extends to
words as a super derivation (crossing an earlier slot costs the sign
(-1)^(p(E) p(slot))) and to tensor products the same way
(GLAction.product_matrix).  On a degree-N power basis it is assembled from
the single-letter factor maps,

    E_ij = N c append(dst) S drop_last(src),

with S the diagonal sign (-1)^(p(E) p) on the degree N-1 basis, and
(src, dst, c) = (j, i, 1) on letters, (i, j, -(-1)^(p(E) p_i)) on dual
letters; at degree 0, E_ij is zero.  A factor of a product may also be a
built module, whose restricted simple generators stand in for a power
basis's matrices: a Z summand lives in ProductSpace(S_k, ImD(l,m)) and is
restricted from E_S (x) 1 + sigma_S (x) E_ImD, never from its whole triple
spot.  An off-diagonal E_ij moves a weight, so each factor's matrix has no
diagonal entry and the lifted terms of the derivation never meet: they
are written into one dict over one den, and only the Cartan E_jj sums
overlapping terms.

module_from_subspace is the one module builder: it grades a subspace's
basis by a ProductSpace's weights and parities and restricts each ambient
generator matrix in one pass per basis vector (SparseMap.restrict),
keeping no image.  ambient_module restricts to the full subspace, and
quotient_module reads the quotient's coordinates through the same
certified read, Subspace.read_coordinates.

A module carries only the simple-root generators E_(i,i+1) and E_(i+1,i),
2(m+n-1) matrices, together with the weight and parity of each basis vector.
Every module here has a weight basis, so the Cartan E_jj acts diagonally by
the weights and needs no matrix; gl(m|n) is generated by the Cartan and the
simple-root generators (E_ac = [E_ab, E_bc] for distinct a, b, c).  The
stabiliser of a subspace is a Lie sub-superalgebra, so a subspace spanned by
weight vectors and invariant under the simple generators is invariant under
all of gl(m|n): restricting the simple generators certifies the whole action.
The same argument certifies an equivariant operator T, since the x with
T x = x T also form a sub-superalgebra: check_equivariance reads the Cartan
off the weights and multiplies out only the simple generators.

It does so once per operator, at the line spot, where the field the
operator leaves alone (koszul.idle_field) is 0.  Elsewhere the operator is
the line map lifted with no sign, and E acts on the product by its
derivation, signed by the parity sigma of the left factors where E is odd:
- d and del leave the left field S_i alone: T = id (x) T_line and
  E = E_S (x) 1 + sigma_S (x) E_line, so TE - ET = sigma_S (x) [T_line, E_line],
  zero exactly when it is zero at the line spot;
- P and Q leave the right field S*_l alone: T = T_line (x) id and
  E = E_line (x) 1 + sigma (x) E_S*, so TE - ET = [T_line, E_line] (x) 1 +
  (T_line sigma - sigma T_line) (x) E_S*.  The second term vanishes once the
  Cartan passes at the line spot, since a basis vector's parity is the sum
  of its odd weight coordinates mod 2 and T_line then joins equal weights;
- the Cartan carries over, since the idle factor adds the same weight to
  the row and the column of every entry.
So the verdict at the line spot is the verdict at every spot lifted from
it, and the check is made there alone.  The spot fails every generator the
line spot fails (E_S* and 1 are independent), and no other, except for P
and Q where the Cartan fails: T_line sigma - sigma T_line then need not
vanish, and the spot can also fail an odd simple generator.  The loop
spectra ask only for the even subalgebra gl(m) + gl(n), certified by the
Cartan and the even simple raising generators (even_raising_pairs).
GLModule owns the singular-vector and irreducibility machinery.
"""

from __future__ import annotations

from math import lcm, prod

from .linalg import RestrictionError, SparseMap, Subspace, WitnessedError
from .superspace import (
    GradedSpan,
    ProductSpace,
    is_dominant,
    join,
    power_basis,
    weight_blocks,
)
from .koszul import Spot, idle_field, op_target


class ModuleError(WitnessedError, ValueError):
    """A module fails a structural invariant; the witness shows where."""


def raising_pairs(space):
    """Keys (i, i+1) of the simple raising generators E_(i,i+1)."""
    return tuple((i, i + 1) for i in range(space.dim - 1))


def even_raising_pairs(space):
    """The raising pairs (i, i+1) of two letters of one parity: the simple
    raising generators of the even subalgebra gl(m) + gl(n)."""
    return tuple((i, j) for i, j in raising_pairs(space)
                 if space.parity(i) == space.parity(j))


def simple_pairs(space):
    """Keys of the simple-root generators: the raising pairs, then the
    lowering pairs (i+1, i)."""
    up = raising_pairs(space)
    return up + tuple((j, i) for i, j in up)


def generator_matrix(basis, gi, gj):
    """E_(gi,gj) on a single power basis (primal or dual), by the formula in
    the module docstring.

    A degree-N basis vector b equals sum_k drop_last_k(b) (x) e_k and is
    supersymmetric, so the derivation E b is N times the projection of E
    acting on the last slot alone, which crosses the degree N-1 part.
    """
    if basis.degree == 0:
        return SparseMap.zero(basis.dim, basis.dim)
    space = basis.space
    pe = (space.parity(gi) + space.parity(gj)) % 2
    if basis.dual:
        src, dst = gi, gj
        c = 1 if pe and space.parity(gi) else -1
    else:
        src, dst, c = gj, gi, 1
    prev = power_basis(space, basis.kind, basis.degree - 1, basis.dual)
    drop = basis.factor_map("drop_last", src)
    if pe:
        drop = SparseMap._from_ints(drop.dom_dim, drop.cod_dim, {
            (r, col): -v if prev.parities[r] else v
            for (r, col), v in drop.entries.items()
        }, drop.den)
    return (basis.degree * c) * (prev.factor_map("append", dst) @ drop)


class GLAction:
    """Cached generator matrices on power bases and their products.

    Caches key on structural descriptors, not object identity: transient
    ProductSpace wrappers may share an id after collection."""

    def __init__(self, space):
        self.space = space
        self._factor = {}
        self._product = {}

    def on_basis(self, basis, gi, gj):
        key = (basis.key(), gi, gj)
        if key not in self._factor:
            self._factor[key] = generator_matrix(basis, gi, gj)
        return self._factor[key]

    def on_product(self, product, gi, gj):
        """product_matrix on a product space's factors, built once per
        product and generator, for callers that multiply by it again."""
        key = (tuple(f.key() for f in product.factors), gi, gj)
        if key not in self._product:
            self._product[key] = self.product_matrix(product.factors, gi, gj)
        return self._product[key]

    def product_matrix(self, factors, gi, gj):
        """E_(gi,gj) on the tensor product of the factors, indexed as kron,
        as the derivation: each factor's matrix lifted past the others,
        signed where an odd E crosses an odd left part.  A factor is a power
        basis or a built module; a module supplies its own restricted
        matrix, so it takes a simple-root generator only.  Not cached: a
        module build restricts it once.

        For gi != gj the lifted terms are written into one dict over the
        lcm of their dens: E_(gi,gj) moves a weight, so a factor's matrix
        has no diagonal entry, and the term of factor f changes the index
        of factor f alone, which makes the terms' entries disjoint.  For
        E_jj they overlap on the diagonal and are summed
        (SparseMap.combination)."""
        pe = (self.space.parity(gi) + self.space.parity(gj)) % 2
        left_parities = [0]
        terms = []
        last = len(factors) - 1
        for f, factor in enumerate(factors):
            mat = (factor.gens[(gi, gj)] if isinstance(factor, GLModule)
                   else self.on_basis(factor, gi, gj))
            rdim = prod(g.dim for g in factors[f + 1:])
            terms.append(mat.lift(
                len(left_parities), rdim, left_parities if pe else None))
            if f < last:
                left_parities = [p ^ q for p in left_parities
                                 for q in factor.parities]
        dim = prod(f.dim for f in factors)
        if gi == gj:
            return SparseMap.combination(dim, dim, [(1, t) for t in terms])
        den = lcm(*(t.den for t in terms))
        ent = {}
        for t in terms:
            s = den // t.den
            ent.update(t.entries if s == 1
                       else {k: s * v for k, v in t.entries.items()})
        return SparseMap._from_ints(dim, dim, ent, den)


def check_equivariance(ctx, act, name, spot, even=False):
    """T E = E T for every E_ij, T the named differential, certified on the
    Cartan and the simple-root generators at the line spot (see the module
    docstring).  With even=True only the even simple raising generators are
    multiplied out, which certifies the even subalgebra gl(m) + gl(n) (the
    koszul module docstring says why the raising ones suffice there).

    Away from its line spot, T is the lift of the line map, and the verdict
    at the line spot is the verdict at the spot, so the check is made there
    alone and no product is multiplied at the spot.  certified_by is "line"
    for a lifted spot and "spot" where the spot is its own line spot;
    generators_checked counts the E_ij certified, (m+n)^2, or m^2 + n^2
    with even=True.  The failing generators are the line spot's, which are
    the spot's except for P and Q where the Cartan fails: the spot can then
    also fail an odd simple generator (module docstring)."""
    idle = idle_field(name)
    line = spot._replace(**{idle: 0})
    return {**_equivariance_at(ctx, act, name, line, even),
            "certified_by": "line" if line != spot else "spot"}


def _equivariance_at(ctx, act, name, spot, even):
    """The check at a line spot.  (T E_jj - E_jj T)[r, c] =
    T[r, c] (w_dom[c][j] - w_cod[r][j]), so E_jj fails exactly when an entry
    of T joins weights that differ in coordinate j; the simple generators, or
    the even simple raising ones, are multiplied out."""
    mat = ctx.operator(name, spot)
    dom = ctx.spot_space(spot)
    cod = ctx.spot_space(op_target(name, spot))
    dw = dom.weights()
    cw = cod.weights()
    moved = set()
    for r, c in mat.entries:
        if dw[c] != cw[r]:
            moved.update(j for j, (a, b) in enumerate(zip(dw[c], cw[r]))
                         if a != b)
    bad = [(j, j) for j in moved]
    space = ctx.space
    for i, j in even_raising_pairs(space) if even else simple_pairs(space):
        if mat @ act.on_product(dom, i, j) != act.on_product(cod, i, j) @ mat:
            bad.append((i, j))
    return {
        "ok": not bad,
        "failing_generators": sorted(bad),
        "generators_checked": (space.m ** 2 + space.n ** 2 if even
                               else space.dim ** 2),
    }


# ---------------------------------------------------------------------------
# modules


class GLModule:
    """A gl(m|n)-module given by its simple-root generator matrices.

    gens maps each key of simple_pairs(space) to its matrix.  weights[i] is
    the simultaneous Cartan eigenvalue tuple of basis index i in internal
    coordinates: E_jj acts on basis vector i by weights[i][j].

    facts records the raising kernel and the dimension its line generates
    (is_irreducible).  The module is frozen, so a construction hands out
    the one it built.  A twist keeps the matrices and shifts every weight
    by one amount, which leaves each weight block, and so both facts,
    unchanged: it shares the record.  Assigning or deleting an attribute
    raises AttributeError.
    """

    __slots__ = ("space", "name", "gens", "weights", "parities", "facts")

    def __init__(self, space, name, gens, weights, parities, facts=None):
        values = (space, name, gens, weights, parities,
                  {} if facts is None else facts)
        for slot, value in zip(self.__slots__, values):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a GLModule is frozen: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a GLModule is frozen: cannot delete {name!r}")

    @property
    def dim(self):
        return len(self.weights)

    def weight_multiset(self):
        out = {}
        for w in self.weights:
            out[w] = out.get(w, 0) + 1
        return out

    def raising_kernel(self):
        """Joint kernel of the simple raising generators: the singular space.

        E_(i,i+1) raises a weight by e_i - e_(i+1), so the entries of a
        raising generator at the columns of one weight w lie in rows of
        weight w plus its step.  The joint map is therefore cut into one
        block per column weight (weight_blocks), built straight from the
        generators' numerators (a generator's den scales its rows, which
        keeps the joint kernel), each block's rows numbered as they first
        appear, and the kernel is the blocks' kernels joined.  Every entry
        is checked against its generator's step, at every column weight:
        ValueError if a raising generator is not weight-graded.

        Only the blocks at even-dominant weights (is_dominant) are
        eliminated.  For each even simple root, E_(i,i+1), E_(i+1,i) and
        E_ii - E_(i+1,i+1) span an sl2, and a singular vector of weight w is
        a highest-weight vector for it; in a finite-dimensional module its
        eigenvalue w_i - w_(i+1) under E_ii - E_(i+1,i+1) is then at least 0
        (Kac 1977, Lie superalgebras).  So the kernel vanishes at every
        other weight.
        """
        dim, weights = self.dim, self.weights
        cols, local = weight_blocks(weights)
        m = self.space.m
        blocks = {w: {} for w in cols if is_dominant(w, m)}
        rows = {w: {} for w in blocks}
        for t, (i, j) in enumerate(raising_pairs(self.space)):
            off = t * dim
            raised = {}
            for (r, c), v in self.gens[(i, j)].entries.items():
                wc = weights[c]
                want = raised.get(wc)
                if want is None:
                    want = raised[wc] = tuple(
                        x + (k == i) - (k == j) for k, x in enumerate(wc))
                if weights[r] != want:
                    raise ValueError(
                        f"map is not weight-graded: E_({i},{j}) entry "
                        f"({r},{c}) sends {wc} to {weights[r]}, not {want}")
                block = blocks.get(wc)
                if block is not None:
                    seen = rows[wc]
                    block[(seen.setdefault(off + r, len(seen)), local[c])] = v
        return join(dim, (
            (SparseMap._from_ints(len(cols[w]), len(rows[w]), ent).kernel(),
             cols[w]) for w, ent in blocks.items()))

    def singular_weights(self):
        """(the raising kernel, each of its vectors' weight), the kernel
        computed once per record of facts and the weights read off this
        module's own; ModuleError on a vector that mixes weights.  The
        kernel is shared by every module of the record, so callers only
        read it."""
        if "kernel" not in self.facts:
            self.facts["kernel"] = self.raising_kernel()
        ker = self.facts["kernel"]
        out = []
        for k, v in enumerate(ker.nums):
            ws = {self.weights[i] for i in v}
            if len(ws) != 1:
                raise ModuleError("singular vector is not a weight vector", witness={
                    "vector": ker.vectors[k], "weights": sorted(ws)})
            out.append(ws.pop())
        return ker, out

    def submodule_span(self, vector):
        """The submodule generated by a singular vector: its closure under
        the simple lowering generators E_(i+1,i).

        A singular vector v is a weight vector killed by the raising
        generators, so by the PBW theorem U(g)v = U(n-)U(h)U(n+)v = U(n-)v
        (Kac 1977, Lie superalgebras), and the simple lowering generators
        generate U(n-).  Their images of weight vectors are weight vectors,
        so the span stays graded; GradedSpan raises ValueError on a vector
        that mixes weights.
        """
        lowering = [self.gens[(j, i)] for i, j in raising_pairs(self.space)]
        span = GradedSpan(self.dim, self.weights)
        queue = [vector]
        while queue:
            new = span.insert(queue.pop())
            if new is not None:
                queue.extend(g.apply_numerators(new) for g in lowering)
        return span

    def is_irreducible(self):
        """Irreducible exactly when (a) the singular space is one line and
        (b) that line generates the whole module.

        A submodule is spanned by weight vectors and the raising generators
        move weights up, so every nonzero submodule contains a singular
        vector.  With (a) and (b), a nonzero submodule contains the singular
        line and so the whole module.  Conversely an irreducible module is
        generated by any singular vector v, and U(n-)v meets v's weight only
        in the line of v, so the singular space is that line.  The
        singular space is sought at even-dominant weights only: a singular
        vector anywhere else would be a highest-weight vector of negative
        weight for the sl2 of an even simple root (raising_kernel).

        Both facts are computed once per shared record of facts.
        """
        ker, ws = self.singular_weights()
        info = {"singular_dim": ker.dim, "singular_weights": ws}
        if ker.dim != 1:
            return False, info
        facts = self.facts
        if "generated_dim" not in facts:
            facts["generated_dim"] = self.submodule_span(ker.nums[0]).dim
        info["generated_dim"] = facts["generated_dim"]
        return facts["generated_dim"] == self.dim, info

    def twist(self, weight, parity, name=None):
        """Tensor with a one-dimensional module of the given weight/parity.

        Off-diagonal generators kill the line, so the generator matrices stay
        as they are: only the weights shift, and element parities flip when
        the line is odd.  The twist is a new module that shares this one's
        generator matrices and record of facts; its name defaults to this
        module's name with the twist appended.
        """
        return GLModule(
            space=self.space,
            name=name or f"{self.name}*twist{tuple(weight)}",
            gens=self.gens,
            weights=[
                tuple(a + b for a, b in zip(w, weight)) for w in self.weights
            ],
            parities=[(p + parity) % 2 for p in self.parities],
            facts=self.facts,
        )


def _grading(pw, pp, sub):
    """Weight and parity of each basis vector of sub, given those of the
    ambient basis; raises ModuleError with a witness if one of them mixes
    weights or parities."""
    weights = []
    parities = []
    for k, v in enumerate(sub.nums):
        ws = {pw[i] for i in v}
        ps = {pp[i] for i in v}
        if len(ws) != 1 or len(ps) != 1:
            raise ModuleError(
                "subspace basis vector is not homogeneous",
                witness={"index": k, "vector": sub.vectors[k],
                         "weights": sorted(ws), "parities": sorted(ps)},
            )
        weights.append(ws.pop())
        parities.append(ps.pop())
    return weights, parities


def module_from_subspace(act, product, sub, name):
    """Restrict the action on a ProductSpace (its factors power bases or
    built modules, see GLAction.product_matrix) to an invariant subspace;
    each basis vector's weight and parity are read off the product's.

    Raises ModuleError if a basis vector of the subspace mixes weights or
    parities, and RestrictionError if the subspace is not invariant under a
    simple-root generator; both carry a witness, so module claims are never
    assumed.  Together the two checks certify invariance under all of
    gl(m|n): the weight basis makes the subspace Cartan-stable, and the
    stabiliser of a subspace is a Lie sub-superalgebra, which then contains
    the subalgebra generated by the Cartan and the simple-root generators,
    the whole of gl(m|n).  Each ambient generator matrix is built for its
    restriction, read in one pass per basis vector of sub, and dropped
    after it.
    """
    weights, parities = _grading(product.weights(), product.parities(), sub)
    gens = {
        (i, j): act.product_matrix(product.factors, i, j).restrict(sub, sub)
        for i, j in simple_pairs(act.space)
    }
    return GLModule(space=act.space, name=name, gens=gens, weights=weights,
                    parities=parities)


def quotient_module(act, product, ker, im, name):
    """Action on ker/im, with the complement of im in ker as the basis
    (Subspace.complement_of, which certifies im inside ker).

    im is taken to be invariant (it is the image of an equivariant map).
    Each simple-root generator's images of the complement's vectors are
    reduced modulo im.  A residue vanishes at im's pivots, the pivots of
    ker that the complement leaves out, so it lies in the complement
    exactly when the image lies in ker: one certified read of the residues
    (Subspace.read_coordinates) checks that and gives the quotient's
    coordinates, or RestrictionError names the first escaping image.  A
    complement vector with mixed weights or parities raises ModuleError.
    As in module_from_subspace, the weight basis and the simple-root
    generators together certify that ker is invariant under all of gl(m|n).
    """
    comp = ker.complement_of(im)
    weights, parities = _grading(product.weights(), product.parities(), comp)
    gens = {}
    for i, j in simple_pairs(act.space):
        mat = act.product_matrix(product.factors, i, j)
        ent, bad = comp.read_coordinates(
            [im.residue(mat.apply_numerators(v)) for v in comp.nums])
        if bad is not None:
            raise RestrictionError(
                "quotient action escapes the kernel",
                witness={"generator": (i, j), "index": bad,
                         "vector": comp.vectors[bad],
                         "image": mat.apply(comp.vectors[bad])})
        # a residue is im.den times an image over mat.den * comp.den
        gens[(i, j)] = SparseMap._from_ints(
            comp.dim, comp.dim, ent, mat.den * comp.den * im.den)
    return GLModule(space=act.space, name=name, gens=gens, weights=weights,
                    parities=parities)


def ambient_module(act, product, name):
    """The whole product space as a module."""
    return module_from_subspace(act, product, Subspace.full(product.dim), name)


def dual_module(mod):
    """Contragredient action: (E.f)(v) = -(-1)^(p(E)p(f)) f(E.v).

    Each generator of the dual is built from the same generator of mod, so
    the dual carries the same keys; its weights are the negated ones.  The
    package builds no dual itself: is_irreducible needs none."""
    space = mod.space
    par = mod.parities
    gens = {}
    for (gi, gj), g in mod.gens.items():
        pe = (space.parity(gi) + space.parity(gj)) % 2
        entries = {}
        for (r, c), v in g.entries.items():
            s = -v
            if pe and par[r]:
                s = -s
            entries[(c, r)] = s
        gens[(gi, gj)] = SparseMap._from_ints(mod.dim, mod.dim, entries, g.den)
    return GLModule(
        space=space,
        name=f"dual({mod.name})",
        gens=gens,
        weights=[tuple(-c for c in w) for w in mod.weights],
        parities=list(par),
    )


def berezinian_twist(mod, t, name):
    """Tensor t times with the one-dimensional weight-(1,1,1,-1) odd line: a
    new module with the given name, also for t = 0."""
    if t < 0:
        raise ValueError(f"twist count must be at least 0, got {t}")
    return mod.twist((t, t, t, -t), t % 2, name)


# ---------------------------------------------------------------------------
# named constructions


class Constructor:
    """Builds the named modules out of one Koszul context, one method per
    family; harness.FAMILIES maps each family's name to its method.

    ImD and Z modules are built once per argument tuple: the families reuse
    them (Mmp(m,p) is a twisted ImD(m+2,m+p), Z1 and Mfinal are Z modules),
    and every call returns the one frozen module built first."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.act = GLAction(ctx.space)
        self._built = {}

    def h31(self):
        """One-dimensional top homology class of the offset-two complex."""
        ctx = self.ctx
        h, ker, im = ctx.k_homology(2, 3)
        if h != 1:
            raise ModuleError("offset-two homology at k = 3 is not a line",
                              witness={"homology_dim": h})
        return quotient_module(self.act, ctx.pair_space(3, 1), ker, im, "H31")

    def _spot_module(self, spot, sub, name):
        """The action on a triple spot restricted to sub."""
        return module_from_subspace(self.act, self.ctx.spot_space(spot), sub,
                                    name)

    def image_module(self, k, l):
        """Im d_(k,l) inside the next pair space."""
        key = ("imd", k, l)
        if key not in self._built:
            self._built[key] = self._spot_module(
                Spot(0, k + 1, l + 1), self.ctx.d_image(k, l), f"ImD({k},{l})")
        return self._built[key]

    def mmp(self, m, p):
        """Im d_(m+2,m+p) twisted by the berezinian-like line m-1 times."""
        if min(m, p) < 1:
            raise ValueError(f"parameters must be at least 1, got {(m, p)}")
        return berezinian_twist(self.image_module(m + 2, m + p), m - 1,
                                f"M({m},{p})")

    def y_summand(self, n, p):
        """Y = Ker(del.P) inside the triple spot S_n . S*_p: the summand of
        the two-column splitting at (i,a) = (n-1, p-n) that complements the
        image of Q.d."""
        if min(n, p) < 1:
            raise ValueError(f"parameters must be at least 1, got {(n, p)}")
        i, a = n - 1, p - n
        y_sub = self.ctx.splitting("prop1", (i, a))
        return self._spot_module(Spot(i + 1, 0, a + i + 1), y_sub, f"Y({n},{p})")

    def zk(self, k, l, m):
        """Z = W intersected with Ker(P.del), W = S_k . Im d_(l,m) with d
        leaving the spot S_k . L_l . S*_m: the summand of the kernel
        splitting that lies in Ker(P.del), taken as the kernel of P.del on
        W.

        The kernel comes in W's coordinates, and W is the tensor product of
        S_k and the ImD(l,m) module, so Z restricts E_S (x) 1 +
        sigma_S (x) E_ImD (GLAction.product_matrix) with no generator
        matrix on the triple spot: W is ProductSpace(S_k, ImD(l,m)), whose
        basis vector t = s*dim ImD + j is e_s (x) b_j, with the weight and
        parity the product reads off its two factors."""
        if k < 1 or min(l, m) < 0:
            raise ValueError(
                f"k must be at least 1 and l, m at least 0, got {(k, l, m)}")
        key = ("zk", k, l, m)
        if key not in self._built:
            ctx = self.ctx
            z_sub = ctx.splitting("prop2", (k - 1, l, m - k - l))
            if z_sub.dim == 0:
                raise ValueError(
                    f"the Z summand is empty for these parameters, got {(k, l, m)}")
            w = ProductSpace(ctx.sym_basis(k), self.image_module(l, m))
            self._built[key] = module_from_subspace(self.act, w, z_sub,
                                                    f"Z({k},{l},{m})")
        return self._built[key]

    def z1(self, m):
        return self.zk(1, 2, m + 1)

    def mfinal(self, m, t, p):
        """Z(t, m+1, p+m-1) twisted m-1 times; highest weight comes out
        (m+t, m, -p+1 | 1)."""
        if min(m, t, p) < 1:
            raise ValueError(f"parameters must be at least 1, got {(m, t, p)}")
        return berezinian_twist(self.zk(t, m + 1, p + m - 1), m - 1,
                                f"M({m},{t},{p})")

    def ilambda(self, shape):
        """Hook-shaped simple modules: symmetric powers, exterior powers,
        Ker P realizations of (k,1^l), and the weight-(1,1,1,-1) line."""
        shape = tuple(shape)
        if shape == (1, 1, 1, -1):
            return self.h31()
        while shape and shape[-1] == 0:
            shape = shape[:-1]
        if not shape or any(c < 1 for c in shape) or any(c > 1 for c in shape[1:]):
            raise ValueError(f"shape {shape!r} is not a realized hook")
        k, l = shape[0], len(shape) - 1
        if l == 0 or k == 1:
            # S_k, or Lambda_(l+1) for the column (1,1^l)
            spot = Spot(k, 0, 0) if l == 0 else Spot(0, l + 1, 0)
            return ambient_module(
                self.act, self.ctx.spot_space(spot), f"I{tuple(shape)}"
            )
        # Ker P on S_(k-1).L_(l+1) carries the hook (k,1^l)
        spot = Spot(k - 1, l + 1, 0)
        return self._spot_module(spot, self.ctx.kerp_space(spot),
                                 f"I{tuple(shape)}")
