"""gl(m|n) actions on the power bases and the modules cut out by the
differentials.

The elementary matrix E_ij acts on letters by E_ij x_k = delta_jk x_i and on
dual letters by E_ij xi^k = -(-1)^((p_i+p_j)p_k) delta_ki xi^j; it extends to
words as a super derivation (crossing an earlier slot costs the sign
(-1)^(p(E) p(slot))) and to tensor products of power bases the same way.

Modules are handled in two shapes: a subspace of a product space with the
generators restricted to it, or an abstract list of generator matrices (used
for one-dimensional twists and their tensor products).  Both normalize to
GLModule, which owns the singular-vector and irreducibility machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import RestrictionError, SparseMap, Subspace
from .superspace import ProductSpace, blocked_image
from .koszul import Spot, op_target

ZERO = Fraction(0)
ONE = Fraction(1)

RAISING = ((0, 1), (1, 2), (2, 3))


class ModuleError(ValueError):
    """A module fails a structural invariant; the witness shows where."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def generator_matrix(basis, gi, gj):
    """E_(gi,gj) on a single power basis (primal or dual)."""
    space = basis.space
    pe = (space.parity(gi) + space.parity(gj)) % 2
    d = space.dim
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
                    flat = 0
                    for x in new:
                        flat = flat * d + x
                    acc[flat] = acc.get(flat, ZERO) + c
                cross += space.parity(letter)
        col = basis.project_tensor(acc)
        if col:
            cols[idx] = col
    return SparseMap.from_columns(basis.dim, basis.dim, cols)


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
        """Derivation across the factors with parity-crossing signs."""
        key = (tuple(f.key() for f in product.factors), gi, gj)
        if key in self._product:
            return self._product[key]
        pe = (self.space.parity(gi) + self.space.parity(gj)) % 2
        total = SparseMap.zero(product.dim, product.dim)
        for f, factor in enumerate(product.factors):
            term = self.on_basis(factor, gi, gj)
            left_dims = [g.dim for g in product.factors[:f]]
            if left_dims:
                ldim = 1
                for x in left_dims:
                    ldim *= x
                if pe:
                    lefts = ProductSpace(*product.factors[:f])
                    ent = {
                        (r, r): (-ONE if lefts.parities()[r] else ONE)
                        for r in range(ldim)
                    }
                    left = SparseMap(ldim, ldim, ent)
                else:
                    left = SparseMap.identity(ldim)
                term = left.kron(term)
            rdim = 1
            for g in product.factors[f + 1 :]:
                rdim *= g.dim
            if rdim > 1:
                term = term.kron(SparseMap.identity(rdim))
            total = total + term
        self._product[key] = total
        return total

    def all_generators(self, product):
        dim = self.space.dim
        return {
            (i, j): self.on_product(product, i, j)
            for i in range(dim)
            for j in range(dim)
        }


def check_equivariance(ctx, act, name, spot):
    """T E = E T for every elementary generator, T the named differential."""
    mat = ctx.operator(name, spot)
    dom = ctx.spot_space(spot)
    cod = ctx.spot_space(op_target(name, spot))
    bad = []
    for i in range(ctx.space.dim):
        for j in range(ctx.space.dim):
            lhs = mat @ act.on_product(dom, i, j)
            rhs = act.on_product(cod, i, j) @ mat
            if lhs != rhs:
                bad.append((i, j))
    return {
        "params": {"op": name, "spot": (spot.sym, spot.alt, spot.dual)},
        "ok": not bad,
        "failing_generators": bad,
        "generators_checked": ctx.space.dim ** 2,
    }


# ---------------------------------------------------------------------------
# weight-graded span growing, used for cyclicity tests


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

    def weight_of(self, vec):
        ws = {self.weights[i] for i in vec}
        if len(ws) != 1:
            raise ValueError("vector is not weight-homogeneous")
        return ws.pop()

    def insert(self, vec):
        """Insert if independent; returns the reduced new vector or None."""
        if not vec:
            return None
        w = self.weight_of(vec)
        block = self.blocks.setdefault(w, Subspace.zero(self.ambient_dim))
        rem = block._reduce(vec)
        if not rem:
            return None
        block._insert(rem)
        return rem

    def contains(self, vec):
        if not vec:
            return True
        w = self.weight_of(vec)
        block = self.blocks.get(w)
        return block is not None and block.contains(vec)

    def as_subspace(self):
        vecs = []
        for b in self.blocks.values():
            vecs.extend(b.vectors)
        return Subspace.from_vectors(self.ambient_dim, vecs)


# ---------------------------------------------------------------------------
# modules


@dataclass
class GLModule:
    """A gl(m|n)-module given by explicit generator matrices.

    weights[i] is the simultaneous Cartan eigenvalue tuple of basis index i
    in internal coordinates (all entries are the honest E_jj eigenvalues).
    """

    space: object
    name: str
    gens: dict
    weights: list
    parities: list

    @property
    def dim(self):
        return len(self.weights)

    def cartan_is_diagonal(self):
        """E_jj must act diagonally with the stored weights."""
        for j in range(self.space.dim):
            g = self.gens[(j, j)]
            for (r, c), v in g.entries.items():
                if r != c:
                    return False
            for i, w in enumerate(self.weights):
                if g.entry(i, i) != w[j]:
                    return False
        return True

    def weight_multiset(self):
        out = {}
        for w in self.weights:
            out[w] = out.get(w, 0) + 1
        return out

    def raising_kernel(self):
        """Joint kernel of the simple raising generators, blocked by weight."""
        blocks = {}
        for i, w in enumerate(self.weights):
            blocks.setdefault(w, []).append(i)
        vecs = []
        for idx in blocks.values():
            rows = {}
            cols = {}
            for li, g in enumerate(idx):
                col = {}
                for t, pair in enumerate(RAISING):
                    for r, v in self.gens[pair].column(g).items():
                        rid = rows.setdefault((t, r), len(rows))
                        col[rid] = v
                cols[li] = col
            m = SparseMap.from_columns(len(idx), max(len(rows), 1), cols)
            for kv in m.kernel().vectors:
                vecs.append({idx[i]: x for i, x in kv.items()})
        return Subspace.from_vectors(self.dim, vecs)

    def singular_weights(self):
        ker = self.raising_kernel()
        out = []
        for v in ker.vectors:
            ws = {self.weights[i] for i in v}
            if len(ws) != 1:
                raise ModuleError("singular vector is not a weight vector",
                                  witness={"vector": v, "weights": sorted(ws)})
            out.append(ws.pop())
        return ker, out

    def highest_weight(self):
        """The unique singular weight; raises if the singular space is not a
        line."""
        ker, ws = self.singular_weights()
        if ker.dim != 1:
            raise ValueError(f"singular space has dimension {ker.dim}")
        return ws[0]

    def submodule_span(self, vectors):
        """Closure of the given vectors under all generators.

        Seeds split into weight components first: the closure contains each
        component (separate them with Cartan polynomials), and generator
        images of homogeneous vectors stay homogeneous.
        """
        span = GradedSpan(self.dim, self.weights)
        queue = []
        for v in vectors:
            parts = {}
            for i, x in v.items():
                parts.setdefault(self.weights[i], {})[i] = x
            for part in parts.values():
                r = span.insert(part)
                if r is not None:
                    queue.append(r)
        gens = list(self.gens.values())
        while queue:
            v = queue.pop()
            for g in gens:
                img = g.apply(v)
                r = span.insert(img)
                if r is not None:
                    queue.append(r)
        return span

    def is_irreducible(self):
        """Triple test: unique singular line, cyclic closure, and a unique
        singular line in the dual.

        Any nonzero submodule of a finite-dimensional module contains a
        singular vector, so (a)+(b) alone are already an if-and-only-if
        test; the dual leg (c) is kept as an independent socle check.
        """
        ker, ws = self.singular_weights()
        info = {
            "singular_dim": ker.dim,
            "singular_weights": ws,
            "dim": self.dim,
        }
        if ker.dim != 1:
            return False, info
        span = self.submodule_span([ker.vectors[0]])
        info["generated_dim"] = span.dim
        dker, _ = dual_module(self).singular_weights()
        info["dual_singular_dim"] = dker.dim
        ok = span.dim == self.dim and dker.dim == 1
        return ok, info

    def twist(self, weight, parity):
        """Tensor with a one-dimensional module of the given weight/parity.

        Off-diagonal generators kill the line, so only the Cartan matrices
        shift; element parities flip when the line is odd.
        """
        gens = dict(self.gens)
        for j in range(self.space.dim):
            if weight[j]:
                gens[(j, j)] = gens[(j, j)] + Fraction(weight[j]) * SparseMap.identity(
                    self.dim
                )
        return GLModule(
            space=self.space,
            name=f"{self.name}*twist{tuple(weight)}",
            gens=gens,
            weights=[
                tuple(a + b for a, b in zip(w, weight)) for w in self.weights
            ],
            parities=[(p + parity) % 2 for p in self.parities],
        )


def module_from_subspace(act, product, sub, name):
    """Restrict the ambient action to an invariant subspace.

    Raises ModuleError if a basis vector of the subspace mixes weights or
    parities, and RestrictionError if the subspace is not actually invariant;
    both carry a witness, so module claims are never assumed.
    """
    weights = []
    parities = []
    pw = product.weights()
    pp = product.parities()
    for k, v in enumerate(sub.vectors):
        ws = {pw[i] for i in v}
        ps = {pp[i] for i in v}
        if len(ws) != 1 or len(ps) != 1:
            raise ModuleError(
                "subspace basis vector is not homogeneous",
                witness={"index": k, "vector": v, "weights": sorted(ws),
                         "parities": sorted(ps)},
            )
        weights.append(ws.pop())
        parities.append(ps.pop())
    space = act.space
    gens = {}
    for i in range(space.dim):
        for j in range(space.dim):
            amb = act.on_product(product, i, j)
            gens[(i, j)] = amb.restrict(sub, sub)
    return GLModule(space=space, name=name, gens=gens, weights=weights,
                    parities=parities)


def quotient_module(act, product, ker, im, name):
    """Action on ker/im, with the complement of im in ker as the basis."""
    comp = ker.complement_of(im)
    space = act.space
    gens = {}
    for i in range(space.dim):
        for j in range(space.dim):
            amb = act.on_product(product, i, j)
            cols = {}
            for c, v in enumerate(comp.vectors):
                img = amb.apply(v)
                if not ker.contains(img):
                    raise RestrictionError(
                        "quotient action escapes the kernel",
                        witness={"generator": (i, j), "index": c,
                                 "vector": v, "image": img},
                    )
                rem = im._reduce(img)
                coords = comp.coordinates_of(rem)
                if coords is None:
                    raise RestrictionError(
                        "reduction modulo the image left the complement",
                        witness={"generator": (i, j), "index": c,
                                 "vector": v, "remainder": rem},
                    )
                cols[c] = {r: v for r, v in enumerate(coords) if v}
            gens[(i, j)] = SparseMap.from_columns(comp.dim, comp.dim, cols)
    weights = []
    parities = []
    pw = product.weights()
    pp = product.parities()
    for v in comp.vectors:
        weights.append({pw[i] for i in v}.pop())
        parities.append({pp[i] for i in v}.pop())
    return GLModule(space=space, name=name, gens=gens, weights=weights,
                    parities=parities)


def ambient_module(act, product, name):
    """The whole product space as a module."""
    space = act.space
    gens = {
        (i, j): act.on_product(product, i, j)
        for i in range(space.dim)
        for j in range(space.dim)
    }
    return GLModule(space=space, name=name, gens=gens,
                    weights=list(product.weights()),
                    parities=list(product.parities()))


def dual_module(mod):
    """Contragredient action: (E.f)(v) = -(-1)^(p(E)p(f)) f(E.v)."""
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
        gens[(gi, gj)] = SparseMap(mod.dim, mod.dim, entries)
    return GLModule(
        space=space,
        name=f"dual({mod.name})",
        gens=gens,
        weights=[tuple(-c for c in w) for w in mod.weights],
        parities=list(par),
    )


def tensor_modules(a, b):
    """E acts as a super derivation: E(u x v) = Eu x v + (-1)^(p(E)p(u)) u x Ev."""
    if a.space != b.space:
        raise ModuleError("tensor factors act over different spaces",
                          witness={"left": a.space, "right": b.space})
    space = a.space
    idb = SparseMap.identity(b.dim)
    gens = {}
    for key, ga in a.gens.items():
        gi, gj = key
        pe = (space.parity(gi) + space.parity(gj)) % 2
        left = ga.kron(idb)
        sign = SparseMap(
            a.dim, a.dim,
            {(i, i): (-ONE if pe and a.parities[i] else ONE) for i in range(a.dim)},
        )
        gens[key] = left + sign.kron(b.gens[key])
    weights = []
    parities = []
    for i in range(a.dim):
        for j in range(b.dim):
            weights.append(tuple(x + y for x, y in zip(a.weights[i], b.weights[j])))
            parities.append((a.parities[i] + b.parities[j]) % 2)
    return GLModule(space=space, name=f"{a.name}.{b.name}", gens=gens,
                    weights=weights, parities=parities)


def berezinian_twist(mod, t):
    """Tensor t times with the one-dimensional weight-(1,1,1,-1) odd line."""
    if t < 0:
        raise ValueError(f"twist count must be at least 0, got {t}")
    out = mod
    for _ in range(t):
        out = out.twist((1, 1, 1, -1), 1)
    return out


# ---------------------------------------------------------------------------
# named constructions


class Constructor:
    """Builds the named modules out of one Koszul context."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.act = GLAction(ctx.space)

    def h31(self):
        """One-dimensional top homology class of the offset-two complex."""
        ctx = self.ctx
        h, ker, im = ctx.k_homology(2, 3)
        if h != 1:
            raise ModuleError("offset-two homology at k = 3 is not a line",
                              witness={"homology_dim": h})
        return quotient_module(self.act, ctx.pair_space(3, 1), ker, im, "H31")

    def image_module(self, k, l):
        """Im d_(k,l) inside the next pair space."""
        ctx = self.ctx
        im = blocked_image(
            ctx.pair_d(k, l),
            ctx.pair_space(k, l).weights(),
            ctx.pair_space(k + 1, l + 1).weights(),
        )
        return module_from_subspace(
            self.act, ctx.pair_space(k + 1, l + 1), im, f"ImD({k},{l})"
        )

    def mmp(self, m, p):
        """Im d_(m+2,m+p) twisted by the berezinian-like line m-1 times."""
        if min(m, p) < 1:
            raise ValueError(f"parameters must be at least 1, got {(m, p)}")
        out = berezinian_twist(self.image_module(m + 2, m + p), m - 1)
        out.name = f"M({m},{p})"
        return out

    def y_summand(self, n, p):
        """Complement summand of the two-column splitting at (i,a) =
        (n-1, p-n)."""
        i, a = n - 1, p - n
        _, b_sub = self.ctx.splitting("prop1", (i, a))
        spot = Spot(i + 1, 0, a + i + 1)
        return module_from_subspace(
            self.act, self.ctx.spot_space(spot), b_sub, f"Y({n},{p})"
        )

    def zk(self, k, l, m):
        """Z-summand of the kernel splitting inside S_k . Im d_(l,m)."""
        i = k - 1
        kk = l
        a = m - i - kk - 1
        _, z_sub, _ = self.ctx.splitting("prop2", (i, kk, a))
        wspot = Spot(i + 1, kk + 1, m + 1)
        return module_from_subspace(
            self.act, self.ctx.spot_space(wspot), z_sub, f"Z({k},{l},{m})"
        )

    def z1(self, m):
        return self.zk(1, 2, m + 1)

    def mfinal(self, m, t, p):
        """Z(t, m+1, p+m-1) twisted m-1 times; highest weight comes out
        (m+t, m, -p+1 | 1)."""
        if min(m, t, p) < 1:
            raise ValueError(f"parameters must be at least 1, got {(m, t, p)}")
        out = berezinian_twist(self.zk(t, m + 1, p + m - 1), m - 1)
        out.name = f"M({m},{t},{p})"
        return out

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
        if k == 1:
            basis = self.ctx.alt_basis(l + 1) if l else self.ctx.sym_basis(1)
            return ambient_module(
                self.act, ProductSpace(basis), f"I{tuple(shape)}"
            )
        if l == 0:
            return ambient_module(
                self.act, ProductSpace(self.ctx.sym_basis(k)), f"I{tuple(shape)}"
            )
        # Ker P on S_(k-1).L_(l+1) carries the hook (k,1^l)
        spot = Spot(k - 1, l + 1, 0)
        return module_from_subspace(
            self.act, self.ctx.spot_space(spot), self.ctx.kerp_space(spot),
            f"I{tuple(shape)}",
        )

    def construct(self, name, params):
        try:
            method, arity = CONSTRUCTIONS[name.lower()]
        except KeyError:
            raise ValueError(f"unknown construction {name!r}") from None
        if arity is None:
            return getattr(self, method)(params)
        if len(params) != arity:
            raise ValueError(
                f"{name} takes {arity} parameters, got {len(params)}"
            )
        return getattr(self, method)(*params)


# lower-case construction name -> (Constructor method, parameter count);
# None hands the whole parameter tuple over as one shape
CONSTRUCTIONS = {
    "h31": ("h31", 0),
    "imd": ("image_module", 2),
    "mmp": ("mmp", 2),
    "y": ("y_summand", 2),
    "ysummand": ("y_summand", 2),
    "z1": ("z1", 1),
    "zk": ("zk", 3),
    "mfinal": ("mfinal", 3),
    "ilambda": ("ilambda", None),
}
