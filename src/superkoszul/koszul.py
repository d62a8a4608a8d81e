"""Operators of the double Koszul complex and their verification primitives.

One context object per super space holds the four families of maps between
triple products S_i (x) Lambda_k (x) S*_l:

  d    appends the identity element of V (x) V* at the inner junction,
  del  contracts the last exterior letter against the first dual letter,
  P    moves the last symmetric letter into the front of the exterior block,
  Q    moves the first exterior letter onto the back of the symmetric block.

Each map acts on two of the three factors and leaves the third alone.  At the
spot where that third factor is a line (S_0 or S*_0: one even line of weight
zero) the map is a sum over letters of Kronecker products of single-letter
factor maps, and the pair maps are exactly these; at every other spot it is
that map lifted onto the third factor.  Every transferred or inserted letter
only ever crosses the junction it acts at, so no Koszul signs appear beyond
the contraction's evaluation sign.

The mixed squares are certified from that form.  P and Q act on S_i and
Lambda_k, d and del on Lambda_k and S*_l, so each route around a square is a
sum over letter pairs (x, y) of one outer factor on S_i, a middle on Lambda_k
and one outer factor on S*_l, and the outer factors and signs are the same on
both routes:

  dP = sum drop_last_y (x) (append_x . prepend_y) (x) prepend_x,
  Pd = sum drop_last_y (x) (prepend_y . append_x) (x) prepend_x,

and for delQ against Q.del the outer factors are append_x on S_i and
drop_first_y on S*_l, and the middles drop_last_x . drop_first_y and
drop_first_y . drop_last_x, k >= 2.  Wherever both routes are defined each
outer family is linearly independent: for distinct letters its maps send a
suitable basis vector to distinct basis vectors.  A sum of
A_y (x) D_xy (x) B_x over independent families A and B vanishes exactly
when every D_xy does, so the square commutes at a spot of exterior degree k
exactly when the two middles agree on Lambda_k for every letter pair.  The
certificate is necessary and sufficient, and no route is composed.

All maps preserve weights, so ranks, kernels and spectra decompose over
weight blocks; the public checks use the blocked paths and the test suite
cross-checks them against dense computations at small degrees.

The loop spectra are taken on the even subalgebra g0 = gl(m) + gl(n).  A
weight is the highest weight of a finite-dimensional simple g0-module
exactly when its even and its odd coordinates are each non-increasing
(is_dominant).  The Cartan acts diagonally, so a finite-dimensional
g0-module V is completely reducible (Weyl): V is the sum over those
weights mu of L0(mu) (x) U_mu, where L0(mu) is the simple module of highest
weight mu, of dimension weyl_dim(mu), and U_mu is the space of g0-singular
vectors of weight mu, the joint kernel of the even simple raising
generators E_(a,a+1) on V's weight space mu.  A map M that commutes with g0
is the sum of 1 (x) M_mu, M_mu its restriction to U_mu, so each eigenspace
dimension of M is the sum of weyl_dim(mu) times that of M_mu.  For the
PdeldQ loop V is Ker(P (x) id), a g0-submodule where P commutes with g0.

Commuting with the Cartan and the E_(a,a+1) is enough.  For one even simple
root, V is a sum of sl2 strings, and as a module over k[E] a string of
length n+1 is free on its lowest vector w up to E^(n+1) w = 0.  A
weight-preserving T with TE = ET sends w to a vector y of w's weight with
E^(n+1) y = 0; E is injective below the top of every longer string, so y
lies in strings of length n+1, at their lowest weight.  F acts on E^s w and
on E^s y by the same scalar, which depends on s and n alone, so TF = FT,
and T commutes with all of g0, which the Cartan and the simple root vectors
of both signs generate.

The certificate is checked once per operator of the word at its line spot
(glrep.check_equivariance with even=True), not on M.  An operator elsewhere
is its line map lifted by the identity on the idle factor, and an even
E_(a,a+1) acts on a product as the sum of its factor matrices with no sign,
so the lift commutes wherever the line map does; a composite of commuting
maps commutes, so M does, and its Cartan part makes M weight-graded.  M
is then never formed: the U_mu are found by applying each factor's
generator matrix (KoszulContext.loop_blocks), and the line maps are
applied to their bases, each image entry still checked to keep its
weight.  A failed certificate raises KoszulError, whose witness names each
failing operator, its line spot and its generators; nothing falls back.

The U_mu are sought only where the g0 character says they are nonzero.
By Weyl's character formula and denominator identity, dim U_mu, the
number n_mu of copies of L0(mu) in V, is read off V's weight multiset
(superspace.g0_multiplicities), and the singular vectors are eliminated
only at the weights with n_mu > 0.  The count decides nothing.  A fill
check, the sum of weyl_dim(mu) dim U_mu over the weights searched against
dim V, stays the one certificate of the decomposition: over all
even-dominant weights that sum is dim V with every term >= 0, so equality
proves U_mu = 0 at every weight skipped.  A wrong count fails the fill
check with its witness (filled < dim); it cannot give a wrong spectrum.

Each block M_mu is decided by eigenspace nullities, and generalised ones
where those do not fill it, over the loop's eigenvalue formula on every
alphabet (loop_setup, verify_spectrum); no characteristic polynomial is
taken.

Im d at each pair is built once (KoszulContext.d_image), for the rank of
d, the homology, the pair splitting, the ImD modules and the Z summands;
Im(del.d) = del(Im d), so the splitting's ranks come from del applied to
that image's basis.  An echelon basis lifted by an identity factor stays
reduced echelon (Subspace.lift), so Ker(P (x) id) needs no elimination of
its own, and Ker(P (x) id) = Im(P (x) id) is decided at the line spot.
W = S_k (x) Im d is never built as a subspace: its vector e_s (x) v_j
pivots where Subspace.lift would put it (KoszulContext.lifted_d_pivots),
and the Z splitting applies del, which leaves S_k alone, once per basis
vector v_j of Im d, each image shifted to every copy s before P is
applied.  The Z module reads W's weights at those pivots and its
parities off its two factors (glrep.Constructor.zk).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm, prod

from .linalg import (
    RestrictionError,
    SparseMap,
    SpectrumError,
    Subspace,
    WitnessedError,
    _combine,
)
from .superspace import (
    GradedSpan,
    ProductSpace,
    blocked_image,
    blocked_kernel,
    g0_multiplicities,
    join,
    power_basis,
    weyl_dim,
)

ZERO = Fraction(0)


class KoszulError(WitnessedError, ValueError):
    """A structural claim about the complex fails; the witness shows where."""


class Spot(namedtuple("Spot", ("sym", "alt", "dual"))):
    """Indices of the triple product S_sym (x) Lambda_alt (x) S*_dual."""

    __slots__ = ()

    @property
    def valid(self):
        return self.sym >= 0 and self.alt >= 0 and self.dual >= 0

    def __repr__(self):
        return f"S_{self.sym}.L_{self.alt}.S*_{self.dual}"


# operator -> (left factor, right factor, sign of an odd letter); a factor
# is (the Spot field it acts on, factor op, degree step).  Where the field
# the operator leaves alone is 0, the operator is the sum over letters of
# sign * left.factor_map(op, letter) (x) right.factor_map(op, letter)
OPERATORS = {
    "d": (("alt", "append", 1), ("dual", "prepend", 1), 1),
    "del": (("alt", "drop_last", -1), ("dual", "drop_first", -1), -1),
    "P": (("sym", "drop_last", -1), ("alt", "prepend", 1), 1),
    "Q": (("sym", "append", 1), ("alt", "drop_first", -1), 1),
}


# square -> (first, second): the routes first-then-second and second-then-first
SQUARES = {"dP": ("P", "d"), "delQ": ("Q", "del")}


def _alt_factor(name):
    """(factor op, degree step) of the named operator on the exterior field."""
    left, right, _ = OPERATORS[name]
    return next((op, step) for f, op, step in (left, right) if f == "alt")


def idle_field(name):
    """The Spot field the named operator leaves alone: "sym" for d and del,
    "dual" for P and Q.  At a spot where it is not 0, the operator is its
    map at the line spot, that field set to 0, lifted onto the field."""
    left, right, _ = OPERATORS[name]
    return next(f for f in ("sym", "dual") if f not in (left[0], right[0]))


def op_target(name, spot):
    left, right, _ = OPERATORS[name]
    return spot._replace(**{f: getattr(spot, f) + step
                            for f, _, step in (left, right)})


def op_applicable(name, spot):
    """Whether the operator is defined at the spot: the letters it takes
    away exist exactly when the spot it lands on is valid."""
    if name not in OPERATORS:
        raise ValueError(f"unknown operator {name!r}")
    return op_target(name, spot).valid


def checked_target(name, spot):
    """op_target; a ValueError if either spot has a negative degree."""
    if spot.valid and op_applicable(name, spot):
        return op_target(name, spot)
    raise ValueError(f"operator {name!r} needs degrees >= 0, got "
                     f"{spot} -> {op_target(name, spot)}")


def word_end(word, spot):
    """The spot a word of operators ends at, first entry applied first;
    None when a step on the way is undefined."""
    for name in word:
        if not op_applicable(name, spot):
            return None
        spot = op_target(name, spot)
    return spot


class KoszulContext:
    """Differentials and verification checks for one super space."""

    def __init__(self, space):
        self.space = space
        self._operators = {}
        self._spot_spaces = {}
        self._kerp_spaces = {}
        self._d_images = {}
        self._certificates = {}

    # -- spaces ----------------------------------------------------------------

    def sym_basis(self, degree):
        return power_basis(self.space, "sym", degree)

    def alt_basis(self, degree):
        return power_basis(self.space, "alt", degree)

    def dual_basis(self, degree):
        return power_basis(self.space, "sym", degree, dual=True)

    def pair_space(self, k, l):
        """Lambda_k (x) S*_l, as the spot S_0 (x) Lambda_k (x) S*_l: S_0 is
        one even line of weight zero, so the indices, weights and parities
        are the pair's."""
        return self.spot_space(Spot(0, k, l))

    def spot_space(self, spot):
        """S_sym (x) Lambda_alt (x) S*_dual, built once per spot; the one
        place the package builds a tensor product of power bases."""
        if spot not in self._spot_spaces:
            self._spot_spaces[spot] = ProductSpace(
                self.sym_basis(spot.sym),
                self.alt_basis(spot.alt),
                self.dual_basis(spot.dual),
            )
        return self._spot_spaces[spot]

    # -- the operators -----------------------------------------------------------

    def pair_d(self, k, l):
        """Lambda_k (x) S*_l -> Lambda_{k+1} (x) S*_{l+1}: d at the spot (0, k, l)."""
        return self.operator("d", Spot(0, k, l))

    def pair_del(self, k, l):
        """Lambda_k (x) S*_l -> Lambda_{k-1} (x) S*_{l-1}, k,l >= 1: del at the
        spot (0, k, l).

        The evaluation of a letter against its dual covector carries the
        letter's parity sign, which is what makes del(d(1)) count the super
        dimension m - n rather than m + n.
        """
        return self.operator("del", Spot(0, k, l))

    def pair_p(self, p, r):
        """S_p (x) Lambda_r -> S_{p-1} (x) Lambda_{r+1}, p >= 1: P at the spot
        (p, r, 0)."""
        return self.operator("P", Spot(p, r, 0))

    def pair_q(self, p, r):
        """S_p (x) Lambda_r -> S_{p+1} (x) Lambda_{r-1}, r >= 1: Q at the spot
        (p, r, 0)."""
        return self.operator("Q", Spot(p, r, 0))

    def _basis(self, field, degree):
        return getattr(self, f"{field}_basis")(degree)

    def operator(self, name, spot):
        """The named map on the triple spot, built once per spot; a
        ValueError if the spot or the spot it lands on has a negative degree.

        Where the field the map leaves alone is 0, the map is the sum over
        letters of the Kronecker products of the factor maps in
        OPERATORS[name]; everywhere else it is the map at that field's 0,
        lifted onto the field's power."""
        key = (name, spot)
        m = self._operators.get(key)
        if m is not None:
            return m
        end = checked_target(name, spot)
        (lf, lop, _), (rf, rop, _), odd_sign = OPERATORS[name]
        idle = idle_field(name)
        degree = getattr(spot, idle)
        if degree:
            m = self.operator(name, spot._replace(**{idle: 0}))
            dim = self._basis(idle, degree).dim
            m = m.lift(left=dim) if idle == "sym" else m.lift(right=dim)
        else:
            left = self._basis(lf, getattr(spot, lf))
            right = self._basis(rf, getattr(spot, rf))
            terms = [
                (odd_sign if self.space.parity(letter) else 1,
                 left.factor_map(lop, letter).kron(right.factor_map(rop, letter)))
                for letter in range(self.space.dim)
            ]
            m = SparseMap.combination(
                self.spot_space(spot).dim, self.spot_space(end).dim, terms)
        self._operators[key] = m
        return m

    def composed(self, word, spot):
        """Compose operators along the word, first entry applied first;
        returns the map and the spot it ends at."""
        cur = None
        s = spot
        for name in word:
            m = self.operator(name, s)
            cur = m if cur is None else m @ cur
            s = op_target(name, s)
        if cur is None:
            dim = self.spot_space(spot).dim
            cur = SparseMap.identity(dim)
        return cur, s

    def composed_to(self, word, spot, end):
        """The composed map along the word, which must end at the given spot;
        raises KoszulError with the spot it does reach otherwise."""
        mat, reached = self.composed(word, spot)
        if reached != end:
            raise KoszulError(
                "composed word ends at the wrong spot",
                witness={"word": list(word), "start": repr(spot),
                         "expected": repr(end), "reached": repr(reached)},
            )
        return mat

    # -- the shared image of d --------------------------------------------------------

    def d_rank(self, k, l):
        """The rank of d_(k,l), read off the shared d_image."""
        return self.d_image(k, l).dim

    def d_image(self, k, l):
        """Im d_(k,l) inside the pair space (k+1, l+1), built once; callers
        only read the subspace."""
        key = (k, l)
        if key not in self._d_images:
            self._d_images[key] = blocked_image(
                self.pair_d(k, l), self.pair_space(k, l).weights(),
                self.pair_space(k + 1, l + 1).weights())
        return self._d_images[key]

    def lifted_d_pivots(self, i, k, l):
        """The pivots of S_i (x) Im d_(k,l) inside the spot (i, k+1, l+1),
        where Subspace.lift puts them: s*D + p_j for each copy s of S_i and
        each pivot p_j of the shared pair image, D the dimension of the pair
        space Lambda_(k+1) (x) S*_(l+1).  No lifted vector is built."""
        im, dim = self.d_image(k, l), self.pair_space(k + 1, l + 1).dim
        return [s * dim + p for s in range(self.sym_basis(i).dim)
                for p in im.pivots]

    # -- identities -------------------------------------------------------------

    def d_del_identity(self, k, l):
        """l*k*(d after del) + (l+1)(k+1)*(del after d) = (l-k-n+m)*id."""
        return self._identity(
            [(l * k, ["del", "d"]), ((l + 1) * (k + 1), ["d", "del"])],
            Spot(0, k, l), Fraction(l - k - self.space.n + self.space.m))

    def p_q_identity(self, p, r):
        """r(p+1)*(P after Q) + p(r+1)*(Q after P) = (p+r)*id."""
        return self._identity(
            [(r * (p + 1), ["Q", "P"]), (p * (r + 1), ["P", "Q"])],
            Spot(p, r, 0), Fraction(p + r))

    def _identity(self, terms, spot, scalar):
        """Whether the sum of c * (word composed at the spot) over the
        (c, word) terms is scalar * id.  A word with an undefined step is
        dropped; its prefactor is checked to vanish (KoszulError otherwise),
        so nothing is silently ignored."""
        dim = self.spot_space(spot).dim
        maps = []
        for c, word in terms:
            if word_end(word, spot) is not None:
                maps.append((c, self.composed_to(word, spot, spot)))
            elif c:
                raise KoszulError(
                    "dropped term has a nonzero prefactor",
                    witness={"word": list(word), "spot": repr(spot), "prefactor": c})
        maps.append((-scalar, SparseMap.identity(dim)))
        resid = SparseMap.combination(dim, dim, maps)
        return {
            "scalar": scalar,
            "dim": dim,
            "ok": resid.is_zero(),
            "residual_nnz": resid.nnz(),
        }

    def d_squared_is_zero(self, k, l):
        return self.composed(["d", "d"], Spot(0, k, l))[0].is_zero()

    def p_squared_is_zero(self, p, r):
        return self.composed(["P", "P"], Spot(p, r, 0))[0].is_zero()

    # -- commutativity of the two directions ----------------------------------------

    def commute_check(self, which, spot):
        """which="dP": route P-then-d against d-then-P; which="delQ": Q-then-del
        against del-then-Q.  Returns None when a route is undefined at the
        spot, else {"ok", "failing_letter_pairs", "dim"}.

        Both routes are sums over letter pairs of the same outer factors
        around a middle on Lambda_alt (module docstring): dP has
        append_x . prepend_y where Pd has prepend_y . append_x, and delQ has
        drop_last_x . drop_first_y where Q.del has drop_first_y . drop_last_x.
        The outer families are linearly independent wherever both routes are
        defined, so the square commutes exactly when the middles agree for
        every letter pair, x = y included; nothing is composed on the spot.
        A failure names the [x, y] pairs whose middles differ, x the letter
        of d or del and y that of P or Q."""
        if which not in SQUARES:
            raise ValueError(f"unknown square {which!r}")
        first, second = SQUARES[which]
        if any(word_end(word, spot) is None
               for word in ([first, second], [second, first])):
            return None
        pairs = self._middles_commute(which, spot.alt)
        return {"ok": not pairs, "failing_letter_pairs": pairs,
                "dim": self.spot_space(spot).dim}

    def _middles_commute(self, which, alt):
        """The [x, y] letter pairs whose two middles on Lambda_alt differ,
        computed once per (square, exterior degree); empty when the square
        is certified.  Callers only read the list.  Only called where both
        routes are defined, so every degree is >= 0."""
        key = (which, alt)
        if key not in self._certificates:
            (f_op, f_step), (s_op, s_step) = map(_alt_factor, SQUARES[which])
            here = self.alt_basis(alt)
            after_first = self.alt_basis(alt + f_step)
            after_second = self.alt_basis(alt + s_step)
            letters = range(self.space.dim)
            self._certificates[key] = [
                [x, y] for x in letters for y in letters
                if after_first.factor_map(s_op, x) @ here.factor_map(f_op, y)
                != after_second.factor_map(f_op, y) @ here.factor_map(s_op, x)]
        return self._certificates[key]

    # -- exactness ---------------------------------------------------------------

    def k_homology_dim(self, a, k):
        """Homology dimension of the insertion complex (terms Lambda_k(x)S*_{k-a})
        at the given k.  Uses rank counting; d.d = 0 is a separate check."""
        l = k - a
        if k < 0 or l < 0:
            raise ValueError("spot outside the complex")
        dim = self.pair_space(k, l).dim
        rank_out = self.d_rank(k, l)
        rank_in = self.d_rank(k - 1, l - 1) if (k >= 1 and l >= 1) else 0
        h = dim - rank_out - rank_in
        if h < 0:
            raise KoszulError(
                "ranks exceed the dimension: image not inside the kernel",
                witness={"a": a, "k": k, "dim": dim, "rank_out": rank_out,
                         "rank_in": rank_in})
        return h

    def k_homology(self, a, k):
        """(dim, kernel, image) at the spot, with genuine subspaces; the
        image is the context's shared d_image, which callers only read."""
        l = k - a
        ps = self.pair_space(k, l)
        ker = blocked_kernel(
            self.pair_d(k, l), ps.weights(), self.pair_space(k + 1, l + 1).weights()
        )
        if k >= 1 and l >= 1:
            im = self.d_image(k - 1, l - 1)
        else:
            im = Subspace.zero(ps.dim)
        for j, v in enumerate(im.nums):
            if not ker.contains(v):
                raise KoszulError(
                    "image of the incoming d is not inside the kernel",
                    witness={"a": a, "k": k, "vector": im.vectors[j]},
                )
        return ker.dim - im.dim, ker, im

    # -- kernels of the transfer map on triple spots ----------------------------------

    def kerp_space(self, spot):
        """Ker(P (x) id_dual) inside the triple spot, computed once per spot;
        callers only read the subspace."""
        if spot not in self._kerp_spaces:
            self._kerp_spaces[spot] = self._kerp_space(spot)
        return self._kerp_spaces[spot]

    def _kerp_space(self, spot):
        """Everything when sym = 0; else the kernel of P at the line spot
        (sym, alt, 0), and at dual > 0 that kernel lifted onto S*_dual by
        Subspace.lift, which keeps a reduced echelon basis reduced with no
        elimination; a basis with a repeated pivot, which no echelon basis
        has, raises KoszulError."""
        if spot.sym == 0:
            return Subspace.full(self.spot_space(spot).dim)
        if not spot.dual:
            return blocked_kernel(
                self.operator("P", spot), self.spot_space(spot).weights(),
                self.spot_space(op_target("P", spot)).weights())
        lifted = self.kerp_space(spot._replace(dual=0)).lift(
            right=self.dual_basis(spot.dual).dim)
        if len(set(lifted.pivots)) != lifted.dim:
            raise KoszulError(
                "tensored kernel basis has repeated pivots",
                witness={"spot": (spot.sym, spot.alt, spot.dual),
                         "pivots": sorted(lifted.pivots),
                         "expected_dim": lifted.dim},
            )
        return lifted

    def kerp_is_incoming_image(self, spot):
        """Ker(P (x) id) = Im(P (x) id) from the spot one transfer step back,
        decided at the line spot (sym, alt, 0): at the spot both sides are
        the line subspaces lifted by the identity on S*_dual (Subspace.lift),
        and a stored reduced echelon basis is unique and its lift injective,
        so they are equal exactly when the line subspaces are; dimensions
        scale by dim S*_dual."""
        if spot.alt < 1:
            raise ValueError("needs alt >= 1")
        line = spot._replace(dual=0)
        back = Spot(spot.sym + 1, spot.alt - 1, 0)
        ker = self.kerp_space(line)
        im = blocked_image(self.operator("P", back),
                           self.spot_space(back).weights(),
                           self.spot_space(line).weights())
        lift = self.dual_basis(spot.dual).dim
        return {"ok": im == ker, "ker_dim": ker.dim * lift,
                "im_dim": im.dim * lift}

    def d_restricts_to_kerp(self, spot):
        """d carries Ker(P (x) id) into Ker(P (x) id) one insertion step up."""
        return self._restricts_to_kerp("d", spot)

    def del_restricts_to_kerp(self, spot):
        """Whether del carries Ker(P (x) id) into Ker(P (x) id); generally not."""
        return self._restricts_to_kerp("del", spot)

    def _restricts_to_kerp(self, name, spot):
        target = self.kerp_space(checked_target(name, spot))
        sub = self.kerp_space(spot)
        try:
            self.operator(name, spot).restrict(sub, target)
            return {"ok": True, "witness": None}
        except RestrictionError as e:
            return {"ok": False, "witness": e.witness}

    # -- loop operators and spectra ---------------------------------------------------

    def loop_setup(self, kind, params):
        """(word, base spot, derived set, stated set, candidates).

        candidates are the loop's eigenvalues by the (3|1) formula with 3
        read as m-n+1 and 4 as m-n+2; no level is capped, since a value
        the spectrum lacks has nullity 0.  derived and stated are (3|1)
        claims, None elsewhere: derived, the candidates, is forced by the
        operator identities; stated is the claim registry's closed form,
        kept apart so disagreements surface as findings.  For delPQd the
        two differ at i >= 1: the stated numerator is a+i+3-j.
        """
        arity = {"delPQd": 2, "PdeldQ": 3}.get(kind)
        if arity is not None and len(params) != arity:
            raise ValueError(
                f"{kind} takes {arity} parameters, got {len(params)}")
        mn = self.space.m - self.space.n
        if kind == "delPQd":
            i, a = params
            if i < 0 or a + i < 0:
                raise ValueError("invalid loop parameters")
            spot = Spot(i, 0, a + i)
            word = ["d", "Q", "P", "del"]
            # On S_p with no exterior letters the transfer loop QP is the
            # identity (the r = 0 case of the transfer identity), which
            # rewrites the loop at (i, a) as c*id + s*(conjugate of the loop
            # at (i-1, a)); unrolling the recursion forces the eigenvalue
            # (a+2i+3-j)j / ((i+1)(a+i+1)) for j = 1..i+1 on (3|1)
            js = range(1, i + 2)
            top, den = a + 2 * i + mn + 1, (i + 1) * (a + i + 1)
        elif kind == "PdeldQ":
            i, k, a = params
            if i < 0 or k < 1 or a + i + k + 1 < 0:
                raise ValueError("invalid loop parameters")
            spot = Spot(i, k + 1, a + i + k + 1)
            word = ["Q", "d", "del", "P"]
            js = set(range(1, i + 2)) | {i + k + 1}
            top = a + k + 2 * i + mn + 2
            den = (i + 1) * (k + 1) ** 2 * (a + i + k + 2)
        else:
            raise ValueError(f"unknown loop kind {kind!r}")
        candidates = frozenset(Fraction((top - j) * j, den) for j in js)
        derived = stated = None
        if (self.space.m, self.space.n) == (3, 1):
            derived = stated = candidates
            if kind == "delPQd":
                stated = frozenset(
                    Fraction((a + i + 3 - j) * j, den) for j in js)
        return word, spot, derived, stated, candidates

    def loop_blocks(self, kind, word, spot):
        """The blocks of the loop operator M on V, the spot, or Ker(P (x) id)
        for the PdeldQ loop.  Returns (blocks, sizes, total_dim).

        Every operator of the word, and P at the spot's line for the
        kernel, must pass the gl0 certificate at its line spot (_certified);
        a failure raises KoszulError whose witness gives the spot and each
        failing operator with its line spot and generators.  V is then the
        sum of L0(mu) (x) U_mu over the even-dominant weights mu, U_mu the
        gl0-singular vectors of weight mu, and M the sum of 1 (x) M_mu
        (module docstring).  U_mu is sought only at the weights where
        g0_multiplicities, counted once from V's pivot weights, is > 0.
        The blocks are the M_mu on the nonzero U_mu, each counted
        weyl_dim(mu) times; a fill check, the sum of weyl_dim(mu) dim U_mu
        over the weights searched against dim V, raises KoszulError with
        each block's two factors, so a weight the count wrongly skips is
        refused, never silently dropped.

        M is never formed: the word's line-spot maps are applied to the
        basis vectors of the U_mu, and each image is read in U_mu's basis,
        certified by its residue (RestrictionError if an image leaves
        U_mu).  V's basis vectors of weight mu are a slice of its reduced
        echelon basis, and U_mu's basis their combination by a reduced
        echelon kernel, so it is reduced echelon in the spot's coordinates
        too.  An image entry that joins two weights raises KoszulError with
        its row, column and both weights (_word_images).  A word that does
        not return to its spot raises KoszulError."""
        steps, end = self._line_steps(word, spot)
        if end != spot:
            raise KoszulError(
                "loop word ends at the wrong spot",
                witness={"word": list(word), "start": repr(spot),
                         "expected": repr(spot), "reached": repr(end)})
        restricted = kind == "PdeldQ" and spot.sym >= 1
        lines = [(name, line) for name, line, _ in steps]
        if restricted:
            lines.append(("P", spot._replace(dual=0)))
        from .glrep import GLAction  # glrep imports koszul
        act = GLAction(self.space)
        failing = [{"operator": name, "line_spot": repr(line),
                    "generators": [list(g) for g in bad]}
                   for name, line in lines
                   if (bad := self._certified(act, name, line))]
        if failing:
            raise KoszulError(
                "the loop's operators fail the gl0 certificate",
                witness={"spot": repr(spot), "failing": failing})
        weights = self.spot_space(spot).weights()
        sub = (self.kerp_space(spot) if restricted
               else Subspace.full(len(weights)))
        m = self.space.m
        # V's basis vectors and their pivots at each weight where the g0
        # character counts a simple summand: U_mu is 0 everywhere else
        counted = g0_multiplicities([weights[p] for p in sub.pivots], m)
        parts = {}
        for v, p in zip(sub.nums, sub.pivots):
            if counted.get(weights[p], 0) > 0:
                parts.setdefault(weights[p], []).append((v, p))
        kept = self._singular_coordinates(
            act, spot, {w: [v for v, _ in vp] for w, vp in parts.items()})
        sizes = {w: weyl_dim(w, m) for w in kept}
        filled = sum(sizes[w] * ker.dim for w, ker in kept.items())
        if filled != sub.dim:
            raise KoszulError(
                "the gl0-singular blocks do not fill the loop's space",
                witness={"spot": repr(spot), "dim": sub.dim,
                         "filled": filled,
                         "blocks": {repr(w): [ker.dim, sizes[w]]
                                    for w, ker in kept.items() if ker.dim}})
        kept = {w: ker for w, ker in kept.items() if ker.dim}
        bases = {w: [_combine(0, {}, [(x, parts[w][t][0]) for t, x in k.items()])
                     for k in ker.nums]
                 for w, ker in kept.items()}
        heads = {w: [parts[w][t][1] for t in ker.pivots]
                 for w, ker in kept.items()}
        images, den = self._word_images(steps, bases, weights, heads)
        blocks = []
        for w, ker in kept.items():
            u_mu = Subspace(sub.ambient_dim, bases[w], heads[w],
                            sub.den * ker.den)
            ent, bad = u_mu.read_coordinates(images[w])
            if bad is not None:
                raise RestrictionError(
                    "loop carries a vector out of its block",
                    witness={"column": heads[w][bad], "column_weight": w})
            blocks.append(SparseMap._from_ints(
                ker.dim, ker.dim, ent, den * sub.den * ker.den))
        return blocks, [sizes[w] for w in kept], sub.dim

    def _certified(self, act, name, line):
        """The generators that fail to commute with the named map at the
        line spot among the Cartan and the even simple raising generators
        (glrep.check_equivariance with even=True, on the GLAction act),
        checked once per (operator, line spot); empty when certified."""
        key = (name, line)
        if key not in self._certificates:
            from .glrep import check_equivariance  # glrep imports koszul
            self._certificates[key] = check_equivariance(
                self, act, name, line, even=True)["failing_generators"]
        return self._certificates[key]

    def _singular_coordinates(self, act, spot, columns):
        """{w: the joint kernel of the even simple raising generators on the
        span of the int vectors columns[w], all of weight w, as a Subspace in
        their coordinates}.  An even E_(a,a+1) acts on the spot as the sum
        over its factors of the factor's generator matrix (act.on_basis)
        with identities on the others and no sign, so it is applied factor
        by factor (SparseMap.apply_numerators) and no generator matrix of
        the spot is built.  The images under each generator fill their own
        band of rows."""
        from .glrep import even_raising_pairs  # glrep imports koszul
        space = self.spot_space(spot)
        dim, factors = space.dim, space.factors
        pairs = even_raising_pairs(self.space)
        ents = {w: {} for w in columns}
        for q, (a, b) in enumerate(pairs):
            mats = [(act.on_basis(f, a, b), prod(g.dim for g in factors[j + 1:]))
                    for j, f in enumerate(factors)]
            mats = [(g, right) for g, right in mats if g.entries]
            den = lcm(*(g.den for g, _ in mats))
            for w, vecs in columns.items():
                ent = ents[w]
                for c, vec in enumerate(vecs):
                    for g, right in mats:
                        scale = den // g.den
                        for r, x in g.apply_numerators(vec, right).items():
                            key = (q * dim + r, c)
                            ent[key] = ent.get(key, 0) + scale * x
        return {w: SparseMap._from_ints(
                    len(columns[w]), len(pairs) * dim,
                    {key: x for key, x in ent.items() if x}).kernel()
                for w, ent in ents.items()}

    def _line_steps(self, word, spot):
        """([(operator name, its line spot, right)], end spot) along the word,
        first entry applied first: the operator at each spot is its map at
        the line spot lifted onto the idle field, on the right (right = the
        dual factor's dimension) for P and Q and on the left (right = 1)
        for d and del.  A step that is undefined raises the ValueError that
        operator raises there (checked_target)."""
        steps = []
        for name in word:
            end = checked_target(name, spot)
            idle = idle_field(name)
            right = self.dual_basis(spot.dual).dim if idle == "dual" else 1
            steps.append((name, spot._replace(**{idle: 0}), right))
            spot = end
        return steps, spot

    def _word_images(self, steps, columns, weights, heads):
        """({w: [image]}, den): the line steps applied to the int vectors
        columns[w], of weight w; image c of weight w is den times the image
        of columns[w][c], den the product of the maps' dens.  The one
        grading check of a word: an image entry of another weight (weights,
        those of the spot where the word ends) raises KoszulError with the
        row, the column heads[w][c] (the pivot of the basis vector the word
        started from) and both weights."""
        ops = [(self.operator(name, line), right) for name, line, right in steps]
        images = {}
        for w, vecs in columns.items():
            images[w] = []
            for c, vec in enumerate(vecs):
                img = vec
                for op, right in ops:
                    img = op.apply_numerators(img, right)
                for r in img:
                    if weights[r] != w:
                        raise KoszulError(
                            "word is not weight-graded",
                            witness={"row": r, "column": heads[w][c],
                                     "row_weight": weights[r],
                                     "column_weight": w})
                images[w].append(img)
        return images, prod(op.den for op, _ in ops)

    def loop_spectrum(self, kind, params):
        word, spot, derived, stated, candidates = self.loop_setup(
            kind, params)
        blocks, sizes, total = self.loop_blocks(kind, word, spot)
        return verify_spectrum(blocks, total, derived, stated, kind, params,
                               sizes, candidates)

    # -- splittings ----------------------------------------------------------------

    def splitting(self, which, params):
        """The summand of the paper's splitting that a module is built on:
        the kernel of a two-letter word on a subspace W of a triple spot.

        which="prop1": (i,a); on the triple spot (i+1, 0, a+i+1), the summand
            Y = Ker(del.P) that complements the image of Q.d; W is the
            whole spot.
        which="prop2": (i,k,a); with l = a+i+k+1, inside W = image of d on
            the spot (i+1, k, l), the summand Z = W intersected with
            Ker(P.del), taken as the kernel of P.del on W; W is
            S_(i+1) (x) Im d_(k,l), w_t = e_s (x) v_j for t = s*dim Im d + j,
            which pivots where Subspace.lift would put it
            (lifted_d_pivots).  del leaves S_(i+1) alone, so it is applied
            once per Im d basis vector v_j at its line spot and each image
            shifted to every copy s; W's vectors are never built.

        Each case only picks the spot, W's pivots and the vectors that the
        rest of the word is applied to (the w_t for prop1, their del images
        for prop2); one body does the rest.  Those steps are applied at
        their line spots, and the summand is returned as the kernel K in
        W's coordinates: the summand is spanned by the sum_t K[t] w_t.  For
        prop1 the w_t are the unit vectors, so K is in the spot's own
        coordinates; for prop2 W is S_(i+1) (x) ImD(k,l) indexed as kron,
        the space a Z module acts on (Constructor.zk).
        """
        if which == "prop1":
            i, a = params
            spot = Spot(i + 1, 0, a + i + 1)
            steps, end = self._line_steps(["P", "del"], spot)
            pivots = range(self.spot_space(spot).dim)
            vecs, den = [{t: 1} for t in pivots], 1
        elif which == "prop2":
            i, k, a = params
            l = a + i + k + 1
            spot = Spot(i + 1, k + 1, l + 1)
            steps, end = self._line_steps(["del", "P"], spot)
            (_, line, _), steps = steps[0], steps[1:]
            op = self.operator("del", line)
            once = [op.apply_numerators(v) for v in self.d_image(k, l).nums]
            pivots = self.lifted_d_pivots(i + 1, k, l)
            vecs = [{s * op.cod_dim + r: x for r, x in u.items()}
                    for s in range(self.sym_basis(i + 1).dim) for u in once]
            den = op.den
        else:
            raise ValueError(f"unknown splitting {which!r}")
        weights = self.spot_space(spot).weights()
        by_weight = {}
        for t, p in enumerate(pivots):
            by_weight.setdefault(weights[p], []).append(t)
        end_dim = self.spot_space(end).dim
        images, rest = self._word_images(
            steps,
            {w: [vecs[t] for t in ts] for w, ts in by_weight.items()},
            self.spot_space(end).weights(),
            {w: [pivots[t] for t in ts] for w, ts in by_weight.items()})
        return join(len(pivots), ((SparseMap._from_ints(len(ts), end_dim, {
            (r, c): v for c, img in enumerate(images[w]) for r, v in img.items()
        }, den * rest).kernel(), ts) for w, ts in by_weight.items()))

    def xdanh_check(self, k, l):
        """Dimension bookkeeping for the pair splitting
        Lambda_k (x) S*_l = Im d_(k-1,l-1) (+) Im(del.d): rank_in and
        rank_out are the ranks of the incoming and the outgoing d, rank_proj
        that of del.d and rank_sum the dimension of the sum of the two
        images.

        Im(del.d) = del(Im d_(k,l)), so del is applied to the basis of the
        shared image d_image(k, l) and the images are inserted into a
        GradedSpan, whose dimension is rank_proj; the same images inserted
        into a GradedSpan seeded with the basis of d_image(k-1, l-1) give
        rank_sum.  No composite and no stacked map is built."""
        weights = self.pair_space(k, l).weights()
        dim = len(weights)
        incoming = (self.d_image(k - 1, l - 1).nums if (k >= 1 and l >= 1)
                    else [])
        outgoing = self.d_image(k, l).nums
        rank_in, rank_out = len(incoming), len(outgoing)
        delta = self.pair_del(k + 1, l + 1)
        proj, total = GradedSpan(dim, weights), GradedSpan(dim, weights)
        for v in incoming:
            total.insert(v)
        for v in outgoing:
            img = delta.apply_numerators(v)
            proj.insert(img)
            total.insert(img)
        rank_proj, rank_sum = proj.dim, total.dim
        ok = (
            rank_in + rank_out == dim
            and rank_proj == rank_out
            and rank_sum == dim
        )
        return {
            "dim": dim,
            "rank_in": rank_in,
            "rank_out": rank_out,
            "rank_proj": rank_proj,
            "rank_sum": rank_sum,
            "ok": ok,
        }


# ---------------------------------------------------------------------------
# spectrum verification


# derived: the set forced by the operator identities; stated: the closed form
# carried by the claim registry (each a frozenset, or None); eigenvalues:
# ((value, multiplicity), ...) sorted by value.  blocks_eliminated and
# blocks_by_symmetry are work, not part of any report body: the blocks
# eliminated, and the further copies they stand for, the sum of size - 1
# over them (a block M_mu on the g0-singular vectors counts weyl_dim(mu)
# times; see KoszulContext.loop_blocks)
SpectrumReport = namedtuple("SpectrumReport", (
    "kind", "params", "dim", "derived", "stated", "eigenvalues",
    "diagonalizable", "invertible", "matches_derived", "matches_stated",
    "note", "blocks_eliminated", "blocks_by_symmetry"), defaults=("", 0, 0))


def _match(spec_set, target, diag):
    if target is None:
        return None
    return diag and spec_set == set(target)


def verify_spectrum(blocks, total_dim, derived, stated, kind, params,
                    sizes=None, candidates=None):
    """Spectrum of a block-diagonal operator over candidate eigenvalues
    (default: derived), compared with the derived and stated sets.

    Eigenspaces of distinct eigenvalues are independent, so a block whose
    nullities n - rank(M - lambda) over the candidates add up to its size n
    is diagonalizable with those multiplicities.  Otherwise the generalised
    nullities, of (M - lambda)^p with p raised until they stop growing, are
    the algebraic multiplicities and the block is not diagonalizable; if
    they do not add up to n either, an eigenvalue lies outside the
    candidates, and SpectrumError names the block's dimension and how much
    was filled.  Nothing falls back.

    sizes[j] is the number of copies of blocks[j] in the operator
    (weyl_dim of its weight, see KoszulContext.loop_blocks); its
    multiplicities count that many times.  Default: 1 each.
    """
    if sizes is None:
        sizes = [1] * len(blocks)
    order = sorted(derived or () if candidates is None else candidates)
    pairs = [(b, s) for b, s in zip(blocks, sizes, strict=True)
             if b.dom_dim > 0]
    counts, diag = {}, True
    for b, size in pairs:
        mults, diagonal = _block_multiplicities(b, order)
        diag = diag and diagonal
        for lam, g in mults.items():
            counts[lam] = counts.get(lam, 0) + size * g
    spec_set = set(counts)
    return SpectrumReport(
        kind=kind,
        params=tuple(params),
        dim=total_dim,
        derived=derived,
        stated=stated,
        eigenvalues=tuple(sorted(counts.items())),
        diagonalizable=diag,
        invertible=ZERO not in spec_set and total_dim == sum(counts.values()),
        matches_derived=_match(spec_set, derived, diag),
        matches_stated=_match(spec_set, stated, diag),
        note="" if diag else "defective eigenvalue present",
        blocks_eliminated=len(pairs),
        blocks_by_symmetry=sum(s for _, s in pairs) - len(pairs),
    )


def _block_multiplicities(b, order):
    """({lambda: multiplicity}, diagonalizable) of one block over the
    increasing candidates.  M - lambda is q N - p den I for b = N / den and
    lambda = p / q; Im (M - lambda)^p is M - lambda applied to the basis of
    Im (M - lambda)^(p-1), from the whole space, until it stops falling."""
    n = b.dom_dim
    cols = [{} for _ in range(n)]
    for (r, c), v in b.entries.items():
        cols[c][r] = v

    def shifted(lam):
        q, shift = lam.denominator, lam.numerator * b.den
        for c, col in enumerate(cols):
            vec = {r: q * v for r, v in col.items()}
            x = vec.get(c, 0) - shift
            if x:
                vec[c] = x
            else:
                vec.pop(c, None)
            yield vec

    nullities, found = {}, 0
    for lam in order:
        if found == n:
            break
        g = n - Subspace.from_vectors(n, shifted(lam)).dim
        if g:
            nullities[lam] = g
            found += g
    if found == n:
        return nullities, True
    mults = {}
    for lam in nullities:
        a, im, prev = list(shifted(lam)), Subspace.full(n), n + 1
        while im.dim < prev:
            prev, im = im.dim, Subspace.from_vectors(n, [
                _combine(0, {}, [(x, a[c]) for c, x in v.items()])
                for v in im.nums])
        mults[lam] = n - im.dim
    filled = sum(mults.values())
    if filled != n:
        raise SpectrumError(
            f"the candidate eigenvalues fill {filled} of a block of "
            f"dimension {n}", witness={"dim": n, "filled": filled})
    return mults, False
