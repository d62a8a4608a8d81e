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

and for delQ against Q.del the middles are drop_last_x . drop_first_y and
drop_first_y . drop_last_x, k >= 2.  When the two middles agree on Lambda_k
for every letter pair, the square commutes at every spot of exterior degree
k.  The condition is sufficient, not necessary (terms could cancel across
letter pairs), so where it fails both routes are composed on the spot.

All maps preserve weights, so ranks, kernels and spectra decompose over
weight blocks; the public checks use the blocked paths and the test suite
cross-checks them against dense computations at small degrees.

The loop spectra eliminate one weight block per orbit of S_m x S_n, which
permutes the even letters and the odd letters and so acts on weights as
the Weyl group of gl(m) + gl(n).  Swapping two letters of one parity is a
signed permutation of each power basis, and of a spot the product of its
factors' (no crossing sign).  Where a loop M commutes with it, that is
M[pi(r), pi(c)] = s_r s_c M[r, c] at every entry, for every adjacent pair
of same-parity letters, the block at sigma(w) is conjugate to the block at
w, so the block at the dominant weight (even and odd coordinates each
non-increasing) stands for its orbit and its eigenspace dimensions count
once per weight of the orbit.  For the PdeldQ loop, P at the line spot must
commute as well, so that Ker(P (x) id) is stable.

The certificate is checked once per operator of the word at its line spot,
not on M.  An operator elsewhere is its line map lifted by the identity on
the idle factor, and a spot's relabelling is the product of its factors',
the idle factor's included, so the lift commutes wherever the line map
does; a composite of commuting maps commutes, so M does.  M is then never
formed: the line maps are applied to the columns kept, and those images
also show M weight-graded (KoszulContext.loop_blocks).  Where a
certificate fails, every column is kept and every block eliminated, so the
verdict stays exact either way.

Im d at each pair is built once (KoszulContext.d_image), for the rank of
d, the homology, the ImD modules and the Z summands.  An echelon basis
lifted by an identity factor stays reduced echelon (Subspace.lift), so
Ker(P (x) id) and W = S (x) Im d need no elimination of their own, and
Ker(P (x) id) = Im(P (x) id) is decided at the line spot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import prod

from .linalg import RestrictionError, SparseMap, SpectrumError, Subspace, WitnessedError
from .superspace import (
    ProductSpace,
    blocked_image,
    blocked_kernel,
    blocked_rank,
    is_dominant,
    join,
    orbit_size,
    power_basis,
    split,
    weight_blocks,
)

ZERO = Fraction(0)


class KoszulError(WitnessedError, ValueError):
    """A structural claim about the complex fails; the witness shows where."""


@dataclass(frozen=True)
class Spot:
    """Indices of the triple product S_sym (x) Lambda_alt (x) S*_dual."""

    sym: int
    alt: int
    dual: int

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
    return replace(spot, **{f: getattr(spot, f) + step
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
            m = self.operator(name, replace(spot, **{idle: 0}))
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
        against del-then-Q.  Returns None when a route is undefined at the spot.

        Both routes are sums over letter pairs of the same outer factors
        around a middle on Lambda_alt (module docstring): dP has
        append_x . prepend_y where Pd has prepend_y . append_x, and delQ has
        drop_last_x . drop_first_y where Q.del has drop_first_y . drop_last_x.
        If the middles agree for every letter pair, x = y included, the
        square commutes ("certified_by": "factor").  That is sufficient, not
        necessary; otherwise both routes are composed on the spot and
        compared ("certified_by": "composition"), so the verdict stays exact
        and a failure keeps its residual_nnz."""
        if which not in SQUARES:
            raise ValueError(f"unknown square {which!r}")
        first, second = SQUARES[which]
        words = ([first, second], [second, first])
        if any(word_end(word, spot) is None for word in words):
            return None
        dim = self.spot_space(spot).dim
        if self._middles_commute(which, spot.alt):
            return {"ok": True, "residual_nnz": 0, "dim": dim,
                    "certified_by": "factor"}
        a, end = self.composed(words[0], spot)
        b = self.composed_to(words[1], spot, end)
        ok = a == b
        return {
            "ok": ok,
            "residual_nnz": 0 if ok else (a - b).nnz(),
            "dim": dim,
            "certified_by": "composition",
        }

    def _middles_commute(self, which, alt):
        """Whether the square's two middles on Lambda_alt agree for every
        letter pair, computed once per (square, exterior degree).  Only
        called where both routes are defined, so every degree is >= 0."""
        key = (which, alt)
        if key not in self._certificates:
            (f_op, f_step), (s_op, s_step) = map(_alt_factor, SQUARES[which])
            here = self.alt_basis(alt)
            after_first = self.alt_basis(alt + f_step)
            after_second = self.alt_basis(alt + s_step)
            letters = range(self.space.dim)
            self._certificates[key] = all(
                after_first.factor_map(s_op, x) @ here.factor_map(f_op, y)
                == after_second.factor_map(f_op, y) @ here.factor_map(s_op, x)
                for x in letters for y in letters)
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
        lifted = self.kerp_space(replace(spot, dual=0)).lift(
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
        line = replace(spot, dual=0)
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
        """(word, base spot, derived eigenvalue set, stated eigenvalue set).

        derived is the set the operator identities force (the spectrum is
        verified against it by eigenspace dimensions); stated is the closed
        form carried in the claim registry for this loop, kept separate so
        disagreements surface as findings.  For the insertion-side loop the two differ at i >= 1:
        the stated numerator is a+i+3-j where the recursion forces a+2i+3-j.
        Both are (3|1)-specific; other alphabets get no prediction.
        """
        arity = {"delPQd": 2, "PdeldQ": 3}.get(kind)
        if arity is not None and len(params) != arity:
            raise ValueError(
                f"{kind} takes {arity} parameters, got {len(params)}")
        if kind == "delPQd":
            i, a = params
            if i < 0 or a + i < 0:
                raise ValueError("invalid loop parameters")
            spot = Spot(i, 0, a + i)
            word = ["d", "Q", "P", "del"]
            derived = stated = None
            if (self.space.m, self.space.n) == (3, 1):
                # On S_p with no exterior letters the transfer loop QP is the
                # identity (the r = 0 case of the transfer identity), which
                # rewrites the loop at (i, a) as c*id + s*(conjugate of the
                # loop at (i-1, a)); unrolling the recursion forces the
                # eigenvalue (a+2i+3-j)j / ((i+1)(a+i+1)) for j = 1..i+1
                derived = frozenset(
                    Fraction((a + 2 * i + 3 - j) * j, (i + 1) * (a + i + 1))
                    for j in range(1, i + 2)
                )
                stated = frozenset(
                    Fraction((a + i + 3 - j) * j, (i + 1) * (a + i + 1))
                    for j in range(1, i + 2)
                )
        elif kind == "PdeldQ":
            i, k, a = params
            if i < 0 or k < 1 or a + i + k + 1 < 0:
                raise ValueError("invalid loop parameters")
            l = a + i + k + 1
            spot = Spot(i, k + 1, l)
            word = ["Q", "d", "del", "P"]
            derived = stated = None
            if (self.space.m, self.space.n) == (3, 1):
                js = set(range(1, i + 2)) | {i + k + 1}
                derived = stated = frozenset(
                    Fraction(
                        (a + k + 2 * i + 4 - j) * j,
                        (i + 1) * (k + 1) ** 2 * (a + i + k + 2),
                    )
                    for j in js
                )
        else:
            raise ValueError(f"unknown loop kind {kind!r}")
        return word, spot, derived, stated

    def loop_blocks(self, kind, word, spot):
        """The weight blocks of the loop operator M, restricted to
        Ker(P (x) id) for the PdeldQ loop.  Returns (blocks, sizes,
        total_dim): one block per S_m x S_n orbit of weights, at its
        dominant weight, with the orbit's size, where every operator of
        the word, and P at the spot's line for the kernel, passes the
        relabelling certificate at its line spot (it then holds for the
        lifts and for M, module docstring); every block, each with size 1,
        where one does not.

        M is never formed: the word's line-spot maps are applied to the
        unit vectors of the kept weights, or to the kernel's basis vectors
        of those weights, whose images are read at the kernel's pivots and
        certified by their residue (RestrictionError if one leaves it).  An
        image entry that joins two weights raises KoszulError with its
        row, column and both weights (_graded_blocks).  Under the
        certificate the kept columns suffice for that check: M
        commutes with signed permutations that carry the columns of a
        dominant weight onto those of each weight of its orbit and act on
        the row weights alike, so an entry joining two weights anywhere
        has a relabelled twin joining two weights in a dominant column.  A
        word that does not return to its spot raises KoszulError."""
        steps, end = self._line_steps(word, spot)
        if end != spot:
            raise KoszulError(
                "loop word ends at the wrong spot",
                witness={"word": list(word), "start": repr(spot),
                         "expected": repr(spot), "reached": repr(end)})
        restricted = kind == "PdeldQ" and spot.sym >= 1
        lines = [(name, line) for name, line, _ in steps]
        if restricted:
            lines.append(("P", replace(spot, dual=0)))
        certified = all(self._line_certificate(*nl) for nl in lines)
        weights = self.spot_space(spot).weights()
        indices, _ = weight_blocks(weights)
        m = self.space.m
        if certified:
            sizes = {w: orbit_size(w, m) for w in indices if is_dominant(w, m)}
        else:
            sizes = dict.fromkeys(indices, 1)
        if not restricted:
            columns = {w: [{c: 1} for c in indices[w]] for w in sizes}
            blocks = self._graded_blocks(steps, columns, weights)
            return list(blocks.values()), list(sizes.values()), len(weights)
        sub = self.kerp_space(spot)
        parts = {w: part for w, part in split(sub, weights).items()
                 if w in sizes}
        columns = {w: [] for w in parts}
        for v, p in zip(sub.nums, sub.pivots):
            if weights[p] in parts:
                columns[weights[p]].append(v)
        graded = self._graded_blocks(steps, columns, weights, sub.den)
        blocks = []
        for w, (part, idx) in parts.items():
            block = graded[w]
            cols = block.columns()
            ent, bad = part.read_coordinates(
                cols.get(c, {}) for c in range(part.dim))
            if bad is not None:
                raise RestrictionError(
                    "loop carries a kernel vector out of Ker(P (x) id)",
                    witness={"column": idx[part.pivots[bad]],
                             "column_weight": w})
            blocks.append(SparseMap._from_ints(part.dim, part.dim, ent,
                                               block.den))
        return blocks, [sizes[w] for w in parts], sub.dim

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
            steps.append((name, replace(spot, **{idle: 0}), right))
            spot = end
        return steps, spot

    def _graded_blocks(self, steps, columns, weights, den=1):
        """{w: block} of the line steps on the int vectors columns[w], of
        weight w and over den: column c of the block is the image of vector
        c, its rows the indices of weight w where the word ends (weights),
        over den times the maps' dens.  The one grading check of a word:
        an image entry of another weight raises KoszulError with the row,
        the column (the vector's largest index) and both weights."""
        ops = [(self.operator(name, line), right) for name, line, right in steps]
        den *= prod(op.den for op, _ in ops)
        indices, local = weight_blocks(weights)
        blocks = {}
        for w, vecs in columns.items():
            ent = {}
            for c, vec in enumerate(vecs):
                img = vec
                for op, right in ops:
                    img = op.apply_numerators(img, right)
                for r, v in img.items():
                    if weights[r] != w:
                        raise KoszulError(
                            "word is not weight-graded",
                            witness={"row": r, "column": max(vec),
                                     "row_weight": weights[r],
                                     "column_weight": w})
                    ent[(local[r], c)] = v
            blocks[w] = SparseMap._from_ints(
                len(vecs), len(indices.get(w, ())), ent, den)
        return blocks

    def _line_certificate(self, name, line):
        """Whether the named map at the line spot commutes with the
        relabellings, checked once per (operator, line spot)."""
        key = (name, line)
        if key not in self._certificates:
            self._certificates[key] = self._relabelling_commutes(
                self.operator(name, line), line, op_target(name, line))
        return self._certificates[key]

    def _relabelling_commutes(self, mat, spot, end):
        """Whether the map from the spot to the end spot commutes with the
        relabelling of every adjacent pair of same-parity letters: one pass
        over its entries per pair, testing M[pi(r), pi(c)] = s_r s_c M[r, c]."""
        get = mat.entries.get
        for a, b in self.space.swaps():
            dom_perm, dom_signs = self.spot_space(spot).relabel(a, b)
            cod_perm, cod_signs = self.spot_space(end).relabel(a, b)
            for (r, c), v in mat.entries.items():
                if get((cod_perm[r], dom_perm[c])) != cod_signs[r] * dom_signs[c] * v:
                    return False
        return True

    def loop_spectrum(self, kind, params):
        word, spot, derived, stated = self.loop_setup(kind, params)
        blocks, sizes, total = self.loop_blocks(kind, word, spot)
        return verify_spectrum(blocks, total, derived, stated, kind, params,
                               sizes)

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
            S_(i+1) (x) Im d_(k,l), the shared pair image lifted on the left
            (Subspace.lift).

        Each case only picks the word, the spot and W, a reduced echelon
        basis w_t; one body does the rest.  The word is applied to the w_t
        at its line spots and each weight's kernel K is taken in W's
        coordinates.  The z = sum_t K[t] w_t are reduced echelon over
        K.den * W.den with no further elimination: the w_t's pivots
        increase and each w_t vanishes at the others' pivots, so z pivots
        where its last w_t does, and vanishes at the other pivots of Z
        because K does at the other pivots of K.  For the whole spot the
        w_t are the unit vectors, and z is K itself.
        """
        if which == "prop1":
            i, a = params
            word, spot = ["P", "del"], Spot(i + 1, 0, a + i + 1)
            w_sub = Subspace.full(self.spot_space(spot).dim)
        elif which == "prop2":
            i, k, a = params
            l = a + i + k + 1
            word, spot = ["del", "P"], Spot(i + 1, k + 1, l + 1)
            w_sub = self.d_image(k, l).lift(left=self.sym_basis(i + 1).dim)
        else:
            raise ValueError(f"unknown splitting {which!r}")
        weights = self.spot_space(spot).weights()
        by_weight = {}
        for t, p in enumerate(w_sub.pivots):
            by_weight.setdefault(weights[p], []).append(t)
        steps, end = self._line_steps(word, spot)
        blocks = self._graded_blocks(
            steps,
            {w: [w_sub.nums[t] for t in ts] for w, ts in by_weight.items()},
            self.spot_space(end).weights())
        ker = join(w_sub.dim, ((blocks[w].kernel(), ts)
                               for w, ts in by_weight.items()))
        basis = w_sub.basis_matrix()
        return Subspace(w_sub.ambient_dim,
                        [basis.apply_numerators(v) for v in ker.nums],
                        [w_sub.pivots[q] for q in ker.pivots],
                        ker.den * w_sub.den)

    def xdanh_check(self, k, l):
        """Dimension bookkeeping for the pair splitting, blocked ranks only."""
        ps = self.pair_space(k, l)
        dim = ps.dim
        rank_in = self.d_rank(k - 1, l - 1) if (k >= 1 and l >= 1) else 0
        rank_out = self.d_rank(k, l)
        proj = self.pair_del(k + 1, l + 1) @ self.pair_d(k, l)
        rank_proj = blocked_rank(proj, ps.weights(), ps.weights())
        # the two generating maps side by side span A + B
        blocks, off = [], 0
        if k >= 1 and l >= 1:
            din = self.pair_d(k - 1, l - 1)
            blocks, off = [(0, 0, din)], din.dom_dim
        blocks.append((0, off, proj))
        stacked = SparseMap.numerator_blocks(off + proj.dom_dim, dim, blocks)
        prev_w = (
            self.pair_space(k - 1, l - 1).weights() if (k >= 1 and l >= 1) else []
        )
        rank_sum = blocked_rank(stacked, list(prev_w) + list(ps.weights()), ps.weights())
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


@dataclass(frozen=True)
class SpectrumReport:
    kind: str
    params: tuple
    dim: int
    derived: frozenset | None  # set forced by the operator identities
    stated: frozenset | None  # closed form carried by the claim registry
    eigenvalues: tuple  # ((value, multiplicity), ...) sorted by value
    diagonalizable: bool
    invertible: bool
    matches_derived: bool | None
    matches_stated: bool | None
    note: str = ""
    # work: blocks eliminated, and blocks whose eigenspaces a relabelling
    # carries over from an eliminated one; not part of any report body
    blocks_eliminated: int = 0
    blocks_by_symmetry: int = 0


def _match(spec_set, target, diag):
    if target is None:
        return None
    return diag and spec_set == set(target)


def verify_spectrum(blocks, total_dim, derived, stated, kind, params,
                    sizes=None):
    """Spectrum of a block-diagonal operator, prediction-first.

    A block M is diagonalizable with spectrum inside the derived set exactly
    when the dimensions n - rank(M - lambda) over the set add up to n, since
    eigenspaces of distinct eigenvalues are independent; those dimensions are
    then the multiplicities.  Otherwise fall back to exact characteristic
    polynomials per block.  The actual spectrum is then compared against both
    candidate sets.

    sizes[j] is the number of blocks conjugate to blocks[j] that it stands
    for (one weight orbit, see KoszulContext.loop_blocks); its eigenspace
    dimensions and multiplicities count that many times.  Default: 1 each.
    """
    if sizes is None:
        sizes = [1] * len(blocks)
    pairs = [(b, s) for b, s in zip(blocks, sizes, strict=True)
             if b.dom_dim > 0]
    counts = None if derived is None else _eigenspace_dims(pairs, derived)
    diag, note = True, ""
    if counts is None:
        counts, diag, note = _block_spectra(pairs)
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
        note=note,
        blocks_eliminated=len(pairs),
        blocks_by_symmetry=sum(s for _, s in pairs) - len(pairs),
    )


def _eigenspace_dims(pairs, eigenvalues):
    """eigenvalue -> total eigenspace dimension over the (block, size)
    pairs, or None as soon as one block is not diagonalizable with spectrum
    inside the set."""
    counts = dict.fromkeys(eigenvalues, 0)
    for b, size in pairs:
        n = b.dom_dim
        eye = SparseMap.identity(n)
        geo = {lam: n - b.add(eye, -lam).rank() for lam in eigenvalues}
        if sum(geo.values()) != n:
            return None
        for lam, g in geo.items():
            counts[lam] += size * g
    return {lam: g for lam, g in counts.items() if g}


def _block_spectra(pairs):
    """(eigenvalue -> algebraic multiplicity, diagonalizable, note) from exact
    characteristic polynomials, block by block over the (block, size)
    pairs."""
    counts = {}
    diag = True
    note = ""
    for b, size in pairs:
        try:
            spec = b.rational_spectrum()
        except SpectrumError as e:
            return {}, False, f"block spectrum not certified rational: {e}"
        diag = diag and spec.diagonalizable
        for lam, alg, geo in spec.pairs:
            counts[lam] = counts.get(lam, 0) + size * alg
            if alg != geo:
                note = "defective eigenvalue present"
    return counts, diag, note
