"""Operators of the double Koszul complex and their verification primitives.

One context object per super space holds the four families of maps between
triple products S_i (x) Lambda_k (x) S*_l:

  d    appends the identity element of V (x) V* at the inner junction,
  del  contracts the last exterior letter against the first dual letter,
  P    moves the last symmetric letter into the front of the exterior block,
  Q    moves the first exterior letter onto the back of the symmetric block.

Pair maps are Kronecker sums of single-letter factor maps, lifted onto the
third factor: every transferred or inserted letter only ever crosses the
junction it acts at, so no Koszul signs appear beyond the contraction's
evaluation sign.

All maps preserve weights, so ranks, kernels and spectra decompose over
weight blocks; the public checks use the blocked paths and the test suite
cross-checks them against dense computations at small degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import RestrictionError, SparseMap, SpectrumError, Subspace, WitnessedError
from .superspace import (
    ProductSpace,
    blocked_image,
    blocked_kernel,
    blocked_rank,
    power_basis,
    split,
    split_graded,
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


# op name -> (sym step, alt step, dual step)
OP_STEPS = {
    "d": (0, 1, 1),
    "del": (0, -1, -1),
    "P": (-1, 1, 0),
    "Q": (1, -1, 0),
}


# pair operator -> (left factor, right factor, sign of an odd letter); a
# factor is (KoszulContext basis method, factor op, degree step), and the
# operator is the sum over letters of
# sign * left.factor_map(op, letter) (x) right.factor_map(op, letter)
PAIR_FACTORS = {
    "d": (("alt_basis", "append", 1), ("dual_basis", "prepend", 1), 1),
    "del": (("alt_basis", "drop_last", -1), ("dual_basis", "drop_first", -1), -1),
    "P": (("sym_basis", "drop_last", -1), ("alt_basis", "prepend", 1), 1),
    "Q": (("sym_basis", "append", 1), ("alt_basis", "drop_first", -1), 1),
}

# triple operator -> (pair method, True for id_S (x) pair, False for pair (x) id_S*)
TRIPLE_FORMS = {
    "d": ("pair_d", True),
    "del": ("pair_del", True),
    "P": ("pair_p", False),
    "Q": ("pair_q", False),
}


def op_target(name, spot):
    ds, da, dd = OP_STEPS[name]
    return Spot(spot.sym + ds, spot.alt + da, spot.dual + dd)


def op_applicable(name, spot):
    """Whether the operator is defined at the spot: the letters it takes
    away exist exactly when the spot it lands on is valid."""
    if name not in OP_STEPS:
        raise ValueError(f"unknown operator {name!r}")
    return op_target(name, spot).valid


class KoszulContext:
    """Differentials and verification checks for one super space."""

    def __init__(self, space):
        self.space = space
        self._pair_ops = {}
        self._triple_ops = {}
        self._spot_spaces = {}
        self._rank_cache = {}
        self._splittings = {}

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

    # -- pair-level differentials -----------------------------------------------

    def pair_d(self, k, l):
        """Lambda_k (x) S*_l -> Lambda_{k+1} (x) S*_{l+1}."""
        return self._pair_op("d", k, l)

    def pair_del(self, k, l):
        """Lambda_k (x) S*_l -> Lambda_{k-1} (x) S*_{l-1}, k,l >= 1.

        The evaluation of a letter against its dual covector carries the
        letter's parity sign, which is what makes del(d(1)) count the super
        dimension m - n rather than m + n.
        """
        return self._pair_op("del", k, l)

    def pair_p(self, p, r):
        """S_p (x) Lambda_r -> S_{p-1} (x) Lambda_{r+1}, p >= 1."""
        return self._pair_op("P", p, r)

    def pair_q(self, p, r):
        """S_p (x) Lambda_r -> S_{p+1} (x) Lambda_{r-1}, r >= 1."""
        return self._pair_op("Q", p, r)

    def _pair_op(self, name, a, b):
        """Sum over letters of the two factor maps of PAIR_FACTORS[name], on
        the left power of degree a and the right power of degree b; a
        ValueError if either target degree is negative."""
        key = (name, a, b)
        if key not in self._pair_ops:
            (lname, lop, lstep), (rname, rop, rstep), odd_sign = PAIR_FACTORS[name]
            if a + lstep < 0 or b + rstep < 0:
                raise ValueError(
                    f"{name} needs target degrees >= 0, got {(a + lstep, b + rstep)}")
            lbasis, rbasis = getattr(self, lname), getattr(self, rname)
            left, right = lbasis(a), rbasis(b)
            cod = lbasis(a + lstep).dim * rbasis(b + rstep).dim
            terms = [
                (odd_sign if self.space.parity(letter) else 1,
                 left.factor_map(lop, letter).kron(right.factor_map(rop, letter)))
                for letter in range(self.space.dim)
            ]
            self._pair_ops[key] = SparseMap.combination(left.dim * right.dim, cod, terms)
        return self._pair_ops[key]

    # -- triple-level operators ---------------------------------------------------

    def operator(self, name, spot):
        """The named map on the triple spot: its pair map lifted onto the
        factor it leaves alone."""
        if not op_applicable(name, spot):
            raise ValueError(f"operator {name!r} not applicable at {spot}")
        key = (name, spot)
        if key not in self._triple_ops:
            method, lift_left = TRIPLE_FORMS[name]
            pair = getattr(self, method)
            if lift_left:
                m = pair(spot.alt, spot.dual).lift(left=self.sym_basis(spot.sym).dim)
            else:
                m = pair(spot.sym, spot.alt).lift(right=self.dual_basis(spot.dual).dim)
            self._triple_ops[key] = m
        return self._triple_ops[key]

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

    # -- cached blocked ranks ------------------------------------------------------

    def d_rank(self, k, l):
        key = ("d", k, l)
        if key not in self._rank_cache:
            m = self.pair_d(k, l)
            self._rank_cache[key] = blocked_rank(
                m, self.pair_space(k, l).weights(), self.pair_space(k + 1, l + 1).weights()
            )
        return self._rank_cache[key]

    # -- identities -------------------------------------------------------------

    def d_del_identity(self, k, l):
        """l*k*(d after del) + (l+1)(k+1)*(del after d) = (l-k-n+m)*id.

        Terms whose first step does not exist are dropped; their prefactor is
        checked to vanish (KoszulError otherwise), so nothing is silently
        ignored.
        """
        m, n = self.space.m, self.space.n
        c_in = l * k
        scalar = Fraction(l - k - n + m)
        dim = self.pair_space(k, l).dim
        terms = []
        if k >= 1 and l >= 1:
            terms.append((c_in, self.pair_d(k - 1, l - 1) @ self.pair_del(k, l)))
        elif c_in:
            raise KoszulError("dropped d-after-del term has a nonzero prefactor",
                              witness={"k": k, "l": l, "prefactor": c_in})
        terms.append(((l + 1) * (k + 1), self.pair_del(k + 1, l + 1) @ self.pair_d(k, l)))
        terms.append((-scalar, SparseMap.identity(dim)))
        resid = SparseMap.combination(dim, dim, terms)
        return {
            "params": {"k": k, "l": l, "m": m, "n": n},
            "scalar": scalar,
            "dim": dim,
            "ok": resid.is_zero(),
            "residual_nnz": resid.nnz(),
        }

    def p_q_identity(self, p, r):
        """r(p+1)*(P after Q) + p(r+1)*(Q after P) = (p+r)*id.

        As in d_del_identity, a dropped term must have a zero prefactor."""
        c_pq = r * (p + 1)
        c_qp = p * (r + 1)
        scalar = Fraction(p + r)
        dim = self.sym_basis(p).dim * self.alt_basis(r).dim
        terms = []
        if r >= 1:
            terms.append((c_pq, self.pair_p(p + 1, r - 1) @ self.pair_q(p, r)))
        elif c_pq:
            raise KoszulError("dropped P-after-Q term has a nonzero prefactor",
                              witness={"p": p, "r": r, "prefactor": c_pq})
        if p >= 1:
            terms.append((c_qp, self.pair_q(p - 1, r + 1) @ self.pair_p(p, r)))
        elif c_qp:
            raise KoszulError("dropped Q-after-P term has a nonzero prefactor",
                              witness={"p": p, "r": r, "prefactor": c_qp})
        terms.append((-scalar, SparseMap.identity(dim)))
        resid = SparseMap.combination(dim, dim, terms)
        return {
            "params": {"p": p, "r": r},
            "scalar": scalar,
            "dim": dim,
            "ok": resid.is_zero(),
            "residual_nnz": resid.nnz(),
        }

    def d_squared_is_zero(self, k, l):
        m = self.pair_d(k + 1, l + 1) @ self.pair_d(k, l)
        return m.is_zero()

    def p_squared_is_zero(self, p, r):
        if p < 2:
            raise ValueError("need p >= 2 for a two-step P")
        m = self.pair_p(p - 1, r + 1) @ self.pair_p(p, r)
        return m.is_zero()

    # -- commutativity of the two directions ----------------------------------------

    def commute_check(self, which, spot):
        """which="dP": route P-then-d against d-then-P; which="delQ": Q-then-del
        against del-then-Q.  Returns None when a route is undefined at the spot."""
        if which == "dP":
            words = (["P", "d"], ["d", "P"])
        elif which == "delQ":
            words = (["Q", "del"], ["del", "Q"])
        else:
            raise ValueError(f"unknown square {which!r}")
        for word in words:
            s = spot
            for name in word:
                if not op_applicable(name, s):
                    return None
                s = op_target(name, s)
        a, end = self.composed(words[0], spot)
        b = self.composed_to(words[1], spot, end)
        ok = a == b
        return {
            "params": {"which": which, "spot": (spot.sym, spot.alt, spot.dual)},
            "ok": ok,
            "residual_nnz": 0 if ok else (a - b).nnz(),
            "dim": self.spot_space(spot).dim,
        }

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
        """(dim, kernel, image) at the spot, with genuine subspaces."""
        l = k - a
        ps = self.pair_space(k, l)
        ker = blocked_kernel(
            self.pair_d(k, l), ps.weights(), self.pair_space(k + 1, l + 1).weights()
        )
        if k >= 1 and l >= 1:
            im = blocked_image(
                self.pair_d(k - 1, l - 1),
                self.pair_space(k - 1, l - 1).weights(),
                ps.weights(),
            )
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
        """Ker(P (x) id_dual) inside the triple spot; everything when sym = 0.
        The kernel basis lifted onto S*_dual is in pivot order already."""
        space = self.spot_space(spot)
        if spot.sym == 0:
            return Subspace.full(space.dim)
        # S_p (x) Lambda_r is the spot (p, r, 0), S*_0 being one even line
        # of weight zero
        ker = blocked_kernel(
            self.pair_p(spot.sym, spot.alt),
            self.spot_space(Spot(spot.sym, spot.alt, 0)).weights(),
            self.spot_space(Spot(spot.sym - 1, spot.alt + 1, 0)).weights())
        ddim = self.dual_basis(spot.dual).dim
        lifted = ker.basis_matrix().lift(right=ddim)
        cols = lifted.columns()
        nums = [cols[c] for c in range(lifted.dom_dim)]
        pivots = [max(v) for v in nums]
        if len(set(pivots)) != ker.dim * ddim:
            raise KoszulError(
                "tensored kernel basis has repeated pivots",
                witness={"spot": (spot.sym, spot.alt, spot.dual),
                         "pivots": sorted(pivots), "expected_dim": ker.dim * ddim},
            )
        return Subspace(space.dim, nums, pivots, lifted.den)

    def kerp_is_incoming_image(self, spot):
        """Ker(P (x) id) = Im(P (x) id) from the spot one transfer step back."""
        if spot.alt < 1:
            raise ValueError("needs alt >= 1")
        back = Spot(spot.sym + 1, spot.alt - 1, spot.dual)
        ker = self.kerp_space(spot)
        m = self.operator("P", back)
        im = blocked_image(
            m, self.spot_space(back).weights(), self.spot_space(spot).weights()
        )
        return {
            "params": {"spot": (spot.sym, spot.alt, spot.dual)},
            "ok": im == ker,
            "ker_dim": ker.dim,
            "im_dim": im.dim,
        }

    def d_restricts_to_kerp(self, spot):
        """d carries Ker(P (x) id) into Ker(P (x) id) one insertion step up."""
        return self._restricts_to_kerp("d", spot)

    def del_restricts_to_kerp(self, spot):
        """Whether del carries Ker(P (x) id) into Ker(P (x) id); generally not."""
        return self._restricts_to_kerp("del", spot)

    def _restricts_to_kerp(self, name, spot):
        if not op_applicable(name, spot):
            raise ValueError(f"{name} not applicable here")
        sub = self.kerp_space(spot)
        target = self.kerp_space(op_target(name, spot))
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

    def loop_blocks(self, kind, params):
        """Weight blocks of the loop operator, restricted to Ker(P (x) id)
        for the PdeldQ loop.  Returns (blocks, total_dim, spot)."""
        word, spot, _, _ = self.loop_setup(kind, params)
        mat = self.composed_to(word, spot, spot)
        weights = self.spot_space(spot).weights()
        if kind == "PdeldQ" and spot.sym >= 1:
            sub = self.kerp_space(spot)
            blocks = _restrict_blocked(mat, sub, weights)
            total = sub.dim
        else:
            blocks = [
                blk for blk, _, _ in split_graded(mat, weights, weights).values()
            ]
            total = mat.dom_dim
        return blocks, total, spot

    def loop_spectrum(self, kind, params):
        word, spot, derived, stated = self.loop_setup(kind, params)
        blocks, total, _ = self.loop_blocks(kind, params)
        return verify_spectrum(blocks, total, derived, stated, kind, params)

    # -- splittings ----------------------------------------------------------------

    def splitting(self, which, params):
        """The summand of the paper's splitting that a module is built on,
        computed once per (which, params); callers only read the subspace.

        which="prop1": (i,a); on the triple spot (i+1, 0, a+i+1), the summand
            Y = Ker(del.P) that complements the image of Q.d.
        which="prop2": (i,k,a); with l = a+i+k+1, inside W = image of d on
            the spot (i+1, k, l), the summand Z = W intersected with
            Ker(P.del).  Since d y lies in Ker(P.del) exactly when y lies
            in Ker(P.del.d), Z = d(Ker(P.del.d)), with no intersection.
        """
        key = (which, tuple(params))
        if key not in self._splittings:
            self._splittings[key] = self._splitting(which, key[1])
        return self._splittings[key]

    def _splitting(self, which, params):
        if which == "prop1":
            i, a = params
            spot = Spot(i + 1, 0, a + i + 1)
            inner = Spot(i, 0, a + i)
            delp = self.composed_to(["P", "del"], spot, inner)
            return blocked_kernel(delp, self.spot_space(spot).weights(),
                                  self.spot_space(inner).weights())
        if which == "prop2":
            i, k, a = params
            l = a + i + k + 1
            src, dst = Spot(i + 1, k, l), Spot(i, k + 1, l)
            w_src = self.spot_space(src).weights()
            pdeld = self.composed_to(["d", "del", "P"], src, dst)
            ker = blocked_kernel(pdeld, w_src, self.spot_space(dst).weights())
            return blocked_image(
                self.operator("d", src) @ ker.basis_matrix(),
                [w_src[p] for p in ker.pivots],
                self.spot_space(Spot(i + 1, k + 1, l + 1)).weights(),
            )
        raise ValueError(f"unknown splitting {which!r}")

    def xdanh_check(self, k, l):
        """Dimension bookkeeping for the pair splitting, blocked ranks only."""
        ps = self.pair_space(k, l)
        dim = ps.dim
        rank_in = self.d_rank(k - 1, l - 1) if (k >= 1 and l >= 1) else 0
        rank_out = self.d_rank(k, l)
        proj = self.pair_del(k + 1, l + 1) @ self.pair_d(k, l)
        rank_proj = blocked_rank(proj, ps.weights(), ps.weights())
        # stack the two generating maps' numerator columns side by side to
        # get dim(A + B); scaling a column keeps the rank
        ent, off = {}, 0
        if k >= 1 and l >= 1:
            din = self.pair_d(k - 1, l - 1)
            ent, off = dict(din.entries), din.dom_dim
        ent.update(((r, off + c), v) for (r, c), v in proj.entries.items())
        stacked = SparseMap._from_ints(off + proj.dom_dim, dim, ent)
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
            "params": {"k": k, "l": l},
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

    def as_set(self):
        return {lam for lam, _ in self.eigenvalues}


def _match(spec_set, target, diag):
    if target is None:
        return None
    return diag and spec_set == set(target)


def verify_spectrum(blocks, total_dim, derived, stated, kind, params):
    """Spectrum of a block-diagonal operator, prediction-first.

    A block M is diagonalizable with spectrum inside the derived set exactly
    when the dimensions n - rank(M - lambda) over the set add up to n, since
    eigenspaces of distinct eigenvalues are independent; those dimensions are
    then the multiplicities.  Otherwise fall back to exact characteristic
    polynomials per block.  The actual spectrum is then compared against both
    candidate sets.
    """
    blocks = [b for b in blocks if b.dom_dim > 0]
    counts = None if derived is None else _eigenspace_dims(blocks, derived)
    diag, note = True, ""
    if counts is None:
        counts, diag, note = _block_spectra(blocks)
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
    )


def _eigenspace_dims(blocks, eigenvalues):
    """eigenvalue -> total eigenspace dimension over the blocks, or None as
    soon as one block is not diagonalizable with spectrum inside the set."""
    counts = dict.fromkeys(eigenvalues, 0)
    for b in blocks:
        n = b.dom_dim
        eye = SparseMap.identity(n)
        geo = {lam: n - b.add(eye, -lam).rank() for lam in eigenvalues}
        if sum(geo.values()) != n:
            return None
        for lam, g in geo.items():
            counts[lam] += g
    return {lam: g for lam, g in counts.items() if g}


def _block_spectra(blocks):
    """(eigenvalue -> algebraic multiplicity, diagonalizable, note) from exact
    characteristic polynomials, block by block."""
    counts = {}
    diag = True
    note = ""
    for b in blocks:
        try:
            spec = b.rational_spectrum()
        except SpectrumError as e:
            return {}, False, f"irrational or unfactorable block spectrum: {e}"
        diag = diag and spec.diagonalizable
        for lam, alg, geo in spec.pairs:
            counts[lam] = counts.get(lam, 0) + alg
            if alg != geo:
                note = "defective eigenvalue present"
    return counts, diag, note


# ---------------------------------------------------------------------------
# graded helpers over subspaces


def _restrict_blocked(mat, sub, weights):
    """Blocks of mat restricted to the graded subspace sub (square, graded)."""
    graded = split_graded(mat, weights, weights)
    return [graded[w][0].restrict(local, local)
            for w, (local, _) in split(sub, weights).items()]
