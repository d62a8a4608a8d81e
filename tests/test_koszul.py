"""Differentials, identities, exactness, spectra, and splittings.

Oracle routes: d and del are rebuilt at raw tensor level from the oracles'
to_tensor/project_tensor alone (no factor maps) and compared entrywise.
Numeric values marked below were frozen from that independent route.
"""

from fractions import Fraction
from itertools import product

import pytest

import oracles
from oracles import (
    calibration_ratio,
    commute_by_composition,
    contains,
    delpqd_table,
    dense,
    dense_lift,
    OTHER_PROP2_CELLS,
    kerp_incoming_image_on_the_spot,
    l_homology_dim,
    loop_spectrum_all_blocks,
    p_rank,
    project_tensor,
    splitting_summands,
    subspace_le,
    subspace_sum,
    to_tensor,
    unindex_word,
    xdanh_splitting,
    z_on_the_spot,
    z_splitting_on_w,
)
from superkoszul import glrep, koszul
from superkoszul.koszul import (
    KoszulContext,
    KoszulError,
    Spot,
    op_applicable,
    op_target,
    verify_spectrum,
    word_end,
)
from superkoszul.harness import VerificationPlan
from superkoszul.linalg import SparseMap, SpectrumError, Subspace
from superkoszul.glrep import GLAction
from superkoszul.superspace import (
    SuperSpace,
    g0_multiplicities,
    power_basis,
    weyl_dim,
)

F = Fraction


@pytest.fixture(scope="module")
def ctx31():
    return KoszulContext(SuperSpace(3, 1))


@pytest.fixture(scope="module")
def ctx21():
    return KoszulContext(SuperSpace(2, 1))


# ---------------------------------------------------------------------------
# oracle: junction maps built from raw tensors


def flat(word, d):
    out = 0
    for x in word:
        out = out * d + x
    return out


def oracle_pair_d(space, k, l):
    lam = power_basis(space, "alt", k)
    dual = power_basis(space, "sym", l, dual=True)
    lam2 = power_basis(space, "alt", k + 1)
    dual2 = power_basis(space, "sym", l + 1, dual=True)
    d = space.dim
    cols = {}
    for a in range(lam.dim):
        for b in range(dual.dim):
            col = {}
            for i in range(d):
                left = {}
                for widx, c in to_tensor(lam, {a: F(1)}).items():
                    w = unindex_word(lam, widx) + (i,)
                    left[flat(w, d)] = left.get(flat(w, d), F(0)) + c
                right = {}
                for widx, c in to_tensor(dual, {b: F(1)}).items():
                    w = (i,) + unindex_word(dual, widx)
                    right[flat(w, d)] = right.get(flat(w, d), F(0)) + c
                for ra, ca in project_tensor(lam2, left).items():
                    for rb, cb in project_tensor(dual2, right).items():
                        key = ra * dual2.dim + rb
                        col[key] = col.get(key, F(0)) + ca * cb
            cols[a * dual.dim + b] = {k2: v for k2, v in col.items() if v}
    return SparseMap.from_columns(lam.dim * dual.dim, lam2.dim * dual2.dim, cols)


def oracle_pair_del(space, k, l):
    lam = power_basis(space, "alt", k)
    dual = power_basis(space, "sym", l, dual=True)
    lam2 = power_basis(space, "alt", k - 1)
    dual2 = power_basis(space, "sym", l - 1, dual=True)
    d = space.dim
    cols = {}
    for a in range(lam.dim):
        for b in range(dual.dim):
            col = {}
            for wl, cl in to_tensor(lam, {a: F(1)}).items():
                word_l = unindex_word(lam, wl)
                for wr, cr in to_tensor(dual, {b: F(1)}).items():
                    word_r = unindex_word(dual, wr)
                    if word_l[-1] != word_r[0]:
                        continue
                    sgn = F(-1) if space.parity(word_l[-1]) else F(1)
                    lco = project_tensor(lam2, {flat(word_l[:-1], d): F(1)})
                    rco = project_tensor(dual2, {flat(word_r[1:], d): F(1)})
                    for ra, ca in lco.items():
                        for rb, cb in rco.items():
                            key = ra * dual2.dim + rb
                            col[key] = col.get(key, F(0)) + sgn * cl * cr * ca * cb
            cols[a * dual.dim + b] = {k2: v for k2, v in col.items() if v}
    return SparseMap.from_columns(lam.dim * dual.dim, lam2.dim * dual2.dim, cols)


@pytest.mark.parametrize("k,l", [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2)])
def test_pair_d_matches_tensor_oracle_21(ctx21, k, l):
    assert ctx21.pair_d(k, l) == oracle_pair_d(ctx21.space, k, l)


@pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_pair_del_matches_tensor_oracle_21(ctx21, k, l):
    assert ctx21.pair_del(k, l) == oracle_pair_del(ctx21.space, k, l)


@pytest.mark.parametrize("k,l", [(0, 0), (1, 1), (2, 1)])
def test_pair_d_matches_tensor_oracle_31(ctx31, k, l):
    assert ctx31.pair_d(k, l) == oracle_pair_d(ctx31.space, k, l)


@pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 2)])
def test_pair_del_matches_tensor_oracle_31(ctx31, k, l):
    assert ctx31.pair_del(k, l) == oracle_pair_del(ctx31.space, k, l)


# ---------------------------------------------------------------------------
# squares vanish


@pytest.mark.parametrize("k,l", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2)])
def test_d_squared_zero(ctx31, k, l):
    assert ctx31.d_squared_is_zero(k, l)


@pytest.mark.parametrize("k,l", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_del_squared_zero(ctx31, k, l):
    assert (ctx31.pair_del(k - 1, l - 1) @ ctx31.pair_del(k, l)).is_zero()


@pytest.mark.parametrize("p,r", [(2, 0), (2, 1), (3, 0), (3, 1), (2, 2)])
def test_p_squared_zero(ctx31, p, r):
    assert ctx31.p_squared_is_zero(p, r)


@pytest.mark.parametrize("p,r", [(0, 2), (1, 2), (0, 3), (1, 3), (2, 2)])
def test_q_squared_zero(ctx31, p, r):
    assert (ctx31.pair_q(p + 1, r - 1) @ ctx31.pair_q(p, r)).is_zero()


# ---------------------------------------------------------------------------
# the two scalar identities


@pytest.mark.parametrize("k", range(0, 4))
@pytest.mark.parametrize("l", range(0, 4))
def test_d_del_identity_31(ctx31, k, l):
    rep = ctx31.d_del_identity(k, l)
    assert rep["ok"]
    assert rep["scalar"] == F(l - k + 2)


@pytest.mark.parametrize("k", range(0, 3))
@pytest.mark.parametrize("l", range(0, 3))
def test_d_del_identity_21(ctx21, k, l):
    rep = ctx21.d_del_identity(k, l)
    assert rep["ok"]
    assert rep["scalar"] == F(l - k + 1)


def test_super_dimension_seen_by_contraction(ctx31, ctx21):
    # del(d(1)) counts m - n, not m + n: the single odd letter cancels one
    # even letter
    assert ctx31.pair_del(1, 1) @ ctx31.pair_d(0, 0) == SparseMap.from_columns(
        1, 1, {0: {0: F(2)}}
    )
    assert calibration_ratio(ctx31) == 1
    assert calibration_ratio(ctx21) == 1


@pytest.mark.parametrize("p", range(0, 4))
@pytest.mark.parametrize("r", range(0, 4))
def test_p_q_identity_31(ctx31, p, r):
    rep = ctx31.p_q_identity(p, r)
    assert rep["ok"]
    assert rep["scalar"] == F(p + r)


@pytest.mark.parametrize("p,r", [(1, 1), (2, 1), (0, 2)])
def test_p_q_identity_21(ctx21, p, r):
    assert ctx21.p_q_identity(p, r)["ok"]


# ---------------------------------------------------------------------------
# commutation of the insertion and transfer directions


@pytest.mark.parametrize(
    "spot",
    [Spot(1, 1, 2), Spot(1, 2, 1), Spot(2, 1, 1), Spot(1, 1, 1), Spot(2, 2, 2)],
)
def test_d_p_commute(ctx31, spot):
    rep = ctx31.commute_check("dP", spot)
    assert rep is not None and rep["ok"]


@pytest.mark.parametrize("spot", [Spot(1, 2, 1), Spot(2, 2, 1), Spot(1, 2, 2)])
def test_del_q_commute(ctx31, spot):
    rep = ctx31.commute_check("delQ", spot)
    assert rep is not None and rep["ok"]


def test_commute_skips_degenerate_routes(ctx31):
    # no P route without a symmetric letter; no del route without dual letters
    assert ctx31.commute_check("dP", Spot(0, 1, 1)) is None
    assert ctx31.commute_check("delQ", Spot(1, 1, 1)) is None


def _default_grid():
    plan = VerificationPlan()
    for i, k, l in product(range(plan.max_i + 1), range(plan.max_k + 1),
                           range(plan.max_l + 1)):
        yield Spot(i, k, l)


@pytest.mark.parametrize("m,n", [(3, 1), (2, 2), (4, 1)])
def test_commute_check_matches_composition_oracle(m, n):
    # the oracle gets a fresh context per spot: sharing one would keep every
    # triple-spot operator of the grid alive at once (about 770 MB on (4|1))
    space = SuperSpace(m, n)
    ctx = KoszulContext(space)
    for spot in _default_grid():
        for which in ("dP", "delQ"):
            got = ctx.commute_check(which, spot)
            want = commute_by_composition(KoszulContext(space), which, spot)
            if want is None:
                assert got is None, (which, spot)
            else:
                assert got is not None, (which, spot)
                got = {key: got[key] for key in ("ok", "dim")}
                assert got == {key: want[key] for key in ("ok", "dim")}, (
                    which, spot)


def test_default_grid_squares_are_certified_by_factor_identity():
    ctx = KoszulContext(SuperSpace(3, 1))
    defined = 0
    for spot in _default_grid():
        for which in ("dP", "delQ"):
            rep = ctx.commute_check(which, spot)
            if rep is not None:
                defined += 1
                assert rep["ok"] and rep["failing_letter_pairs"] == [], (
                    which, spot)
    assert defined > 0


class _PerturbedFactor:
    """A power basis whose factor map (op, letter) is change(map); a fresh
    map each call, so the shared basis and its memo stay untouched."""

    def __init__(self, basis, key, change):
        self._basis = basis
        self._key = key
        self._change = change

    def __getattr__(self, name):
        return getattr(self._basis, name)

    def factor_map(self, op, i):
        m = self._basis.factor_map(op, i)
        return self._change(m) if (op, i) == self._key else m


class _PerturbedContext(KoszulContext):
    """A context whose exterior bases of the given degrees perturb one
    factor map; operators, spots and certificates are its own."""

    def __init__(self, space, degrees, key, change):
        super().__init__(space)
        self._perturbed = (degrees, key, change)

    def alt_basis(self, degree):
        basis = super().alt_basis(degree)
        degrees, key, change = self._perturbed
        return _PerturbedFactor(basis, key, change) if degree in degrees else basis


def _negated_context(space, letter, degrees):
    """A context whose exterior bases of the given degrees negate one
    letter's prepend."""
    return _PerturbedContext(space, degrees, ("prepend", letter), lambda m: -1 * m)


def _small_grid():
    return [Spot(i, k, l) for i, k, l in product(range(3), repeat=3)]


@pytest.mark.parametrize("letter", [0, 3])
def test_negated_prepend_on_one_degree_falls_back_and_fails(letter):
    # the certificate decides alone: its verdict is the composed routes',
    # and a failure names the letter pairs whose middles differ
    space = SuperSpace(3, 1)
    shared = power_basis(space, "alt", 1).factor_map("prepend", letter)
    before = dict(shared.entries)
    ctx = _negated_context(space, letter, {1})
    failed = []
    for spot in _small_grid():
        for which in ("dP", "delQ"):
            rep = ctx.commute_check(which, spot)
            want = commute_by_composition(ctx, which, spot)
            if rep is None:
                assert want is None
                continue
            assert rep["ok"] == want["ok"] and rep["dim"] == want["dim"]
            assert rep["ok"] == (rep["failing_letter_pairs"] == [])
            if not rep["ok"]:
                failed.append((which, spot.alt))
                # every pair has P's letter y = the negated one; d's letter
                # x is every letter that append_x . prepend_y keeps
                pairs = rep["failing_letter_pairs"]
                assert {y for _, y in pairs} == {letter}, pairs
                assert [x for x, _ in pairs] == [
                    x for x in range(space.dim)
                    if x != letter or space.parity(letter)]
    # P's prepend on Lambda_1 sits in a dP route at exterior degree 0 and 1
    # only; delQ never prepends on the exterior factor
    assert failed and {w for w, _ in failed} == {"dP"}
    assert {alt for _, alt in failed} == {0, 1}
    # nothing leaked into the shared bases
    assert power_basis(space, "alt", 1).factor_map("prepend", letter) is shared
    assert shared.entries == before
    rep = KoszulContext(space).commute_check("dP", Spot(1, 1, 1))
    assert rep["ok"] and rep["failing_letter_pairs"] == []


@pytest.mark.parametrize("letter", [0, 3])
def test_negated_prepend_on_every_degree_is_still_certified(letter):
    # the same sign at every degree scales the letter's terms by -1 on both
    # routes, so the squares still commute and the identity still holds;
    # only a sign that differs between degrees defeats it
    ctx = _negated_context(SuperSpace(3, 1), letter, range(8))
    for spot in _small_grid():
        for which in ("dP", "delQ"):
            rep = ctx.commute_check(which, spot)
            want = commute_by_composition(ctx, which, spot)
            if rep is None:
                assert want is None
                continue
            assert rep["ok"] and rep["failing_letter_pairs"] == [], (
                which, spot)
            assert want["ok"]


def _first_entry_times(factor):
    """A change of a map that multiplies its first entry by factor."""
    def change(m):
        ent = dict(m.entries)
        ent[min(ent)] *= factor
        return SparseMap._from_ints(m.dom_dim, m.cod_dim, ent, m.den)
    return change


@pytest.mark.parametrize("m,n", [(3, 1), (1, 2)])
def test_the_commute_certificate_is_exact_under_factor_perturbations(m, n):
    # one entry of one exterior factor map negated or doubled, for every op,
    # letter and degree <= 3: at every spot where both routes are defined,
    # the certificate's verdict is that of composing both routes
    space = SuperSpace(m, n)
    spots = [Spot(i, k, l) for i in range(3) for k in range(4)
             for l in range(2)]
    compared = broken = 0
    for degree, op, letter, factor in product(
            range(4), ("append", "prepend", "drop_last", "drop_first"),
            range(space.dim), (-1, 2)):
        if not power_basis(space, "alt", degree).factor_map(op, letter).entries:
            continue
        ctx = _PerturbedContext(space, {degree}, (op, letter),
                                _first_entry_times(factor))
        for spot in spots:
            for which in ("dP", "delQ"):
                rep = ctx.commute_check(which, spot)
                if rep is None:
                    continue
                want = commute_by_composition(ctx, which, spot)
                assert rep["ok"] == want["ok"], (degree, op, letter, factor,
                                                 which, spot)
                compared += 1
                broken += not rep["ok"]
    assert broken > 0 and compared > broken


# ---------------------------------------------------------------------------
# frozen ranks  [DERIVED: independent dense route]


@pytest.mark.parametrize(
    "k,l,rank",
    [(0, 1, 4), (1, 1, 15), (2, 2, 48), (1, 2, 32), (2, 3, 80), (3, 1, 24),
     (2, 0, 7), (1, 3, 55)],
)
def test_d_ranks_31(ctx31, k, l, rank):
    assert ctx31.d_rank(k, l) == rank


def test_d01_injective(ctx31):
    assert ctx31.pair_d(0, 1).kernel().dim == 0


@pytest.mark.parametrize(
    "p,r,rank,ker",
    [(1, 0, 4, 0), (1, 1, 7, 9), (2, 0, 9, 0), (2, 1, 20, 16), (1, 2, 8, 20)],
)
def test_p_ranks_31(ctx31, p, r, rank, ker):
    m = ctx31.pair_p(p, r)
    assert p_rank(ctx31, p, r) == rank
    assert m.dom_dim - rank == ker


# ---------------------------------------------------------------------------
# exactness of the insertion and transfer complexes


def test_k_complexes_exact_except_offset_two(ctx31):
    for a in range(-2, 5):
        for k in range(0, 6):
            if k - a < 0:
                continue
            h = ctx31.k_homology_dim(a, k)
            if (a, k) == (2, 3):
                assert h == 1
            else:
                assert h == 0, (a, k, h)


def test_homology_class_is_berezinian_like(ctx31):
    # one-dimensional, concentrated at weight (1,1,1,-1), odd
    h, ker, im = ctx31.k_homology(2, 3)
    assert h == 1
    rep = ker.complement_of(im)
    assert rep.dim == 1
    ps = ctx31.pair_space(3, 1)
    idxs = set(rep.vectors[0])
    assert {ps.weights()[i] for i in idxs} == {(1, 1, 1, -1)}
    assert {ps.parities()[i] for i in idxs} == {1}


def test_k_complexes_21(ctx21):
    # homology moves to offset m-n = 1, at the top exterior degree
    for a in range(-1, 3):
        for k in range(0, 5):
            if k - a < 0:
                continue
            h = ctx21.k_homology_dim(a, k)
            assert h == (1 if (a, k) == (1, 2) else 0), (a, k, h)


def test_k_homology_rejects_an_image_outside_the_kernel():
    class Broken(KoszulContext):
        def pair_d(self, k, l):
            if (k, l) == (0, 0):
                # the weight-zero unit x_0 (x) xi^0 instead of the invariant
                return SparseMap(1, 16, {(0, 0): 1})
            return super().pair_d(k, l)

    with pytest.raises(KoszulError) as exc:
        Broken(SuperSpace(3, 1)).k_homology(0, 1)
    assert exc.value.witness["vector"] == {0: 1}


def test_k_homology_names_the_first_image_vector_outside_the_kernel(monkeypatch):
    # Ker d_(3,1) without its third basis vector still holds the first
    # vector of Im d_(2,0), but not the second: the certified read stops
    # at the second and names it
    ctx = KoszulContext(SuperSpace(3, 1))
    whole = koszul.blocked_kernel

    def smaller(*args):
        ker = whole(*args)
        return Subspace(ker.ambient_dim, ker.nums[:2] + ker.nums[3:],
                        ker.pivots[:2] + ker.pivots[3:], ker.den)

    monkeypatch.setattr(koszul, "blocked_kernel", smaller)
    im = ctx.d_image(2, 0)
    ker = smaller(ctx.pair_d(3, 1), ctx.pair_space(3, 1).weights(),
                  ctx.pair_space(4, 2).weights())
    assert [j for j, v in enumerate(im.vectors) if not contains(ker, v)][0] == 1
    with pytest.raises(KoszulError, match="image of the incoming d is not "
                       "inside the kernel") as exc:
        ctx.k_homology(2, 3)
    assert exc.value.witness == {"a": 2, "k": 3, "vector": im.vectors[1]}


def test_l_complexes_exact_except_constants(ctx31):
    for a in range(0, 5):
        for p in range(0, a + 1):
            h = l_homology_dim(ctx31, a, p)
            assert h == (1 if (a, p) == (0, 0) else 0), (a, p, h)


def test_k_homology_dim_rejects_ranks_above_the_dimension(monkeypatch):
    # Lambda_1 (x) S*_1 has dimension 16: ranks 16 out and 1 in overshoot
    ctx = KoszulContext(SuperSpace(3, 1))
    monkeypatch.setattr(ctx, "d_rank", lambda k, l: 16 if (k, l) == (1, 1) else 1)
    with pytest.raises(KoszulError) as exc:
        ctx.k_homology_dim(0, 1)
    assert exc.value.witness == {"a": 0, "k": 1, "dim": 16, "rank_out": 16,
                                 "rank_in": 1}


def test_l_homology_dim_rejects_ranks_above_the_dimension(monkeypatch):
    # S_1 (x) Lambda_1 has dimension 16
    ctx = KoszulContext(SuperSpace(3, 1))
    monkeypatch.setattr(
        oracles, "p_rank", lambda c, p, r: 16 if (p, r) == (1, 1) else 1)
    with pytest.raises(KoszulError) as exc:
        l_homology_dim(ctx, 2, 1)
    assert exc.value.witness == {"a": 2, "p": 1, "dim": 16, "rank_out": 16,
                                 "rank_in": 1}


# ---------------------------------------------------------------------------
# kernels of the transfer map, and which differentials restrict to them


def test_kerp_dims(ctx31):
    assert ctx31.kerp_space(Spot(1, 1, 1)).dim == 36  # 9 * 4
    assert ctx31.kerp_space(Spot(0, 2, 1)).dim == 28  # everything
    assert ctx31.kerp_space(Spot(2, 0, 1)).dim == 0  # P injective on S_2


def test_kerp_equals_incoming_transfer_image(ctx31):
    for spot in [Spot(1, 1, 1), Spot(0, 2, 1), Spot(1, 2, 1), Spot(0, 1, 2)]:
        rep = ctx31.kerp_is_incoming_image(spot)
        assert rep["ok"], rep


@pytest.mark.parametrize("mn", [(3, 1), (2, 1), (2, 2)])
def test_kerp_is_incoming_image_is_decided_at_the_line_spot(monkeypatch, mn):
    # at every spot the splittings group checks (cap 2), the line-spot
    # verdict and dimensions equal those of the whole spot, and P is only
    # ever built at a line spot (dual = 0)
    ctx = KoszulContext(SuperSpace(*mn))
    built = []
    operator = KoszulContext.operator

    def recorded(self, name, spot):
        built.append((name, spot))
        return operator(self, name, spot)

    spots = [Spot(*s) for s in product(range(3), repeat=3) if s[1] >= 1]
    monkeypatch.setattr(KoszulContext, "operator", recorded)
    reports = [ctx.kerp_is_incoming_image(spot) for spot in spots]
    monkeypatch.undo()
    assert built and all(spot.dual == 0 for name, spot in built if name == "P")
    other = KoszulContext(SuperSpace(*mn))
    for spot, rep in zip(spots, reports):
        assert rep == kerp_incoming_image_on_the_spot(other, spot), spot


def test_kerp_space_rejects_a_kernel_basis_with_repeated_pivots(monkeypatch):
    def doubled(mat, dom_w, cod_w):
        v = {0: Fraction(1)}
        return Subspace(mat.dom_dim, [v, dict(v)], [0, 0])

    monkeypatch.setattr(koszul, "blocked_kernel", doubled)
    with pytest.raises(KoszulError) as exc:
        KoszulContext(SuperSpace(3, 1)).kerp_space(Spot(1, 1, 1))
    assert exc.value.witness["pivots"][:2] == [0, 0]


def test_d_restricts_to_kerp(ctx31):
    for spot in [Spot(1, 1, 1), Spot(1, 2, 1), Spot(2, 1, 1)]:
        assert ctx31.d_restricts_to_kerp(spot)["ok"]


def test_del_does_not_restrict_to_kerp(ctx31):
    spot = Spot(1, 1, 1)
    rep = ctx31.del_restricts_to_kerp(spot)
    assert not rep["ok"]
    w = rep["witness"]
    # the witness really lives in the kernel upstairs and escapes downstairs
    sub = ctx31.kerp_space(spot)
    target = ctx31.kerp_space(op_target("del", spot))
    assert contains(sub, w["vector"])
    assert not contains(target, w["image"])
    assert ctx31.operator("del", spot).apply(w["vector"]) == w["image"]


# ---------------------------------------------------------------------------
# loop spectra  [DERIVED values; stated closed form tracked separately]


DELPQD_31 = {
    (0, 1): {F(3, 2): 4},
    (0, 2): {F(4, 3): 9},
    (0, 3): {F(5, 4): 16},
    (1, 1): {F(5, 6): 32, F(4, 3): 4},
    (1, 2): {F(3, 4): 55, F(5, 4): 9},
    (1, 3): {F(7, 10): 84, F(6, 5): 16},
    (2, 1): {F(7, 12): 108, F(1): 32, F(5, 4): 4},
    (2, 2): {F(8, 15): 161, F(14, 15): 55, F(6, 5): 9},
    (2, 3): {F(1, 2): 224, F(8, 9): 84, F(7, 6): 16},
    (3, 1): {F(9, 20): 256, F(4, 5): 108, F(21, 20): 32, F(6, 5): 4},
    (3, 2): {F(5, 12): 351, F(3, 4): 161, F(1): 55, F(7, 6): 9},
    (3, 3): {F(11, 28): 460, F(5, 7): 224, F(27, 28): 84, F(8, 7): 16},
}


@pytest.mark.parametrize("i,a", sorted(DELPQD_31))
def test_delpqd_spectra(ctx31, i, a):
    rep = ctx31.loop_spectrum("delPQd", (i, a))
    assert rep.diagonalizable and rep.invertible
    assert dict(rep.eigenvalues) == DELPQD_31[(i, a)]
    assert rep.matches_derived
    # multiplicities follow the ladder dimension drops
    assert dict(rep.eigenvalues) == {
        lam: m for _, lam, m in delpqd_table(ctx31, i, a)
    }
    # the stated closed form agrees only at i = 0: its numerator reads
    # a+i+3-j where the identities force a+2i+3-j
    assert rep.matches_stated is (i == 0)


def test_delpqd_stated_vs_derived_sets(ctx31):
    _, _, derived, stated, _ = ctx31.loop_setup("delPQd", (1, 1))
    assert stated == frozenset({F(2, 3), F(1)})
    assert derived == frozenset({F(5, 6), F(4, 3)})


PDELDQ_31 = {
    (0, 1, 1): (112, {F(5, 16): 32, F(1, 2): 80}),
    (1, 1, 1): (500, {F(7, 40): 108, F(3, 10): 32, F(3, 8): 360}),
    (0, 2, 1): (200, {F(2, 15): 80, F(4, 15): 120}),
    (0, 1, 2): (175, {F(3, 10): 55, F(1, 2): 120}),
    (1, 2, 2): (1176, {F(1, 14): 384, F(8, 63): 120, F(4, 21): 672}),
}


@pytest.mark.parametrize("i,k,a", sorted(PDELDQ_31))
def test_pdeldq_spectra(ctx31, i, k, a):
    dim, eig = PDELDQ_31[(i, k, a)]
    rep = ctx31.loop_spectrum("PdeldQ", (i, k, a))
    assert rep.dim == dim
    assert rep.diagonalizable and rep.invertible
    assert dict(rep.eigenvalues) == eig
    assert rep.matches_derived and rep.matches_stated


@pytest.mark.parametrize("cell", [(2, 2, 1), (2, 1, 2), (2, 2, 2)])
def test_pdeldq_cells_above_the_default_cap(ctx31, cell):
    # the default dim_cap of verify skips these three cells (spot
    # dimension up to 4608); run on their own they pass the same gate
    _, spot, _, _, _ = ctx31.loop_setup("PdeldQ", cell)
    assert ctx31.spot_space(spot).dim > VerificationPlan().dim_cap
    rep = ctx31.loop_spectrum("PdeldQ", cell)
    assert rep.diagonalizable and rep.invertible and rep.matches_stated
    assert sum(m for _, m in rep.eigenvalues) == rep.dim


def test_loop_spectrum_without_prediction(ctx21):
    # off (3|1) no set is claimed; the (m|n) formula's candidates still
    # fill every block, so the exact spectrum is certified
    assert ctx21.loop_setup("delPQd", (1, 1))[4] == frozenset({F(2, 3), F(1)})
    rep = ctx21.loop_spectrum("delPQd", (1, 1))
    assert rep.derived is None and rep.stated is None
    assert rep.diagonalizable
    assert dict(rep.eigenvalues) == {F(2, 3): 12, F(1): 3}
    rep0 = ctx21.loop_spectrum("delPQd", (0, 2))
    assert dict(rep0.eigenvalues) == {F(1): 5}


def test_verify_spectrum_fallback_detects_bad_prediction():
    # the eigenvalue 2 is not a candidate: nothing falls back, and the
    # error names the block's dimension and how much the candidates fill
    m = SparseMap.from_columns(2, 2, {0: {0: F(1)}, 1: {1: F(2)}})
    with pytest.raises(SpectrumError,
                       match="fill 1 of a block of dimension 2") as exc:
        verify_spectrum([m], 2, frozenset({F(1)}), frozenset({F(1)}), "x", ())
    assert exc.value.witness == {"dim": 2, "filled": 1}
    # a Jordan block at 2 beside the line at 1 is filled only by its
    # generalised nullity
    j = SparseMap.from_columns(3, 3, {0: {0: F(1)}, 1: {1: F(2)},
                                      2: {1: F(1), 2: F(2)}})
    with pytest.raises(SpectrumError) as exc:
        verify_spectrum([j], 3, frozenset({F(1), F(3)}), None, "x", ())
    assert exc.value.witness == {"dim": 3, "filled": 1}
    rep = verify_spectrum([j], 3, frozenset({F(1), F(2)}), None, "x", ())
    assert dict(rep.eigenvalues) == {F(1): 1, F(2): 2}
    assert not rep.diagonalizable and rep.note == "defective eigenvalue present"


def test_verify_spectrum_jordan_block_inside_prediction():
    # eigenvalue 2 is predicted, but its eigenspace is a line in the plane
    m = SparseMap.from_columns(2, 2, {0: {0: F(2)}, 1: {0: F(1), 1: F(2)}})
    for derived in (frozenset({F(2)}), frozenset({F(2), F(3)})):
        rep = verify_spectrum([m], 2, derived, derived, "x", ())
        assert not rep.diagonalizable
        assert not rep.matches_derived and not rep.matches_stated
        assert dict(rep.eigenvalues) == {F(2): 2}
        assert rep.note == "defective eigenvalue present"


# ---------------------------------------------------------------------------
# loop spectra on the gl(m) + gl(n)-singular vectors


def _report_key(rep):
    return (rep.dim, rep.eigenvalues, rep.diagonalizable, rep.invertible,
            rep.matches_derived, rep.matches_stated, rep.note)


def _default_spectra_cells(ctx):
    """The loops the spectra group of the default plan runs on (3|1)."""
    plan = VerificationPlan()
    cells = [("delPQd", (i, a)) for i in range(plan.max_i + 1)
             for a in range(1, plan.max_a + 1)]
    for i, k, a in product(range(3), range(1, 3), range(1, 3)):
        _, spot, _, _, _ = ctx.loop_setup("PdeldQ", (i, k, a))
        if ctx.spot_space(spot).dim <= plan.dim_cap:
            cells.append(("PdeldQ", (i, k, a)))
    return cells


@pytest.fixture(scope="module")
def default_spectra(ctx31):
    """cell -> (report on the singular vectors, all-blocks report) on every
    default (3|1) loop."""
    return {cell: (ctx31.loop_spectrum(*cell),
                   loop_spectrum_all_blocks(ctx31, *cell))
            for cell in _default_spectra_cells(ctx31)}


# oracles.loop_report_digest over oracles.PINNED_LOOP_CELLS (135 cells on
# seven alphabets), recorded at commit ce62b56
PINNED_LOOP_DIGEST = (
    "0206311533ccb424447beaa197e286afce03fb733592f3796ea933a7e3246de7")


def test_pinned_loop_reports_are_unchanged():
    cells = oracles.PINNED_LOOP_CELLS
    assert len(cells) == 135
    contexts = {mn: KoszulContext(SuperSpace(*mn)) for mn, _, _ in cells}
    assert oracles.loop_report_digest(contexts, cells) == PINNED_LOOP_DIGEST


def test_orbit_reduced_spectra_equal_all_blocks_on_the_default_plan(
        default_spectra):
    assert len(default_spectra) == 21
    for cell, (reduced, full) in default_spectra.items():
        assert _report_key(reduced) == _report_key(full), cell


def test_every_default_loop_is_orbit_reduced(default_spectra):
    # every default loop passes the gl0 certificate: its blocks are the
    # singular blocks, fewer than the weight blocks the oracle eliminates,
    # and each stands for weyl_dim copies
    for cell, (reduced, full) in default_spectra.items():
        assert full.blocks_by_symmetry == 0, cell
        assert reduced.blocks_by_symmetry > 0, cell
        assert reduced.blocks_eliminated < full.blocks_eliminated, cell


def _loop_weights(ctx, kind, params):
    """The weights of the basis vectors of the loop's space V."""
    spot, sub = oracles.loop_space(ctx, kind, params)
    weights = ctx.spot_space(spot).weights()
    return [weights[p] for p in sub.pivots]


def _singular_fill(ctx, kind, params):
    """(sorted (size, dimension) of the loop's blocks, the same pairs
    (weyl_dim(mu), multiplicity of L0(mu)) from the g0 character of the
    loop's space, its dimension)."""
    word, spot, _, _, _ = ctx.loop_setup(kind, params)
    blocks, sizes, total = ctx.loop_blocks(kind, word, spot)
    weights = _loop_weights(ctx, kind, params)
    mults = g0_multiplicities(weights, ctx.space.m)
    got = sorted((s, b.dom_dim) for b, s in zip(blocks, sizes))
    want = sorted((weyl_dim(mu, ctx.space.m), k) for mu, k in mults.items()
                  if k)
    return got, want, total, len(weights)


def test_singular_blocks_fill_every_default_loop(ctx31):
    cells = _default_spectra_cells(ctx31)
    assert len(cells) == 21
    for cell in cells:
        got, want, total, dim = _singular_fill(ctx31, *cell)
        assert total == dim == sum(s * n for s, n in got), cell
        assert got == want, cell


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (1, 2), (4, 1)])
def test_singular_blocks_fill_loops_on_other_alphabets(m, n):
    ctx = KoszulContext(SuperSpace(m, n))
    for kind, params in [("delPQd", (1, 1)), ("PdeldQ", (0, 1, 1)),
                         ("PdeldQ", (1, 1, 0))]:
        got, want, total, dim = _singular_fill(ctx, kind, params)
        assert total == dim == sum(s * n for s, n in got), (kind, params)
        assert got == want, (kind, params)


def test_a_short_fill_is_refused(monkeypatch):
    monkeypatch.setattr(koszul, "weyl_dim", lambda w, m: 1)
    ctx = KoszulContext(SuperSpace(3, 1))
    word, spot, _, _, _ = ctx.loop_setup("delPQd", (1, 1))
    with pytest.raises(KoszulError, match="fill") as exc:
        ctx.loop_blocks("delPQd", word, spot)
    w = exc.value.witness
    assert w["dim"] == ctx.spot_space(spot).dim > w["filled"]
    assert sum(k for k, _ in w["blocks"].values()) == w["filled"]


def test_the_g0_count_is_the_singular_dimension_on_the_pinned_cells():
    # at every even-dominant weight of each pinned loop's space, the count
    # from the weight multiset equals dim U_mu, found by searching all of
    # the space's basis vectors of that weight
    contexts = {}
    for mn, kind, params in oracles.PINNED_LOOP_CELLS:
        ctx = contexts.setdefault(mn, KoszulContext(SuperSpace(*mn)))
        counted = g0_multiplicities(_loop_weights(ctx, kind, params), mn[0])
        assert counted == oracles.singular_dims_by_search(
            ctx, kind, params), (mn, kind, params)
    assert len(contexts) == 7


def test_a_count_that_drops_a_summand_fails_the_fill_check(monkeypatch):
    # the count only says where to look: a weight it wrongly skips leaves
    # its weyl_dim(mu) * n_mu dimensions unfilled, and the fill check
    # refuses the loop
    count = koszul.g0_multiplicities
    dropped = []

    def drop_one(weights, m):
        out = count(weights, m)
        mu = next(mu for mu, k in out.items() if k > 0)
        dropped.append(weyl_dim(mu, m) * out.pop(mu))
        return out

    monkeypatch.setattr(koszul, "g0_multiplicities", drop_one)
    ctx = KoszulContext(SuperSpace(3, 1))
    word, spot, _, _, _ = ctx.loop_setup("delPQd", (1, 1))
    with pytest.raises(KoszulError, match="fill") as exc:
        ctx.loop_blocks("delPQd", word, spot)
    w = exc.value.witness
    assert w["dim"] == ctx.spot_space(spot).dim
    assert w["filled"] == w["dim"] - dropped[0] < w["dim"]


def test_the_default_loops_search_only_where_the_count_is_positive(
        monkeypatch):
    # the 21 default cells hold 1,989 basis vectors at even-dominant
    # weights; 914 of them sit at weights the g0 character counts
    searched = []
    singular = KoszulContext._singular_coordinates

    def counted(self, act, spot, columns):
        searched.append(sum(map(len, columns.values())))
        return singular(self, act, spot, columns)

    monkeypatch.setattr(KoszulContext, "_singular_coordinates", counted)
    ctx = KoszulContext(SuperSpace(3, 1))
    cells = _default_spectra_cells(ctx)
    for cell in cells:
        ctx.loop_spectrum(*cell)
    assert len(cells) == len(searched) == 21
    assert sum(searched) == 914


SMALL_LOOPS = {
    (2, 1): [("delPQd", (1, 1)), ("delPQd", (0, 2)),
             ("PdeldQ", (0, 1, 1)), ("PdeldQ", (1, 1, 0))],
    (2, 2): [("delPQd", (1, 1)), ("PdeldQ", (0, 1, 1))],
    (4, 1): [("delPQd", (1, 1)), ("PdeldQ", (0, 1, 0))],
}


@pytest.mark.parametrize("m,n", sorted(SMALL_LOOPS))
def test_orbit_reduced_char_poly_fallback_equals_all_blocks(m, n):
    # no prediction off (3|1): the multiplicities are nullities over the
    # (m|n) formula's candidates, scaled by weyl_dim
    ctx = KoszulContext(SuperSpace(m, n))
    for kind, params in SMALL_LOOPS[(m, n)]:
        reduced = ctx.loop_spectrum(kind, params)
        assert reduced.derived is None and reduced.blocks_by_symmetry > 0
        full = loop_spectrum_all_blocks(ctx, kind, params)
        assert _report_key(reduced) == _report_key(full), (kind, params)


@pytest.mark.parametrize("m,n", [(2, 2), (1, 2)])
def test_restricted_loop_blocks_are_read_over_the_whole_kernel_den(m, n):
    # here the Ker(P (x) id) basis of some weight has a smaller den on its
    # own than the whole kernel; the word is applied to the kernel's own
    # vectors, so each block is still read over the kernel's den
    ctx = KoszulContext(SuperSpace(m, n))
    for params in [(1, 1, 0), (1, 2, -1)]:
        word, spot, _, _, _ = ctx.loop_setup("PdeldQ", params)
        sub = ctx.kerp_space(spot)
        weights = ctx.spot_space(spot).weights()
        assert any(part.den < sub.den
                   for part, _ in oracles.split(sub, weights).values())
        reduced = ctx.loop_spectrum("PdeldQ", params)
        full = loop_spectrum_all_blocks(ctx, "PdeldQ", params)
        assert _report_key(reduced) == _report_key(full), params


@pytest.mark.parametrize("m,n,kind,params", [
    (3, 1, "PdeldQ", (0, 1, 1)),  # E_01 on Lambda_2, which d and del touch
    (2, 2, "delPQd", (1, 1)),  # E_23, of two odd letters, on S_1
])
def test_relabelling_without_its_sign_falls_back_to_all_blocks(
        monkeypatch, m, n, kind, params):
    # one entry of an even raising generator on one power basis negated:
    # the certificate fails, nothing falls back, and the error names the
    # generator at each operator it fails
    key, basis_key = {(3, 1): ((0, 1), ("alt", 2)),
                      (2, 2): ((2, 3), ("sym", 1))}[(m, n)]
    on_basis = GLAction.on_basis

    def negated(act, basis, gi, gj):
        mat = on_basis(act, basis, gi, gj)
        if (gi, gj) != key or (basis.kind, basis.degree) != basis_key:
            return mat
        ent = dict(mat.entries)
        first = min(ent)
        ent[first] = -ent[first]
        return SparseMap._from_ints(mat.dom_dim, mat.cod_dim, ent, mat.den)

    monkeypatch.setattr(GLAction, "on_basis", negated)
    ctx = KoszulContext(SuperSpace(m, n))
    with pytest.raises(KoszulError, match="gl0 certificate") as exc:
        ctx.loop_spectrum(kind, params)
    w = exc.value.witness
    word, spot, _, _, _ = ctx.loop_setup(kind, params)
    assert w["spot"] == repr(spot) and w["failing"]
    for fail in w["failing"]:
        assert fail["generators"] == [list(key)], fail
        assert fail["operator"] in word


def _negated_entry(ctx, name, line):
    """The named map at the line spot with its first entry negated."""
    op = ctx.operator(name, line)
    ent = dict(op.entries)
    first = min(ent)
    ent[first] = -ent[first]
    return SparseMap._from_ints(op.dom_dim, op.cod_dim, ent, op.den)


@pytest.mark.parametrize("kind,params,name,line", [
    ("delPQd", (1, 1), "Q", Spot(1, 1, 0)),
    ("PdeldQ", (0, 1, 1), "del", Spot(0, 2, 4)),
])
def test_one_operator_off_the_relabelling_takes_every_column(
        monkeypatch, kind, params, name, line):
    # one operator of the word with one entry negated fails the gl0
    # certificate at its line spot; the error names that operator and line
    # spot alone, with the generators the certificate found
    ctx = KoszulContext(SuperSpace(3, 1))
    monkeypatch.setitem(ctx._operators, (name, line),
                        _negated_entry(ctx, name, line))
    with pytest.raises(KoszulError, match="gl0 certificate") as exc:
        ctx.loop_spectrum(kind, params)
    (fail,) = exc.value.witness["failing"]
    assert (fail["operator"], fail["line_spot"]) == (name, repr(line))
    assert fail["generators"] == [
        list(g) for g in ctx._certificates[(name, line)]] != []


def test_each_line_spot_is_certified_once_on_the_default_plan(monkeypatch):
    # (name, spot) of each equivariance check the spectra make
    calls = []
    check = glrep.check_equivariance

    def counted(ctx, act, name, spot, even=False):
        calls.append((name, spot, even))
        return check(ctx, act, name, spot, even)

    monkeypatch.setattr(glrep, "check_equivariance", counted)
    ctx = KoszulContext(SuperSpace(3, 1))
    cells = _default_spectra_cells(ctx)
    for cell in cells:
        ctx.loop_spectrum(*cell)
    assert len(cells) == 21 and calls
    assert len(calls) == len(set(calls))
    assert all(even and 0 in (spot.sym, spot.dual)
               for _, spot, even in calls)


def _weight_crossing_entry(ctx, monkeypatch, name, line):
    """Add to the named map at the line spot an entry that takes column 0
    out of its weight; returns the two weights it joins."""
    op = ctx.operator(name, line)
    dom_w = ctx.spot_space(line).weights()
    cod_w = ctx.spot_space(op_target(name, line)).weights()
    r = next(r for r in range(op.cod_dim) if cod_w[r] != dom_w[0])
    ent = dict(op.entries)
    ent[(r, 0)] = op.den
    monkeypatch.setitem(ctx._operators, (name, line),
                        SparseMap._from_ints(op.dom_dim, op.cod_dim, ent, op.den))
    return dom_w[0], cod_w[r]


def test_a_loop_entry_joining_two_weights_is_refused(monkeypatch):
    # the certificate's Cartan leg sees the entry before the word is applied
    ctx = KoszulContext(SuperSpace(3, 1))
    line = Spot(0, 0, 1)
    came, went = _weight_crossing_entry(ctx, monkeypatch, "d", line)
    with pytest.raises(KoszulError, match="gl0 certificate") as exc:
        ctx.loop_spectrum("delPQd", (0, 1))
    (fail,) = exc.value.witness["failing"]
    assert (fail["operator"], fail["line_spot"]) == ("d", repr(line))
    moved = [j for j, (a, b) in enumerate(zip(came, went)) if a != b]
    assert [[j, j] for j in moved] == [g for g in fail["generators"]
                                       if g[0] == g[1]]


def test_a_splitting_entry_joining_two_weights_is_refused(monkeypatch):
    # splitting has no certificate: the word's grading check refuses a P
    # entry that leaves the weight of a Y spot's column
    ctx = KoszulContext(SuperSpace(3, 1))
    line = Spot(1, 0, 0)
    _weight_crossing_entry(ctx, monkeypatch, "P", line)
    with pytest.raises(KoszulError, match="weight-graded") as exc:
        ctx.splitting("prop1", (0, 1))
    w = exc.value.witness
    start = ctx.spot_space(Spot(1, 0, 2)).weights()
    end = ctx.spot_space(Spot(0, 0, 1)).weights()
    assert w["column_weight"] == start[w["column"]]
    assert w["row_weight"] == end[w["row"]] != w["column_weight"]


def test_a_loop_word_off_its_spot_is_refused(ctx31):
    spot = Spot(1, 0, 2)
    with pytest.raises(KoszulError) as exc:
        ctx31.loop_blocks("delPQd", ["d", "Q", "P"], spot)
    assert exc.value.witness["reached"] == repr(Spot(1, 1, 3))


def test_weyl_dim_fills_every_weight_multiset():
    # the multiplicities of the L0(mu) from the alternating sum over a
    # weight multiset are never negative, and weyl_dim(mu) copies of each
    # fill it: the triple spots of degrees <= 2 on five alphabets
    checked = 0
    for m, n in [(3, 1), (2, 1), (2, 2), (1, 2), (4, 1)]:
        ctx = KoszulContext(SuperSpace(m, n))
        for spot in (Spot(i, k, l) for i in range(3) for k in range(3)
                     for l in range(3)):
            space = ctx.spot_space(spot)
            if space.dim > 1500:
                continue
            mults = g0_multiplicities(space.weights(), m)
            assert min(mults.values()) >= 0
            assert sum(k * weyl_dim(mu, m) for mu, k in mults.items()) \
                == space.dim, (m, n, spot)
            checked += 1
    assert checked == 134


@pytest.mark.parametrize("weight,m,dim", [
    ((0, 0, 0, 0), 3, 1), ((1, 0, 0, 0), 3, 3), ((1, 0, -1, 0), 3, 8),
    ((2, 1, 0, -3), 3, 8), ((3, 0, 0, 5), 3, 10), ((1, 1, 0, 0), 3, 3),
    ((2, 0, 1, 0), 2, 6), ((0, 0, 1, 0, 0), 2, 3), ((4, 1), 1, 1),
])
def test_weyl_dim_of_named_modules(weight, m, dim):
    # gl(3) + gl(1): the trivial module, C^3, the adjoint, the (2,1,0)
    # octet, S_3 and Lambda_2 of C^3; gl(2) + gl(2): S_2 (x) C^2; gl(2) +
    # gl(3): 1 (x) C^3; gl(1) + gl(1): a line
    assert weyl_dim(weight, m) == dim


# ---------------------------------------------------------------------------
# splittings


@pytest.mark.parametrize("k,l", [(1, 1), (2, 3), (0, 1), (2, 1), (1, 2)])
def test_xdanh_rank_bookkeeping(ctx31, k, l):
    rep = ctx31.xdanh_check(k, l)
    assert rep["ok"], rep


@pytest.mark.parametrize("k,l", [(1, 1), (2, 3), (0, 1), (3, 1), (2, 2)])
def test_xdanh_rank_sum_is_the_dimension_of_the_summed_images(ctx31, k, l):
    proj = ctx31.pair_del(k + 1, l + 1) @ ctx31.pair_d(k, l)
    images = proj.image()
    if k >= 1 and l >= 1:
        images = subspace_sum(ctx31.pair_d(k - 1, l - 1).image(), images)
    assert ctx31.xdanh_check(k, l)["rank_sum"] == images.dim


@pytest.mark.parametrize("m,n", [(3, 1), (2, 1), (2, 2), (1, 2), (4, 1)])
def test_xdanh_ranks_equal_the_composite_and_stacked_ranks(m, n):
    ctx = KoszulContext(SuperSpace(m, n))
    for k, l in product(range(5), repeat=2):
        assert ctx.xdanh_check(k, l) == oracles.xdanh_by_composition(
            ctx, k, l), (k, l)


def test_xdanh_23_dimensions(ctx31):
    rep = ctx31.xdanh_check(2, 3)
    assert (rep["dim"], rep["rank_in"], rep["rank_out"]) == (112, 32, 80)


def test_xdanh_degenerate_offset(ctx31):
    # at offset k-l = m-n the two images overlap instead of splitting
    rep = ctx31.xdanh_check(3, 1)
    assert not rep["ok"]
    assert rep["rank_sum"] == 7  # del.d collapses into the incoming image
    with pytest.raises(ValueError):
        xdanh_splitting(ctx31, 3, 1)


def test_xdanh_subspaces_split(ctx31):
    a_sub, b_sub = xdanh_splitting(ctx31, 1, 1)
    assert a_sub.dim == 1 and b_sub.dim == 15
    assert a_sub.intersect(b_sub).dim == 0
    assert subspace_sum(a_sub, b_sub).dim == 16


def test_prop1_splitting(ctx31):
    a_sub, b_sub = splitting_summands(ctx31, "prop1", (0, 1))
    assert (a_sub.dim, b_sub.dim) == (4, 32)
    assert a_sub.intersect(b_sub).dim == 0
    assert subspace_sum(a_sub, b_sub).dim == 36
    a_sub, b_sub = splitting_summands(ctx31, "prop1", (1, 1))
    assert (a_sub.dim, b_sub.dim) == (36, 108)
    assert a_sub.intersect(b_sub).dim == 0
    assert subspace_sum(a_sub, b_sub).dim == 144


def test_prop2_splitting(ctx31):
    a_sub, z_sub, w_sub = splitting_summands(ctx31, "prop2", (0, 1, 1))
    assert (a_sub.dim, z_sub.dim, w_sub.dim) == (112, 108, 220)
    assert subspace_le(a_sub, w_sub) and subspace_le(z_sub, w_sub)
    assert a_sub.intersect(z_sub).dim == 0
    assert subspace_sum(a_sub, z_sub) == w_sub


# every cell the default constructions group reaches, on (3|1)
DEFAULT_SPLITTING_CELLS = (
    ("prop1", (0, 0)), ("prop1", (0, 1)), ("prop1", (1, -1)), ("prop1", (1, 0)),
    ("prop2", (0, 2, -1)), ("prop2", (0, 2, 0)), ("prop2", (0, 2, -2)),
    ("prop2", (1, 2, -2)), ("prop2", (1, 2, -3)), ("prop2", (0, 3, -2)),
    ("prop2", (0, 3, -1)), ("prop2", (1, 3, -3)), ("prop2", (1, 3, -2)),
)

# prop1 cells on other alphabets, each with a nonzero Y and a spot of
# dimension at most 1,500
OTHER_PROP1_CELLS = (
    ((2, 1), (0, 1)), ((2, 1), (1, 0)), ((2, 2), (0, 1)), ((2, 2), (1, 0)),
    ((1, 2), (0, 1)), ((1, 2), (1, 0)),
    ((4, 1), (0, 1)), ((4, 1), (1, 0)), ((4, 1), (1, 3)),
)

@pytest.mark.parametrize("which, params, mn", [
    *(pytest.param(which, params, (3, 1), id=f"{which}-params{j}")
      for j, (which, params) in enumerate(DEFAULT_SPLITTING_CELLS)),
    *(pytest.param(which, params, mn,
                   id="{}-{}{}-{}".format(which, *mn, "_".join(map(str, params))))
      for which, cells in (("prop1", OTHER_PROP1_CELLS),
                           ("prop2", OTHER_PROP2_CELLS))
      for mn, params in cells),
])
def test_splitting_is_the_oracle_summand(ctx31, which, params, mn):
    # the reduced echelon basis is unique, so the subspaces are equal as
    # stored; Z comes in W's coordinates and is mapped onto the spot first
    ctx = ctx31 if mn == (3, 1) else KoszulContext(SuperSpace(*mn))
    z = ctx.splitting(which, params)
    assert z.dim > 0
    if which == "prop2":
        z = z_on_the_spot(ctx, params, z)
    assert z == splitting_summands(ctx, which, params)[1]


# one prop2 cell on each other alphabet, each the first in OTHER_PROP2_CELLS
ONE_PROP2_CELL_OFF_3_1 = (((2, 1), (0, 1, 1)), ((2, 2), (0, 2, -1)),
                          ((1, 2), (0, 2, 0)), ((4, 1), (0, 2, -2)))


@pytest.mark.parametrize("params, mn", [
    *(pytest.param(params, (3, 1), id=f"params{j}")
      for j, (which, params) in enumerate(DEFAULT_SPLITTING_CELLS)
      if which == "prop2"),
    *(pytest.param(params, mn, id="{}{}-{}".format(*mn, "_".join(map(str, params))))
      for mn, params in ONE_PROP2_CELL_OFF_3_1),
])
def test_z_splitting_is_the_word_on_every_vector_of_w(ctx31, params, mn):
    # del applied once per Im d vector and shifted to every S copy gives the
    # kernel the word gives on each vector of the lifted W, as stored
    ctx = ctx31 if mn == (3, 1) else KoszulContext(SuperSpace(*mn))
    z = ctx.splitting("prop2", params)
    assert z.dim > 0
    assert z == z_splitting_on_w(ctx, params)


def test_the_z_splitting_applies_del_once_per_im_d_vector(monkeypatch):
    # W = S_2 (x) Im d_(2,3) on (3|1) has ten copies of Im d; del is applied
    # to each Im d basis vector once, never to a vector of W
    ctx = KoszulContext(SuperSpace(3, 1))
    i, k, a = 1, 2, 0
    line = Spot(0, k + 1, a + i + k + 2)
    delta = ctx.operator("del", line)
    applied = []
    apply = SparseMap.apply_numerators

    def counted(self, vec, right=1):
        if self is delta:
            applied.append(vec)
        return apply(self, vec, right)

    monkeypatch.setattr(SparseMap, "apply_numerators", counted)
    ctx.splitting("prop2", (i, k, a))
    assert applied == ctx.d_image(k, a + i + k + 1).nums


def test_an_undefined_step_of_a_splitting_word_raises_the_operators_error(ctx31):
    # Y at (0, -1) lives on S_1: P lands on S_0.L_1.S*_0, where del is undefined
    with pytest.raises(ValueError, match=r"^operator 'del' needs degrees >= 0, "
                       r"got S_0\.L_1\.S\*_0 -> S_0\.L_0\.S\*_-1$"):
        ctx31.splitting("prop1", (0, -1))


def test_a_del_entry_joining_two_weights_is_refused_by_the_z_summand(monkeypatch):
    # Z is the kernel of P.del on W, applied at the line spots; a del entry
    # that leaves the weight of a W vector's pivot column must be refused
    ctx = KoszulContext(SuperSpace(2, 1))
    i, k, a = 0, 1, 1
    l = a + i + k + 1
    line = Spot(0, k + 1, l + 1)
    op = ctx.operator("del", line)
    dom_w = ctx.spot_space(line).weights()
    cod_w = ctx.spot_space(op_target("del", line)).weights()
    c = ctx.d_image(k, l).pivots[0]
    r = next(r for r in range(op.cod_dim) if cod_w[r] != dom_w[c])
    ent = dict(op.entries)
    ent[(r, c)] = op.den
    monkeypatch.setitem(ctx._operators, ("del", line),
                        SparseMap._from_ints(op.dom_dim, op.cod_dim, ent, op.den))
    with pytest.raises(KoszulError, match="weight-graded") as exc:
        ctx.splitting("prop2", (i, k, a))
    w = exc.value.witness
    start = ctx.spot_space(Spot(i + 1, k + 1, l + 1)).weights()
    end = ctx.spot_space(Spot(i, k + 1, l)).weights()
    assert w["column_weight"] == start[w["column"]]
    assert w["row_weight"] == end[w["row"]] != w["column_weight"]


def test_d_image_is_built_once_and_read_by_its_users(ctx31):
    im = ctx31.d_image(2, 2)
    assert ctx31.d_image(2, 2) is im
    assert im == ctx31.pair_d(2, 2).image()
    assert ctx31.k_homology(0, 3)[2] is im  # the incoming image at (3, 3)


def test_kerp_space_is_computed_once(monkeypatch):
    ctx = KoszulContext(SuperSpace(3, 1))
    ker = ctx.kerp_space(Spot(1, 1, 1))

    def recompute(spot):
        raise AssertionError(f"kerp_space {spot} computed twice")

    monkeypatch.setattr(ctx, "_kerp_space", recompute)
    assert ctx.kerp_space(Spot(1, 1, 1)) is ker
    with pytest.raises(AssertionError):
        ctx.kerp_space(Spot(1, 1, 2))


# ---------------------------------------------------------------------------
# plumbing


def test_operator_validity_checks(ctx31):
    with pytest.raises(ValueError):
        ctx31.operator("del", Spot(0, 0, 1))
    with pytest.raises(ValueError):
        ctx31.operator("P", Spot(0, 1, 1))
    with pytest.raises(ValueError):
        ctx31.operator("Q", Spot(1, 0, 1))
    with pytest.raises(ValueError):
        ctx31.pair_del(0, 1)


def test_pair_maps_are_the_operators_at_line_spots(ctx21):
    # a pair map is the operator where the factor it leaves alone is a line;
    # at every other spot the operator is that map lifted onto the factor
    sym2, dual2 = ctx21.sym_basis(2).dim, ctx21.dual_basis(2).dim
    cases = [
        ("d", ctx21.pair_d(1, 1), Spot(0, 1, 1), Spot(2, 1, 1), sym2, 1),
        ("del", ctx21.pair_del(1, 1), Spot(0, 1, 1), Spot(2, 1, 1), sym2, 1),
        ("P", ctx21.pair_p(1, 1), Spot(1, 1, 0), Spot(1, 1, 2), 1, dual2),
        ("Q", ctx21.pair_q(1, 1), Spot(1, 1, 0), Spot(1, 1, 2), 1, dual2),
    ]
    for name, pair, line, spot, left, right in cases:
        assert pair is ctx21.operator(name, line), name
        assert dense(ctx21.operator(name, spot)) == dense_lift(pair, left, right), name


def test_identity_rejects_a_dropped_word_with_a_nonzero_prefactor(ctx31):
    # del is undefined on Lambda_0 (x) S*_0, so the word del-then-d is dropped
    spot = Spot(0, 0, 0)
    with pytest.raises(KoszulError) as exc:
        ctx31._identity([(1, ["del", "d"]), (1, ["d", "del"])], spot, F(2))
    assert exc.value.witness == {"word": ["del", "d"], "spot": repr(spot),
                                 "prefactor": 1}
    # with a zero prefactor the word is dropped: del(d(1)) = (m - n) * 1
    rep = ctx31._identity([(0, ["del", "d"]), (1, ["d", "del"])], spot, F(2))
    assert rep["ok"] and rep["dim"] == 1


# the letters each operator takes away: none for d, one exterior and one dual
# letter for del, one symmetric letter for P, one exterior letter for Q
SOURCE_LETTERS = {
    "d": lambda s: True,
    "del": lambda s: s.alt >= 1 and s.dual >= 1,
    "P": lambda s: s.sym >= 1,
    "Q": lambda s: s.alt >= 1,
}


@pytest.mark.parametrize("name", sorted(SOURCE_LETTERS))
def test_op_applicable_is_source_letters_exist(name):
    for s in range(3):
        for a in range(3):
            for d in range(3):
                spot = Spot(s, a, d)
                assert op_applicable(name, spot) == SOURCE_LETTERS[name](spot)
    with pytest.raises(ValueError):
        op_applicable("R", Spot(1, 1, 1))


def test_composed_word_tracks_spots(ctx31):
    mat, end = ctx31.composed(["d", "Q", "P", "del"], Spot(1, 0, 2))
    assert end == Spot(1, 0, 2)
    assert mat.dom_dim == mat.cod_dim == 36
    assert word_end(["d", "Q", "P", "del"], Spot(1, 0, 2)) == Spot(1, 0, 2)
    assert word_end(["P", "d"], Spot(0, 1, 1)) is None
    empty, end2 = ctx31.composed([], Spot(1, 1, 1))
    assert end2 == Spot(1, 1, 1)
    assert empty == SparseMap.identity(ctx31.spot_space(Spot(1, 1, 1)).dim)


def test_composed_to_checks_the_end_spot(ctx31):
    word, spot = ["d", "Q", "P", "del"], Spot(1, 0, 2)
    assert ctx31.composed_to(word, spot, spot) == ctx31.composed(word, spot)[0]
    with pytest.raises(KoszulError) as exc:
        ctx31.composed_to(word, spot, Spot(2, 0, 2))
    assert exc.value.witness["reached"] == repr(spot)


def test_operator_cache_returns_same_object(ctx31):
    m1 = ctx31.operator("d", Spot(1, 1, 1))
    m2 = ctx31.operator("d", Spot(1, 1, 1))
    assert m1 is m2
