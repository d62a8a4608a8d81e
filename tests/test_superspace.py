"""Powers of a super vector space.

Dual-route discipline: the closed-form factor maps and the compressed bases
are checked against full tensor-power symmetrizer matrices, which are
independent (and much slower) implementations of the same objects.
"""

from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    blocked_char_poly,
    column,
    coords_from_tensor,
    product_index,
    product_unindex,
    project_tensor,
    split,
    symmetrizer_map,
    tensor_dim,
    tensor_permutation_map,
    tensor_subspace,
    to_tensor,
    unindex_word,
    weight_of_letter,
    word_index,
)
from superkoszul.koszul import KoszulContext, Spot
from superkoszul.linalg import SparseMap, Subspace, SubspaceError
from superkoszul.superspace import (
    ProductSpace,
    SuperSpace,
    admissible,
    alt_dim,
    blocked_image,
    blocked_kernel,
    blocked_rank,
    join,
    power_basis,
    sort_sign,
    split_graded,
    sym_dim,
    weight_label,
)

F = Fraction

V31 = SuperSpace(3, 1)
V21 = SuperSpace(2, 1)


# ---------------------------------------------------------------------------
# parities, weights, admissibility


def test_parities():
    assert [V31.parity(i) for i in range(4)] == [0, 0, 0, 1]
    assert [V21.parity(i) for i in range(3)] == [0, 0, 1]


def test_weight_of_letter():
    assert weight_of_letter(V31, 0) == (1, 0, 0, 0)
    assert weight_of_letter(V31, 3, dual=True) == (0, 0, 0, -1)


def test_weight_label_negates_odd_part():
    assert weight_label((1, 1, 1, -1), 3, 1) == (1, 1, 1, 1)
    assert weight_label((2, 0, -1, 3), 3, 1) == (2, 0, -1, -3)


def test_admissible_rules():
    assert admissible(V31, "sym", (0, 0, 1))
    assert not admissible(V31, "sym", (3, 3))
    assert admissible(V31, "alt", (3, 3))
    assert not admissible(V31, "alt", (0, 0))
    assert admissible(V31, "alt", (0, 1, 3, 3))


# ---------------------------------------------------------------------------
# sort signs


def test_sort_sign_hand_cases():
    # two evens: plain swap
    assert sort_sign(V31, "sym", (1, 0)) == 1
    assert sort_sign(V31, "alt", (1, 0)) == -1
    # even past odd: no Koszul sign
    assert sort_sign(V31, "sym", (3, 0)) == 1
    assert sort_sign(V31, "alt", (3, 0)) == -1
    # odd past odd (two distinct odds need n >= 2)
    v22 = SuperSpace(2, 2)
    assert sort_sign(v22, "sym", (3, 2)) == -1
    assert sort_sign(v22, "alt", (3, 2)) == 1


def test_sort_sign_composes_over_adjacent_swaps():
    word = (2, 0, 3, 1)
    for kind in ("sym", "alt"):
        s = sort_sign(V31, kind, word)
        # swap positions 1,2 and re-sort: relative sign is the swap's own sign
        swapped = (2, 3, 0, 1)
        a, b = 0, 3
        koszul = -1 if (V31.parity(a) and V31.parity(b)) else 1
        swap = koszul * (-1 if kind == "alt" else 1)
        assert sort_sign(V31, kind, swapped) == s * swap


# ---------------------------------------------------------------------------
# dimensions


def test_sym_dims_31():
    # squares: 1, 4, 9, 16, ...
    for l in range(8):
        assert power_basis(V31, "sym", l).dim == (l + 1) ** 2
        assert sym_dim(3, 1, l) == (l + 1) ** 2


def test_alt_dims_31():
    dims = [power_basis(V31, "alt", k).dim for k in range(7)]
    assert dims == [1, 4, 7, 8, 8, 8, 8]
    assert [alt_dim(3, 1, k) for k in range(7)] == dims


def test_dims_21():
    for l in range(6):
        assert power_basis(V21, "sym", l).dim == sym_dim(2, 1, l)
        assert power_basis(V21, "alt", l).dim == alt_dim(2, 1, l)
    assert [alt_dim(2, 1, k) for k in range(5)] == [1, 3, 4, 4, 4]


def test_dual_same_dims_negated_weights():
    a = power_basis(V31, "sym", 2)
    b = power_basis(V31, "sym", 2, dual=True)
    assert a.multisets == b.multisets
    assert b.weights == [tuple(-c for c in w) for w in a.weights]
    assert a.parities == b.parities


def test_weight_table_alt2_31():
    pb = power_basis(V31, "alt", 2)
    assert sorted(pb.weights) == sorted(
        [
            (1, 1, 0, 0),
            (1, 0, 1, 0),
            (0, 1, 1, 0),
            (1, 0, 0, 1),
            (0, 1, 0, 1),
            (0, 0, 1, 1),
            (0, 0, 0, 2),
        ]
    )
    # parity of each basis vector = odd part of the weight mod 2
    for w, p in zip(pb.weights, pb.parities):
        assert p == w[3] % 2


# ---------------------------------------------------------------------------
# tensor realization vs full symmetrizer matrices


def test_symmetrizer_rank_31_degree2():
    x2 = symmetrizer_map(V31, "sym", 2)
    y2 = symmetrizer_map(V31, "alt", 2)
    assert x2.rank() == 9
    assert y2.image().dim == 7
    # idempotent, and the two images only meet in 0
    assert (x2 @ x2) == x2
    assert (y2 @ y2) == y2
    assert x2.image().intersect(y2.image()).dim == 0


@pytest.mark.parametrize("space", [V31, V21])
@pytest.mark.parametrize("kind", ["sym", "alt"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_basis_equals_symmetrizer_image(space, kind, degree):
    pb = power_basis(space, kind, degree)
    proj = symmetrizer_map(space, kind, degree)
    assert tensor_subspace(pb) == proj.image()


@pytest.mark.parametrize("kind", ["sym", "alt"])
def test_project_tensor_is_projector_apply(kind):
    pb = power_basis(V21, kind, 3)
    proj = symmetrizer_map(V21, kind, 3)
    for flat in range(tensor_dim(pb)):
        direct = proj.apply({flat: F(1)})
        via = to_tensor(pb, project_tensor(pb, {flat: F(1)}))
        assert direct == via


def test_rcef_shape_of_realized_basis():
    pb = power_basis(V31, "alt", 3)
    seen = set()
    for i, mu in enumerate(pb.multisets):
        t = to_tensor(pb, {i: F(1)})
        piv = min(t)
        assert piv == word_index(pb, mu)
        assert t[piv] == 1
        words = {unindex_word(pb, f) for f in t}
        assert words.isdisjoint(seen)
        seen |= words


def test_project_roundtrip_identity():
    for kind in ("sym", "alt"):
        pb = power_basis(V31, kind, 4)
        coords = {i: F(i + 1, 3) for i in range(0, pb.dim, 2)}
        assert project_tensor(pb, to_tensor(pb, coords)) == coords


def test_coords_from_tensor_checks_membership():
    pb = power_basis(V31, "sym", 2)
    good = to_tensor(pb, {0: F(2)})
    assert coords_from_tensor(pb, good) == {0: F(2)}
    # a single mixed word is not symmetric
    with pytest.raises(ValueError):
        coords_from_tensor(pb, {word_index(pb, (0, 1)): F(1)})


# ---------------------------------------------------------------------------
# factor maps vs the projector route


def tensor_append(pb, tvec, letter):
    d = pb.space.dim
    return {flat * d + letter: v for flat, v in tvec.items()}


def tensor_prepend(pb, tvec, letter):
    d = pb.space.dim
    return {letter * d**pb.degree + flat: v for flat, v in tvec.items()}


@pytest.mark.parametrize("space", [V31, V21])
@pytest.mark.parametrize("kind", ["sym", "alt"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_append_prepend_match_projector_route(space, kind, degree):
    pb = power_basis(space, kind, degree)
    nxt = power_basis(space, kind, degree + 1)
    for letter in range(space.dim):
        ap = pb.factor_map("append", letter)
        pp = pb.factor_map("prepend", letter)
        for col in range(pb.dim):
            t = to_tensor(pb, {col: F(1)})
            want_ap = project_tensor(nxt, tensor_append(pb, t, letter))
            want_pp = project_tensor(nxt, tensor_prepend(pb, t, letter))
            assert column(ap, col) == want_ap
            assert column(pp, col) == want_pp


@pytest.mark.parametrize("space", [V31, V21])
@pytest.mark.parametrize("kind", ["sym", "alt"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_drop_maps_split_the_tensor(space, kind, degree):
    """b_mu literally equals sum_i drop_last_i(b_mu) (x) e_i, and the
    mirrored statement for drop_first."""
    pb = power_basis(space, kind, degree)
    prev = power_basis(space, kind, degree - 1)
    for col in range(pb.dim):
        t = to_tensor(pb, {col: F(1)})
        rebuilt_last = {}
        rebuilt_first = {}
        for letter in range(space.dim):
            dl = column(pb.factor_map("drop_last", letter), col)
            df = column(pb.factor_map("drop_first", letter), col)
            for flat, v in to_tensor(prev, dl).items():
                k = flat * space.dim + letter
                rebuilt_last[k] = rebuilt_last.get(k, F(0)) + v
            for flat, v in to_tensor(prev, df).items():
                k = letter * space.dim ** prev.degree + flat
                rebuilt_first[k] = rebuilt_first.get(k, F(0)) + v
        assert {k: v for k, v in rebuilt_last.items() if v} == t
        assert {k: v for k, v in rebuilt_first.items() if v} == t


def test_factor_maps_preserve_weights():
    pb = power_basis(V31, "sym", 2, dual=True)
    nxt = power_basis(V31, "sym", 3, dual=True)
    for letter in range(4):
        step = weight_of_letter(V31, letter, dual=True)
        m = pb.factor_map("append", letter)
        for (r, c) in m.entries:
            assert nxt.weights[r] == tuple(
                a + b for a, b in zip(pb.weights[c], step)
            )


def test_factor_map_caching():
    pb = power_basis(V31, "alt", 2)
    assert pb.factor_map("append", 1) is pb.factor_map("append", 1)
    assert power_basis(V31, "alt", 2) is pb


# ---------------------------------------------------------------------------
# product spaces and graded fast paths


def test_product_indexing_roundtrip():
    ps = ProductSpace(power_basis(V31, "alt", 2), power_basis(V31, "sym", 1, dual=True))
    assert ps.dim == 7 * 4
    for flat in range(ps.dim):
        assert product_index(ps, product_unindex(ps, flat)) == flat


@pytest.mark.parametrize("m,n", [(3, 1), (2, 2), (1, 2)])
def test_folded_product_weights_equal_the_summed_product(m, n):
    # the weights are folded in factor by factor with the degree-0 factors
    # skipped; the reference sums every factor's weight over the whole
    # itertools.product, on every spot up to (3, 3, 3)
    space = SuperSpace(m, n)
    for i, k, l in product(range(4), repeat=3):
        factors = (power_basis(space, "sym", i), power_basis(space, "alt", k),
                   power_basis(space, "sym", l, dual=True))
        want = [tuple(map(sum, zip(*ws)))
                for ws in product(*(f.weights for f in factors))]
        assert ProductSpace(*factors).weights() == want, (i, k, l)


def test_product_weights_additive():
    # per index: unindex, then add the factors' weights and parities
    for space in (V31, V21, SuperSpace(1, 2)):
        factors = (power_basis(space, "sym", 2), power_basis(space, "alt", 2),
                   power_basis(space, "sym", 1, dual=True))
        for ps in (ProductSpace(factors[1]), ProductSpace(*factors[1:]),
                   ProductSpace(*factors)):
            assert len(ps.weights()) == len(ps.parities()) == ps.dim
            for flat in range(ps.dim):
                idxs = product_unindex(ps, flat)
                assert product_index(ps, idxs) == flat
                assert ps.weights()[flat] == tuple(
                    sum(f.weights[i][c] for i, f in zip(idxs, ps.factors))
                    for c in range(space.dim))
                assert ps.parities()[flat] == sum(
                    f.parities[i] for i, f in zip(idxs, ps.factors)) % 2


def test_product_index_matches_kron():
    a = power_basis(V21, "alt", 1)
    b = power_basis(V21, "sym", 1, dual=True)
    ps = ProductSpace(a, b)
    ma = a.factor_map("append", 0)
    mb = b.factor_map("prepend", 0)
    k = ma.kron(mb)
    nxt = ProductSpace(power_basis(V21, "alt", 2), power_basis(V21, "sym", 2, dual=True))
    for c1 in range(a.dim):
        for c2 in range(b.dim):
            got = column(k, product_index(ps, (c1, c2)))
            want = {}
            for r1, v1 in column(ma, c1).items():
                for r2, v2 in column(mb, c2).items():
                    want[product_index(nxt, (r1, r2))] = v1 * v2
            assert got == {k2: v for k2, v in want.items() if v}


def graded_test_map():
    """A weight-graded map from a factor map, with matched weight lists.

    Appending letter 1 shifts every weight by the letter's weight, so the
    domain weights are shifted to make the map strictly weight-preserving.
    """
    pb = power_basis(V31, "sym", 2)
    nxt = power_basis(V31, "sym", 3)
    m = pb.factor_map("append", 1)
    step = weight_of_letter(V31, 1)
    dom_w = [tuple(a + b for a, b in zip(w, step)) for w in pb.weights]
    return m, dom_w, nxt.weights


def test_blocked_rank_kernel_image_match_plain():
    m, wd, wc = graded_test_map()
    assert blocked_rank(m, wd, wc) == m.rank()
    assert blocked_kernel(m, wd, wc) == m.kernel()
    assert blocked_image(m, wd, wc) == m.image()


def test_split_graded_rejects_cross_weight():
    pb = power_basis(V31, "sym", 1)
    m = SparseMap(pb.dim, pb.dim, {(0, 1): F(1)})  # sends weight of x2 to x1
    with pytest.raises(ValueError):
        split_graded(m, pb.weights, pb.weights)


def test_blocked_image_and_rank_refuse_a_cross_weight_entry_as_split_graded():
    pb = power_basis(V31, "sym", 1)
    m = SparseMap(pb.dim, pb.dim, {(0, 0): F(1), (0, 1): F(1)})
    with pytest.raises(ValueError) as want:
        split_graded(m, pb.weights, pb.weights)
    for blocked in (blocked_image, blocked_rank):
        with pytest.raises(ValueError) as got:
            blocked(m, pb.weights, pb.weights)
        assert str(got.value) == str(want.value)


def _split_image_join(mat, dom_weights, cod_weights):
    """The image of a graded map block by block: split, image, join."""
    blocks = split_graded(mat, dom_weights, cod_weights).values()
    return join(mat.cod_dim, ((b.image(), cod_idx) for b, _, cod_idx in blocks))


@pytest.mark.parametrize("m,n", [(3, 1), (2, 1), (2, 2), (1, 2), (4, 1)])
def test_column_span_image_equals_split_image_join(m, n):
    # blocked_image inserts each column into its weight's span in ambient
    # coordinates and merges the spans: the same reduced echelon basis as
    # the per-block images joined, on d, del.d and P
    ctx = KoszulContext(SuperSpace(m, n))
    cases = []
    for k in range(3):
        for l in range(3):
            src = ctx.pair_space(k, l).weights()
            d = ctx.pair_d(k, l)
            cases.append((d, src, ctx.pair_space(k + 1, l + 1).weights()))
            cases.append((ctx.pair_del(k + 1, l + 1) @ d, src, src))
            p = Spot(k + 1, l, 0)
            cases.append((ctx.operator("P", p), ctx.spot_space(p).weights(),
                          ctx.spot_space(Spot(k, l + 1, 0)).weights()))
    for mat, dw, cw in cases:
        want = _split_image_join(mat, dw, cw)
        assert blocked_image(mat, dw, cw) == want
        assert blocked_rank(mat, dw, cw) == want.dim


def test_blocked_char_poly_matches_plain():
    pb = power_basis(V31, "sym", 2)
    # weight-preserving endomorphism: diagonal + a nilpotent inside one block
    ent = {(i, i): F(i % 3 + 1) for i in range(pb.dim)}
    same = [
        (i, j)
        for i in range(pb.dim)
        for j in range(pb.dim)
        if i != j and pb.weights[i] == pb.weights[j]
    ]
    for i, j in same[:2]:
        ent[(i, j)] = F(5)
    m = SparseMap(pb.dim, pb.dim, ent)
    assert blocked_char_poly(m, pb.weights) == m.char_poly()


# ---------------------------------------------------------------------------
# properties


@given(st.lists(st.integers(0, 3), min_size=0, max_size=6))
@settings(max_examples=80, deadline=None)
def test_prop_sign_of_sorted_is_one(letters):
    word = tuple(sorted(letters))
    assert sort_sign(V31, "sym", word) == 1
    assert sort_sign(V31, "alt", word) == 1


@st.composite
def graded_maps(draw, max_dim=6):
    """(map, dom weights, cod weights) with entries only between equal
    weights, the weights drawn from three labels."""
    dom_w = draw(st.lists(st.sampled_from("abc"), max_size=max_dim))
    cod_w = draw(st.lists(st.sampled_from("abc"), max_size=max_dim))
    ent = {}
    for r, wr in enumerate(cod_w):
        for c, wc in enumerate(dom_w):
            if wr == wc:
                ent[(r, c)] = F(draw(st.integers(-2, 2)), draw(st.integers(1, 3)))
    return SparseMap(len(dom_w), len(cod_w), ent), dom_w, cod_w


@given(graded_maps())
@settings(max_examples=80, deadline=None)
def test_prop_blocked_kernel_and_image_match_plain(g):
    m, wd, wc = g
    assert blocked_kernel(m, wd, wc) == m.kernel()
    assert blocked_image(m, wd, wc) == m.image()


@given(graded_maps())
@settings(max_examples=80, deadline=None)
def test_prop_join_inverts_split(g):
    m, wd, wc = g
    for sub, weights in ((m.kernel(), wd), (m.image(), wc)):
        parts = split(sub, weights)
        for local, idx in parts.values():
            # each block is already in reduced echelon form
            assert local == Subspace.from_vectors(len(idx), local.vectors)
            assert idx == sorted(idx)
        assert join(sub.ambient_dim, parts.values()) == sub


def test_split_rejects_a_vector_mixing_weights():
    sub = Subspace.from_vectors(2, [{0: F(1), 1: F(1)}])
    with pytest.raises(ValueError):
        split(sub, ["a", "b"])


@given(graded_maps(), st.data())
@settings(max_examples=40, deadline=None)
def test_prop_join_rejects_parts_sharing_a_pivot(g, data):
    m, wd, _ = g
    parts = list(split(m.kernel(), wd).values())
    assume(parts)
    twice = data.draw(st.sampled_from(parts))
    with pytest.raises(SubspaceError):
        join(m.dom_dim, parts + [twice])


@given(st.permutations(list(range(4))))
@settings(max_examples=24, deadline=None)
def test_prop_tensor_permutation_invertible(perm):
    m = tensor_permutation_map(V21, tuple(perm), 4)
    inv = tensor_permutation_map(
        V21, tuple(perm.index(i) for i in range(4)), 4
    )
    assert (m @ inv) == SparseMap.identity(m.dom_dim)
