"""Laurent character ring: ring ops, closed formulas, and cross-checks
against enumerated characters of the constructed modules.

Every closed formula below matches the plain (unsigned) weight enumeration
exactly; the parity-signed enumeration is recovered by y -> -y.  Expected
dimensions and term counts were frozen from exact runs.
"""

from fractions import Fraction

import pytest

from superkoszul.characters import (
    CYCLES,
    CharacterError,
    CharFraction,
    LaurentPoly,
    a_det,
    ch_atypical,
    ch_schur_super,
    ch_typical,
    ch_v,
    classify_weight,
    divide_exact,
    image_char,
    in_gamma31,
    kac_orbit_sum,
    kac_sum,
    mfinal_char,
    mmp_char,
    pi_poly,
    r_poly,
    supercharacter,
    x,
    xxx,
    y_char,
    z1_char,
    zk_char,
    zk_char_stated,
)
from oracles import (
    char_equal,
    hook_partition,
    invert_vars,
    permute_x,
    poly_pow,
    splitting_summands,
    tensor_modules,
    xdanh_splitting,
)
from superkoszul.glrep import Constructor, ambient_module, dual_module
from superkoszul.koszul import KoszulContext
from superkoszul.superspace import SuperSpace

F = Fraction


@pytest.fixture(scope="module")
def ctx():
    return KoszulContext(SuperSpace(3, 1))


@pytest.fixture(scope="module")
def con(ctx):
    return Constructor(ctx)


def poly_dim(p):
    """Evaluation at x1 = x2 = x3 = y = 1."""
    return sum(p.terms.values())


# ---------------------------------------------------------------------------
# ring operations


def test_monomial_round_trip():
    p = LaurentPoly.monomial((2, 0, -1, 3), F(5, 2))
    assert p.terms == {(2, 0, -1, 3): F(5, 2)}
    assert not p.is_zero()


def test_zero_terms_are_dropped():
    p = LaurentPoly({(1, 0, 0, 0): F(0), (0, 1, 0, 0): F(2)})
    assert p.terms == {(0, 1, 0, 0): F(2)}


def test_add_sub_cancel():
    p = x(1) + x(2)
    assert (p - p).is_zero()
    assert p + LaurentPoly.zero() == p


def test_mul_collects_terms():
    # (x1 + x2)(x1 - x2) = x1^2 - x2^2
    p = (x(1) + x(2)) * (x(1) - x(2))
    assert p == LaurentPoly(
        {(2, 0, 0, 0): F(1), (0, 2, 0, 0): F(-1)}
    )


def test_scalar_mul_and_neg():
    p = x(3).scaled(F(1, 3)) * 3
    assert p == x(3)
    assert -p == LaurentPoly.monomial((0, 0, 1, 0), -1)


def test_pow_matches_repeated_mul():
    p = x(1) + x(4)
    assert poly_pow(p, 3) == p * p * p
    assert poly_pow(p, 0) == LaurentPoly.one()
    with pytest.raises(CharacterError):
        poly_pow(p, -1)


def test_invert_vars_is_involutive():
    p = x(1, 2) + x(4, -1) * 3
    assert invert_vars(invert_vars(p)) == p
    assert invert_vars(p) == x(1, -2) + x(4, 1) * 3


def test_permute_x_fixes_y():
    p = x(1, 2) * x(4, 5)
    assert permute_x(p, (1, 0, 2)) == x(2, 2) * x(4, 5)


def test_sub_y_neg_flips_odd_y_degrees():
    p = x(1) + x(4) + x(4, 2)
    assert p.sub_y_neg() == x(1) - x(4) + x(4, 2)
    # involution
    assert p.sub_y_neg().sub_y_neg() == p


def test_canonical_is_insertion_order_independent():
    p1 = x(1) + x(2) + x(3)
    p2 = x(3) + x(1) + x(2)
    assert p1.canonical() == p2.canonical() == "1*x3 + 1*x2 + 1*x1"
    assert LaurentPoly.zero().canonical() == "0"


def test_to_json_sorted_and_stringified():
    p = x(2) + x(1).scaled(F(1, 2))
    assert p.to_json() == [[[0, 1, 0, 0], "1"], [[1, 0, 0, 0], "1/2"]]


# ---------------------------------------------------------------------------
# exact division and fractions


def test_divide_exact_monomial_path():
    q = divide_exact(x(1, 3) * x(4, -1), x(1) * x(4, -2))
    assert q == x(1, 2) * x(4)


def test_divide_exact_polynomial():
    num = (x(1) + x(2)) * (x(2) + x(3))
    assert divide_exact(num, x(1) + x(2)) == x(2) + x(3)


def test_divide_exact_rejects_non_polynomial():
    with pytest.raises(CharacterError):
        divide_exact(x(1), x(1) + x(2))
    with pytest.raises(CharacterError):
        divide_exact(x(1), LaurentPoly.zero())


def test_coefficients_stay_ints():
    p = (x(1) + x(4)) * (x(2) - x(3)) - x(3) * 2
    built = (p, p + x(1), p - x(1), p * p, p.scaled(-3), -p, a_det(2, 1, 0),
             ch_schur_super((2, 1, 1)), ch_v((2, 1, -1, 1)).num,
             kac_sum((2, 1, -1, 1)).den, divide_exact(p * x(2), p))
    for q in built:
        assert not q.is_zero()
        assert all(type(c) is int for c in q.terms.values())


def test_divide_exact_rejects_a_non_integral_quotient():
    with pytest.raises(CharacterError):
        divide_exact(x(1), x(1).scaled(2))
    with pytest.raises(CharacterError):
        divide_exact(x(1) + x(2), (x(1) + x(2)).scaled(2))
    assert divide_exact((x(1) + x(2)).scaled(6), (x(1) + x(2)).scaled(3)) == (
        LaurentPoly.one().scaled(2))


def test_fraction_compare_modes():
    a = CharFraction(x(1) + x(2))
    b = CharFraction((x(1) + x(2)) * x(3), x(3))
    assert a.compare(b) == {"equal": True, "up_to_sign": True}
    assert a.compare(-b) == {"equal": False, "up_to_sign": True}
    assert a.compare(CharFraction(x(1))) == {
        "equal": False,
        "up_to_sign": False,
    }
    assert char_equal(x(1) + x(2), b)


def test_fraction_zero_denominator_rejected():
    with pytest.raises(CharacterError):
        CharFraction(x(1), LaurentPoly.zero())


# ---------------------------------------------------------------------------
# base expressions


def test_a_at_origin_is_vandermonde():
    assert a_det(0, 0, 0) == pi_poly()


def test_a_with_equal_columns_vanishes():
    # t = 0, u = 1 makes the first two columns both x_i^2
    assert a_det(0, 1, 0).is_zero()


def test_r_at_y_zero_is_x1x2x3():
    kept = LaurentPoly(
        {e: c for e, c in r_poly().terms.items() if e[3] == 0}
    )
    assert kept == xxx(1)


def test_a_column_swap_negates():
    # swapping the role of (t, u) exponents changes the det sign:
    # a(t, u, 0) has columns (t+2, u+1, 0), so a(1, 2, 0) and the det with
    # columns (3, 2, 0) written as a(0, 2, 0)-style cannot be compared by the
    # helper alone; check antisymmetry in the x variables instead.
    p = a_det(2, 1, 0)
    assert permute_x(p, (1, 0, 2)) == -p


# ---------------------------------------------------------------------------
# weight classification


def test_classify_fundamental_is_type3():
    info = classify_weight((1, 0, 0, 0))
    assert info["dominant"] and info["integrable"]
    assert info["atypical_types"] == [3]


def test_classify_typical():
    info = classify_weight((3, 1, -2, 0))
    assert info["typical"] and not info["atypical_types"]


def test_classify_type1():
    info = classify_weight((0, -1, -2, 2))
    assert info["atypical_types"] == [1]


def test_classify_non_dominant_can_stack_types():
    # (0,1,2|2) meets all three conditions at once; allowed because it is
    # not dominant
    info = classify_weight((0, 1, 2, 2))
    assert not info["dominant"]
    assert info["atypical_types"] == [1, 2, 3]


def test_dominant_double_atypicality_is_impossible_on_small_grid():
    for l1 in range(-2, 3):
        for l2 in range(-2, l1 + 1):
            for l3 in range(-2, l2 + 1):
                for l4 in range(-2, 3):
                    info = classify_weight((l1, l2, l3, l4))
                    assert len(info["atypical_types"]) <= 1


def test_classify_half_integral():
    info = classify_weight((F(1, 2), F(-1, 2), F(-1, 2), 0))
    assert info["integral"] and not info["integrable"]


# ---------------------------------------------------------------------------
# typical and atypical characters


def test_ch_typical_rejects_atypical_and_nonintegral():
    with pytest.raises(CharacterError):
        ch_typical((1, 0, 0, 0))
    with pytest.raises(CharacterError):
        ch_typical((F(1, 2), 0, 0, 0))


def test_ch_atypical_rejects_typical():
    with pytest.raises(CharacterError):
        ch_atypical((1, 1, -1, 0))


def test_fundamental_character():
    got = ch_atypical((1, 0, 0, 0))
    want = CharFraction(x(1) + x(2) + x(3) + x(4))
    assert got.compare(want) == {"equal": True, "up_to_sign": True}


def test_typical_dimension_formula():
    # dim V = 8 dim gl3(l1-l3, l2-l3) for typical labels
    def dimgl3(a, b):
        return (a - b + 1) * (b + 1) * (a + 2) // 2

    for lab in [(1, 1, -1, 0), (2, 1, -1, 1), (2, 1, 0, 1), (3, 1, -2, 0)]:
        p = ch_typical(lab).to_poly()
        assert poly_dim(p) == 8 * dimgl3(lab[0] - lab[2], lab[1] - lab[2])


def test_atypical_clears_to_polynomial():
    p = ch_atypical((0, -1, -2, 2)).to_poly()
    assert len(p.terms) == 31
    p = ch_atypical((1, 0, 0, 1)).to_poly()
    assert poly_dim(p) == 15


def test_ch_v_dispatch():
    assert ch_v((1, 1, -1, 0)).compare(ch_typical((1, 1, -1, 0)))["equal"]
    assert ch_v((1, 0, 0, 0)).compare(ch_atypical((1, 0, 0, 0)))["equal"]
    # the typical formula evaluates to 0 here: no irreducible has this label
    with pytest.raises(CharacterError, match="not dominant"):
        ch_v((1, 2, 3, 0))


# ---------------------------------------------------------------------------
# Kac orbit sum


def test_kac_orbit_sum_antisymmetric():
    s = kac_orbit_sum((2, 1, 0, -1))
    assert permute_x(s, (1, 0, 2)) == -s


def test_kac_sum_rejects_atypical():
    with pytest.raises(CharacterError):
        kac_sum((1, 0, 0, 0))


def test_kac_matches_typical_formula():
    for lab in [(1, 1, -1, 0), (2, 1, -1, 1), (0, 0, 0, 3), (3, 2, 1, -3)]:
        cmp = kac_sum(lab).compare(ch_typical(lab))
        assert cmp["equal"], lab


# ---------------------------------------------------------------------------
# hook family and Jacobi-Trudi route


def test_in_gamma31():
    assert in_gamma31((3, 1, 1))
    assert in_gamma31((2, 2, 2, 1, 1))
    assert not in_gamma31((2, 2, 2, 2))
    assert not in_gamma31((1, 2))


def test_hook_partition_helper():
    assert hook_partition(3, 1, 1, 2) == (3, 1, 1, 1, 1)


def test_schur_fundamental_is_signed_alphabet():
    assert ch_schur_super((1,)) == x(1) + x(2) + x(3) - x(4)


def test_schur_rejects_outside_hook_family():
    with pytest.raises(CharacterError):
        ch_schur_super((2, 2, 2, 2))


def test_schur_strips_trailing_zeros():
    assert ch_schur_super((2, 0, 0)) == ch_schur_super((2,))
    assert ch_schur_super(()) == LaurentPoly.one()


def test_schur_matches_signed_enumeration(con):
    for shape in [(2,), (1, 1), (2, 1), (1, 1, 1, 1)]:
        mod = con.ilambda(shape)
        assert ch_schur_super(shape) == supercharacter(mod, signed=True)
        assert ch_schur_super(shape).sub_y_neg() == supercharacter(
            mod, signed=False
        )


def test_schur_matches_irreducible_character():
    # for l3 >= 1 the hook character equals the closed formula with the
    # fourth label negated, after restoring the unsigned convention
    got = CharFraction(ch_schur_super((2, 1, 1)).sub_y_neg())
    assert got.compare(ch_v((2, 1, 1, 0)))["equal"]
    got = CharFraction(ch_schur_super((2, 1, 1, 1)).sub_y_neg())
    assert got.compare(ch_v((2, 1, 1, -1)))["equal"]


def test_schur_single_row_bracket():
    # cyclic closed form for one-row shapes
    def one_row(l1):
        num = LaurentPoly.zero()
        for (i, j, k) in CYCLES:
            num = num + x(j + 1, l1 + 1) * (x(j + 1) + x(4)) * (
                x(k + 1) - x(i + 1)
            )
        return CharFraction(num, pi_poly())

    for l1 in (2, 3):
        got = CharFraction(ch_schur_super((l1,)).sub_y_neg())
        assert got.compare(one_row(l1))["equal"]


# ---------------------------------------------------------------------------
# enumerated characters of constructed modules


def test_h31_character_conventions(con):
    h = con.h31()
    assert supercharacter(h, signed=False) == LaurentPoly.monomial(
        (1, 1, 1, -1)
    )
    assert supercharacter(h, signed=True) == LaurentPoly.monomial(
        (1, 1, 1, -1), -1
    )


def test_image_module_closed_form(con):
    enum = CharFraction(supercharacter(con.image_module(2, 2), False))
    assert enum.compare(image_char(2, 2))["equal"]
    # the closed form needs first index >= 2: the (1,1) image disagrees
    enum = CharFraction(supercharacter(con.image_module(1, 1), False))
    assert not enum.compare(image_char(1, 1))["up_to_sign"]


def test_mmp_closed_form_and_label(con):
    enum = CharFraction(supercharacter(con.mmp(1, 1), False))
    assert enum.compare(mmp_char(1, 1))["equal"]
    assert enum.compare(ch_typical((1, 1, -1, 0)))["equal"]


def test_y_closed_form_and_label(con):
    enum = CharFraction(supercharacter(con.y_summand(1, 1), False))
    assert enum.compare(y_char(1, 1))["equal"]
    assert enum.compare(ch_atypical((1, 0, 0, 1)))["equal"]


def test_z1_closed_form_and_true_label(con):
    enum = CharFraction(supercharacter(con.z1(1), False))
    assert enum.compare(z1_char(1))["equal"]
    # the matching irreducible label is (2,1,-1|1), one unit below the
    # stated lambda_3 (see the findings report)
    assert enum.compare(ch_typical((2, 1, -1, 1)))["equal"]
    assert not enum.compare(ch_typical((2, 1, 0, 1)))["up_to_sign"]


def test_zk_closed_form_corrected_column(con):
    enum = CharFraction(supercharacter(con.zk(2, 2, 2), False))
    assert enum.compare(zk_char(2, 2, 2))["equal"]
    assert not enum.compare(zk_char_stated(2, 2, 2))["up_to_sign"]


def test_mfinal_closed_form_and_label(con):
    enum = CharFraction(supercharacter(con.mfinal(1, 1, 1), False))
    assert enum.compare(mfinal_char(1, 1, 1))["equal"]
    assert enum.compare(ch_typical((2, 1, 0, 1)))["equal"]


def test_signed_enumeration_differs_on_odd_content(con):
    # Y(1,1) contains odd vectors, so the two conventions split
    mod = con.y_summand(1, 1)
    s = supercharacter(mod, True)
    u = supercharacter(mod, False)
    assert s != u
    assert s == u.sub_y_neg()


# ---------------------------------------------------------------------------
# structural invariants


def test_dual_character_inverts_variables(con):
    mod = con.y_summand(1, 1)
    dual = dual_module(mod)
    for signed in (True, False):
        assert supercharacter(dual, signed) == invert_vars(
            supercharacter(mod, signed)
        )


def test_splitting_additivity(con):
    from superkoszul.glrep import module_from_subspace
    from superkoszul.koszul import Spot

    ctx = con.ctx
    a_sub, b_sub = xdanh_splitting(ctx, 2, 1)
    def on(product, sub, name):
        return module_from_subspace(con.act, product.factors,
                                    product.weights(), product.parities(),
                                    sub, name)

    ps = ctx.pair_space(2, 1)
    amb = ambient_module(con.act, ps, "pair(2,1)")
    ma = on(ps, a_sub, "A")
    mb = on(ps, b_sub, "B")
    for signed in (True, False):
        total = supercharacter(ma, signed) + supercharacter(mb, signed)
        assert total == supercharacter(amb, signed)

    a_sub, b_sub, w_sub = splitting_summands(ctx, "prop2", (0, 1, 1))
    spot = Spot(1, 2, 4)
    sp = ctx.spot_space(spot)
    ma = on(sp, a_sub, "A")
    mb = on(sp, b_sub, "B")
    mw = on(sp, w_sub, "W")
    for signed in (True, False):
        total = supercharacter(ma, signed) + supercharacter(mb, signed)
        assert total == supercharacter(mw, signed)


def test_tensor_character_multiplies(con):
    a = con.ilambda((1,))
    t = tensor_modules(a, a)
    assert supercharacter(t, True) == poly_pow(ch_schur_super((1,)), 2)
    assert supercharacter(t, False) == poly_pow(supercharacter(a, False), 2)
