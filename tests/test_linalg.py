"""Exact linear algebra: oracles are naive dense Fraction routines.

The dense RREF of tests/oracles.py is the reference implementation for rank,
kernel and echelon bases; SparseMap must agree with it on every input, and
each SparseMap operation is pinned to the same dense Fraction arithmetic.  Characteristic
polynomials are cross-checked by evaluating det(t*I - M) at interpolation
points with the naive fraction Gauss determinant.
"""

import time
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dense,
    dense_add,
    dense_apply,
    dense_compose,
    dense_kron,
    dense_lift,
    dense_span,
    from_dense,
    from_triples,
    naive_rank,
    naive_rref,
    numerator_blocks,
    split,
    subspace_sum,
    transpose,
)
from superkoszul import linalg
from superkoszul.linalg import (
    DimensionError,
    RestrictionError,
    SparseMap,
    SpectrumError,
    Subspace,
    SubspaceError,
)
from superkoszul.koszul import verify_spectrum
from superkoszul.superspace import join

F = Fraction


# ---------------------------------------------------------------------------
# oracles (dense, from_dense and the dense RREF live in tests/oracles.py)


def naive_det(rows):
    """Fraction Gauss elimination determinant."""
    rows = [list(map(F, r)) for r in rows]
    n = len(rows)
    det = F(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = F(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def naive_char_poly(m):
    """Interpolate det(tI - M) at n+1 points, solve the Vandermonde system."""
    n = m.dom_dim
    d = dense(m)
    pts = [F(k) for k in range(n + 1)]
    vals = []
    for t in pts:
        shifted = [
            [(t if i == j else F(0)) - d[i][j] for j in range(n)] for i in range(n)
        ]
        vals.append(naive_det(shifted))
    # Lagrange interpolation to coefficient list
    coeffs = [F(0)] * (n + 1)
    for i, (xi, yi) in enumerate(zip(pts, vals)):
        basis = [F(1)]
        denom = F(1)
        for j, xj in enumerate(pts):
            if j == i:
                continue
            basis = [F(0)] + basis[:]
            low = [c * (-xj) for c in basis[1:]] + [F(0)]
            basis = [a + b for a, b in zip(basis, low + [F(0)] * (len(basis) - len(low)))]
            denom *= xi - xj
        for k, c in enumerate(basis):
            coeffs[k] += yi * c / denom
    return coeffs


# simpler, independent interpolation check used below
def poly_from_points(pts, vals):
    """Newton form -> monomial coefficients."""
    n = len(pts)
    table = list(vals)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (pts[i] - pts[i - j])
    coeffs = [F(0)] * n
    acc = [F(1)]
    for j in range(n):
        for k, c in enumerate(acc):
            coeffs[k] += table[j] * c
        acc = [F(0)] + acc
        for k in range(len(acc) - 1):
            acc[k] += acc[k + 1] * (-pts[j])
        acc.pop()
        acc.append(F(0))
    return coeffs


MATS = [
    [[1]],
    [[0]],
    [[2, 1], [0, 2]],
    [[1, 2], [3, 4]],
    [[0, 1], [0, 0]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    [[3, 1, 0, 0], [0, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 5]],
]

RECT = [
    [[1, 2, 3], [2, 4, 6]],
    [[1, 0], [0, 1], [1, 1]],
    [[0, 0], [0, 0], [0, 0]],
    [[F(2, 3), 1, 0, 5], [0, 0, 1, 1]],
]


# ---------------------------------------------------------------------------
# SparseMap arithmetic


def test_identity_apply():
    m = SparseMap.identity(4)
    v = {0: F(3), 2: F(-1, 2)}
    assert m.apply(v) == v


def test_compose_matches_dense():
    a = from_dense([[1, 2], [3, 4], [5, 6]])  # 2 -> 3
    b = from_dense([[1, 0, 2], [0, 1, 1]])  # 3 -> 2
    ab = a @ b
    assert ab.dom_dim == 3 and ab.cod_dim == 3
    da, db = dense(a), dense(b)
    expect = [
        [sum(da[i][k] * db[k][j] for k in range(2)) for j in range(3)]
        for i in range(3)
    ]
    assert dense(ab) == expect


def test_compose_shape_error():
    a = from_dense([[1, 2]])
    with pytest.raises(DimensionError):
        a @ a


def test_add_sub_scale():
    a = from_dense([[1, 2], [3, 4]])
    b = from_dense([[0, 1], [1, 0]])
    assert dense(a + b) == [[F(1), F(3)], [F(4), F(4)]]
    assert dense(a - a) == [[F(0), F(0)], [F(0), F(0)]]
    assert (a - a).is_zero()
    assert dense(F(2) * a) == [[F(2), F(4)], [F(6), F(8)]]


def test_transpose():
    a = from_dense([[1, 2, 3], [4, 5, 6]])
    assert dense(transpose(a)) == [[F(1), F(4)], [F(2), F(5)], [F(3), F(6)]]


def test_lift_places_copies_and_negates_odd_left_indices():
    a = from_dense([[1, 2]])
    assert dense(a.lift(right=2)) == [[1, 0, 2, 0], [0, 1, 0, 2]]
    assert dense(a.lift(left=2, left_parities=[0, 1])) == [
        [1, 2, 0, 0], [0, 0, -1, -2]]


def test_kron_row_major():
    a = from_dense([[1, 2], [3, 4]])
    b = from_dense([[0, 5], [6, 7]])
    k = a.kron(b)
    da, db = dense(a), dense(b)
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert k.entry(i1 * 2 + i2, j1 * 2 + j2) == da[i1][j1] * db[i2][j2]


def test_kron_mixed_shapes():
    a = from_dense([[1, 2, 3]])  # 3 -> 1
    b = from_dense([[1], [2]])  # 1 -> 2
    k = a.kron(b)
    assert (k.dom_dim, k.cod_dim) == (3, 2)


def test_entry_bounds_checked():
    with pytest.raises(DimensionError):
        SparseMap(2, 2, {(2, 0): F(1)})


def test_entries_stored_as_ints_over_one_den():
    # ints and Fractions are cleared to int numerators over their least
    # common denominator; zeros are dropped
    m = SparseMap(2, 2, {(0, 0): 3, (0, 1): F(1, 2), (1, 0): F(0), (1, 1): F(2, 3)})
    assert (m.entries, m.den) == ({(0, 0): 18, (0, 1): 3, (1, 1): 4}, 6)
    assert all(type(v) is int for v in m.entries.values())
    assert m.entry(0, 1) == F(1, 2) and type(m.entry(0, 1)) is F
    cols = SparseMap.from_columns(2, 2, {0: {1: 2, 0: 0}})
    assert (cols.entries, cols.den) == ({(1, 0): 2}, 1)
    # results cancel the common factor, so equal values mean equal maps
    half = SparseMap(2, 1, {(0, 0): F(1, 2), (0, 1): F(3, 2)})
    assert (half.scaled(2).entries, half.scaled(2).den) == ({(0, 0): 1, (0, 1): 3}, 1)
    assert half.scaled(F(2, 3)) == SparseMap(2, 1, {(0, 0): F(1, 3), (0, 1): 1})
    assert (half - half).den == 1 and (half - half).is_zero()


def test_floats_are_refused_not_read_as_binary_fractions():
    # 0.1 would be stored as 3602879701896397/2**55
    m = SparseMap(1, 1, {(0, 0): 1})
    with pytest.raises(TypeError):
        SparseMap(1, 1, {(0, 0): 0.1})
    with pytest.raises(TypeError):
        m.add(m, 0.1)
    with pytest.raises(TypeError):
        Subspace.zero(2).insert({0: 0.5})
    # (7/10, 3/10) lies in this span, but 0.7 and 0.3 are binary fractions
    span = Subspace.from_vectors(2, [{0: F(1, 3), 1: F(1, 7)}])
    assert span.contains({0: F(7, 10), 1: F(3, 10)})
    for probe in (span.residue, span.contains, span.coordinates_of):
        with pytest.raises(TypeError):
            probe({0: 0.7, 1: 0.3})


# ---------------------------------------------------------------------------
# rank / kernel / image vs the dense oracle


@pytest.mark.parametrize("rows", MATS + RECT)
def test_rank_matches_naive(rows):
    m = from_dense(rows)
    assert m.rank() == naive_rank(m)


@pytest.mark.parametrize("rows", MATS + RECT)
def test_rank_nullity(rows):
    m = from_dense(rows)
    assert m.rank() + m.kernel().dim == m.dom_dim


@pytest.mark.parametrize("rows", MATS + RECT)
def test_kernel_vectors_are_killed(rows):
    m = from_dense(rows)
    ker = m.kernel()
    for v in ker.vectors:
        assert m.apply(v) == {}


@pytest.mark.parametrize("rows", MATS + RECT)
def test_image_dim_is_rank(rows):
    m = from_dense(rows)
    img = m.image()
    assert img.dim == m.rank()
    for c in range(m.dom_dim):
        assert img.contains(m.column(c))


def test_image_echelon_canonical():
    # two different spanning sets of the same plane give equal Subspace
    a = from_dense([[1, 1], [0, 2], [1, 3]])
    b = from_dense([[2, 1], [2, -1], [4, 0]])
    assert a.image() == b.image()


# ---------------------------------------------------------------------------
# Subspace algebra


def test_subspace_rcef_shape():
    s = Subspace.from_vectors(3, [{0: F(2), 1: F(4)}, {1: F(1), 2: F(1)}])
    assert s.pivots == sorted(s.pivots)
    for v, p in zip(s.vectors, s.pivots):
        assert v[p] == 1
        assert p == max(v)
        for q in s.pivots:
            if q != p:
                assert q not in v


def test_contains_and_coordinates():
    s = Subspace.from_vectors(4, [{0: F(1), 3: F(1)}, {1: F(1), 3: F(-1)}])
    v = {0: F(2), 1: F(3), 3: F(-1)}
    assert s.contains(v)
    coords = s.coordinates_of(v)
    rebuilt = {}
    for c, b in zip(coords, s.vectors):
        for i, x in b.items():
            rebuilt[i] = rebuilt.get(i, F(0)) + c * x
    assert {i: x for i, x in rebuilt.items() if x} == v
    assert s.coordinates_of({2: F(1)}) is None


def test_reduce_keeps_its_input_and_insert_returns_the_new_vector():
    # the basis vector (1/2, 1, 0) is stored as numerators (1, 2) over den 2
    s = Subspace.from_vectors(3, [{0: F(1), 1: F(2)}])
    assert (s.nums, s.den, s.pivots) == ([{0: 1, 1: 2}], 2, [1])
    # the residue is den*vec - vec[1]*nums[0] = 2*(1, 2, 3) - 2*(1, 2, 0)
    vec = {0: F(1), 1: F(2), 2: F(3)}
    assert s.residue(vec) == {2: F(6)}
    assert vec == {0: F(1), 1: F(2), 2: F(3)}
    ints = {0: 1, 1: 2, 2: 3}
    r = s.residue(ints)
    assert r == {2: 6} and all(type(x) is int for x in r.values())
    assert ints == {0: 1, 1: 2, 2: 3}
    new = s.insert(vec)
    assert new == {2: 2} and new is s.nums[1]
    assert s.vectors == [{0: F(1, 2), 1: F(1)}, {2: F(1)}]
    assert s.insert({0: F(2), 1: F(4)}) is None
    assert s.insert({0: 2, 1: 4, 2: -7}) is None
    assert (s.pivots, s.den) == ([1, 2], 2)


def test_sum_and_intersect():
    a = Subspace.from_vectors(3, [{0: F(1)}, {1: F(1)}])
    b = Subspace.from_vectors(3, [{1: F(1)}, {2: F(1)}])
    assert subspace_sum(a, b).dim == 3
    cap = a.intersect(b)
    assert cap.dim == 1
    assert cap.contains({1: F(1)})


def test_intersect_dim_formula():
    # dim(A+B) + dim(A cap B) == dim A + dim B on a random-ish pair
    a = Subspace.from_vectors(5, [{0: F(1), 2: F(2)}, {1: F(1), 4: F(1)}, {3: F(1)}])
    b = Subspace.from_vectors(5, [{0: F(1), 2: F(2)}, {2: F(1), 3: F(5)}])
    s = subspace_sum(a, b)
    c = a.intersect(b)
    assert s.dim + c.dim == a.dim + b.dim
    for v in c.vectors:
        assert a.contains(v) and b.contains(v)


def test_complement_of():
    w = Subspace.from_vectors(4, [{0: F(1)}, {1: F(1)}, {2: F(1), 3: F(2)}])
    u = Subspace.from_vectors(4, [{0: F(1), 1: F(1)}])
    comp = w.complement_of(u)
    assert comp.dim == w.dim - u.dim
    assert subspace_sum(u, comp) == w
    assert u.intersect(comp).dim == 0


def test_complement_requires_containment():
    w = Subspace.from_vectors(3, [{0: F(1)}])
    u = Subspace.from_vectors(3, [{1: F(1)}])
    with pytest.raises(SubspaceError):
        w.complement_of(u)


def test_ambient_mismatch():
    a = Subspace.from_vectors(3, [{0: F(1)}])
    b = Subspace.from_vectors(4, [{0: F(1)}])
    with pytest.raises(SubspaceError):
        subspace_sum(a, b)


# ---------------------------------------------------------------------------
# restrict


def test_restrict_diagonal_block():
    m = from_dense([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    s = Subspace.from_vectors(3, [{0: F(1)}, {2: F(1)}])
    r = m.restrict(s, s)
    assert dense(r) == [[F(2), F(0)], [F(0), F(5)]]


def test_restrict_failure_has_witness():
    m = from_dense([[0, 1], [1, 0]])  # swap
    s = Subspace.from_vectors(2, [{0: F(1)}])
    with pytest.raises(RestrictionError) as ei:
        m.restrict(s, s)
    w = ei.value.witness
    assert w is not None
    assert w["index"] == 0
    assert m.apply(w["vector"]) == w["image"]
    assert not s.contains(w["image"])


def test_restrict_witness_is_the_first_column_that_leaves():
    # e0 stays inside span(e0, e1 + e2); e1 -> e1 and e2 -> e1 + 2 e2 leave
    m = from_dense([[1, 0, 0], [0, 1, 1], [0, 0, 2]])
    dom = Subspace.full(3)
    cod = Subspace.from_vectors(3, [{0: F(1)}, {1: F(1), 2: F(1)}])
    with pytest.raises(RestrictionError) as ei:
        m.restrict(dom, cod)
    assert ei.value.witness == {"index": 1, "vector": {1: F(1)}, "image": {1: F(1)}}


def test_restrict_certifies_an_image_whose_basis_terms_cancel():
    # e1 + e2 = (e0 + e1) + (e2 - e0): the e0 terms cancel in the certificate
    m = from_dense([[0], [1], [1]])
    cod = Subspace.from_vectors(3, [{0: F(1), 1: F(1)}, {0: F(-1), 2: F(1)}])
    assert cod.pivots == [1, 2]
    assert dense(m.restrict(Subspace.full(1), cod)) == [[F(1)], [F(1)]]


def test_read_coordinates_refuses_an_extra_entry_off_the_pivots():
    # the third image has the pivot coordinates of b0 + b1 and one more
    # entry at index 2, which no basis vector meets: only the residue sees it
    cod = Subspace(4, [{0: 1, 1: 1}, {3: 1}], [1, 3])
    images = [{0: 1, 1: 1}, {0: 2, 1: 2, 3: -1}, {0: 1, 1: 1, 2: 7, 3: 1},
              {3: 1}]
    ent, bad = cod.read_coordinates(images)
    assert bad == 2
    assert ent == {(0, 0): 1, (0, 1): 2, (1, 1): -1, (0, 2): 1, (1, 2): 1}
    assert cod.read_coordinates(images[:2] + images[3:]) == (
        {(0, 0): 1, (0, 1): 2, (1, 1): -1, (1, 2): 1}, None)


def test_restrict_then_apply_commutes():
    m = from_dense([[1, 1, 0], [0, 1, 0], [0, 0, 4]])
    dom = Subspace.from_vectors(3, [{0: F(1)}, {1: F(1)}])
    r = m.restrict(dom, dom)
    v = {0: F(2), 1: F(-3)}
    coords = dom.coordinates_of(v)
    rc = r.apply({i: c for i, c in enumerate(coords) if c})
    lifted = {}
    for i, c in rc.items():
        for j, x in dom.vectors[i].items():
            lifted[j] = lifted.get(j, F(0)) + c * x
    lifted = {k: v2 for k, v2 in lifted.items() if v2}
    assert lifted == m.apply(v)


# ---------------------------------------------------------------------------
# char poly and spectra


@pytest.mark.parametrize("rows", MATS)
def test_char_poly_matches_interpolated_det(rows):
    m = from_dense(rows)
    assert m.char_poly() == naive_char_poly(m)


@pytest.mark.parametrize("rows", MATS)
def test_cayley_hamilton(rows):
    m = from_dense(rows)
    p = m.char_poly()
    n = m.dom_dim
    acc = SparseMap.zero(n, n)
    power = SparseMap.identity(n)
    for c in p:
        acc = acc + c * power
        power = power @ m
    assert acc.is_zero()


def test_char_poly_ascending_monic():
    m = from_dense([[1, 2], [3, 4]])
    p = m.char_poly()
    # t^2 - 5t - 2
    assert p == [F(-2), F(-5), F(1)]


def test_spectrum_diagonal():
    m = from_dense([[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    s = m.rational_spectrum()
    assert s.pairs == ((F(2), 2, 2), (F(3), 1, 1))
    assert s.diagonalizable


def test_spectrum_jordan_block():
    m = from_dense([[2, 1], [0, 2]])
    s = m.rational_spectrum()
    assert s.pairs == ((F(2), 2, 1),)
    assert not s.diagonalizable


def test_spectrum_with_zero_and_fractions():
    m = from_dense([[0, 0], [0, F(3, 4)]])
    s = m.rational_spectrum()
    assert s.pairs == ((F(0), 1, 1), (F(3, 4), 1, 1))
    assert s.diagonalizable


def test_spectrum_irrational_raises():
    m = from_dense([[0, 2], [1, 0]])  # eigenvalues +-sqrt(2)
    with pytest.raises(SpectrumError):
        m.rational_spectrum()


def test_spectrum_rotation_raises():
    m = from_dense([[0, -1], [1, 0]])  # complex spectrum
    with pytest.raises(SpectrumError):
        m.rational_spectrum()


def test_spectrum_rejects_a_geometric_multiplicity_out_of_range(monkeypatch):
    m = from_dense([[2, 0], [0, 3]])
    monkeypatch.setattr(SparseMap, "rank", lambda self: self.dom_dim)
    with pytest.raises(SpectrumError) as exc:
        m.rational_spectrum()
    assert exc.value.witness == {"eigenvalue": F(2), "alg": 1, "geo": 0}


# ---------------------------------------------------------------------------
# serialization


def test_triples_roundtrip():
    m = from_dense([[F(1, 3), 0], [0, F(-7, 2)]])
    t = m.to_triples()
    back = from_triples(t)
    assert back == m
    # canonical order and string encoding
    assert t["entries"] == sorted(t["entries"], key=lambda e: (int(e[0]), int(e[1])))
    for r, c, num, den in t["entries"]:
        assert isinstance(num, str) and isinstance(den, str)


# ---------------------------------------------------------------------------
# hypothesis properties


@st.composite
def maps_of_shape(draw, dom, cod):
    """A dom -> cod map whose entries have mixed denominators, times a
    factor drawn apart, so that two draws rarely share a den."""
    ent = {}
    for _ in range(draw(st.integers(0, min(10, dom * cod)))):
        r = draw(st.integers(0, cod - 1))
        c = draw(st.integers(0, dom - 1))
        ent[(r, c)] = F(draw(st.integers(-9, 9)),
                        draw(st.sampled_from([1, 2, 3, 4, 6, 9, 10])))
    factor = draw(st.sampled_from([F(1), F(1, 5), F(6, 7), F(-3, 8)]))
    return SparseMap(dom, cod, ent).scaled(factor)


@st.composite
def sparse_maps(draw, max_dim=5):
    return draw(maps_of_shape(draw(st.integers(0, max_dim)),
                              draw(st.integers(0, max_dim))))


@given(sparse_maps())
@settings(max_examples=60, deadline=None)
def test_prop_rank_nullity(m):
    # rank reduces the columns and kernel the reversed rows, both through
    # Subspace.insert; each is pinned to the dense oracle, not to the other
    rank = naive_rank(m)
    assert m.rank() == rank
    ker = m.kernel()
    assert ker.dim == m.dom_dim - rank
    for v in ker.vectors:
        assert all(type(x) is F for x in v.values())
        assert m.apply(v) == {} and dense_apply(m, v) == {}


@given(sparse_maps())
@settings(max_examples=60, deadline=None)
def test_prop_kernel_is_canonical(m):
    # the kernel read off the reduced reversed rows is already the reduced
    # echelon basis that from_vectors would build, each vector pivoted on
    # its largest index
    ker = m.kernel()
    assert_canonical_subspace(ker)
    assert_canonical_subspace(m.image())
    assert ker == Subspace.from_vectors(m.dom_dim, ker.vectors)
    for v, p in zip(ker.vectors, ker.pivots):
        assert p == max(v)


def dense_null_space(m):
    """A null-space basis read off the dense RREF: one vector per free
    column f, 1 at f and minus the pivot rows' entries at f."""
    rows, pivots = naive_rref(dense(m))
    out = []
    for f in range(m.dom_dim):
        if f not in pivots:
            v = {f: F(1)}
            for row, q in zip(rows, pivots):
                if row[f]:
                    v[q] = -row[f]
            out.append(v)
    return out


@given(sparse_maps())
@settings(max_examples=80, deadline=None)
def test_prop_kernel_and_rank_match_dense(m):
    # pivot for pivot: the kernel equals the canonical span of a dense
    # null-space basis, and the rank is the dense one
    ker = m.kernel()
    assert (ker.vectors, ker.pivots) == dense_span(m.dom_dim, dense_null_space(m))
    assert m.rank() == naive_rank(m)


def annihilated(m, eigenvalues):
    """Whether the product of (M - lambda) over the eigenvalues is zero."""
    eye = SparseMap.identity(m.dom_dim)
    prod = eye
    for lam in eigenvalues:
        prod = (m - lam * eye) @ prod
    return prod.is_zero()


@st.composite
def upper_triangular(draw, max_dim=5):
    n = draw(st.integers(1, max_dim))
    diag = draw(st.lists(st.sampled_from([F(0), F(1), F(-2), F(3, 2)]),
                         min_size=n, max_size=n))
    ent = {(i, i): lam for i, lam in enumerate(diag)}
    for i in range(n):
        for j in range(i + 1, n):
            ent[(i, j)] = F(draw(st.sampled_from([0, 0, 1, -1, 2])))
    return SparseMap(n, n, ent)


@given(upper_triangular(), st.sets(st.sampled_from([F(5), F(-1, 3)]), max_size=1))
@settings(max_examples=80, deadline=None)
def test_prop_diagonalizable_iff_annihilated(m, extra):
    # the spectrum is the diagonal; the matrix is diagonalizable exactly when
    # the product over its distinct eigenvalues vanishes
    diag = [m.entry(i, i) for i in range(m.dom_dim)]
    alg = {lam: diag.count(lam) for lam in diag}
    diagonalizable = annihilated(m, set(alg))
    spec = m.rational_spectrum()
    assert spec.diagonalizable == diagonalizable
    assert {lam: a for lam, a, _ in spec.pairs} == alg
    rep = verify_spectrum([m], m.dom_dim, frozenset(alg) | extra, None, "x", ())
    assert rep.diagonalizable == diagonalizable
    assert dict(rep.eigenvalues) == alg
    assert rep.matches_derived == (diagonalizable and not extra)


@st.composite
def conjugated_triangular(draw, max_dim=5):
    """(U T U^-1, diagonal of T): T rational upper triangular with a diagonal
    that may repeat, U a product of integer elementary matrices I + c*e_ij,
    whose inverses are the I - c*e_ij in reverse order."""
    n = draw(st.integers(1, max_dim))
    values = st.sampled_from([F(0), F(1), F(-2), F(3, 2), F(-7, 3), F(12)])
    diag = draw(st.lists(values, min_size=n, max_size=n))
    ent = {(i, i): lam for i, lam in enumerate(diag)}
    for i in range(n):
        for j in range(i + 1, n):
            ent[(i, j)] = draw(st.sampled_from([F(0), F(0), F(1), F(-1, 2)]))
    m = SparseMap(n, n, ent)
    eye = SparseMap.identity(n)
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        c = draw(st.sampled_from([1, -1, 2, -3]))
        e = SparseMap(n, n, {(i, j): c})
        m = (eye + e) @ m @ (eye - e)
    return m, diag


@given(conjugated_triangular())
@settings(max_examples=80, deadline=None)
def test_prop_spectrum_of_a_conjugated_triangular_matrix(case):
    # independent of rational_spectrum: the eigenvalues of U T U^-1 are the
    # diagonal of T, and it is diagonalizable exactly when the product over
    # the distinct ones vanishes
    m, diag = case
    spec = m.rational_spectrum()
    assert {lam: alg for lam, alg, _ in spec.pairs} == {
        lam: diag.count(lam) for lam in diag}
    assert spec.diagonalizable == annihilated(m, set(diag))


def test_spectrum_finds_a_large_integer_root():
    assert SparseMap(1, 1, {(0, 0): 10**7}).rational_spectrum().pairs == (
        (F(10**7), 1, 1),)


def test_spectrum_finds_a_root_through_its_co_divisor():
    # the numerator 10**12 + 39 is the co-divisor of e = 1; the search stops
    # once the polynomial is used up
    lam = F(10**12 + 39, 7)
    assert SparseMap(1, 1, {(0, 0): lam}).rational_spectrum().pairs == (
        (lam, 1, 1),)


def test_spectrum_refuses_a_search_past_the_cap(monkeypatch):
    # eigenvalues +-sqrt(10**13): the search would need isqrt(10**13) trial
    # divisions, so it is refused before any candidate is tried
    def no_search(coeffs, root):
        raise AssertionError("root search started")

    monkeypatch.setattr(linalg, "_deflate", no_search)
    m = SparseMap(2, 2, {(0, 1): 10**13, (1, 0): 1})
    t0 = time.perf_counter()
    with pytest.raises(SpectrumError, match=str(isqrt(10**13))) as exc:
        m.rational_spectrum()
    assert time.perf_counter() - t0 < 1
    assert exc.value.witness == {"trial_divisions": isqrt(10**13)}
    assert isqrt(10**13) > linalg.MAX_TRIAL_DIVISIONS


@given(sparse_maps(max_dim=4), st.data())
@settings(max_examples=80, deadline=None)
def test_prop_lift_matches_the_kron_oracle(m, data):
    left = data.draw(st.integers(0, 3))
    right = data.draw(st.integers(0, 3))
    parities = data.draw(st.none() | st.lists(
        st.integers(0, 1), min_size=left, max_size=left))
    signs = SparseMap(left, left, {
        (a, a): -1 if parities and parities[a] else 1 for a in range(left)})
    oracle = signs.kron(m).kron(SparseMap.identity(right))
    assert m.lift(left, right, parities) == oracle


@given(sparse_maps())
@settings(max_examples=60, deadline=None)
def test_prop_rank_transpose(m):
    assert m.rank() == transpose(m).rank()


@given(sparse_maps(max_dim=4))
@settings(max_examples=40, deadline=None)
def test_prop_cayley_hamilton(m):
    if m.dom_dim != m.cod_dim:
        return
    p = m.char_poly()
    acc = SparseMap.zero(m.dom_dim, m.dom_dim)
    power = SparseMap.identity(m.dom_dim)
    for c in p:
        acc = acc + c * power
        power = power @ m
    assert acc.is_zero()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prop_numerator_blocks_keep_joint_kernels_and_summed_images(data):
    # the stacking oracle of xdanh_by_composition: blocks stacked in rows
    # meet in the intersection of the kernels, and blocks side by side span
    # the sum of the images, whatever the dens
    n, r1, r2 = data.draw(DIMS), data.draw(DIMS), data.draw(DIMS)
    a, b = data.draw(maps_of_shape(n, r1)), data.draw(maps_of_shape(n, r2))
    rows = numerator_blocks(n, r1 + r2, [(0, 0, a), (r1, 0, b)])
    assert rows.den == 1 and rows.kernel() == a.kernel().intersect(b.kernel())
    c1, c2 = data.draw(DIMS), data.draw(DIMS)
    a, b = data.draw(maps_of_shape(c1, n)), data.draw(maps_of_shape(c2, n))
    cols = numerator_blocks(c1 + c2, n, [(0, 0, a), (0, c1, b)])
    assert cols.image() == subspace_sum(a.image(), b.image())
    assert cols.rank() == naive_rank(cols)


def test_numerator_blocks_refuse_a_block_that_does_not_fit():
    m = SparseMap.identity(2)
    assert numerator_blocks(2, 4, [(2, 0, m)]).entries == {
        (2, 0): 1, (3, 1): 1}
    for row, col in ((3, 0), (0, 1), (-1, 0)):
        with pytest.raises(DimensionError):
            numerator_blocks(2, 4, [(row, col, m)])


@given(sparse_maps(), sparse_maps())
@settings(max_examples=40, deadline=None)
def test_prop_kron_rank_multiplicative(a, b):
    assert a.kron(b).rank() == a.rank() * b.rank()


# ---------------------------------------------------------------------------
# ints over one den, pinned to dense Fraction arithmetic


DIMS = st.integers(0, 4)
SCALES = st.sampled_from([F(0), F(1), F(-1), F(3), F(1, 2), F(-2, 3), F(5, 6)])


@st.composite
def sparse_vectors(draw, dim):
    vec = {}
    for _ in range(draw(st.integers(0, dim))):
        x = F(draw(st.integers(-5, 5)), draw(st.integers(1, 6)))
        if x:
            vec[draw(st.integers(0, dim - 1))] = x
    return vec


def assert_canonical(m):
    assert type(m.den) is int and m.den > 0
    assert all(type(v) is int and v for v in m.entries.values())
    assert gcd(m.den, *m.entries.values()) == 1
    assert all(0 <= r < m.cod_dim and 0 <= c < m.dom_dim for r, c in m.entries)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prop_compose_matches_dense(data):
    r, k, c = data.draw(DIMS), data.draw(DIMS), data.draw(DIMS)
    a, b = data.draw(maps_of_shape(k, r)), data.draw(maps_of_shape(c, k))
    ab = a @ b
    assert_canonical(ab)
    assert dense(ab) == dense_compose(a, b)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prop_add_sub_scaled_match_dense(data):
    dom, cod = data.draw(DIMS), data.draw(DIMS)
    a, b = data.draw(maps_of_shape(dom, cod)), data.draw(maps_of_shape(dom, cod))
    s = data.draw(SCALES)
    for got, expect in (
        (a + b, dense_add(a, b)),
        (a - b, dense_add(a, b, F(-1))),
        (a.add(b, s), dense_add(a, b, s)),
        (a.scaled(s), [[s * x for x in row] for row in dense(a)]),
    ):
        assert_canonical(got)
        assert dense(got) == expect
    assert (a - a).is_zero() and (a - a).den == 1


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prop_kron_and_lift_match_dense(data):
    a, b = data.draw(sparse_maps(4)), data.draw(sparse_maps(4))
    k = a.kron(b)
    assert_canonical(k)
    assert dense(k) == dense_kron(a, b)
    left, right = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    parities = data.draw(st.none() | st.lists(
        st.integers(0, 1), min_size=left, max_size=left))
    lifted = a.lift(left, right, parities)
    assert_canonical(lifted)
    assert dense(lifted) == dense_lift(a, left, right, parities)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prop_lifted_apply_matches_the_lift(data):
    # apply_numerators with a right factor reads the left copy off each
    # index and gives den times the image under the lift, building none
    dom, cod = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    m = data.draw(maps_of_shape(dom, cod).filter(lambda m: m.den != 1))
    left, right = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    vec = data.draw(sparse_vectors(left * dom * right))
    got = m.apply_numerators(vec, right=right)
    lifted = m.lift(left=left, right=right)
    assert dense(lifted) == dense_lift(m, left, right)
    assert got == lifted.apply_numerators(vec)
    assert {i: x / m.den for i, x in got.items()} == dense_apply(lifted, vec)
    ints = m.apply_numerators({i: x.numerator for i, x in vec.items()}, right)
    assert all(type(x) is int for x in ints.values())


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prop_apply_and_restrict_match_dense(data):
    dom, cod = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    m = data.draw(maps_of_shape(dom, cod))
    vec = data.draw(sparse_vectors(dom))
    image = m.apply(vec)
    assert image == dense_apply(m, vec)
    assert all(type(x) is F for x in image.values())
    sub = Subspace.from_vectors(dom, data.draw(st.lists(sparse_vectors(dom), max_size=3)))
    for target in (m.image(), Subspace.full(cod)):
        r = m.restrict(sub, target)
        assert_canonical(r)
        for j, b in enumerate(sub.vectors):
            back = {}
            for i, t in enumerate(target.vectors):
                for row, x in t.items():
                    back[row] = back.get(row, F(0)) + r.entry(i, j) * x
            assert {i: x for i, x in back.items() if x} == dense_apply(m, b)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prop_subspace_lift_is_the_echelon_form_of_the_lifted_basis(data):
    # id_left (x) span (x) id_right, re-indexed with no elimination, equals
    # the reduced echelon basis eliminated from the lifted basis vectors
    n = data.draw(st.integers(1, 4))
    sub = Subspace.from_vectors(n, data.draw(st.lists(sparse_vectors(n), max_size=3)))
    left, right = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    cols = sub.basis_matrix().lift(left, right).columns()
    assert sub.lift(left, right) == Subspace.from_vectors(
        n * left * right, [cols[c] for c in sorted(cols)])


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_prop_trace_char_poly_entry_and_triples_match_dense(data):
    n = data.draw(DIMS)
    m = data.draw(maps_of_shape(n, n))
    d = dense(m)
    assert m.trace() == sum((d[i][i] for i in range(n)), F(0))
    assert type(m.trace()) is F
    assert m.char_poly() == naive_char_poly(m)
    for r in range(n):
        for c in range(n):
            assert m.entry(r, c) == d[r][c] and type(m.entry(r, c)) is F
    expect = [[str(r), str(c), str(d[r][c].numerator), str(d[r][c].denominator)]
              for r in range(n) for c in range(n) if d[r][c]]
    assert m.to_triples()["entries"] == expect
    back = from_triples(m.to_triples())
    assert_canonical(back)
    assert back == m and back.den == m.den


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prop_every_result_is_canonical(data):
    # den > 0, int numerators with no common factor with it: so == on
    # (entries, den) is equality of values, whatever route built the map
    dom, cod = data.draw(DIMS), data.draw(DIMS)
    a, b = data.draw(maps_of_shape(dom, cod)), data.draw(maps_of_shape(dom, cod))
    s = data.draw(SCALES)
    results = [a, a + b, a - b, a.add(b, s), a.scaled(s), a.kron(b),
               a.lift(2, 2, [0, 1]), transpose(a), transpose(a) @ a,
               SparseMap.combination(dom, cod, [(1, a), (-2, b), (3, a)]),
               SparseMap.identity(dom), SparseMap.zero(dom, cod)]
    for m in results:
        assert_canonical(m)
    assert a.add(b, s) == a + s * b
    assert SparseMap.combination(dom, cod, [(1, a), (-2, b), (3, a)]) == (
        a.scaled(4) - b.scaled(2))
    # rational coefficients, zero and negative ones included, against the
    # dense sum; a term may cancel the ones before it
    terms = [(data.draw(SCALES), m) for m in (a, b, a, b)]
    comb = SparseMap.combination(dom, cod, terms)
    assert_canonical(comb)
    want = [[F(0)] * dom for _ in range(cod)]
    for c, m in terms:
        want = [[x + c * y for x, y in zip(rw, rm)] for rw, rm in zip(want, dense(m))]
    assert dense(comb) == want


# ---------------------------------------------------------------------------
# Subspace bases as ints over one den, pinned to the dense Fraction RREF


def assert_canonical_subspace(s):
    # den > 0 with no common factor, each vector pivoted on its largest
    # index with numerator den there and zero at the other pivots
    assert type(s.den) is int and s.den > 0
    assert s.pivots == sorted(set(s.pivots)) and len(s.pivots) == s.dim
    assert all(type(x) is int and x for b in s.nums for x in b.values())
    assert gcd(s.den, *(x for b in s.nums for x in b.values())) == 1
    for b, p in zip(s.nums, s.pivots):
        assert max(b) == p and b[p] == s.den
        assert all(0 <= i < s.ambient_dim for i in b)
        assert not any(q in b for q in s.pivots if q != p)


def rank_of(dim, vecs):
    return len(dense_span(dim, vecs)[1])


def combination(coeffs, vecs):
    out = {}
    for c, v in zip(coeffs, vecs):
        for i, x in v.items():
            out[i] = out.get(i, F(0)) + c * x
    return {i: x for i, x in out.items() if x}


@st.composite
def spans(draw, dim, max_size=4):
    return draw(st.lists(sparse_vectors(dim), max_size=max_size))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_prop_from_vectors_and_insert_match_dense(data):
    dim = data.draw(st.integers(1, 5))
    vecs = data.draw(spans(dim, 5))
    s = Subspace.zero(dim)
    for k, v in enumerate(vecs):
        new = s.insert(v)
        assert (new is None) == (rank_of(dim, vecs[:k + 1]) == rank_of(dim, vecs[:k]))
        if new is not None:
            assert new is s.nums[s.pivots.index(max(new))]
        assert_canonical_subspace(s)
        assert (s.vectors, s.pivots) == dense_span(dim, vecs[:k + 1])
    assert s == Subspace.from_vectors(dim, vecs)
    # clearing Fraction input to ints spans the same line
    assert s == Subspace.from_vectors(
        dim, [{i: x * 60 for i, x in v.items()} for v in vecs])


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_prop_contains_residue_and_coordinates_match_dense(data):
    dim = data.draw(st.integers(1, 5))
    vecs = data.draw(spans(dim))
    s = Subspace.from_vectors(dim, vecs)
    basis, pivots = dense_span(dim, vecs)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=s.dim, max_size=s.dim))
    inside = combination(coeffs, basis)
    for vec in (inside, data.draw(sparse_vectors(dim))):
        member = rank_of(dim, vecs + [vec]) == s.dim
        assert s.contains(vec) == member
        off = combination([1] + [-vec.get(p, 0) for p in pivots], [vec] + basis)
        assert s.residue(vec) == {i: s.den * x for i, x in off.items()}
        coords = s.coordinates_of(vec)
        if member:
            assert combination(coords, basis) == vec
        else:
            assert coords is None
        k = lcm(*(x.denominator for x in vec.values()))
        ints = {i: x.numerator * (k // x.denominator) for i, x in vec.items()}
        assert all(type(x) is int for x in s.residue(ints).values())
        assert s.contains(ints) == member
    assert s.coordinates_of(inside) == coeffs


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prop_basis_matrix_holds_the_basis(data):
    dim = data.draw(st.integers(0, 5))
    s = Subspace.from_vectors(dim, data.draw(spans(dim)) if dim else [])
    m = s.basis_matrix()
    assert_canonical(m)
    assert (m.dom_dim, m.cod_dim, m.den) == (s.dim, dim, s.den)
    assert [m.column(j) for j in range(s.dim)] == s.vectors


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_prop_intersect_matches_dense(data):
    dim = data.draw(st.integers(1, 5))
    avecs, bvecs = data.draw(spans(dim)), data.draw(spans(dim))
    a, b = Subspace.from_vectors(dim, avecs), Subspace.from_vectors(dim, bvecs)
    cap = a.intersect(b)
    assert_canonical_subspace(cap)
    # inside both, with dim A + dim B - dim(A + B): so it is A cap B
    assert cap.dim == a.dim + b.dim - rank_of(dim, avecs + bvecs)
    assert all(a.contains(v) and b.contains(v) for v in cap.vectors)
    assert (cap.vectors, cap.pivots) == dense_span(dim, cap.vectors)
    assert cap == b.intersect(a)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_prop_complement_of_matches_dense(data):
    dim = data.draw(st.integers(1, 5))
    w = Subspace.from_vectors(dim, data.draw(spans(dim)))
    inner_vecs = [
        combination(data.draw(st.lists(st.integers(-2, 2), min_size=w.dim,
                                       max_size=w.dim)), w.vectors)
        for _ in range(data.draw(st.integers(0, 3)))]
    inner = Subspace.from_vectors(dim, inner_vecs)
    comp = w.complement_of(inner)
    assert_canonical_subspace(comp)
    # a subset of w's basis that completes inner to w
    assert all(v in w.vectors for v in comp.vectors)
    assert comp.dim == w.dim - inner.dim
    assert rank_of(dim, inner_vecs + comp.vectors) == w.dim
    outside = data.draw(sparse_vectors(dim))
    if not w.contains(outside):
        with pytest.raises(SubspaceError):
            w.complement_of(Subspace.from_vectors(dim, [outside]))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_prop_split_join_round_trip(data):
    weights = data.draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=6))
    dim = len(weights)
    vecs = []
    for v in data.draw(spans(dim)):
        w = data.draw(st.sampled_from(weights))
        vecs.append({i: x for i, x in v.items() if weights[i] == w})
    s = Subspace.from_vectors(dim, vecs)
    parts = split(s, weights)
    for local, idx in parts.values():
        assert_canonical_subspace(local)
        glob = [{idx[i]: x for i, x in v.items()} for v in local.vectors]
        assert all(v in s.vectors for v in glob)
    back = join(dim, parts.values())
    assert_canonical_subspace(back)
    assert back == s


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_prop_restrict_witness_is_the_first_column_that_leaves(data):
    dom, cod = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    m = data.draw(maps_of_shape(dom, cod))
    sub = Subspace.from_vectors(dom, data.draw(spans(dom)))
    target = Subspace.from_vectors(cod, data.draw(spans(cod)))
    images = [dense_apply(m, b) for b in sub.vectors]
    leaving = [j for j, img in enumerate(images)
               if rank_of(cod, target.vectors + [img]) > target.dim]
    if not leaving:
        r = m.restrict(sub, target)
        for j, img in enumerate(images):
            assert combination([r.entry(i, j) for i in range(target.dim)],
                               target.vectors) == img
        return
    with pytest.raises(RestrictionError) as exc:
        m.restrict(sub, target)
    w = exc.value.witness
    assert w["index"] == leaving[0]
    assert w["vector"] == sub.vectors[leaving[0]]
    assert w["image"] == images[leaving[0]]
