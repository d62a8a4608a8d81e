"""Generator actions, equivariance, and the named module constructions.

Numeric values below (dims, highest weights, singular counts) were frozen
from exact construction runs; highest weights are internal exponent tuples,
so the fourth entry is the negative of the label coordinate.
"""

from fractions import Fraction

import pytest

from superkoszul import glrep, harness, koszul
from superkoszul.glrep import (
    Constructor,
    GLAction,
    GLModule,
    ModuleError,
    ambient_module,
    berezinian_twist,
    check_equivariance,
    dual_module,
    even_raising_pairs,
    generator_matrix,
    module_from_subspace,
    quotient_module,
    raising_pairs,
    simple_pairs,
)
from oracles import (
    OTHER_PROP2_CELLS,
    ambient_z_module,
    equivariance_at_spot,
    equivariance_failures,
    full_action,
    highest_weight,
    irreducible_three_legs,
    kron_sum_on_product,
    product_matrix_by_combination,
    singular_space,
    submodule_closure,
    supercommutator_check,
    supercommutator_failures,
    tensor_modules,
    word_generator_matrix,
    xdanh_splitting,
    z_summand_on_the_spot,
)
from superkoszul.harness import build_module
from superkoszul.koszul import (
    KoszulContext,
    Spot,
    idle_field,
    op_applicable,
    op_target,
)
from superkoszul.linalg import RestrictionError, SparseMap, Subspace
from superkoszul.superspace import (
    GradedSpan,
    ProductSpace,
    SuperSpace,
    blocked_image,
    is_dominant,
    power_basis,
)

F = Fraction


@pytest.fixture(scope="module")
def ctx():
    return KoszulContext(SuperSpace(3, 1))


@pytest.fixture(scope="module")
def act(ctx):
    return GLAction(ctx.space)


@pytest.fixture(scope="module")
def con(ctx):
    return Constructor(ctx)


@pytest.fixture
def origins(ctx, monkeypatch):
    """A fresh Constructor on the shared context, and the (product, basis,
    modulo) of every module it cuts out of an ambient product, in build
    order: what full_action restricts again.  A Constructor builds each ImD
    and Z module once, so on the shared one a module an earlier test built
    would leave no origin.

    A Z module acts on S_k (x) ImD(l,m), not on a product of power bases:
    its origin is its triple spot and Z on it (z_summand_on_the_spot), in
    place of the ImD module and the W it was built from.  A whole product
    (ambient_module) is recorded by the module_from_subspace spy, as the
    full subspace."""
    seen = []

    def spy(build, origin):
        def wrapped(act, *args):
            seen.append(origin(*args))
            return build(act, *args)
        return wrapped

    monkeypatch.setattr(glrep, "module_from_subspace", spy(
        glrep.module_from_subspace,
        lambda product, sub, name: (product, sub, None)))
    monkeypatch.setattr(glrep, "quotient_module", spy(
        glrep.quotient_module,
        lambda product, ker, im, name: (product, ker.complement_of(im), im)))
    zk = Constructor.zk

    def zk_on_the_spot(self, k, l, m):
        start = len(seen)
        mod = zk(self, k, l, m)
        if len(seen) > start:
            del seen[start:]
            seen.append((*z_summand_on_the_spot(self.ctx, k, l, m), None))
        return mod

    monkeypatch.setattr(Constructor, "zk", zk_on_the_spot)
    return Constructor(ctx), seen


CARTAN = [(j, j) for j in range(4)]
BEREZINIAN = (1, 1, 1, -1)


def assert_cartan_is_weight_grading(mats, mod, twists=0):
    """The restricted E_jj in mats act diagonally by the module's weights,
    less the weight of the berezinian lines it was twisted by."""
    for j in range(4):
        diag = {(i, i): w[j] - twists * BEREZINIAN[j]
                for i, w in enumerate(mod.weights)}
        assert mats[(j, j)] == SparseMap(mod.dim, mod.dim, diag), j


# ---------------------------------------------------------------------------
# single-basis generator matrices


def test_e12_is_matrix_unit(ctx):
    v = ctx.sym_basis(1)
    g = generator_matrix(v, 0, 1)
    assert g.entries == {(0, 1): F(1)}


def test_e44_on_dual_counts_odd_letters(ctx):
    s2d = ctx.dual_basis(2)
    g = generator_matrix(s2d, 3, 3)
    for i in range(s2d.dim):
        word = s2d.multisets[i]
        assert g.entry(i, i) == -word.count(3)
    assert all(r == c for (r, c) in g.entries)


@pytest.mark.parametrize("space,top", [(SuperSpace(3, 1), 4),
                                       (SuperSpace(2, 2), 3)],
                         ids=["3|1", "2|2"])
@pytest.mark.parametrize("kind", ["sym", "alt"])
@pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
def test_generator_matrix_matches_word_action(space, top, kind, dual):
    for degree in range(top + 1):
        basis = power_basis(space, kind, degree, dual)
        for i in range(space.dim):
            for j in range(space.dim):
                assert generator_matrix(basis, i, j) == word_generator_matrix(
                    basis, i, j), (degree, i, j)


def test_odd_anticommutator_on_v(ctx):
    v = ctx.sym_basis(1)
    e14 = generator_matrix(v, 0, 3)
    e41 = generator_matrix(v, 3, 0)
    lhs = e14 @ e41 + e41 @ e14
    rhs = generator_matrix(v, 0, 0) + generator_matrix(v, 3, 3)
    assert lhs == rhs


# products of one to three (kind, degree, dual) factors; every left part
# holds odd basis vectors, so the odd E_ij pick up crossing signs
PRODUCT_SHAPES = [
    (("sym", 2, False),),
    (("alt", 2, True),),
    (("alt", 1, False), ("sym", 1, True)),
    (("sym", 1, True), ("alt", 2, False)),
    (("sym", 1, False), ("alt", 1, False), ("sym", 1, True)),
    (("alt", 1, True), ("alt", 1, False), ("sym", 2, False)),
]


@pytest.mark.parametrize("space", [SuperSpace(3, 1), SuperSpace(2, 2)],
                         ids=["3|1", "2|2"])
@pytest.mark.parametrize("shape", PRODUCT_SHAPES, ids=lambda shape: ".".join(
    f"{kind}{deg}{'*' if dual else ''}" for kind, deg, dual in shape))
def test_on_product_matches_the_kron_sum(space, shape):
    act = GLAction(space)
    product = ProductSpace(*(power_basis(space, kind, deg, dual)
                             for kind, deg, dual in shape))
    for i in range(space.dim):
        for j in range(space.dim):
            got = act.on_product(product, i, j)
            assert got == kron_sum_on_product(act, product, i, j), (i, j)
            assert got == product_matrix_by_combination(
                act, product.factors, i, j), (i, j)


def test_cartan_on_a_product_acts_by_the_weights(ctx, act):
    # every factor's E_jj is diagonal, so the lifted terms overlap on the
    # diagonal and only their sum is the weight
    product = ctx.spot_space(Spot(1, 2, 1))
    weights = product.weights()
    for j in range(ctx.space.dim):
        assert act.on_product(product, j, j).entries == {
            (r, r): w[j] for r, w in enumerate(weights) if w[j]}


def test_supercommutators_on_mixed_ambient(ctx, act):
    assert supercommutator_check(act, ctx.spot_space(Spot(0, 1, 1))) == []


def test_supercommutators_on_dual_module(ctx, origins):
    con, seen = origins
    mod = con.y_summand(1, 1)
    full = GLModule(space=ctx.space, name="full",
                    gens=full_action(con.act, *seen[-1]),
                    weights=mod.weights, parities=mod.parities)
    full_dual = dual_module(full)
    assert supercommutator_failures(ctx.space, full_dual.gens) == []
    simple = {key: full_dual.gens[key] for key in simple_pairs(ctx.space)}
    assert dual_module(mod).gens == simple


def test_simple_pairs_follow_the_dimension():
    assert raising_pairs(SuperSpace(3, 1)) == ((0, 1), (1, 2), (2, 3))
    assert simple_pairs(SuperSpace(3, 1)) == (
        (0, 1), (1, 2), (2, 3), (1, 0), (2, 1), (3, 2))
    assert simple_pairs(SuperSpace(1, 1)) == ((0, 1), (1, 0))
    assert len(simple_pairs(SuperSpace(2, 2))) == 2 * (2 + 2 - 1)


FAMILY_CASES = [
    # (construction, params, berezinian twists): one small case per family
    ("h31", (), 0),
    ("imd", (1, 1), 0),
    ("y", (1, 1), 0),
    ("zk", (1, 2, 1), 0),
    ("mmp", (2, 1), 1),
    ("mfinal", (2, 1, 1), 1),
    ("ilambda", (2, 1), 0),
    ("ilambda", (2,), 0),
]


@pytest.mark.parametrize("name,params,twists", FAMILY_CASES)
def test_simple_generators_are_the_full_restriction(origins, name, params,
                                                    twists):
    # the oracle restricts all 16 E_ij: it raises if the module is not
    # invariant under some non-simple generator
    con, seen = origins
    mod = build_module(con, name, params)
    (origin,) = seen
    full = full_action(con.act, *origin)
    assert list(mod.gens) == list(simple_pairs(con.ctx.space))
    for key, g in mod.gens.items():
        assert g == full[key], key
    assert_cartan_is_weight_grading(full, mod, twists)


def z_args(params):
    """The zk parameters (k, l, m) of the prop2 splitting cell (i, k, a)."""
    i, k, a = params
    return i + 1, k, a + i + k + 1


# the nine Z modules of the constructions group, and the reducible Zk(1,2,0)
Z_CELLS = [
    *(((3, 1), klm) for klm in (
        (1, 2, 0), (1, 2, 1), (1, 2, 2), (1, 2, 3), (2, 2, 1), (2, 2, 2),
        (1, 3, 2), (1, 3, 3), (2, 3, 2), (2, 3, 3))),
    *((mn, z_args(params)) for mn, params in OTHER_PROP2_CELLS),
]


@pytest.fixture(scope="module")
def constructors():
    """One Constructor per alphabet, built on demand."""
    cons = {}

    def get(mn):
        if mn not in cons:
            cons[mn] = Constructor(KoszulContext(SuperSpace(*mn)))
        return cons[mn]

    return get


@pytest.mark.parametrize("mn,klm", Z_CELLS, ids=lambda x: "_".join(map(str, x)))
def test_a_z_module_is_its_restriction_from_the_whole_spot(constructors, mn,
                                                           klm):
    # E_S (x) 1 + sigma_S (x) E_ImD on S_k (x) ImD(l,m), restricted to Z in
    # W's coordinates, against every generator built on the triple spot and
    # restricted to Z mapped onto the spot
    con = constructors(mn)
    mod = con.zk(*klm)
    want = ambient_z_module(con.act, con.ctx, *klm)
    assert list(mod.gens) == list(want.gens)
    for key, g in mod.gens.items():
        assert g == want.gens[key], key
    assert (mod.weights, mod.parities) == (want.weights, want.parities)


@pytest.mark.parametrize("mn,klm", Z_CELLS, ids=lambda x: "_".join(map(str, x)))
def test_product_matrix_on_w_is_the_sum_of_its_lifted_terms(constructors, mn,
                                                            klm):
    # on W = S_k (x) ImD(l,m) the terms are written into one dict; the ImD
    # factor's matrices carry a den > 1, so the terms are scaled first
    con = constructors(mn)
    k, l, m = klm
    factors = (con.ctx.sym_basis(k), con.image_module(l, m))
    assert max(g.den for g in factors[1].gens.values()) > 1
    for i, j in simple_pairs(con.ctx.space):
        assert con.act.product_matrix(factors, i, j) == \
            product_matrix_by_combination(con.act, factors, i, j), (i, j)


# ---------------------------------------------------------------------------
# equivariance


EQUIV_SPOTS = [
    ("d", Spot(0, 1, 1)),
    ("d", Spot(1, 2, 1)),
    ("del", Spot(0, 2, 2)),
    ("del", Spot(1, 1, 1)),
    ("P", Spot(1, 1, 1)),
    ("P", Spot(2, 1, 0)),
    ("Q", Spot(1, 1, 1)),
    ("Q", Spot(0, 2, 1)),
]


@pytest.mark.parametrize("name,spot", EQUIV_SPOTS)
def test_differentials_are_equivariant(ctx, act, name, spot):
    report = check_equivariance(ctx, act, name, spot)
    assert report["ok"], report["failing_generators"]
    assert report["generators_checked"] == 16


def test_default_grid_verdicts_match_all_sixteen_generators(monkeypatch):
    seen = []

    def spy(ctx, act, name, spot):
        r = check_equivariance(ctx, act, name, spot)
        seen.append((name, spot, r["ok"],
                     not equivariance_failures(ctx, act, name, spot)))
        return r

    monkeypatch.setattr(harness, "check_equivariance", spy)
    records, _ = harness._check_equivariance(harness.VerificationPlan())
    assert len(seen) == sum(r["status"] != "skip" for r in records) > 0
    for name, spot, ok, oracle_ok in seen:
        assert ok == oracle_ok, (name, spot)


@pytest.mark.parametrize("key", simple_pairs(SuperSpace(3, 1)),
                         ids=lambda key: f"E{key[0]}{key[1]}")
def test_each_simple_generator_is_multiplied_out(ctx, key):
    # E_key doubled on the codomain only: the weights still match, and key
    # is the one generator that sees it
    spot = Spot(0, 1, 1)
    cod = ctx.spot_space(op_target("d", spot))

    class Skewed(GLAction):
        def on_product(self, product, gi, gj):
            m = super().on_product(product, gi, gj)
            return 2 * m if product is cod and (gi, gj) == key else m

    skewed = Skewed(ctx.space)
    assert check_equivariance(ctx, skewed, "d", spot)["failing_generators"] == [key]
    assert equivariance_failures(ctx, skewed, "d", spot) == [key]


@pytest.mark.parametrize("key", simple_pairs(SuperSpace(3, 1)),
                         ids=lambda key: f"E{key[0]}{key[1]}")
def test_the_even_check_multiplies_out_the_even_raising_generators(ctx, key):
    # the same skew, seen with even=True only where key is an even simple
    # raising generator; the check then certifies gl(3) + gl(1)
    spot = Spot(0, 1, 1)
    cod = ctx.spot_space(op_target("d", spot))

    class Skewed(GLAction):
        def on_product(self, product, gi, gj):
            m = super().on_product(product, gi, gj)
            return 2 * m if product is cod and (gi, gj) == key else m

    report = check_equivariance(ctx, Skewed(ctx.space), "d", spot, even=True)
    assert report["generators_checked"] == 10
    even = key in even_raising_pairs(ctx.space)
    assert report["failing_generators"] == ([key] if even else [])
    assert even_raising_pairs(ctx.space) == ((0, 1), (1, 2))
    assert even_raising_pairs(SuperSpace(2, 2)) == ((0, 1), (2, 3))


def _corrupt_d(ctx, monkeypatch, delta):
    """Put d + delta at Spot(0, 1, 1) into the operator cache."""
    spot = Spot(0, 1, 1)
    mat = ctx.operator("d", spot)
    bad = mat + SparseMap(mat.dom_dim, mat.cod_dim, delta(mat))
    monkeypatch.setitem(ctx._operators, ("d", spot), bad)
    return spot


def test_weight_crossing_corruption_fails_on_the_cartan(ctx, act, monkeypatch):
    def cross(mat):
        dw = ctx.spot_space(Spot(0, 1, 1)).weights()
        cw = ctx.spot_space(Spot(0, 2, 2)).weights()
        r = next(r for r in range(mat.cod_dim) if cw[r] != dw[0])
        return {(r, 0): F(1)}

    spot = _corrupt_d(ctx, monkeypatch, cross)
    report = check_equivariance(ctx, act, "d", spot)
    oracle = equivariance_failures(ctx, act, "d", spot)
    assert report["ok"] is False and oracle
    assert set(report["failing_generators"]) <= set(oracle)
    assert set(report["failing_generators"]) & set(CARTAN)


def _rescale_one_entry(mat):
    """A delta that rescales one entry of mat: weights still match, so only
    a simple generator can see it."""
    (r, c), v = next(iter(mat.entries.items()))
    return {(r, c): -2 * v}


def test_corrupted_differential_fails_equivariance(ctx, act, monkeypatch):
    spot = _corrupt_d(ctx, monkeypatch, _rescale_one_entry)
    report = check_equivariance(ctx, act, "d", spot)
    oracle = equivariance_failures(ctx, act, "d", spot)
    assert report["ok"] is False and oracle
    assert set(report["failing_generators"]) <= set(oracle)
    assert set(report["failing_generators"]) <= set(simple_pairs(ctx.space))


# the spots of the default equivariance grid, each index at most 2
GRID = [Spot(i, k, l) for i in range(3) for k in range(3) for l in range(3)]
OPS = ("d", "del", "P", "Q")


@pytest.mark.parametrize("space", [SuperSpace(3, 1), SuperSpace(2, 2),
                                   SuperSpace(4, 1)],
                         ids=["3|1", "2|2", "4|1"])
def test_line_spot_certificate_matches_the_check_at_each_spot(space):
    ctx = KoszulContext(space)
    act = GLAction(space)
    checked = 0
    for spot in GRID:
        for name in OPS:
            if not op_applicable(name, spot):
                continue
            report = check_equivariance(ctx, act, name, spot)
            want = equivariance_at_spot(ctx, act, name, spot)
            assert {key: report[key] for key in want} == want, (name, spot)
            lifted = getattr(spot, idle_field(name)) > 0
            assert report["certified_by"] == ("line" if lifted else "spot")
            checked += 1
    assert checked > 0


def test_operators_are_the_lift_of_their_line_spot_map(ctx):
    # what the line-spot certificate relies on; kron with an identity is a
    # second route to the lift
    for spot in GRID:
        for name in OPS:
            if not op_applicable(name, spot):
                continue
            idle = idle_field(name)
            line = ctx.operator(name, spot._replace(**{idle: 0}))
            eye = SparseMap.identity(ctx._basis(idle, getattr(spot, idle)).dim)
            want = eye.kron(line) if idle == "sym" else line.kron(eye)
            assert ctx.operator(name, spot) == want, (name, spot)


def test_line_spot_corruption_fails_at_the_lifted_spots(monkeypatch):
    # a fresh context: its lifted d is built from the corrupted line map
    ctx = KoszulContext(SuperSpace(3, 1))
    act = GLAction(ctx.space)
    line = _corrupt_d(ctx, monkeypatch, _rescale_one_entry)
    for spot in (line, Spot(1, 1, 1), Spot(2, 1, 1)):
        report = check_equivariance(ctx, act, "d", spot)
        want = equivariance_at_spot(ctx, act, "d", spot)
        assert report["ok"] is False
        assert report["certified_by"] == ("spot" if spot == line else "line")
        assert {key: report[key] for key in want} == want, spot


def _faults(ctx, name, line):
    """(label, faulted map) pairs of the named map at the line spot: its
    first entry doubled, and its first entry moved to a row of another
    weight, of the other parity where the codomain has one; none for a zero
    map."""
    mat = ctx.operator(name, line)
    if not mat.entries:
        return []
    dom, cod = ctx.spot_space(line), ctx.spot_space(op_target(name, line))
    dw, cw = dom.weights(), cod.weights()
    (r, c), v = min(mat.entries.items())
    doubled = dict(mat.entries)
    doubled[(r, c)] = 2 * v
    faults = [("doubled", doubled)]
    far = sorted((q for q in range(mat.cod_dim) if cw[q] != dw[c]),
                 key=lambda q: cod.parities()[q] == dom.parities()[c])
    if far:
        moved = dict(mat.entries)
        del moved[(r, c)]
        moved[(far[0], c)] = moved.get((far[0], c), 0) + v
        faults.append(("moved", {k: x for k, x in moved.items() if x}))
    return [(label, SparseMap._from_ints(mat.dom_dim, mat.cod_dim, ent, mat.den))
            for label, ent in faults]


@pytest.mark.parametrize("space", [SuperSpace(3, 1), SuperSpace(2, 2)],
                         ids=["3|1", "2|2"])
def test_a_faulted_line_map_is_judged_at_its_line_spot_as_at_each_spot(space):
    # a fault in the line map is a fault at every spot lifted from it: the
    # verdict there is the check made at the spot itself, and so are the
    # failing generators, except for P and Q where the Cartan fails, whose
    # spot may fail an odd simple generator more
    cartan = {(j, j) for j in range(space.dim)}
    compared = extra = 0
    for name in OPS:
        idle = idle_field(name)
        for line in GRID:
            if getattr(line, idle) or not op_applicable(name, line):
                continue
            for label, bad in _faults(KoszulContext(space), name, line):
                ctx = KoszulContext(space)
                ctx._operators[(name, line)] = bad
                act = GLAction(space)
                for degree in (1, 2):
                    spot = line._replace(**{idle: degree})
                    report = check_equivariance(ctx, act, name, spot)
                    want = equivariance_at_spot(ctx, act, name, spot)
                    key = (name, line, label, degree)
                    assert report["certified_by"] == "line", key
                    assert report["ok"] is want["ok"] is False, key
                    got = set(report["failing_generators"])
                    spot_set = set(want["failing_generators"])
                    if name in ("P", "Q") and got & cartan:
                        assert got <= spot_set, key
                        assert all(space.parity(i) != space.parity(j)
                                   for i, j in spot_set - got), key
                        extra += got != spot_set
                    else:
                        assert got == spot_set, key
                    compared += 1
    assert compared > 0 and extra > 0


# ---------------------------------------------------------------------------
# graded span plumbing


def test_graded_span_insert_and_contains():
    weights = [(1, 0), (1, 0), (0, 1)]
    span = GradedSpan(3, weights)
    assert span.insert({0: F(1), 1: F(1)}) is not None
    assert span.insert({0: F(2), 1: F(2)}) is None
    assert span.dim == 1
    assert span.insert({2: F(5)}) is not None
    assert span.dim == 2


def test_graded_span_rejects_mixed_weight():
    span = GradedSpan(3, [(1, 0), (0, 1), (1, 0)])
    with pytest.raises(ValueError):
        span.insert({0: F(1), 1: F(1)})
    # the first two entries agree, so only the last shows the mix
    with pytest.raises(ValueError, match="not weight-homogeneous"):
        span.insert({0: F(1), 2: F(2), 1: F(3)})
    assert span.dim == 0 and not span.blocks


# ---------------------------------------------------------------------------
# H31 and image modules


def test_h31_is_the_odd_berezinian_line(con):
    # its Cartan is checked against the oracle in FAMILY_CASES
    h = con.h31()
    assert h.dim == 1
    assert h.weights == [(1, 1, 1, -1)]
    assert h.parities == [1]
    assert h.is_irreducible()[0]
    assert dual_module(h).singular_weights()[0].dim == 1


def test_a_product_reads_the_grading_of_a_module_factor(ctx, con):
    # S_1 (x) ImD(2,2) is graded as W = S_1 (x) Im d_(2,2) at its pivots on
    # the triple spot; the odd line H31 is one vector, but not of weight
    # zero, so unlike S_0 it shifts every weight and flips every parity
    v = ctx.sym_basis(1)
    spot = ctx.spot_space(Spot(1, 3, 3)).weights()
    w = ProductSpace(v, con.image_module(2, 2))
    assert w.weights() == [spot[q] for q in ctx.lifted_d_pivots(1, 2, 2)]
    h = ProductSpace(v, con.h31())
    assert h.weights() == [(a + 1, b + 1, c + 1, d - 1)
                           for a, b, c, d in v.weights]
    assert h.parities() == [p ^ 1 for p in v.parities]


IMD = [
    # (k, l, dim, highest weight)   frozen from construction
    (1, 1, 15, (1, 0, 0, -1)),
    (2, 1, 24, (1, 1, 0, -1)),
    (2, 2, 48, (1, 1, -1, -1)),
]


@pytest.mark.parametrize("k,l,dim,hw", IMD)
def test_image_modules(origins, k, l, dim, hw):
    con, seen = origins
    mod = con.image_module(k, l)
    assert mod.dim == dim
    assert_cartan_is_weight_grading(
        full_action(con.act, *seen[-1], pairs=CARTAN), mod)
    assert highest_weight(mod) == hw
    ok, _ = mod.is_irreducible()
    assert ok


def test_image_module_weight_table_is_graded(con):
    mod = con.image_module(1, 1)
    total = sum(mod.weight_multiset().values())
    assert total == mod.dim


# ---------------------------------------------------------------------------
# named constructions: frozen grids


MMP = [
    # (m, p, dim, internal hw) = label (m, m, -p | 0)
    (1, 1, 48, (1, 1, -1, 0)),
    (1, 2, 80, (1, 1, -2, 0)),
    (2, 1, 80, (2, 2, -1, 0)),
    (2, 2, 120, (2, 2, -2, 0)),
]


@pytest.mark.parametrize("m,p,dim,hw", MMP)
def test_mmp_grid(origins, m, p, dim, hw):
    con, seen = origins
    mod = con.mmp(m, p)
    assert mod.dim == dim
    assert highest_weight(mod) == hw
    assert mod.is_irreducible()[0]
    assert_cartan_is_weight_grading(
        full_action(con.act, *seen[-1], pairs=CARTAN), mod, m - 1)


YS = [
    # (n, p, dim, internal hw) = label (n, 0, -p+1 | 1)
    (1, 1, 15, (1, 0, 0, -1)),
    (1, 2, 32, (1, 0, -1, -1)),
    (2, 1, 32, (2, 0, 0, -1)),
    (2, 2, 65, (2, 0, -1, -1)),
]


@pytest.mark.parametrize("n,p,dim,hw", YS)
def test_y_summand_grid(con, n, p, dim, hw):
    mod = con.y_summand(n, p)
    assert mod.dim == dim
    assert highest_weight(mod) == hw
    assert mod.is_irreducible()[0]


ZK = [
    # (k, l, m, dim); hw pattern (k+1, 1, 1-m, l-3) and the typical dim
    # 4(k+1)(m+1)(k+m+2) were confirmed on every cell
    (1, 2, 1, 64),
    (1, 2, 2, 120),
    (1, 2, 3, 192),
    (2, 2, 2, 216),
    (1, 3, 2, 120),
    (2, 2, 3, 336),
    (2, 3, 3, 336),
]


@pytest.mark.parametrize("k,l,m,dim", ZK)
def test_zk_grid(con, k, l, m, dim):
    mod = con.zk(k, l, m)
    assert mod.dim == dim == 4 * (k + 1) * (m + 1) * (k + m + 2)
    assert highest_weight(mod) == (k + 1, 1, 1 - m, l - 3)
    assert mod.is_irreducible()[0]


def test_z1_is_zk_row_two(con):
    mod = con.z1(1)
    assert mod.dim == 120
    # label (2, 1, -1 | 1): one unit below the stated lambda_3, see ledger
    assert highest_weight(mod) == (2, 1, -1, -1)


MFINAL = [(m, t, p) for m in (1, 2) for t in (1, 2) for p in (1, 2)]


@pytest.mark.parametrize("m,t,p", MFINAL)
def test_mfinal_grid(origins, m, t, p):
    con, seen = origins
    mod = con.mfinal(m, t, p)
    a, b = m + t + p - 1, m + p - 1
    assert mod.dim == 8 * (a - b + 1) * (b + 1) * (a + 2) // 2
    assert highest_weight(mod) == (m + t, m, -p + 1, -1)
    assert mod.is_irreducible()[0]
    assert_cartan_is_weight_grading(
        full_action(con.act, *seen[-1], pairs=CARTAN), mod, m - 1)


def test_mfinal_rejects_zero_parameters(con):
    with pytest.raises(ValueError):
        con.mfinal(0, 1, 1)


ILAMBDA = [
    ((2,), 9, (2, 0, 0, 0)),
    ((3,), 16, (3, 0, 0, 0)),
    ((1, 1), 7, (1, 1, 0, 0)),
    ((1, 1, 1), 8, (1, 1, 1, 0)),
    ((1, 1, 1, 1), 8, (1, 1, 1, 1)),
    ((2, 1), 20, (2, 1, 0, 0)),
    ((2, 1, 1), 24, (2, 1, 1, 0)),
    ((3, 1), 39, (3, 1, 0, 0)),
]


@pytest.mark.parametrize("shape,dim,hw", ILAMBDA)
def test_ilambda_hooks(con, shape, dim, hw):
    mod = con.ilambda(shape)
    assert mod.dim == dim
    assert highest_weight(mod) == hw
    assert mod.is_irreducible()[0]


def test_ilambda_berezinian_alias(con):
    mod = con.ilambda((1, 1, 1, -1))
    assert mod.dim == 1 and mod.weights == [(1, 1, 1, -1)]


def test_ilambda_rejects_non_hooks(con):
    with pytest.raises(ValueError):
        con.ilambda((2, 2))
    with pytest.raises(ValueError):
        con.ilambda((0,))


def test_construct_dispatch(con):
    assert build_module(con, "ysummand", (1, 1)).dim == 15
    assert build_module(con, "mfinal", (1, 1, 1)).dim == 64
    assert build_module(con, "ilambda", (2, 1)).dim == 20
    with pytest.raises(ValueError):
        build_module(con, "nope", ())


# ---------------------------------------------------------------------------
# derived modules: dual, tensor, twist, quotient


def test_dual_of_v(con):
    dv = dual_module(con.ilambda((1,)))
    ker, ws = dv.singular_weights()
    assert ker.dim == 1 and ws == [(0, 0, 0, -1)]
    assert dv.is_irreducible()[0]


def test_module_memo_leaves_the_constructions_records_unchanged(monkeypatch):
    # with every memoised module popped from the memo as soon as it is
    # handed out, each call builds again
    plan = harness.VerificationPlan(checks=("constructions",)).as_dict()
    builds = []
    build = glrep.module_from_subspace

    def counted(act, *args):
        builds.append(args[-1])
        return build(act, *args)

    monkeypatch.setattr(glrep, "module_from_subspace", counted)
    _, memo, memo_findings, _ = harness.run_group(plan, "constructions")
    memo_builds = len(builds)
    for method in ("image_module", "zk"):
        def popped(self, *args, _fn=getattr(Constructor, method)):
            mod = _fn(self, *args)
            self._built.clear()
            return mod
        monkeypatch.setattr(Constructor, method, popped)
    _, fresh, fresh_findings, _ = harness.run_group(plan, "constructions")
    assert (memo, memo_findings) == (fresh, fresh_findings)
    assert len(memo) > 0
    assert len(builds) - memo_builds > memo_builds


def test_the_constructions_group_computes_each_fact_once(monkeypatch):
    # 30 module checks: 4 Mmp are twisted ImD cells checked before them, and
    # 13 Z1, Zk and Mfinal checks share 9 Z modules, so 22 generator sets
    calls = {"raising_kernel": 0, "submodule_span": 0}
    for name in calls:
        def counted(self, *args, _name=name, _fn=getattr(GLModule, name)):
            calls[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(GLModule, name, counted)
    inside = []
    splitting = KoszulContext.splitting
    composed = KoszulContext.composed
    operator = KoszulContext.operator

    def splitting_marked(self, which, params):
        inside.append(which)
        try:
            return splitting(self, which, params)
        finally:
            inside.pop()

    def composed_checked(self, word, spot):
        assert not inside, f"composed {word} inside {inside[-1]}"
        return composed(self, word, spot)

    def operator_checked(self, name, spot):
        # a splitting builds its operators at line spots only
        assert not inside or getattr(spot, idle_field(name)) == 0, (
            f"lifted {name} at {spot} inside {inside[-1]}")
        return operator(self, name, spot)

    images = {}

    def image_counted(mat, dom_w, cod_w):
        images[id(mat)] = images.get(id(mat), 0) + 1
        return blocked_image(mat, dom_w, cod_w)

    built_on = []
    product_matrix = GLAction.product_matrix

    def product_matrix_recorded(self, factors, gi, gj):
        built_on.append(tuple(f.name if isinstance(f, GLModule) else f.key()
                              for f in factors))
        return product_matrix(self, factors, gi, gj)

    z_spots = set()
    zk = Constructor.zk

    def zk_recorded(self, k, l, m):
        z_spots.add(Spot(k, l + 1, m + 1))
        return zk(self, k, l, m)

    monkeypatch.setattr(KoszulContext, "splitting", splitting_marked)
    monkeypatch.setattr(KoszulContext, "composed", composed_checked)
    monkeypatch.setattr(KoszulContext, "operator", operator_checked)
    monkeypatch.setattr(koszul, "blocked_image", image_counted)
    monkeypatch.setattr(GLAction, "product_matrix", product_matrix_recorded)
    monkeypatch.setattr(Constructor, "zk", zk_recorded)
    plan = harness.VerificationPlan(checks=("constructions",)).as_dict()
    _, records, _, _ = harness.run_group(plan, "constructions")
    assert calls == {"raising_kernel": 22, "submodule_span": 22}
    # every Im d the group reads is eliminated once: ImD, Mmp, H31 and Z
    assert images and set(images.values()) == {1}
    # no generator matrix on a Z summand's triple spot: each of the 9 Z
    # modules restricts its 6 simple generators on S_k (x) ImD(l,m)
    ctx = KoszulContext(SuperSpace(3, 1))
    z_keys = {tuple(f.key() for f in ctx.spot_space(s).factors)
              for s in z_spots}
    assert len(z_spots) == 9 and not z_keys & set(built_on)
    assert sum(isinstance(f, str) for *_, f in built_on) == 9 * 6
    assert records


def test_a_twist_reads_the_record_of_the_module_it_twists():
    # Mmp(2,1) is ImD(4,3) twisted by (1,1,1,-1); checked after ImD(4,3) it
    # reuses its record, and reports what a twist of an unshared build does
    con = Constructor(KoszulContext(SuperSpace(3, 1)))
    base = con.image_module(4, 3)
    base_ok, base_info = base.is_irreducible()
    shared = con.mmp(2, 1)
    assert shared.facts is base.facts and "generated_dim" in base.facts
    alone = berezinian_twist(
        Constructor(KoszulContext(SuperSpace(3, 1))).image_module(4, 3), 1,
        "M(2,1)")
    assert alone.facts is not base.facts and not alone.facts
    assert shared.is_irreducible() == alone.is_irreducible()
    ok, info = shared.is_irreducible()
    assert ok == base_ok
    assert info["singular_weights"] == [
        tuple(x + y for x, y in zip(w, (1, 1, 1, -1)))
        for w in base_info["singular_weights"]]


def test_modules_built_twice_on_one_context_agree():
    # y_summand builds again and zk hands out the module it built first:
    # both must agree with what the first calls returned
    con = Constructor(KoszulContext(SuperSpace(3, 1)))
    first = [con.y_summand(1, 1), con.zk(1, 2, 2)]
    again = [con.y_summand(1, 1), con.zk(1, 2, 2)]
    for a, b in zip(first, again):
        assert (a.gens, a.weights, a.parities) == (b.gens, b.weights, b.parities)


def test_double_dual_preserves_highest_weight(con):
    for shape in [(1,), (1, 1, 1), (2, 1)]:
        mod = con.ilambda(shape)
        assert highest_weight(dual_module(dual_module(mod))) == highest_weight(mod)


def test_dual_of_h31(con):
    d = dual_module(con.h31())
    assert d.weights == [(-1, -1, -1, 1)] and d.parities == [1]


def test_tensor_v_with_dual_splits(con):
    v = con.ilambda((1,))
    vv = tensor_modules(v, dual_module(v))
    ker, ws = vv.singular_weights()
    assert ker.dim == 2
    assert sorted(ws) == [(0, 0, 0, 0), (1, 0, 0, -1)]
    ok, info = vv.is_irreducible()
    assert not ok and info["singular_dim"] == 2


def test_tensor_of_odd_lines_is_even(con):
    h = con.h31()
    hh = tensor_modules(h, h)
    assert hh.dim == 1
    assert hh.weights == [(2, 2, 2, -2)] and hh.parities == [0]


def test_berezinian_twist_shifts_weights(origins):
    con, seen = origins
    base = con.image_module(2, 2)
    tw = berezinian_twist(base, 1, "tw")
    assert highest_weight(tw) == (2, 2, 0, -2)
    assert tw.gens == base.gens
    assert_cartan_is_weight_grading(
        full_action(con.act, *seen[-1], pairs=CARTAN), tw, 1)
    assert tw.parities[0] == (base.parities[0] + 1) % 2
    twice = berezinian_twist(base, 2, "twice")
    assert highest_weight(twice) == (3, 3, 1, -3)
    assert twice.parities == base.parities
    # no twist is still a new module: renaming it leaves base as it was
    same = berezinian_twist(base, 0, "same")
    assert same is not base and base.name == "ImD(2,2)"
    assert (same.name, same.gens, same.weights, same.parities) == (
        "same", base.gens, base.weights, base.parities)
    with pytest.raises(ValueError):
        berezinian_twist(base, -1, "bad")


def test_mmp_leaves_the_image_module_it_twists_as_it_was():
    con = Constructor(KoszulContext(SuperSpace(3, 1)))
    assert con.mmp(1, 1).name == "M(1,1)"
    assert con.image_module(3, 2).name == "ImD(3,2)"
    assert con.mfinal(1, 1, 2).name == "M(1,1,2)"
    assert con.zk(1, 2, 2).name == "Z(1,2,2)"


def test_constructor_builds_each_module_once(monkeypatch):
    con = Constructor(KoszulContext(SuperSpace(3, 1)))
    first = con.zk(1, 2, 2)
    image = con.image_module(3, 2)
    con.image_module(2, 1)  # the ImD module Z(1,2,1) is built on

    def rebuild(act, *args):
        raise AssertionError(f"module_from_subspace called for {args[-1]}")

    monkeypatch.setattr(glrep, "module_from_subspace", rebuild)
    # one object per argument tuple; Z1(1) is Z(1,2,2), which built the
    # ImD(2,2) module it acts through
    assert con.zk(1, 2, 2) is first and con.image_module(3, 2) is image
    assert con.z1(1) is con.zk(1, 2, 2)
    assert con.image_module(2, 2).name == "ImD(2,2)"
    # a twist is a new object each call, sharing the matrices and the record
    mmp, again = con.mmp(1, 1), con.mmp(1, 1)
    assert len({id(image), id(mmp), id(again)}) == 3
    assert mmp.gens is image.gens and mmp.facts is image.facts is again.facts
    with pytest.raises(AssertionError, match=r"for Z\(1,2,1\)"):
        con.zk(1, 2, 1)


def test_a_built_module_is_frozen():
    con = Constructor(KoszulContext(SuperSpace(3, 1)))
    mod = con.image_module(2, 2)
    fields = ("name", "weights", "gens", "facts")
    before = [getattr(mod, f) for f in fields]
    for name, value in [("name", "renamed"), ("weights", []), ("gens", {}),
                        ("facts", {})]:
        with pytest.raises(AttributeError):
            setattr(mod, name, value)
    assert all(getattr(mod, f) is was for f, was in zip(fields, before))
    assert mod.name == "ImD(2,2)" and con.image_module(2, 2) is mod


def test_non_invariant_subspace_raises(ctx, act):
    product = ctx.spot_space(Spot(0, 1, 1))
    line = Subspace.from_vectors(product.dim, [{0: F(1)}])
    with pytest.raises(RestrictionError):
        module_from_subspace(act, product, line, "bogus")


def test_quotient_of_a_kernel_that_is_not_invariant_raises(ctx, act):
    # span(e_0, e_1) modulo e_0 on Lambda_1 (x) S*_1: the complement
    # x_0 (x) xi^1 is killed by E_01 and sent by E_12 to -x_0 (x) xi^2,
    # outside the kernel
    product = ctx.pair_space(1, 1)
    ker = Subspace.from_vectors(product.dim, [{0: F(1)}, {1: F(1)}])
    im = Subspace.from_vectors(product.dim, [{0: F(1)}])
    with pytest.raises(RestrictionError,
                       match="quotient action escapes the kernel") as exc:
        quotient_module(act, product, ker, im, "bogus")
    assert exc.value.witness == {"generator": (1, 2), "index": 0,
                                 "vector": {1: F(1)}, "image": {2: F(-1)}}
    assert act.product_matrix(product.factors, 0, 1).apply({1: F(1)}) == {}


def test_non_homogeneous_subspace_basis_raises(ctx, act):
    # the whole of V, but with a first basis vector mixing two weights
    v = ctx.sym_basis(1)
    mixed = Subspace(4, [{0: F(1), 1: F(1)}, {1: F(1)}, {2: F(1)}, {3: F(1)}],
                     [0, 1, 2, 3])
    with pytest.raises(ModuleError) as exc:
        module_from_subspace(act, ProductSpace(v), mixed, "mixed")
    assert exc.value.witness["index"] == 0
    assert len(exc.value.witness["weights"]) == 2


# ---------------------------------------------------------------------------
# cyclic closures


def test_closure_of_highest_weight_vector_is_whole_module(con):
    mod = con.image_module(1, 1)
    ker, _ = mod.singular_weights()
    span = mod.submodule_span(ker.vectors[0])
    assert span.dim == mod.dim


def test_closure_in_split_ambient_finds_the_summands(ctx, con):
    # pair (2,2) ambient splits as the two-route decomposition predicts
    amb = ambient_module(con.act, ctx.pair_space(2, 2), "L2S2*")
    a_sub, b_sub = xdanh_splitting(ctx, 2, 2)
    va = dict(a_sub.vectors[0])
    vb = dict(b_sub.vectors[0])
    assert submodule_closure(amb, [va]).dim == a_sub.dim
    mixed = dict(va)
    for i, x in vb.items():
        mixed[i] = mixed.get(i, F(0)) + x
    assert submodule_closure(amb, [mixed]).dim == amb.dim


HOOKS = [(1,), (2,), (3,), (4,), (1, 1), (1, 1, 1), (1, 1, 1, 1), (2, 1),
         (2, 1, 1), (3, 1), (2, 1, 1, 1), (1, 1, 1, -1)]


def _agreement_modules():
    """ImD(k,l) for k, l <= 3 on five alphabets, every module cell of the
    constructions group, twelve hooks and ImD(4,2) on (3|1), and the dual of
    each: 230 modules."""
    mods = []
    for m, n in [(3, 1), (2, 1), (4, 1), (2, 2), (1, 2)]:
        other = Constructor(KoszulContext(SuperSpace(m, n)))
        mods += [other.image_module(k, l) for k in range(4) for l in range(4)]
    con = Constructor(KoszulContext(SuperSpace(3, 1)))
    mods += [build_module(con, name, tuple(params.values()))
             for name, params in harness.MODULE_CELLS]
    mods += [con.ilambda(shape) for shape in HOOKS]
    mods.append(con.image_module(4, 2))
    return mods + [dual_module(mod) for mod in mods]


def test_irreducibility_agrees_with_the_three_leg_oracle():
    mods = _agreement_modules()
    assert len(mods) == 230
    for mod in mods:
        ok, info = mod.is_irreducible()
        want_ok, want = irreducible_three_legs(mod)
        assert (ok, info["singular_dim"], info.get("generated_dim")) == (
            want_ok, want["singular_dim"], want.get("generated_dim")), (
            mod.space, mod.name)


def test_lowering_closure_decides_imd_1_1_on_2_2():
    # the one module of the agreement set with a singular line that does
    # not generate it; its dual has two singular lines
    mod = Constructor(KoszulContext(SuperSpace(2, 2))).image_module(1, 1)
    ok, info = mod.is_irreducible()
    assert not ok
    assert (info["singular_dim"], info["generated_dim"], mod.dim) == (1, 14, 15)
    assert dual_module(mod).singular_weights()[0].dim == 2


def test_raising_kernel_is_the_unblocked_singular_space(con):
    # the stacked raising generators eliminated one dominant weight at a
    # time give the joint kernel the oracle eliminates in one piece
    mods = [build_module(con, name, tuple(params.values()))
            for name, params in harness.MODULE_CELLS]
    mods += [con.ilambda(shape) for shape in HOOKS]
    mods.append(con.zk(1, 2, 0))  # reducible: two singular lines
    others = {mn: Constructor(KoszulContext(SuperSpace(*mn)))
              for mn in ((2, 1), (2, 2), (1, 2), (4, 1))}
    for other in others.values():
        mods += [other.image_module(k, l) for k in range(3) for l in range(3)]
    mods += [others[mn].zk(*z_args(params)) for mn, params in OTHER_PROP2_CELLS]
    for mod in mods:
        assert mod.raising_kernel() == singular_space(mod), (mod.space, mod.name)
    assert con.zk(1, 2, 0).raising_kernel().dim == 2


def test_raising_kernel_rejects_a_generator_off_its_weight_step(con):
    v = con.ilambda((1,))
    bad = GLModule(space=v.space, name="bad", gens=v.gens,
                   weights=v.weights[::-1], parities=v.parities)
    with pytest.raises(ValueError, match="not weight-graded"):
        bad.raising_kernel()
    # the one bad entry sits at a column whose block is never eliminated:
    # E_(0,1) sends e1, of the non-dominant weight (0,1,0,0), to e0 and to e2
    assert not is_dominant(v.weights[1], v.space.m)
    e01 = v.gens[(0, 1)]
    gens = {**v.gens, (0, 1): SparseMap(4, 4, {**{
        k: F(x, e01.den) for k, x in e01.entries.items()}, (2, 1): F(1)})}
    bad = GLModule(space=v.space, name="bad", gens=gens, weights=v.weights,
                   parities=v.parities)
    with pytest.raises(ValueError, match=r"not weight-graded: E_\(0,1\) entry \(2,1\)"):
        bad.raising_kernel()


def test_singular_lines_of_exterior_cube(con):
    mod = con.ilambda((1, 1, 1))
    ker, ws = mod.singular_weights()
    assert ker.dim == 1 and ws == [(1, 1, 1, 0)]
