"""The μ_t / S_t loops that read the memo tables, against the reference model's element chains."""
import pytest

import hopfdeform as hd
from hopfdeform.convolution import LinMap, antipode_map, map_conv_functional, mu_n_map
from hopfdeform.core import EPS_PRUNE, NonFiniteError
from hopfdeform.deformation import (_antipode_sides, _deformed_mul_square, deformed_antipode,
                                    deformed_mul_map)

import reference as ref

T_PAIRS = ((-1.0, 0.5), (0.25, 1.0), (0.0, -0.75))


@pytest.fixture(scope="module", params=["h4", "oscillator", "skewed", "z2"])
def case(request):
    inst, L = ref.CASES[request.param]()
    sampler = hd.ElementSampler(inst, seed=43, budget=40, coord_bound=2, max_degree=3, max_support=3)
    # the skewed instance is no bialgebra, so its generator is not validated
    D = hd.Deformation(inst, L, None, sampler) if inst.name == "skewed" else hd.make_deformation(inst, L, sampler)
    return inst, ref.Model(inst), D, sampler


def test_on_pair_matches_the_bilinear_sum(case):
    inst, m, D, sampler = case
    maps = [(mu_n_map(inst, 2), m.mu_n_map(2))] + [(deformed_mul_map(D, t), m.deformed_mul(D.generator, t))
                                                   for t, _ in T_PAIRS]
    for _ in range(10):
        a, b = sampler.elements(2)
        for A, R in maps:
            ref.same(A.on_pair(a, b).terms, R.on_pair(a.terms, b.terms))


def test_map_application_matches_the_linear_sum(case):
    inst, m, D, sampler = case
    x, eps = sampler.element(), hd.counit_cochain(inst, 1)
    maps = [(hd.identity_map(inst), m.identity_map()), (antipode_map(inst), m.antipode_map()),
            (map_conv_functional(hd.identity_map(inst), eps), m.scalar_convolution(m.identity_map(), eps, 1)),
            (LinMap(inst, 1, lambda ks: hd.mul(x, inst.basis_element(ks[0])).terms),
             ref.RefMap(m, 1, lambda ks: m.mul(x.terms, m.clean({ks[0]: 1.0}))))]
    maps += [(deformed_antipode(D, t), m.deformed_antipode(D.generator, t)) for t, _ in T_PAIRS]
    squares = [(mu_n_map(inst, 2), m.mu_n_map(2)), (deformed_mul_map(D, 0.5), m.deformed_mul(D.generator, 0.5))]
    for _ in range(10):
        a, b = sampler.elements(2)
        for A, R in maps:
            ref.same(A(a).terms, R(a.terms))
            ref.same(A(hd.tensor_of(a)).terms, R(a.terms))
        for A, R in squares:
            for u in (hd.comul(a), hd.tensor_of(a, b)):
                ref.same(A(u).terms, R(u.terms))


def test_every_map_table_holds_its_values_as_rows(case):
    inst, _, D, sampler = case
    rank_one = [hd.identity_map(inst), antipode_map(inst), deformed_antipode(D, 0.5)]
    rank_two = [mu_n_map(inst, 2), deformed_mul_map(D, 0.5)]
    a, b = sampler.elements(2)
    for A in rank_one:
        A(a)
    for A in rank_two:
        A.on_pair(a, b)
    # a rank-1 table is keyed by the bare basis key, a rank-2 one by the pair; the first rank-1 maps are
    # fresh, while μ²'s table is the instance's key-product table, which earlier maps have filled too
    assert list(rank_one[0]._cache) == list(rank_one[1]._cache) == list(a.terms)
    assert {(ka, kb) for ka in a.terms for kb in b.terms} <= set(rank_two[0]._cache)
    for A in rank_one + rank_two:
        assert A._cache
        for key, row in A._cache.items():
            assert type(row) is tuple
            assert row == tuple(A.value((key,) if A.rank == 1 else key).terms.items())


def test_deformed_square_binds_one_table_for_equal_parameters(case):
    # unequal t and s are compared in test_tensor_loops
    inst, m, D, sampler = case
    for t in (0.5, -1.0):
        mu_t = m.deformed_mul(D.generator, t)
        for _ in range(8):
            a, b = sampler.elements(2)
            got = hd.TensorElement(inst, 2, _deformed_mul_square(D, t, t, a, b))
            ref.same(got.terms, m.mul_square(mu_t, mu_t, a.terms, b.terms))


def _model_sides(m, D, t):
    """The model's sums for the antipode identity's sides at t, on the terms of an element."""
    mu_t, s_t = m.deformed_mul(D.generator, t), m.deformed_antipode(D.generator, t)
    return lambda a: m.antipode_sides(mu_t, s_t, a.terms)


def _same_sides(m, D, t, draws):
    sides = _model_sides(m, D, t)
    for a in draws:
        for got, want in zip(_antipode_sides(D, t, a), sides(a)):
            ref.same(got, want)


def test_antipode_sides_match_the_element_chain(case):
    _, m, D, sampler = case
    for t, _ in T_PAIRS:
        _same_sides(m, D, t, (sampler.element() for _ in range(10)))


def test_antipode_sides_with_signed_zeros_match_the_model():
    # no bialgebra: its sides depend on t and carry -0.0 parts, so a side
    # read at another t shows
    inst, L = ref.signed_zeros()
    sampler = hd.ElementSampler(inst, seed=43, budget=40, coord_bound=2, max_support=3)
    D = hd.Deformation(inst, L, None, sampler)
    for t, _ in T_PAIRS:
        _same_sides(ref.Model(inst), D, t, (sampler.element() for _ in range(10)))


# -- sums that cancel below prune_eps, and a running side that overflows


@pytest.fixture(scope="module")
def z2_deformation():
    inst, L = ref.z2()
    return inst, ref.Model(inst), hd.make_deformation(inst, L, hd.ElementSampler(inst, seed=5, budget=20))


def test_a_pair_sum_that_cancels_is_pruned(z2_deformation):
    inst, m, D = z2_deformation
    g, h = (1, 0), (0, 1)
    # at t = 0, μ_0 is μ: g·h and h·g both give (1, 1) with coefficient 1
    a = inst.element({g: 1.0, h: -(1.0 - 1e-13)})
    b = inst.element({h: 1.0, g: 1.0})
    mu_0 = m.deformed_mul(D.generator, 0.0)
    for A, R in ((mu_n_map(inst, 2), m.mu_n_map(2)), (deformed_mul_map(D, 0.0), mu_0)):
        got = A.on_pair(a, b)
        ref.same(got.terms, R.on_pair(a.terms, b.terms))
        assert (1, 1) not in got.terms
        assert list(got.terms) == [(2, 0), (0, 2)]
    square = hd.TensorElement(inst, 2, _deformed_mul_square(D, 0.0, 0.0, a, b))
    ref.same(square.terms, m.mul_square(mu_0, mu_0, a.terms, b.terms))
    assert ((1, 1), (1, 1)) not in square.terms


def test_a_map_sum_that_cancels_is_pruned():
    z2 = hd.group_algebra_zd(2)
    to_unit = LinMap(z2, 1, lambda ks: z2.unit_element().terms)
    x = z2.element({(1, 0): 1.0, (0, 1): -(1.0 - 1e-13)})
    got = to_unit(x)
    ref.same(got.terms, ref.RefMap(ref.Model(z2), 1, lambda ks: {z2.unit: 1.0})(x.terms))
    assert got.is_zero


def test_an_antipode_side_that_cancels_is_pruned_and_refilled(z2_deformation):
    inst, m, D = z2_deformation
    # the unit's running sum cancels after the second leg, and the third leg adds to it in its place
    a = inst.element({(1, 0): 1.0, (0, 1): -1.0, (1, 1): 0.5})
    for t in (-1.0, 0.0, 0.5):
        _same_sides(m, D, t, [a])
        lhs, _ = _antipode_sides(D, t, a)
        assert list(lhs) == [inst.unit] and abs(lhs[inst.unit] - 0.5) < 1e-12
    cancelled, _ = _antipode_sides(D, 0.5, inst.element({(1, 0): 1.0, (0, 1): -1.0}))
    assert cancelled == {}


def test_antipode_sides_are_zero_when_a_basis_element_is_pruned():
    inst, L = ref.z2()
    D = hd.make_deformation(inst, L, hd.ElementSampler(inst, seed=5, budget=20))
    a = inst.element({(1, 0): 2.0, (0, 1): 3.0})
    inst.prune_eps = 1.5  # a basis element 1·k is now below the threshold
    try:
        assert _antipode_sides(D, 0.5, a) == ({}, {})
        _same_sides(ref.Model(inst), D, 0.5, [a])
    finally:
        inst.prune_eps = EPS_PRUNE


def test_a_non_finite_leg_raises_the_error_of_the_element_chain(z2_deformation):
    inst, m, D = z2_deformation
    # at t = 0 every leg adds its coefficient at the unit: the second leg overflows the running sum
    a = inst.element({(1, 0): 1e308, (0, 1): 1e308, (1, 1): 1.0})
    with pytest.raises(NonFiniteError) as got:
        _antipode_sides(D, 0.0, a)
    with pytest.raises(NonFiniteError, match="inf") as want:
        _model_sides(m, D, 0.0)(a)
    assert str(got.value) == str(want.value)


def _lopsided(left=2.0, big=1e200, s_weight=None):
    """A finite instance, no bialgebra, with one leg p ↦ q⊗r whose left and right rows are set apart.

    Every other key k has Δ(k) = k⊗1 and δ(k) = 0, so with L = 0 each S_t
    and μ_t row is the S and μ row: μ_t(S_t(q)⊗r) = μ(q⊗r) = left·m, and
    μ_t(q⊗S_t(r)) = μ(q⊗big·s) = big·big·n, which overflows at the default.
    ``s_weight``, when given, is S(r)'s weight in place of big.
    """
    keys = ("1", "p", "q", "r", "s", "m", "n")
    products = {("q", "r"): [("m", left)], ("q", "s"): [("n", big)]}
    inst = hd.BialgebraInstance(
        "lopsided", hd.Kind.FINITE, "1",
        mul_basis=lambda a, b: [(b, 1.0)] if a == "1" else [(a, 1.0)] if b == "1" else products.get((a, b), []),
        comul_basis=lambda k: [("q", "r", 1.0)] if k == "p" else [(k, "1", 1.0)],
        counit_basis=lambda k: 1.0 if k == "1" else 0.0,
        antipode_basis=lambda k: [("s", big if s_weight is None else s_weight)] if k == "r" else [(k, 1.0)],
        basis_iter=lambda: keys,
    )
    return inst, hd.Deformation(inst, hd.zero_cochain(inst, 2), None, hd.ElementSampler(inst, seed=5, budget=20))


def test_a_left_add_that_overflows_raises_before_the_right_row():
    # the leg's left row is finite and its add overflows; reading the right
    # row first would raise the right row's error, at key n, instead
    inst, D = _lopsided()
    m = ref.Model(inst)
    a = inst.element({"p": 1e308})
    with pytest.raises(NonFiniteError) as want:
        _model_sides(m, D, 0.5)(a)
    with pytest.raises(NonFiniteError) as got:
        _antipode_sides(D, 0.5, a)
    assert str(got.value) == str(want.value)
    assert "at basis key 'm'" in str(got.value)
    # at a finite coefficient the left side is the row, and the right row still overflows
    with pytest.raises(NonFiniteError, match="at basis key 'n'"):
        _antipode_sides(D, 0.5, inst.element({"p": 1.0}))


def test_the_antipode_tables_are_read_at_the_current_threshold():
    # the left row 0.5·m is kept at the default threshold and pruned at 0.75,
    # though twice it, the leg's term, is not
    inst, D = _lopsided(left=0.5, big=1.0)
    m = ref.Model(inst)
    a = inst.element({"p": 2.0})
    _same_sides(m, D, 0.5, [a])
    assert _antipode_sides(D, 0.5, a)[0] == {"m": 1.0}
    inst.prune_eps = 0.75
    try:
        _same_sides(m, D, 0.5, [a])
        assert _antipode_sides(D, 0.5, a) == ({}, {"n": 2.0})
    finally:
        inst.prune_eps = EPS_PRUNE


def test_a_stored_antipode_row_is_read_at_the_current_threshold():
    # S_t(r) = 0.5·s is stored at the default threshold; at 0.75 the basis
    # element's image S_t(1·r) is zero, though μ_t(q⊗0.5·s) = 2·n is not
    inst, D = _lopsided(left=1.0, big=4.0, s_weight=0.5)
    m = ref.Model(inst)
    a = inst.element({"p": 1.0})
    assert _antipode_sides(D, 0.5, a) == ({"m": 1.0}, {"n": 2.0})
    inst.prune_eps = 0.75
    try:
        _same_sides(m, D, 0.5, [a])
        assert _antipode_sides(D, 0.5, a) == ({"m": 1.0}, {})
    finally:
        inst.prune_eps = EPS_PRUNE


def test_a_side_is_pruned_once_not_leg_by_leg(z2_deformation):
    inst, m, D = z2_deformation
    # at t = 0 every leg adds its coefficient at the unit; at the threshold 0.3
    # the running sum 0.5 - 0.35 = 0.15 is below it after the second leg, so
    # pruning leg by leg would give 0.4, where the side is δ(a) = 0.55
    inst.prune_eps = 0.3
    try:
        a = inst.element({(1, 0): 0.5, (0, 1): -0.35, (1, 1): 0.4})
        _same_sides(m, D, 0.0, [a])
        for side in _antipode_sides(D, 0.0, a):
            assert list(side) == [inst.unit] and abs(side[inst.unit] - 0.55) < 1e-12
    finally:
        inst.prune_eps = EPS_PRUNE
