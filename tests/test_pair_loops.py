"""The μ_t / S_t loops that read the memo tables, against the reference model's element chains."""
import pytest

import hopfdeform as hd
from hopfdeform.convolution import LinMap, antipode_map, map_conv_functional, mu_n_map
from hopfdeform.core import EPS_PRUNE, NonFiniteError
from hopfdeform.deformation import (_add_scaled, _antipode_sides, _deformed_mul_square, deformed_antipode,
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
    # a rank-1 table is keyed by the bare basis key, a rank-2 one by the pair; the first maps are fresh
    assert list(rank_one[0]._cache) == list(rank_one[1]._cache) == list(a.terms)
    assert list(rank_two[0]._cache) == [(ka, kb) for ka in a.terms for kb in b.terms]
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
    """The model's chain for the antipode identity's sides at t, on the terms of an element."""
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
    # the unit's coefficient cancels after the second leg and comes back with the third
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


def test_a_running_sum_names_its_first_non_finite_key_in_dict_order():
    m = ref.Model(hd.group_algebra_zd(2))  # the default threshold
    # the leg touches y before x, but x comes first in the running dict
    acc = {"x": 1e308 + 0j, "y": 1e308 + 0j, "z": 1.0 + 0j}
    leg = {"y": 1e308 + 0j, "z": -1.0 + 0j, "x": 1e308 + 0j}
    with pytest.raises(NonFiniteError, match="at basis key 'x'") as want:
        m.add(acc, m.scale(ref.ONE, m.clean(leg)))
    with pytest.raises(NonFiniteError) as got:
        _add_scaled(dict(acc), ref.ONE, dict(leg), EPS_PRUNE)
    assert str(got.value) == str(want.value)
    # without the overflow, z cancels and is pruned where it stood
    acc["x"] = acc["y"] = ref.ONE
    got_acc = dict(acc)
    _add_scaled(got_acc, ref.ONE, dict(leg), EPS_PRUNE)
    ref.same(got_acc, m.add(acc, m.scale(ref.ONE, m.clean(leg))))
    assert list(got_acc) == ["x", "y"]

