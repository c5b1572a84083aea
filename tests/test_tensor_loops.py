"""The rank-2 tensor loops, the key product and Λ against the reference model."""
import pytest

import hopfdeform as hd
from hopfdeform.convolution import tuple_comul_terms
from hopfdeform.core import AlgebraError, TensorElement, _key_product, tensor_apply, tensor_mul
from hopfdeform.deformation import _deformed_mul_square

import reference as ref


@pytest.fixture(scope="module", params=["h4", "oscillator", "skewed", "z2"])
def case(request):
    inst, L = ref.CASES[request.param]()
    sampler = hd.ElementSampler(inst, seed=41, budget=40, coord_bound=2, max_degree=3, max_support=3)
    return inst, ref.Model(inst), L, sampler


def test_tensor_mul_matches_the_slot_product_sum(case):
    inst, m, _, sampler = case
    for _ in range(30):
        a, b, c = sampler.elements(3)
        for u, v in ((hd.comul(a), hd.tensor_of(b, c)), (hd.tensor_of(a, b), hd.comul(c))):
            ref.same(tensor_mul(u, v).terms, m.tensor_mul(u.terms, v.terms))


def test_tensor_apply_matches_the_slot_product_sum(case):
    inst, m, _, sampler = case
    x = sampler.element()

    def left_mul(k):
        return hd.mul(x, inst.basis_element(k)).terms.items()

    slot_maps = [(inst.antipode_terms, None), (None, inst.antipode_terms), (left_mul, inst.antipode_terms),
                 (None, None), (left_mul, None)]
    for _ in range(20):
        a, b = sampler.elements(2)
        for u in (hd.comul(a), hd.tensor_of(a, b)):
            for maps in slot_maps:
                ref.same(tensor_apply(u, maps).terms, m.tensor_apply(u.terms, maps))


def test_key_product_matches_the_element_products(case):
    inst, m, _, sampler = case
    for n in (1, 2, 3, 4):
        for _ in range(15):
            keys = sampler.keys(n)
            ref.same(_key_product(inst, keys), m.key_product(keys))


def test_lambda_expansion_matches_the_slot_product_legs(case):
    inst, m, _, sampler = case
    for n in (1, 2, 3):
        for _ in range(15):
            keys = sampler.keys(n)
            got, want = tuple_comul_terms(inst, keys), m.tuple_comul(keys)
            assert [legs[:2] for legs in got] == [legs[:2] for legs in want]
            assert [repr(legs[2]) for legs in got] == [repr(legs[2]) for legs in want]


def test_deformed_square_matches_the_generator_sum(case):
    inst, m, L, sampler = case
    # the skewed instance is no bialgebra, so its generator is not validated
    D = hd.Deformation(inst, L, None, sampler) if inst.name == "skewed" else hd.make_deformation(inst, L, sampler)
    # equal t and s, where μ_t and μ_s are one table, are compared in test_pair_loops
    for t, s in ((-1.0, 0.5), (0.25, 1.0), (0.0, -0.75)):
        mu_t, mu_s = m.deformed_mul(L, t), m.deformed_mul(L, s)
        for _ in range(8):
            a, b = sampler.elements(2)
            got = TensorElement(inst, 2, _deformed_mul_square(D, t, s, a, b))
            ref.same(got.terms, m.mul_square(mu_t, mu_s, a.terms, b.terms))


def test_a_sum_that_cancels_below_the_pruning_threshold_is_pruned():
    z2 = hd.group_algebra_zd(2)
    e, g = (0, 0), (1, 0)
    u = hd.TensorElement(z2, 2, {(e, e): 1.0, (g, g): 1.0})
    v = hd.TensorElement(z2, 2, {(g, g): 1.0, (e, e): -(1.0 - 1e-13)})
    got = tensor_mul(u, v)
    ref.same(got.terms, ref.Model(z2).tensor_mul(u.terms, v.terms))
    assert (g, g) not in got.terms  # 1 − (1 − 1e-13) is below prune_eps
    assert list(got.terms) == [(e, e), ((2, 0), (2, 0))]


def test_a_key_product_prunes_after_each_step():
    # 1·1 lands below prune_eps and is dropped before the next factor would lift it above
    inst = hd.BialgebraInstance(
        "tiny", hd.Kind.FINITE, 0,
        mul_basis=lambda a, b: [(a + b, 1e-13 if (a, b) == (1, 1) else 1e3)],
        comul_basis=lambda k: [(k, k, 1.0)], counit_basis=lambda k: 1.0,
    )
    for keys in ((1, 1, 1), (1, 1), (0, 1, 1), (2, 1)):
        ref.same(_key_product(inst, keys), ref.Model(inst).key_product(keys))
    assert not _key_product(inst, (1, 1, 1))
    assert _key_product(inst, (2, 1)) == {3: 1e3 + 0j}


def test_rank_three_tensors_are_refused():
    z2 = hd.group_algebra_zd(2)
    a = z2.basis_element((1, 0))
    u = hd.tensor_of(a, a, a)
    with pytest.raises(AlgebraError, match="rank-2"):
        tensor_mul(u, u)
    with pytest.raises(AlgebraError, match="rank-2"):
        tensor_apply(u, (None, None, None))
