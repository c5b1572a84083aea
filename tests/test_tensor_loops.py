"""The rank-2 tensor loops against the generic sums they replaced.

Each reference below is the earlier implementation: a tensor term
``c·w₁·…·wₙ`` is built by a slot-product generator, multiplied left to
right, and summed by ``_linear``; a product of basis keys multiplies one
``Element`` per key.  The loops must give the same keys in the same dict
order, with every coefficient equal by ``repr``, so report bytes stay the
same.
"""
import itertools

import pytest

import hopfdeform as hd
from hopfdeform.convolution import tuple_comul_terms
from hopfdeform.core import AlgebraError, Element, TensorElement, _key_product, _linear, tensor_apply, tensor_mul
from hopfdeform.deformation import _deformed_mul_square, deformed_mul_pair


def _slot_products(items):
    for parts, c in items:
        for combo in itertools.product(*parts):
            w = c
            for _, v in combo:
                w *= v
            yield tuple(k for k, _ in combo), w


def ref_tensor_mul(u, v):
    mul_terms = u.instance.mul_terms
    terms = _linear(_slot_products(
        ([mul_terms(a, b) for a, b in zip(ku, kv)], cu * cv)
        for ku, cu in u.terms.items()
        for kv, cv in v.terms.items()
    ))
    return TensorElement(u.instance, u.rank, terms)


def ref_tensor_apply(u, slot_maps):
    terms = _linear(_slot_products(
        ([((k, 1.0 + 0j),) if fn is None else tuple(fn(k)) for k, fn in zip(keys, slot_maps)], c)
        for keys, c in u.terms.items()
    ))
    return TensorElement(u.instance, u.rank, terms)


def ref_key_product(instance, keys):
    prod = Element(instance, {keys[0]: 1.0})
    for k in keys[1:]:
        prod = hd.mul(prod, Element(instance, {k: 1.0}))
    return prod


def ref_tuple_comul(instance, keys):
    pairs = [tuple(((a, b), c) for a, b, c in instance.comul_terms(k)) for k in keys]
    return tuple((tuple(a for a, _ in lr), tuple(b for _, b in lr), c)
                 for lr, c in _slot_products([(pairs, 1.0 + 0j)]))


def ref_mul_square(D, t, s, a, b):
    def rhs_terms():
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                for left, right, c in tuple_comul_terms(D.instance, (ka, kb)):
                    w = ca * cb * c
                    e1 = deformed_mul_pair(D, t, left[0], left[1]).terms.items()
                    e2 = deformed_mul_pair(D, s, right[0], right[1]).terms.items()
                    for k1, w1 in e1:
                        for k2, w2 in e2:
                            yield (k1, k2), w * w1 * w2

    return TensorElement(D.instance, 2, _linear(rhs_terms()))


def _same(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    assert [repr(c) for c in got.values()] == [repr(c) for c in want.values()]


def _oscillator():
    inst = hd.symmetric_star_algebra(("x", "xstar"), involution={"x": "xstar", "xstar": "x"})
    return inst, hd.oscillator_cocycle(inst)


def _z2():
    inst = hd.group_algebra_zd(2)
    return inst, hd.make_zd_matrix_cocycle(inst, [[0.3, 0.7], [-0.1, 0.2]])


def _h4():
    inst = hd.sweedler_h4()
    return inst, hd.zero_cochain(inst, 2)


def _skewed():
    # the oscillator's rules with non-dyadic structure constants, so that a
    # change of product grouping shows in the last bit; not a bialgebra
    base, L = _oscillator()
    inst = hd.BialgebraInstance(
        "skewed", hd.Kind.GRADED_CONNECTED, base.unit,
        mul_basis=lambda k1, k2: [(k, 0.7 * c) for k, c in base.mul_terms(k1, k2)],
        comul_basis=lambda k: [(a, b, 1.3 * c) for a, b, c in base.comul_terms(k)],
        counit_basis=base.counit_key,
        antipode_basis=lambda k: [(kk, 0.9 * c) for kk, c in base.antipode_terms(k)],
        degree=base.degree_key,
    )
    return inst, hd.Cochain(inst, 2, L.value, name="skewed_oscillator")


CASES = {"oscillator": _oscillator, "z2": _z2, "h4": _h4, "skewed": _skewed}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    inst, L = CASES[request.param]()
    sampler = hd.ElementSampler(inst, seed=41, budget=40, coord_bound=2, max_degree=3, max_support=3)
    return inst, L, sampler


def test_tensor_mul_matches_the_slot_product_sum(case):
    inst, _, sampler = case
    for _ in range(30):
        a, b, c = sampler.elements(3)
        for u, v in ((hd.comul(a), hd.tensor_of(b, c)), (hd.tensor_of(a, b), hd.comul(c))):
            _same(tensor_mul(u, v).terms, ref_tensor_mul(u, v).terms)


def test_tensor_apply_matches_the_slot_product_sum(case):
    inst, _, sampler = case
    x = sampler.element()

    def left_mul(k):
        return hd.mul(x, inst.basis_element(k)).terms.items()

    slot_maps = [(inst.antipode_terms, None), (None, inst.antipode_terms), (left_mul, inst.antipode_terms),
                 (None, None), (left_mul, None)]
    for _ in range(20):
        a, b = sampler.elements(2)
        for u in (hd.comul(a), hd.tensor_of(a, b)):
            for maps in slot_maps:
                _same(tensor_apply(u, maps).terms, ref_tensor_apply(u, maps).terms)


def test_key_product_matches_the_element_products(case):
    inst, _, sampler = case
    for n in (1, 2, 3, 4):
        for _ in range(15):
            keys = sampler.keys(n)
            _same(_key_product(inst, keys), ref_key_product(inst, keys).terms)


def test_lambda_expansion_matches_the_slot_product_legs(case):
    inst, _, sampler = case
    for n in (1, 2, 3):
        for _ in range(15):
            keys = sampler.keys(n)
            got, want = inst.tuple_comul_terms(keys), ref_tuple_comul(inst, keys)
            assert [legs[:2] for legs in got] == [legs[:2] for legs in want]
            assert [repr(legs[2]) for legs in got] == [repr(legs[2]) for legs in want]


def test_deformed_square_matches_the_generator_sum(case):
    inst, L, sampler = case
    # the skewed instance is no bialgebra, so its generator is not validated
    D = hd.Deformation(inst, L, None, sampler) if inst.name == "skewed" else hd.make_deformation(inst, L, sampler)
    for t, s in ((-1.0, 0.5), (0.25, 1.0), (0.0, -0.75)):
        for _ in range(8):
            a, b = sampler.elements(2)
            got = TensorElement(inst, 2, _deformed_mul_square(D, t, s, a, b))
            _same(got.terms, ref_mul_square(D, t, s, a, b).terms)


def test_a_sum_that_cancels_below_the_pruning_threshold_is_pruned():
    z2 = hd.group_algebra_zd(2)
    e, g = (0, 0), (1, 0)
    u = hd.TensorElement(z2, 2, {(e, e): 1.0, (g, g): 1.0})
    v = hd.TensorElement(z2, 2, {(g, g): 1.0, (e, e): -(1.0 - 1e-13)})
    got = tensor_mul(u, v)
    _same(got.terms, ref_tensor_mul(u, v).terms)
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
        _same(_key_product(inst, keys), ref_key_product(inst, keys).terms)
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
