"""The μ_t / S_t loops that read the memo tables, against the element chains they replaced.

Each reference below is the earlier implementation: ``LinMap`` application
summed by ``_linear`` or ``_bilinear`` through a rule that reads the map's
value ``A.value(keys)`` at the tuple, (μ_t⊗μ_s)∘Λ read through ``deformed_mul_pair`` leg by leg, and the
antipode identity's sides built from basis elements, ``S_t``,
``deformed_mul``, ``scale`` and ``+``.  Every reference dict is cleaned by
a copy of the earlier cleaning routine.  The loops must give the same keys
in the same dict order, with every coefficient equal by ``repr``, so report
bytes stay the same.
"""
import math

import pytest

import hopfdeform as hd
from hopfdeform.convolution import LinMap, antipode_map, mu_n_map, tuple_comul_terms
from hopfdeform.core import EPS_PRUNE, NonFiniteError
from hopfdeform.deformation import (
    _add_scaled,
    _antipode_sides,
    _deformed_mul_square,
    deformed_antipode,
    deformed_mul_map,
    deformed_mul_pair,
)

_INF = math.inf


def ref_clean(terms, prune):
    out = {}
    for key, raw in terms.items():
        z = raw if raw.__class__ is complex else complex(raw)
        try:
            size = abs(z)
        except OverflowError:
            size = _INF
        if not size < _INF:
            raise NonFiniteError(f"non-finite coefficient {raw!r} at basis key {key!r}")
        if size >= prune:
            out[key] = z
    return out


def ref_linear(items, rule=None, start=None):
    acc = {} if start is None else dict(start)
    if rule is None:
        for key, c in items:
            cur = acc.get(key)
            acc[key] = c if cur is None else cur + c
    else:
        for k, c in items:
            for key, w in rule(k):
                cur = acc.get(key)
                acc[key] = c * w if cur is None else cur + c * w
    return acc


def ref_bilinear(a_terms, b_terms, rule):
    acc = {}
    for ka, ca in a_terms:
        for kb, cb in b_terms:
            c = ca * cb
            for key, w in rule(ka, kb):
                cur = acc.get(key)
                acc[key] = c * w if cur is None else cur + c * w
    return acc


def ref_call(A, terms: dict) -> dict:
    """A rank-1 map on an element's terms."""
    return ref_clean(ref_linear(terms.items(), lambda k: A.value((k,)).terms.items()), A.instance.prune_eps)


def ref_call_tensor(A, terms: dict) -> dict:
    return ref_clean(ref_linear(terms.items(), lambda keys: A.value(keys).terms.items()), A.instance.prune_eps)


def ref_on_pair(A, a: dict, b: dict) -> dict:
    summed = ref_bilinear(a.items(), b.items(), lambda ka, kb: A.value((ka, kb)).terms.items())
    return ref_clean(summed, A.instance.prune_eps)


def ref_mul_square(D, t, s, a, b) -> dict:
    acc = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            for left, right, c in tuple_comul_terms(D.instance, (ka, kb)):
                w = ca * cb * c
                e1 = deformed_mul_pair(D, t, left[0], left[1]).terms.items()
                e2 = deformed_mul_pair(D, s, right[0], right[1]).terms.items()
                for k1, w1 in e1:
                    ww = w * w1
                    for k2, w2 in e2:
                        key = (k1, k2)
                        cur = acc.get(key)
                        acc[key] = ww * w2 if cur is None else cur + ww * w2
    return ref_clean(acc, D.instance.prune_eps)


def ref_antipode_sides(D, t, a):
    prune = D.instance.prune_eps
    St, mu = deformed_antipode(D, t), deformed_mul_map(D, t)
    lhs, rhs = {}, {}
    for (k1, k2), c in hd.comul(a).terms.items():
        e1, e2 = ref_clean({k1: 1.0}, prune), ref_clean({k2: 1.0}, prune)
        lhs = ref_add(lhs, ref_scale(c, ref_on_pair(mu, ref_call(St, e1), e2), prune), prune)
        rhs = ref_add(rhs, ref_scale(c, ref_on_pair(mu, e1, ref_call(St, e2)), prune), prune)
    return lhs, rhs


def ref_scale(c, terms, prune):
    return ref_clean({k: c * v for k, v in terms.items()}, prune)


def ref_add(x, y, prune):
    return ref_clean(ref_linear(y.items(), None, x), prune)


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
T_PAIRS = ((-1.0, 0.5), (0.25, 1.0), (0.0, -0.75))


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    inst, L = CASES[request.param]()
    sampler = hd.ElementSampler(inst, seed=43, budget=40, coord_bound=2, max_degree=3, max_support=3)
    # the skewed instance is no bialgebra, so its generator is not validated
    D = hd.Deformation(inst, L, None, sampler) if inst.name == "skewed" else hd.make_deformation(inst, L, sampler)
    return inst, D, sampler


def test_on_pair_matches_the_bilinear_sum(case):
    inst, D, sampler = case
    maps = [mu_n_map(inst, 2)] + [deformed_mul_map(D, t) for t, _ in T_PAIRS]
    for _ in range(10):
        a, b = sampler.elements(2)
        for A in maps:
            _same(A.on_pair(a, b).terms, ref_on_pair(A, a.terms, b.terms))


def test_map_application_matches_the_linear_sum(case):
    inst, D, sampler = case
    x = sampler.element()
    maps = [hd.identity_map(inst), antipode_map(inst), hd.r_phi(hd.counit_cochain(inst, 1)),
            LinMap(inst, 1, lambda ks: hd.mul(x, inst.basis_element(ks[0])).terms)]
    maps += [deformed_antipode(D, t) for t, _ in T_PAIRS]
    for _ in range(10):
        a, b = sampler.elements(2)
        for A in maps:
            _same(A(a).terms, ref_call(A, a.terms))
            _same(A(hd.tensor_of(a)).terms, ref_call(A, a.terms))
        for A in (mu_n_map(inst, 2), deformed_mul_map(D, 0.5)):
            for u in (hd.comul(a), hd.tensor_of(a, b)):
                _same(A(u).terms, ref_call_tensor(A, u.terms))


def test_every_map_table_holds_its_values_as_rows(case):
    inst, D, sampler = case
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
    inst, D, sampler = case
    for t, s in ((0.5, 0.5), (-1.0, -1.0)):
        for _ in range(8):
            a, b = sampler.elements(2)
            got = hd.TensorElement(inst, 2, _deformed_mul_square(D, t, s, a, b))
            _same(got.terms, ref_mul_square(D, t, s, a, b))


def test_antipode_sides_match_the_element_chain(case):
    inst, D, sampler = case
    for t, _ in T_PAIRS:
        for _ in range(10):
            a = sampler.element()
            lhs, rhs = _antipode_sides(D, t, a)
            want_lhs, want_rhs = ref_antipode_sides(D, t, a)
            _same(lhs, want_lhs)
            _same(rhs, want_rhs)


# -- sums that cancel below prune_eps ----------------------------------------------


@pytest.fixture(scope="module")
def z2_deformation():
    inst, L = _z2()
    return inst, hd.make_deformation(inst, L, hd.ElementSampler(inst, seed=5, budget=20))


def test_a_pair_sum_that_cancels_is_pruned(z2_deformation):
    inst, D = z2_deformation
    g, h = (1, 0), (0, 1)
    # at t = 0, μ_0 is μ: g·h and h·g both give (1, 1) with coefficient 1
    a = inst.element({g: 1.0, h: -(1.0 - 1e-13)})
    b = inst.element({h: 1.0, g: 1.0})
    for A in (mu_n_map(inst, 2), deformed_mul_map(D, 0.0)):
        got = A.on_pair(a, b)
        _same(got.terms, ref_on_pair(A, a.terms, b.terms))
        assert (1, 1) not in got.terms
        assert list(got.terms) == [(2, 0), (0, 2)]
    square = hd.TensorElement(inst, 2, _deformed_mul_square(D, 0.0, 0.0, a, b))
    _same(square.terms, ref_mul_square(D, 0.0, 0.0, a, b))
    assert ((1, 1), (1, 1)) not in square.terms


def test_a_map_sum_that_cancels_is_pruned():
    z2 = hd.group_algebra_zd(2)
    to_unit = LinMap(z2, 1, lambda ks: z2.unit_element().terms)
    x = z2.element({(1, 0): 1.0, (0, 1): -(1.0 - 1e-13)})
    got = to_unit(x)
    _same(got.terms, ref_call(to_unit, x.terms))
    assert got.is_zero


def test_an_antipode_side_that_cancels_is_pruned_and_refilled(z2_deformation):
    inst, D = z2_deformation
    # the unit's coefficient cancels after the second leg and comes back with the third
    a = inst.element({(1, 0): 1.0, (0, 1): -1.0, (1, 1): 0.5})
    for t in (-1.0, 0.0, 0.5):
        lhs, rhs = _antipode_sides(D, t, a)
        want_lhs, want_rhs = ref_antipode_sides(D, t, a)
        _same(lhs, want_lhs)
        _same(rhs, want_rhs)
        assert list(lhs) == [inst.unit] and abs(lhs[inst.unit] - 0.5) < 1e-12
    cancelled, _ = _antipode_sides(D, 0.5, inst.element({(1, 0): 1.0, (0, 1): -1.0}))
    assert cancelled == {}


def test_antipode_sides_are_zero_when_a_basis_element_is_pruned():
    inst, L = _z2()
    D = hd.make_deformation(inst, L, hd.ElementSampler(inst, seed=5, budget=20))
    a = inst.element({(1, 0): 2.0, (0, 1): 3.0})
    inst.prune_eps = 1.5  # a basis element 1·k is now below the threshold
    try:
        assert _antipode_sides(D, 0.5, a) == ({}, {}) == ref_antipode_sides(D, 0.5, a)
    finally:
        inst.prune_eps = EPS_PRUNE


# -- a running side that overflows ---------------------------------------------------


def test_a_non_finite_leg_raises_the_error_of_the_element_chain(z2_deformation):
    inst, D = z2_deformation
    # at t = 0 every leg adds its coefficient at the unit: the second leg overflows the running sum
    a = inst.element({(1, 0): 1e308, (0, 1): 1e308, (1, 1): 1.0})
    with pytest.raises(NonFiniteError) as got:
        _antipode_sides(D, 0.0, a)
    with pytest.raises(NonFiniteError) as want:
        ref_antipode_sides(D, 0.0, a)
    assert str(got.value) == str(want.value)
    assert "inf" in str(got.value)


def test_a_running_sum_names_its_first_non_finite_key_in_dict_order():
    prune = EPS_PRUNE
    # the leg touches y before x, but x comes first in the running dict
    acc = {"x": 1e308 + 0j, "y": 1e308 + 0j, "z": 1.0 + 0j}
    leg = {"y": 1e308 + 0j, "z": -1.0 + 0j, "x": 1e308 + 0j}
    want = pytest.raises(NonFiniteError, match="at basis key 'x'")
    with want:
        ref_add(dict(acc), ref_scale(1.0 + 0j, ref_clean(dict(leg), prune), prune), prune)
    with pytest.raises(NonFiniteError) as got:
        _add_scaled(dict(acc), 1.0 + 0j, dict(leg), prune)
    assert str(got.value) == str(want.excinfo.value)
    # without the overflow, z cancels and is pruned where it stood
    acc["x"] = acc["y"] = 1.0 + 0j
    got_acc = dict(acc)
    _add_scaled(got_acc, 1.0 + 0j, dict(leg), prune)
    _same(got_acc, ref_add(dict(acc), ref_scale(1.0 + 0j, ref_clean(dict(leg), prune), prune), prune))
    assert list(got_acc) == ["x", "y"]
