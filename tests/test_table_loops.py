"""The structure maps, the cochain rules and the map tables that read the basis tables, against the reference model.

Keys, their dict order and the ``repr`` of every coefficient and cochain
value must be the model's, so report bytes stay the same.
"""
import itertools
import math

import pytest

import hopfdeform as hd
from hopfdeform.cohomology import coboundary, compose_antipode_flip, hermitian_conjugate
from hopfdeform import convolution, core
from hopfdeform.convolution import (_exp_legs, antipode_map, functional_conv_map, identity_map, map_conv_functional,
                                    mu_n_map, tuple_comul_terms, tuple_counit)
from hopfdeform.core import (AlgebraError, EPS_PRUNE, Kind, NonFiniteError, TensorElement, check_structure, counit,
                             scale, tensor_apply, tensor_contract_slot, tensor_expand_slot, tensor_mul_all)
from hopfdeform.deformation import (DEFAULT_T_GRID, _flipped_antipodes, _sigma_cochains, _sigma_sides,
                                    deformed_antipode, deformed_mul_map, phi_map)

import reference as ref


def _sampler(inst, seed=47, budget=12):
    return hd.ElementSampler(inst, seed=seed, budget=budget, coord_bound=2, max_degree=3, max_support=3)


@pytest.fixture(params=[(c, p) for c in sorted(ref.CASES) for p in ref.PRUNES])
def case(request):
    name, prune = request.param
    inst, L = ref.CASES[name]()
    if ref.PRUNES[prune] is not None:
        inst.prune_eps = ref.PRUNES[prune]
    return inst, ref.Model(inst), L, _sampler(inst)


def _dense(inst, arity):
    """A cochain with a value on every tuple, its real part -0.0 and its imaginary part sometimes -0.0.

    It is infinite on tuples that hold ``reference.FAR``, which a zero weight must skip.
    """
    return hd.Cochain(inst, arity, lambda ks: complex(math.inf, 1.0) if ref.FAR in ks else
                      complex(-0.0, -((len(repr(ks)) + 3 * len(repr(ks[0]))) % 7) * 0.3), name=f"dense{arity}")


def _signed(a):
    """``a`` with each coefficient's real or imaginary part, in turn, replaced by -0.0."""
    return a.instance.element({k: complex(-0.0, c.imag) if i % 2 else complex(c.real, -0.0)
                               for i, (k, c) in enumerate(a.terms.items())})


def _draws(sampler, n, rounds):
    """``rounds`` draws of n elements, each followed by the same elements with signed zeros."""
    for _ in range(rounds):
        xs = sampler.elements(n)
        yield xs
        yield [_signed(x) for x in xs]


def _tuples(inst, sampler, n, count=25):
    if inst.kind is Kind.FINITE:
        return list(itertools.product(sorted(inst.basis_keys(), key=inst.sort_key), repeat=n))
    return [sampler.keys(n) for _ in range(count)]


def _same_values(got, want, tuples):
    assert [repr(got.value(u)) for u in tuples] == [repr(want.value(u)) for u in tuples]


# -- the structure maps -------------------------------------------------------------------


def test_comul_and_the_counit_match_the_rule_sums(case):
    inst, m, _, sampler = case
    for (a,) in _draws(sampler, 1, 15):
        ref.same(hd.comul(a).terms, m.comul(a.terms))
        assert repr(counit(a)) == repr(m.counit(a.terms))
        assert [repr(inst.counit_key(k)) for k in a.terms] == [repr(m.counit_of(k)) for k in a.terms]
    for u in _tuples(inst, sampler, 3, 10):
        assert repr(tuple_counit(inst, u)) == repr(m.tuple_counit(u))


def test_slot_expansion_and_contraction_match_the_rule_sums(case):
    inst, m, _, sampler = case
    for a, b in _draws(sampler, 2, 10):
        for u in (hd.comul(a), hd.tensor_of(a, b), hd.tensor_of(a, b, a)):
            for slot in range(u.rank):
                ref.same(tensor_expand_slot(u, slot).terms, m.expand(u.terms, slot))
                ref.same(tensor_contract_slot(u, slot).terms, m.contract(u.terms, slot))


def test_a_rank_one_contraction_is_still_refused(case):
    inst = case[0]
    u = hd.tensor_of(inst.unit_element())
    with pytest.raises(AlgebraError, match="tensor rank must be >= 1"):
        tensor_contract_slot(u, 0)


def test_the_slot_product_matches_the_key_products(case):
    inst, m, _, sampler = case
    rows = [(None, None)]
    if inst.has_antipode:
        rows += [(inst.antipode_terms, None), (None, inst.antipode_terms)]
    for a, b in _draws(sampler, 2, 10):
        for u in (hd.comul(a), hd.tensor_of(a, b)):
            for maps in rows:
                v = tensor_apply(u, maps)
                ref.same(tensor_mul_all(v).terms, m.mul_all(v.terms))
        # one term each, whose coefficient's signed zero no slot map has touched
        for (ka, ca), kb in zip(a.terms.items(), b.terms):
            v = TensorElement(inst, 2, {(ka, kb): ca})
            ref.same(tensor_mul_all(v).terms, m.mul_all(v.terms))
        with pytest.raises(AlgebraError, match="tensor_mul_all is defined on rank-2 tensors"):
            tensor_mul_all(hd.tensor_of(a, b, a))


def test_check_structure_matches_the_suite_that_recomputes(case):
    inst, m, _, _ = case
    got = check_structure(inst, _sampler(inst, seed=53, budget=15))
    want = m.check_structure(_sampler(inst, seed=53, budget=15))
    assert repr(got.to_dict()) == repr(want.to_dict())


def test_cancelling_sums_are_pruned():
    inst = hd.group_algebra_zd(2)
    m = ref.Model(inst)
    g, h, gh = (1, 0), (0, 1), (1, 1)
    a = inst.element({g: 1.0, h: -(1.0 - 1e-13)})
    # S(g)·g and S(h)·h are both the unit: the antipode sum cancels
    for maps in ((inst.antipode_terms, None), (None, inst.antipode_terms)):
        v = tensor_apply(hd.comul(a), maps)
        ref.same(tensor_mul_all(v).terms, m.mul_all(v.terms))
        assert tensor_mul_all(v).is_zero
    u = hd.TensorElement(inst, 2, {(g, h): 1.0, (g, gh): -(1.0 - 1e-13)})
    ref.same(tensor_contract_slot(u, 1).terms, m.contract(u.terms, 1))
    assert tensor_contract_slot(u, 1).is_zero
    w = hd.TensorElement(inst, 3, {(g, h, g): 1.0, (g, h, gh): -(1.0 - 1e-13), (h, h, h): 2.0})
    ref.same(tensor_contract_slot(w, 2).terms, m.contract(w.terms, 2))
    assert list(tensor_contract_slot(w, 2).terms) == [(h, h)]


# -- the cochain rules --------------------------------------------------------------------


def test_coboundaries_match_the_element_rules(case):
    inst, m, L, sampler = case
    for f in (L, _dense(inst, 1), _dense(inst, 2), hd.counit_cochain(inst, 1)):
        _same_values(coboundary(f), m.coboundary(f), _tuples(inst, sampler, f.arity + 1))
    df = coboundary(_dense(inst, 1))
    _same_values(coboundary(df), m.coboundary(df), _tuples(inst, sampler, 3))


def test_the_antipode_rules_match_the_element_rules(case):
    inst, m, L, sampler = case
    if not inst.has_antipode:
        pytest.skip("no antipode")
    for f in (L, _dense(inst, 2)):
        _same_values(compose_antipode_flip(f), m.compose_antipode_flip(f), _tuples(inst, sampler, 2))
        sig, flip = _sigma_cochains(hd.Deformation(inst, f, None, sampler))
        keys = _tuples(inst, sampler, 1)
        _same_values(sig, m.sigma(f, 1), keys)
        _same_values(flip, m.sigma(f, 0), keys)


def test_hermitian_conjugates_match_the_element_rule(case):
    inst, m, L, sampler = case
    if not inst.has_star:
        pytest.skip("no involution")
    for f in (L, _dense(inst, 1), _dense(inst, 3)):
        _same_values(hermitian_conjugate(f), m.hermitian_conjugate(f), _tuples(inst, sampler, f.arity))


def test_a_non_finite_product_row_raises_the_element_error():
    base = hd.group_algebra_zd(1)
    inst = hd.BialgebraInstance(
        "overflowing", hd.Kind.GROUPLIKE_BASIS, base.unit,
        mul_basis=lambda k1, k2: [((k1[0] + k2[0],), complex(1e308, 0.0) * (1 + abs(k1[0])) if k1[0] > 1 else 1.0)],
        comul_basis=base.comul_terms, counit_basis=base.counit_key,
    )
    f = _dense(inst, 2)
    for u in (((2,), (3,), (0,)), ((0,), (3,), (1,))):  # the first or the second product row overflows
        with pytest.raises(NonFiniteError) as got:
            coboundary(f).value(u)
        with pytest.raises(NonFiniteError) as want:
            ref.Model(inst).coboundary(f).value(u)
        assert str(got.value) == str(want.value)


# -- the built-in maps against the model's rows ---------------------------------------------


def _psi(inst):
    """A normalized arity-1 cochain with non-dyadic values; zero on a finite instance, where only 0 is certified."""
    if inst.kind is Kind.FINITE:
        return hd.zero_cochain(inst, 1)
    return hd.Cochain(inst, 1, lambda ks: 0j if ks[0] == inst.unit else complex(0.1 * (len(repr(ks)) % 5), -0.3),
                      name="psi")


def _map_pairs(inst, m, L, sampler):
    """Pairs of a built-in map and the model's map."""
    psi = _psi(inst)
    # no generator validation: the rows, not the laws, are compared, also on the
    # instances that are no bialgebras and at thresholds that break the laws
    D = hd.Deformation(inst, L, None, sampler, witness=psi)
    D._sigma = _sigma_cochains(D)[0]  # σ without its flip check, which those instances may fail
    ident, anti, mu2 = m.identity_map(), m.antipode_map(), m.mu_n_map(2)
    pairs = [
        (identity_map(inst), ident),
        (antipode_map(inst), anti),
        (mu_n_map(inst, 2), mu2),
        (mu_n_map(inst, 3), m.mu_n_map(3)),
        (map_conv_functional(identity_map(inst), psi), m.scalar_convolution(ident, psi, 1)),
        (map_conv_functional(mu_n_map(inst, 2), L), m.scalar_convolution(mu2, L, 1)),
        (functional_conv_map(psi, antipode_map(inst)), m.scalar_convolution(anti, psi, 0)),
    ]
    for t in DEFAULT_T_GRID:
        pairs += [
            (deformed_mul_map(D, t), m.deformed_mul(L, t)),
            (deformed_antipode(D, t), m.deformed_antipode(L, t)),
            (phi_map(D, t), m.map_conv_exp(ident, psi, t)),
        ]
    return pairs


def test_every_built_in_map_keeps_the_rows_of_the_element_rule(case):
    inst, m, L, sampler = case
    pairs = _map_pairs(inst, m, L, sampler)
    tuples = {rank: _tuples(inst, sampler, rank, 12) for rank in (1, 2, 3)}
    for A, R in pairs:
        for u in tuples[A.rank]:
            got, want = A._row(u), R.row(u)
            assert len(got) == len(want)
            ref.same(dict(got), dict(want))


# -- the one-pass fills --------------------------------------------------------------------


def test_the_nonzero_legs_match_the_model(case):
    inst, m, L, sampler = case
    for f in (L, _psi(inst), _dense(inst, 1), _dense(inst, 2)):
        for u in _tuples(inst, sampler, f.arity, 12):
            assert repr(f._legs[u]) == repr(tuple(m.nonzero_legs(f, u)))


def test_the_shared_expansions_of_map_conv_exp_match_the_model(case):
    inst, m, L, sampler = case
    psi = _psi(inst)
    D = hd.Deformation(inst, L, None, sampler, witness=psi)
    sigma = _sigma_cochains(D)[0]
    # μ with L, S with σ and the identity with ψ, as μ_t, S_t and Φ_t expand them
    for A, R, f in ((mu_n_map(inst, 2), m.mu_n_map(2), L), (antipode_map(inst), m.antipode_map(), sigma),
                    (identity_map(inst), m.identity_map(), psi)):
        legs = _exp_legs(A, f)
        for u in _tuples(inst, sampler, A.rank, 12):
            assert repr(legs[u]) == repr(tuple(m.exp_legs(R, f, u)))


def test_the_lambda_coefficient_keeps_its_grouping():
    # coproduct coefficients whose signed zeros make ((1+0j)·c₁)·c₂ and (1+0j)·(c₁·c₂) differ
    base = hd.group_algebra_zd(1)
    coeffs = {-1: complex(1.0, -0.0), 0: complex(-1.0, -0.0), 1: complex(-0.0, 1.0), 2: complex(-1.0, 0.0)}
    inst = hd.BialgebraInstance(
        "signed_coproduct", hd.Kind.GROUPLIKE_BASIS, base.unit, mul_basis=base.mul_terms,
        comul_basis=lambda k: [(k, k, coeffs[k[0]])], counit_basis=base.counit_key,
        antipode_basis=base.antipode_terms,
    )
    m, L = ref.Model(inst), hd.make_zd_matrix_cocycle(inst, [[0.3]])
    pairs = [((a,), (b,)) for a in coeffs for b in coeffs]
    assert any(repr((ref.ONE * c1) * c2) != repr(ref.ONE * (c1 * c2)) for c1 in coeffs.values() for c2 in coeffs.values())
    legs = _exp_legs(mu_n_map(inst, 2), L)
    for u in pairs:
        assert repr(tuple_comul_terms(inst, u)) == repr(tuple(m.tuple_comul(u)))
        assert repr(L._legs[u]) == repr(tuple(m.nonzero_legs(L, u)))
        assert repr(legs[u]) == repr(tuple(m.exp_legs(m.mu_n_map(2), L, u)))


_MATRICES = {
    "z2": [[0.3, 0.7], [-0.1, 0.2]],
    "signed_zeros": [[0.3, -0.0], [-0.1, 0.2]],
    "z3": [[0.1, -0.7, 0.3], [0.2, 1 / 3, -0.9], [-0.0, 0.6, 0.7]],
}


@pytest.mark.parametrize("matrix", list(_MATRICES.values()), ids=list(_MATRICES))
def test_the_zd_matrix_rule_matches_its_definition(matrix):
    d = len(matrix)
    inst = hd.group_algebra_zd(d)
    L = hd.make_zd_matrix_cocycle(inst, matrix)
    want = hd.Cochain(inst, 2, lambda keys: ref.zd_matrix_value(matrix, keys))
    coords = [-3, -1, 0, 2, 5, 7]
    keys = [tuple(coords[(i * j + j) % len(coords)] for j in range(d)) for i in range(len(coords))]
    _same_values(L, want, [(k, l) for k in keys for l in keys])
    huge = ((10**400,) + (0,) * (d - 1), (1,) * d)  # an integer too large for a float
    with pytest.raises(NonFiniteError) as got:
        L.value(huge)
    with pytest.raises(NonFiniteError) as expected:
        want.value(huge)
    assert str(got.value).replace("matrix_cocycle", "f") == str(expected.value)


def test_the_z_polynomial_rule_matches_its_definition():
    inst = hd.group_algebra_zd(1)
    coeffs = [(2, 1, 0.1), (1, 2, complex(0.3, -0.7)), (0, 0, 1 / 3), (3, 0, -0.2), (1, 1, complex(-0.0, 0.9))]
    L = hd.make_z_polynomial_cocycle(inst, coeffs)
    want = hd.Cochain(inst, 2, lambda keys: ref.z_polynomial_value(coeffs, keys))
    points = [(-7,), (-2,), (0,), (1,), (3,), (11,)]
    _same_values(L, want, [(a, b) for a in points for b in points])


def test_a_first_mu_t_fill_evaluates_the_cocycle_once_and_cleans_each_row_once(monkeypatch):
    inst = hd.group_algebra_zd(2)
    base = hd.make_zd_matrix_cocycle(inst, [[0.3, 0.7], [-0.1, 0.2]])
    evaluated, cleaned = [], []
    L = hd.Cochain(inst, 2, lambda keys: evaluated.append(keys) or base.value(keys))
    for module in (core, convolution):
        monkeypatch.setattr(module, "_clean_terms", lambda terms, prune, clean=module._clean_terms:
                            cleaned.append(dict(terms)) or clean(terms, prune))
    D = hd.Deformation(inst, L, None, None)
    pair = ((1, -1), (2, 1))
    D._mul_maps[0.5]._row(pair)
    # μ²'s row on the pair, then μ_t's, each cleaned once where it is filled
    assert evaluated == [pair]
    assert cleaned == [{(3, 0): ref.ONE}, dict(D._mul_maps[0.5]._row(pair))]
    # another t reads μ²'s row and L's value from their tables
    D._mul_maps[1.0]._row(pair)
    assert evaluated == [pair] and len(cleaned) == 3


# -- the Hopf suite's table loops ----------------------------------------------------------


@pytest.fixture(scope="module", params=["oscillator", "z2", "h4"])
def deformation(request):
    inst, L = ref.CASES[request.param]()
    sampler = _sampler(inst, seed=59, budget=30)
    return inst, ref.Model(inst), hd.make_deformation(inst, L, sampler), sampler


def test_the_flipped_antipode_square_matches_the_slot_maps(deformation):
    inst, m, D, sampler = deformation
    for t, r in ((-1.0, 0.5), (0.25, 0.25), (0.0, -0.75)):
        s_t, s_r = m.deformed_antipode(D.generator, t), m.deformed_antipode(D.generator, r)
        for _ in range(8):
            a = sampler.element()
            ref.same(TensorElement(inst, 2, _flipped_antipodes(D, t, r, a)).terms,
                     m.flipped_antipodes(s_t, s_r, a.terms))


def test_the_sigma_sides_match_the_linear_sums(deformation):
    inst, m, D, sampler = deformation
    dense = _dense(inst, 1)
    for _ in range(12):
        a = sampler.element()
        for f, g in ((D.sigma(), m.sigma(D.generator)), (dense, dense)):
            for got, want in zip(_sigma_sides(f, a), m.sigma_sides(g, a.terms)):
                ref.same(hd.Element(inst, got).terms, want)


# -- check_structure on inputs that overflow -------------------------------------------------


class _FixedSampler:
    """Draws the given elements and keys in order."""

    def __init__(self, elements, keys):
        self.budget = len(elements) // 3
        self._elements, self._keys = iter(elements), iter(keys)

    def element(self):
        return next(self._elements)

    def key(self):
        return next(self._keys)


def _huge_antipode():
    # Z² whose antipode rows carry a huge constant: only the antipode law overflows
    base = hd.group_algebra_zd(2)
    return hd.BialgebraInstance(
        "huge_antipode", hd.Kind.GROUPLIKE_BASIS, base.unit,
        mul_basis=base.mul_terms, comul_basis=base.comul_terms, counit_basis=base.counit_key,
        antipode_basis=lambda k: [(kk, 1e300 * c) for kk, c in base.antipode_terms(k)],
        star_basis=base.star_terms,
    )


def _huge_comul():
    # Z² whose coproduct rows carry a huge constant: Δ(a) overflows once expanded
    base = hd.group_algebra_zd(2)
    return hd.BialgebraInstance(
        "huge_comul", hd.Kind.GROUPLIKE_BASIS, base.unit,
        mul_basis=base.mul_terms, counit_basis=base.counit_key,
        comul_basis=lambda k: [(k, k, 1e300)],
    )


@pytest.mark.parametrize("make, scaled", [
    (lambda: hd.group_algebra_zd(2), {2: 1e160}),  # a·b overflows in associativity at triple 2
    (lambda: hd.group_algebra_zd(2), {0: 1e160, 3: 1e160}),
    (_huge_antipode, {3: 1e10}),  # S(a₁)·a₂ overflows in the antipode law at triple 3
    # (Δ⊗id)Δ(a) overflows at every triple, but associativity runs first and overflows at triple 2
    (_huge_comul, {2: 1e160}),
])
def test_an_overflowing_input_raises_the_first_error_of_the_recomputing_suite(make, scaled):
    inst = make()
    draws = _sampler(inst, seed=61, budget=5)
    elements = [draws.element() for _ in range(15)]
    for at, big in scaled.items():
        elements[3 * at] = scale(big, elements[3 * at])
        elements[3 * at + 1] = scale(big, elements[3 * at + 1])
    keys = [draws.key() for _ in range(5)]
    with pytest.raises(NonFiniteError) as got:
        check_structure(inst, _FixedSampler(elements, keys))
    with pytest.raises(NonFiniteError) as want:
        ref.Model(inst).check_structure(_FixedSampler(elements, keys))
    assert str(got.value) == str(want.value)


def test_prune_eps_is_read_when_a_map_runs():
    inst, _ = ref.z2()
    m = ref.Model(inst)
    a = inst.element({(1, 0): 0.5, (0, 1): 2.0})
    assert list(hd.comul(a).terms) == [((1, 0), (1, 0)), ((0, 1), (0, 1))]
    inst.prune_eps = 1.0
    try:
        ref.same(hd.comul(a).terms, m.comul(a.terms))
        assert list(hd.comul(a).terms) == [((0, 1), (0, 1))]
        v = tensor_apply(hd.comul(a), (inst.antipode_terms, None))
        ref.same(tensor_mul_all(v).terms, m.mul_all(v.terms))
        assert tensor_mul_all(v).terms == {inst.unit: 2.0}
    finally:
        inst.prune_eps = EPS_PRUNE
