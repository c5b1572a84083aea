"""Deformed products, conjugation, deformed antipodes, splitting, star laws."""
import itertools
import math

import pytest

import hopfdeform as hd
from hopfdeform.convolution import (
    antipode_map,
    conv_exp,
    identity_map,
    map_conv_functional,
    mu_n_map,
)
from hopfdeform.deformation import DEFAULT_T_GRID, deformed_mul_map


def _form(k, A, l):
    """k·A·lᵀ for a square matrix ``A`` of nested lists."""
    return sum(k[i] * A[i][j] * l[j] for i in range(len(k)) for j in range(len(l)))


@pytest.fixture(scope="module")
def cubic():
    inst = hd.group_algebra_zd(1)
    L, psi = hd.make_z_cubic_coboundary(inst)
    sampler = hd.ElementSampler(inst, seed=7, coord_bound=1, budget=120)
    D = hd.make_deformation(inst, L, sampler, witness=psi)
    return inst, D, psi


@pytest.fixture(scope="module")
def oscillator():
    inst = hd.symmetric_star_algebra(("x", "xstar"), involution={"x": "xstar", "xstar": "x"})
    L = hd.oscillator_cocycle(inst)
    sampler = hd.ElementSampler(inst, seed=11, budget=120)
    D = hd.make_deformation(inst, L, sampler, require_star=True)
    return inst, D


@pytest.fixture(scope="module")
def zd_matrix():
    inst = hd.group_algebra_zd(2)
    A = [[0.0, 1.0], [0.0, 0.0]]
    L = hd.make_zd_matrix_cocycle(inst, A)
    sampler = hd.ElementSampler(inst, seed=13, coord_bound=2, budget=120)
    return inst, hd.make_deformation(inst, L, sampler), A


def test_deformed_mul_cubic_closed_form(cubic):
    inst, D, _ = cubic
    one1 = inst.basis_element((1,))
    for t in (-1.0, -0.25, 0.0, 0.5, 1.0):
        out = hd.deformed_mul(D, t, one1, one1)
        assert abs(out.coeff((2,)) - math.exp(2 * t)) < 1e-12 * max(1.0, math.exp(2 * t))
        assert len(out.terms) == 1


def test_deformed_mul_at_zero_is_plain(cubic):
    inst, D, _ = cubic
    a = inst.element({(1,): 0.5, (-1,): 2.0})
    b = inst.element({(0,): 1.0, (1,): -1.0})
    assert hd.deformed_mul(D, 0.0, a, b) == hd.mul(a, b)


def test_deformed_mul_unitality(oscillator):
    inst, D = oscillator
    one = inst.unit_element()
    a = inst.element({(2, 1): 1.0, (1, 0): -0.5j})
    for t in (-1.0, 1.0):
        assert (hd.deformed_mul(D, t, one, a) - a).norm_inf() == 0.0
        assert (hd.deformed_mul(D, t, a, one) - a).norm_inf() == 0.0


def test_oscillator_first_order_product(oscillator):
    inst, D = oscillator
    x = inst.basis_element((1, 0))
    xs = inst.basis_element((0, 1))
    for t in (-1.0, 0.3, 1.0):
        out = hd.deformed_mul(D, t, x, xs)
        assert out.coeff((1, 1)) == 1.0
        assert abs(out.coeff((0, 0)) - t / 2) < 1e-15


def test_ccr_commutator_at_t_one(oscillator):
    inst, D = oscillator
    x = inst.basis_element((1, 0))
    xs = inst.basis_element((0, 1))
    comm = hd.deformed_mul(D, 1.0, x, xs) - hd.deformed_mul(D, 1.0, xs, x)
    assert abs(comm.coeff((0, 0)) - 1.0) <= 1e-12
    assert (comm - inst.unit_element()).norm_inf() <= 1e-12


def test_phi_map_grouplike_closed_form(cubic):
    inst, D, psi = cubic
    for t in (-1.0, 0.4, 1.0):
        phi = hd.phi_map(D, t)
        for k in (-2, -1, 0, 1, 2):
            out = phi(inst.basis_element((k,)))
            want = math.exp(t * (-(k**3) / 3.0))
            assert abs(out.coeff((k,)) - want) < 1e-12 * max(1.0, want)


def test_phi_zero_is_identity_and_fixes_unit(cubic):
    inst, D, _ = cubic
    phi0 = hd.phi_map(D, 0.0)
    sampler = hd.ElementSampler(inst, seed=23, coord_bound=3, budget=30)
    for _ in range(30):
        a = sampler.element()
        assert (phi0(a) - a).norm_inf() == 0.0
    assert (hd.phi_map(D, 2.5)(inst.unit_element()) - inst.unit_element()).norm_inf() == 0.0


def test_trivial_conjugation_report(cubic):
    inst, D, _ = cubic
    sampler = hd.ElementSampler(inst, seed=29, coord_bound=1, budget=60)
    for t in (-1.0, -0.3, 0.0, 0.3, 1.0):
        rep = hd.check_trivial_conjugation(D, t, sampler, samples=60)
        assert rep.overall_pass, [r.law_id for r in rep.failures()]
        assert max(r.max_residual for r in rep.results) <= 1e-8


def test_trivial_conjugation_negative_control(cubic):
    inst, D, _ = cubic
    # corrupt the witness so its coboundary misses L
    bad_psi = hd.Cochain(inst, 1, lambda ks: -(ks[0][0] ** 3) / 3.0 + ks[0][0] ** 2, name="bad")
    bad = hd.Deformation(inst, D.generator, D.classifier, D._sampler, witness=bad_psi)
    sampler = hd.ElementSampler(inst, seed=31, coord_bound=1, budget=40)
    rep = hd.check_trivial_conjugation(bad, 1.0, sampler, samples=40)
    assert not rep.overall_pass
    failed = {r.law_id for r in rep.failures()}
    assert "conjugation" in failed


def test_make_deformation_rejects_bad_witness(cubic):
    inst, D, _ = cubic
    bad_psi = hd.Cochain(inst, 1, lambda ks: -(ks[0][0] ** 3) / 3.0 + ks[0][0] ** 2, name="bad")
    with pytest.raises(hd.GeneratorValidationError, match="misses the generator"):
        hd.make_deformation(inst, D.generator, D._sampler, witness=bad_psi)


def test_make_deformation_rejects_nan_witness(cubic):
    inst, D, _ = cubic
    nan_psi = hd.Cochain(inst, 1, lambda ks: 0.0 if ks[0] == (0,) else math.nan, name="nan")
    with pytest.raises(hd.GeneratorValidationError, match="misses the generator by nan"):
        hd.make_deformation(inst, D.generator, D._sampler, witness=nan_psi)


def test_make_deformation_rejects_unnormalized_witness(cubic):
    inst, D, psi = cubic
    shifted = hd.Cochain(inst, 1, lambda ks: psi.value(ks) + 1.0, name="shifted")  # ψ(1) = 1
    with pytest.raises(hd.GeneratorValidationError, match="not normalized"):
        hd.make_deformation(inst, D.generator, D._sampler, witness=shifted)


def test_make_deformation_refuses_a_witness_of_another_arity_or_instance(cubic):
    inst, D, _ = cubic
    other = hd.group_algebra_zd(1)
    for witness in (hd.zero_cochain(inst, 2), hd.make_z_cubic_coboundary(other)[1]):
        with pytest.raises(hd.AlgebraError, match="arity-1 functional on the generator's instance"):
            hd.make_deformation(inst, D.generator, D._sampler, witness=witness)


def test_phi_map_needs_a_witness(zd_matrix):
    _, D, _ = zd_matrix
    with pytest.raises(hd.AlgebraError, match="no witness"):
        hd.phi_map(D, 0.5)


def test_sigma_values_cubic(cubic):
    _, D, _ = cubic
    sig = D.sigma()
    for k in range(-10, 11):
        assert abs(sig.value(((k,),))) <= 1e-12


def test_sigma_values_matrix(zd_matrix):
    inst, D, A = zd_matrix
    sig = D.sigma()
    for k1 in range(-5, 6):
        for k2 in range(-5, 6):
            k = (k1, k2)
            assert abs(sig.value((((k1, k2),))) - (-_form(k, A, k))) <= 1e-9


def test_sigma_zero_for_canonical_oscillator(oscillator):
    inst, D = oscillator
    sig = D.sigma()
    sampler = hd.ElementSampler(inst, seed=37, budget=100)
    for _ in range(100):
        assert abs(sig.value(sampler.keys(1))) <= 1e-15


def test_deformed_antipode_closed_form(zd_matrix):
    inst, D, A = zd_matrix
    for t in (-1.0, 0.5):
        St = hd.deformed_antipode(D, t)
        for k1 in range(-2, 3):
            for k2 in range(-2, 3):
                k = (k1, k2)
                out = St(inst.basis_element((k1, k2)))
                want = math.exp(t * float(_form(k, A, k)))
                assert abs(out.coeff((-k1, -k2)) - want) <= 1e-12 * max(1.0, want)


def test_antipodes_constant_when_sigma_zero(cubic, oscillator):
    for inst, D in [(cubic[0], cubic[1]), oscillator]:
        sampler = hd.ElementSampler(inst, seed=41, coord_bound=2, budget=30)
        for t in (-1.0, 0.7):
            St = hd.deformed_antipode(D, t)
            for _ in range(30):
                a = sampler.element()
                assert (St(a) - hd.antipode(a)).norm_inf() <= 1e-12


def test_deformed_antipode_at_zero(zd_matrix):
    inst, D, _ = zd_matrix
    S0 = hd.deformed_antipode(D, 0.0)
    sampler = hd.ElementSampler(inst, seed=43, coord_bound=3, budget=30)
    for _ in range(30):
        a = sampler.element()
        assert (S0(a) - hd.antipode(a)).norm_inf() == 0.0


def test_hopf_suite_antisymmetric_matrix():
    inst = hd.group_algebra_zd(2)
    L = hd.make_zd_matrix_cocycle(inst, [[0.0, 1.0], [-1.0, 0.0]])
    sampler = hd.ElementSampler(inst, seed=47, coord_bound=2, budget=120)
    D = hd.make_deformation(inst, L, sampler)
    rep = hd.check_hopf_deformation(D, sampler.spawn(1), samples=120)
    assert rep.overall_pass, [r.law_id for r in rep.failures()]
    assert all(r.max_residual <= r.tolerance for r in rep.results)


def test_hopf_suite_oscillator(oscillator):
    inst, D = oscillator
    sampler = hd.ElementSampler(inst, seed=53, budget=120)
    rep = hd.check_hopf_deformation(D, sampler, samples=120)
    assert rep.overall_pass, [r.law_id for r in rep.failures()]


def test_hopf_suite_h4_zero_cocycle():
    # finite non-cocommutative instance; only the zero generator is certified
    inst = hd.sweedler_h4()
    L = hd.zero_cochain(inst, 2)
    sampler = hd.ElementSampler(inst, seed=59, budget=80)
    D = hd.make_deformation(inst, L, sampler)
    rep = hd.check_hopf_deformation(D, sampler.spawn(1), samples=80)
    assert rep.overall_pass, [r.law_id for r in rep.failures()]
    assert not any(r.law_id == "cocommutative_involution" for r in rep.results)


def test_axioms_suite_all_examples(cubic, oscillator, zd_matrix):
    for inst, D in [(cubic[0], cubic[1]), oscillator, (zd_matrix[0], zd_matrix[1])]:
        sampler = hd.ElementSampler(
            inst, seed=61, coord_bound=min(2, getattr(D._sampler, "coord_bound", 2)), budget=100
        )
        rep = hd.check_deformation_axioms(D, sampler, samples=100)
        assert rep.overall_pass, (inst.name, [r.law_id for r in rep.failures()])


def test_split_matrix_cocycle(zd_matrix):
    inst, D, A = zd_matrix
    sampler = hd.ElementSampler(inst, seed=67, coord_bound=2, budget=120)
    L1, L2, rep = hd.split_cocommutative(D, sampler, samples=120)
    assert rep.overall_pass, [r.law_id for r in rep.failures()]
    skew = [[(A[i][j] - A[j][i]) / 2 for j in range(2)] for i in range(2)]
    sym = [[(A[i][j] + A[j][i]) / 2 for j in range(2)] for i in range(2)]
    for k1 in range(-5, 6):
        for k2 in range(-5, 6):
            for l1 in range(-5, 6):
                for l2 in range(-5, 6):
                    k, l = (k1, k2), (l1, l2)
                    assert abs(L2.value((((k1, k2), (l1, l2)))) - _form(k, skew, l)) <= 1e-9
                    assert abs(L1.value((((k1, k2), (l1, l2)))) - _form(k, sym, l)) <= 1e-9


def test_split_symmetric_matrix_is_fully_trivial():
    inst = hd.group_algebra_zd(2)
    A = [[2.0, 1.0], [1.0, -1.0]]
    sampler = hd.ElementSampler(inst, seed=71, coord_bound=1, budget=100)
    D = hd.make_deformation(inst, hd.make_zd_matrix_cocycle(inst, A), sampler)
    L1, L2, rep = hd.split_cocommutative(D, sampler.spawn(1), samples=100)
    assert rep.overall_pass
    s = sampler.spawn(2)
    for _ in range(100):
        assert abs(L2.value(s.keys(2))) <= 1e-12


def test_split_hermitian_purely_imaginary():
    inst = hd.group_algebra_zd(2)
    A = [[1.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]]
    sampler = hd.ElementSampler(inst, seed=73, coord_bound=1, budget=100)
    D = hd.make_deformation(inst, hd.make_zd_matrix_cocycle(inst, A), sampler, require_star=True)
    L1, L2, rep = hd.split_cocommutative(D, sampler.spawn(1), samples=100)
    assert rep.overall_pass, [r.law_id for r in rep.failures()]
    s = sampler.spawn(2)
    for _ in range(100):
        keys = s.keys(2)
        assert abs(L2.value(keys).real) <= 1e-12
        want = 1j * _form(keys[0], [[a.imag for a in row] for row in A], keys[1])
        assert abs(L2.value(keys) - want) <= 1e-12


def test_split_cubic_reports_constancy(cubic):
    inst, D, _ = cubic
    sampler = hd.ElementSampler(inst, seed=79, coord_bound=1, budget=80)
    L1, L2, rep = hd.split_cocommutative(D, sampler, samples=80)
    assert rep.overall_pass
    assert rep.extras["l1_is_zero"]
    assert rep.extras["l2_equals_l"]
    assert rep.extras["constant_antipodes"]
    assert rep.extras["trivial"]


def test_star_deformation_oscillator(oscillator):
    inst, D = oscillator
    sampler = hd.ElementSampler(inst, seed=83, budget=100)
    rep = hd.star_deformation_check(D, sampler, samples=100)
    assert rep.overall_pass


def test_star_deformation_hermitian_matrix():
    inst = hd.group_algebra_zd(2)
    A = [[1.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]]
    sampler = hd.ElementSampler(inst, seed=89, coord_bound=1, budget=100)
    D = hd.make_deformation(inst, hd.make_zd_matrix_cocycle(inst, A), sampler, require_star=True)
    rep = hd.star_deformation_check(D, sampler.spawn(1), t_grid=(-1.0, 1.0), samples=100)
    assert rep.overall_pass


def test_trivial_suite_full(cubic):
    inst, D, _ = cubic
    sampler = hd.ElementSampler(inst, seed=97, coord_bound=1, budget=150)
    rep = hd.check_trivial_deformation(D, sampler, samples=150)
    assert rep.overall_pass, [r.law_id for r in rep.failures()]
    assert rep.extras["antipodes_constant"]


def test_trivialization_symmetric_bilinear_kills_deformation():
    inst = hd.symmetric_star_algebra(("x", "xstar"), involution={"x": "xstar", "xstar": "x"})
    M = [[0.3, 0.7], [0.7, -0.2]]
    L = hd.make_primitive_bilinear_cocycle(inst, M)
    sampler = hd.ElementSampler(inst, seed=101, budget=120)
    psi = hd.make_trivializing_functional(inst, L)
    from hopfdeform.convolution import cochain_add
    from hopfdeform.cohomology import coboundary

    L_tilde = cochain_add(L, coboundary(psi), name="flattened")
    D_tilde = hd.make_deformation(inst, L_tilde, sampler)
    s = sampler.spawn(1)
    for t in (-1.0, 0.5, 1.0):
        for _ in range(40):
            a, b = s.element(), s.element()
            assert (hd.deformed_mul(D_tilde, t, a, b) - hd.mul(a, b)).norm_inf() <= 1e-8


def test_trivialization_preserves_skew_part(oscillator):
    inst, D = oscillator
    L = D.generator
    psi = hd.make_trivializing_functional(inst, L)
    from hopfdeform.convolution import cochain_add
    from hopfdeform.cohomology import coboundary

    L_tilde = cochain_add(L, coboundary(psi), name="normal_ordered")
    sampler = hd.ElementSampler(inst, seed=103, budget=120)
    D_tilde = hd.make_deformation(inst, L_tilde, sampler)
    x = inst.basis_element((1, 0))
    xs = inst.basis_element((0, 1))
    for t in (-1.0, 0.5, 1.0):
        lhs = hd.deformed_mul(D_tilde, t, x, xs) - hd.deformed_mul(D_tilde, t, xs, x)
        rhs = hd.deformed_mul(D, t, x, xs) - hd.deformed_mul(D, t, xs, x)
        assert (lhs - rhs).norm_inf() <= 1e-12


def test_deformed_mul_map_wraps_pair_rule(cubic):
    inst, D, _ = cubic
    m = deformed_mul_map(D, 0.5)
    u = hd.tensor_of(inst.basis_element((1,)), inst.basis_element((1,)))
    assert abs(m(u).coeff((2,)) - math.exp(1.0)) < 1e-12


def test_structure_maps_are_built_once_per_t(cubic):
    _, D, _ = cubic
    for t in (-0.5, 0.0, 1.0):
        assert deformed_mul_map(D, t) is deformed_mul_map(D, t)
        assert hd.deformed_antipode(D, t) is hd.deformed_antipode(D, t)
        assert hd.phi_map(D, t) is hd.phi_map(D, t)


def _old_construction(base, f, t):
    """A ⋆ e_⋆^{tf} through a per-t memoized exponential cochain."""
    return map_conv_functional(base, hd.Cochain(f.instance, f.arity, lambda u: conv_exp(f, t, u)))


def _h4_zero():
    inst = hd.sweedler_h4()
    sampler = hd.ElementSampler(inst, seed=59, budget=40)
    return inst, hd.make_deformation(inst, hd.zero_cochain(inst, 2), sampler, witness=hd.zero_cochain(inst, 1))


def _irregular_oscillator():
    # non-dyadic entries, so a different summation order shows in the bits
    inst = hd.symmetric_star_algebra(("x", "xstar"))
    L = hd.make_primitive_bilinear_cocycle(inst, [[0.3, 0.7 + 0.1j], [-0.1, 0.45]])
    sampler = hd.ElementSampler(inst, seed=61, budget=40)
    D = hd.make_deformation(inst, L, sampler)
    # any normalized ψ exercises the degree-truncated Φ_t; it need not be a witness of L
    psi = hd.make_trivializing_functional(inst, L)
    return inst, hd.Deformation(inst, L, D.classifier, sampler, witness=psi)


@pytest.mark.parametrize("which", ["oscillator", "zd_matrix", "cubic", "h4_zero"])
def test_structure_maps_match_the_per_t_exponential_exactly(which, request):
    if which == "h4_zero":
        inst, D = _h4_zero()
        pairs = list(itertools.product(inst.basis_keys(), repeat=2))
    else:
        if which == "oscillator":
            inst, D = _irregular_oscillator()
        else:
            inst, D = request.getfixturevalue(which)[:2]
        keys = hd.ElementSampler(inst, seed=83, coord_bound=3, max_degree=5, budget=1)
        pairs = [keys.keys(2) for _ in range(60)]
    mu, S, ident = mu_n_map(inst, 2), antipode_map(inst), identity_map(inst)
    for t in DEFAULT_T_GRID:
        checks = [(deformed_mul_map(D, t), _old_construction(mu, D.generator, t), pairs)]
        singles = [pair[:1] for pair in pairs] + [pair[1:] for pair in pairs]
        checks.append((hd.deformed_antipode(D, t), _old_construction(S, D.sigma(), -t), singles))
        if D.witness is not None:
            checks.append((hd.phi_map(D, t), _old_construction(ident, D.witness, t), singles))
        for new, old, tuples in checks:
            for u in tuples:
                assert list(new.value(u).terms.items()) == list(old.value(u).terms.items()), (t, u)


def test_split_precondition_error_message():
    # a nonzero generator on H4 has no certificate, so drive the check with a
    # handcrafted deformation whose sigma fails sigma = sigma∘S
    inst = hd.sweedler_h4()
    L = hd.zero_cochain(inst, 2)
    sampler = hd.ElementSampler(inst, seed=107, budget=40)
    D = hd.make_deformation(inst, L, sampler)

    # fake a sigma that is not S-invariant: sigma(g) = 1, sigma(S(g)) = 1 holds,
    # so instead patch the cached value directly
    fake = hd.Cochain(inst, 1, lambda ks: 1.0 if ks[0] == "x" else 0.0, name="fake_sigma")
    D._sigma = fake
    with pytest.raises(hd.SplitPreconditionError):
        hd.split_cocommutative(D, sampler.spawn(1), samples=200)
