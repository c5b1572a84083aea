"""Star products of functionals, convolution exponentials, and maps convolved with functionals."""
import itertools
import math

import pytest

import hopfdeform as hd
from hopfdeform.convolution import (
    conv_exp_coeffs,
    counit_cochain,
    map_conv_functional,
    tuple_comul_terms,
    tuple_counit,
    mu_n_map,
)
from hopfdeform.deformation import DEFAULT_T_GRID

import reference as ref


@pytest.fixture(scope="module")
def z1():
    return hd.group_algebra_zd(1)


@pytest.fixture(scope="module")
def osc():
    return hd.symmetric_star_algebra(("x", "xstar"), involution={"x": "xstar", "xstar": "x"})


@pytest.fixture(scope="module")
def cubic(z1):
    return hd.make_z_cubic_coboundary(z1)


def test_counit_is_star_unit(z1, cubic):
    _, psi = cubic
    delta = counit_cochain(z1, 1)
    left = hd.convolve_functionals(delta, psi)
    right = hd.convolve_functionals(psi, delta)
    for k in range(-6, 7):
        assert abs(left.value(((k,),)) - psi.value(((k,),))) < 1e-12
        assert abs(right.value(((k,),)) - psi.value(((k,),))) < 1e-12


def test_grouplike_convolution_is_pointwise_product(z1):
    f = hd.Cochain(z1, 1, lambda ks: ks[0][0] ** 2, name="sq")
    g = hd.Cochain(z1, 1, lambda ks: 3.0 * ks[0][0], name="lin")
    fg = hd.convolve_functionals(f, g)
    for k in range(-5, 6):
        assert fg.value(((k,),)) == f.value(((k,),)) * g.value(((k,),))


def test_primitive_convolution_square(osc):
    # psi supported on the single generator x only
    psi = hd.Cochain(osc, 1, lambda ks: 1.0 if ks[0] == (1, 0) else 0.0, name="psi_x")
    sq = hd.convolve_functionals(psi, psi)
    # middle term of the coproduct of x^2 is 2·x(x)x
    assert sq.value(((2, 0),)) == 2.0
    assert sq.value(((1, 1),)) == 0.0


def test_star_associative_on_sampled_tuples(z1, osc, cubic):
    L, psi = cubic
    s = hd.ElementSampler(z1, seed=23, coord_bound=3)
    f, g, h = psi, hd.Cochain(z1, 1, lambda ks: 1j * ks[0][0], name="ilin"), psi
    lhs = hd.convolve_functionals(hd.convolve_functionals(f, g), h)
    rhs = hd.convolve_functionals(f, hd.convolve_functionals(g, h))
    for _ in range(100):
        k = s.keys(1)
        assert abs(lhs.value(k) - rhs.value(k)) <= 1e-8

    o = hd.ElementSampler(osc, seed=29)
    a = hd.oscillator_cocycle(osc)
    b = hd.Cochain(osc, 2, lambda ks: float(sum(ks[0]) == 1) * float(sum(ks[1]) == 1), name="deg11")
    c = counit_cochain(osc, 2)
    lhs2 = hd.convolve_functionals(hd.convolve_functionals(a, b), c)
    rhs2 = hd.convolve_functionals(a, hd.convolve_functionals(b, c))
    for _ in range(100):
        k = o.keys(2)
        assert abs(lhs2.value(k) - rhs2.value(k)) <= 1e-8


def test_conv_exp_grouplike_closed_form(z1, cubic):
    _, psi = cubic
    for t in (-1.0, -0.3, 0.0, 0.7, 1.0):
        for k in range(-3, 4):
            want = math.exp(t * (-(k**3) / 3.0))
            assert abs(hd.conv_exp(psi, t, ((k,),)) - want) < 1e-12 * max(1.0, want)


def test_conv_exp_grouplike_matches_series(z1):
    # independent oracle: truncated series of convolution powers
    f = hd.Cochain(z1, 1, lambda ks: 0.3 * ks[0][0], name="lin03")
    t = 0.9
    k = ((2,),)
    series = sum((t**n / math.factorial(n)) * hd.conv_power(f, n, k) for n in range(40))
    assert abs(hd.conv_exp(f, t, k) - series) < 1e-12


def test_conv_exp_normalized_at_unit(osc):
    L = hd.oscillator_cocycle(osc)
    one = (0, 0)
    for t in (-2.0, 0.5, 3.0):
        assert hd.conv_exp(L, t, (one, one)) == 1.0


def test_conv_exp_primitive_linear_term(osc):
    psi = hd.Cochain(osc, 1, lambda ks: 2.5 if ks[0] == (1, 0) else 0.0, name="psi_x")
    for t in (-1.0, 0.25, 2.0):
        assert abs(hd.conv_exp(psi, t, ((1, 0),)) - t * 2.5) < 1e-14


def test_local_nilpotency_exact(osc):
    L = hd.oscillator_cocycle(osc)
    for keys in [((1, 1), (1, 0)), ((2, 1), (0, 1)), ((2, 2), (1, 1))]:
        d = sum(keys[0]) + sum(keys[1])
        for k in range(d + 1, d + 4):
            assert hd.conv_power(L, k, keys) == 0  # exactly, by degree counting


def test_conv_exp_group_law(osc, z1, cubic):
    L, psi = cubic
    s, t = 0.6, -0.35
    for k in range(-2, 3):
        u = ((k,), (k + 1,))
        lhs = hd.conv_exp(L, s + t, u)
        rhs = 0j
        for left, right, c in tuple_comul_terms(z1, u):
            rhs += c * hd.conv_exp(L, s, left) * hd.conv_exp(L, t, right)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    M = hd.oscillator_cocycle(osc)
    for u in [((1, 0), (0, 1)), ((1, 1), (1, 1)), ((2, 0), (0, 2))]:
        lhs = hd.conv_exp(M, s + t, u)
        rhs = 0j
        for left, right, c in tuple_comul_terms(osc, u):
            rhs += c * hd.conv_exp(M, s, left) * hd.conv_exp(M, t, right)
        assert abs(lhs - rhs) < 1e-12


def _power_by_recursion(f, k, u):
    """f^{⋆k}(u) = Σ c·f(u₍₁₎)·f^{⋆(k−1)}(u₍₂₎) over the full Λ expansion."""
    if k == 0:
        return tuple_counit(f.instance, u)
    if k == 1:
        return f.value(u)
    total = 0j
    for left, right, c in tuple_comul_terms(f.instance, u):
        v = f.value(left)
        if v == 0:
            continue
        total += c * v * _power_by_recursion(f, k - 1, right)
    return total


def test_conv_power_matches_the_direct_recursion_exactly(osc, cubic):
    L, psi = cubic
    M = hd.oscillator_cocycle(osc)
    trivializer = hd.make_trivializing_functional(osc, M)

    def irregular_rule(keys):
        # non-dyadic values, so a different summation order shows in the bits
        h = sum(i * e for i, e in enumerate(itertools.chain(*keys), 1))
        return complex(math.sin(1.3 * h), math.cos(0.7 * h) - 1.0)

    irregular = hd.Cochain(osc, 2, irregular_rule, name="irregular")
    sampler = hd.ElementSampler(osc, seed=89, max_degree=4, budget=1)
    cases = [(f, sampler.keys(2)) for f in (M, irregular) for _ in range(25)]
    cases += [(trivializer, sampler.keys(1)) for _ in range(25)]
    cases += [(L, ((k,), (k - 2,))) for k in range(-3, 4)] + [(psi, ((k,),)) for k in range(-3, 4)]
    for f, u in cases:
        # on the oscillator, one power past the degree, where they vanish
        top = sum(map(sum, u)) + 1 if f.instance is osc else 3
        for k in range(top + 1):
            assert hd.conv_power(f, k, u) == _power_by_recursion(f, k, u), (f.name, k, u)


def test_a_negative_convolution_power_is_refused(osc):
    M = hd.oscillator_cocycle(osc)
    u = ((1, 0), (1, 1))
    assert [hd.conv_power(M, k, u) for k in range(2, 6)] == [_power_by_recursion(M, k, u) for k in range(2, 6)]
    # the stored powers must not answer for k < 0
    for k in (-1, -2, -4):
        with pytest.raises(hd.AlgebraError):
            hd.conv_power(M, k, u)


def test_conv_exp_requires_normalized_on_graded(osc):
    f = hd.Cochain(osc, 1, lambda ks: 1.0, name="const1")
    with pytest.raises(hd.NormalizationError):
        hd.conv_exp(f, 1.0, ((1, 0),))


def test_conv_exp_finite_zero_only():
    h4 = hd.sweedler_h4()
    zero = hd.zero_cochain(h4, 2)
    assert hd.conv_exp(zero, 2.0, ("g", "x")) == 0.0  # delta-like: counit of the pair
    assert hd.conv_exp(zero, 2.0, ("g", "g")) == 1.0
    nonzero = hd.Cochain(h4, 2, lambda ks: 1.0 if ks == ("x", "x") else 0.0, name="xx")
    with pytest.raises(hd.CapabilityMissingError):
        hd.conv_exp(nonzero, 1.0, ("g", "g"))


def test_conv_exp_coeffs_refuse_what_conv_exp_refuses(osc, cubic):
    h4 = hd.sweedler_h4()
    zero = hd.zero_cochain(h4, 2)
    for u in itertools.product(sorted(h4.basis_keys()), repeat=2):
        coeffs = conv_exp_coeffs(zero, u)
        assert coeffs == (tuple_counit(h4, u),), u
        for t in DEFAULT_T_GRID:
            horner = 0j
            for c in reversed(coeffs):
                horner = horner * t + c
            assert repr(hd.conv_exp(zero, t, u)) == repr(horner), (u, t)
    # certified before any conv_exp call plans the cochain
    with pytest.raises(hd.NormalizationError):
        conv_exp_coeffs(hd.Cochain(osc, 1, lambda ks: 1.0, name="const1"), ((1, 0),))
    nonzero = hd.Cochain(h4, 2, lambda ks: 1.0 if ks == ("x", "x") else 0.0, name="xx")
    with pytest.raises(hd.CapabilityMissingError):
        conv_exp_coeffs(nonzero, ("g", "g"))
    L, _ = cubic
    with pytest.raises(hd.CapabilityMissingError):
        conv_exp_coeffs(L, ((1,), (2,)))


def test_conv_exp_plan_strategies(z1, osc):
    _, psi = hd.make_z_cubic_coboundary(z1)
    assert hd.plan_conv_exp(psi).strategy == "closed_form_grouplike"
    assert hd.plan_conv_exp(hd.oscillator_cocycle(osc)).strategy == "degree_truncated"
    assert hd.plan_conv_exp(hd.zero_cochain(hd.sweedler_h4(), 1)).strategy == "zero_functional"


def test_r_phi_commuting_intertwines_coproduct(z1):
    _, psi = hd.make_z_cubic_coboundary(z1)
    sampler = hd.ElementSampler(z1, seed=43, budget=60, coord_bound=4)
    r = map_conv_functional(hd.identity_map(z1), psi)  # R_ψ = id ⋆ ψ
    for _ in range(60):
        a = sampler.element()
        u = hd.comul(a)
        left = hd.TensorElement(z1, 2, {})
        right = hd.TensorElement(z1, 2, {})
        for (k1, k2), c in u.terms.items():
            for k, w in r.value((k1,)).terms.items():
                left = left + hd.TensorElement(z1, 2, {(k, k2): c * w})
            for k, w in r.value((k2,)).terms.items():
                right = right + hd.TensorElement(z1, 2, {(k1, k): c * w})
        assert (left - right).norm_inf() <= 1e-9


def test_map_functional_convolution_orders(z1, cubic):
    from hopfdeform.convolution import functional_conv_map

    L, _ = cubic
    mu2 = mu_n_map(z1, 2)
    lhs = map_conv_functional(mu2, L)
    # on a cocommutative instance both orders agree
    rhs = functional_conv_map(L, mu2)
    sampler = hd.ElementSampler(z1, seed=47, coord_bound=3)
    for _ in range(60):
        pair = sampler.keys(2)
        assert (lhs.value(pair) - rhs.value(pair)).norm_inf() < 1e-9


def _box(inst, top=4):
    """The exponent vectors of degree ≤ top on a symmetric algebra, lowest degree first."""
    keys = itertools.product(range(top + 1), repeat=len(inst.unit))
    return sorted((k for k in keys if sum(k) <= top), key=lambda k: (sum(k), k))


def _dense(inst):
    """A normalized arity-1 functional, nonzero off the unit with non-dyadic parts: every bit of its mask is set."""
    return hd.Cochain(inst, 1, lambda ks: 0j if ks[0] == inst.unit else complex(
        math.sin(1.3 * sum(i * e for i, e in enumerate(ks[0], 2))), -0.7 / (1 + sum(ks[0]))), name="dense")


@pytest.mark.parametrize("case", ["oscillator", "three_generators", "dense", "near_limit"])
def test_conv_exp_matches_the_full_series_on_a_box(osc, case):
    # the model sums every power up to the degree, so it is the oracle for the
    # series that stops at the support mask's highest bit
    if case == "three_generators":
        inst = hd.symmetric_star_algebra(("x", "y", "z"))
        f = hd.make_primitive_bilinear_cocycle(inst, [[0.0, 0.3, -0.7j], [-0.3, 0.1, 1.3], [0.7j, -1.3, 0.0]])
    elif case == "near_limit":
        inst, f = osc, hd.make_primitive_bilinear_cocycle(osc, [[0.0, 1e308], [-1e308, 0.0]])
    else:
        inst = osc
        f = _dense(inst) if case == "dense" else hd.oscillator_cocycle(inst)
    model = ref.Model(inst)
    keys = _box(inst)
    tuples = [(k,) for k in _box(inst, 8)] if f.arity == 1 else list(itertools.product(keys, repeat=2))
    for u in tuples:
        degrees = [sum(k) for k in u]
        coeffs = conv_exp_coeffs(f, u)
        if case == "dense":
            assert len(coeffs) == sum(degrees) + 1, u
        elif case != "near_limit":
            # L^{⋆k}(a⊗b) = 0 for k > min(deg a, deg b): L lives on degree (1, 1)
            assert len(coeffs) <= max(1, min(degrees)) + 1, (u, coeffs)
        for t in DEFAULT_T_GRID:
            assert repr(hd.conv_exp(f, t, u)) == repr(model.conv_exp(f, t, u)), (case, u, t)
