"""Element algebra and structural axioms on the concrete instances."""
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import hopfdeform as hd
from hopfdeform.core import NonFiniteError, tensor_contract_slot, tensor_expand_slot


@pytest.fixture(scope="module")
def z2():
    return hd.group_algebra_zd(2)


@pytest.fixture(scope="module")
def osc():
    return hd.symmetric_star_algebra(("x", "xstar"), involution={"x": "xstar", "xstar": "x"})


@pytest.fixture(scope="module")
def h4():
    return hd.sweedler_h4()


def test_add_inverse_and_zero_scale(z2):
    x = z2.element({(1, 2): 2.0, (0, -1): 1j})
    assert (x + (-x)).is_zero
    assert hd.scale(0.0, x).is_zero


def test_linearity_in_group_algebra():
    z1 = hd.group_algebra_zd(1)
    two = z1.basis_element((1,), 2.0)
    three = z1.basis_element((1,), 3.0)
    assert (two + three).coeff((1,)) == 5.0


def test_group_law_mul():
    z1 = hd.group_algebra_zd(1)
    assert hd.mul(z1.basis_element((2,)), z1.basis_element((3,))).coeff((5,)) == 1.0


def test_monomial_mul_commutes(osc):
    x = osc.basis_element((1, 0))
    xs = osc.basis_element((0, 1))
    assert hd.mul(x, xs) == hd.mul(xs, x)
    assert hd.mul(x, xs).coeff((1, 1)) == 1.0


def _h4_word_mul(w1, w2):
    """Normal form product from the defining relations g^2=1, x^2=0, xg=-gx.

    Words are (a, b) with a, b in {0, 1} encoding g^a x^b; moving x past g
    costs a sign per crossing.
    """
    a1, b1 = w1
    a2, b2 = w2
    if b1 + b2 >= 2:
        return None, 0
    sign = (-1) ** (b1 * a2)
    return ((a1 + a2) % 2, b1 + b2), sign


_H4_WORD = {"1": (0, 0), "g": (1, 0), "x": (0, 1), "gx": (1, 1)}
_H4_NAME = {v: k for k, v in _H4_WORD.items()}


def test_h4_multiplication_table_against_rewriter(h4):
    for k1, k2 in itertools.product(_H4_WORD, repeat=2):
        word, sign = _h4_word_mul(_H4_WORD[k1], _H4_WORD[k2])
        expected = {} if word is None else {_H4_NAME[word]: complex(sign)}
        got = dict(h4.mul_terms(k1, k2))
        assert got == expected, (k1, k2)


def test_h4_mul_x_g_is_minus_gx(h4):
    prod = hd.mul(h4.basis_element("x"), h4.basis_element("g"))
    assert prod.coeff("gx") == -1.0
    assert len(prod.terms) == 1


def test_grouplike_comul_and_counit():
    z1 = hd.group_algebra_zd(1)
    u = hd.comul(z1.basis_element((7,)))
    assert u.coeff(((7,), (7,))) == 1.0 and len(u.terms) == 1
    assert hd.counit(z1.basis_element((7,))) == 1.0


def test_primitive_comul(osc):
    x = osc.basis_element((1, 0))
    u = hd.comul(x)
    one = (0, 0)
    assert u.coeff(((1, 0), one)) == 1.0
    assert u.coeff((one, (1, 0))) == 1.0
    assert len(u.terms) == 2


def test_antipode_and_star_on_group_basis():
    z1 = hd.group_algebra_zd(1)
    k = z1.basis_element((3,), 1 + 2j)
    assert hd.antipode(k).coeff((-3,)) == 1 + 2j
    assert hd.star(k).coeff((-3,)) == 1 - 2j  # antilinear


def _multinomial_comul(alpha, n):
    """Independent expansion of the n-fold coproduct of a monomial."""
    out = {}
    per_var = []
    for a in alpha:
        comps = [c for c in itertools.product(range(a + 1), repeat=n) if sum(c) == a]
        per_var.append([(c, math.factorial(a) // math.prod(math.factorial(x) for x in c)) for c in comps])
    for combo in itertools.product(*per_var):
        keys = tuple(tuple(c[i] for c, _ in combo) for i in range(n))
        coeff = math.prod(w for _, w in combo)
        out[keys] = out.get(keys, 0) + coeff
    return out


def test_iterated_comul_against_multinomial_oracle(osc):
    xxs = osc.basis_element((1, 1))
    got = hd.iterated_comul(xxs, 3)
    want = _multinomial_comul((1, 1), 3)
    assert len(want) == 9  # one slot for x times one slot for x*
    assert set(got.terms) == set(want)
    for keys, coeff in want.items():
        assert got.coeff(keys) == complex(coeff)


def test_iterated_comul_base_cases(osc):
    z1 = hd.group_algebra_zd(1)
    k = z1.basis_element((4,))
    cube = hd.iterated_comul(k, 3)
    assert cube.coeff(((4,), (4,), (4,))) == 1.0 and len(cube.terms) == 1
    x = osc.basis_element((1, 0))
    assert hd.iterated_comul(x, 2) == hd.comul(x)
    assert hd.iterated_comul(x, 0) == hd.counit(x)


def test_zero_element_degenerate(osc):
    zero = osc.zero_element()
    assert hd.counit(zero) == 0
    assert hd.comul(zero).is_zero


def test_instance_mismatch_raises(z2, osc):
    with pytest.raises(hd.InstanceMismatchError):
        hd.add(z2.basis_element((0, 0)), osc.basis_element((0, 0)))


def test_capability_missing():
    bare = hd.group_algebra_zd(1, with_star=False)
    with pytest.raises(hd.CapabilityMissingError):
        hd.star(bare.basis_element((1,)))


def test_nonfinite_coefficient_rejected(z2):
    with pytest.raises(hd.AlgebraError):
        z2.element({(0, 0): float("nan")})


@pytest.mark.parametrize(
    "value",
    [float("nan"), complex(float("inf"), 0.0), complex(1.7e308, 1.7e308)],
    ids=["nan", "inf", "modulus_overflow"],
)
def test_nonfinite_coefficient_raises_non_finite_error(value):
    z1 = hd.group_algebra_zd(1)
    with pytest.raises(NonFiniteError, match="non-finite coefficient"):
        z1.element({(1,): value})


def test_pruning_threshold(z2):
    tiny = z2.element({(1, 1): 1e-15})
    assert tiny.is_zero


@pytest.mark.parametrize("name", ["z2", "osc"])
def test_sub_matches_add_of_negated_scale(name, request):
    # small bounds so the operands share keys and some terms cancel
    sampler = hd.ElementSampler(request.getfixturevalue(name), seed=61, coord_bound=1, max_degree=2)
    for _ in range(60):
        a, b = sampler.elements(2)
        diff, ref = a - b, hd.add(a, hd.scale(-1.0, b))
        assert list(diff.terms) == list(ref.terms)
        assert all(diff.terms[k] == c for k, c in ref.terms.items())
    a = sampler.element()
    assert (a - a).is_zero


def test_sub_overflow_raises_and_tiny_difference_is_pruned(z2):
    k = (1, 0)
    with pytest.raises(NonFiniteError, match="non-finite coefficient"):
        z2.element({k: 1e308}) - z2.element({k: -1e308})
    diff = z2.element({k: 1.0, (0, 1): 2.0}) - z2.element({k: 1.0 + 2.0**-44})
    assert abs(2.0**-44) < z2.prune_eps
    assert diff.terms == {(0, 1): 2.0}


@pytest.mark.parametrize(
    "make",
    [
        lambda: hd.group_algebra_zd(2),
        lambda: hd.symmetric_star_algebra(("x", "xstar"), involution={"x": "xstar", "xstar": "x"}),
        lambda: hd.sweedler_h4(),
    ],
    ids=["z2", "oscillator", "h4"],
)
def test_check_structure_passes(make):
    inst = make()
    sampler = hd.ElementSampler(inst, seed=5, budget=60)
    report = hd.check_structure(inst, sampler)
    assert report.overall_pass, [r.law_id for r in report.failures()]


def test_check_structure_flags_corrupted_mul():
    # break x·g = −gx into +gx: the product is no longer associative
    base = hd.sweedler_h4()

    def bad_mul(k1, k2):
        if (k1, k2) == ("x", "g"):
            return (("gx", 1.0),)
        return base.mul_terms(k1, k2)

    corrupted = hd.BialgebraInstance(
        name="h4_corrupted",
        kind=hd.Kind.FINITE,
        unit="1",
        mul_basis=bad_mul,
        comul_basis=base.comul_terms,
        counit_basis=base.counit_key,
        antipode_basis=base.antipode_terms,
        key_sort=base.sort_key,
        basis_iter=base.basis_keys,
    )
    sampler = hd.ElementSampler(corrupted, seed=5, budget=80)
    report = hd.check_structure(corrupted, sampler)
    failed = {r.law_id for r in report.failures()}
    assert "associativity" in failed


def test_h4_is_not_cocommutative(h4):
    u = hd.comul(h4.basis_element("x"))
    from hopfdeform.core import tensor_flip

    assert (tensor_flip(u) - u).norm_inf() > 0.5


def test_coassociativity_via_slots(osc):
    a = osc.element({(2, 1): 1.0, (0, 3): -0.5j})
    u = hd.comul(a)
    assert tensor_expand_slot(u, 0) == tensor_expand_slot(u, 1)
    assert tensor_contract_slot(u, 0) == a
    assert tensor_contract_slot(u, 1) == a


def test_format_scalar_canonical():
    assert hd.format_scalar(5) == "5+0i"
    assert hd.format_scalar(-8 / 3) == "-2.66666666667+0i"
    assert hd.format_scalar(1.5 - 0.25j) == "1.5-0.25i"
    assert hd.format_scalar(complex(-0.0, -0.0)) == "0+0i"


def test_format_element_ordering(z2):
    e = z2.element({(1, 0): 2.0, (-1, 3): 1j})
    assert hd.format_element(e) == "(0+1i)*(-1,3) + (2+0i)*(1,0)"
    assert hd.format_element(z2.zero_element()) == "0"


def test_format_monomials(osc):
    e = osc.element({(0, 0): 1.0, (2, 1): -1.0})
    assert hd.format_element(e) == "(1+0i)*1 + (-1+0i)*x^2*xstar"


coords = st.integers(min_value=-4, max_value=4)
keys2 = st.tuples(coords, coords)
scalars = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(keys2, keys2, scalars, scalars)
def test_mul_bilinear_on_z2(k1, k2, c1, c2):
    z2 = hd.group_algebra_zd(2)
    a = z2.basis_element(k1, c1)
    b = z2.basis_element(k2, c2)
    prod = hd.mul(a, b)
    expected = c1 * c2
    key = (k1[0] + k2[0], k1[1] + k2[1])
    assert abs(prod.coeff(key) - expected) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(keys2, scalars), min_size=1, max_size=3))
def test_counit_is_linear_on_z2(terms):
    z2 = hd.group_algebra_zd(2)
    e = z2.zero_element()
    total = 0j
    for key, c in terms:
        e = e + z2.basis_element(key, c)
        total += c
    assert abs(hd.counit(e) - total) < 1e-9


def test_nan_residual_fails_its_law():
    # fixed cases: a law without a salt draws nothing, and a NaN residual is kept
    report = hd.Report(name="nan")
    hd.run_laws(report, None, [hd.Law("law", "a NaN sample", lambda case: case, 1.0, cases=(0.0, math.nan, 0.5))])
    law = report.results[-1]
    assert law.samples == 3
    assert math.isnan(law.max_residual)
    assert not law.passed
    assert not report.overall_pass

    # through the law table: every case takes per_case samples, each drawn
    # from the law's own salted stream, and the NaN case fails the law
    sampler = hd.ElementSampler(hd.group_algebra_zd(1), seed=3)
    drawn = []

    def residual(case, key):
        drawn.append(key)
        return math.nan if case == 1.0 else 0.0

    table = hd.Law("table", "a NaN case", residual, 1.0, cases=(0.0, 1.0), per_case=3, salt=7,
                   draw=lambda s: (s.key(),))
    hd.run_laws(report, sampler, [table])
    law = report.results[-1]
    assert law.samples == 6
    assert math.isnan(law.max_residual)
    assert not law.passed
    stream = sampler.spawn(7)
    assert drawn == [stream.key() for _ in range(6)]

    # a law without a salt never touches the sampler, so None stands in for it
    hd.run_laws(report, None, [hd.Law("fixed", "no draws", lambda case: case, 0.5, cases=(0.0, 0.25))])
    assert (report.results[-1].samples, report.results[-1].passed) == (2, True)
