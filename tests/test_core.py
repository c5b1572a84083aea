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


def test_an_element_and_a_tensor_do_not_mix(z2):
    # an element minus a tensor once built an element keyed by key pairs
    x = z2.basis_element((1, 0))
    for a, b in ((x, hd.comul(x)), (hd.comul(x), x)):
        with pytest.raises(hd.InstanceMismatchError):
            a - b
        with pytest.raises(hd.InstanceMismatchError):
            a + b
        assert a != b


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


# -- the summation kernels ------------------------------------------------------

from hopfdeform.core import _bilinear, _linear, _scalar  # noqa: E402

_parts = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64) | st.sampled_from([0.0, -0.0])
_coeffs = st.builds(complex, _parts, _parts)
_stream = st.lists(st.tuples(st.integers(0, 4), _coeffs), max_size=12)
_rules = st.dictionaries(st.integers(0, 4), st.lists(st.tuples(st.integers(0, 3), _coeffs), max_size=3))


def _left_fold(terms) -> dict:
    """Each key's terms added left to right, the first one stored as is."""
    out: dict = {}
    for key, c in terms:
        out[key] = out[key] + c if key in out else c
    return out


def _bits(terms: dict) -> list:
    # repr tells -0.0 from 0.0, so equal bits means equal reprs
    return [(key, repr(c.real), repr(c.imag)) for key, c in terms.items()]


@given(_stream, _stream, _rules)
def test_kernels_sum_like_a_plain_left_fold(a, b, table):
    def rule(k):
        return table.get(k, [])

    assert _bits(_linear(a)) == _bits(_left_fold(a))
    assert _bits(_linear(b, None, dict(a))) == _bits(_left_fold(list(dict(a).items()) + b))
    assert _bits(_linear(a, rule)) == _bits(_left_fold((key, c * w) for k, c in a for key, w in rule(k)))
    want = _left_fold(
        (key, (ca * cb) * w) for ka, ca in a for kb, cb in b for key, w in table.get(ka * kb % 5, [])
    )
    assert _bits(_bilinear(a, b, lambda ka, kb: rule(ka * kb % 5))) == _bits(want)


def test_a_first_term_is_stored_as_is(z2):
    # added to 0j, the -0.0 imaginary part would turn into +0.0
    x = z2.element({(1, 0): complex(1.0, -0.0)})
    assert math.copysign(1.0, (z2.zero_element() + x).coeff((1, 0)).imag) == -1.0
    # (-1)·i has the real part -0.0 in every kernel mode
    def rule(*_):
        return [("k", 1j)]

    for terms in (_linear([("k", complex(-1.0, 0.0))], rule), _bilinear([(0, -1.0 + 0j)], [(0, 1.0 + 0j)], rule)):
        assert repr(terms["k"]) == "(-0-1j)"


def _scalar_left_fold(terms) -> complex:
    total = 0j
    for z in terms:
        total = total + z
    return total


def _scalar_bits(z: complex) -> tuple:
    return repr(z.real), repr(z.imag)


# non-dyadic parts over many magnitudes, so a change in the order or the precision of the sum shows in the bits
_scalar_parts = st.sampled_from([0.0, -0.0, 0.1, -0.7, 1 / 3, -2 / 3, 1e8 / 7, -1e8 / 11, 1e16 / 3, -1e16 / 3, 1e-8 / 7])


@given(st.lists(st.tuples(st.integers(0, 4), st.builds(complex, _scalar_parts, _scalar_parts)), max_size=12),
       st.lists(st.builds(complex, _scalar_parts, _scalar_parts), min_size=5, max_size=5))
def test_the_scalar_kernel_sums_like_a_plain_left_fold_from_0j(items, table):
    assert _scalar_bits(_scalar(c for _, c in items)) == _scalar_bits(_scalar_left_fold(c for _, c in items))
    want = _scalar_left_fold(c * table[k] for k, c in items)
    assert _scalar_bits(_scalar(items, table.__getitem__)) == _scalar_bits(want)


def test_the_scalar_kernel_neither_compensates_nor_keeps_a_first_term():
    # compensated summation, as math.fsum or sum() on floats from CPython 3.12, gives 1.0
    assert _scalar_bits(_scalar([1e16 + 0j, 1.0 + 0j, -1e16 + 0j])) == ("0.0", "0.0")
    assert _scalar_bits(_scalar([(1, 1e16 + 0j), (1, 1.0 + 0j), (1, -1e16 + 0j)], lambda k: k)) == ("0.0", "0.0")
    # the sum starts from 0j, so a -0.0 first term comes out +0.0
    assert _scalar_bits(_scalar([complex(-0.0, -0.0)])) == ("0.0", "0.0")
    assert _scalar_bits(_scalar([("k", complex(-0.0, -0.0))], lambda k: 1.0)) == ("0.0", "0.0")


from hypothesis import example  # noqa: E402

from hopfdeform.core import _row_pairs  # noqa: E402

# non-dyadic parts too, so that a regrouped product shows in the last bit
_row_coeffs = st.builds(complex, _scalar_parts, _scalar_parts) | _coeffs
_rows = st.lists(st.tuples(st.integers(0, 2), _row_coeffs), max_size=4)


@given(st.lists(st.tuples(_row_coeffs, _rows, _rows), max_size=5))
# (1·1)·(-0-0j) has the imaginary part -0.0, which adding to 0j would turn into +0.0
@example([(1 + 0j, [(0, 1 + 0j)], [(0, complex(-0.0, -0.0))])])
def test_the_row_pair_kernel_sums_like_a_plain_left_fold(legs):
    want = _left_fold(((k1, k2), (c * w1) * w2) for c, row1, row2 in legs for k1, w1 in row1 for k2, w2 in row2)
    # row₁ is a one-shot generator: the kernel walks it once, and row₂ once per term of it
    got = _row_pairs((c, (term for term in row1), row2) for c, row1, row2 in legs)
    assert _bits(got) == _bits(want)


def _error_of(thunk):
    try:
        thunk()
    except hd.AlgebraError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", ["z2", "osc", "h4"])
def test_distance_equals_the_norm_of_the_difference(name, request):
    inst = request.getfixturevalue(name)
    # small bounds so the operands share keys and some terms cancel
    sampler = hd.ElementSampler(inst, seed=67, coord_bound=1, max_degree=2)
    for _ in range(40):
        a, b, c = sampler.elements(3)
        pairs = [
            (a, b), (a, a), (a, inst.zero_element()), (inst.zero_element(), b),
            (hd.comul(a), hd.tensor_of(b, c)), (hd.tensor_of(a, b, c), hd.iterated_comul(b, 3)),
        ]
        for x, y in pairs:
            assert x.distance(y) == (x - y).norm_inf()
    a = sampler.element()
    assert a.distance(a) == 0.0 and a == a


def test_distance_on_disjoint_supports_tiny_and_overflowing_differences(z2):
    x, y = z2.element({(1, 0): 2.0, (0, 1): -3j}), z2.element({(2, 2): 0.5, (0, 5): 4.0 + 0j})
    assert x.distance(y) == (x - y).norm_inf() == 4.0
    k = (1, 0)
    near = z2.element({k: 1.0}), z2.element({k: 1.0 + 2.0**-44})
    assert near[0].distance(near[1]) == (near[0] - near[1]).norm_inf() == 0.0
    for big, other in ((1e308, -1e308), (1.7e308, -1.7e308j)):  # an infinite part; a modulus that overflows
        big, neg = z2.element({k: big}), z2.element({k: other})
        want = _error_of(lambda: big - neg)
        assert want is not None and want[0] is NonFiniteError
        assert _error_of(lambda: big.distance(neg)) == want


def test_distance_raises_where_the_difference_does(z2, osc):
    x = z2.basis_element((1, 0))
    bare = hd.group_algebra_zd(2, with_star=False).basis_element((1, 0))
    for a, b in ((x, osc.basis_element((0, 0))), (x, bare), (x, hd.comul(x)), (hd.comul(x), x),
                 (hd.comul(x), hd.iterated_comul(x, 3))):
        want = _error_of(lambda: a - b)
        assert want is not None and want[0] is hd.InstanceMismatchError
        assert _error_of(lambda: a.distance(b)) == want
