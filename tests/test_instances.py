"""Instance factories, cocycle constructors, and the expression DSL."""
import math

import pytest

import hopfdeform as hd
from hopfdeform.cohomology import DEFAULT_TOL, cocycle_residual, commuting_residual
from hopfdeform.instances import compile_expression, generator_key


@pytest.fixture(scope="module")
def z1():
    return hd.group_algebra_zd(1)


@pytest.fixture(scope="module")
def z2():
    return hd.group_algebra_zd(2)


@pytest.fixture(scope="module")
def osc():
    return hd.symmetric_star_algebra(("x", "xstar"), involution={"x": "xstar", "xstar": "x"})


def test_zd_matrix_scalar_case(z1):
    L = hd.make_zd_matrix_cocycle(z1, [[1.0]])
    assert L.value(((2,), (3,))) == 6.0


def test_zd_matrix_off_diagonal(z2):
    L = hd.make_zd_matrix_cocycle(z2, [[0, 1], [0, 0]])
    assert L.value(((1, 0), (0, 1))) == 1.0
    assert L.value(((0, 1), (1, 0))) == 0.0


_BAD_2X2 = [
    pytest.param([[1.0]], id="wrong_size"),
    pytest.param([[1.0, 2.0], [3.0]], id="ragged"),
    pytest.param([["a", 0], [0, 0]], id="non_numeric"),
]


@pytest.mark.parametrize("M", _BAD_2X2)
def test_zd_matrix_shape_mismatch(z2, M):
    with pytest.raises(hd.AlgebraError):
        hd.make_zd_matrix_cocycle(z2, M)


@pytest.mark.parametrize("M", _BAD_2X2)
def test_primitive_bilinear_shape_mismatch(osc, M):
    with pytest.raises(hd.AlgebraError):
        hd.make_primitive_bilinear_cocycle(osc, M)


def test_zd_matrix_nonfinite_rejected(z2):
    with pytest.raises(hd.AlgebraError):
        hd.make_zd_matrix_cocycle(z2, [[math.inf, 0], [0, 0]])


def test_primitive_bilinear_nonfinite_rejected(osc):
    with pytest.raises(hd.AlgebraError):
        hd.make_primitive_bilinear_cocycle(osc, [[0, math.nan], [0, 0]])


def test_z_cubic_values(z1):
    L, psi = hd.make_z_cubic_coboundary(z1)
    assert L.value(((1,), (1,))) == 2.0
    assert abs(psi.value(((2,),)) - (-8.0 / 3.0)) < 1e-15


def test_z_polynomial_cocycle_condition_sampled(z1):
    L = hd.make_z_polynomial_cocycle(z1, [(2, 1, 1.0), (1, 2, 1.0)])
    s = hd.ElementSampler(z1, seed=3, coord_bound=10)
    for _ in range(200):
        (a,), (b,), (c,) = s.keys(3)
        identity = (
            L.value(((b,), (c,)))
            - L.value(((a + b,), (c,)))
            + L.value(((a,), (b + c,)))
            - L.value(((a,), (b,)))
        )
        assert identity == 0


def test_primitive_bilinear_support(osc):
    L = hd.oscillator_cocycle(osc)
    assert L.value(((1, 0), (0, 1))) == 0.5
    assert L.value(((0, 1), (1, 0))) == -0.5
    assert L.value(((1, 1), (1, 0))) == 0.0  # degree (2,1) unsupported
    assert L.value(((0, 0), (1, 0))) == 0.0


def test_primitive_bilinear_is_cocycle(osc):
    L = hd.oscillator_cocycle(osc)
    sampler = hd.ElementSampler(osc, seed=5)
    assert cocycle_residual(L, sampler.spawn(13)) <= DEFAULT_TOL
    assert commuting_residual(L, sampler.spawn(11)) <= DEFAULT_TOL
    assert L.is_normalized


def test_trivializer_on_symmetric_cocycle(osc):
    c = 0.75
    M = [[0.25, c], [c, -0.5]]
    L = hd.make_primitive_bilinear_cocycle(osc, M)
    psi = hd.make_trivializing_functional(osc, L)
    # psi reads the cocycle on the normally ordered splitting
    assert psi.value(((1, 1),)) == c
    assert psi.value(((1, 0),)) == 0.0
    assert psi.value(((0, 0),)) == 0.0
    # d(psi)(x (x) x*) = -psi(x x*) because the generators are primitive
    d = hd.coboundary(psi)
    assert d.value(((1, 0), (0, 1))) == -c


def test_trivializer_requires_validated_generator(osc):
    bad = hd.Cochain(osc, 2, lambda ks: 1.0, name="unnormalized")
    with pytest.raises(hd.GeneratorValidationError):
        hd.make_trivializing_functional(osc, bad)


def test_trivializer_ordering_uses_last_generator(osc):
    L = hd.oscillator_cocycle(osc)
    psi = hd.make_trivializing_functional(osc, L)
    # x*x* has head x*, last generator x*: L(x* (x) x*) = 0
    assert psi.value(((0, 2),)) == 0.0
    # x x* -> L(x (x) x*) = 1/2 (x before x* in the generator order)
    assert psi.value(((1, 1),)) == 0.5


def test_generator_key_helper(osc):
    assert generator_key(osc, 0) == (1, 0)
    assert generator_key(osc, 1) == (0, 1)


def test_symmetric_star_requires_involutive_permutation():
    with pytest.raises(hd.AlgebraError):
        hd.symmetric_star_algebra(("a", "b"), involution={"a": "b", "b": "a", "c": "a"})
    with pytest.raises(hd.AlgebraError):
        hd.symmetric_star_algebra(("a", "b", "c"), involution={"a": "b", "b": "c", "c": "a"})


def test_symmetric_star_degree_and_antipode(osc):
    mono = osc.basis_element((2, 1))
    assert osc.degree_key((2, 1)) == 3
    assert hd.antipode(mono).coeff((2, 1)) == -1.0  # (-1)^3


def test_star_swaps_exponents_and_conjugates(osc):
    e = osc.basis_element((2, 1), 1 + 1j)
    starred = hd.star(e)
    assert starred.coeff((1, 2)) == 1 - 1j


def test_sweedler_h4_hopf_axioms():
    h4 = hd.sweedler_h4()
    sampler = hd.ElementSampler(h4, seed=7, budget=80)
    report = hd.check_structure(h4, sampler)
    assert report.overall_pass, [r.law_id for r in report.failures()]


def test_grouplike_table_and_expression(z1):
    L = hd.make_grouplike_expression_cochain(
        z1, "m**2*n + m*n**2", arity=2, table={(((5,)), ((5,))): 99.0}
    )
    assert L.value(((1,), (2,))) == 6.0
    assert L.value(((5,), (5,))) == 99.0  # table entry wins


def test_expression_cochain_multidimensional(z2):
    f = hd.make_grouplike_expression_cochain(z2, "m1*n2 - m2*n1", arity=2)
    assert f.value(((1, 0), (0, 1))) == 1.0
    assert f.value(((0, 1), (1, 0))) == -1.0


def test_expression_arity_one_alias(z1):
    psi = hd.make_grouplike_expression_cochain(z1, "-(k**3)/3", arity=1)
    assert abs(psi.value(((2,),)) - (-8.0 / 3.0)) < 1e-15


def test_expression_rejects_calls_and_names(z1):
    with pytest.raises(hd.AlgebraError):
        compile_expression("__import__('os')", ["m", "n"])
    with pytest.raises(hd.AlgebraError):
        compile_expression("m + q", ["m", "n"])
    with pytest.raises(hd.AlgebraError):
        compile_expression("m if n else 0", ["m", "n"])
    with pytest.raises(hd.AlgebraError):
        compile_expression("'abc'", ["m"])


def test_expression_allows_complex_literals(z1):
    f = hd.make_grouplike_expression_cochain(z1, "1j*m*n", arity=2)
    assert f.value(((2,), (3,))) == 6j


def test_key_validation(z2, osc):
    with pytest.raises(hd.AlgebraError):
        z2.basis_element((1,))  # wrong length
    with pytest.raises(hd.AlgebraError):
        z2.basis_element((0.5, 1))  # not integers
    with pytest.raises(hd.AlgebraError):
        osc.basis_element((-1, 0))  # negative exponent
