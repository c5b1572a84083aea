"""Coboundary operator, the normalized check, and the commuting, cocycle and hermitian residuals."""
import math

import pytest

import hopfdeform as hd
from hopfdeform.cohomology import (
    DEFAULT_TOL,
    cocycle_residual,
    commuting_residual,
    hermitian_conjugate,
    hermitian_residual,
    hermitian_sign,
)


@pytest.fixture(scope="module")
def z1():
    return hd.group_algebra_zd(1)


@pytest.fixture(scope="module")
def z2():
    return hd.group_algebra_zd(2)


@pytest.fixture(scope="module")
def osc():
    return hd.symmetric_star_algebra(("x", "xstar"), involution={"x": "xstar", "xstar": "x"})


def test_coboundary_of_cubic_witness_hand_value(z1):
    # d(psi)(1,2) = psi(2) - psi(3) + psi(1) = -8/3 + 9 - 1/3 = 6
    L, psi = hd.make_z_cubic_coboundary(z1)
    d = hd.coboundary(psi)
    assert abs(d.value(((1,), (2,))) - 6.0) < 1e-12
    assert abs(d.value(((1,), (2,))) - L.value(((1,), (2,)))) < 1e-12


def test_coboundary_matches_generator_on_grid(z1):
    L, psi = hd.make_z_cubic_coboundary(z1)
    d = hd.coboundary(psi)
    for m in range(-10, 11):
        for n in range(-10, 11):
            assert abs(d.value(((m,), (n,))) - L.value(((m,), (n,)))) <= 1e-9


def test_coboundary_of_zero(z1):
    d = hd.coboundary(hd.zero_cochain(z1, 1))
    assert d.value(((3,), (4,))) == 0


def test_coboundary_squared_is_zero(z1, osc):
    _, psi = hd.make_z_cubic_coboundary(z1)
    dd = hd.coboundary(hd.coboundary(psi))
    s = hd.ElementSampler(z1, seed=3, coord_bound=5)
    for _ in range(200):
        assert abs(dd.value(s.keys(3))) <= 1e-8

    Losc = hd.oscillator_cocycle(osc)
    dd2 = hd.coboundary(hd.coboundary(Losc))
    so = hd.ElementSampler(osc, seed=5)
    for _ in range(200):
        assert abs(dd2.value(so.keys(4))) <= 1e-8


def test_non_cocycle_detected(z1):
    # L(m,n) = m: d(L)(1,1,1) = L(1,1) - L(2,1) + L(1,2) - L(1,1) = -1
    L = hd.make_z_polynomial_cocycle(z1, [(1, 0, 1.0)])
    d = hd.coboundary(L)
    assert abs(d.value(((1,), (1,), (1,))) - (-1.0)) < 1e-12
    sampler = hd.ElementSampler(z1, seed=7, coord_bound=2)
    assert cocycle_residual(L, sampler.spawn(13)) > DEFAULT_TOL


def test_grouplike_cocycle_identity_two_paths(z2):
    # the coboundary formula and the group 2-cocycle identity must agree
    A = [[1.0, 2.0], [0.5, -1.0]]
    L = hd.make_zd_matrix_cocycle(z2, A)
    d = hd.coboundary(L)
    s = hd.ElementSampler(z2, seed=11, coord_bound=4)
    for _ in range(120):
        a, b, c = s.keys(3)
        ab = tuple(x + y for x, y in zip(a, b))
        bc = tuple(x + y for x, y in zip(b, c))
        group_form = L.value((b, c)) - L.value((ab, c)) + L.value((a, bc)) - L.value((a, b))
        assert abs(d.value((a, b, c)) - group_form) < 1e-12


def test_normalized_checks(z1):
    L, _ = hd.make_z_cubic_coboundary(z1)
    assert L.is_normalized
    bad = hd.Cochain(z1, 2, lambda ks: 1.0, name="unnormalized")
    assert not bad.is_normalized


def test_commuting_automatic_on_cocommutative(z1, z2, osc):
    cochains = [
        hd.make_z_cubic_coboundary(z1)[0],
        hd.make_zd_matrix_cocycle(z2, [[0, 1], [0, 0]]),
        hd.oscillator_cocycle(osc),
    ]
    for f in cochains:
        s = hd.ElementSampler(f.instance, seed=13, coord_bound=3)
        assert commuting_residual(f, s, samples=80) <= 1e-12


def test_hermitian_sign_rule_parity():
    assert [hermitian_sign(n) for n in range(7)] == [-1, 1, 1, -1, -1, 1, 1]


def test_oscillator_cocycle_is_hermitian(osc):
    L = hd.oscillator_cocycle(osc)
    tilde = hermitian_conjugate(L)
    # (x*)* = x and the value is real, so the conjugate-reverse fixes L
    assert tilde.value(((1, 0), (0, 1))) == L.value(((1, 0), (0, 1))) == 0.5
    sampler = hd.ElementSampler(osc, seed=17)
    assert hermitian_residual(L, sampler.spawn(17)) <= DEFAULT_TOL


def test_matrix_cocycle_hermitian_iff_matrix_hermitian(z2):
    herm = [[1.0, 0.5 + 0.5j], [0.5 - 0.5j, 2.0]]
    not_herm = [[0.0, 1.0], [0.0, 0.0]]
    sampler = hd.ElementSampler(z2, seed=19, coord_bound=3)
    assert hermitian_residual(hd.make_zd_matrix_cocycle(z2, herm), sampler.spawn(17)) <= DEFAULT_TOL
    assert hermitian_residual(hd.make_zd_matrix_cocycle(z2, not_herm), sampler.spawn(17)) > DEFAULT_TOL


def test_zero_cochain_hermitian_every_arity(z2):
    sampler = hd.ElementSampler(z2, seed=23, coord_bound=3)
    for arity in (1, 2, 3):
        assert hermitian_residual(hd.zero_cochain(z2, arity), sampler.spawn(17)) <= DEFAULT_TOL


def test_validate_generator_cubic(z1):
    L, psi = hd.make_z_cubic_coboundary(z1)
    sampler = hd.ElementSampler(z1, seed=29, coord_bound=3)
    cls = hd.validate_generator(L, sampler, witness=psi)
    assert cls.normalized and cls.commuting and cls.cocycle
    assert cls.witness_matches
    assert cls.to_dict()["has_witness"] is True


def test_validate_generator_oscillator(osc):
    L = hd.oscillator_cocycle(osc)
    sampler = hd.ElementSampler(osc, seed=31)
    cls = hd.validate_generator(L, sampler, require_star=True)
    assert cls.is_generator(require_star=True)
    assert cls.hermitian


def test_validate_generator_rejects_non_cocycle(z1):
    L = hd.make_z_polynomial_cocycle(z1, [(1, 0, 1.0)])
    sampler = hd.ElementSampler(z1, seed=37, coord_bound=2)
    cls = hd.validate_generator(L, sampler)
    assert not cls.cocycle
    assert not cls.is_generator()


def test_cocycle_residual_keeps_nan(z1):
    f = hd.Cochain(z1, 2, lambda ks: math.nan, name="nan")
    sampler = hd.ElementSampler(z1, seed=43, coord_bound=2)
    assert math.isnan(cocycle_residual(f, sampler, samples=10))


def test_validate_generator_rejects_nan_cocycle_residual(z1):
    # zero on every pair the commuting check reaches with coord_bound 1, NaN
    # on the larger pairs the coboundary reaches, so only the cocycle law sees it
    L = hd.Cochain(z1, 2, lambda ks: math.nan if abs(ks[0][0]) + abs(ks[1][0]) > 2 else 0.0)
    sampler = hd.ElementSampler(z1, seed=47, coord_bound=1)
    cls = hd.validate_generator(L, sampler, samples=40)
    assert cls.normalized and cls.commuting
    assert math.isnan(cls.residuals["cocycle"])
    assert not cls.cocycle
    assert not cls.is_generator()


def test_validate_generator_flags_bad_witness(z1):
    L, psi = hd.make_z_cubic_coboundary(z1)
    # a quadratic perturbation has coboundary -2mn, so the mismatch is visible
    wrong = hd.Cochain(z1, 1, lambda ks: -(ks[0][0] ** 3) / 3.0 + ks[0][0] ** 2, name="corrupted")
    sampler = hd.ElementSampler(z1, seed=41, coord_bound=2)
    cls = hd.validate_generator(L, sampler, witness=wrong)
    assert cls.witness_matches is False
    assert cls.to_dict()["has_witness"] is False


def test_hermitian_coboundary_sign_flip(z2):
    # arity 2 hermitian class maps into the arity 3 class with the minus sign
    L = hd.make_zd_matrix_cocycle(z2, [[1, 0.5 + 0.5j], [0.5 - 0.5j, 1]])
    dL = hd.coboundary(L)
    tilde = hermitian_conjugate(dL)
    s = hd.ElementSampler(z2, seed=47, coord_bound=2)
    for _ in range(60):
        keys = s.keys(3)
        assert abs(tilde.value(keys) + dL.value(keys)) < 1e-12
