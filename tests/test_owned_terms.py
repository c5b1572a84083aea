"""Element construction cleans a dict it owns, and maps refuse another instance's operands.

The in-place cleaning routine must keep the keys that the reference model's
copying :func:`reference.clean` keeps, in the same order, with every
coefficient equal by ``repr``, and raise the same message on a non-finite
coefficient, because that message is written into a report's
``extras.non_finite``.
"""
import math

import pytest
from hypothesis import given, settings, strategies as st

import hopfdeform as hd
from hopfdeform.convolution import LinMap, antipode_map, mu_n_map
from hopfdeform.core import InstanceMismatchError, NonFiniteError, _clean_terms
from hopfdeform.deformation import deformed_mul_map

import reference as ref

_INF = math.inf


def _same(got: dict, want: dict) -> None:
    ref.same(got, want)
    assert all(c.__class__ is complex for c in got.values())


def _outcome(clean, terms, prune):
    try:
        return clean(terms, prune)
    except NonFiniteError as exc:
        return str(exc)


CASES = {
    "pruned_mid_dict": {"a": 1.0, "b": 1e-13 + 0j, "c": 2j, "d": 0j, "e": -3.5},
    "negative_zero_parts": {"a": complex(-0.0, 1.0), "b": -0.0, "c": complex(1.0, -0.0), "d": complex(-0.0, -0.0)},
    "int_and_float_values": {(0, 1): 3, (1, 0): 2.5, (1, 1): 0, (2, 0): -1, (0, 0): 1e-300},
    "at_the_threshold": {"a": 1e-12, "b": complex(0.0, 1e-12), "c": 9.999999999999999e-13},
    "inf": {"a": 1.0, "b": complex(_INF, 0.0), "c": complex(math.nan, 0.0)},
    "float_inf": {"a": 1e-20, "b": -_INF},
    "nan": {"a": 1.0, "b": math.nan},
    # |1e308 + 1e308j| is still finite; |1.5e308 + 1.5e308j| overflows
    "large_finite_modulus": {"a": complex(1e308, 1e308), "b": _INF},
    "overflowing_modulus": {"a": 1.0, "b": complex(1.5e308, 1.5e308), "c": _INF},
    "empty": {},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_in_place_cleaning_matches_the_copying_routine(name):
    terms = CASES[name]
    want = _outcome(ref.clean, dict(terms), 1e-12)
    owned = dict(terms)
    got = _outcome(_clean_terms, owned, 1e-12)
    if isinstance(want, str):
        assert got == want
    else:
        assert got is owned
        _same(got, want)


def test_the_non_finite_messages_name_the_raw_value():
    assert _outcome(_clean_terms, dict(CASES["inf"]), 1e-12) == "non-finite coefficient (inf+0j) at basis key 'b'"
    assert _outcome(_clean_terms, dict(CASES["float_inf"]), 1e-12) == "non-finite coefficient -inf at basis key 'b'"
    assert (_outcome(_clean_terms, dict(CASES["overflowing_modulus"]), 1e-12)
            == "non-finite coefficient (1.5e+308+1.5e+308j) at basis key 'b'")
    assert (_outcome(_clean_terms, dict(CASES["large_finite_modulus"]), 1e-12)
            == "non-finite coefficient inf at basis key 'b'")


_parts = st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1e-12, 0.5, -2.0, 1e308, 1.5e308, _INF, math.nan])
_values = st.one_of(
    st.builds(complex, _parts, _parts),
    _parts,
    st.integers(-3, 3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), _values), max_size=8), st.sampled_from([0.0, 1e-12, 0.75, 2.0]))
def test_in_place_cleaning_matches_on_drawn_dicts(items, prune):
    terms = dict(items)
    want = _outcome(ref.clean, dict(terms), prune)
    got = _outcome(_clean_terms, dict(terms), prune)
    if isinstance(want, str):
        assert got == want
    else:
        _same(got, want)


def test_public_constructors_leave_the_callers_dict_unchanged():
    z2 = hd.group_algebra_zd(2)
    terms = {(1, 0): 2, (0, 1): 1e-13, (1, 1): -0.0, (2, 2): 0.5}
    snapshot = [(k, v, type(v)) for k, v in terms.items()]
    x = hd.Element(z2, terms)
    y = z2.element(terms)
    assert [(k, v, type(v)) for k, v in terms.items()] == snapshot
    assert x.terms is not terms and y.terms is not terms
    assert list(x.terms) == [(1, 0), (2, 2)] == list(y.terms)

    tensor_terms = {((1, 0), (0, 0)): 1, ((0, 0), (1, 0)): 1e-14}
    tensor_snapshot = dict(tensor_terms)
    u = hd.TensorElement(z2, 2, tensor_terms)
    assert tensor_terms == tensor_snapshot and type(tensor_terms[((1, 0), (0, 0))]) is int
    assert list(u.terms) == [((1, 0), (0, 0))]


def test_a_public_constructor_that_fails_leaves_the_callers_dict_unchanged():
    z2 = hd.group_algebra_zd(2)
    terms = {(1, 0): 1, (0, 1): 1e-13, (1, 1): math.inf}
    with pytest.raises(NonFiniteError, match=r"non-finite coefficient inf at basis key \(1, 1\)"):
        hd.Element(z2, terms)
    assert terms == {(1, 0): 1, (0, 1): 1e-13, (1, 1): math.inf}
    assert type(terms[(1, 0)]) is int


# -- operands of another instance -----------------------------------------------


@pytest.fixture(scope="module")
def z1_z2():
    z1, z2 = hd.group_algebra_zd(1), hd.group_algebra_zd(2)
    return z1, z2, z2.element({(1, 2): 1.0, (0, 1): 0.5})


def test_a_rank_one_map_refuses_another_instances_element(z1_z2):
    z1, _, x = z1_z2
    for A in (antipode_map(z1), hd.identity_map(z1)):
        with pytest.raises(InstanceMismatchError, match="mixed instances"):
            A(x)


def test_a_map_refuses_another_instances_tensor(z1_z2):
    z1, _, x = z1_z2
    with pytest.raises(InstanceMismatchError, match="mixed instances"):
        mu_n_map(z1, 2)(hd.comul(x))


def test_a_rank_two_map_refuses_another_instances_pair(z1_z2):
    z1, _, x = z1_z2
    mu = mu_n_map(z1, 2)
    y = z1.basis_element((1,))
    for a, b in ((x, x), (x, y), (y, x)):
        with pytest.raises(InstanceMismatchError, match="mixed instances"):
            mu.on_pair(a, b)
    assert mu.on_pair(y, y) == z1.basis_element((2,))


def test_a_cochain_refuses_another_instances_element_or_tensor(z1_z2):
    z1, _, x = z1_z2
    with pytest.raises(InstanceMismatchError, match="mixed instances"):
        hd.counit_cochain(z1, 2)(hd.comul(x))
    with pytest.raises(InstanceMismatchError, match="mixed instances"):
        hd.counit_cochain(z1, 1)(x)
    with pytest.raises(InstanceMismatchError, match="mixed instances"):
        hd.counit_cochain(z1, 2)((0,), x)
    assert hd.counit_cochain(z1, 2)((0,), z1.basis_element((1,), 3.0)) == 3.0


def test_deformed_maps_refuse_another_instances_element(z1_z2):
    z1, z2, x = z1_z2
    D = hd.make_deformation(z1, hd.zero_cochain(z1, 2), hd.ElementSampler(z1, seed=3, budget=10))
    with pytest.raises(InstanceMismatchError, match="mixed instances"):
        hd.deformed_antipode(D, 0.5)(x)
    with pytest.raises(InstanceMismatchError, match="mixed instances"):
        deformed_mul_map(D, 0.5).on_pair(x, x)
    with pytest.raises(InstanceMismatchError, match="mixed instances"):
        hd.deformed_mul(D, 0.5, z1.unit_element(), x)


def test_a_map_of_the_right_instance_still_applies(z1_z2):
    z1, _, _ = z1_z2
    A = LinMap(z1, 1, lambda ks: z1.basis_element((-ks[0][0],)).terms)
    assert A(z1.element({(1,): 2.0, (3,): 1j})) == z1.element({(-1,): 2.0, (-3,): 1j})
