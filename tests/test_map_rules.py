"""The rule contract of the linear maps.

A ``LinMap`` rule follows the contract of an instance's basis rules: it
returns the value's ``(key, coeff)`` pairs, as a row or a mapping, and the
map keeps a copy of them as one row of its table, checked and pruned at the
threshold read at fill time; the rule's own mapping is never changed.  No
rule in the package builds an element.  ``tests/test_table_loops.py``
compares the built-in maps' rows with the earlier element-building rules.
"""
import ast
import math
from pathlib import Path

import pytest

import hopfdeform as hd
from hopfdeform.convolution import LinMap
from hopfdeform.core import EPS_PRUNE, NonFiniteError, _clean_terms

PACKAGE = Path(hd.__file__).resolve().parent
ONE = 1.0 + 0j
G, H = (1, 0), (0, 1)


# -- the contract ---------------------------------------------------------------------


def _row_map(value, rank=1):
    """A map on Z² whose rule returns ``value`` and records the tuples it is given."""
    z2 = hd.group_algebra_zd(2)
    seen = []
    return z2, LinMap(z2, rank, lambda keys: seen.append(keys) or value), seen


def _same_row(got, want):
    assert [k for k, _ in got] == [k for k, _ in want]
    assert [repr(c) for _, c in got] == [repr(c) for _, c in want]


@pytest.mark.parametrize("value", [((G, 2.0), (H, 1j)), {G: 2.0, H: 1j}], ids=["row", "mapping"])
def test_a_rule_returns_a_row_or_a_mapping(value):
    kept = dict(value) if isinstance(value, dict) else None
    z2, A, seen = _row_map(value)
    _same_row(A._row((G,)), ((G, 2.0 + 0j), (H, 1j)))
    assert A.value((G,)) == z2.element({G: 2.0, H: 1j})
    assert seen == [(G,)] and list(A._cache) == [G]  # the rule gets (k,), the table is keyed by k
    if kept is not None:
        assert value == kept and value[G].__class__ is float  # the rule's mapping is not changed


def test_a_rank_two_rule_gets_the_tuple():
    z2, A, seen = _row_map({G: 1.0}, rank=2)
    _same_row(A._row((G, H)), ((G, ONE),))
    assert seen == [(G, H)] and list(A._cache) == [(G, H)]


def test_the_last_of_a_repeated_key_wins():
    _, A, _ = _row_map(((G, 1.0), (H, 2.0), (G, 3.0)))
    _same_row(A._row((G,)), ((G, 3.0 + 0j), (H, 2.0 + 0j)))


def test_a_signed_zero_part_is_kept():
    value = {G: complex(-0.0, 1.0), H: complex(0.5, -0.0)}
    _, A, _ = _row_map(value)
    _same_row(A._row((G,)), ((G, complex(-0.0, 1.0)), (H, complex(0.5, -0.0))))
    assert value == {G: complex(-0.0, 1.0), H: complex(0.5, -0.0)}


def test_the_threshold_is_read_when_a_row_is_filled():
    value = {G: 0.4, H: 0.5}
    z2, A, _ = _row_map(value)
    z2.prune_eps = 0.45  # set after the map was built
    _same_row(A._row((G,)), ((H, 0.5 + 0j),))
    z2.prune_eps = EPS_PRUNE
    _same_row(A._row((H,)), ((G, 0.4 + 0j), (H, 0.5 + 0j)))
    assert value == {G: 0.4, H: 0.5} and value[G].__class__ is float


def test_a_non_finite_part_raises_the_cleaning_error():
    value = {G: 1.0, H: math.inf}
    _, A, _ = _row_map(value)
    with pytest.raises(NonFiniteError) as got:
        A._row((G,))
    with pytest.raises(NonFiniteError) as want:
        _clean_terms({G: 1.0, H: math.inf}, EPS_PRUNE)
    assert str(got.value) == str(want.value) == f"non-finite coefficient inf at basis key {H!r}"
    assert value == {G: 1.0, H: math.inf}


# -- no rule builds an element --------------------------------------------------------


def _builds_element(node) -> bool:
    return any(isinstance(n, ast.Call) and (getattr(n.func, "id", None) or getattr(n.func, "attr", None))
               in ("_element", "Element") for n in ast.walk(node))


def _map_rules(tree):
    """The rule of every ``LinMap(`` call: a lambda, or the function of that name defined beside the call."""
    rules = []

    def visit(node, defs):
        body = getattr(node, "body", None)
        if isinstance(body, list):
            defs = {**defs, **{n.name: n for n in body if isinstance(n, ast.FunctionDef)}}
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "LinMap":
                rule = child.args[2] if len(child.args) > 2 else {k.arg: k.value for k in child.keywords}["rule"]
                rules.append(defs[rule.id] if isinstance(rule, ast.Name) else rule)
            visit(child, defs)

    visit(tree, {})
    return rules


def test_no_map_rule_builds_an_element():
    rules = []
    for path in sorted(PACKAGE.glob("*.py")):
        rules += _map_rules(ast.parse(path.read_text(encoding="utf-8")))
    # identity, antipode, μⁿ, _scalar_convolution, map_conv_exp
    assert len(rules) == 5
    assert [ast.unparse(r) for r in rules if _builds_element(r)] == []


def test_the_rule_finder_sees_an_element_built_in_a_rule():
    source = '''
def lambda_rule(inst):
    return LinMap(inst, 1, lambda ks: _element(inst, {ks[0]: 1.0}))

def named_rule(inst):
    def rule(keys):
        return core.Element(inst, {keys[0]: 1.0})
    return LinMap(inst, 1, rule=rule)

def row_rule(inst):
    return LinMap(inst, 1, lambda ks: {ks[0]: 1.0})
'''
    assert [_builds_element(r) for r in _map_rules(ast.parse(source))] == [True, True, False]
