"""The structure maps and cochain rules that read the basis tables, against the code they replaced.

Each reference below is the earlier implementation: the coproduct, the
counit and the slot maps summed by ``_linear`` through a rule, the counit
read from the basis rule on every call, a product of basis keys built one
element per step, the cochain rules wrapping each product, antipode or star
row in an element to call the earlier ``eval_mixed``, and
``check_structure`` computing a·b and Δ(a) again in every law, and the
rules of the built-in linear maps, each building an element that the earlier
map unwrapped into its table row at once.  Every reference dict is cleaned
by a copy of the earlier cleaning routine.  The
loops must give the same keys in the same dict order, and every coefficient
and cochain value must be equal by ``repr``, so report bytes stay the same.
"""
import itertools
import math

import pytest

import hopfdeform as hd
from hopfdeform.cohomology import coboundary, compose_antipode_flip, hermitian_conjugate
from hopfdeform.convolution import (
    _closed_form,
    antipode_map,
    conv_exp,
    conv_exp_coeffs,
    functional_conv_map,
    identity_map,
    map_conv_functional,
    mu_n_map,
    tuple_comul_terms,
    tuple_counit,
)
from hopfdeform.core import (
    AlgebraError,
    EPS_PRUNE,
    Element,
    Kind,
    Memo,
    NonFiniteError,
    TensorElement,
    _element,
    _linear,
    check_structure,
    counit,
    scale,
    star,
    tensor_apply,
    tensor_contract_slot,
    tensor_expand_slot,
    tensor_flip,
    tensor_mul,
    tensor_mul_all,
)
from hopfdeform.deformation import (
    DEFAULT_T_GRID,
    _flipped_antipodes,
    _sigma_cochains,
    _sigma_sides,
    deformed_antipode,
    deformed_mul_map,
    make_trivial_deformation,
    phi_map,
)
from hopfdeform.report import Law, Report, run_laws

_INF = math.inf
ONE = 1.0 + 0j


# -- references: the earlier code ---------------------------------------------------


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


def ref_linear(items, rule=None):
    acc = {}
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


def ref_counit_key(inst, k):
    # the basis rule evaluated on every call, as the instance did before its counit table
    return complex(inst._counit_cache.compute(k))


def ref_comul(a):
    inst = a.instance
    pairs = lambda k: [((x, y), c) for x, y, c in inst.comul_terms(k)]  # noqa: E731
    return TensorElement(inst, 2, ref_clean(ref_linear(a.terms.items(), pairs), inst.prune_eps))


def ref_counit(a):
    total = 0j
    for k, c in a.terms.items():
        total += c * ref_counit_key(a.instance, k)
    return total


def ref_tuple_counit(inst, keys):
    c = 1.0 + 0j
    for k in keys:
        c *= ref_counit_key(inst, k)
    return c


def ref_expand(u, slot):
    inst = u.instance
    terms = ref_linear(
        (keys[:slot] + (k1, k2) + keys[slot + 1 :], c * w)
        for keys, c in u.terms.items()
        for k1, k2, w in inst.comul_terms(keys[slot])
    )
    return ref_clean(terms, inst.prune_eps)


def ref_contract(u, slot):
    inst = u.instance
    terms = ref_linear((keys[:slot] + keys[slot + 1 :], c * ref_counit_key(inst, keys[slot]))
                       for keys, c in u.terms.items())
    if u.rank == 2:
        return ref_clean({k[0]: c for k, c in terms.items()}, inst.prune_eps)
    if u.rank == 1:
        raise AlgebraError("tensor rank must be >= 1")
    return ref_clean(terms, inst.prune_eps)


def ref_key_product(inst, keys):
    prune = inst.prune_eps
    acc = {keys[0]: ONE}
    for k in keys[1:]:
        prod, acc = ref_clean(acc, prune), {}
        for ka, ca in prod.items():
            c = ca * ONE
            for key, w in inst.mul_terms(ka, k):
                cur = acc.get(key)
                acc[key] = c * w if cur is None else cur + c * w
    return ref_clean(acc, prune)


def ref_mul_all(u):
    inst = u.instance
    return ref_clean(ref_linear(u.terms.items(), lambda keys: ref_key_product(inst, keys).items()), inst.prune_eps)


def ref_eval_mixed(f, args):
    """The earlier ``Cochain.eval_mixed``; a dict argument stands for the element with those terms."""
    slots = [tuple(a.items()) if isinstance(a, dict) else ((a, ONE),) for a in args]
    total = 0j
    for combo in itertools.product(*slots):
        w = ONE
        for _, v in combo:
            w *= v
        if w != 0:
            total += w * f.value(tuple(k for k, _ in combo))
    return total


def ref_row(inst, row):
    return ref_clean(dict(row), inst.prune_eps)


def ref_coboundary(f):
    inst, n = f.instance, f.arity

    def rule(keys):
        total = ref_tuple_counit(inst, keys[:1]) * ref_eval_mixed(f, keys[1:])
        sign = 1.0
        for i in range(1, n + 1):
            sign = -sign
            merged = ref_row(inst, inst.mul_terms(keys[i - 1], keys[i]))
            total += sign * ref_eval_mixed(f, keys[: i - 1] + (merged,) + keys[i + 1 :])
        total += -sign * ref_eval_mixed(f, keys[:n]) * ref_counit_key(inst, keys[n])
        return total

    return hd.Cochain(inst, n + 1, rule, "ref_d")


def ref_hermitian_conjugate(f):
    inst = f.instance
    return hd.Cochain(inst, f.arity, lambda keys: ref_eval_mixed(
        f, tuple(ref_row(inst, inst.star_terms(k)) for k in reversed(keys))).conjugate(), "ref_tilde")


def ref_compose_antipode_flip(f):
    inst = f.instance
    return hd.Cochain(inst, 2, lambda keys: ref_eval_mixed(
        f, (ref_row(inst, inst.antipode_terms(keys[1])), ref_row(inst, inst.antipode_terms(keys[0])))), "ref_lss")


def ref_sigma(D, s_slot):
    inst, L = D.instance, D.generator

    def rule(keys):
        total = 0j
        for k1, k2, c in inst.comul_terms(keys[0]):
            args = [ref_row(inst, inst.antipode_terms(k)) if i == s_slot else k for i, k in enumerate((k1, k2))]
            total += c * ref_eval_mixed(L, args)
        return total

    return hd.Cochain(inst, 1, rule, "ref_sigma")


def ref_flipped_antipodes(D, t, r, a):
    St, Sr = deformed_antipode(D, t), deformed_antipode(D, r)
    flipped = tensor_flip(hd.comul(a))
    return tensor_apply(flipped, (lambda k: St.value((k,)).terms.items(), lambda k: Sr.value((k,)).terms.items()))


def ref_sigma_sides(sig, a):
    inst = sig.instance
    legs = hd.comul(a).terms.items()
    lhs = ref_linear(legs, lambda ks: ((ks[1], sig.value(ks[:1])),))
    rhs = ref_linear(legs, lambda ks: ((ks[0], sig.value(ks[1:])),))
    return ref_clean(lhs, inst.prune_eps), ref_clean(rhs, inst.prune_eps)


def ref_check_structure(instance, sampler, tol=1e-8):
    """The earlier suite: every law computes the a·b and Δ(a) it reads."""
    triples = [(sampler.element(), sampler.element(), sampler.element()) for _ in range(sampler.budget)]
    if instance.kind is Kind.GROUPLIKE_BASIS:
        keys = [sampler.key() for _ in range(sampler.budget)]
    elif instance.kind is Kind.GRADED_CONNECTED:
        keys = [(sampler.key(), sampler.key()) for _ in range(sampler.budget)]
    one = instance.unit_element()

    def on_triples(law_id, statement, residual, tolerance=tol):
        return Law(law_id, statement, lambda abc: residual(*abc), tolerance, cases=triples)

    def coassociativity(a, *_):
        u = ref_comul(a)
        return TensorElement(instance, 3, ref_expand(u, 0)).distance(TensorElement(instance, 3, ref_expand(u, 1)))

    def counit_law(a, *_):
        u = ref_comul(a)
        return Element(instance, ref_contract(u, 0)).distance(a), Element(instance, ref_contract(u, 1)).distance(a)

    def grading(pair):
        deg = instance.degree_key
        d1, d2 = deg(pair[0]), deg(pair[1])
        graded = all(deg(k) == d1 + d2 for k, _ in instance.mul_terms(*pair)) and all(
            deg(a) + deg(b) == d1 for a, b, _ in instance.comul_terms(pair[0])
        )
        return 0.0 if graded else 1.0, 0.0 if deg(instance.unit) == 0 else 1.0

    def antipode_law(a, *_):
        u = ref_comul(a)
        target = scale(ref_counit(a), one)
        lhs = Element(instance, ref_mul_all(tensor_apply(u, (instance.antipode_terms, None))))
        rhs = Element(instance, ref_mul_all(tensor_apply(u, (None, instance.antipode_terms))))
        return lhs.distance(target), rhs.distance(target)

    mul = hd.mul
    laws = [
        on_triples("associativity", "(a*b)*c = a*(b*c)",
                   lambda a, b, c: mul(mul(a, b), c).distance(mul(a, mul(b, c)))),
        on_triples("unit", "1*a = a = a*1",
                   lambda a, *_: (mul(one, a).distance(a), mul(a, one).distance(a)), 1e-12),
        on_triples("coassociativity", "(Delta(x)id)Delta = (id(x)Delta)Delta", coassociativity),
        on_triples("counit", "(delta(x)id)Delta = id = (id(x)delta)Delta", counit_law, 1e-12),
        on_triples("comul_homomorphism", "Delta(ab) = Delta(a)Delta(b)",
                   lambda a, b, _: ref_comul(mul(a, b)).distance(tensor_mul(ref_comul(a), ref_comul(b)))),
        on_triples("counit_homomorphism", "delta(ab) = delta(a)delta(b)",
                   lambda a, b, _: abs(ref_counit(mul(a, b)) - ref_counit(a) * ref_counit(b))),
    ]
    if instance.kind is Kind.GROUPLIKE_BASIS:
        laws.append(Law("grouplike_basis", "Delta(b) = b(x)b and delta(b) = 1 on basis keys",
                        lambda k: (0.0 if instance.comul_terms(k) == ((k, k, 1.0 + 0j),) else 1.0,
                                   abs(ref_counit_key(instance, k) - 1.0)), 0.0, cases=keys))
    if instance.kind is Kind.GRADED_CONNECTED:
        laws.append(Law("grading", "deg(1) = 0; the product adds degrees; the coproduct preserves them",
                        grading, 0.0, cases=keys))
    if instance.cocommutative:
        laws.append(on_triples("cocommutativity", "tau∘Delta = Delta",
                               lambda a, *_: tensor_flip(ref_comul(a)).distance(ref_comul(a)), 1e-12))
    if instance.has_antipode:
        laws.append(on_triples("antipode", "mul(S(x)id)Delta = delta*1 = mul(id(x)S)Delta", antipode_law))
        laws.append(Law("antipode_unit", "S(1) = 1", lambda _: hd.antipode(one).distance(one), 1e-12))
    if instance.has_star:
        laws.append(on_triples("star_involutive", "(a*)* = a", lambda a, *_: star(star(a)).distance(a), 1e-12))
        laws.append(on_triples("star_antihomomorphism", "(ab)* = b* a*",
                               lambda a, b, _: star(mul(a, b)).distance(mul(star(b), star(a)))))
    report = Report(name=f"structure:{instance.name}")
    run_laws(report, sampler, laws)
    return report


# -- instances -----------------------------------------------------------------------


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
        star_basis=lambda k: [(kk, 1.1 * c) for kk, c in base.star_terms(k)],
        degree=base.degree_key,
    )
    return inst, hd.Cochain(inst, 2, L.value, name="skewed_oscillator")


# a key that only zero entries of the rows below reach; _dense is infinite there
_FAR = (9, 9)


def _signed_zeros():
    # Z² with rules whose coefficients carry -0.0 parts, a repeated key in a
    # product row, whose last entry wins in an element, and zero entries,
    # which only a threshold of 0 keeps; not a bialgebra
    base = hd.group_algebra_zd(2)
    minus_i = complex(-0.0, -1.0)

    def mul_basis(k1, k2):
        (k, c), = base.mul_terms(k1, k2)
        return [(k, complex(-0.0, 0.5)), (base.unit, complex(0.25, -0.0)), (k, c * minus_i), (_FAR, 0j)]

    inst = hd.BialgebraInstance(
        "signed_zeros", hd.Kind.GROUPLIKE_BASIS, base.unit,
        mul_basis=mul_basis,
        comul_basis=lambda k: [(k, k, complex(1.0, -0.0))],
        counit_basis=lambda k: complex(1.0, -0.0),
        antipode_basis=lambda k: [(kk, c * minus_i) for kk, c in base.antipode_terms(k)] + [(_FAR, 0j)],
        star_basis=lambda k: [(_FAR, -0j)] + [(kk, complex(-0.0, 1.0)) for kk, _ in base.star_terms(k)],
    )
    return inst, hd.make_zd_matrix_cocycle(inst, [[0.3, -0.0], [-0.1, 0.2]])


CASES = {"oscillator": _oscillator, "z2": _z2, "h4": _h4, "skewed": _skewed, "signed_zeros": _signed_zeros}
# the threshold each instance is given after construction, as config.build_instance sets it
PRUNES = {"default": None, "zero": 0.0, "coarse": 0.45, "above_one": 1.5}


def _sampler(inst, seed=47, budget=12):
    return hd.ElementSampler(inst, seed=seed, budget=budget, coord_bound=2, max_degree=3, max_support=3)


@pytest.fixture(params=[(c, p) for c in sorted(CASES) for p in PRUNES])
def case(request):
    name, prune = request.param
    inst, L = CASES[name]()
    if PRUNES[prune] is not None:
        inst.prune_eps = PRUNES[prune]
    return inst, L, _sampler(inst)


def _same(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    assert [repr(c) for c in got.values()] == [repr(c) for c in want.values()]


def _dense(inst, arity):
    """A cochain with a value on every tuple, its real part -0.0 and its imaginary part sometimes -0.0.

    It is infinite on tuples that hold _FAR, which a zero weight must skip.
    """
    return hd.Cochain(inst, arity, lambda ks: complex(math.inf, 1.0) if _FAR in ks else
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
    inst, _, sampler = case
    for (a,) in _draws(sampler, 1, 15):
        _same(hd.comul(a).terms, ref_comul(a).terms)
        assert repr(counit(a)) == repr(ref_counit(a))
        for k in a.terms:
            assert repr(inst.counit_key(k)) == repr(ref_counit_key(inst, k))
    for u in _tuples(inst, sampler, 3, 10):
        assert repr(tuple_counit(inst, u)) == repr(ref_tuple_counit(inst, u))


def test_slot_expansion_and_contraction_match_the_rule_sums(case):
    inst, _, sampler = case
    for a, b in _draws(sampler, 2, 10):
        for u in (hd.comul(a), hd.tensor_of(a, b), hd.tensor_of(a, b, a)):
            for slot in range(u.rank):
                _same(tensor_expand_slot(u, slot).terms, ref_expand(u, slot))
                _same(tensor_contract_slot(u, slot).terms, ref_contract(u, slot))


def test_a_rank_one_contraction_is_still_refused(case):
    inst, _, sampler = case
    u = hd.tensor_of(inst.unit_element())
    with pytest.raises(AlgebraError, match="tensor rank must be >= 1"):
        tensor_contract_slot(u, 0)


def test_the_slot_product_matches_the_key_products(case):
    inst, _, sampler = case
    rows = [(None, None)]
    if inst.has_antipode:
        rows += [(inst.antipode_terms, None), (None, inst.antipode_terms)]
    for a, b in _draws(sampler, 2, 10):
        for u in (hd.comul(a), hd.tensor_of(a, b)):
            for maps in rows:
                v = tensor_apply(u, maps)
                _same(tensor_mul_all(v).terms, ref_mul_all(v))
        # one term each, whose coefficient's signed zero no slot map has touched
        for (ka, ca), kb in zip(a.terms.items(), b.terms):
            v = TensorElement(inst, 2, {(ka, kb): ca})
            _same(tensor_mul_all(v).terms, ref_mul_all(v))
        with pytest.raises(AlgebraError, match="tensor_mul_all is defined on rank-2 tensors"):
            tensor_mul_all(hd.tensor_of(a, b, a))


def test_check_structure_matches_the_suite_that_recomputes(case):
    inst, _, _ = case
    got = check_structure(inst, _sampler(inst, seed=53, budget=15))
    want = ref_check_structure(inst, _sampler(inst, seed=53, budget=15))
    assert repr(got.to_dict()) == repr(want.to_dict())


# -- sums that cancel below prune_eps --------------------------------------------------


def test_cancelling_sums_are_pruned():
    inst = hd.group_algebra_zd(2)
    g, h, gh = (1, 0), (0, 1), (1, 1)
    a = inst.element({g: 1.0, h: -(1.0 - 1e-13)})
    # S(g)·g and S(h)·h are both the unit: the antipode sum cancels
    for maps in ((inst.antipode_terms, None), (None, inst.antipode_terms)):
        v = tensor_apply(hd.comul(a), maps)
        _same(tensor_mul_all(v).terms, ref_mul_all(v))
        assert tensor_mul_all(v).is_zero
    u = hd.TensorElement(inst, 2, {(g, h): 1.0, (g, gh): -(1.0 - 1e-13)})
    _same(tensor_contract_slot(u, 1).terms, ref_contract(u, 1))
    assert tensor_contract_slot(u, 1).is_zero
    w = hd.TensorElement(inst, 3, {(g, h, g): 1.0, (g, h, gh): -(1.0 - 1e-13), (h, h, h): 2.0})
    _same(tensor_contract_slot(w, 2).terms, ref_contract(w, 2))
    assert list(tensor_contract_slot(w, 2).terms) == [(h, h)]


# -- the cochain rules --------------------------------------------------------------------


def test_coboundaries_match_the_element_rules(case):
    inst, L, sampler = case
    for f in (L, _dense(inst, 1), _dense(inst, 2), hd.counit_cochain(inst, 1)):
        _same_values(coboundary(f), ref_coboundary(f), _tuples(inst, sampler, f.arity + 1))
    df = coboundary(_dense(inst, 1))
    _same_values(coboundary(df), ref_coboundary(df), _tuples(inst, sampler, 3))


def test_the_antipode_rules_match_the_element_rules(case):
    inst, L, sampler = case
    if not inst.has_antipode:
        pytest.skip("no antipode")
    for f in (L, _dense(inst, 2)):
        _same_values(compose_antipode_flip(f), ref_compose_antipode_flip(f), _tuples(inst, sampler, 2))
        D = hd.Deformation(inst, f, None, sampler)
        sig, flip = _sigma_cochains(D)
        keys = _tuples(inst, sampler, 1)
        _same_values(sig, ref_sigma(D, 1), keys)
        _same_values(flip, ref_sigma(D, 0), keys)


def test_hermitian_conjugates_match_the_element_rule(case):
    inst, L, sampler = case
    if not inst.has_star:
        pytest.skip("no involution")
    for f in (L, _dense(inst, 1), _dense(inst, 3)):
        _same_values(hermitian_conjugate(f), ref_hermitian_conjugate(f), _tuples(inst, sampler, f.arity))


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
            ref_coboundary(f).value(u)
        assert str(got.value) == str(want.value)


# -- the map rules: the earlier rules, each building an Element ------------------------------


class RefMap:
    """The earlier map: its table keeps ``tuple(rule(keys).terms.items())``."""

    def __init__(self, instance, rank, rule):
        self.instance, self.rank = instance, rank
        if rank == 1:
            self._cache = Memo(lambda k: tuple(rule((k,)).terms.items()))
        else:
            self._cache = Memo(lambda keys: tuple(rule(keys).terms.items()))

    def _row(self, keys):
        return self._cache[keys[0] if self.rank == 1 else tuple(keys)]


def ref_identity(inst):
    return RefMap(inst, 1, lambda ks: _element(inst, {ks[0]: 1.0}))


def ref_antipode(inst):
    return RefMap(inst, 1, lambda ks: _element(inst, dict(inst.antipode_terms(ks[0]))))


def ref_mu_n(inst, n):
    return RefMap(inst, n, lambda keys: _element(inst, ref_key_product(inst, keys)))


def ref_scalar_convolution(A, f, f_leg):
    inst = A.instance

    def rule(keys):
        scaled = ((A._row(legs[1 - f_leg]), legs[2] * v)
                  for legs in tuple_comul_terms(inst, keys) if (v := f.value(legs[f_leg])) != 0)
        return _element(inst, _linear(scaled, iter))

    return RefMap(inst, A.rank, rule)


def ref_map_conv_exp(A, f, t):
    inst = A.instance

    def rule(keys):
        closed = _closed_form(f)
        legs = tuple((c, right, A._row(left)) for left, right, c in tuple_comul_terms(inst, keys)
                     if closed or any(f._coeffs.get(right) or conv_exp_coeffs(f, right)))
        scaled = ((row, c * v) for c, right, row in legs if (v := conv_exp(f, t, right)) != 0)
        return _element(inst, _linear(scaled, iter))

    return RefMap(inst, A.rank, rule)


# -- the built-in maps against the earlier rules ------------------------------------------


def _psi(inst):
    """A normalized arity-1 cochain with non-dyadic values; zero on a finite instance, where only 0 is certified."""
    if inst.kind is Kind.FINITE:
        return hd.zero_cochain(inst, 1)
    return hd.Cochain(inst, 1, lambda ks: 0j if ks[0] == inst.unit else complex(0.1 * (len(repr(ks)) % 5), -0.3),
                      name="psi")


def _map_pairs(inst, L, sampler):
    """Pairs of a built-in map and the earlier rule's map."""
    psi = _psi(inst)
    # no generator validation: the rows, not the laws, are compared, also on the
    # instances that are no bialgebras and at thresholds that break the laws
    D = hd.Deformation(inst, L, None, sampler)
    sig = D._sigma = _sigma_cochains(D)[0]  # σ without its flip check, which those instances may fail
    T = make_trivial_deformation(D, psi, check=False)
    ident, anti, mu2 = ref_identity(inst), ref_antipode(inst), ref_mu_n(inst, 2)
    pairs = [
        (identity_map(inst), ident),
        (antipode_map(inst), anti),
        (mu_n_map(inst, 2), mu2),
        (mu_n_map(inst, 3), ref_mu_n(inst, 3)),
        (map_conv_functional(identity_map(inst), psi), ref_scalar_convolution(ident, psi, 1)),
        (map_conv_functional(mu_n_map(inst, 2), L), ref_scalar_convolution(mu2, L, 1)),
        (functional_conv_map(psi, antipode_map(inst)), ref_scalar_convolution(anti, psi, 0)),
    ]
    for t in DEFAULT_T_GRID:
        mu_t = ref_map_conv_exp(mu2, L, t)
        pairs += [
            (deformed_mul_map(D, t), mu_t),
            (deformed_antipode(D, t), ref_map_conv_exp(anti, sig, -t)),
            (phi_map(T, t), ref_map_conv_exp(ident, psi, t)),
        ]
    return pairs


def test_every_built_in_map_keeps_the_rows_of_the_element_rule(case):
    inst, L, sampler = case
    pairs = _map_pairs(inst, L, sampler)
    tuples = {rank: _tuples(inst, sampler, rank, 12) for rank in (1, 2, 3)}
    for A, R in pairs:
        for u in tuples[A.rank]:
            got, want = A._row(u), R._row(u)
            assert len(got) == len(want)
            _same(dict(got), dict(want))


# -- the Hopf suite's table loops ----------------------------------------------------------


@pytest.fixture(scope="module", params=["oscillator", "z2", "h4"])
def deformation(request):
    inst, L = CASES[request.param]()
    sampler = _sampler(inst, seed=59, budget=30)
    return inst, hd.make_deformation(inst, L, sampler), sampler


def test_the_flipped_antipode_square_matches_the_slot_maps(deformation):
    inst, D, sampler = deformation
    for t, r in ((-1.0, 0.5), (0.25, 0.25), (0.0, -0.75)):
        for _ in range(8):
            a = sampler.element()
            _same(TensorElement(inst, 2, _flipped_antipodes(D, t, r, a)).terms,
                  ref_flipped_antipodes(D, t, r, a).terms)


def test_the_sigma_sides_match_the_linear_sums(deformation):
    inst, D, sampler = deformation
    sig = D.sigma()
    dense = _dense(inst, 1)
    for _ in range(12):
        a = sampler.element()
        for f in (sig, dense):
            got_lhs, got_rhs = _sigma_sides(f, a)
            want_lhs, want_rhs = ref_sigma_sides(f, a)
            _same(Element(inst, got_lhs).terms, want_lhs)
            _same(Element(inst, got_rhs).terms, want_rhs)


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
        ref_check_structure(inst, _FixedSampler(elements, keys))
    assert str(got.value) == str(want.value)


def test_prune_eps_is_read_when_a_map_runs():
    inst, _ = _z2()
    a = inst.element({(1, 0): 0.5, (0, 1): 2.0})
    assert list(hd.comul(a).terms) == [((1, 0), (1, 0)), ((0, 1), (0, 1))]
    inst.prune_eps = 1.0
    try:
        _same(hd.comul(a).terms, ref_comul(a).terms)
        assert list(hd.comul(a).terms) == [((0, 1), (0, 1))]
        v = tensor_apply(hd.comul(a), (inst.antipode_terms, None))
        _same(tensor_mul_all(v).terms, ref_mul_all(v))
        assert tensor_mul_all(v).terms == {inst.unit: 2.0}
    finally:
        inst.prune_eps = EPS_PRUNE
