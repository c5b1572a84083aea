"""A plain reference model of the structure maps, which the kernel tests compare the package with.

Elements are dicts from basis key to coefficient, and a tensor's keys are
basis tuples.  A :class:`Model` reads an instance's basis rules through each
memo's ``compute``, never through the memo tables, and cleans each result
with :func:`clean`, which copies.  Its sums keep the summation contract of
:mod:`hopfdeform.core`: a key's terms are added left to right in loop order,
its first term is stored as is, a scalar sum starts from ``0j``, and each
product keeps the grouping written where it is formed.  A kernel that keeps
the contract gives the model's keys in the model's dict order, with every
coefficient equal by ``repr``.

A :class:`RefMap` fills its row on a basis tuple as a ``LinMap`` table does:
the rule's ``(key, coeff)`` pairs are copied, then checked and pruned at the
threshold read at fill time, so a rule may return a dict that something else
still holds.  The package's own rules hand their fresh dict over to be
cleaned in place instead; that is the same row, since nothing else holds the
dict.  Cochains are wrapped in the package's ``Cochain`` only for its value
memo.
"""
import cmath
import functools
import itertools
import math

import hopfdeform as hd
from hopfdeform.core import Kind, NonFiniteError
from hopfdeform.report import Law, Report, run_laws

ONE = 1.0 + 0j


def clean(terms, prune):
    """A checked, pruned copy of ``terms``: complex values, none of modulus below ``prune``."""
    out = {}
    for key, raw in terms.items():
        z = raw if raw.__class__ is complex else complex(raw)
        try:
            size = abs(z)
        except OverflowError:
            size = math.inf
        if not size < math.inf:
            raise NonFiniteError(f"non-finite coefficient {raw!r} at basis key {key!r}")
        if size >= prune:
            out[key] = z
    return out


def linear(items, rule=None, start=None):
    """Σ c·rule(k) over ``(k, c)`` items, ``c * w`` per ``(key, w)``; with no rule each item is a term."""
    acc = {} if start is None else dict(start)
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


def bilinear(a, b, rule):
    """Σ (ca·cb)·rule(ka, kb) over two term lists."""
    return linear((((ka, kb), ca * cb) for ka, ca in a for kb, cb in b), lambda pair: rule(*pair))


def slot_products(items):
    """The terms ``(keys, c·w₁·…·wₙ)`` of Σ c·(⊗ᵢ partᵢ) over ``(parts, c)`` items, multiplied left to right."""
    for parts, c in items:
        for combo in itertools.product(*parts):
            w = c
            for _, v in combo:
                w *= v
            yield tuple(k for k, _ in combo), w


def eval_mixed(f, args):
    """f with each slot a basis key or, as a dict, an element; a weight of 0 is skipped, the sum starts from 0j."""
    total = 0j
    for keys, w in slot_products([([tuple(a.items()) if isinstance(a, dict) else ((a, ONE),) for a in args], ONE)]):
        if w != 0:
            total += w * f.value(keys)
    return total


class Model:
    """The structure maps of one instance on plain dicts, at the threshold the instance holds when each runs."""

    def __init__(self, inst):
        self.inst = inst
        # each rule's value, kept per key by the model: it does not depend on the threshold
        self.mul_row = functools.cache(lambda ka, kb: inst._mul_cache.compute((ka, kb)))
        self.comul_row = functools.cache(inst._comul_pairs.compute)
        self.counit_of = functools.cache(inst._counit_cache.compute)
        self.antipode_row = functools.cache(inst._antipode_cache.compute)
        self.star_row = functools.cache(inst._star_cache.compute)
        self._legs, self._powers = {}, {}  # Λ per basis tuple, and f^{⋆k}(u) per (f, k, u)

    def clean(self, terms):
        return clean(terms, self.inst.prune_eps)

    # -- elements

    def mul(self, a, b):
        return self.clean(bilinear(a.items(), b.items(), self.mul_row))

    def comul(self, a):
        return self.clean(linear(a.items(), self.comul_row))

    def counit(self, a):
        total = 0j
        for k, c in a.items():
            total += c * self.counit_of(k)
        return total

    def tuple_counit(self, keys):
        c = ONE
        for k in keys:
            c *= self.counit_of(k)
        return c

    def antipode(self, a):
        return self.clean(linear(a.items(), self.antipode_row))

    def star(self, a):
        return self.clean(linear(((k, c.conjugate()) for k, c in a.items()), self.star_row))

    def scale(self, c, a):
        return self.clean({k: c * v for k, v in a.items()})

    def add(self, a, b):
        return self.clean(linear(b.items(), None, a))

    def distance(self, a, b):
        """‖a − b‖∞, the difference summed as a + (−b) and cleaned."""
        return max(map(abs, self.add(a, {k: -c for k, c in b.items()}).values()), default=0.0)

    def key_product(self, keys):
        """The product of the basis elements 1·k, left to right, one element per step."""
        acc = self.clean({keys[0]: 1.0})
        for k in keys[1:]:
            acc = self.mul(acc, self.clean({k: 1.0}))
        return acc

    # -- tensors

    def flip(self, u):
        return self.clean({(b, a): c for (a, b), c in u.items()})

    def expand(self, u, slot):
        """One slot replaced by its coproduct; each term is c·w."""
        return self.clean(linear((keys[:slot] + pair + keys[slot + 1 :], c * w)
                                 for keys, c in u.items() for pair, w in self.comul_row(keys[slot])))

    def contract(self, u, slot):
        """The counit on one slot of a tensor of rank ≥ 2, each term c·δ(k); rank 2 gives an element."""
        terms = linear((keys[:slot] + keys[slot + 1 :], c * self.counit_of(keys[slot])) for keys, c in u.items())
        return self.clean({k[0] if len(k) == 1 else k: c for k, c in terms.items()})

    def tensor_mul(self, u, v):
        return self.clean(linear(slot_products(([self.mul_row(a, b) for a, b in zip(ku, kv)], cu * cv)
                                               for ku, cu in u.items() for kv, cv in v.items())))

    def tensor_apply(self, u, maps):
        """Per-slot basis maps, ``None`` leaving a slot as it is."""
        return self.clean(linear(slot_products(
            ([((k, ONE),) if f is None else tuple(f(k)) for k, f in zip(keys, maps)], c) for keys, c in u.items())))

    def mul_all(self, u):
        return self.clean(linear(u.items(), lambda pair: self.key_product(pair).items()))

    def tuple_comul(self, keys):
        """Λ on a basis tuple as ``(left, right, c)`` legs, by slot products of the coproducts."""
        if keys not in self._legs:
            self._legs[keys] = [(tuple(a for a, _ in pairs), tuple(b for _, b in pairs), c)
                                for pairs, c in slot_products([([self.comul_row(k) for k in keys], ONE)])]
        return self._legs[keys]

    # -- cochains

    def row(self, pairs):
        """The element ``dict(pairs)``: the last duplicate key wins, then it is cleaned."""
        return self.clean(dict(pairs))

    def coboundary(self, f):
        n = f.arity

        def rule(keys):
            total = self.tuple_counit(keys[:1]) * eval_mixed(f, keys[1:])
            sign = 1.0
            for i in range(1, n + 1):
                sign = -sign
                merged = self.row(self.mul_row(keys[i - 1], keys[i]))
                total += sign * eval_mixed(f, keys[: i - 1] + (merged,) + keys[i + 1 :])
            total += -sign * eval_mixed(f, keys[:n]) * self.counit_of(keys[n])
            return total

        return hd.Cochain(self.inst, n + 1, rule)

    def hermitian_conjugate(self, f):
        return hd.Cochain(self.inst, f.arity, lambda keys: eval_mixed(
            f, [self.row(self.star_row(k)) for k in reversed(keys)]).conjugate())

    def compose_antipode_flip(self, f):
        return hd.Cochain(self.inst, 2, lambda keys: eval_mixed(
            f, [self.row(self.antipode_row(k)) for k in reversed(keys)]))

    def sigma(self, L, s_slot=1):
        """σ = L∘(id⊗S)∘Δ, or with ``s_slot`` 0 its flipped form L∘(S⊗id)∘Δ."""
        def rule(keys):
            total = 0j
            for pair, c in self.comul_row(keys[0]):
                args = [self.row(self.antipode_row(k)) if i == s_slot else k for i, k in enumerate(pair)]
                total += c * eval_mixed(L, args)
            return total

        return hd.Cochain(self.inst, 1, rule)

    def conv_power(self, f, k, keys):
        """f^{⋆k}(u) = Σ (c·f(u₍₁₎))·f^{⋆(k−1)}(u₍₂₎) over the legs where f(u₍₁₎) ≠ 0; f^{⋆0} is the counit."""
        if k < 2:
            return f.value(keys) if k else self.tuple_counit(keys)
        if (f, k, keys) not in self._powers:
            total = 0j
            for left, right, c in self.tuple_comul(keys):
                if (v := f.value(left)) != 0:
                    total += c * v * self.conv_power(f, k - 1, right)
            self._powers[f, k, keys] = total
        return self._powers[f, k, keys]

    def nonzero_legs(self, f, keys):
        """The legs of Λ(u) where f(u₍₁₎) ≠ 0, as ``(right, c·f(left))``."""
        return [(right, c * v) for left, right, c in self.tuple_comul(keys) if (v := f.value(left)) != 0]

    def exp_coeffs(self, f, keys):
        """f^{⋆k}(u)/k! for k ≤ deg(u) on a graded connected instance, else for k = 0 only."""
        top = sum(map(self.inst.degree_key, keys)) if self.inst.kind is Kind.GRADED_CONNECTED else 0
        return [self.conv_power(f, k, keys) / math.factorial(k) for k in range(top + 1)]

    def conv_exp(self, f, t, keys):
        """e_⋆^{tf}(u): exp(t·f(u)) on a grouplike basis, else Horner's rule on its Taylor coefficients."""
        if self.inst.kind is Kind.GROUPLIKE_BASIS:
            return cmath.exp(t * f.value(keys))
        total = 0j
        for c in reversed(self.exp_coeffs(f, keys)):
            total = total * t + c
        return total

    def exp_legs(self, A, f, keys):
        """``(c, right, A(left))`` over the legs of Λ(u) where e_⋆^{tf}(right) is nonzero for some t."""
        grouplike = self.inst.kind is Kind.GROUPLIKE_BASIS
        return [(c, right, A.row(left)) for left, right, c in self.tuple_comul(keys)
                if grouplike or any(self.exp_coeffs(f, right))]

    # -- maps into the algebra

    def identity_map(self):
        return RefMap(self, 1, lambda ks: {ks[0]: 1.0})

    def antipode_map(self):
        return RefMap(self, 1, lambda ks: self.antipode_row(ks[0]))

    def mu_n_map(self, n):
        return RefMap(self, n, self.key_product)

    def scalar_convolution(self, A, f, f_leg):
        """A ⋆ f (``f_leg`` 1) or f ⋆ A (``f_leg`` 0): Σ (c·f(leg))·A(other leg) over the legs where f(leg) ≠ 0."""
        return RefMap(self, A.rank, lambda keys: linear(
            ((A.row(legs[1 - f_leg]), legs[2] * v) for legs in self.tuple_comul(keys)
             if (v := f.value(legs[f_leg])) != 0), iter))

    def map_conv_exp(self, A, f, t):
        """A ⋆ e_⋆^{tf}: Σ (c·e_⋆^{tf}(u₍₂₎))·A(u₍₁₎) over the legs where the exponential is nonzero."""
        return RefMap(self, A.rank, lambda keys: linear(
            ((A.row(left), c * v) for left, right, c in self.tuple_comul(keys)
             if (v := self.conv_exp(f, t, right)) != 0), iter))

    def deformed_mul(self, L, t):
        """μ_t = μ ⋆ e_⋆^{tL}."""
        return self.map_conv_exp(self.mu_n_map(2), L, t)

    def deformed_antipode(self, L, t):
        """S_t = S ⋆ e_⋆^{−tσ}."""
        return self.map_conv_exp(self.antipode_map(), self.sigma(L), -t)

    # -- the element chains of the deformation laws

    def mul_square(self, mu_t, mu_s, a, b):
        """(μ_t⊗μ_s)∘Λ(a⊗b); each term is (((ca·cb)·c)·w₁)·w₂."""
        return self.clean(linear(
            ((k1, k2), ca * cb * c * w1 * w2) for ka, ca in a.items() for kb, cb in b.items()
            for left, right, c in self.tuple_comul((ka, kb))
            for k1, w1 in mu_t.row(left) for k2, w2 in mu_s.row(right)))

    def antipode_sides(self, mu_t, s_t, a):
        """μ_t∘(S_t⊗id)∘Δ(a) and μ_t∘(id⊗S_t)∘Δ(a) leg by leg: S_t(e), μ_t(·⊗·), c·(·) and side + (·) on elements."""
        lhs, rhs = {}, {}
        for (k1, k2), c in self.comul(a).items():
            e1, e2 = self.clean({k1: 1.0}), self.clean({k2: 1.0})
            lhs = self.add(lhs, self.scale(c, mu_t.on_pair(s_t(e1), e2)))
            rhs = self.add(rhs, self.scale(c, mu_t.on_pair(e1, s_t(e2))))
        return lhs, rhs

    def flipped_antipodes(self, s_t, s_r, a):
        """(S_t⊗S_r)∘τ∘Δ(a)."""
        return self.tensor_apply(self.flip(self.comul(a)), (lambda k: s_t.row((k,)), lambda k: s_r.row((k,))))

    def sigma_sides(self, sig, a):
        """(σ⊗id)∘Δ(a) and (id⊗σ)∘Δ(a)."""
        legs = self.comul(a).items()
        return (self.clean(linear(legs, lambda ks: ((ks[1], sig.value(ks[:1])),))),
                self.clean(linear(legs, lambda ks: ((ks[0], sig.value(ks[1:])),))))

    # -- the structure suite

    def check_structure(self, sampler, tol=1e-8):
        """The structure suite's report, each law computing again the a·b and Δ(a) it reads."""
        inst, mul, comul, dist = self.inst, self.mul, self.comul, self.distance
        triples = [tuple(sampler.element().terms for _ in range(3)) for _ in range(sampler.budget)]
        if inst.kind is Kind.GROUPLIKE_BASIS:
            keys = [sampler.key() for _ in range(sampler.budget)]
        elif inst.kind is Kind.GRADED_CONNECTED:
            keys = [(sampler.key(), sampler.key()) for _ in range(sampler.budget)]
        one = self.clean({inst.unit: 1.0})

        def on_triples(law_id, statement, residual, tolerance=tol):
            return Law(law_id, statement, lambda abc: residual(*abc), tolerance, cases=triples)

        def grading(pair):
            deg = inst.degree_key
            d1, d2 = deg(pair[0]), deg(pair[1])
            graded = all(deg(k) == d1 + d2 for k, _ in self.mul_row(*pair)) and all(
                deg(a) + deg(b) == d1 for (a, b), _ in self.comul_row(pair[0]))
            return 0.0 if graded else 1.0, 0.0 if deg(inst.unit) == 0 else 1.0

        def antipode_law(a, *_):
            u, target, maps = comul(a), self.scale(self.counit(a), one), (self.antipode_row, None)
            return (dist(self.mul_all(self.tensor_apply(u, maps)), target),
                    dist(self.mul_all(self.tensor_apply(u, maps[::-1])), target))

        laws = [
            on_triples("associativity", "(a*b)*c = a*(b*c)",
                       lambda a, b, c: dist(mul(mul(a, b), c), mul(a, mul(b, c)))),
            on_triples("unit", "1*a = a = a*1", lambda a, *_: (dist(mul(one, a), a), dist(mul(a, one), a)), 1e-12),
            on_triples("coassociativity", "(Delta(x)id)Delta = (id(x)Delta)Delta",
                       lambda a, *_: dist(self.expand(comul(a), 0), self.expand(comul(a), 1))),
            on_triples("counit", "(delta(x)id)Delta = id = (id(x)delta)Delta",
                       lambda a, *_: (dist(self.contract(comul(a), 0), a), dist(self.contract(comul(a), 1), a)), 1e-12),
            on_triples("comul_homomorphism", "Delta(ab) = Delta(a)Delta(b)",
                       lambda a, b, _: dist(comul(mul(a, b)), self.tensor_mul(comul(a), comul(b)))),
            on_triples("counit_homomorphism", "delta(ab) = delta(a)delta(b)",
                       lambda a, b, _: abs(self.counit(mul(a, b)) - self.counit(a) * self.counit(b))),
        ]
        if inst.kind is Kind.GROUPLIKE_BASIS:
            laws.append(Law("grouplike_basis", "Delta(b) = b(x)b and delta(b) = 1 on basis keys",
                            lambda k: (0.0 if self.comul_row(k) == (((k, k), ONE),) else 1.0,
                                       abs(self.counit_of(k) - 1.0)), 0.0, cases=keys))
        if inst.kind is Kind.GRADED_CONNECTED:
            laws.append(Law("grading", "deg(1) = 0; the product adds degrees; the coproduct preserves them",
                            grading, 0.0, cases=keys))
        if inst.cocommutative:
            laws.append(on_triples("cocommutativity", "tau∘Delta = Delta",
                                   lambda a, *_: dist(self.flip(comul(a)), comul(a)), 1e-12))
        if inst.has_antipode:
            laws.append(on_triples("antipode", "mul(S(x)id)Delta = delta*1 = mul(id(x)S)Delta", antipode_law))
            laws.append(Law("antipode_unit", "S(1) = 1", lambda _: dist(self.antipode(one), one), 1e-12))
        if inst.has_star:
            laws.append(on_triples("star_involutive", "(a*)* = a",
                                   lambda a, *_: dist(self.star(self.star(a)), a), 1e-12))
            laws.append(on_triples("star_antihomomorphism", "(ab)* = b* a*",
                                   lambda a, b, _: dist(self.star(mul(a, b)), mul(self.star(b), self.star(a)))))
        report = Report(name=f"structure:{inst.name}")
        run_laws(report, sampler, laws)
        return report


class RefMap:
    """A linear map into the algebra by its rows per basis tuple, each filled from the rule's pairs."""

    def __init__(self, model, rank, rule):
        self.model, self.rank, self._rule, self._rows = model, rank, rule, {}

    def row(self, keys):
        keys = tuple(keys)
        if keys not in self._rows:
            self._rows[keys] = tuple(self.model.row(self._rule(keys)).items())
        return self._rows[keys]

    def __call__(self, terms):
        """Σ c·A(k) over an element's terms (rank 1, bare keys) or a tensor's."""
        return self.model.clean(linear(terms.items(), (lambda k: self.row((k,))) if self.rank == 1 else self.row))

    def on_pair(self, a, b):
        return self.model.clean(bilinear(a.items(), b.items(), lambda ka, kb: self.row((ka, kb))))


# -- the built-in cocycle rules, from their definitions


def zd_matrix_value(matrix, keys):
    """L(k, l) = Σⱼ (Σᵢ kᵢ·Aᵢⱼ)·lⱼ, each sum in index order from 0j."""
    k, l = keys
    total = 0j
    for j in range(len(l)):
        r = 0j
        for i in range(len(k)):
            r += k[i] * complex(matrix[i][j])
        total += r * l[j]
    return total


def z_polynomial_value(coeffs, keys):
    """L(m, n) = Σ (c·mᵖ)·n^q over the ``(p, q, c)`` terms in their order, from 0j."""
    (m,), (n,) = keys
    total = 0j
    for p, q, c in coeffs:
        total += complex(c) * m**p * n**q
    return total


# -- the test instances


def oscillator():
    inst = hd.symmetric_star_algebra(("x", "xstar"), involution={"x": "xstar", "xstar": "x"})
    return inst, hd.oscillator_cocycle(inst)


def z2():
    inst = hd.group_algebra_zd(2)
    return inst, hd.make_zd_matrix_cocycle(inst, [[0.3, 0.7], [-0.1, 0.2]])


def h4():
    inst = hd.sweedler_h4()
    return inst, hd.zero_cochain(inst, 2)


def skewed():
    # the oscillator's rules with non-dyadic structure constants, so that a
    # change of product grouping shows in the last bit; not a bialgebra
    base, L = oscillator()
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


# a key that only zero entries of signed_zeros' rows reach
FAR = (9, 9)


def signed_zeros():
    # Z² with rules whose coefficients carry -0.0 parts, a repeated key in a
    # product row, whose last entry wins in an element, and zero entries,
    # which only a threshold of 0 keeps; not a bialgebra
    base = hd.group_algebra_zd(2)
    minus_i = complex(-0.0, -1.0)

    def mul_basis(k1, k2):
        (k, c), = base.mul_terms(k1, k2)
        return [(k, complex(-0.0, 0.5)), (base.unit, complex(0.25, -0.0)), (k, c * minus_i), (FAR, 0j)]

    inst = hd.BialgebraInstance(
        "signed_zeros", hd.Kind.GROUPLIKE_BASIS, base.unit,
        mul_basis=mul_basis,
        comul_basis=lambda k: [(k, k, complex(1.0, -0.0))],
        counit_basis=lambda k: complex(1.0, -0.0),
        antipode_basis=lambda k: [(kk, c * minus_i) for kk, c in base.antipode_terms(k)] + [(FAR, 0j)],
        star_basis=lambda k: [(FAR, -0j)] + [(kk, complex(-0.0, 1.0)) for kk, _ in base.star_terms(k)],
    )
    return inst, hd.make_zd_matrix_cocycle(inst, [[0.3, -0.0], [-0.1, 0.2]])


CASES = {"oscillator": oscillator, "z2": z2, "h4": h4, "skewed": skewed, "signed_zeros": signed_zeros}
# the threshold each instance is given after construction, as config.build_instance sets it
PRUNES = {"default": None, "zero": 0.0, "coarse": 0.45, "above_one": 1.5}


def same(got, want):
    """The same keys in the same order, and every coefficient equal by ``repr``."""
    assert list(got) == list(want)
    assert [repr(c) for c in got.values()] == [repr(c) for c in want.values()]
