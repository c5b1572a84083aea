"""Convolution calculus: functionals, the star product, and its exponentials.

For maps R, S from a coalgebra into an algebra the convolution is
``R ⋆ S = m∘(R⊗S)∘Δ``.  Scalar-valued functionals on the n-th tensor
power convolve through the tensor-power coproduct (for n = 2 this is the
coproduct Λ of the tensor-square bialgebra); the counit is the ⋆-unit.

Termination of the convolution exponential ``e_⋆^{tf}`` is certified per
instance kind rather than analytically.  This is the central engineering
decision of the whole package.  A certified exponential has one of two
forms:

* the closed form, on ``GROUPLIKE_BASIS`` instances: every basis tuple u
  is grouplike for the tensor-power coproduct, so ``f^{⋆k}(u) = f(u)^k``
  and the exponential collapses to the scalar ``exp(t·f(u))``;
* a polynomial in t everywhere else, whose Taylor coefficients
  ``f^{⋆k}(u)/k!`` are cached per tuple.  On ``GRADED_CONNECTED``
  instances a normalized functional vanishes on the unique degree-0 basis
  tuple, so ``f^{⋆k}(u) = 0`` exactly for k above the total degree of u.
  Each tuple's series stops sooner, at the highest power its support mask
  (:func:`_support_mask`) lets be nonzero: bit 1 is set when f(u) ≠ 0, and
  bit k+1 when bit k is set on the right tuple of one of f's nonzero legs
  of u.  A power whose bit is clear is exactly ``0j``, and dropping
  trailing ``0j`` coefficients changes no bit of Horner's rule, so every
  value is the one the full series up to the degree gives; the reference
  model of the tests keeps that full series as the oracle.  On ``FINITE``
  instances only the zero functional is certified, and its exponential is
  the counit, the polynomial of degree 0.  Anything else is refused.

Both forms are defined for every real t, so negative deformation
parameters need no special treatment anywhere downstream.

A :class:`LinMap` (μ_t, S_t, Φ_t and the other maps into the algebra)
keeps its rule's value on each basis tuple as a row of its table, in the
row format of :mod:`hopfdeform.core`.  Like a basis rule, its rule returns
the value's ``(key, coeff)`` pairs, as a row or a mapping, never an element.
Applied to an element or a tensor it is one ``_linear`` over that table, and
on a pair one ``_bilinear``; the maps built here and the deformation laws
read the rows directly.  A row is filled in one of two ways:

* a ``LinMap`` built by a user (and the identity and antipode maps) copies
  its rule's pairs, then checks and prunes the copy;
* the package's own rules, μⁿ, the scalar convolutions and the maps of
  :func:`map_conv_exp`, return a fresh terms dict that nothing else holds,
  and ``LinMap._owned`` has the table check and prune that dict in place,
  so each row is cleaned once and never copied (μ²'s pair row comes from
  ``core._key_product_terms``, which leaves its last clean to the table).

Both check and prune at the threshold read at fill time and give the same
row.  Together with the Λ filter below and the loop-form cocycle rules of
:mod:`hopfdeform.instances`, this one-pass fill took cold-sweep ``wall_s``
from 1.080 to 0.987 s (−8.7%; medians of ten alternating pairs of 30-s
perfbench runs, the fill lower in all ten).

t enters a map ``A ⋆ e_⋆^{tf}`` only through the scalar exponential, so
:func:`map_conv_exp` expands each basis tuple once and shares that
expansion among the maps for every t, each of which is still memoized.
Expanding again for every t, as :func:`_scalar_convolution` over
``conv_exp`` at t would, costs oscillator-full ``wall_s`` +18% (perfbench).
Each map sums its row over that expansion in a hand-written loop, the
kernels' store pattern with ``(c·e)·w`` per term (``tests/test_sum_loops.py``
holds its measured reason).  Likewise each :class:`Cochain` keeps, per
tuple, the legs of the coproduct on which it is nonzero, and its
convolution powers, Taylor coefficients and support masks in three plain
tables, filled from those legs by the recursion
``f^{⋆j}(u) = Σ (c·f(u₍₁₎))·f^{⋆(j−1)}(u₍₂₎)``.  In the oscillator-full
seed-1 batch the masks cut the ``conv_power`` calls from 18,385 to 2,187,
and in an oscillator ``deform`` at budget 200 the stored powers from 7,390
to 12.

The expansion, the nonzero legs and the scalar convolutions walk Λ through
one filter-first walk, :func:`_legs_where`, which tests each leg on the
basis tuple it reads before it builds the other tuple and the coefficient
``((1+0j)·c₁)·c₂``.  Most legs fail that test: in the seed-1 batches the
nonzero legs kept 1,130 of 57,423 legs on oscillator-full and 10,741 of
87,421 on cold-sweep, the expansions 3,238 of 52,317 and 19,941 of 46,945.
:func:`tuple_comul_terms` is the same walk with no test, so Λ is written
out once.
"""
from __future__ import annotations

import cmath
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import partial

from .core import (
    AlgebraError,
    BialgebraInstance,
    CapabilityMissingError,
    Element,
    InstanceMismatchError,
    Kind,
    Memo,
    NonFiniteError,
    TensorElement,
    _ONE,
    _bilinear,
    _clean_terms,
    _element,
    _first,
    _key_product_terms,
    _linear,
    _row_items,
    _same_instance,
    _scalar,
    _second,
    _slot_products,
)


class NormalizationError(AlgebraError):
    """A degree-truncated exponential needs a normalized functional."""


def tuple_comul_terms(instance: BialgebraInstance, keys: tuple) -> tuple:
    """Coproduct expansion of a basis tuple in the rank-n tensor power.

    Returns ``(left_tuple, right_tuple, coeff)`` triples; for n = 1 this
    is the plain coproduct, for n = 2 the Λ expansion Δ(k₁)⊗Δ(k₂) with the
    middle legs swapped.  The triples are read from the instance's coproduct
    rows on each call and kept nowhere; each coefficient is
    ``(1+0j)·c₁·…·cₙ``, multiplied left to right.
    """
    return tuple(_legs_where(instance, keys))


def _legs_where(instance: BialgebraInstance, keys: tuple, keep=None, side: int = 0):
    """The legs of :func:`tuple_comul_terms` in its order, those whose leg on ``side`` ``keep`` accepts.

    ``keep`` is called on each leg's left tuple (``side`` 0) or right tuple
    (``side`` 1) and the leg is kept when the result is true; with no
    ``keep`` every leg is.  On a pair the other tuple and the coefficient
    ``((1+0j)·c₁)·c₂`` are built only for the legs kept.
    """
    rows = instance._comul_pairs
    if len(keys) == 2:
        first, second = rows[keys[0]], rows[keys[1]]
        for (a1, b1), c1 in first:
            for (a2, b2), c2 in second:
                if keep is None or keep((b1, b2) if side else (a1, a2)):
                    yield (a1, a2), (b1, b2), _ONE * c1 * c2
        return
    for pairs, c in _slot_products([([rows[k] for k in keys], _ONE)]):
        left, right = tuple(map(_first, pairs)), tuple(map(_second, pairs))
        if keep is None or keep(right if side else left):
            yield left, right, c


def tuple_counit(instance: BialgebraInstance, keys: tuple) -> complex:
    table = instance._counit_cache
    c = 1.0 + 0j
    for k in keys:
        c *= table[k]
    return c


def tuple_degree(instance: BialgebraInstance, keys: tuple) -> int:
    return sum(instance.degree_key(k) for k in keys)


class Cochain:
    """Scalar-valued multilinear functional given by a rule on basis tuples.

    Arity 0 is a single scalar (the empty tuple).  Values are memoized per
    basis tuple; rules must be pure.  Per tuple it also keeps the nonzero
    legs of the coproduct, the convolution powers f^{⋆2}, f^{⋆3}, … and the
    Taylor coefficients of the exponential, which is certified once, and
    under a degree-truncated certificate the support mask of its powers.
    """

    __slots__ = ("instance", "arity", "name", "_cache", "_legs", "_powers", "_coeffs", "_masks", "_plan")

    def __init__(self, instance, arity: int, rule, name: str = "f"):
        if arity < 0:
            raise AlgebraError("cochain arity must be >= 0")
        self.instance = instance
        self.arity = arity
        self.name = name

        def evaluate(keys):
            try:
                return complex(rule(keys))
            except OverflowError as exc:  # an integer coordinate or power too large for a float
                raise NonFiniteError(f"non-finite value of {name} on {keys!r}: {exc}") from exc

        values = self._cache = Memo(evaluate)
        self._legs = Memo(lambda keys: _nonzero_legs(instance, values, keys))
        # plain tables, which refer back to no cochain: f^{⋆k}(u) at [k][u], Taylor coefficients at [u],
        # and, once a degree-truncated plan is certified, the support masks of :func:`_support_mask` at [u]
        self._powers: defaultdict = defaultdict(dict)
        self._coeffs: dict = {}
        self._masks: dict | None = None
        self._plan: ConvExpPlan | None = None

    def value(self, keys: tuple) -> complex:
        return self._cache[tuple(keys)]

    def eval_mixed(self, args) -> complex:
        """Evaluate with each slot either a basis key or an :class:`Element` of this cochain's instance."""
        slots = []
        for a in args:
            if isinstance(a, Element):
                _same_instance(self, a)
                slots.append(a.terms.items())
            else:
                slots.append(((a, _ONE),))
        return _slot_sum(self.value, slots)

    def __call__(self, *args) -> complex:
        """Flexible evaluation: basis keys, Elements, or one TensorElement."""
        if len(args) == 1 and isinstance(u := args[0], TensorElement):
            if u.rank != self.arity:
                raise InstanceMismatchError(f"cochain arity {self.arity} vs tensor rank {u.rank}")
            _same_instance(self, u)
            return _scalar(u.terms.items(), self.value)
        if len(args) != self.arity:
            raise AlgebraError(f"cochain of arity {self.arity} got {len(args)} arguments")
        return self.eval_mixed(args)

    @property
    def is_normalized(self) -> bool:
        return self.value((self.instance.unit,) * self.arity) == 0

    def __repr__(self):
        return f"Cochain({self.name!r}, arity={self.arity}, on {self.instance.name!r})"


def _slot_sum(value, slots) -> complex:
    """Σ w·value(k₁,…,kₙ) over every choice of one ``(kᵢ, wᵢ)`` pair from each slot.

    The slot loop of :meth:`Cochain.eval_mixed`: a basis key is the slot
    ``((k, 1+0j),)`` and an element its terms.  Each weight is
    ``(1+0j)·w₁·…·wₙ``, multiplied left to right; a choice whose weight is 0
    is skipped, and the sum starts from ``0j``.
    """
    total = 0j
    for combo in itertools.product(*slots):
        w = _ONE
        for _, v in combo:
            w *= v
        if w != 0:
            total += w * value(tuple(map(_first, combo)))
    return total


def cochain_add(f: Cochain, g: Cochain, name=None) -> Cochain:
    _check_pair(f, g)
    return Cochain(f.instance, f.arity, lambda ks: f.value(ks) + g.value(ks),
                   name or f"({f.name}+{g.name})")


def cochain_sub(f: Cochain, g: Cochain, name=None) -> Cochain:
    _check_pair(f, g)
    return Cochain(f.instance, f.arity, lambda ks: f.value(ks) - g.value(ks),
                   name or f"({f.name}-{g.name})")


def cochain_scale(c, f: Cochain, name=None) -> Cochain:
    c = complex(c)
    return Cochain(f.instance, f.arity, lambda ks: c * f.value(ks), name or f"({c}*{f.name})")


def counit_cochain(instance: BialgebraInstance, arity: int) -> Cochain:
    return Cochain(instance, arity, lambda ks: tuple_counit(instance, ks), name="delta^" + str(arity))


def zero_cochain(instance: BialgebraInstance, arity: int) -> Cochain:
    return Cochain(instance, arity, lambda ks: 0j, name="0")


def _check_pair(f: Cochain, g: Cochain) -> None:
    _same_instance(f, g)
    if f.arity != g.arity:
        raise InstanceMismatchError(f"mixed cochain arities {f.arity} and {g.arity}")


def _nonzero_legs(instance: BialgebraInstance, values: Memo, keys: tuple) -> tuple:
    """The legs of Δ(u) on which f(u₍₁₎) ≠ 0, as ``(right, c·f(left))`` items for ``_scalar``."""
    return tuple((right, c * values[left]) for left, right, c in _legs_where(instance, keys, values.__getitem__))


def convolve_functionals(f: Cochain, g: Cochain, name=None) -> Cochain:
    """(f ⋆ g)(u) = Σ (c·f(u₍₁₎))·g(u₍₂₎) over f's memoized nonzero legs of u."""
    _check_pair(f, g)
    return Cochain(f.instance, f.arity, lambda keys: _scalar(f._legs[keys], g.value),
                   name or f"({f.name}*{g.name})")


# -- convolution powers and exponentials --------------------------------------


@dataclass(frozen=True)
class ConvExpPlan:
    strategy: str  # closed_form_grouplike | degree_truncated | zero_functional


def plan_conv_exp(f: Cochain) -> ConvExpPlan:
    inst = f.instance
    if inst.kind is Kind.GROUPLIKE_BASIS:
        return ConvExpPlan("closed_form_grouplike")
    if inst.kind is Kind.GRADED_CONNECTED:
        if not f.is_normalized:
            raise NormalizationError(
                f"degree-truncated exponential needs a normalized functional, got {f.name!r}"
            )
        return ConvExpPlan("degree_truncated")
    keys = list(inst.basis_keys())
    if all(f.value(tup) == 0 for tup in itertools.product(keys, repeat=f.arity)):
        return ConvExpPlan("zero_functional")
    raise CapabilityMissingError(
        f"no termination certificate for exp of {f.name!r} on finite instance {inst.name!r}"
    )


def _closed_form(f: Cochain) -> bool:
    """Whether f's certified exponential is the closed form; plans f on first use."""
    if f._plan is None:
        f._plan = plan_conv_exp(f)
        if f._plan.strategy == "degree_truncated":
            f._masks = {}
    return f._plan.strategy == "closed_form_grouplike"


def _support_mask(f: Cochain, keys: tuple) -> int:
    """The support mask of f's powers on u: bit k is set when f^{⋆k}(u) can be nonzero.

    Bit 1 is set when f(u) ≠ 0, and bit k+1 when bit k is set on the right
    tuple of any of f's nonzero legs of u.  A leg whose weight ``c·f(left)``
    is not finite gives the full mask, -1: there a power with a clear bit
    would read inf·0 = NaN, not 0.  Only for a degree-truncated plan, where
    f is normalized, so each nonzero leg lowers the degree and the recursion
    ends; on a closed form or a finite plan the legs may cycle.
    """
    table = f._masks
    if keys in table:
        return table[keys]
    mask = 2 if f.value(keys) != 0 else 0
    for right, w in f._legs[keys]:
        if not cmath.isfinite(w):
            mask = -1
            break
        mask |= _support_mask(f, right) << 1
    table[keys] = mask
    return mask


def conv_power(f: Cochain, k: int, keys: tuple) -> complex:
    """k-th convolution power f^{⋆k} on a basis tuple (f^{⋆0} is the counit).

    For k ≥ 2 it reads f's table of f^{⋆k}, first filling the tuple's entry
    by f^{⋆k}(u) = Σ (c·f(u₍₁₎))·f^{⋆(k−1)}(u₍₂₎) over f's nonzero legs of u.
    Under a degree-truncated plan a power whose bit of :func:`_support_mask`
    is clear is ``0j`` at once and is not stored: summed in full it would be
    a ``0j``-started sum of finite weights times exact zeros, which is ``+0j``.
    """
    if k < 2:
        if k < 0:
            raise AlgebraError(f"no convolution power {k} of {f.name!r}")
        return f.value(keys) if k == 1 else tuple_counit(f.instance, keys)
    table = f._powers[k]
    keys = tuple(keys)
    if keys not in table:
        if f._masks is not None and not _support_mask(f, keys) >> k & 1:
            return 0j
        table[keys] = _scalar(f._legs[keys], f.value if k == 2 else partial(conv_power, f, k - 1))
    return table[keys]


def conv_exp_coeffs(f: Cochain, keys: tuple) -> tuple:
    """Taylor coefficients in t of e_⋆^{tf}(u), where its form is a polynomial.

    On a graded connected instance the tuple ends at the highest power that
    :func:`_support_mask` lets be nonzero, or at f(u), and never past
    deg(u), where the powers vanish by degree; a power below that end whose
    bit is clear is stored as ``0j``.  The powers left off are exact zeros,
    and in Horner's rule ``0j·t + 0j`` is ``0j``, so :func:`conv_exp` reads
    the same bits as from the full tuple of length deg(u)+1.  For the zero
    functional on a finite instance it is ``(δ(u),)``.  It refuses what
    :func:`conv_exp` refuses, and a grouplike closed form, which has no
    polynomial.
    """
    if _closed_form(f):
        raise CapabilityMissingError(f"exp of {f.name!r} on {f.instance.name!r} is a closed form, not a polynomial")
    keys = tuple(keys)
    if keys not in f._coeffs:
        top = 0
        if f._masks is not None:
            top = tuple_degree(f.instance, keys)
            if top > 1 and (mask := _support_mask(f, keys)) >= 0:
                top = min(top, max(1, mask.bit_length() - 1))
        f._coeffs[keys] = tuple(conv_power(f, k, keys) / math.factorial(k) for k in range(top + 1))
    return f._coeffs[keys]


def conv_exp(f: Cochain, t: float, u) -> complex:
    """Evaluate ``e_⋆^{tf}`` on a basis tuple u; stored coefficients are read without certifying again."""
    keys = tuple(u)
    if _closed_form(f):
        z = t * f.value(keys)
        try:
            return cmath.exp(z)
        except (OverflowError, ValueError) as exc:
            # OverflowError: e^z overflows; ValueError: z itself overflowed
            raise NonFiniteError(f"non-finite exp(t*{f.name}) at t={t!r} on {keys!r}") from exc
    try:
        coeffs = f._coeffs[keys]
    except KeyError:  # a new tuple
        coeffs = conv_exp_coeffs(f, keys)
    total = 0j
    for c in reversed(coeffs):
        total = total * t + c
    return total


# -- linear maps into the algebra ---------------------------------------------


class LinMap:
    """Linear map from the rank-n tensor power into the algebra.

    Given by a rule on basis tuples that returns the value's ``(key, coeff)``
    pairs, as a row or a mapping (on rank 1 it gets ``(k,)``, and the table is
    keyed by k).  The table keeps a copy of them as a row (``core._row_items``):
    the last duplicate key wins, then it is checked and pruned at the threshold
    read at fill time; the rule's own mapping is never changed (the package's
    own rules, whose dicts are fresh, go through :meth:`_owned` instead).
    :meth:`value` builds the element back from the row.  Its operands must
    belong to the map's instance.
    """

    __slots__ = ("instance", "rank", "name", "_cache")

    def __init__(self, instance, rank: int, rule, name: str = "A"):
        if rank < 1:
            raise AlgebraError("LinMap rank must be >= 1")
        self.instance = instance
        self.rank = rank
        self.name = name
        self._cache = Memo(lambda keys: tuple(_row_items(instance, rule((keys,) if rank == 1 else keys))))

    @classmethod
    def _owned(cls, instance, rank: int, rule, name: str) -> "LinMap":
        """A map whose rule returns a fresh terms dict that nothing else holds.

        Its table takes that dict over and cleans it in place, at the
        threshold read at fill time, where :class:`LinMap` copies the rule's
        pairs first.  The package's own rules are built here: μⁿ, the scalar
        convolutions and the maps of :func:`map_conv_exp`.
        """
        A = cls(instance, rank, rule, name)
        A._cache.compute = lambda keys: tuple(
            _clean_terms(rule((keys,) if rank == 1 else keys), instance.prune_eps).items())
        return A

    def _row(self, keys) -> tuple:
        """The table's row at a basis tuple."""
        return self._cache[keys[0] if self.rank == 1 else tuple(keys)]

    def value(self, keys: tuple) -> Element:
        return _element(self.instance, dict(self._row(keys)))

    def __call__(self, x) -> Element:
        """Σ c·A(k) over the terms of an element (rank 1) or a tensor of the map's rank."""
        if isinstance(x, Element):
            if self.rank != 1:
                raise InstanceMismatchError(f"rank-{self.rank} map applied to an element")
            items = x.terms.items()
        elif isinstance(x, TensorElement):
            if self.rank != x.rank:
                raise InstanceMismatchError(f"rank-{self.rank} map applied to rank-{x.rank} tensor")
            items = x.terms.items() if x.rank > 1 else [(keys[0], c) for keys, c in x.terms.items()]
        else:
            raise AlgebraError(f"cannot apply map to {type(x).__name__}")
        _same_instance(self, x)
        return _element(self.instance, _linear(items, self._cache.__getitem__))

    def on_pair(self, a: Element, b: Element) -> Element:
        """A rank-2 map on a⊗b: Σ (ca·cb)·A(ka⊗kb), read from the map's table."""
        if self.rank != 2:
            raise InstanceMismatchError(f"rank-{self.rank} map applied to a pair")
        _same_instance(self, a)
        _same_instance(self, b)
        return _element(self.instance, _bilinear(a.terms.items(), b.terms.items(), self._cache))

    def __repr__(self):
        return f"LinMap({self.name!r}, rank={self.rank}, on {self.instance.name!r})"


def identity_map(instance: BialgebraInstance) -> LinMap:
    return LinMap(instance, 1, lambda ks: {ks[0]: 1.0}, name="id")


def antipode_map(instance: BialgebraInstance) -> LinMap:
    instance.require_antipode()
    return LinMap(instance, 1, lambda ks: instance.antipode_terms(ks[0]), name="S")


def mu_n_map(instance: BialgebraInstance, n: int) -> LinMap:
    """Left-to-right product of n tensor slots."""
    return LinMap._owned(instance, n, lambda keys: _key_product_terms(instance, keys), f"mul^{n}")


def map_conv_functional(A: LinMap, f: Cochain, name=None) -> LinMap:
    """A ⋆ f for scalar f: u ↦ Σ A(u₍₁₎)·f(u₍₂₎)."""
    return _scalar_convolution(A, f, 1, name or f"({A.name}*{f.name})")


def functional_conv_map(f: Cochain, A: LinMap, name=None) -> LinMap:
    """f ⋆ A for scalar f: u ↦ Σ f(u₍₁₎)·A(u₍₂₎)."""
    return _scalar_convolution(A, f, 0, name or f"({f.name}*{A.name})")


def _scalar_convolution(A: LinMap, f: Cochain, f_leg: int, name: str) -> LinMap:
    """Convolution of A with a scalar f that reads leg ``f_leg`` of Δ."""
    _same_instance(A, f)
    if A.rank != f.arity:
        raise InstanceMismatchError(f"map rank {A.rank} vs cochain arity {f.arity}")
    inst, values = A.instance, f._cache

    def rule(keys):
        # A's terms on the other leg, scaled by c·v on each leg where v = f(leg) is nonzero;
        # the filter reads v through f.value, and the scaling reads it back from f's table
        scaled = ((A._row(legs[1 - f_leg]), legs[2] * values[legs[f_leg]])
                  for legs in _legs_where(inst, keys, f.value, f_leg))
        return _linear(scaled, iter)

    return LinMap._owned(inst, A.rank, rule, name)


def map_conv_exp(A: LinMap, f: Cochain) -> Memo:
    """The maps ``A ⋆ e_⋆^{tf}: u ↦ Σ A(u₍₁₎)·e_⋆^{tf}(u₍₂₎)``, memoized per t.

    t enters only through the scalar exponential, so every map shares one
    expansion per basis tuple (:func:`_exp_legs`), computed once for all t.
    Each map is still memoized per tuple, and sums ``(c·e)·w`` in the order
    of the legs.
    """
    _same_instance(A, f)
    if A.rank != f.arity:
        raise InstanceMismatchError(f"map rank {A.rank} vs cochain arity {f.arity}")
    inst = A.instance
    legs = _exp_legs(A, f)

    def build(t):
        def rule(keys):
            # Σ (c·e)·A(left) over the legs where e = e_⋆^{tf}(right) ≠ 0, (c * e) * w per term
            acc: dict = {}
            for c, right, row in legs[keys]:
                v = conv_exp(f, t, right)
                if v != 0:
                    cv = c * v
                    for key, w in row:
                        cur = acc.get(key)
                        acc[key] = cv * w if cur is None else cur + cv * w
            return acc

        return LinMap._owned(inst, A.rank, rule, f"({A.name}*exp({t:g}{f.name}))")

    return Memo(build)


def _exp_legs(A: LinMap, f: Cochain) -> Memo:
    """Per basis tuple u, the legs ``(c, right, A's row on left)`` of Δ(u) that ``map_conv_exp`` sums.

    A leg on which e_⋆^{tf}(right) vanishes for every t (each Taylor
    coefficient 0) is tested on its right tuple and left out before it is
    built; the closed form never vanishes, so there every leg is kept.
    """
    inst = A.instance
    rows, rank_one = A._cache, A.rank == 1

    def nonvanishing(right):
        return any(f._coeffs.get(right) or conv_exp_coeffs(f, right))

    def expand(keys):
        legs = _legs_where(inst, keys, None if _closed_form(f) else nonvanishing, 1)
        return tuple((c, right, rows[left[0] if rank_one else left]) for left, right, c in legs)

    return Memo(expand)
