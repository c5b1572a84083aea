"""Sparse complex linear algebra over a bialgebra basis.

Elements are finite sparse combinations of opaque basis keys.  The
structure maps (product, coproduct, counit, antipode, involution) are
supplied per basis key by a :class:`BialgebraInstance` and extended
bilinearly / multilinearly here.  Elements and instances are immutable
after construction and every operation is a pure function, so values can
be shared freely across threads; the memo tables inside an instance only
ever grow and are safe under concurrent reads.

Coefficients are complex doubles.  Equality of scalars and elements is
tolerance based (``EPS_EQ``); coefficients with modulus below
``EPS_PRUNE`` are dropped on construction.  NaN or infinite coefficients
are rejected outright.  One routine, :func:`_clean_terms`, does both, in
place on a dict it owns: the public ``Element(instance, terms)`` and
``TensorElement(instance, rank, terms)`` hand it a copy, so a caller's
mapping is never changed, while the structure maps hand their fresh kernel
dicts over through :func:`_element` and :func:`_tensor`, so each result is
cleaned once and never copied.

The tables of the linear maps, the instance's product, coproduct, antipode
and star tables and a ``LinMap``'s table alike, hold one row format: a tuple
of ``(key, w)`` pairs, keyed by the bare basis key on rank 1 and by the
basis tuple above it.  Every table rule returns the value's ``(key, coeff)``
pairs, as a row or a mapping, never an element, as :func:`_key_product_terms`
does.  A ``LinMap`` copies a user rule's pairs before it cleans them; the
package's own map rules hand their fresh dict over to be cleaned in place, as
the structure maps do (``convolution.LinMap._owned``), and so does the
instance's key-product table, whose rule is :func:`_key_product_terms`, the
key product before its last clean, so each row is cleaned once, where the
copying fill cleaned it three times and copied it once.

Sums go through four kernels under one summation-order contract, which fixes
the last bit of every coefficient and so the bytes of every report: each
key's terms are added left to right in loop order, each term keeps its
kernel's product grouping, a key's first term is stored as is and a scalar
sum starts from ``0j``.  No kernel calls ``sum()``, whose algorithm CPython
changes between versions.

* :func:`_linear`: Σ c·rule(k) over ``(k, c)`` items, ``c * w`` per
  ``(key, w)`` of rule(k); with no rule each item is a term.  A table's
  ``__getitem__`` is the rule of the coproduct, antipode and star maps, of
  a ``LinMap`` on an element or a tensor, and of the antipode identity's
  sides (``deformation._antipode_sides``).
* :func:`_bilinear`: Σ (ca·cb)·table[ka, kb] over two term lists, read from
  a rank-2 table, ``(ca * cb) * w``; :func:`mul`, a ``LinMap`` on a pair and
  each step of :func:`_key_product_terms`, whose products
  :func:`tensor_mul_all` sums through :func:`_linear`.
* :func:`_row_pairs`: Σ c·(row₁⊗row₂) over ``(c, row₁, row₂)`` legs,
  ``(c * w₁) * w₂`` at ``(k₁, k₂)``; the rank-2 sums :func:`tensor_mul`,
  :func:`tensor_apply` and the deformed antipode's (S_t⊗S_r)∘τ∘Δ.
* :func:`_scalar`: the complex number Σ c·rule(k), or Σ items.

The structure maps read one memo table per map on the instance (product,
coproduct, counit, antipode, star) and feed its rows to a kernel; the
iterated coproduct is Δ with its last slot expanded again by
:func:`tensor_expand_slot`.  One more memo, per threshold, keeps the cleaned
product of each basis tuple's elements (:func:`_key_product_terms`), which
:func:`tensor_mul_all` reads for each term of a tensor, since a tensor's
terms fall on few distinct pairs.  It is also the table of μⁿ for n ≥ 2
(``convolution.mu_n_map``), so the commuting residual and a deformation's
base map share μ²'s rows, each filled once per instance.  Λ, the coproduct
of the tensor square, is read from the coproduct table when needed and kept
nowhere.  These loops stay hand-written, with the kernels' store pattern and
their own grouping, because the kernel form was measured slower:

* :func:`tensor_expand_slot` and :func:`tensor_contract_slot` splice a slot
  into each key; as a kernel rule that is a closure and a generator per
  term.
* ``deformation._deformed_mul_square``, (μ_t⊗μ_s)∘Λ with the grouping
  ``(((ca·cb)·c)·w₁)·w₂``, Λ from ``tuple_comul_terms`` (c =
  ``((1+0j)·c₁)·c₂`` from the coproduct rows).
* the rule of each map of ``convolution.map_conv_exp`` (μ_t, S_t, Φ_t) sums
  ``(c·e)·w`` over its shared expansion's legs.

``tests/test_sum_loops.py`` names each of these loops with its measured
reason, so a new hand-written sum must be named there.  Horner's rule and
the slot loop of ``Cochain.eval_mixed`` are scalar loops with contracts of
their own.

:func:`check_structure` computes each drawn triple's a·b and Δ(a) once, in
the first law that reads them, and the later laws read the stored value; a
value is stored only once computed, so an overflowing input raises the same
:class:`NonFiniteError` at the same sample.  The cochain rules that put a
table row into a slot (the coboundary, σ and its flipped form,
``compose_antipode_flip``, ``hermitian_conjugate``) read each row as the
element ``dict(row)`` (:func:`_row_items`: the last duplicate key wins, then
checked and pruned) and sum as the slot loop of ``Cochain.eval_mixed`` does:
weights ``(1+0j)·w₁·…·wₙ`` multiplied left to right, a zero weight skipped,
the sum from ``0j``.  The coboundary sums in one pass over its row, each
term weighed by its finite coefficient alone, since the ``1+0j`` factors
would change only a zero's sign, which the ``0j``-started sum drops.

A sampled law's residual ``x.distance(y)`` equals ``(x - y).norm_inf()``
but builds no difference element: it reads the difference coefficient by
coefficient, in its dict order, with the same check and pruning.
"""
from __future__ import annotations

import enum
import itertools
import math
import operator
from typing import Callable

from .report import Law, Report, run_laws

EPS_EQ = 1e-9
EPS_PRUNE = 1e-12


class AlgebraError(Exception):
    """Base class for structural errors raised by this package."""


class InstanceMismatchError(AlgebraError):
    """Operands belong to different bialgebra instances."""


class CapabilityMissingError(AlgebraError):
    """The instance does not provide the requested structure map."""


class NonFiniteError(AlgebraError):
    """A computed coefficient or exponential overflowed or became NaN."""


class Kind(enum.Enum):
    GROUPLIKE_BASIS = "grouplike_basis"
    GRADED_CONNECTED = "graded_connected"
    FINITE = "finite"


def format_scalar(z) -> str:
    """Canonical ``a+bi`` rendering with 12 significant digits."""
    z = complex(z)
    re = z.real + 0.0  # fold -0.0 into +0.0
    im = z.imag + 0.0
    return f"{re:.12g}{im:+.12g}i"


_INF = math.inf


def _clean_terms(terms: dict, prune: float) -> dict:
    """Check and prune ``terms`` in place and return it.

    Every coefficient becomes a ``complex``; one of modulus below ``prune``
    is deleted, which keeps the order of the keys that remain, and the first
    non-finite one, in dict order, raises :class:`NonFiniteError` naming the
    value as given.  The caller owns ``terms``: element construction hands
    it a copy of a caller's mapping, and the structure maps their fresh
    kernel dicts (:func:`_element`, :func:`_tensor`).
    """
    pruned = None
    for key, raw in terms.items():
        if raw.__class__ is complex:
            z = raw
        else:
            z = terms[key] = complex(raw)  # a value, not a key, so iterating goes on
        try:
            size = abs(z)
        except OverflowError:  # both parts finite, the modulus is not
            size = _INF
        if not size < _INF:
            raise NonFiniteError(f"non-finite coefficient {raw!r} at basis key {key!r}")
        if not size >= prune:
            if pruned is None:
                pruned = [key]
            else:
                pruned.append(key)
    if pruned is not None:
        for key in pruned:
            del terms[key]
    return terms


def _linear(items, rule=None, start=None) -> dict:
    """Σ c·rule(k) over the ``(k, c)`` items, as a new terms dict.

    Each ``(key, w)`` pair of ``rule(k)`` adds ``c * w`` at key.  With no
    rule each item is itself a term and adds c at k.  ``start`` holds terms
    summed before the items; it is copied, never changed.
    """
    acc: dict = {} if start is None else dict(start)
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


def _scalar(items, rule=None) -> complex:
    """Σ c·rule(k) over the ``(k, c)`` items, or Σ items with no rule, added left to right from ``0j``."""
    total = 0j
    if rule is None:
        for z in items:
            total += z
    else:
        for k, c in items:
            total += c * rule(k)
    return total


def _bilinear(a_terms, b_terms, table) -> dict:
    """Σ (ca·cb)·table[ka, kb] over the ``(ka, ca)`` and ``(kb, cb)`` terms.

    ``table`` maps a basis pair to its row of ``(key, w)`` pairs, and
    ``b_terms`` is walked once for every a term, so it must be re-iterable.
    """
    acc: dict = {}
    for ka, ca in a_terms:
        for kb, cb in b_terms:
            c = ca * cb
            for key, w in table[ka, kb]:
                cur = acc.get(key)
                acc[key] = c * w if cur is None else cur + c * w
    return acc


def _row_pairs(legs) -> dict:
    """Σ c·(row₁⊗row₂) over the ``(c, row₁, row₂)`` legs, as a new terms dict.

    Each term ``(k₁, w₁)`` of row₁ and ``(k₂, w₂)`` of row₂ adds
    ``(c * w₁) * w₂`` at ``(k₁, k₂)``.  row₁ is walked once, so it may be a
    generator; row₂ is walked once for every term of row₁, so it must be
    re-iterable.
    """
    acc: dict = {}
    for c, row1, row2 in legs:
        for k1, w1 in row1:
            cw = c * w1
            for k2, w2 in row2:
                key = (k1, k2)
                cur = acc.get(key)
                acc[key] = cw * w2 if cur is None else cur + cw * w2
    return acc


_first, _second = operator.itemgetter(0), operator.itemgetter(1)
_neg = operator.neg
_ONE = 1.0 + 0j


def _slot_products(items):
    """The terms of Σ c·(⊗ᵢ partᵢ) over the ``(parts, c)`` items, for ``_linear``.

    Each choice of one ``(key, w)`` pair from every part gives the term
    ``(keys, c·w₁·…·wₙ)``, multiplied left to right.
    """
    for parts, c in items:
        for combo in itertools.product(*parts):
            w = c
            for _, v in combo:
                w *= v
            yield tuple(map(_first, combo)), w


class Memo(dict):
    """A dict that fills a missing key with ``compute(key)`` and keeps it."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class BialgebraInstance:
    """Descriptor of a concrete bialgebra / Hopf algebra on a chosen basis.

    The basis-level rules return iterables of ``(key, coeff)`` pairs
    (``(key1, key2, coeff)`` triples for the coproduct).  ``antipode`` and
    ``star`` are optional capabilities; ``degree`` is required for graded
    connected instances, where the unit must be the only degree-0 key.
    ``star`` is a basis rule; the antilinear part (conjugation of input
    coefficients) is applied by :func:`star`.
    """

    def __init__(
        self,
        name: str,
        kind: Kind,
        unit,
        mul_basis: Callable,
        comul_basis: Callable,
        counit_basis: Callable,
        antipode_basis: Callable | None = None,
        star_basis: Callable | None = None,
        degree: Callable | None = None,
        cocommutative: bool = False,
        key_check: Callable | None = None,
        key_str: Callable | None = None,
        key_sort: Callable | None = None,
        basis_iter: Callable | None = None,
    ):
        if kind is Kind.GRADED_CONNECTED and degree is None:
            raise AlgebraError("graded connected instances need a degree map")
        self.name = name
        self.kind = kind
        self.unit = unit
        self.cocommutative = cocommutative
        self.eq_eps = EPS_EQ
        self.prune_eps = EPS_PRUNE
        self._antipode = antipode_basis
        self._star = star_basis
        self._degree = degree
        self._key_check = key_check
        self._key_str = key_str or repr
        self._key_sort = key_sort or (lambda k: k)
        self._basis_iter = basis_iter
        # the memos close over the rules and each other, never over the
        # instance, so an instance is freed as soon as its last user drops it
        self._counit_cache = Memo(lambda k: complex(counit_basis(k)))
        self._comul_pairs = Memo(lambda k: tuple(((a, b), complex(c)) for a, b, c in comul_basis(k)))
        mul_cache = self._mul_cache = Memo(lambda pair: tuple((k, complex(c)) for k, c in mul_basis(*pair)))
        # per threshold, the product of each basis tuple's elements as a cleaned row (_key_product_terms)
        self._key_products = Memo(lambda prune: Memo(
            lambda keys: tuple(_clean_terms(_key_product_terms(mul_cache, prune, keys), prune).items())))
        self._antipode_cache = Memo(lambda k: tuple((kk, complex(c)) for kk, c in antipode_basis(k)))
        self._star_cache = Memo(lambda k: tuple((kk, complex(c)) for kk, c in star_basis(k)))

    # -- capabilities ------------------------------------------------------

    @property
    def has_antipode(self) -> bool:
        return self._antipode is not None

    @property
    def has_star(self) -> bool:
        return self._star is not None

    def require_antipode(self) -> None:
        if not self.has_antipode:
            raise CapabilityMissingError(f"instance {self.name!r} has no antipode")

    def require_star(self) -> None:
        if not self.has_star:
            raise CapabilityMissingError(f"instance {self.name!r} has no involution")

    # -- basis-level rules (memoized) --------------------------------------

    def mul_terms(self, k1, k2):
        return self._mul_cache[k1, k2]

    def comul_terms(self, k):
        """The coproduct of a basis key as ``(key1, key2, coeff)`` triples."""
        return tuple((a, b, c) for (a, b), c in self._comul_pairs[k])

    def counit_key(self, k) -> complex:
        return self._counit_cache[k]

    def antipode_terms(self, k):
        self.require_antipode()
        return self._antipode_cache[k]

    def star_terms(self, k):
        self.require_star()
        return self._star_cache[k]

    def degree_key(self, k) -> int:
        if self._degree is None:
            raise CapabilityMissingError(f"instance {self.name!r} has no grading")
        return int(self._degree(k))

    def check_key(self, k) -> None:
        if self._key_check is not None and not self._key_check(k):
            raise AlgebraError(f"basis key {k!r} is not valid for instance {self.name!r}")

    def key_str(self, k) -> str:
        return self._key_str(k)

    def sort_key(self, k):
        return self._key_sort(k)

    def basis_keys(self):
        """Every basis key, for finite instances only."""
        if self._basis_iter is None:
            raise CapabilityMissingError(f"instance {self.name!r} has no finite basis enumeration")
        return self._basis_iter()

    # -- element constructors ----------------------------------------------

    def basis_element(self, key, coeff=1.0) -> "Element":
        self.check_key(key)
        return _element(self, {key: coeff})

    def element(self, terms) -> "Element":
        for key in terms:
            self.check_key(key)
        return _element(self, dict(terms))

    def unit_element(self) -> "Element":
        return _element(self, {self.unit: 1.0})

    def zero_element(self) -> "Element":
        return _element(self, {})

    def __repr__(self):
        return f"BialgebraInstance({self.name!r}, {self.kind.value})"


def _same_instance(a, b) -> None:
    if a.instance is not b.instance:
        raise InstanceMismatchError(
            f"mixed instances {a.instance.name!r} and {b.instance.name!r}"
        )


def _same_element(a, b) -> None:
    _same_instance(a, b)
    if not isinstance(b, Element):
        raise InstanceMismatchError(f"an element cannot be combined with a {type(b).__name__}")


def _same_tensor(u, v) -> None:
    _same_instance(u, v)
    if not isinstance(v, TensorElement):
        raise InstanceMismatchError(f"a tensor cannot be combined with a {type(v).__name__}")
    if u.rank != v.rank:
        raise InstanceMismatchError(f"mixed tensor ranks {u.rank} and {v.rank}")


class _Terms:
    """The linear arithmetic that :class:`Element` and :class:`TensorElement` share.

    A subclass names its operand check ``_check(other)``, which raises on a
    mismatch, and its constructor from terms ``_new(terms)``.
    """

    __slots__ = ("instance", "terms")

    def norm_inf(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        return self._new(_linear(other.terms.items(), None, self.terms))

    def __sub__(self, other):
        self._check(other)
        terms = other.terms
        return self._new(_linear(zip(terms, map(_neg, terms.values())), None, self.terms))

    def distance(self, other) -> float:
        """``(self - other).norm_inf()``, read without building the difference.

        The difference's coefficients are visited in its dict order (this
        operand's keys, then the keys only ``other`` has), each ``c - o``
        equal bit for bit to the kernel's ``c + (-o)``, and are checked and
        pruned as :func:`_clean_terms` would: the value and any error are
        those of the difference.
        """
        self._check(other)
        mine, theirs = self.terms, other.terms
        prune = self.instance.prune_eps
        best = 0.0
        for key, z in mine.items():
            if key in theirs:
                z = z - theirs[key]
            try:
                size = abs(z)
            except OverflowError:  # both parts finite, the modulus is not
                size = _INF
            if not size < _INF:
                raise NonFiniteError(f"non-finite coefficient {z!r} at basis key {key!r}")
            if size >= prune and size > best:
                best = size
        for key, z in theirs.items():
            # a stored coefficient, so its modulus is finite, and abs(-z) == abs(z)
            if key not in mine and (size := abs(z)) >= prune and size > best:
                best = size
        return best

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        try:
            return self.distance(other) <= self.instance.eq_eps
        except InstanceMismatchError:  # another instance or tensor rank
            return NotImplemented

    __hash__ = None


class Element(_Terms):
    """Finite sparse linear combination of basis keys of one instance."""

    __slots__ = ()

    def __init__(self, instance: BialgebraInstance, terms):
        self.instance = instance
        self.terms = _clean_terms(dict(terms), instance.prune_eps)

    _check = _same_element

    def _new(self, terms: dict) -> "Element":
        return _element(self.instance, terms)

    def coeff(self, key) -> complex:
        return self.terms.get(key, 0j)

    def __neg__(self):
        return scale(-1.0, self)

    def __repr__(self):
        return f"<{format_element(self)}>"


class TensorElement(_Terms):
    """Finite sparse element of the rank-n tensor power of an instance."""

    __slots__ = ("rank",)

    def __init__(self, instance: BialgebraInstance, rank: int, terms):
        if rank < 1:
            raise AlgebraError("tensor rank must be >= 1")
        self.instance = instance
        self.rank = rank
        self.terms = _clean_terms(dict(terms), instance.prune_eps)

    _check = _same_tensor

    def _new(self, terms: dict) -> "TensorElement":
        return _tensor(self.instance, self.rank, terms)

    def coeff(self, keys) -> complex:
        return self.terms.get(tuple(keys), 0j)

    def __repr__(self):
        return f"<{format_tensor(self)}>"


_new_object = object.__new__


def _element(instance: BialgebraInstance, terms: dict) -> Element:
    """The element whose terms are ``terms``, a fresh dict it takes over and cleans in place."""
    e = _new_object(Element)
    e.instance = instance
    e.terms = _clean_terms(terms, instance.prune_eps)
    return e


def _tensor(instance: BialgebraInstance, rank: int, terms: dict) -> TensorElement:
    """The rank-``rank`` tensor (rank ≥ 1) whose terms are ``terms``, a fresh dict it takes over."""
    u = _new_object(TensorElement)
    u.instance = instance
    u.rank = rank
    u.terms = _clean_terms(terms, instance.prune_eps)
    return u


def _row_items(instance: BialgebraInstance, row):
    """The terms of the element ``dict(row)`` made from a basis table's row.

    The last of any duplicate keys wins, and the terms are checked and
    pruned at the instance's current threshold.
    """
    return _clean_terms(dict(row), instance.prune_eps).items()


# -- linear operations ------------------------------------------------------


def scale(c, a: Element) -> Element:
    c = complex(c)
    return _element(a.instance, {k: c * v for k, v in a.terms.items()})


def mul(a: Element, b: Element) -> Element:
    """Bilinear extension of the basis product."""
    _same_instance(a, b)
    inst = a.instance
    return _element(inst, _bilinear(a.terms.items(), b.terms.items(), inst._mul_cache))


def comul(a: Element) -> TensorElement:
    inst = a.instance
    return _tensor(inst, 2, _linear(a.terms.items(), inst._comul_pairs.__getitem__))


def counit(a: Element) -> complex:
    return _scalar(a.terms.items(), a.instance._counit_cache.__getitem__)


def antipode(a: Element) -> Element:
    inst = a.instance
    inst.require_antipode()
    return _element(inst, _linear(a.terms.items(), inst._antipode_cache.__getitem__))


def star(a: Element) -> Element:
    """Antilinear involution: input coefficients are conjugated."""
    inst = a.instance
    inst.require_star()
    conjugated = [(k, c.conjugate()) for k, c in a.terms.items()]
    return _element(inst, _linear(conjugated, inst._star_cache.__getitem__))


def iterated_comul(a: Element, n: int):
    """n-fold coproduct; n=0 gives the counit scalar, n=1 the rank-1 tensor of a.

    Above that, Δ(a) with its last slot expanded n − 2 times; by
    coassociativity any other bracketing gives the same tensor.
    """
    if n < 0:
        raise AlgebraError("iterated coproduct needs n >= 0")
    if n == 0:
        return counit(a)
    if n == 1:
        return tensor_of(a)
    u = comul(a)
    for _ in range(n - 2):
        u = tensor_expand_slot(u, u.rank - 1)
    return u


# -- tensor utilities --------------------------------------------------------


def tensor_of(*elements: Element) -> TensorElement:
    if not elements:
        raise AlgebraError("tensor_of needs at least one factor")
    inst = elements[0].instance
    for e in elements[1:]:
        _same_instance(elements[0], e)
    terms = _linear(_slot_products([([e.terms.items() for e in elements], 1.0 + 0j)]))
    return _tensor(inst, len(elements), terms)


def tensor_mul(u: TensorElement, v: TensorElement) -> TensorElement:
    """Componentwise product in the tensor square: Σ (cu·cv)·(a₁b₁⊗a₂b₂), read from the product table."""
    _same_tensor(u, v)
    if u.rank != 2:
        raise AlgebraError("tensor_mul is defined on rank-2 tensors")
    inst = u.instance
    table = inst._mul_cache
    v_items = v.terms.items()
    return _tensor(inst, 2, _row_pairs(
        (cu * cv, table[a1, b1], table[a2, b2]) for (a1, a2), cu in u.terms.items() for (b1, b2), cv in v_items
    ))


def tensor_flip(u: TensorElement) -> TensorElement:
    if u.rank != 2:
        raise AlgebraError("flip is defined on rank-2 tensors")
    return _tensor(u.instance, 2, {(b, a): c for (a, b), c in u.terms.items()})


def tensor_apply(u: TensorElement, slot_maps) -> TensorElement:
    """Apply per-slot linear basis maps to a tensor square; ``None`` leaves a slot unchanged.

    Each map takes a basis key and returns ``(key, coeff)`` pairs; an
    unchanged slot is the row ``((key, 1+0j),)``.
    """
    if u.rank != 2:
        raise AlgebraError("tensor_apply is defined on rank-2 tensors")
    f1, f2 = slot_maps
    return _tensor(u.instance, 2, _row_pairs(
        (c, ((a1, _ONE),) if f1 is None else tuple(f1(a1)), ((a2, _ONE),) if f2 is None else tuple(f2(a2)))
        for (a1, a2), c in u.terms.items()
    ))


def tensor_expand_slot(u: TensorElement, slot: int) -> TensorElement:
    """Replace one slot by its coproduct, raising the rank by one; each term is ``c·w``."""
    inst = u.instance
    table = inst._comul_pairs
    acc: dict = {}
    for keys, c in u.terms.items():
        head, tail = keys[:slot], keys[slot + 1 :]
        for pair, w in table[keys[slot]]:
            key = head + pair + tail
            cur = acc.get(key)
            acc[key] = c * w if cur is None else cur + c * w
    return _tensor(inst, u.rank + 1, acc)


def tensor_contract_slot(u: TensorElement, slot: int) -> TensorElement | Element:
    """Apply the counit to one slot, lowering the rank by one; each term is ``c·δ(k)``."""
    inst = u.instance
    table = inst._counit_cache
    rank = u.rank
    acc: dict = {}
    for keys, c in u.terms.items():
        key = keys[:slot] + keys[slot + 1 :]
        if rank == 2:
            key = key[0]
        cw = c * table[keys[slot]]
        cur = acc.get(key)
        acc[key] = cw if cur is None else cur + cw
    if rank == 2:
        return _element(inst, acc)
    return TensorElement(inst, rank - 1, acc)  # refuses rank 0


def _key_product_terms(table: Memo, prune: float, keys) -> dict:
    """The terms of the product of basis keys, left to right, read from a product table at a threshold.

    Each step multiplies the running product by the next key with
    coefficient ``1+0j`` and prunes the result, as :func:`mul` would, but
    the last step's result is neither checked nor pruned: a fresh dict for a
    caller that cleans it, as the instance's key-product table does, so each
    tuple is multiplied once per threshold.
    """
    # the basis element 1·k₀ checked and pruned (1+0j is finite, of modulus 1);
    # each later running product is checked and pruned before the next step
    acc = {keys[0]: _ONE} if 1.0 >= prune else {}
    for i, k in enumerate(keys[1:]):
        acc = _bilinear((_clean_terms(acc, prune) if i else acc).items(), ((k, _ONE),), table)
    return acc


def tensor_mul_all(u: TensorElement) -> Element:
    """Multiply the two slots of a tensor square together.

    Each term ``c·k₁⊗k₂`` adds c times the product of the basis elements
    1·k₁ and 1·k₂, read from the instance's key-product table at the
    current threshold.
    """
    if u.rank != 2:
        raise AlgebraError("tensor_mul_all is defined on rank-2 tensors")
    inst = u.instance
    return _element(inst, _linear(u.terms.items(), inst._key_products[inst.prune_eps].__getitem__))


# -- canonical rendering -----------------------------------------------------


def format_element(e: Element) -> str:
    if not e.terms:
        return "0"
    inst = e.instance
    parts = [
        f"({format_scalar(e.terms[k])})*{inst.key_str(k)}"
        for k in sorted(e.terms, key=inst.sort_key)
    ]
    return " + ".join(parts)


def format_tensor(u: TensorElement) -> str:
    if not u.terms:
        return "0"
    inst = u.instance
    keys = sorted(u.terms, key=lambda ks: tuple(inst.sort_key(k) for k in ks))
    parts = []
    for ks in keys:
        label = " (x) ".join(inst.key_str(k) for k in ks)
        parts.append(f"({format_scalar(u.terms[ks])})*[{label}]")
    return " + ".join(parts)


# -- structural self-check ----------------------------------------------------


def check_structure(instance: BialgebraInstance, sampler, tol: float = 1e-8) -> Report:
    """Sampled verification of the bialgebra / Hopf / star axioms.

    Element triples, then grouplike keys or grading key pairs, are drawn
    once as the laws' fixed cases.  Each triple's a·b and Δ(a) are computed
    once, by the first law that reads them, and shared by the later ones.
    Failures are recorded, never raised.
    """
    triples = [(sampler.element(), sampler.element(), sampler.element()) for _ in range(sampler.budget)]
    if instance.kind is Kind.GROUPLIKE_BASIS:
        keys = [sampler.key() for _ in range(sampler.budget)]
    elif instance.kind is Kind.GRADED_CONNECTED:
        keys = [(sampler.key(), sampler.key()) for _ in range(sampler.budget)]
    one = instance.unit_element()
    antipode_row = instance._antipode_cache.__getitem__
    comul_pairs = instance._comul_pairs
    # by triple index; a value is kept only once computed, so a failure is met again where it was first
    products = Memo(lambda i: mul(triples[i][0], triples[i][1]))
    coproducts = Memo(lambda i: comul(triples[i][0]))

    def on_triples(law_id, statement, residual, tolerance=tol):
        return Law(law_id, statement, lambda i: residual(i, *triples[i]), tolerance, cases=range(len(triples)))

    def coassociativity(i, *_):
        u = coproducts[i]
        return tensor_expand_slot(u, 0).distance(tensor_expand_slot(u, 1))

    def counit_law(i, a, *_):
        u = coproducts[i]
        return tensor_contract_slot(u, 0).distance(a), tensor_contract_slot(u, 1).distance(a)

    def grading(pair):
        deg = instance.degree_key
        d1, d2 = deg(pair[0]), deg(pair[1])
        graded = all(deg(k) == d1 + d2 for k, _ in instance.mul_terms(*pair)) and all(
            deg(a) + deg(b) == d1 for (a, b), _ in comul_pairs[pair[0]]
        )
        return 0.0 if graded else 1.0, 0.0 if deg(instance.unit) == 0 else 1.0

    def cocommutativity(i, *_):
        u = coproducts[i]
        return tensor_flip(u).distance(u)

    def antipode_law(i, a, *_):
        u = coproducts[i]
        target = scale(counit(a), one)
        lhs = tensor_mul_all(tensor_apply(u, (antipode_row, None)))
        rhs = tensor_mul_all(tensor_apply(u, (None, antipode_row)))
        return lhs.distance(target), rhs.distance(target)

    laws = [
        on_triples("associativity", "(a*b)*c = a*(b*c)",
                   lambda i, a, b, c: mul(products[i], c).distance(mul(a, mul(b, c)))),
        on_triples("unit", "1*a = a = a*1",
                   lambda i, a, *_: (mul(one, a).distance(a), mul(a, one).distance(a)), 1e-12),
        on_triples("coassociativity", "(Delta(x)id)Delta = (id(x)Delta)Delta", coassociativity),
        on_triples("counit", "(delta(x)id)Delta = id = (id(x)delta)Delta", counit_law, 1e-12),
        on_triples("comul_homomorphism", "Delta(ab) = Delta(a)Delta(b)",
                   lambda i, a, b, _: comul(products[i]).distance(tensor_mul(coproducts[i], comul(b)))),
        on_triples("counit_homomorphism", "delta(ab) = delta(a)delta(b)",
                   lambda i, a, b, _: abs(counit(products[i]) - counit(a) * counit(b))),
    ]
    if instance.kind is Kind.GROUPLIKE_BASIS:
        laws.append(Law("grouplike_basis", "Delta(b) = b(x)b and delta(b) = 1 on basis keys",
                        lambda k: (0.0 if comul_pairs[k] == (((k, k), 1.0 + 0j),) else 1.0,
                                   abs(instance.counit_key(k) - 1.0)), 0.0, cases=keys))
    if instance.kind is Kind.GRADED_CONNECTED:
        laws.append(Law("grading", "deg(1) = 0; the product adds degrees; the coproduct preserves them",
                        grading, 0.0, cases=keys))
    if instance.cocommutative:
        laws.append(on_triples("cocommutativity", "tau∘Delta = Delta", cocommutativity, 1e-12))
    if instance.has_antipode:
        laws.append(on_triples("antipode", "mul(S(x)id)Delta = delta*1 = mul(id(x)S)Delta", antipode_law))
        laws.append(Law("antipode_unit", "S(1) = 1", lambda _: antipode(one).distance(one), 1e-12))
    if instance.has_star:
        laws.append(on_triples("star_involutive", "(a*)* = a",
                               lambda i, a, *_: star(star(a)).distance(a), 1e-12))
        laws.append(on_triples("star_antihomomorphism", "(ab)* = b* a*",
                               lambda i, a, b, _: star(products[i]).distance(mul(star(b), star(a)))))
    report = Report(name=f"structure:{instance.name}")
    run_laws(report, sampler, laws)
    return report
