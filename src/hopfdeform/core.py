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
are rejected outright.
"""
from __future__ import annotations

import enum
import itertools
import math
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


def _clean_terms(terms, prune: float):
    out = {}
    for key, raw in terms.items():
        z = raw if raw.__class__ is complex else complex(raw)
        try:
            size = abs(z)
        except OverflowError:  # both parts finite, the modulus is not
            size = _INF
        if not size < _INF:
            raise NonFiniteError(f"non-finite coefficient {raw!r} at basis key {key!r}")
        if size >= prune:
            out[key] = z
    return out


def _acc(acc: dict, key, value) -> None:
    cur = acc.get(key)
    acc[key] = value if cur is None else cur + value


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
        eq_eps: float = EPS_EQ,
        prune_eps: float = EPS_PRUNE,
    ):
        if kind is Kind.GRADED_CONNECTED and degree is None:
            raise AlgebraError("graded connected instances need a degree map")
        self.name = name
        self.kind = kind
        self.unit = unit
        self.cocommutative = cocommutative
        self.eq_eps = eq_eps
        self.prune_eps = prune_eps
        self._counit = counit_basis
        self._antipode = antipode_basis
        self._star = star_basis
        self._degree = degree
        self._key_check = key_check
        self._key_str = key_str or repr
        self._key_sort = key_sort or (lambda k: k)
        self._basis_iter = basis_iter
        # the memos close over the rules and each other, never over the
        # instance, so an instance is freed as soon as its last user drops it
        comul = self._comul_cache = Memo(
            lambda k: tuple((a, b, complex(c)) for a, b, c in comul_basis(k))
        )
        self._mul_cache = Memo(lambda pair: tuple((k, complex(c)) for k, c in mul_basis(*pair)))
        self._antipode_cache = Memo(lambda k: tuple((kk, complex(c)) for kk, c in antipode_basis(k)))
        self._star_cache = Memo(lambda k: tuple((kk, complex(c)) for kk, c in star_basis(k)))
        self._tuple_comul_cache = Memo(lambda keys: _expand_tuple_comul(comul, keys))
        self._iter_comul_cache = Memo(lambda key_n: _expand_iterated_comul(comul, *key_n))

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
        return self._comul_cache[k]

    def tuple_comul_terms(self, keys: tuple):
        """The coproduct of a basis tuple as ``(left_tuple, right_tuple, coeff)`` triples."""
        return self._tuple_comul_cache[keys]

    def counit_key(self, k) -> complex:
        return complex(self._counit(k))

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
        return Element(self, {key: coeff})

    def element(self, terms) -> "Element":
        for key in terms:
            self.check_key(key)
        return Element(self, dict(terms))

    def unit_element(self) -> "Element":
        return Element(self, {self.unit: 1.0})

    def zero_element(self) -> "Element":
        return Element(self, {})

    def __repr__(self):
        return f"BialgebraInstance({self.name!r}, {self.kind.value})"


class Element:
    """Finite sparse linear combination of basis keys of one instance."""

    __slots__ = ("instance", "terms")

    def __init__(self, instance: BialgebraInstance, terms, _clean: bool = True):
        self.instance = instance
        self.terms = _clean_terms(terms, instance.prune_eps) if _clean else terms

    def coeff(self, key) -> complex:
        return self.terms.get(key, 0j)

    def support(self):
        return sorted(self.terms, key=self.instance.sort_key)

    def norm_inf(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        _same_instance(self, other)
        acc = dict(self.terms)
        for k, c in other.terms.items():
            _acc(acc, k, -c)
        return Element(self.instance, acc)

    def __neg__(self):
        return scale(-1.0, self)

    def __mul__(self, other):
        if isinstance(other, Element):
            return mul(self, other)
        return scale(other, self)

    def __rmul__(self, other):
        return scale(other, self)

    def __eq__(self, other):
        if not isinstance(other, Element) or other.instance is not self.instance:
            return NotImplemented
        return (self - other).norm_inf() <= self.instance.eq_eps

    __hash__ = None

    def __repr__(self):
        return f"<{format_element(self)}>"


class TensorElement:
    """Finite sparse element of the rank-n tensor power of an instance."""

    __slots__ = ("instance", "rank", "terms")

    def __init__(self, instance: BialgebraInstance, rank: int, terms, _clean: bool = True):
        if rank < 1:
            raise AlgebraError("tensor rank must be >= 1")
        self.instance = instance
        self.rank = rank
        self.terms = _clean_terms(terms, instance.prune_eps) if _clean else terms

    def coeff(self, keys) -> complex:
        return self.terms.get(tuple(keys), 0j)

    def norm_inf(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        _same_tensor(self, other)
        acc = dict(self.terms)
        for k, c in other.terms.items():
            _acc(acc, k, c)
        return TensorElement(self.instance, self.rank, acc)

    def __sub__(self, other):
        _same_tensor(self, other)
        acc = dict(self.terms)
        for k, c in other.terms.items():
            _acc(acc, k, -c)
        return TensorElement(self.instance, self.rank, acc)

    def __rmul__(self, c):
        return TensorElement(
            self.instance, self.rank, {k: c * v for k, v in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        if other.instance is not self.instance or other.rank != self.rank:
            return NotImplemented
        return (self - other).norm_inf() <= self.instance.eq_eps

    __hash__ = None

    def __repr__(self):
        return f"<{format_tensor(self)}>"


def _same_instance(a, b) -> None:
    if a.instance is not b.instance:
        raise InstanceMismatchError(
            f"mixed instances {a.instance.name!r} and {b.instance.name!r}"
        )


def _same_tensor(u, v) -> None:
    _same_instance(u, v)
    if u.rank != v.rank:
        raise InstanceMismatchError(f"mixed tensor ranks {u.rank} and {v.rank}")


# -- linear operations ------------------------------------------------------


def add(a: Element, b: Element) -> Element:
    _same_instance(a, b)
    acc = dict(a.terms)
    for k, c in b.terms.items():
        _acc(acc, k, c)
    return Element(a.instance, acc)


def scale(c, a: Element) -> Element:
    c = complex(c)
    return Element(a.instance, {k: c * v for k, v in a.terms.items()})


def mul(a: Element, b: Element) -> Element:
    """Bilinear extension of the basis product."""
    _same_instance(a, b)
    inst = a.instance
    acc: dict = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            c = ca * cb
            for k, w in inst.mul_terms(ka, kb):
                _acc(acc, k, c * w)
    return Element(inst, acc)


def comul(a: Element) -> TensorElement:
    inst = a.instance
    acc: dict = {}
    for k, c in a.terms.items():
        for k1, k2, w in inst.comul_terms(k):
            _acc(acc, (k1, k2), c * w)
    return TensorElement(inst, 2, acc)


def counit(a: Element) -> complex:
    inst = a.instance
    return sum((c * inst.counit_key(k) for k, c in a.terms.items()), 0j)


def antipode(a: Element) -> Element:
    inst = a.instance
    acc: dict = {}
    for k, c in a.terms.items():
        for kk, w in inst.antipode_terms(k):
            _acc(acc, kk, c * w)
    return Element(inst, acc)


def star(a: Element) -> Element:
    """Antilinear involution: input coefficients are conjugated."""
    inst = a.instance
    acc: dict = {}
    for k, c in a.terms.items():
        cc = c.conjugate()
        for kk, w in inst.star_terms(k):
            _acc(acc, kk, cc * w)
    return Element(inst, acc)


def antipode_key(instance: BialgebraInstance, k) -> Element:
    return Element(instance, dict(instance.antipode_terms(k)))


def star_key(instance: BialgebraInstance, k) -> Element:
    return Element(instance, dict(instance.star_terms(k)))


def _expand_tuple_comul(comul: Memo, keys: tuple) -> tuple:
    parts = [comul[k] for k in keys]
    out = []
    for combo in itertools.product(*parts):
        left = tuple(t[0] for t in combo)
        right = tuple(t[1] for t in combo)
        coeff = 1.0 + 0j
        for t in combo:
            coeff *= t[2]
        out.append((left, right, coeff))
    return tuple(out)


def iterated_comul_terms(instance: BialgebraInstance, key, n: int):
    """Expansion of the n-fold coproduct of a basis key as ``(keys, coeff)``.

    Uses the recursion that peels one tensor factor from the left; by
    coassociativity any other bracketing gives the same expansion.
    """
    return instance._iter_comul_cache[key, n]


def _expand_iterated_comul(comul: Memo, key, n: int) -> tuple:
    if n == 1:
        return (((key,), 1.0 + 0j),)
    acc: dict = {}
    for k1, k2, w in comul[key]:
        for rest, c in _expand_iterated_comul(comul, k2, n - 1):
            _acc(acc, (k1,) + rest, w * c)
    return tuple(acc.items())


def iterated_comul(a: Element, n: int):
    """n-fold coproduct; n=0 gives the counit scalar, n=1 the identity."""
    if n < 0:
        raise AlgebraError("iterated coproduct needs n >= 0")
    if n == 0:
        return counit(a)
    inst = a.instance
    acc: dict = {}
    for k, c in a.terms.items():
        for keys, w in iterated_comul_terms(inst, k, n):
            _acc(acc, keys, c * w)
    return TensorElement(inst, n, acc)


# -- tensor utilities --------------------------------------------------------


def tensor_of(*elements: Element) -> TensorElement:
    if not elements:
        raise AlgebraError("tensor_of needs at least one factor")
    inst = elements[0].instance
    for e in elements[1:]:
        _same_instance(elements[0], e)
    acc: dict = {}
    for combo in itertools.product(*(e.terms.items() for e in elements)):
        keys = tuple(k for k, _ in combo)
        c = 1.0 + 0j
        for _, w in combo:
            c *= w
        _acc(acc, keys, c)
    return TensorElement(inst, len(elements), acc)


def tensor_mul(u: TensorElement, v: TensorElement) -> TensorElement:
    """Componentwise product in the tensor-power algebra."""
    _same_tensor(u, v)
    inst = u.instance
    acc: dict = {}
    for ku, cu in u.terms.items():
        for kv, cv in v.terms.items():
            parts = [inst.mul_terms(a, b) for a, b in zip(ku, kv)]
            for combo in itertools.product(*parts):
                keys = tuple(k for k, _ in combo)
                c = cu * cv
                for _, w in combo:
                    c *= w
                _acc(acc, keys, c)
    return TensorElement(inst, u.rank, acc)


def tensor_flip(u: TensorElement) -> TensorElement:
    if u.rank != 2:
        raise AlgebraError("flip is defined on rank-2 tensors")
    return TensorElement(u.instance, 2, {(b, a): c for (a, b), c in u.terms.items()})


def tensor_apply(u: TensorElement, slot_maps) -> TensorElement:
    """Apply per-slot linear basis maps; ``None`` leaves a slot unchanged.

    Each map takes a basis key and returns ``(key, coeff)`` pairs.
    """
    inst = u.instance
    acc: dict = {}
    for keys, c in u.terms.items():
        expansions = []
        for k, fn in zip(keys, slot_maps):
            expansions.append(((k, 1.0 + 0j),) if fn is None else tuple(fn(k)))
        for combo in itertools.product(*expansions):
            new_keys = tuple(k for k, _ in combo)
            w = c
            for _, v in combo:
                w *= v
            _acc(acc, new_keys, w)
    return TensorElement(inst, u.rank, acc)


def tensor_expand_slot(u: TensorElement, slot: int) -> TensorElement:
    """Replace one slot by its coproduct, raising the rank by one."""
    inst = u.instance
    acc: dict = {}
    for keys, c in u.terms.items():
        for k1, k2, w in inst.comul_terms(keys[slot]):
            new_keys = keys[:slot] + (k1, k2) + keys[slot + 1 :]
            _acc(acc, new_keys, c * w)
    return TensorElement(inst, u.rank + 1, acc)


def tensor_contract_slot(u: TensorElement, slot: int) -> TensorElement | Element:
    """Apply the counit to one slot, lowering the rank by one."""
    inst = u.instance
    acc: dict = {}
    for keys, c in u.terms.items():
        w = c * inst.counit_key(keys[slot])
        new_keys = keys[:slot] + keys[slot + 1 :]
        _acc(acc, new_keys, w)
    if u.rank == 2:
        return Element(inst, {k[0]: c for k, c in acc.items()})
    return TensorElement(inst, u.rank - 1, acc)


def tensor_mul_all(u: TensorElement) -> Element:
    """Multiply the slots together left to right."""
    inst = u.instance
    acc: dict = {}
    for keys, c in u.terms.items():
        prod = Element(inst, {keys[0]: 1.0})
        for k in keys[1:]:
            prod = mul(prod, Element(inst, {k: 1.0}, _clean=False))
        for k, w in prod.terms.items():
            _acc(acc, k, c * w)
    return Element(inst, acc)


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
    once as the laws' fixed cases.  Failures are recorded, never raised.
    """
    triples = [(sampler.element(), sampler.element(), sampler.element()) for _ in range(sampler.budget)]
    if instance.kind is Kind.GROUPLIKE_BASIS:
        keys = [sampler.key() for _ in range(sampler.budget)]
    elif instance.kind is Kind.GRADED_CONNECTED:
        keys = [(sampler.key(), sampler.key()) for _ in range(sampler.budget)]
    one = instance.unit_element()

    def on_triples(law_id, statement, residual, tolerance=tol):
        return Law(law_id, statement, lambda abc: residual(*abc), tolerance, cases=triples)

    def coassociativity(a, *_):
        u = comul(a)
        return (tensor_expand_slot(u, 0) - tensor_expand_slot(u, 1)).norm_inf()

    def counit_law(a, *_):
        u = comul(a)
        return (tensor_contract_slot(u, 0) - a).norm_inf(), (tensor_contract_slot(u, 1) - a).norm_inf()

    def grading(pair):
        deg = instance.degree_key
        d1, d2 = deg(pair[0]), deg(pair[1])
        graded = all(deg(k) == d1 + d2 for k, _ in instance.mul_terms(*pair)) and all(
            deg(a) + deg(b) == d1 for a, b, _ in instance.comul_terms(pair[0])
        )
        return 0.0 if graded else 1.0, 0.0 if deg(instance.unit) == 0 else 1.0

    def cocommutativity(a, *_):
        u = comul(a)
        return (tensor_flip(u) - u).norm_inf()

    def antipode_law(a, *_):
        u = comul(a)
        target = scale(counit(a), one)
        lhs = tensor_mul_all(tensor_apply(u, (instance.antipode_terms, None)))
        rhs = tensor_mul_all(tensor_apply(u, (None, instance.antipode_terms)))
        return (lhs - target).norm_inf(), (rhs - target).norm_inf()

    laws = [
        on_triples("associativity", "(a*b)*c = a*(b*c)",
                   lambda a, b, c: (mul(mul(a, b), c) - mul(a, mul(b, c))).norm_inf()),
        on_triples("unit", "1*a = a = a*1",
                   lambda a, *_: ((mul(one, a) - a).norm_inf(), (mul(a, one) - a).norm_inf()), 1e-12),
        on_triples("coassociativity", "(Delta(x)id)Delta = (id(x)Delta)Delta", coassociativity),
        on_triples("counit", "(delta(x)id)Delta = id = (id(x)delta)Delta", counit_law, 1e-12),
        on_triples("comul_homomorphism", "Delta(ab) = Delta(a)Delta(b)",
                   lambda a, b, _: (comul(mul(a, b)) - tensor_mul(comul(a), comul(b))).norm_inf()),
        on_triples("counit_homomorphism", "delta(ab) = delta(a)delta(b)",
                   lambda a, b, _: abs(counit(mul(a, b)) - counit(a) * counit(b))),
    ]
    if instance.kind is Kind.GROUPLIKE_BASIS:
        laws.append(Law("grouplike_basis", "Delta(b) = b(x)b and delta(b) = 1 on basis keys",
                        lambda k: (0.0 if instance.comul_terms(k) == ((k, k, 1.0 + 0j),) else 1.0,
                                   abs(instance.counit_key(k) - 1.0)), 0.0, cases=keys))
    if instance.kind is Kind.GRADED_CONNECTED:
        laws.append(Law("grading", "deg(1) = 0; the product adds degrees; the coproduct preserves them",
                        grading, 0.0, cases=keys))
    if instance.cocommutative:
        laws.append(on_triples("cocommutativity", "tau∘Delta = Delta", cocommutativity, 1e-12))
    if instance.has_antipode:
        laws.append(on_triples("antipode", "mul(S(x)id)Delta = delta*1 = mul(id(x)S)Delta", antipode_law))
        laws.append(Law("antipode_unit", "S(1) = 1", lambda _: (antipode(one) - one).norm_inf(), 1e-12))
    if instance.has_star:
        laws.append(on_triples("star_involutive", "(a*)* = a", lambda a, *_: (star(star(a)) - a).norm_inf(), 1e-12))
        laws.append(on_triples("star_antihomomorphism", "(ab)* = b* a*",
                               lambda a, b, _: (star(mul(a, b)) - mul(star(b), star(a))).norm_inf()))
    report = Report(name=f"structure:{instance.name}")
    run_laws(report, sampler, laws)
    return report
