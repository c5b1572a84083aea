"""Seeded random basis keys and elements for sampled law checking.

All sampling is driven by one ``random.Random`` per sampler, so a (seed,
budget) pair reproduces the exact same sample stream on any platform.  The
stream is read through the two documented primitives alone: every integer
is drawn by rejection on ``getrandbits`` and every real part is an affine
map of ``random()``.  Those are the very draws ``randint``, ``randrange``,
``uniform`` and ``choice`` make on CPython, so the stream matches the one
those calls give.  Child samplers for independent checks are derived with
:meth:`ElementSampler.spawn`.
"""
from __future__ import annotations

import random

from .core import BialgebraInstance, Element, Kind

_MASK = (1 << 63) - 1


def derive_seed(seed: int, salt: int) -> int:
    return (seed * 1_000_003 + salt * 97 + 17) & _MASK


def _below_on(getrandbits):
    """``random.Random._randbelow`` on the public ``getrandbits``: a uniform integer in [0, n), n >= 1."""

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


class ElementSampler:
    """Random elements with bounded support, coordinates and degree.

    ``coord_bound`` caps each integer coordinate on grouplike bases,
    ``max_degree`` caps the total degree of monomial keys, ``max_support``
    caps the number of basis keys per element.  Coefficients are complex
    with |re|, |im| <= coeff_bound.
    """

    def __init__(
        self,
        instance: BialgebraInstance,
        seed: int,
        budget: int = 200,
        coord_bound: int = 5,
        max_degree: int = 4,
        max_support: int = 3,
        coeff_bound: float = 1.0,
    ):
        self.instance = instance
        self.seed = int(seed)
        self.budget = int(budget)
        self.coord_bound = int(coord_bound)
        self.max_degree = int(max_degree)
        self.max_support = int(max_support)
        self.coeff_bound = float(coeff_bound)
        if self.coord_bound < 0 or self.max_degree < 0 or self.max_support < 1:
            raise ValueError("need coord_bound >= 0, max_degree >= 0 and max_support >= 1")
        self.rng = random.Random(self.seed)
        self._below = _below_on(self.rng.getrandbits)
        self._finite_keys = None
        if instance.kind is Kind.FINITE:
            self._finite_keys = sorted(instance.basis_keys(), key=instance.sort_key)
            if not self._finite_keys:
                raise ValueError(f"instance {instance.name!r} has an empty basis")

    def spawn(self, salt: int, budget: int | None = None) -> "ElementSampler":
        return ElementSampler(
            self.instance,
            derive_seed(self.seed, salt),
            budget=self.budget if budget is None else budget,
            coord_bound=self.coord_bound,
            max_degree=self.max_degree,
            max_support=self.max_support,
            coeff_bound=self.coeff_bound,
        )

    def key(self):
        inst = self.instance
        below = self._below
        if inst.kind is Kind.GROUPLIKE_BASIS:
            lo = -self.coord_bound
            width = 2 * self.coord_bound + 1
            return tuple([lo + below(width) for _ in range(len(inst.unit))])
        if inst.kind is Kind.GRADED_CONNECTED:
            n = len(inst.unit)
            exponents = [0] * n
            for _ in range(below(self.max_degree + 1)):
                exponents[below(n)] += 1
            return tuple(exponents)
        keys = self._finite_keys
        return keys[below(len(keys))]

    def keys(self, n: int) -> tuple:
        return tuple(self.key() for _ in range(n))

    def coeff(self) -> complex:
        # exactly what uniform(-b, b) evaluates, once per part
        b = self.coeff_bound
        random_ = self.rng.random
        return complex(-b + (b + b) * random_(), -b + (b + b) * random_())

    def element(self) -> Element:
        support = 1 + self._below(self.max_support)
        terms: dict = {}
        for _ in range(support):
            k = self.key()
            terms[k] = terms.get(k, 0j) + self.coeff()
        return Element(self.instance, terms)

    def elements(self, n: int) -> list[Element]:
        return [self.element() for _ in range(n)]
