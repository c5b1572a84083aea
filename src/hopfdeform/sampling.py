"""Seeded random basis keys and elements for sampled law checking.

All sampling is driven by one ``random.Random`` per sampler, so a (seed,
budget) pair reproduces the exact same sample stream on any platform.  The
stream is read through the two documented primitives alone: every integer
is drawn by rejection on ``getrandbits`` and every real part is an affine
map of ``random()``.  Those are the very draws ``randint``, ``randrange``,
``uniform`` and ``choice`` make on CPython, so the stream matches the one
those calls give.  The hot draws call the primitives inline: a grouplike
key rejects ``getrandbits`` per coordinate and a graded key for its
degree and for each generator index, with the widths and bit lengths fixed
at construction, and an element's coefficients call ``random()``
twice each, so no draw pays a helper call.  Child samplers for independent
checks are derived with :meth:`ElementSampler.spawn`.
"""
from __future__ import annotations

import random

from .core import BialgebraInstance, Element, Kind, _element

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
    with |re|, |im| <= 1.
    """

    def __init__(
        self,
        instance: BialgebraInstance,
        seed: int,
        budget: int = 200,
        coord_bound: int = 5,
        max_degree: int = 4,
        max_support: int = 3,
    ):
        self.instance = instance
        self.seed = int(seed)
        self.budget = int(budget)
        self.coord_bound = int(coord_bound)
        self.max_degree = int(max_degree)
        self.max_support = int(max_support)
        if self.coord_bound < 0 or self.max_degree < 0 or self.max_support < 1:
            raise ValueError("need coord_bound >= 0, max_degree >= 0 and max_support >= 1")
        self.rng = random.Random(self.seed)
        self._below = _below_on(self.rng.getrandbits)
        # a grouplike key draws each of its coordinates by rejection on
        # ``getrandbits(bits)``, as ``_below(width)`` would
        self._dim = len(instance.unit) if instance.kind is Kind.GROUPLIKE_BASIS else None
        self._width = 2 * self.coord_bound + 1
        self._bits = self._width.bit_length()
        # a graded key draws its degree below ``max_degree + 1`` and, per unit
        # of it, a generator index below the number of generators, likewise
        self._gens = len(instance.unit) if instance.kind is Kind.GRADED_CONNECTED else None
        self._gen_bits = self._gens.bit_length() if self._gens is not None else None
        self._degrees = self.max_degree + 1
        self._degree_bits = self._degrees.bit_length()
        self._finite_keys = None
        if instance.kind is Kind.FINITE:
            self._finite_keys = sorted(instance.basis_keys(), key=instance.sort_key)
            if not self._finite_keys:
                raise ValueError(f"instance {instance.name!r} has an empty basis")

    def spawn(self, salt: int) -> "ElementSampler":
        return ElementSampler(
            self.instance,
            derive_seed(self.seed, salt),
            budget=self.budget,
            coord_bound=self.coord_bound,
            max_degree=self.max_degree,
            max_support=self.max_support,
        )

    def key(self):
        if self._dim is not None:
            getrandbits, width, bits, lo = self.rng.getrandbits, self._width, self._bits, -self.coord_bound
            coords = []
            for _ in range(self._dim):
                r = getrandbits(bits)
                while r >= width:
                    r = getrandbits(bits)
                coords.append(lo + r)
            return tuple(coords)
        if self._gens is not None:
            getrandbits, n, bits, degrees = self.rng.getrandbits, self._gens, self._gen_bits, self._degrees
            d = getrandbits(self._degree_bits)
            while d >= degrees:
                d = getrandbits(self._degree_bits)
            exponents = [0] * n
            for _ in range(d):
                r = getrandbits(bits)
                while r >= n:
                    r = getrandbits(bits)
                exponents[r] += 1
            return tuple(exponents)
        keys = self._finite_keys
        return keys[self._below(len(keys))]

    def keys(self, n: int) -> tuple:
        return tuple(self.key() for _ in range(n))

    def element(self) -> Element:
        key, random_ = self.key, self.rng.random
        terms: dict = {}
        for _ in range(1 + self._below(self.max_support)):
            k = key()
            # each part is exactly what uniform(-1.0, 1.0) evaluates
            terms[k] = terms.get(k, 0j) + complex(-1.0 + 2.0 * random_(), -1.0 + 2.0 * random_())
        return _element(self.instance, terms)

    def elements(self, n: int) -> list[Element]:
        return [self.element() for _ in range(n)]
