"""Hochschild cochain calculus for the trivial bimodule given by the counit.

The coboundary of an n-cochain f is

    ∂f(a₁,…,aₙ₊₁) = δ(a₁)f(a₂,…,aₙ₊₁)
                    + Σᵢ (−1)ⁱ f(a₁,…,aᵢaᵢ₊₁,…,aₙ₊₁)
                    + (−1)ⁿ⁺¹ f(a₁,…,aₙ)δ(aₙ₊₁)

with the signs taken verbatim, no renormalization.  A cochain is
normalized when its value on the all-units tuple is 0, checked exactly;
the residuals below measure how far it is from commuting
(f ⋆ μ⁽ⁿ⁾ = μ⁽ⁿ⁾ ⋆ f), from a cocycle (∂f = 0) and from hermitian
(f̃ = ±f with the ceil(n/2) parity sign), each on sampled basis tuples.
Sampling never proves anything; :func:`validate_generator` compares the
residuals with a configured tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import AlgebraError, _ONE, _row_items
from .convolution import (
    Cochain,
    _slot_sum,
    functional_conv_map,
    map_conv_functional,
    mu_n_map,
    tuple_counit,
)
from .report import Law

DEFAULT_TOL = 1e-8
DEFAULT_SAMPLES = 200


def coboundary(f: Cochain, name=None) -> Cochain:
    """The Hochschild coboundary ∂f, evaluated lazily per basis tuple.

    Each inner term is f on the tuple with one product row in a slot,
    summed in one pass over that row from ``0j``: a row term's weight is its
    coefficient c, and a term with c = 0 (kept only at prune 0) is skipped,
    so inf·0 is never formed.  The slot loop of :meth:`Cochain.eval_mixed`
    would weigh it ``(1+0j)·c·(1+0j)⋯``; c is finite, so those factors change
    at most a zero's sign, which the ``0j``-started sum drops.  The first and
    last terms keep ``0j + (1+0j)·f(…)``: on a value of f, ``(1+0j)·`` can
    turn an infinite part into NaN and ``0j +`` can change a zero's sign.
    """
    inst = f.instance
    n = f.arity
    value, products, counits = f.value, inst._mul_cache, inst._counit_cache

    def rule(keys):
        total = tuple_counit(inst, keys[:1]) * (0j + _ONE * value(keys[1:]))
        sign = 1.0
        for i in range(1, n + 1):
            sign = -sign
            before, after = keys[: i - 1], keys[i + 1 :]
            term = 0j
            for key, c in _row_items(inst, products[keys[i - 1], keys[i]]):
                if c != 0:
                    term += c * value(before + (key,) + after)
            total += sign * term
        total += -sign * (0j + _ONE * value(keys[:n])) * counits[keys[n]]
        return total

    return Cochain(inst, n + 1, rule, name or f"d({f.name})")


def hermitian_conjugate(f: Cochain, name=None) -> Cochain:
    """f̃(a₁⊗…⊗aₙ) = conj f(aₙ*⊗…⊗a₁*)."""
    inst = f.instance
    inst.require_star()
    value, stars = f.value, inst._star_cache

    def rule(keys):
        return _slot_sum(value, [_row_items(inst, stars[k]) for k in reversed(keys)]).conjugate()

    return Cochain(inst, f.arity, rule, name or f"~{f.name}")


def hermitian_sign(arity: int) -> int:
    """+1 when ceil(n/2) is odd (n = 1,2,5,6,…), −1 otherwise."""
    return 1 if math.ceil(arity / 2) % 2 == 1 else -1


def compose_antipode_flip(f: Cochain, name=None) -> Cochain:
    """f∘(S⊗S)∘τ on pairs: (a,b) ↦ f(S(b), S(a))."""
    inst = f.instance
    inst.require_antipode()
    if f.arity != 2:
        raise ValueError("compose_antipode_flip expects an arity-2 cochain")
    value, antipodes = f.value, inst._antipode_cache

    def rule(keys):
        return _slot_sum(value, [_row_items(inst, antipodes[keys[1]]), _row_items(inst, antipodes[keys[0]])])

    return Cochain(inst, 2, rule, name or f"({f.name}∘(S(x)S)∘tau)")


# -- residuals ----------------------------------------------------------------


def commuting_residual(f: Cochain, sampler, samples: int = DEFAULT_SAMPLES) -> float:
    """max ‖(f⋆μ⁽ⁿ⁾ − μ⁽ⁿ⁾⋆f)(u)‖∞ over sampled basis tuples."""
    mu_n = mu_n_map(f.instance, f.arity)
    lhs = functional_conv_map(f, mu_n)
    rhs = map_conv_functional(mu_n, f)
    return Law("commuting", "f ⋆ mul = mul ⋆ f", lambda _, u: lhs.value(u).distance(rhs.value(u)), DEFAULT_TOL,
               per_case=samples, draw=lambda s: (s.keys(f.arity),)).fold(sampler)[1]


def cocycle_residual(f: Cochain, sampler, samples: int = DEFAULT_SAMPLES) -> float:
    df = coboundary(f)
    return Law("cocycle", "∂f = 0", lambda _, u: abs(df.value(u)), DEFAULT_TOL,
               per_case=samples, draw=lambda s: (s.keys(f.arity + 1),)).fold(sampler)[1]


def hermitian_residual(f: Cochain, sampler, samples: int = DEFAULT_SAMPLES) -> float:
    sign = hermitian_sign(f.arity)
    tilde = hermitian_conjugate(f)
    return Law("hermitian", "f̃ = ±f", lambda _, u: abs(tilde.value(u) - sign * f.value(u)), DEFAULT_TOL,
               per_case=samples, draw=lambda s: (s.keys(f.arity),)).fold(sampler)[1]


@dataclass
class CochainClassifier:
    """Outcome of the generator checks; flags are sampled, not proven."""

    normalized: bool
    commuting: bool
    cocycle: bool
    hermitian: bool | None = None
    witness_matches: bool | None = None
    residuals: dict = field(default_factory=dict)

    def is_generator(self, require_star: bool = False) -> bool:
        ok = self.normalized and self.commuting and self.cocycle
        if require_star:
            ok = ok and bool(self.hermitian)
        return ok

    def to_dict(self) -> dict:
        return {
            "normalized": self.normalized,
            "commuting": self.commuting,
            "cocycle": self.cocycle,
            "hermitian": self.hermitian,
            "has_witness": bool(self.witness_matches),
            "witness_matches": self.witness_matches,
            "residuals": dict(sorted(self.residuals.items())),
        }


class GeneratorValidationError(Exception):
    """A cochain offered as a deformation generator failed validation."""


def validate_generator(
    L: Cochain,
    sampler,
    require_star: bool = False,
    witness: Cochain | None = None,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
) -> CochainClassifier:
    """Classify an arity-2 cochain as deformation generator.

    Never raises on failed checks; callers inspect the flags.  A witness
    ψ, when supplied, is accepted when ∂ψ matches L on the samples; one of
    arity ≠ 1 or on another instance raises :class:`AlgebraError` before
    anything is drawn.
    """
    if L.arity != 2:
        raise ValueError("deformation generators have arity 2")
    if witness is not None and (witness.arity != 1 or witness.instance is not L.instance):
        raise AlgebraError("witness must be an arity-1 functional on the generator's instance")
    if require_star:
        L.instance.require_star()

    residuals: dict = {}
    normalized = L.is_normalized
    c_res = commuting_residual(L, sampler.spawn(11), samples)
    residuals["commuting"] = c_res
    z_res = cocycle_residual(L, sampler.spawn(13), samples)
    residuals["cocycle"] = z_res

    hermitian = None
    if L.instance.has_star:
        h_res = hermitian_residual(L, sampler.spawn(17), samples)
        residuals["hermitian"] = h_res
        hermitian = h_res <= tol

    witness_matches = None
    if witness is not None:
        dw = coboundary(witness)
        w_res = Law("witness", "∂ψ = L", lambda _, u: abs(dw.value(u) - L.value(u)), tol,
                    per_case=samples, salt=19, draw=lambda s: (s.keys(2),)).fold(sampler)[1]
        residuals["witness"] = w_res
        witness_matches = w_res <= tol

    return CochainClassifier(
        normalized=normalized,
        commuting=c_res <= tol,
        cocycle=z_res <= tol,
        hermitian=hermitian,
        witness_matches=witness_matches,
        residuals=residuals,
    )

