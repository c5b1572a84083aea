"""Deformed products, conjugation semigroups, deformed antipodes, splitting.

A validated generator L (normalized commuting 2-cocycle) induces the
family of multiplications

    μ_t(a⊗b) = Σ μ(a₍₁₎⊗b₍₁₎) · e_⋆^{tL}(a₍₂₎⊗b₍₂₎),

defined for every real t.  The orientation convention fixed here and used
consistently throughout:

    L = ∂ψ  ⟺  μ_t = Φ₋t∘μ∘(Φ_t⊗Φ_t)   with Φ_t = id ⋆ e_⋆^{tψ},

so for trivial deformations σ = ψ + ψ∘S and S_t = Φ₋t∘S∘Φ₋t.  Deformed
antipodes in general are S_t = S ⋆ e_⋆^{−tσ} with σ = L∘(id⊗S)∘Δ.

The three maps are one construction, a base map convolved with a
convolution exponential: μ_t = μ ⋆ e_⋆^{tL} on the tensor square,
S_t = S ⋆ e_⋆^{−tσ} and Φ_t = id ⋆ e_⋆^{tψ}
(:func:`~hopfdeform.convolution.map_conv_exp`).  t enters only through the
scalar exponential, so each basis tuple's coproduct expansion is computed
once and shared by every t; the map for each t is still built once per
deformation and memoized there.

Every theorem-shaped statement is realized as a sampled law check that
reports a max residual against a tolerance; the verification suites never
raise on failure.  Each suite is a table of :class:`~hopfdeform.report.Law`
records, each with its own salt, cases and argument draw, and
:func:`~hopfdeform.report.run_laws` records them in table order, so reports
are deterministic for a given (seed, budget).
"""
from __future__ import annotations

from functools import partial

from .core import (
    AlgebraError,
    BialgebraInstance,
    Element,
    Kind,
    Memo,
    _INF,
    _ONE,
    _bilinear,
    _clean_terms,
    _element,
    _linear,
    _row_items,
    _row_pairs,
    _scalar,
    _tensor,
    antipode,
    comul,
    counit,
    mul,
    scale,
    star,
    tensor_apply,
)
from .convolution import (
    Cochain,
    LinMap,
    _slot_sum,
    antipode_map,
    cochain_scale,
    cochain_sub,
    conv_exp,
    identity_map,
    map_conv_exp,
    mu_n_map,
    tuple_comul_terms,
)
from .cohomology import (
    DEFAULT_TOL,
    CochainClassifier,
    GeneratorValidationError,
    coboundary,
    compose_antipode_flip,
    validate_generator,
)
from .report import Law, Report, run_laws

DEFAULT_T_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)
_FD_STEPS = (1e-3, 1e-4)
_FD_FACTOR = 10.0
# keys drawn to compare σ with its flipped form, and pairs drawn to check a
# generator and its witness (through validate_generator)
_SIGMA_FLIP_SAMPLES = 60
_VALIDATION_SAMPLES = 120


class SplitPreconditionError(AlgebraError):
    """σ ≠ σ∘S on a sample, so the constant-antipode splitting is unavailable."""


class SigmaFlipError(AlgebraError):
    """σ and its flipped form disagree on a sample, so σ is unavailable."""

    statement = "L∘(id(x)S)∘Delta = L∘(S(x)id)∘Delta"
    samples = _SIGMA_FLIP_SAMPLES


class Deformation:
    """A generator L with its instance and, for a trivial deformation, a witness ψ with ∂ψ = L.

    Carries lazily computed data (σ, and μ_t, S_t and, with ψ, Φ_t once per
    t) and the sampler used for internal consistency assertions.  Nothing is
    checked here; :func:`make_deformation` is the checked constructor.
    """

    def __init__(self, instance: BialgebraInstance, generator: Cochain,
                 classifier: CochainClassifier, sampler, witness: Cochain | None = None):
        self.instance = instance
        self.generator = generator
        self.classifier = classifier
        self.witness = witness
        self._sampler = sampler
        # σ once computed, or the SigmaFlipError that computing it raised
        self._sigma: Cochain | SigmaFlipError | None = None
        self._mul_maps = map_conv_exp(mu_n_map(instance, 2), generator)
        # S ⋆ e_⋆^{sσ} per s, built on first use since σ is computed lazily
        self._antipode_maps: Memo | None = None
        self._phis = None if witness is None else map_conv_exp(identity_map(instance), witness)

    def sigma(self) -> Cochain:
        """σ = L∘(id⊗S)∘Δ; the flipped form L∘(S⊗id)∘Δ must agree.

        A disagreement is kept and raised again on every later call.
        """
        if self._sigma is None:
            try:
                self._sigma = sigma_functional(self, self._sampler.spawn(23))
            except SigmaFlipError as exc:
                self._sigma = exc
        if isinstance(self._sigma, SigmaFlipError):
            raise self._sigma
        return self._sigma

    def __repr__(self):
        return f"Deformation({self.generator.name!r} on {self.instance.name!r})"


def make_deformation(
    instance: BialgebraInstance,
    L: Cochain,
    sampler,
    require_star: bool = False,
    witness: Cochain | None = None,
) -> Deformation:
    """Validate L, and the witness ψ when given, and wrap them; raises :class:`GeneratorValidationError`
    when L is no generator, ψ is not normalized (checked exactly) or the sampled ∂ψ = L misses or is NaN."""
    if L.instance is not instance:
        raise AlgebraError("generator belongs to a different instance")
    classifier = validate_generator(
        L, sampler, require_star=require_star, witness=witness, samples=_VALIDATION_SAMPLES
    )
    if not classifier.is_generator(require_star=require_star):
        raise GeneratorValidationError(
            f"cochain {L.name!r} is not a deformation generator: {classifier.to_dict()}"
        )
    if witness is not None:
        if not witness.is_normalized:
            raise GeneratorValidationError("witness is not normalized")
        if not classifier.witness_matches:
            raise GeneratorValidationError(
                f"coboundary of the witness misses the generator by {classifier.residuals['witness']:.3e}"
            )
    return Deformation(instance, L, classifier, sampler, witness)


# -- deformed structure maps ----------------------------------------------------


def deformed_mul_pair(D: Deformation, t: float, ka, kb) -> Element:
    """μ_t on a pair of basis keys."""
    return D._mul_maps[t].value((ka, kb))


def deformed_mul(D: Deformation, t: float, a: Element, b: Element) -> Element:
    """μ_t(a⊗b); an operand of another instance raises :class:`~hopfdeform.core.InstanceMismatchError`."""
    return D._mul_maps[t].on_pair(a, b)


def deformed_mul_map(D: Deformation, t: float) -> LinMap:
    """μ_t = μ ⋆ e_⋆^{tL} on the tensor square, built once per t."""
    return D._mul_maps[t]


def _deformed_mul_square(D: Deformation, t: float, s: float, a: Element, b: Element) -> dict:
    """(μ_t⊗μ_s)∘Λ on a⊗b as a terms dict; each term is (((ca·cb)·c)·w₁)·w₂.

    Λ on each basis pair comes from ``tuple_comul_terms``, which reads it
    from the coproduct rows and keeps it nowhere (c = ((1+0j)·c₁)·c₂).  The
    tables of μ_t and μ_s are bound once and read directly.
    """
    inst = D.instance
    mu_t, mu_s = D._mul_maps[t]._cache, D._mul_maps[s]._cache
    acc: dict = {}
    b_items = b.terms.items()
    for ka, ca in a.terms.items():
        for kb, cb in b_items:
            cab = ca * cb
            for left, right, c in tuple_comul_terms(inst, (ka, kb)):
                w = cab * c
                row1, row2 = mu_t[left], mu_s[right]
                for k1, w1 in row1:
                    ww = w * w1
                    for k2, w2 in row2:
                        key = (k1, k2)
                        cur = acc.get(key)
                        acc[key] = ww * w2 if cur is None else cur + ww * w2
    return acc


def _antipode_sides(D: Deformation, t: float, a: Element) -> tuple[dict, dict]:
    """μ_t∘(S_t⊗id)∘Δ(a) and μ_t∘(id⊗S_t)∘Δ(a) as terms dicts, summed leg by leg.

    A leg c·k₁⊗k₂ of Δ(a) adds c·μ_t(S_t(k₁)⊗k₂) to the left side and
    c·μ_t(k₁⊗S_t(k₂)) to the right, read from the S_t and μ_t tables.  Each
    product of the element chain S_t(e₁), μ_t(·⊗e₂), c·(·), side + (·) is
    kept, the coefficient 1+0j of the basis elements e = 1·k included, and
    each dict is cleaned where that chain built an element, so every
    coefficient has the chain's bits.
    """
    prune = D.instance.prune_eps
    s_t, mu_t = deformed_antipode(D, t)._cache, D._mul_maps[t]._cache
    lhs: dict = {}
    rhs: dict = {}
    if not 1.0 >= prune:  # every basis element 1·k is pruned to zero, and with it every leg
        return lhs, rhs
    for (k1, k2), c in comul(a).terms.items():
        s1 = _clean_terms({key: _ONE * w for key, w in s_t[k1]}, prune)
        _add_scaled(lhs, c, _bilinear(s1.items(), ((k2, _ONE),), mu_t), prune)
        s2 = _clean_terms({key: _ONE * w for key, w in s_t[k2]}, prune)
        _add_scaled(rhs, c, _bilinear(((k1, _ONE),), s2.items(), mu_t), prune)
    return lhs, rhs


def _add_scaled(acc: dict, c: complex, terms: dict, prune: float) -> None:
    """Add c·terms into ``acc``, cleaning ``terms``, the scaled dict and ``acc`` as the elements were.

    ``acc`` is clean before the leg, so only the keys the leg touches are
    checked; a non-finite one sends ``acc`` through :func:`_clean_terms`,
    which names the first non-finite coefficient in its dict order.
    """
    scaled = _clean_terms({k: c * v for k, v in _clean_terms(terms, prune).items()}, prune)
    for key, v in scaled.items():
        cur = acc.get(key)
        acc[key] = v if cur is None else cur + v
    pruned = []
    for key in scaled:
        try:
            size = abs(acc[key])
        except OverflowError:  # both parts finite, the modulus is not
            size = _INF
        if not size < _INF:
            _clean_terms(acc, prune)  # raises
        if not size >= prune:
            pruned.append(key)
    for key in pruned:
        del acc[key]


def _flipped_antipodes(D: Deformation, t: float, r: float, a: Element) -> dict:
    """(S_t⊗S_r)∘τ∘Δ(a) as a terms dict.

    A leg c·k₁⊗k₂ of Δ(a) adds c·(S_t(k₂)⊗S_r(k₁)), read from the tables.
    """
    s_t, s_r = deformed_antipode(D, t)._cache, deformed_antipode(D, r)._cache
    return _row_pairs((c, s_t[k2], s_r[k1]) for (k1, k2), c in comul(a).terms.items())


def _sigma_sides(sig: Cochain, a: Element) -> tuple[dict, dict]:
    """(σ⊗id)∘Δ(a) and (id⊗σ)∘Δ(a) as terms dicts.

    A leg c·k₁⊗k₂ of Δ(a) adds c·σ(k₁) at k₂ to the left side and c·σ(k₂) at
    k₁ to the right one, read from σ's table; the left side is summed over
    every leg before the right one.
    """
    values = sig._cache
    legs = comul(a).terms.items()
    return (_linear(legs, lambda ks: ((ks[1], values[ks[:1]]),)),
            _linear(legs, lambda ks: ((ks[0], values[ks[1:]]),)))


def _sigma_cochains(D: Deformation) -> tuple[Cochain, Cochain]:
    """σ = L∘(id⊗S)∘Δ and its flipped form L∘(S⊗id)∘Δ.

    Each sums c·L(k₁⊗k₂) over the legs of Δ(a) from the coproduct table,
    with S's row on one slot, through the slot loop of
    :meth:`~hopfdeform.convolution.Cochain.eval_mixed`.
    """
    inst = D.instance
    inst.require_antipode()
    L = D.generator
    value, coproducts, antipodes = L.value, inst._comul_pairs, inst._antipode_cache

    def rule(s_slot, keys):
        total = 0j
        for pair, c in coproducts[keys[0]]:
            slots = [_row_items(inst, antipodes[k]) if i == s_slot else ((k, _ONE),) for i, k in enumerate(pair)]
            total += c * _slot_sum(value, slots)
        return total

    return (Cochain(inst, 1, partial(rule, 1), name=f"sigma[{L.name}]"),
            Cochain(inst, 1, partial(rule, 0), name=f"sigma_flip[{L.name}]"))


def sigma_functional(D: Deformation, sampler) -> Cochain:
    """σ(a) = Σ L(a₍₁₎ ⊗ S(a₍₂₎)); asserts agreement with the flipped form."""
    sig, flip = _sigma_cochains(D)
    res = Law("sigma_flip", SigmaFlipError.statement, lambda _, k: abs(sig.value(k) - flip.value(k)),
              DEFAULT_TOL, per_case=_SIGMA_FLIP_SAMPLES, draw=lambda s: (s.keys(1),)).fold(sampler)[1]
    if not res <= DEFAULT_TOL:
        raise SigmaFlipError(f"sigma and its flipped form disagree by {res:.3e}")
    return sig


def deformed_antipode(D: Deformation, t: float) -> LinMap:
    """S_t = S ⋆ e_⋆^{−tσ}, built once per t."""
    if D._antipode_maps is None:
        D._antipode_maps = map_conv_exp(antipode_map(D.instance), D.sigma())
    return D._antipode_maps[-t]


def phi_map(D: Deformation, t: float) -> LinMap:
    """Φ_t = id ⋆ e_⋆^{tψ}, the conjugating one-parameter group of D's witness ψ, built once per t."""
    if D._phis is None:
        raise AlgebraError(f"{D!r} has no witness, so no Φ_t")
    return D._phis[t]


# -- verification suites ---------------------------------------------------------


def _grid_pairs(t_grid):
    return [(t, s) for t in t_grid for s in t_grid]


def _per_case(samples: int, cases: int) -> int:
    return max(1, samples // max(1, cases))


def check_deformation_axioms(
    D: Deformation,
    sampler,
    t_grid=DEFAULT_T_GRID,
    samples: int = 200,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Unitality, associativity, coalgebra compatibility, counit semigroup,
    and recovery of the generator as the derivative of δ∘μ_t at 0."""
    inst = D.instance
    L = D.generator
    one = inst.unit_element()

    def unitality(t, a):
        return deformed_mul(D, t, one, a).distance(a), deformed_mul(D, t, a, one).distance(a)

    def associativity(t, a, b, c):
        lhs = deformed_mul(D, t, deformed_mul(D, t, a, b), c)
        return lhs.distance(deformed_mul(D, t, a, deformed_mul(D, t, b, c)))

    def coalgebra_compatibility(ts, a, b):
        t, s = ts
        lhs = comul(deformed_mul(D, t + s, a, b))

        return lhs.distance(_tensor(inst, 2, _deformed_mul_square(D, t, s, a, b)))

    def counit_semigroup(ts, u):
        t, s = ts
        lhs = conv_exp(L, t + s, u)
        legs = tuple_comul_terms(inst, u)
        return abs(lhs - _scalar(c * conv_exp(L, t, left) * conv_exp(L, s, right) for left, right, c in legs))

    def generator_derivative(h, _, u):
        a = Element(inst, {u[0]: 1.0})
        b = Element(inst, {u[1]: 1.0})
        # μ_h(a⊗b) read from μ_h's table, each term (1·1)·w as deformed_mul sums it;
        # a or b is zero when prune_eps exceeds 1
        ab = scale(_ONE, deformed_mul_pair(D, h, *u)) if a.terms and b.terms else inst.zero_element()
        fd = (counit(ab) - counit(a) * counit(b)) / h
        return abs(fd - L.value(u))

    per = _per_case(samples, len(t_grid))
    pairs = _grid_pairs(t_grid)
    per_pair = _per_case(samples, len(pairs))
    report = Report(name=f"deformation_axioms:{L.name}")
    run_laws(report, sampler, [
        Law("unitality", "mu_t(1(x)a) = a = mu_t(a(x)1)", unitality, 1e-12,
            cases=t_grid, per_case=per, salt=101, draw=lambda s: (s.element(),)),
        Law("associativity", "mu_t(mu_t(a(x)b)(x)c) = mu_t(a(x)mu_t(b(x)c))", associativity, tol,
            cases=t_grid, per_case=per, salt=103, draw=lambda s: (s.element(), s.element(), s.element())),
        Law("coalgebra_compatibility", "Delta∘mu_{t+s} = (mu_t(x)mu_s)∘Lambda", coalgebra_compatibility, tol,
            cases=pairs, per_case=per_pair, salt=107, draw=lambda s: (s.element(), s.element())),
        Law("counit_semigroup", "delta∘mu_{t+s} = (delta∘mu_t) ⋆ (delta∘mu_s)", counit_semigroup, tol,
            cases=pairs, per_case=per_pair, salt=109, draw=lambda s: (s.keys(2),)),
        *(
            Law(f"generator_derivative_h={h:g}", "(delta∘mu_h − delta(x)delta)/h → L as h → 0",
                partial(generator_derivative, h), _FD_FACTOR * h,
                per_case=samples, salt=113, draw=lambda s: (s.keys(2),))
            for h in _FD_STEPS
        ),
    ])
    return report


def check_hopf_deformation(
    D: Deformation,
    sampler,
    t_grid=DEFAULT_T_GRID,
    samples: int = 200,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Deformed antipode laws: two-sided ⋆_t-inverse of the identity,
    unitality, anti(co)homomorphism, the cocommutative involution, and the
    transport of e_⋆^{tL} into e_⋆^{tσ} through (id⊗S)∘Δ.

    The two-sided inverse check doubles as the uniqueness statement: left
    and right convolution inverses of the identity under ⋆_t coincide, and
    S_t realizes both.
    """
    inst = D.instance
    inst.require_antipode()
    one = inst.unit_element()
    L = D.generator
    sig = D.sigma()
    antipode_row = inst._antipode_cache.__getitem__

    def antipode_identity(t, a):
        target = scale(counit(a), one)
        lhs, rhs = _antipode_sides(D, t, a)
        return _element(inst, lhs).distance(target), _element(inst, rhs).distance(target)

    def antipode_unit(t):
        return deformed_antipode(D, t)(one).distance(one)

    def antipode_at_zero(t, a):
        return deformed_antipode(D, t)(a).distance(antipode(a))

    def algebra_antihomomorphism(t, a, b):
        St = deformed_antipode(D, t)
        return St(deformed_mul(D, -t, a, b)).distance(deformed_mul(D, t, St(b), St(a)))

    def coalgebra_antihomomorphism(tr, a):
        t, r = tr
        lhs = comul(deformed_antipode(D, t + r)(a))
        return lhs.distance(_tensor(inst, 2, _flipped_antipodes(D, t, r, a)))

    def cocommutative_involution(t, a):
        return deformed_antipode(D, t)(deformed_antipode(D, -t)(a)).distance(a)

    def exp_transport(t, a):
        transported = tensor_apply(comul(a), (None, antipode_row))
        lhs = _scalar(transported.terms.items(), lambda keys: conv_exp(L, t, keys))
        return abs(lhs - _scalar(a.terms.items(), lambda k: conv_exp(sig, t, (k,))))

    def sigma_commuting(_, a):
        lhs, rhs = _sigma_sides(sig, a)
        return _element(inst, lhs).distance(_element(inst, rhs))

    def sigma_derivative(h, _, u):
        a = Element(inst, {u[0]: 1.0})
        fd = (counit(deformed_antipode(D, h)(a)) - counit(antipode(a))) / h
        return abs(fd + sig.value(u))

    per = _per_case(samples, len(t_grid))
    pairs = _grid_pairs(t_grid)
    report = Report(name=f"hopf_deformation:{L.name}")
    run_laws(report, sampler, [
        Law("antipode_identity",
            "mu_t∘(S_t(x)id)∘Delta = delta·1 = mu_t∘(id(x)S_t)∘Delta (two-sided inverse)",
            antipode_identity, tol, cases=t_grid, per_case=per, salt=201, draw=lambda s: (s.element(),)),
        Law("antipode_unit", "S_t(1) = 1", antipode_unit, 1e-12, cases=t_grid),
        Law("antipode_at_zero", "S_0 = S", antipode_at_zero, 1e-12,
            cases=(0.0,), per_case=max(1, samples // 4), salt=203, draw=lambda s: (s.element(),)),
        Law("algebra_antihomomorphism", "S_t∘mu_{−t} = mu_t∘(S_t(x)S_t)∘tau", algebra_antihomomorphism, tol,
            cases=t_grid, per_case=per, salt=205, draw=lambda s: (s.element(), s.element())),
        Law("coalgebra_antihomomorphism", "Delta∘S_{t+r} = (S_t(x)S_r)∘tau∘Delta", coalgebra_antihomomorphism,
            tol, cases=pairs, per_case=_per_case(samples, len(pairs)), salt=207, draw=lambda s: (s.element(),)),
        *(
            [Law("cocommutative_involution", "S_t∘S_{−t} = id", cocommutative_involution, tol,
                 cases=t_grid, per_case=per, salt=209, draw=lambda s: (s.element(),))]
            if inst.cocommutative else []
        ),
        Law("exp_transport", "e_⋆^{tL}∘(id(x)S)∘Delta = e_⋆^{tσ}", exp_transport, tol,
            cases=t_grid, per_case=per, salt=211, draw=lambda s: (s.element(),)),
        Law("sigma_commuting", "(σ(x)id)∘Delta = (id(x)σ)∘Delta", sigma_commuting, tol,
            per_case=samples, salt=213, draw=lambda s: (s.element(),)),
        Law("sigma_normalized", "σ(1) = 0", lambda _: abs(sig.value((inst.unit,))), 0.0),
        *(
            Law(f"sigma_derivative_h={h:g}", "(delta∘S_h − delta∘S)/h → −σ as h → 0",
                partial(sigma_derivative, h), _FD_FACTOR * h,
                per_case=max(1, samples // 2), salt=215, draw=lambda s: (s.keys(1),))
            for h in _FD_STEPS
        ),
    ])
    return report


def check_trivial_conjugation(
    D: Deformation,
    t: float,
    sampler,
    samples: int = 100,
    tol: float = DEFAULT_TOL,
) -> Report:
    """μ_t as conjugation of μ by Φ_t, plus the commutation of Φ_t with Δ."""

    def conjugation(t, a, b):
        lhs = deformed_mul(D, t, a, b)
        phi_t = phi_map(D, t)
        return lhs.distance(phi_map(D, -t)(mul(phi_t(a), phi_t(b))))

    def intertwining(t, a):
        phi = phi_map(D, t)._cache.__getitem__
        u = comul(a)
        return tensor_apply(u, (phi, None)).distance(tensor_apply(u, (None, phi)))

    report = Report(name=f"trivial_conjugation:{D.generator.name}@t={t:g}")
    run_laws(report, sampler, [
        Law("conjugation", "mu_t(a(x)b) = Phi_{−t}(mu(Phi_t(a)(x)Phi_t(b)))", conjugation, tol,
            cases=(t,), per_case=samples, salt=301, draw=lambda s: (s.element(), s.element())),
        Law("intertwining", "(Phi_t(x)id)∘Delta = (id(x)Phi_t)∘Delta", intertwining, tol,
            cases=(t,), per_case=samples, salt=303, draw=lambda s: (s.element(),)),
    ])
    return report


def check_trivial_deformation(
    D: Deformation,
    sampler,
    t_grid=DEFAULT_T_GRID,
    samples: int = 200,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Full trivial-deformation suite: conjugation per grid point, the
    one-parameter group laws of Φ, the antipode conjugation formula, the
    witness formula for σ, and the constant-antipode criterion; D needs a witness."""
    inst = D.instance
    report = Report(name=f"trivial_deformation:{D.generator.name}")
    one = inst.unit_element()
    per = _per_case(samples, len(t_grid))

    for i, t in enumerate(t_grid):
        sub = check_trivial_conjugation(D, t, sampler.spawn(310 + i), per, tol)
        report.merge(sub, prefix=f"t={t:g}:")

    def phi_group_law(ts, a):
        t, s = ts
        return phi_map(D, t)(phi_map(D, s)(a)).distance(phi_map(D, t + s)(a))

    pairs = _grid_pairs(t_grid)
    run_laws(report, sampler, [
        Law("phi_unit", "Phi_t(1) = 1", lambda t: phi_map(D, t)(one).distance(one), 1e-12, cases=t_grid),
        Law("phi_group_law", "Phi_t∘Phi_s = Phi_{t+s}", phi_group_law, tol,
            cases=pairs, per_case=_per_case(samples, len(pairs)), salt=331, draw=lambda s: (s.element(),)),
        Law("phi_inverse", "Phi_t∘Phi_{−t} = id", lambda t, a: phi_map(D, t)(phi_map(D, -t)(a)).distance(a),
            tol, cases=t_grid, per_case=per, salt=337, draw=lambda s: (s.element(),)),
    ])
    if not inst.has_antipode:
        return report

    sig = D.sigma()
    psi = D.witness

    def antipode_conjugation(t, a):
        phi_mt = phi_map(D, -t)
        return deformed_antipode(D, t)(a).distance(phi_mt(antipode(phi_mt(a))))

    def sigma_witness_formula(_, k):
        rhs = psi.value(k) + _slot_sum(psi.value, [_row_items(inst, inst._antipode_cache[k[0]])])
        return abs(sig.value(k) - rhs)

    run_laws(report, sampler, [
        Law("antipode_conjugation", "S_t = Phi_{−t}∘S∘Phi_{−t}", antipode_conjugation, tol,
            cases=t_grid, per_case=per, salt=341, draw=lambda s: (s.element(),)),
        Law("sigma_witness_formula", "σ = ψ + ψ∘S", sigma_witness_formula, tol,
            per_case=samples, salt=347, draw=lambda s: (s.keys(1),)),
    ])

    const_elems = sampler.spawn(353).elements(max(1, samples // max(1, len(t_grid))))
    const_cases = [(t, a) for t in t_grid for a in const_elems]

    def s_t_minus_s(case):
        t, a = case
        return deformed_antipode(D, t)(a).distance(antipode(a))

    def s_phi_commutation(case):
        t, a = case
        return antipode(phi_map(D, t)(a)).distance(phi_map(D, -t)(antipode(a)))

    res_const = Law("s_t_minus_s", "S_t = S", s_t_minus_s, tol, cases=const_cases).fold(sampler)[1]
    res_crit = Law("s_phi_commutation", "S∘Phi_t = Phi_{−t}∘S", s_phi_commutation, tol,
                   cases=const_cases).fold(sampler)[1]
    constant = res_const <= tol
    criterion = res_crit <= tol
    report.add_flag(
        "constant_antipode_criterion",
        "S_t = S for all grid t  iff  S∘Phi_t = Phi_{−t}∘S",
        constant == criterion,
        samples=len(const_elems) * len(t_grid),
    )
    report.extras["antipodes_constant"] = constant
    report.extras["criterion_residuals"] = {
        "s_t_minus_s": res_const,
        "s_phi_commutation": res_crit,
    }
    return report


def star_deformation_check(
    D: Deformation,
    sampler,
    t_grid=DEFAULT_T_GRID,
    samples: int = 200,
    tol: float = DEFAULT_TOL,
) -> Report:
    """(μ_t(a⊗b))* = μ_t(b*⊗a*) on samples, for each grid t."""
    D.instance.require_star()

    def star_compatibility(t, a, b):
        return star(deformed_mul(D, t, a, b)).distance(deformed_mul(D, t, star(b), star(a)))

    report = Report(name=f"star_deformation:{D.generator.name}")
    run_laws(report, sampler, [
        Law("star_compatibility", "(mu_t(a(x)b))* = mu_t(b*(x)a*)", star_compatibility, tol,
            cases=t_grid, per_case=_per_case(samples, len(t_grid)), salt=401,
            draw=lambda s: (s.element(), s.element())),
    ])
    return report


def split_cocommutative(
    D: Deformation,
    sampler,
    t_grid=DEFAULT_T_GRID,
    samples: int = 200,
    tol: float = DEFAULT_TOL,
    strict_tol: float = 1e-12,
):
    """Split L into ½∂σ and a part generating constant antipodes.

    Returns (L1, L2, report) with L1 = ½∂σ and L2 = L − L1.  Requires
    σ = σ∘S on samples (automatic for cocommutative instances); a failing
    sample raises :class:`SplitPreconditionError` naming the witness.
    """
    inst = D.instance
    inst.require_antipode()
    L = D.generator
    sig = D.sigma()

    s_pre = sampler.spawn(501)
    for _ in range(samples):
        k = s_pre.keys(1)
        lhs = sig.value(k)
        rhs = _slot_sum(sig.value, [_row_items(inst, inst._antipode_cache[k[0]])])
        if not abs(lhs - rhs) <= tol:
            raise SplitPreconditionError(
                f"sigma(S(a)) differs from sigma(a) by {abs(lhs - rhs):.3e} "
                f"at basis key {inst.key_str(k[0])}"
            )

    dsig = coboundary(sig)
    L1 = cochain_scale(0.5, dsig, name=f"half_d_sigma[{L.name}]")
    L2 = cochain_sub(L, L1, name=f"constant_part[{L.name}]")

    report = Report(name=f"split:{L.name}")
    report.add_flag("sigma_circ_s", "σ = σ∘S on samples", True, samples=samples)

    lss = compose_antipode_flip(L)
    run_laws(report, sampler, [
        Law("coboundary_of_sigma", "∂σ = L + L∘(S(x)S)∘tau",
            lambda _, u: abs(dsig.value(u) - (L.value(u) + lss.value(u))), tol,
            per_case=samples, salt=503, draw=lambda s: (s.keys(2),)),
        Law("parts_sum", "L1 + L2 = L exactly", lambda _, u: abs(L1.value(u) + L2.value(u) - L.value(u)), 0.0,
            per_case=samples, salt=509, draw=lambda s: (s.keys(2),)),
    ])

    classifier2 = validate_generator(L2, sampler.spawn(511), samples=samples, tol=tol)
    report.add_flag(
        "l2_generator",
        "L2 = L − ½∂σ validates as a deformation generator",
        classifier2.is_generator(),
        samples=samples,
    )

    def l2_constant_antipodes(case):
        t, a = case
        return deformed_antipode(D2, t)(a).distance(antipode(a))

    D2 = Deformation(inst, L2, classifier2, sampler.spawn(513))
    sig2 = D2.sigma()
    const_elems = sampler.spawn(519).elements(max(1, samples // max(1, len(t_grid))))
    run_laws(report, sampler, [
        Law("l2_sigma_zero", "σ of the L2 deformation vanishes", lambda _, k: abs(sig2.value(k)), tol,
            per_case=samples, salt=517, draw=lambda s: (s.keys(1),)),
        Law("l2_constant_antipodes", "the L2 deformation has S_t = S", l2_constant_antipodes, tol,
            cases=[(t, a) for t in t_grid for a in const_elems]),
    ])

    for law_id, statement, residual in (
        ("l1_is_zero", "L1 = 0", lambda _, u: abs(L1.value(u))),
        ("l2_equals_l", "L2 = L", lambda _, u: abs(L2.value(u) - L.value(u))),
        ("constant_antipodes", "σ = 0", lambda _, u: abs(sig.value(u[:1]))),
    ):
        law = Law(law_id, statement, residual, tol, per_case=samples, salt=523, draw=lambda s: (s.keys(2),))
        report.extras[law_id] = law.fold(sampler)[1] <= tol
    report.extras["trivial"] = bool(D.classifier.witness_matches)

    if inst.kind is Kind.GROUPLIKE_BASIS and inst.has_star and D.classifier.hermitian:
        # on group algebras S agrees with * on the basis, so L1 is the real
        # part of L and the retained skew part is purely imaginary there
        run_laws(report, sampler, [
            Law("skew_part_imaginary", "hermitian L leaves a purely imaginary L2 on the basis",
                lambda _, u: abs(L2.value(u).real), strict_tol,
                per_case=samples, salt=529, draw=lambda s: (s.keys(2),)),
        ])

    return L1, L2, report
