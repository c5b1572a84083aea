"""Suite-level mutants: each row plants one defect and names the laws of ``full-report`` that must catch it.

A row monkeypatches one defect into the code the suites run, runs
``full-report`` through ``run_config`` on a config under ``tests/data``, and
asserts that each named law fails.  Unmutated, every one of those configs
passes, so a failing law is the defect's doing.

A defect is planted in every module of the package that binds the function,
so a function that another module imports by name is mutated there too.

Three cases are known and are not rows here:

* ``conv_exp`` evaluated at 1.001·t, so that μ_t is really μ_{1.001t}: every
  oscillator law passes, and on the other examples only the
  finite-difference laws fail; only the derivative laws pin the speed of t.
* S_t built at −t on the oscillator and z-cubic examples: σ = 0 there, so
  S_t = S at every t and the sign cannot show.
* σ built as L∘(S⊗id)∘Δ in place of L∘(id⊗S)∘Δ: no config that passes
  unmutated can catch it.  On a group algebra the left side of the antipode
  identity holds only with the flipped form and the right side only with σ,
  so a run passes only where the two agree, and there the mutant changes σ
  in its last bits at most.  Where they disagree the unmutated run already
  fails its ``sigma_flip`` flag, which the mutant turns into a pass; the
  σ-flip tests of ``tests/test_cli.py`` catch it there.
"""
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from hopfdeform import cohomology, convolution, core, deformation
from hopfdeform.cli import run_config
from hopfdeform.config import load_config
from hopfdeform.convolution import Cochain, tuple_counit

DATA = Path(__file__).parent / "data"

_antipode, _phi, _power = deformation.deformed_antipode, deformation.phi_map, convolution.conv_power

_SIGMA_LAWS = ["hopf:antipode_identity", "hopf:algebra_antihomomorphism",
               "hopf:sigma_derivative_h=0.001", "hopf:sigma_derivative_h=0.0001"]

_AT_MINUS_T = ("antipode_at_minus_t", deformation, "deformed_antipode", lambda D, t: _antipode(D, -t))

_coboundary = cohomology.coboundary


def _coboundary_first_sign_flipped(f, name=None):
    """∂f with its first term −δ(k₁)·f(k₂,…) in place of +δ(k₁)·f(k₂,…)."""
    d = _coboundary(f, name)
    return Cochain(f.instance, f.arity + 1,
                   lambda u: d.value(u) - 2 * tuple_counit(f.instance, u[:1]) * f.value(u[1:]), d.name)


def _star_unconjugated(a):
    """The involution extended linearly: the coefficients are not conjugated."""
    inst = a.instance
    inst.require_star()
    return core._element(inst, core._linear(a.terms.items(), inst._star_cache.__getitem__))


# (mutant, module, attribute, replacement, config, laws that must fail)
MUTANTS = [
    (*_AT_MINUS_T, "zd_matrix_small", _SIGMA_LAWS),
    (*_AT_MINUS_T, "group_hermitian_small", _SIGMA_LAWS),
    ("phi_at_abs_t", deformation, "phi_map", lambda D, t: _phi(D, abs(t)), "z_cubic_small",
     [f"trivial:t={t}:conjugation" for t in ("-1", "-0.5", "0.5", "1")]
     + ["trivial:phi_group_law", "trivial:phi_inverse", "trivial:constant_antipode_criterion"]),
    ("taylor_k2_zero", convolution, "conv_power", lambda f, k, u: 0j if k == 2 else _power(f, k, u),
     "oscillator_small", ["axioms:associativity", "axioms:coalgebra_compatibility", "axioms:counit_semigroup"]),
    # a generator that fails its validation ends the run with the validation laws alone
    ("coboundary_sign", cohomology, "coboundary", _coboundary_first_sign_flipped, "zd_matrix_small", ["cocycle"]),
    ("coboundary_sign", cohomology, "coboundary", _coboundary_first_sign_flipped, "z_cubic_small",
     ["cocycle", "witness"]),
    ("star_unconjugated", core, "star", _star_unconjugated, "group_hermitian_small", ["star:star_compatibility"]),
]


def _plant(monkeypatch, module, attribute, replacement):
    """Set ``module.attribute``, and every other package module's binding of the same function, to ``replacement``."""
    original = getattr(module, attribute)
    for name, other in list(sys.modules.items()):
        if (name == "hopfdeform" or name.startswith("hopfdeform.")) and vars(other).get(attribute) is original:
            monkeypatch.setattr(other, attribute, replacement)


def _failures(config: str) -> set:
    cfg = replace(load_config(str(DATA / f"{config}.json")), command="full-report")
    return {r.law_id for r in run_config(cfg).failures()}


@pytest.mark.parametrize("config", sorted({row[4] for row in MUTANTS}))
def test_each_mutant_config_passes_unmutated(config):
    assert _failures(config) == set()


@pytest.mark.parametrize("mutant, module, attribute, replacement, config, laws", MUTANTS,
                         ids=[f"{row[0]}-{row[4]}" for row in MUTANTS])
def test_a_mutant_fails_its_named_laws(monkeypatch, mutant, module, attribute, replacement, config, laws):
    _plant(monkeypatch, module, attribute, replacement)
    failed = _failures(config)
    assert set(laws) <= failed, (mutant, sorted(failed))
