"""Suite-level mutants: each row plants one defect and names the laws of ``full-report`` that must catch it.

A row monkeypatches one defect into the code the suites run, runs
``full-report`` through ``run_config`` on a config under ``tests/data``, and
asserts that each named law fails.  Unmutated, every one of those configs
passes, so a failing law is the defect's doing.

Two gaps are known and are not rows here, since no law catches them yet:

* ``conv_exp`` evaluated at 1.001·t, so that μ_t is really μ_{1.001t}: every
  oscillator law passes, and on the other examples only the
  finite-difference laws fail; only the derivative laws pin the speed of t.
* S_t built at −t on the oscillator and z-cubic examples: σ = 0 there, so
  S_t = S at every t and the sign cannot show.
"""
from dataclasses import replace
from pathlib import Path

import pytest

from hopfdeform import convolution, deformation
from hopfdeform.cli import run_config
from hopfdeform.config import load_config

DATA = Path(__file__).parent / "data"

_antipode, _phi, _power = deformation.deformed_antipode, deformation.phi_map, convolution.conv_power

_SIGMA_LAWS = ["hopf:antipode_identity", "hopf:algebra_antihomomorphism",
               "hopf:sigma_derivative_h=0.001", "hopf:sigma_derivative_h=0.0001"]

_AT_MINUS_T = ("antipode_at_minus_t", deformation, "deformed_antipode", lambda D, t: _antipode(D, -t))

# (mutant, module, attribute, replacement, config, laws that must fail)
MUTANTS = [
    (*_AT_MINUS_T, "zd_matrix_small", _SIGMA_LAWS),
    (*_AT_MINUS_T, "group_hermitian_small", _SIGMA_LAWS),
    ("phi_at_abs_t", deformation, "phi_map", lambda D, t: _phi(D, abs(t)), "z_cubic_small",
     [f"trivial:t={t}:conjugation" for t in ("-1", "-0.5", "0.5", "1")]
     + ["trivial:phi_group_law", "trivial:phi_inverse", "trivial:constant_antipode_criterion"]),
    ("taylor_k2_zero", convolution, "conv_power", lambda f, k, u: 0j if k == 2 else _power(f, k, u),
     "oscillator_small", ["axioms:associativity", "axioms:coalgebra_compatibility", "axioms:counit_semigroup"]),
]


def _failures(config: str) -> set:
    cfg = replace(load_config(str(DATA / f"{config}.json")), command="full-report")
    return {r.law_id for r in run_config(cfg).failures()}


@pytest.mark.parametrize("config", sorted({row[4] for row in MUTANTS}))
def test_each_mutant_config_passes_unmutated(config):
    assert _failures(config) == set()


@pytest.mark.parametrize("mutant, module, attribute, replacement, config, laws", MUTANTS,
                         ids=[f"{row[0]}-{row[4]}" for row in MUTANTS])
def test_a_mutant_fails_its_named_laws(monkeypatch, mutant, module, attribute, replacement, config, laws):
    monkeypatch.setattr(module, attribute, replacement)
    failed = _failures(config)
    assert set(laws) <= failed, (mutant, sorted(failed))
