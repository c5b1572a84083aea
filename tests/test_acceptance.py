"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion pins its tolerance explicitly.  The four built-in
example configurations (oscillator, z-cubic, zd-matrix, group-hermitian)
are constructed once through the same descriptor resolution the CLI uses.
"""
import itertools
import json

import pytest

import hopfdeform as hd
from hopfdeform.cli import main
from hopfdeform.cohomology import (
    coboundary,
    commuting_residual,
    compose_antipode_flip,
    hermitian_residual,
)
from hopfdeform.config import RunConfig, build_cocycle, build_instance, build_witness
from hopfdeform.convolution import (
    cochain_add,
    counit_cochain,
    map_conv_functional,
    mu_n_map,
    tuple_comul_terms,
)
from hopfdeform.deformation import (
    check_deformation_axioms,
    check_hopf_deformation,
    check_trivial_deformation,
    split_cocommutative,
    star_deformation_check,
)
from hopfdeform.registry import example_config, example_names
from hopfdeform.sampling import ElementSampler

GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)


class Example:
    def __init__(self, name):
        self.name = name
        self.cfg = RunConfig.from_dict(example_config(name))
        self.instance = build_instance(self.cfg.instance, self.cfg.tolerances)
        self.cocycle = build_cocycle(self.cfg.cocycle, self.instance)
        self.witness = (
            build_witness(self.cfg.witness, self.instance, self.cocycle)
            if self.cfg.witness
            else None
        )
        self.sampler = ElementSampler(
            self.instance,
            self.cfg.seed,
            budget=200,
            coord_bound=self.cfg.sampler["coord_bound"],
            max_degree=self.cfg.sampler["max_degree"],
            max_support=self.cfg.sampler["max_support"],
        )
        self.deformation = hd.make_deformation(
            self.instance,
            self.cocycle,
            self.sampler,
            require_star=self.cfg.require_star,
            witness=self.witness,
        )


@pytest.fixture(scope="module")
def examples():
    return {name: Example(name) for name in example_names()}


def _form(k, A, l):
    """k·A·lᵀ for a square matrix ``A`` of nested lists."""
    return sum(k[i] * A[i][j] * l[j] for i in range(len(k)) for j in range(len(l)))


def _emit(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance criterion {num:2d} [{label}]: {status}{suffix}")
    assert ok, f"criterion {num} ({label}) failed{suffix}"


def test_criterion_01_generator_correspondence(examples):
    worst = 0.0
    ok = True
    for ex in examples.values():
        cls = ex.deformation.classifier
        ok = ok and cls.is_generator(require_star=ex.cfg.require_star)
        rep = check_deformation_axioms(ex.deformation, ex.sampler.spawn(1_001), GRID, samples=120)
        for r in rep.results:
            if r.law_id.startswith("generator_derivative"):
                ok = ok and r.passed and r.samples >= 100
                worst = max(worst, r.max_residual / r.tolerance)
    _emit(1, "generator correspondence", ok, f"worst fd residual/bound = {worst:.3f}")


def test_criterion_02_deformation_axioms(examples):
    worst = 0.0
    ok = True
    for ex in examples.values():
        rep = check_deformation_axioms(ex.deformation, ex.sampler.spawn(1_002), GRID, samples=200)
        for law in ("unitality", "associativity", "coalgebra_compatibility"):
            r = next(x for x in rep.results if x.law_id == law)
            ok = ok and r.max_residual <= 1e-8
            worst = max(worst, r.max_residual)
    _emit(2, "deformation axioms <= 1e-8", ok, f"max residual = {worst:.3e}")


def test_criterion_03_trivial_deformation(examples):
    ex = examples["z-cubic"]
    T = hd.make_trivial_deformation(ex.deformation, ex.witness)
    rep = check_trivial_deformation(T, ex.sampler.spawn(1_003), GRID, samples=200)
    wanted = [r for r in rep.results if
              r.law_id.endswith("conjugation") or r.law_id.endswith("intertwining")
              or r.law_id == "phi_group_law"]
    ok = all(r.max_residual <= 1e-8 for r in wanted) and len(wanted) >= len(GRID) * 2 + 1
    _emit(3, "trivial deformation conjugation", ok,
          f"max residual = {max(r.max_residual for r in wanted):.3e}")


def _r_on_pair(F, pair):
    """R_F = (id⊗F)∘Λ on the tensor-square bialgebra, at a basis pair."""
    terms = {}
    for left, right, c in tuple_comul_terms(F.instance, pair):
        terms[left] = terms.get(left, 0j) + c * F.value(right)
    return hd.TensorElement(F.instance, 2, terms)


def test_criterion_04_r_phi_lemma(examples):
    worst = 0.0
    cases = []
    cubic = examples["z-cubic"]
    cases.append((cubic.instance, cubic.witness,
                  hd.Cochain(cubic.instance, 1, lambda ks: 0.5 * ks[0][0] ** 2, name="halfsq"),
                  ElementSampler(cubic.instance, seed=90_001, budget=100, coord_bound=3)))
    osc = examples["oscillator"]
    cases.append((osc.instance,
                  hd.make_trivializing_functional(osc.instance, osc.cocycle),
                  hd.Cochain(osc.instance, 1, lambda ks: float(sum(ks[0]) == 1), name="deg1"),
                  ElementSampler(osc.instance, seed=90_002, budget=100)))
    for inst, psi, phi, sampler in cases:
        delta = counit_cochain(inst, 1)
        r_phi, r_psi, r_conv, r_delta = (map_conv_functional(hd.identity_map(inst), f)
                                         for f in (phi, psi, hd.convolve_functionals(phi, psi), delta))
        dphi = hd.Cochain(inst, 2, lambda ks: delta.value(ks[:1]) * phi.value(ks[1:]))
        phid = hd.Cochain(inst, 2, lambda ks: phi.value(ks[:1]) * delta.value(ks[1:]))
        phim = hd.Cochain(inst, 2, lambda ks: sum(c * phi.value((k,)) for k, c in inst.mul_terms(*ks)))
        mu2 = mu_n_map(inst, 2)
        for _ in range(100):
            a = sampler.element()
            worst = max(worst, (r_phi(r_psi(a)) - r_conv(a)).norm_inf())
            worst = max(worst, abs(hd.counit(r_phi(a)) - phi(a)))
            worst = max(worst, (r_delta(a) - a).norm_inf())
            pair = sampler.keys(2)
            u3 = _r_on_pair(dphi, pair)
            w3 = hd.TensorElement(inst, 2, {})
            for k1, k2, c in inst.comul_terms(pair[1]):
                w3 = w3 + hd.TensorElement(inst, 2, {(pair[0], k1): c * phi.value((k2,))})
            worst = max(worst, (u3 - w3).norm_inf())
            u4 = _r_on_pair(phid, pair)
            w4 = hd.TensorElement(inst, 2, {})
            for k1, k2, c in inst.comul_terms(pair[0]):
                w4 = w4 + hd.TensorElement(inst, 2, {(k1, pair[1]): c * phi.value((k2,))})
            worst = max(worst, (u4 - w4).norm_inf())
            prod = hd.mul(inst.basis_element(pair[0]), inst.basis_element(pair[1]))
            worst = max(worst, (mu2(_r_on_pair(phim, pair)) - r_phi(prod)).norm_inf())
    _emit(4, "R operator lemma <= 1e-9", worst <= 1e-9, f"max residual = {worst:.3e}")


def test_criterion_05_hopf_deformation(examples):
    ok = True
    worst = 0.0
    for ex in examples.values():
        rep = check_hopf_deformation(ex.deformation, ex.sampler.spawn(1_005), GRID, samples=200)
        anti = next(r for r in rep.results if r.law_id == "antipode_identity")
        ok = ok and anti.max_residual <= 1e-8
        ok = ok and rep.overall_pass
        worst = max(worst, anti.max_residual)
    _emit(5, "Hopf deformation laws", ok, f"max antipode residual = {worst:.3e}")


def test_criterion_06_sigma_calculus(examples):
    ok = True
    detail = []

    sig_cubic = examples["z-cubic"].deformation.sigma()
    res = max(abs(sig_cubic.value(((k,),))) for k in range(-10, 11))
    ok = ok and res <= 1e-12
    detail.append(f"cubic sigma: {res:.2e}")

    for name in ("zd-matrix", "group-hermitian"):
        ex = examples[name]
        A = [[complex(c[0], c[1]) for c in row] for row in ex.cfg.cocycle["matrix"]]
        sig = ex.deformation.sigma()
        res = 0.0
        for k1 in range(-5, 6):
            for k2 in range(-5, 6):
                k = (k1, k2)
                res = max(res, abs(sig.value((((k1, k2),))) - (-_form(k, A, k))))
        ok = ok and res <= 1e-9
        detail.append(f"{name} sigma: {res:.2e}")

    osc = examples["oscillator"]
    sig_osc = osc.deformation.sigma()
    s = osc.sampler.spawn(1_006)
    res = max(abs(sig_osc.value(s.keys(1))) for _ in range(200))
    ok = ok and res <= 1e-12
    detail.append(f"oscillator sigma: {res:.2e}")

    for ex in examples.values():
        sig = ex.deformation.sigma()
        lss = compose_antipode_flip(ex.cocycle)
        dsig = coboundary(sig)
        s = ex.sampler.spawn(1_106)
        res = 0.0
        for _ in range(200):
            keys = s.keys(2)
            res = max(res, abs(dsig.value(keys) - ex.cocycle.value(keys) - lss.value(keys)))
        ok = ok and res <= 1e-8
    detail.append("d(sigma) identity on all examples")
    _emit(6, "sigma calculus", ok, "; ".join(detail))


def test_criterion_07_splitting(examples):
    ok = True
    detail = []

    ex = examples["zd-matrix"]
    A = [[complex(c[0], c[1]) for c in row] for row in ex.cfg.cocycle["matrix"]]
    L1, L2, rep = split_cocommutative(ex.deformation, ex.sampler.spawn(1_007), GRID, samples=200)
    skew = [[(A[i][j] - A[j][i]) / 2 for j in range(2)] for i in range(2)]
    res = 0.0
    for k1, k2, l1, l2 in itertools.product(range(-5, 6), repeat=4):
        want = _form((k1, k2), skew, (l1, l2))
        res = max(res, abs(L2.value((((k1, k2), (l1, l2)))) - want))
    ok = ok and res <= 1e-9 and rep.overall_pass
    const = next(r for r in rep.results if r.law_id == "l2_constant_antipodes")
    ok = ok and const.passed
    detail.append(f"zd skew part: {res:.2e}")

    exh = examples["group-hermitian"]
    _, L2h, reph = split_cocommutative(exh.deformation, exh.sampler.spawn(1_107), GRID, samples=200)
    imag = next(r for r in reph.results if r.law_id == "skew_part_imaginary")
    ok = ok and imag.passed and imag.max_residual <= 1e-12 and reph.overall_pass
    detail.append(f"hermitian Re L2: {imag.max_residual:.2e}")
    _emit(7, "cocommutative splitting", ok, "; ".join(detail))


def test_criterion_08_oscillator_realization(examples):
    ex = examples["oscillator"]
    inst, D = ex.instance, ex.deformation
    x = inst.basis_element((1, 0))
    xs = inst.basis_element((0, 1))
    comm = hd.deformed_mul(D, 1.0, x, xs) - hd.deformed_mul(D, 1.0, xs, x)
    ccr_res = (comm - inst.unit_element()).norm_inf()
    rep = star_deformation_check(D, ex.sampler.spawn(1_008), GRID, samples=200)
    star_law = next(r for r in rep.results if r.law_id == "star_compatibility")
    ok = ccr_res <= 1e-12 and star_law.max_residual <= 1e-8 and bool(D.classifier.hermitian)
    _emit(8, "oscillator realization", ok,
          f"ccr residual = {ccr_res:.2e}, star residual = {star_law.max_residual:.2e}")


def test_criterion_09_trivialization(examples):
    inst = hd.symmetric_star_algebra(("x", "xstar"), involution={"x": "xstar", "xstar": "x"})
    M = [[0.3, 0.7], [0.7, -0.2]]
    L = hd.make_primitive_bilinear_cocycle(inst, M)
    sampler = ElementSampler(inst, seed=1_009, budget=200)
    psi = hd.make_trivializing_functional(inst, L)
    L_tilde = cochain_add(L, coboundary(psi), name="flattened")
    D_tilde = hd.make_deformation(inst, L_tilde, sampler)
    s = sampler.spawn(1)
    res = 0.0
    for t in GRID:
        for _ in range(40):
            a, b = s.element(), s.element()
            res = max(res, (hd.deformed_mul(D_tilde, t, a, b) - hd.mul(a, b)).norm_inf())
    ok = res <= 1e-8

    ex = examples["oscillator"]
    psi_o = hd.make_trivializing_functional(ex.instance, ex.cocycle)
    Lo_tilde = cochain_add(ex.cocycle, coboundary(psi_o), name="normal_ordered")
    Do = hd.make_deformation(ex.instance, Lo_tilde, ElementSampler(ex.instance, seed=1_109, budget=120))
    gens = [ex.instance.basis_element((1, 0)), ex.instance.basis_element((0, 1))]
    res2 = 0.0
    for t in GRID:
        for a in gens:
            for b in gens:
                lhs = hd.deformed_mul(Do, t, a, b) - hd.deformed_mul(Do, t, b, a)
                rhs = hd.deformed_mul(ex.deformation, t, a, b) - hd.deformed_mul(ex.deformation, t, b, a)
                res2 = max(res2, (lhs - rhs).norm_inf())
    ok = ok and res2 <= 1e-12
    _emit(9, "normal-order trivialization", ok,
          f"symmetric flatten: {res:.2e}, skew preserved: {res2:.2e}")


def _subcomplex_stable(f, s, samples=120, tol=1e-8):
    """∂ keeps the normalized, commuting and hermitian classes, and ∂∂f = 0.

    Whenever f tests inside a class, ∂f must test inside the class of the
    next arity (the hermitian one with the ceil(n/2) parity sign).
    """
    df = coboundary(f)
    ok = not f.is_normalized or abs(df.value((f.instance.unit,) * df.arity)) <= 0.0
    if commuting_residual(f, s.spawn(31), samples) <= tol:
        ok = ok and commuting_residual(df, s.spawn(37), samples) <= tol
    if f.instance.has_star and hermitian_residual(f, s.spawn(41), samples) <= tol:
        ok = ok and hermitian_residual(df, s.spawn(43), samples) <= tol
    dd, sq = coboundary(df), s.spawn(47)
    return ok and all(abs(dd.value(sq.keys(f.arity + 2))) <= tol for _ in range(samples))


def test_criterion_10_cohomology_plumbing(examples):
    ok = True
    worst = 0.0
    for ex in examples.values():
        arity1 = [ex.witness] if ex.witness is not None else []
        if ex.instance.kind is hd.Kind.GRADED_CONNECTED:
            arity1.append(hd.make_trivializing_functional(ex.instance, ex.cocycle))
        arity1.append(ex.deformation.sigma())
        for f in arity1:
            dd = coboundary(coboundary(f))
            s = ex.sampler.spawn(1_010)
            res = max(abs(dd.value(s.keys(3))) for _ in range(200))
            worst = max(worst, res)
            ok = ok and res <= 1e-8
            ok = ok and _subcomplex_stable(f, ex.sampler.spawn(1_110))
        dd2 = coboundary(coboundary(ex.cocycle))
        s = ex.sampler.spawn(1_210)
        res = max(abs(dd2.value(s.keys(4))) for _ in range(200))
        worst = max(worst, res)
        ok = ok and res <= 1e-8
        ok = ok and _subcomplex_stable(ex.cocycle, ex.sampler.spawn(1_310))
    _emit(10, "cohomology plumbing", ok, f"max dd residual = {worst:.3e}")


def test_criterion_11_determinism(tmp_path):
    cfg = example_config("group-hermitian")
    cfg["sample_budget"] = 60
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["--config", str(path), "--json-out", str(out1)])
    code2 = main(["--config", str(path), "--json-out", str(out2)])
    ok = code1 == 0 and code2 == 0 and out1.read_bytes() == out2.read_bytes()
    _emit(11, "deterministic reports", ok, f"{out1.stat().st_size} bytes each")
