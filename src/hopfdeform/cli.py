"""Batch verification front-end.

Loads an instance + generator from a JSON configuration (or a built-in
example), runs the selected verification suite, prints a human summary
and optionally writes the full JSON report.  Exit status: 0 all laws
pass, 1 law failure, 2 configuration problem (a ``--json-out`` path that
cannot be written included), 3 missing capability (e.g. a
star-deformation requested on an instance without involution).
The whole configuration, ``tabulate`` keys included, is read before the
first sample is drawn.  A single command runs its row of ``_SUITES``;
``full-report`` runs every row whose condition holds, under its prefix.

Each override flag (--seed, --samples, --tolerance, --t-grid, --command)
replaces its field in the JSON configuration, which is first read as given.
Reports are bit-identical for identical (config, seed) pairs; the seed
falls back to the HOPFDEFORM_SEED environment variable when neither the
configuration nor --seed provides one.
"""
from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys

from .core import CapabilityMissingError, NonFiniteError, check_structure, format_element, format_scalar
from .cohomology import validate_generator
from .config import (
    COMMANDS,
    ConfigError,
    RunConfig,
    build_cocycle,
    build_instance,
    build_witness,
    parse_key,
    read_json,
)
from .deformation import (
    Deformation,
    SigmaFlipError,
    SplitPreconditionError,
    check_deformation_axioms,
    check_hopf_deformation,
    check_trivial_deformation,
    deformed_antipode,
    deformed_mul,
    split_cocommutative,
    star_deformation_check,
)
from .registry import example_config, example_description, example_names
from .report import Report
from .sampling import ElementSampler


def _classifier_laws(report: Report, classifier, cfg: RunConfig, samples: int) -> None:
    report.add_flag("normalized", "L(1(x)1) = 0 (exact)", classifier.normalized, samples=1)
    for law_id, statement, recorded in (
        ("commuting", "L ⋆ mul = mul ⋆ L", True),
        ("cocycle", "∂L = 0", True),
        ("hermitian", "conj L(b*(x)a*) = L(a(x)b)", cfg.require_star),
        ("witness", "∂ψ = L for the supplied witness", classifier.witness_matches is not None),
    ):
        if recorded:
            report.add(law_id, statement, samples, classifier.residuals[law_id], cfg.tolerances["law"])
    report.extras["classifier"] = classifier.to_dict()


def _tabulate(report: Report, D: Deformation, pairs: list, t_grid, antipode: bool) -> None:
    """Record μ_t and the commutator on each pair and, with ``antipode``, σ and S_t on each distinct key."""
    instance = D.instance
    rows = []
    for ka, kb in pairs:
        a, b = instance.basis_element(ka), instance.basis_element(kb)
        values = []
        for t in t_grid:
            ab, ba = deformed_mul(D, t, a, b), deformed_mul(D, t, b, a)
            values.append({"t": float(t), "mu_t": format_element(ab), "commutator": format_element(ab - ba)})
        rows.append({"pair": [instance.key_str(ka), instance.key_str(kb)], "values": values})
    report.extras["tabulation"] = rows
    if not antipode:
        return
    try:
        sig = D.sigma()
    except SigmaFlipError:  # recorded as the failed law sigma_flip by the suite that needed σ
        return
    rows = []
    for key in dict.fromkeys(key for pair in pairs for key in pair):
        e = instance.basis_element(key)
        s_t = [{"t": float(t), "value": format_element(deformed_antipode(D, t)(e))} for t in t_grid]
        rows.append({"key": instance.key_str(key), "sigma": format_scalar(sig.value((key,))), "s_t": s_t})
    report.extras["antipode_tabulation"] = rows


def _law_args(cfg: RunConfig) -> tuple:
    return cfg.t_grid, cfg.sample_budget, cfg.tolerances["law"]


# One row per suite: the command that runs it alone, its salt and report prefix
# inside full-report, when full-report runs it (given D), and the suite itself
# (given D, a sampler and the config).
_SUITES = (
    ("deform", 1, "axioms:", lambda D: True,
     lambda D, sampler, cfg: check_deformation_axioms(D, sampler, *_law_args(cfg))),
    ("antipode", 2, "hopf:", lambda D: D.instance.has_antipode,
     lambda D, sampler, cfg: check_hopf_deformation(D, sampler, *_law_args(cfg))),
    ("split", 3, "split:", lambda D: D.instance.has_antipode and D.instance.cocommutative,
     lambda D, sampler, cfg: split_cocommutative(
         D, sampler, *_law_args(cfg), strict_tol=cfg.tolerances["strict"])[2]),
    ("trivial-check", 4, "trivial:", lambda D: D.witness is not None,
     lambda D, sampler, cfg: check_trivial_deformation(D, sampler, *_law_args(cfg))),
    (None, 5, "star:", lambda D: D.instance.has_star and D.classifier.hermitian,
     lambda D, sampler, cfg: star_deformation_check(D, sampler, *_law_args(cfg))),
)


def run_config(cfg: RunConfig) -> Report:
    """Resolve descriptors, run the configured command, return the report.

    A value that overflows or turns NaN ends the run as the failed law
    ``non_finite``, beside the laws recorded before it.
    """
    report = Report(name=cfg.command)
    try:
        _run_command(cfg, report)
    except NonFiniteError as exc:
        report.add_flag("non_finite", "every computed value is finite", False)
        report.extras["non_finite"] = str(exc)
    return report


def _run_command(cfg: RunConfig, report: Report) -> None:
    instance = build_instance(cfg.instance, cfg.tolerances)
    cocycle = build_cocycle(cfg.cocycle, instance)
    witness = None if cfg.witness is None else build_witness(cfg.witness, instance, cocycle)
    if cfg.require_star:
        instance.require_star()
    # the tabulated keys too are read before any sample is drawn
    pairs = [tuple(parse_key(instance, raw) for raw in pair) for pair in cfg.tabulate]

    sampler = ElementSampler(instance, cfg.seed, budget=cfg.sample_budget, **cfg.sampler)
    tol = cfg.tolerances["law"]
    samples = cfg.sample_budget

    classifier = validate_generator(
        cocycle,
        sampler.spawn(1),
        require_star=cfg.require_star,
        witness=witness,
        samples=samples,
        tol=tol,
    )
    _classifier_laws(report, classifier, cfg, samples)

    if cfg.command == "validate":
        return
    if not classifier.is_generator(require_star=cfg.require_star):
        report.extras["aborted"] = "generator validation failed; no deformation was built"
        return

    D = Deformation(instance, cocycle, classifier, sampler.spawn(2), witness)
    suite_sampler = sampler.spawn(3)
    full = cfg.command == "full-report"
    if full:
        report.merge(check_structure(instance, sampler.spawn(4), tol), prefix="structure:")
    for command, salt, prefix, applies, suite in _SUITES:
        if full and applies(D):
            stream = suite_sampler.spawn(salt)
        elif command == cfg.command:
            stream, prefix = suite_sampler, ""
        else:
            continue
        try:
            report.merge(suite(D, stream, cfg), prefix=prefix)
        except SplitPreconditionError as exc:
            report.add_flag(prefix + "sigma_circ_s", "σ = σ∘S on samples", False, samples=samples)
            report.extras["split_precondition_failure"] = str(exc)
        except SigmaFlipError as exc:
            report.add_flag(prefix + "sigma_flip", exc.statement, False, samples=exc.samples)
            report.extras["sigma_flip_failure"] = str(exc)
    if cfg.command in ("deform", "antipode", "full-report"):
        _tabulate(report, D, pairs, cfg.t_grid, antipode=cfg.command != "deform" and instance.has_antipode)


def _spell_non_finite(value):
    """``value`` with each NaN or infinite float replaced by its JSON spelling as a string."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, dict):
        return {k: _spell_non_finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spell_non_finite(v) for v in value]
    return value


def report_json(cfg: RunConfig, report: Report) -> str:
    """The report as strict RFC 8259 JSON: a non-finite float is written as a string."""
    payload = {"config": cfg.to_dict(), "report": report.to_dict()}
    text = json.dumps(_spell_non_finite(payload), sort_keys=True, indent=2, allow_nan=False)
    return text + "\n"


def _print_summary(cfg: RunConfig, report: Report, out) -> None:
    print(f"command: {cfg.command}  (seed={cfg.seed}, samples={cfg.sample_budget})", file=out)
    for line in report.summary_lines():
        print(line, file=out)
    print(f"overall: {'PASS' if report.overall_pass else 'FAIL'}", file=out)


def grid(text: str) -> list:
    """The ``--t-grid`` flag's comma-separated numbers, as a list."""
    return [float(t) for t in text.split(",") if t.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfdeform",
        description="Verify additive deformations of bialgebra and Hopf algebra products.",
    )
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--example", help="name of a built-in example configuration")
    parser.add_argument("--list-examples", action="store_true", help="list built-in examples")
    parser.add_argument("--json-out", help="write the full JSON report to this path")
    parser.add_argument("--seed", type=int, help="override the sampling seed")
    parser.add_argument("--samples", type=int, help="override the sample budget")
    parser.add_argument("--tolerance", type=float, help="override the law tolerance")
    parser.add_argument("--t-grid", type=grid, help="override the parameter grid, e.g. --t-grid=-1,0,1 "
                        "(a grid that starts with a negative number needs the '=')")
    parser.add_argument("--command", help=f"override the command ({', '.join(COMMANDS)})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_examples:
        for name in example_names():
            print(f"{name}: {example_description(name)}")
        return 0

    try:
        if args.config and args.example:
            raise ConfigError("give either --config or --example, not both")
        if args.config:
            raw = read_json(args.config)
        elif args.example:
            try:
                raw = example_config(args.example)
            except KeyError as exc:
                raise ConfigError(str(exc)) from exc
        else:
            raise ConfigError("nothing to run: give --config, --example or --list-examples")
        # the configuration is read as given first, so that a bad value exits 2
        # even where a flag replaces it; then each flag replaces its field
        cfg = RunConfig.from_dict(raw)
        flags = {
            "seed": args.seed,
            "sample_budget": args.samples,
            "tolerances": None if args.tolerance is None else {**raw.get("tolerances", {}), "law": args.tolerance},
            "t_grid": args.t_grid,
            "command": args.command,
        }
        flags = {name: value for name, value in flags.items() if value is not None}
        if flags:
            cfg = RunConfig.from_dict({**raw, **flags})
        # an unwritable --json-out ends the run before any suite; writing can still fail after it
        out = args.json_out
        if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
            raise ConfigError(f"cannot write --json-out {out!r}: {os.strerror(errno.ENOENT)}")
        if out and os.path.isdir(out):
            raise ConfigError(f"cannot write --json-out {out!r}: {os.strerror(errno.EISDIR)}")

        report = run_config(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CapabilityMissingError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3

    _print_summary(cfg, report, sys.stdout)
    if args.json_out:
        text = report_json(cfg, report)
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, a directory, no permission
            print(f"configuration error: cannot write --json-out {args.json_out!r}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
