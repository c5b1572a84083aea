"""Batch verification front-end.

Loads an instance + generator from a JSON configuration (or a built-in
example), runs the selected verification suite, prints a human summary
and optionally writes the full JSON report.  Exit status: 0 all laws
pass, 1 law failure, 2 configuration problem, 3 missing capability
(e.g. a star-deformation requested on an instance without involution).

Reports are bit-identical for identical (config, seed) pairs; the seed
falls back to the HOPFDEFORM_SEED environment variable when neither the
configuration nor --seed provides one.
"""
from __future__ import annotations

import argparse
import json
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
    load_config,
    parse_key,
)
from .deformation import (
    Deformation,
    SplitPreconditionError,
    TrivialDeformation,
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
    tol = cfg.tolerances["law"]
    report.add_flag("normalized", "L(1(x)1) = 0 (exact)", classifier.normalized, samples=1)
    report.add(
        "commuting", "L ⋆ mul = mul ⋆ L", samples, classifier.residuals["commuting"], tol
    )
    report.add("cocycle", "∂L = 0", samples, classifier.residuals["cocycle"], tol)
    if cfg.require_star:
        report.add(
            "hermitian",
            "conj L(b*(x)a*) = L(a(x)b)",
            samples,
            classifier.residuals["hermitian"],
            tol,
        )
    if classifier.witness_matches is not None:
        report.add(
            "witness", "∂ψ = L for the supplied witness", samples,
            classifier.residuals["witness"], tol,
        )
    report.extras["classifier"] = classifier.to_dict()


def _tabulate(cfg: RunConfig, instance, D: Deformation | None) -> list:
    rows = []
    for raw_pair in cfg.tabulate:
        if len(raw_pair) != 2:
            raise ConfigError(f"tabulate entries are key pairs, got {raw_pair!r}")
        ka = parse_key(instance, raw_pair[0])
        kb = parse_key(instance, raw_pair[1])
        row = {"pair": [instance.key_str(ka), instance.key_str(kb)], "values": []}
        if D is not None:
            a = instance.basis_element(ka)
            b = instance.basis_element(kb)
            for t in cfg.t_grid:
                ab = deformed_mul(D, t, a, b)
                ba = deformed_mul(D, t, b, a)
                row["values"].append(
                    {
                        "t": float(t),
                        "mu_t": format_element(ab),
                        "commutator": format_element(ab - ba),
                    }
                )
        rows.append(row)
    return rows


def _tabulate_antipode(cfg: RunConfig, instance, D: Deformation) -> list:
    seen = []
    for raw_pair in cfg.tabulate:
        for raw in raw_pair:
            key = parse_key(instance, raw)
            if key not in seen:
                seen.append(key)
    sig = D.sigma()
    rows = []
    for key in seen:
        e = instance.basis_element(key)
        entry = {
            "key": instance.key_str(key),
            "sigma": format_scalar(sig.value((key,))),
            "s_t": [],
        }
        for t in cfg.t_grid:
            entry["s_t"].append(
                {"t": float(t), "value": format_element(deformed_antipode(D, t)(e))}
            )
        rows.append(entry)
    return rows


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
    witness = build_witness(cfg.witness, instance, cocycle) if cfg.witness else None
    if cfg.command == "trivial-check" and witness is None:
        raise ConfigError("trivial-check needs a 'witness' descriptor")
    if cfg.require_star:
        instance.require_star()

    sampler = ElementSampler(
        instance,
        cfg.seed,
        budget=cfg.sample_budget,
        coord_bound=cfg.sampler["coord_bound"],
        max_degree=cfg.sampler["max_degree"],
        max_support=cfg.sampler["max_support"],
    )
    tol = cfg.tolerances["law"]
    strict = cfg.tolerances["strict"]
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

    D = Deformation(instance, cocycle, classifier, sampler.spawn(2))
    suite_sampler = sampler.spawn(3)

    if cfg.command == "deform":
        report.merge(check_deformation_axioms(D, suite_sampler, cfg.t_grid, samples, tol))
        report.extras["tabulation"] = _tabulate(cfg, instance, D)
        return

    if cfg.command == "antipode":
        instance.require_antipode()
        report.merge(check_hopf_deformation(D, suite_sampler, cfg.t_grid, samples, tol))
        report.extras["tabulation"] = _tabulate(cfg, instance, D)
        report.extras["antipode_tabulation"] = _tabulate_antipode(cfg, instance, D)
        return

    if cfg.command == "split":
        instance.require_antipode()
        try:
            _, _, sub = split_cocommutative(
                D, suite_sampler, cfg.t_grid, samples, tol, strict_tol=strict
            )
        except SplitPreconditionError as exc:
            report.add_flag("sigma_circ_s", "σ = σ∘S on samples", False, samples=samples)
            report.extras["split_precondition_failure"] = str(exc)
            return
        report.merge(sub)
        return

    if cfg.command == "trivial-check":
        T = TrivialDeformation(D, witness)
        report.merge(check_trivial_deformation(T, suite_sampler, cfg.t_grid, samples, tol))
        return

    # full-report
    report.merge(check_structure(instance, sampler.spawn(4), tol), prefix="structure:")
    report.merge(
        check_deformation_axioms(D, suite_sampler.spawn(1), cfg.t_grid, samples, tol),
        prefix="axioms:",
    )
    if instance.has_antipode:
        report.merge(
            check_hopf_deformation(D, suite_sampler.spawn(2), cfg.t_grid, samples, tol),
            prefix="hopf:",
        )
        if instance.cocommutative:
            try:
                _, _, sub = split_cocommutative(
                    D, suite_sampler.spawn(3), cfg.t_grid, samples, tol, strict_tol=strict
                )
                report.merge(sub, prefix="split:")
            except SplitPreconditionError as exc:
                report.add_flag("split:sigma_circ_s", "σ = σ∘S on samples", False, samples=samples)
                report.extras["split_precondition_failure"] = str(exc)
    if witness is not None:
        T = TrivialDeformation(D, witness)
        report.merge(
            check_trivial_deformation(T, suite_sampler.spawn(4), cfg.t_grid, samples, tol),
            prefix="trivial:",
        )
    if instance.has_star and classifier.hermitian:
        report.merge(
            star_deformation_check(D, suite_sampler.spawn(5), cfg.t_grid, samples, tol),
            prefix="star:",
        )
    report.extras["tabulation"] = _tabulate(cfg, instance, D)
    if instance.has_antipode:
        report.extras["antipode_tabulation"] = _tabulate_antipode(cfg, instance, D)


def report_json(cfg: RunConfig, report: Report) -> str:
    payload = {"config": cfg.to_dict(), "report": report.to_dict()}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _print_summary(cfg: RunConfig, report: Report, out) -> None:
    print(f"command: {cfg.command}  (seed={cfg.seed}, samples={cfg.sample_budget})", file=out)
    for line in report.summary_lines():
        print(line, file=out)
    print(f"overall: {'PASS' if report.overall_pass else 'FAIL'}", file=out)


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
    parser.add_argument("--t-grid", help="override the parameter grid, e.g. '-1,0,1'")
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
            cfg = load_config(args.config)
        elif args.example:
            try:
                raw = example_config(args.example)
            except KeyError as exc:
                raise ConfigError(str(exc)) from exc
            cfg = RunConfig.from_dict(raw)
        else:
            raise ConfigError("nothing to run: give --config, --example or --list-examples")

        if args.seed is not None:
            cfg.seed = args.seed
        if args.samples is not None:
            cfg.sample_budget = args.samples
        if args.tolerance is not None:
            cfg.tolerances["law"] = args.tolerance
        if args.t_grid is not None:
            try:
                cfg.t_grid = [float(t) for t in args.t_grid.split(",") if t.strip()]
            except ValueError as exc:
                raise ConfigError(f"cannot parse --t-grid {args.t_grid!r}") from exc
        if args.command is not None:
            cfg.command = args.command
        cfg.check()

        report = run_config(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CapabilityMissingError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3

    _print_summary(cfg, report, sys.stdout)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(report_json(cfg, report))
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
