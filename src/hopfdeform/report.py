"""Law-check results and deterministic report containers.

Every sampled verification produces one :class:`LawResult` per law; a
:class:`Report` is an ordered collection of those plus free-form extras.
Reports serialize to JSON with sorted keys so that identical inputs give
byte-identical output.  Every sampled check is a :class:`Law` record:
:meth:`Law.fold` draws, evaluates and folds one law, and :func:`run_laws`
records a suite's law table in order.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence


def fold_residuals(residuals) -> tuple[int, float]:
    """Count a stream of samples and keep its largest residual.

    Each item is one sample's residual, or a tuple of its residuals.  A
    NaN residual is kept as the result, so the law it belongs to fails.
    """
    samples = 0
    worst = 0.0
    for item in residuals:
        samples += 1
        for r in item if isinstance(item, tuple) else (item,):
            if r > worst or r != r:
                worst = r
    return samples, worst


@dataclass(frozen=True)
class Law:
    """A sampled law: ``residual(case, *args)`` at each case, ``per_case`` times.

    ``cases`` are grid points t, (t, s) pairs, fixed items, or ``(None,)``.
    A law with a ``salt`` draws each sample's arguments as ``draw(stream)``
    from its own stream ``sampler.spawn(salt)``, so laws sharing a salt see
    the same draws; a law without one draws from ``sampler`` as given, and
    the default draw takes nothing.
    """

    law_id: str
    statement: str
    residual: Callable
    tolerance: float
    cases: Sequence = (None,)
    per_case: int = 1
    salt: int | None = None
    draw: Callable = lambda stream: ()

    def fold(self, sampler) -> tuple[int, float]:
        """Draw and evaluate every sample; return the count and the largest residual."""
        stream = sampler if self.salt is None else sampler.spawn(self.salt)
        residual, draw, per_case = self.residual, self.draw, self.per_case
        return fold_residuals(residual(case, *draw(stream)) for case in self.cases for _ in range(per_case))


def run_laws(report: Report, sampler, laws) -> None:
    """Record each law in order from :meth:`Law.fold`."""
    for law in laws:
        report.add(law.law_id, law.statement, *law.fold(sampler), law.tolerance)


@dataclass
class LawResult:
    law_id: str
    statement: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "law_id": self.law_id,
            "statement": self.statement,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass
class Report:
    name: str
    results: list[LawResult] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def add(self, law_id, statement, samples, max_residual, tolerance) -> LawResult:
        res = LawResult(
            law_id=law_id,
            statement=statement,
            samples=samples,
            max_residual=float(max_residual),
            tolerance=float(tolerance),
            passed=bool(max_residual <= tolerance),
        )
        self.results.append(res)
        return res

    def add_flag(self, law_id, statement, passed, samples=0) -> LawResult:
        """Record a boolean law (residual 0/1 against tolerance 0.5)."""
        return self.add(law_id, statement, samples, 0.0 if passed else 1.0, 0.5)

    def merge(self, other: "Report", prefix: str = "") -> None:
        for res in other.results:
            self.results.append(replace(res, law_id=prefix + res.law_id))
        for key, value in other.extras.items():
            self.extras[prefix + key] = value

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[LawResult]:
        return [r for r in self.results if not r.passed]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "overall_pass": self.overall_pass,
            "results": [r.to_dict() for r in self.results],
            "extras": self.extras,
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"[{status}] {r.law_id}: {r.statement} "
                f"(samples={r.samples}, max_residual={r.max_residual:.3e}, tol={r.tolerance:.1e})"
            )
        return lines
