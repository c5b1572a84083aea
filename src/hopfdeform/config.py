"""Run configuration: JSON descriptors for instances, cocycles and witnesses.

Complex scalars appear in configs as ``[re, im]`` pairs (plain numbers are
accepted and read as real).  Matrices are nested arrays of such pairs.
Descriptor shapes:

* instance: ``{"type": "group_algebra_zd", "d": 2, "star": true}``,
  ``{"type": "symmetric_star", "generators": ["x", "xstar"],
  "involution": [["x", "xstar"]]}``, or ``{"type": "sweedler_h4"}``.
* cocycle: ``{"type": "zd_matrix", "matrix": ...}``,
  ``{"type": "z_polynomial", "coeffs": [[p, q, c], ...]}``,
  ``{"type": "primitive_bilinear", "matrix": ...}``,
  ``{"type": "grouplike_table", "entries": [[k, l, c], ...], "expr": "..."}``
  or ``{"type": "zero"}``.
* witness (``null`` or absent for none): ``{"type": "grouplike_expression", "expr": "-(k**3)/3"}``,
  ``{"type": "pbw_trivializer"}`` or ``{"type": "zero"}``.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .core import BialgebraInstance
from .cohomology import DEFAULT_TOL
from .convolution import Cochain, cochain_scale, zero_cochain
from .deformation import DEFAULT_T_GRID
from . import instances as inst_mod

COMMANDS = ("validate", "deform", "antipode", "split", "trivial-check", "full-report")

DEFAULT_TOLERANCES = {"law": DEFAULT_TOL, "strict": 1e-12, "eq": 1e-9, "prune": 1e-12}
DEFAULT_SAMPLER = {"coord_bound": 5, "max_degree": 4, "max_support": 3}


class ConfigError(Exception):
    """The run configuration cannot be parsed or resolved."""


def read_int(value, what: str) -> int:
    """Read an integer field; ``2.0`` reads as 2, a bool or ``2.5`` is rejected."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from exc


def read_float(value, what: str) -> float:
    """Read a real number field; a bool, a non-number, NaN or an infinity is rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def parse_complex(value) -> complex:
    """Read an ``[re, im]`` pair or a plain real number."""
    pair = value if isinstance(value, (list, tuple)) else (value, 0.0)
    if len(pair) != 2:
        raise ConfigError(f"cannot read {value!r} as a complex scalar")
    return complex(*(read_float(x, "every complex scalar") for x in pair))


def parse_matrix(rows) -> list:
    if not isinstance(rows, list) or not rows:
        raise ConfigError("matrix must be a non-empty nested array")
    return [[parse_complex(v) for v in row] for row in rows]


def _descriptor(raw: dict, name: str) -> dict | None:
    """A copy of the descriptor ``raw[name]``; only the witness may be null or absent, meaning none."""
    desc = raw.get(name)
    if desc is None and name == "witness":
        return None
    if not isinstance(desc, dict):
        raise ConfigError(f"the {name} descriptor must be a JSON object, got {desc!r}")
    return dict(desc)


@dataclass
class RunConfig:
    instance: dict
    cocycle: dict
    witness: dict | None = None
    t_grid: list = field(default_factory=lambda: list(DEFAULT_T_GRID))
    seed: int = 20240817
    sample_budget: int = 200
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    sampler: dict = field(default_factory=lambda: dict(DEFAULT_SAMPLER))
    require_star: bool = False
    command: str = "full-report"
    tabulate: list = field(default_factory=list)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        unknown = set(raw) - {
            "instance", "cocycle", "witness", "t_grid", "seed", "sample_budget",
            "tolerances", "sampler", "require_star", "command", "tabulate",
        }
        if unknown:
            raise ConfigError(f"unknown configuration fields: {sorted(unknown)}")
        if "instance" not in raw or "cocycle" not in raw:
            raise ConfigError("configuration needs 'instance' and 'cocycle' descriptors")
        env_seed = os.environ.get("HOPFDEFORM_SEED")
        try:
            default_seed = int(env_seed) if env_seed else 20240817
        except ValueError as exc:
            raise ConfigError(f"HOPFDEFORM_SEED is not an integer: {exc}") from exc
        try:
            cfg = cls(
                instance=_descriptor(raw, "instance"),
                cocycle=_descriptor(raw, "cocycle"),
                witness=_descriptor(raw, "witness"),
                t_grid=[read_float(t, "every t_grid value") for t in raw.get("t_grid", DEFAULT_T_GRID)],
                seed=read_int(raw.get("seed", default_seed), "seed"),
                sample_budget=read_int(raw.get("sample_budget", 200), "sample_budget"),
                tolerances={**DEFAULT_TOLERANCES, **raw.get("tolerances", {})},
                sampler={
                    k: read_int(v, f"sampler {k}")
                    for k, v in {**DEFAULT_SAMPLER, **raw.get("sampler", {})}.items()
                },
                require_star=raw.get("require_star", False),
                command=str(raw.get("command", "full-report")),
                tabulate=[list(p) for p in raw.get("tabulate", [])],
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"cannot read a configuration value: {exc}") from exc
        cfg.check()
        return cfg

    def check(self) -> None:
        """Reject settings no run can use, after parsing and after any override."""
        if not self.t_grid:
            raise ConfigError("t_grid must not be empty")
        for t in self.t_grid:
            read_float(t, "every t_grid value")
        if self.sample_budget < 1:
            raise ConfigError("sample_budget must be >= 1")
        unknown = set(self.sampler) - set(DEFAULT_SAMPLER)
        if unknown:
            raise ConfigError(f"unknown sampler settings: {sorted(unknown)}")
        for name, low in (("coord_bound", 0), ("max_degree", 0), ("max_support", 1)):
            if self.sampler[name] < low:
                raise ConfigError(f"sampler {name} must be >= {low}")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigError(f"unknown tolerances: {sorted(unknown)}")
        for name, tol in self.tolerances.items():
            if read_float(tol, f"tolerance {name!r}") < 0:
                raise ConfigError(f"tolerance {name!r} must be >= 0, got {tol!r}")
        if not isinstance(self.require_star, bool):
            raise ConfigError(f"require_star must be true or false, got {self.require_star!r}")
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; choose from {COMMANDS}")

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "cocycle": self.cocycle,
            "witness": self.witness,
            "t_grid": [float(t) for t in self.t_grid],
            "seed": self.seed,
            "sample_budget": self.sample_budget,
            "tolerances": {k: float(v) for k, v in sorted(self.tolerances.items())},
            "sampler": {k: int(v) for k, v in sorted(self.sampler.items())},
            "require_star": self.require_star,
            "command": self.command,
            "tabulate": self.tabulate,
        }


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration {path!r} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(raw)


# -- descriptor resolution -------------------------------------------------------


# the fields each descriptor type reads besides "type"
_DESCRIPTOR_FIELDS = {
    "group_algebra_zd": ("d", "star"), "symmetric_star": ("generators", "involution"), "sweedler_h4": (),
    "zd_matrix": ("matrix",), "z_polynomial": ("coeffs",), "primitive_bilinear": ("matrix",),
    "grouplike_table": ("entries", "expr"), "grouplike_expression": ("expr",), "pbw_trivializer": (), "zero": (),
}


def _only_fields(desc: dict) -> None:
    """Reject a field that the descriptor's type does not read; an unknown type is the caller's to reject."""
    unknown = set(desc) - {"type", *_DESCRIPTOR_FIELDS.get(desc.get("type"), desc)}
    if unknown:
        raise ConfigError(f"unknown {desc['type']} descriptor fields: {sorted(unknown)}")


def build_instance(desc: dict, tolerances: dict | None = None) -> BialgebraInstance:
    kind = desc.get("type")
    try:
        _only_fields(desc)
        if kind == "group_algebra_zd":
            d = read_int(desc.get("d", 1), "instance d")
            with_star = desc.get("star", True)
            if not isinstance(with_star, bool):
                raise ConfigError(f"instance star must be true or false, got {with_star!r}")
            inst = inst_mod.group_algebra_zd(d, with_star=with_star)
        elif kind == "symmetric_star":
            gens = desc.get("generators")
            if not isinstance(gens, list) or not gens or not all(isinstance(g, str) and g for g in gens):
                raise ConfigError(f"symmetric_star needs a non-empty 'generators' list of names, got {gens!r}")
            involution = None
            if desc.get("involution"):
                involution = {}
                for pair in desc["involution"]:
                    if not isinstance(pair, list) or len(pair) != 2:
                        raise ConfigError(f"involution entries are pairs, got {pair!r}")
                    involution[pair[0]] = pair[1]
                    involution[pair[1]] = pair[0]
            inst = inst_mod.symmetric_star_algebra(gens, involution=involution)
        elif kind == "sweedler_h4":
            inst = inst_mod.sweedler_h4()
        else:
            raise ConfigError(f"unknown instance type {kind!r}")
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"cannot build instance {kind!r}: {exc}") from exc
    if tolerances:
        inst.eq_eps = float(tolerances.get("eq", inst.eq_eps))
        inst.prune_eps = float(tolerances.get("prune", inst.prune_eps))
    return inst


def build_cocycle(desc: dict, instance: BialgebraInstance) -> Cochain:
    kind = desc.get("type")
    try:
        _only_fields(desc)
        if kind == "zd_matrix":
            return inst_mod.make_zd_matrix_cocycle(instance, parse_matrix(desc["matrix"]))
        if kind == "z_polynomial":
            coeffs = [
                (read_int(p, "z_polynomial exponent"), read_int(q, "z_polynomial exponent"), parse_complex(c))
                for p, q, c in desc["coeffs"]
            ]
            return inst_mod.make_z_polynomial_cocycle(instance, coeffs)
        if kind == "primitive_bilinear":
            return inst_mod.make_primitive_bilinear_cocycle(instance, parse_matrix(desc["matrix"]))
        if kind == "grouplike_table":
            table = _grouplike_table(desc.get("entries", []), instance)
            return inst_mod.make_grouplike_expression_cochain(
                instance, desc.get("expr", ""), arity=2, table=table or None
            )
        if kind == "zero":
            return zero_cochain(instance, 2)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"cocycle descriptor missing field {exc}") from exc
    except Exception as exc:
        raise ConfigError(f"cannot build cocycle {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown cocycle type {kind!r}")


def _grouplike_table(entries, instance: BialgebraInstance) -> dict:
    """Read ``[k, l, c]`` entries; a key the instance cannot hold, or a repeated (k, l), names its entry."""
    table = {}
    for entry in entries:
        try:
            k, l, c = entry
            key_pair, value = (parse_key(instance, k), parse_key(instance, l)), parse_complex(c)
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"grouplike_table entry {entry!r}: {exc}") from exc
        if key_pair in table:
            raise ConfigError(f"grouplike_table entry {entry!r} repeats the pair {key_pair}")
        table[key_pair] = value
    return table


def build_witness(desc: dict, instance: BialgebraInstance, cocycle: Cochain) -> Cochain:
    kind = desc.get("type")
    try:
        _only_fields(desc)
        if kind == "grouplike_expression":
            return inst_mod.make_grouplike_expression_cochain(
                instance, desc["expr"], arity=1
            )
        if kind == "pbw_trivializer":
            # the normal-order functional psi satisfies L + d(psi) = 0 when the
            # cocycle is symmetric on generators, so -psi is the witness of L
            psi = inst_mod.make_trivializing_functional(instance, cocycle)
            return cochain_scale(-1.0, psi, name="pbw_witness")
        if kind == "zero":
            return zero_cochain(instance, 1)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"witness descriptor missing field {exc}") from exc
    except Exception as exc:
        raise ConfigError(f"cannot build witness {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown witness type {kind!r}")


def parse_key(instance: BialgebraInstance, raw):
    """Read a basis key from its JSON form (list of ints, or name string)."""
    if not isinstance(raw, (str, list)):
        raise ConfigError(f"cannot read basis key {raw!r}")
    try:
        key = raw if isinstance(raw, str) else tuple(read_int(a, "basis key coordinate") for a in raw)
        instance.check_key(key)
    except Exception as exc:
        raise ConfigError(f"cannot read basis key {raw!r}: {exc}") from exc
    return key
