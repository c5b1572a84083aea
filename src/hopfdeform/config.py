"""Run configuration: JSON descriptors for instances, cocycles and witnesses.

``RunConfig.from_dict`` reads and checks every setting of a run once; the
command line writes its flags into the JSON before it is read.  Complex
scalars appear in configs as ``[re, im]`` pairs (plain numbers are accepted
and read as real).  Matrices are nested arrays of such pairs.  A descriptor
is a JSON object whose ``type`` names a row of ``_INSTANCES``, ``_COCYCLES``
or ``_WITNESSES``: these tables are the one list of descriptor types and of
the fields each type reads, for example ``{"type": "group_algebra_zd", "d":
2, "star": true}``.  Only the witness may be ``null`` or absent, for none.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

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


# above 2**53 a float need not be the integer written (2**53 + 1 reads as 2**53)
_EXACT_FLOAT_INT = 2**53


def read_int(value, what: str) -> int:
    """Read a JSON integer field; ``2.0`` reads as 2, a bool, a string, ``2.5`` or a float beyond 2**53 is rejected."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, float) and abs(value) > _EXACT_FLOAT_INT:
        raise ConfigError(f"{what} must be an integer, got the float {value!r}, beyond 2**53, where a float "
                          "need not be the integer written")
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


# the least value of a sampler setting or a tolerance, where it is not 0
_LEAST = {"max_support": 1}


def _settings(raw: dict, name: str, defaults: dict, read) -> dict:
    """The JSON object ``raw[name]`` over ``defaults``, each value read by ``read`` and none below _LEAST."""
    given = raw.get(name, {})
    if not isinstance(given, dict):
        raise ConfigError(f"{name} must be a JSON object, got {given!r}")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {name} settings: {sorted(unknown)}")
    values = {k: read(v, f"{name} {k}") for k, v in {**defaults, **given}.items()}
    for k, v in values.items():
        if v < _LEAST.get(k, 0):
            raise ConfigError(f"{name} {k} must be >= {_LEAST.get(k, 0)}, got {v!r}")
    return values


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

    def to_dict(self) -> dict:
        """The JSON form a report echoes; from_dict reads it back to an equal config."""
        return dict(vars(self))

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Read and check every setting of a run once, each to its final type."""
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown configuration fields: {sorted(unknown)}")
        env_seed = os.environ.get("HOPFDEFORM_SEED")
        try:  # the one integer that arrives as a string
            default_seed = int(env_seed) if env_seed else cls.seed
        except ValueError as exc:
            raise ConfigError(f"HOPFDEFORM_SEED must be an integer, got {env_seed!r}") from exc
        t_grid = raw.get("t_grid", DEFAULT_T_GRID)
        if not isinstance(t_grid, (list, tuple)) or not t_grid:
            raise ConfigError(f"t_grid must be a non-empty list of numbers, got {t_grid!r}")
        # a string or an object of two entries is not a pair: list() would split it
        tabulate = raw.get("tabulate", [])
        if not isinstance(tabulate, list) or not all(isinstance(p, list) and len(p) == 2 for p in tabulate):
            raise ConfigError(f"tabulate must be a list of key pairs, got {tabulate!r}")
        cfg = cls(
            instance=_descriptor(raw, "instance"),
            cocycle=_descriptor(raw, "cocycle"),
            witness=_descriptor(raw, "witness"),
            t_grid=[read_float(t, "every t_grid value") for t in t_grid],
            seed=read_int(raw.get("seed", default_seed), "seed"),
            sample_budget=read_int(raw.get("sample_budget", cls.sample_budget), "sample_budget"),
            tolerances=_settings(raw, "tolerances", DEFAULT_TOLERANCES, read_float),
            sampler=_settings(raw, "sampler", DEFAULT_SAMPLER, read_int),
            require_star=raw.get("require_star", cls.require_star),
            command=raw.get("command", cls.command),
            tabulate=[list(p) for p in tabulate],
        )
        if cfg.sample_budget < 1:
            raise ConfigError("sample_budget must be >= 1")
        # at 1 or above every basis element 1·k is pruned to zero
        if not cfg.tolerances["prune"] < 1:
            raise ConfigError(f"tolerances prune must be in [0, 1), got {cfg.tolerances['prune']!r}")
        if not isinstance(cfg.require_star, bool):
            raise ConfigError(f"require_star must be true or false, got {cfg.require_star!r}")
        if cfg.command not in COMMANDS:
            raise ConfigError(f"unknown command {cfg.command!r}; choose from {COMMANDS}")
        if cfg.command == "trivial-check" and cfg.witness is None:
            raise ConfigError("trivial-check needs a 'witness' descriptor")
        return cfg


def read_json(path: str):
    """The JSON value in the file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep to parse
        raise ConfigError(f"configuration {path!r} is not valid JSON: {exc}") from exc


def load_config(path: str) -> RunConfig:
    return RunConfig.from_dict(read_json(path))


# -- descriptor resolution -------------------------------------------------------


def _group_algebra_zd(desc: dict) -> BialgebraInstance:
    d = read_int(desc.get("d", 1), "instance d")
    with_star = desc.get("star", True)
    if not isinstance(with_star, bool):
        raise ConfigError(f"instance star must be true or false, got {with_star!r}")
    return inst_mod.group_algebra_zd(d, with_star=with_star)


def _symmetric_star(desc: dict) -> BialgebraInstance:
    gens = desc.get("generators")
    if not isinstance(gens, list) or not gens or not all(isinstance(g, str) and g for g in gens):
        raise ConfigError(f"symmetric_star needs a non-empty 'generators' list of names, got {gens!r}")
    # only a missing or null involution means none; false, 0 or {} is not read as none
    pairs = desc.get("involution")
    if pairs is not None and (not isinstance(pairs, list) or not pairs):
        raise ConfigError(f"involution must be a non-empty list of name pairs or null, got {pairs!r}")
    involution = None if pairs is None else {}
    for pair in pairs or ():
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"involution entries are pairs, got {pair!r}")
        involution[pair[0]] = pair[1]
        involution[pair[1]] = pair[0]
    return inst_mod.symmetric_star_algebra(gens, involution=involution)


def _z_polynomial(desc: dict, instance: BialgebraInstance) -> Cochain:
    coeffs = [
        (read_int(p, "z_polynomial exponent"), read_int(q, "z_polynomial exponent"), parse_complex(c))
        for p, q, c in desc["coeffs"]
    ]
    return inst_mod.make_z_polynomial_cocycle(instance, coeffs)


def _grouplike_table(desc: dict, instance: BialgebraInstance) -> Cochain:
    """``expr`` with ``[k, l, c]`` entries; a key the instance cannot hold, or a repeated pair, names its entry."""
    table = {}
    for entry in desc.get("entries", []):
        try:
            k, l, c = entry
            key_pair, value = (parse_key(instance, k), parse_key(instance, l)), parse_complex(c)
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"grouplike_table entry {entry!r}: {exc}") from exc
        if key_pair in table:
            raise ConfigError(f"grouplike_table entry {entry!r} repeats the pair {key_pair}")
        table[key_pair] = value
    return inst_mod.make_grouplike_expression_cochain(instance, desc.get("expr", ""), arity=2, table=table or None)


def _pbw_trivializer(desc: dict, instance: BialgebraInstance, cocycle: Cochain) -> Cochain:
    # the normal-order functional psi satisfies L + d(psi) = 0 when the
    # cocycle is symmetric on generators, so -psi is the witness of L
    psi = inst_mod.make_trivializing_functional(instance, cocycle)
    return cochain_scale(-1.0, psi, name="pbw_witness")


# One table per descriptor role, the one list of descriptor types: each row
# maps a type to the fields it reads besides "type" and to its builder, which
# takes the descriptor and the role's arguments.  A builder looks library
# functions up when it is called, so a wrapped or patched function is used.
_INSTANCES = {
    "group_algebra_zd": (("d", "star"), _group_algebra_zd),
    "symmetric_star": (("generators", "involution"), _symmetric_star),
    "sweedler_h4": ((), lambda desc: inst_mod.sweedler_h4()),
}
_COCYCLES = {
    "zd_matrix": (("matrix",), lambda desc, instance: inst_mod.make_zd_matrix_cocycle(
        instance, parse_matrix(desc["matrix"]))),
    "z_polynomial": (("coeffs",), _z_polynomial),
    "primitive_bilinear": (("matrix",), lambda desc, instance: inst_mod.make_primitive_bilinear_cocycle(
        instance, parse_matrix(desc["matrix"]))),
    "grouplike_table": (("entries", "expr"), _grouplike_table),
    "zero": ((), lambda desc, instance: zero_cochain(instance, 2)),
}
_WITNESSES = {
    "grouplike_expression": (("expr",), lambda desc, instance, cocycle: inst_mod.make_grouplike_expression_cochain(
        instance, desc["expr"], arity=1)),
    "pbw_trivializer": ((), _pbw_trivializer),
    "zero": ((), lambda desc, instance, cocycle: zero_cochain(instance, 1)),
}


def _build(role: str, table: dict, desc: dict, *args):
    """Build ``desc`` by its row of ``table``; an unknown type or field, or a builder failure, is a ConfigError."""
    kind = desc.get("type")
    try:
        fields_read, builder = table[kind]
    except (KeyError, TypeError):  # a type that is unknown, or not even hashable
        raise ConfigError(f"unknown {role} type {kind!r}") from None
    unknown = set(desc) - {"type", *fields_read}
    if unknown:
        raise ConfigError(f"unknown {kind} descriptor fields: {sorted(unknown)}")
    try:
        return builder(desc, *args)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{role} descriptor missing field {exc}") from exc
    except Exception as exc:
        raise ConfigError(f"cannot build {role} {kind!r}: {exc}") from exc


def build_instance(desc: dict, tolerances: dict | None = None) -> BialgebraInstance:
    inst = _build("instance", _INSTANCES, desc)
    if tolerances:
        inst.eq_eps = float(tolerances.get("eq", inst.eq_eps))
        inst.prune_eps = float(tolerances.get("prune", inst.prune_eps))
    return inst


def build_cocycle(desc: dict, instance: BialgebraInstance) -> Cochain:
    return _build("cocycle", _COCYCLES, desc, instance)


def build_witness(desc: dict, instance: BialgebraInstance, cocycle: Cochain) -> Cochain:
    return _build("witness", _WITNESSES, desc, instance, cocycle)


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
