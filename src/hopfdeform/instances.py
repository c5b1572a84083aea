"""Concrete bialgebra instances and the cocycles that deform them.

Provided instances:

* ``group_algebra_zd(d)``: the group algebra of Z^d on grouplike basis
  keys (integer vectors); antipode and involution send k to −k.
* ``symmetric_star_algebra(names, involution)``: polynomials in commuting
  generators on the monomial (exponent-vector) basis, generators
  primitive, graded by total degree; the optional involution permutes
  generators and conjugates coefficients.
* ``sweedler_h4()``: the four-dimensional non-cocommutative Hopf algebra
  with basis 1, g, x, gx and relations g² = 1, x² = 0, xg = −gx.  It has
  no grading and serves as a finite smoke test of the Hopf machinery.

Cocycle constructors return arity-2 functionals ready for
``validate_generator``.  Monomial orderings follow the generator index,
which makes the normal ordering (and the trivializing functional built
from it) deterministic.
"""
from __future__ import annotations

import ast
import cmath
import itertools
import math

from .core import AlgebraError, BialgebraInstance, Kind, NonFiniteError, _scalar
from .convolution import Cochain
from . import cohomology
from .sampling import ElementSampler

# -- group algebra of Z^d ------------------------------------------------------


def group_algebra_zd(d: int, with_star: bool = True, name: str | None = None) -> BialgebraInstance:
    if d < 1:
        raise AlgebraError("group algebra dimension must be >= 1")
    zero = (0,) * d

    def mul_basis(k1, k2):
        return ((tuple(a + b for a, b in zip(k1, k2)), 1.0),)

    def neg(k):
        return ((tuple(-a for a in k), 1.0),)

    def key_check(k):
        return (
            isinstance(k, tuple)
            and len(k) == d
            and all(isinstance(a, int) for a in k)
        )

    return BialgebraInstance(
        name=name or f"group_algebra_z{d}",
        kind=Kind.GROUPLIKE_BASIS,
        unit=zero,
        mul_basis=mul_basis,
        comul_basis=lambda k: ((k, k, 1.0),),
        counit_basis=lambda k: 1.0,
        antipode_basis=neg,
        star_basis=neg if with_star else None,
        cocommutative=True,
        key_check=key_check,
        key_str=lambda k: "(" + ",".join(str(a) for a in k) + ")",
    )


# -- symmetric algebra on named generators -------------------------------------


def symmetric_star_algebra(
    generators,
    involution=None,
    name: str | None = None,
) -> BialgebraInstance:
    """Polynomial algebra on commuting generators, exponent-vector basis.

    ``involution`` maps generator names to generator names and must be an
    involutive permutation (e.g. swap x and xstar); omit it for an
    instance without a star structure.
    """
    names = tuple(generators)
    n = len(names)
    if n < 1:
        raise AlgebraError("need at least one generator")
    if len(set(names)) != n:
        raise AlgebraError(f"generator names must be distinct, got {list(names)!r}")
    index = {g: i for i, g in enumerate(names)}
    zero = (0,) * n

    perm = None
    if involution is not None:
        mapping = dict(involution)
        for g, h in list(mapping.items()):
            if g not in index:
                raise AlgebraError(f"involution maps {g!r}, but {g!r} is not a generator of {list(names)!r}")
            if mapping.get(h) != g:
                raise AlgebraError(f"involution is not an involutive permutation at {g!r}")
        perm = tuple(index[mapping.get(g, g)] for g in names)

    def mul_basis(k1, k2):
        return ((tuple(a + b for a, b in zip(k1, k2)), 1.0),)

    def comul_basis(k):
        # binomial expansion of prod (x_i (x) 1 + 1 (x) x_i)^{k_i}
        out = []
        ranges = [range(a + 1) for a in k]
        for beta in itertools.product(*ranges):
            coeff = 1.0
            for a, b in zip(k, beta):
                coeff *= math.comb(a, b)
            out.append((tuple(beta), tuple(a - b for a, b in zip(k, beta)), coeff))
        return out

    def antipode_basis(k):
        return ((k, float((-1) ** sum(k))),)

    def star_basis(k):
        starred = [0] * n
        for i, e in enumerate(k):
            starred[perm[i]] = e
        return ((tuple(starred), 1.0),)

    def key_str(k):
        if sum(k) == 0:
            return "1"
        parts = []
        for g, e in zip(names, k):
            if e == 1:
                parts.append(g)
            elif e > 1:
                parts.append(f"{g}^{e}")
        return "*".join(parts)

    def key_check(k):
        return (
            isinstance(k, tuple)
            and len(k) == n
            and all(isinstance(a, int) and a >= 0 for a in k)
        )

    return BialgebraInstance(
        name=name or "symmetric[" + ",".join(names) + "]",
        kind=Kind.GRADED_CONNECTED,
        unit=zero,
        mul_basis=mul_basis,
        comul_basis=comul_basis,
        counit_basis=lambda k: 1.0 if sum(k) == 0 else 0.0,
        antipode_basis=antipode_basis,
        star_basis=star_basis if perm is not None else None,
        degree=sum,
        cocommutative=True,
        key_check=key_check,
        key_str=key_str,
    )


def generator_key(instance: BialgebraInstance, i: int) -> tuple:
    n = len(instance.unit)
    return tuple(1 if j == i else 0 for j in range(n))


# -- the four-dimensional Sweedler algebra -------------------------------------

_H4_KEYS = ("1", "g", "x", "gx")
_H4_ORDER = {k: i for i, k in enumerate(_H4_KEYS)}

_H4_MUL = {
    ("1", "1"): (("1", 1.0),),
    ("1", "g"): (("g", 1.0),),
    ("1", "x"): (("x", 1.0),),
    ("1", "gx"): (("gx", 1.0),),
    ("g", "1"): (("g", 1.0),),
    ("g", "g"): (("1", 1.0),),
    ("g", "x"): (("gx", 1.0),),
    ("g", "gx"): (("x", 1.0),),
    ("x", "1"): (("x", 1.0),),
    ("x", "g"): (("gx", -1.0),),
    ("x", "x"): (),
    ("x", "gx"): (),
    ("gx", "1"): (("gx", 1.0),),
    ("gx", "g"): (("x", -1.0),),
    ("gx", "x"): (),
    ("gx", "gx"): (),
}

_H4_COMUL = {
    "1": (("1", "1", 1.0),),
    "g": (("g", "g", 1.0),),
    "x": (("x", "1", 1.0), ("g", "x", 1.0)),
    "gx": (("gx", "g", 1.0), ("1", "gx", 1.0)),
}

_H4_ANTIPODE = {
    "1": (("1", 1.0),),
    "g": (("g", 1.0),),
    "x": (("gx", -1.0),),
    "gx": (("x", 1.0),),
}


def sweedler_h4(name: str = "sweedler_h4") -> BialgebraInstance:
    return BialgebraInstance(
        name=name,
        kind=Kind.FINITE,
        unit="1",
        mul_basis=lambda k1, k2: _H4_MUL[(k1, k2)],
        comul_basis=lambda k: _H4_COMUL[k],
        counit_basis=lambda k: 1.0 if k in ("1", "g") else 0.0,
        antipode_basis=lambda k: _H4_ANTIPODE[k],
        cocommutative=False,
        key_check=lambda k: k in _H4_ORDER,
        key_str=lambda k: k,
        key_sort=lambda k: _H4_ORDER[k],
        basis_iter=lambda: iter(_H4_KEYS),
    )


# -- cocycles ------------------------------------------------------------------


def _square_matrix(M, n: int) -> tuple:
    """Read an n×n nested sequence of finite numbers as a tuple of rows of complex."""
    try:
        rows = tuple(tuple(complex(v) for v in row) for row in M)
    except (TypeError, ValueError) as exc:
        raise AlgebraError(f"cannot read the matrix: {exc}") from exc
    if [len(row) for row in rows] != [n] * n:
        raise AlgebraError(f"matrix rows of lengths {[len(row) for row in rows]} do not make {n}×{n}")
    if not all(cmath.isfinite(v) for row in rows for v in row):
        raise AlgebraError("matrix entries must be finite")
    return rows


def make_zd_matrix_cocycle(instance: BialgebraInstance, A, name: str | None = None) -> Cochain:
    """L(k, l) = k·A·lᵀ on the grouplike basis of Z^d."""
    if instance.kind is not Kind.GROUPLIKE_BASIS:
        raise AlgebraError("matrix cocycles live on group algebra instances")
    columns = tuple(zip(*_square_matrix(A, len(instance.unit))))

    def rule(keys):
        # (k·A)·lᵀ, each sum in index order from 0j: this order fixes the last bit of L
        k, l = keys
        row = [_scalar(ki * a for ki, a in zip(k, col)) for col in columns]
        return _scalar(r * lj for r, lj in zip(row, l))

    return Cochain(instance, 2, rule, name or "matrix_cocycle")


def make_z_polynomial_cocycle(instance: BialgebraInstance, coeffs, name: str | None = None) -> Cochain:
    """L(m, n) = Σ c_pq m^p n^q on the group algebra of Z.

    ``coeffs`` is an iterable of (p, q, c) with integer exponents.
    """
    if instance.kind is not Kind.GROUPLIKE_BASIS or len(instance.unit) != 1:
        raise AlgebraError("polynomial cocycles live on the group algebra of Z")
    table = tuple((int(p), int(q), complex(c)) for p, q, c in coeffs)
    for p, q, _ in table:
        if p < 0 or q < 0:
            raise AlgebraError("polynomial cocycle exponents must be nonnegative")

    def rule(keys):
        m, n = keys[0][0], keys[1][0]
        return _scalar(c * m**p * n**q for p, q, c in table)

    return Cochain(instance, 2, rule, name or "z_polynomial_cocycle")


def make_z_cubic_coboundary(instance: BialgebraInstance | None = None):
    """The coboundary pair on the group algebra of Z with L(m,n) = m²n + mn².

    Returns (L, ψ) with ψ(k) = −k³/3 and L = ∂ψ.
    """
    inst = instance or group_algebra_zd(1)
    L = make_z_polynomial_cocycle(inst, [(2, 1, 1.0), (1, 2, 1.0)], name="z_cubic")
    psi = Cochain(inst, 1, lambda keys: -(keys[0][0] ** 3) / 3.0, name="z_cubic_witness")
    return L, psi


def make_primitive_bilinear_cocycle(
    instance: BialgebraInstance, M, name: str | None = None
) -> Cochain:
    """Bilinear pairing of the generators, zero off degree (1,1).

    On the symmetric algebra this is a cocycle: every term of its
    coboundary evaluates a pair whose bidegree leaves the (1,1) support.
    """
    if instance.kind is not Kind.GRADED_CONNECTED:
        raise AlgebraError("primitive bilinear cocycles live on graded connected instances")
    M = _square_matrix(M, len(instance.unit))

    def rule(keys):
        k1, k2 = keys
        if sum(k1) != 1 or sum(k2) != 1:
            return 0j
        return M[k1.index(1)][k2.index(1)]

    return Cochain(instance, 2, rule, name or "primitive_bilinear")


def oscillator_cocycle(instance: BialgebraInstance, value: float = 0.5) -> Cochain:
    """The canonical antisymmetric pairing L(x⊗x*) = −L(x*⊗x) = value."""
    return make_primitive_bilinear_cocycle(
        instance, [[0.0, value], [-value, 0.0]], name="oscillator"
    )


def make_trivializing_functional(
    instance: BialgebraInstance,
    L: Cochain,
    sampler: ElementSampler | None = None,
    name: str | None = None,
) -> Cochain:
    """ψ on normally ordered monomials with ψ(a₁…aₙ) = L(a₁…aₙ₋₁ ⊗ aₙ).

    Here aₙ is the largest generator dividing the monomial and the value
    is 0 in degree ≤ 1.  When L is symmetric on generator pairs, L + ∂ψ
    generates the constant deformation; in general the skew part of L on
    generators is untouched, so L + ∂ψ is equivalent to L.
    """
    if instance.kind is not Kind.GRADED_CONNECTED:
        raise AlgebraError("the normal-ordering construction needs a graded connected instance")
    if L.instance is not instance:
        raise AlgebraError("cocycle belongs to a different instance")
    check_sampler = sampler or ElementSampler(instance, seed=20240817, budget=60)
    classifier = cohomology.validate_generator(L, check_sampler, samples=check_sampler.budget)
    if not classifier.is_generator():
        raise cohomology.GeneratorValidationError(
            f"cochain {L.name!r} failed generator validation: {classifier.to_dict()}"
        )

    def rule(keys):
        k = keys[0]
        if sum(k) < 2:
            return 0j
        last = max(i for i, e in enumerate(k) if e > 0)
        head = tuple(e - 1 if i == last else e for i, e in enumerate(k))
        return L.value((head, generator_key(instance, last)))

    return Cochain(instance, 1, rule, name or f"normal_order_psi[{L.name}]")


# -- expression cocycles (config DSL) ------------------------------------------

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Constant,
    ast.Name,
    ast.Load,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
)


# an integer power of more bits lies far past the float range (2**1024), and
# Python would take minutes to compute one exactly (9**9**9 has 1.2e9 bits)
# before the overflow
_MAX_POWER_BITS = 1 << 16


def _bounded_pow(base, exp):
    if (isinstance(base, int) and isinstance(exp, int) and abs(base) > 1
            and exp * math.log2(abs(base)) > _MAX_POWER_BITS):
        raise OverflowError(f"integer power {base}**{exp} has more than {_MAX_POWER_BITS} bits")
    return base ** exp


class _BoundedPow(ast.NodeTransformer):
    """Rewrites each ``a ** b`` as ``_pow(a, b)``."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        func = ast.copy_location(ast.Name("_pow", ast.Load()), node)
        return ast.copy_location(ast.Call(func, [node.left, node.right], []), node)


def compile_expression(expr: str, variables):
    """Compile an arithmetic expression over the given variable names.

    Allowed: + − * / ** with numeric literals; anything else is rejected.
    ``**`` is evaluated by :func:`_bounded_pow`, so a huge integer power is
    an overflow, not a computation that never ends.
    """
    allowed = set(variables)
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise AlgebraError(f"cannot parse expression {expr!r}: {exc}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise AlgebraError(f"forbidden syntax {type(node).__name__!r} in {expr!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float, complex)):
            raise AlgebraError(f"non-numeric literal {node.value!r} in {expr!r}")
        if isinstance(node, ast.Name) and node.id not in allowed:
            raise AlgebraError(f"unknown variable {node.id!r} in {expr!r}")
    code = compile(_BoundedPow().visit(tree), "<cocycle-expression>", "eval")
    namespace = {"__builtins__": {}, "_pow": _bounded_pow}

    def fn(env):
        try:
            return complex(eval(code, namespace, env))
        except ArithmeticError as exc:  # a division by zero or an overflow
            raise NonFiniteError(f"non-finite value of {expr!r} at {env}: {exc}") from exc

    return fn


def _vector_env(prefix: str, vec) -> dict:
    env = {f"{prefix}{i + 1}": v for i, v in enumerate(vec)}
    if len(vec) == 1:
        env[prefix] = vec[0]
    return env


def make_grouplike_expression_cochain(
    instance: BialgebraInstance,
    expr: str,
    arity: int = 2,
    table=None,
    name: str | None = None,
) -> Cochain:
    """Functional on grouplike bases from an arithmetic expression.

    Variables are the integer coordinates: k1..kd for arity 1, m1..md and
    n1..nd for arity 2 (aliases k, m, n when d = 1).  Explicit ``table``
    entries (key tuples mapped to values) take precedence over the
    expression; with no expression the table alone defines the functional
    (zero elsewhere).
    """
    if instance.kind is not Kind.GROUPLIKE_BASIS:
        raise AlgebraError("expression cochains live on group algebra instances")
    if arity not in (1, 2):
        raise AlgebraError("expression cochains support arity 1 or 2")
    d = len(instance.unit)
    prefixes = ("k",) if arity == 1 else ("m", "n")
    variables = [f"{p}{i + 1}" for p in prefixes for i in range(d)]
    if d == 1:
        variables.extend(prefixes)
    fn = compile_expression(expr, variables) if expr else None
    lookup = {tuple(map(tuple, k)): complex(v) for k, v in (table or {}).items()} if table else {}

    def rule(keys):
        if lookup:
            hit = lookup.get(tuple(keys))
            if hit is not None:
                return hit
        if fn is None:
            return 0j
        env = {}
        for prefix, key in zip(prefixes, keys):
            env.update(_vector_env(prefix, key))
        return fn(env)

    return Cochain(instance, arity, rule, name or f"expr[{expr}]")
