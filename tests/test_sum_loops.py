"""Every hand-written sparse-sum loop in the package is named here, with its reason.

A function that reads ``cur = acc.get(key)`` and stores ``acc[key]`` back
holds a sum that a kernel could do.  The kernels hold that loop by design.
Any other function may hold it only for a measured reason, written below,
so a change that writes a new such loop must name it here, or send the sum
through a kernel.  Times are paired ``perfbench/run.py`` ``wall_s`` medians of
the kernel form against the hand-written one, unless a micro-benchmark is
named.
"""
import ast
from pathlib import Path

import hopfdeform

PACKAGE = Path(hopfdeform.__file__).resolve().parent

KERNELS = {
    "core._linear": "Σ c·rule(k) over (k, c) items, c * w per term",
    "core._bilinear": "Σ (ca·cb)·table[ka, kb] over two term lists and a table of rows, (ca * cb) * w per term",
    "core._row_pairs": "Σ c·(row₁⊗row₂) over (c, row₁, row₂) legs, (c * w₁) * w₂ per term",
}

HAND_WRITTEN = {
    "core.tensor_expand_slot": "splices a coproduct pair into the slot; as a _linear rule that is a closure and "
                               "a generator per term, 1.44 and 1.59 times the time per call on oscillator and "
                               "Z² coproducts (median of 21 alternating micro-benchmark rounds)",
    "core.tensor_contract_slot": "drops the slot and scales by δ(k); as a _linear rule, 1.38 and 1.40 times the "
                                 "time per call, measured as tensor_expand_slot",
    "convolution.map_conv_exp.build.rule": "the row of μ_t, S_t or Φ_t on a basis tuple, Σ (c·e)·w over the shared "
                                           "expansion's legs where e = e_⋆^{tf}(right) ≠ 0; as _linear over a "
                                           "generator of (row, c·e) legs with iter as the rule, cold-sweep +2.4% "
                                           "(1.031 against 1.007 s, medians of 4 rotating rounds of 10-s runs, the "
                                           "loop lower in all 4) and oscillator-full even (0.695 against 0.696 s)",
    "deformation._deformed_mul_square": "(μ_t⊗μ_s)∘Λ with the grouping (((ca·cb)·c)·w₁)·w₂, Λ from "
                                        "tuple_comul_terms, c = ((1+0j)·c₁)·c₂ read from the coproduct rows; "
                                        "through _row_pairs, oscillator-full +1.4% (the kernel form better in 2 "
                                        "of 6 pairs of 10-s runs), and +2.2% and +2.4% in two earlier sets; "
                                        "with tensor_expand_slot and tensor_contract_slot also sent through "
                                        "_linear, bit for bit the same, oscillator-full +2.7% (slower in 5 of 5 "
                                        "pairs of 10-s runs)",
}


def _reads_and_stores(body) -> bool:
    """Whether ``body`` reads ``d.get(…)`` into a name and stores ``d[…]``, outside nested functions and classes."""
    read, stored = set(), set()
    todo = list(body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Assign):
            value = node.value
            if (isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute)
                    and value.func.attr == "get" and isinstance(value.func.value, ast.Name)):
                read.add(value.func.value.id)
            for target in node.targets:
                if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                    stored.add(target.value.id)
        todo.extend(ast.iter_child_nodes(node))
    return bool(read & stored)


def _accumulating_functions() -> set:
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _reads_and_stores(child.body):
                    found.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.")

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return found


def test_every_hand_written_sum_loop_is_a_kernel_or_names_its_reason():
    found = _accumulating_functions()
    assert found - KERNELS.keys() - HAND_WRITTEN.keys() == set(), "a new hand-written sum: name it or use a kernel"
    assert KERNELS.keys() | HAND_WRITTEN.keys() <= found, "a listed loop is gone: take it off the list"
    assert all(reason.strip() for reason in {**KERNELS, **HAND_WRITTEN}.values())


def test_the_loop_finder_sees_the_accumulation_pattern():
    source = '''
def summed(items):
    acc = {}
    for key, c in items:
        cur = acc.get(key)
        acc[key] = c if cur is None else cur + c
    return acc

def looked_up(table, key):
    value = table.get(key)
    return value

class Holder:
    def method(self, items):
        out = {}
        def inner():
            cur = out.get(1)
        for key, c in items:
            out[key] = c
'''
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and _reads_and_stores(node.body):
            found.add(node.name)
        if isinstance(node, ast.ClassDef):
            found |= {f"{node.name}.{m.name}" for m in node.body if _reads_and_stores(m.body)}
    # a lookup without a store is no sum, and a nested function's read is not the method's
    assert found == {"summed"}
