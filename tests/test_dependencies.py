"""The package needs nothing beyond the standard library at run time, and
its tests nothing beyond the standard library, pytest and Hypothesis."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Compare the modules loaded before and after the import, so that modules a
# site hook loads at interpreter start-up do not count against the package.
_PROBE = """
import json, sys
before = set(sys.modules)
import hopfdeform
print(json.dumps([hopfdeform.__file__, sorted(set(sys.modules) - before)]))
"""


def test_import_loads_only_the_standard_library():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    path, loaded = json.loads(out)
    assert Path(path).resolve().parent == SRC / "hopfdeform"
    foreign = {name.split(".")[0] for name in loaded} - set(sys.stdlib_module_names) - {"hopfdeform"}
    assert not foreign, f"importing hopfdeform loads third-party modules: {sorted(foreign)}"


# besides the standard library, the tests may import the test runner, its
# property-testing library, the package, the reference model in
# tests/reference.py, which the kernel tests compare the package with, and the
# benchmark's own modules in perfbench/, which one test imports to check the
# names the tracer reads
_TEST_IMPORTS = {
    "pytest", "hypothesis", "hopfdeform", "reference", *(path.stem for path in (ROOT / "perfbench").glob("*.py"))
}


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_tests_import_no_other_third_party_module():
    foreign = sorted(
        f"{path.name}: {name}"
        for path in sorted((ROOT / "tests").glob("*.py"))
        for name in _imported_modules(path)
        if name.split(".")[0] not in {*sys.stdlib_module_names, *_TEST_IMPORTS}
    )
    assert not foreign, f"the tests import third-party modules: {foreign}"
