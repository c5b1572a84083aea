"""The package needs nothing beyond the standard library at run time."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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
