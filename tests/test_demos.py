"""The narrative demo scripts and the README's library quick start must stay runnable."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(script):
    # the scripts import the package from the checkout, installed or not
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=180
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_demo_directory_is_populated():
    assert len(DEMOS) == 4


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    # a line documented as "# True" must evaluate to True
    code = re.sub(r"^(.+?)\s+# True$", r"assert \1", block, flags=re.M)
    assert code.count("assert ") == block.count("# True") >= 1
    exec(compile(code, "README.md (Library quick start)", "exec"), {})
