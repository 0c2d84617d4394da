"""The example scripts and the README's library example run to completion
against the package sources."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import starplane

ROOT = Path(__file__).resolve().parent.parent


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


@pytest.mark.parametrize("name", ["quantize_walkthrough.py", "berezin_and_liewords.py"])
def test_script_exits_zero(name):
    proc = _run([str(ROOT / "scripts" / name)])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout


def test_walkthrough_stdout_matches_golden():
    # the default run, byte for byte; it prints the kappa-term count of each
    # K_k in quantize(x*y, 3).ktables
    proc = _run([str(ROOT / "scripts" / "quantize_walkthrough.py")])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "data" / "quantize_walkthrough_default.txt").read_bytes()


def test_readme_library_example_runs():
    # the one python block of README.md, run as written; it may import only
    # names the package exports
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.S)
    imported = {alias.name for node in ast.walk(ast.parse(example))
                if isinstance(node, ast.ImportFrom) and node.module == "starplane"
                for alias in node.names}
    assert imported and imported <= set(starplane.__all__), imported - set(starplane.__all__)
    proc = _run(["-c", example])
    assert proc.returncode == 0, proc.stderr.decode()
