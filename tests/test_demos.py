"""Every demo script runs to completion against the package in ``src/``, and
the README's quick tour gives the values its comments state."""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # the suite's warning filters do not reach a subprocess, so a numpy
    # warning in a demo is made an error here
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_readme_quick_tour_values():
    # the tour's python block, run statement by statement: an expression
    # followed by a comment must evaluate to the comment's value(s)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    source = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        code = ast.Module([stmt], type_ignores=[])
        _, hash_, comment = lines[stmt.end_lineno - 1].partition("#")
        if not (isinstance(stmt, ast.Expr) and hash_):
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        expect = eval(comment)
        got, expect = (got, expect) if isinstance(expect, tuple) else ((got,), (expect,))
        assert len(got) == len(expect)
        assert all(math.isclose(g, e, abs_tol=1e-9) for g, e in zip(got, expect)), comment
        checked.append(comment.strip())
    assert checked == ["1.5", "3.0", "1.0", "1.0, 4/7"]
