"""The scripts under demos/ and the README's quick tour run to the end
and print what they promise.

Each runs in its own process, against the package in src, inside a
temporary directory, since flag_polytope.py writes its SVG into the
working directory.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def run_demo(name, cwd):
    return run_python([str(ROOT / "demos" / name)], cwd)


def test_readme_quick_tour_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [tour] = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    lines = run_python(["-c", tour + "print(entry.degree, outcome.ok)\n"], tmp_path)
    assert lines == ["3 True"]


def test_cubic_walkthrough_lands_in_the_body(tmp_path):
    lines = run_demo("cubic_walkthrough.py", tmp_path)
    assert "inside the body [0, 3]: True" in lines


def test_flag_polytope_counts_agree(tmp_path):
    lines = run_demo("flag_polytope.py", tmp_path)
    head = next(i for i, line in enumerate(lines) if line.split()[:1] == ["k"])
    rows = [line.split() for line in lines[head + 1 : head + 5]]
    assert [row[0] for row in rows] == ["1", "2", "3", "4"]
    # lattice points of k*body, Hilbert H(k) and the Weyl dimension
    assert all(len(row) == 4 and row[1] == row[2] == row[3] for row in rows)
    assert (tmp_path / "flag_polytope.svg").is_file()


def test_quadric_brackets_vanish(tmp_path):
    lines = run_demo("quadric_actions.py", tmp_path)
    head = next(i for i, line in enumerate(lines) if line.startswith("Poisson brackets"))
    brackets = [float(line) for line in lines[head + 1 : head + 5]]
    assert len(brackets) == 4
    assert all(abs(b) < 1e-6 for b in brackets)
