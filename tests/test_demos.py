"""Smoke runs for the demo scripts: each runs as shipped, with no arguments."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"

# what each demo's default output must contain; a demo missing here fails
EXPECT = {
    "alt_equation_tables.py": [
        "non-monotone table (first drop at n=7):",
        # the equation alone admits 3054 tables; monotonicity leaves 2
        "tables over [0, 28] satisfying the equation: 3054",
        "nondecreasing among them: 2",
        "gbar is one of them: True",
        "all of them equal gbar below the window edge: True",
    ],
    "decompositions.py": ["F_3+F_5", "ThreeOdd"],
    "sequences.py": [
        "three-odd: gbar runs one ahead",
        "first three-odd positions: [7, 15, 20,",
    ],
    "trees.py": ["9..13"],
}


# each demo runs under this run's -X dev and -W options, so that a warning
# that fails a test under `-X dev -W error` fails a demo too
FLAGS = [*(["-X", "dev"] if sys.flags.dev_mode else []),
         *(f"-W{option}" for option in sys.warnoptions)]


def run_demo(name, *args):
    return subprocess.run([sys.executable, *FLAGS, str(DEMOS / name), *args],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs_with_no_arguments(path):
    proc = run_demo(path.name)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    for text in EXPECT[path.name]:
        assert text in proc.stdout, text


def test_demo_rejects_a_stale_flag():
    proc = run_demo("sequences.py", "--to", "5")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: sequences.py"), proc.stderr


def test_demo_help_prints_the_docstring():
    proc = run_demo("sequences.py", "--help")
    assert proc.returncode == 0, proc.stderr
    doc = ast.get_docstring(ast.parse((DEMOS / "sequences.py").read_text()))
    # argparse rewraps the description to the terminal width
    assert "".join(doc.split()) in "".join(proc.stdout.split())
