"""Smoke runs for the demo scripts (small arguments, substring checks)."""

import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).parent.parent / "demos"


def run_demo(name, *args):
    proc = subprocess.run([sys.executable, str(DEMOS / name), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_sequences():
    out = run_demo("sequences.py", "--to", "8")
    assert "three-odd: gbar runs one ahead" in out
    assert "first three-odd positions: [7, 15, 20," in out


def test_decompositions():
    out = run_demo("decompositions.py", "--to", "7")
    assert "F_3+F_5" in out
    assert "ThreeOdd" in out
    assert "normalize(relaxed) == canonical: True" in out


def test_trees():
    out = run_demo("trees.py", "--depth", "5", "--emit-dot")
    assert "9..13" in out
    assert "digraph g {" in out


def test_oeis_conformance():
    out = run_demo("oeis_conformance.py")
    assert out.count("result: PASS") == 2
    assert "resolved offset 0" in out


def test_alt_equation_tables():
    out = run_demo("alt_equation_tables.py", "--to", "18", "--show", "1")
    assert "non-monotone table (first drop at n=7):" in out
    assert "gbar is one of them: True" in out
    assert "all of them equal gbar below the window edge: True" in out
    counts = [int(line.rsplit(" ", 1)[1]) for line in out.splitlines()
              if "satisfying the equation:" in line
              or "nondecreasing among them:" in line]
    total, monotone = counts
    assert monotone >= 1
    assert total > monotone  # the equation alone does not force monotonicity
