"""Command line behavior: output shapes, exit codes, env capping.

Everything funnels through run(argv) in-process; one subprocess test at the
end confirms the entry points wire up to the same place. It always runs
`python -m hofg`. It runs the installed `hofg` script when one is on PATH,
and otherwise runs the `[project.scripts]` target from pyproject.toml the
way a console-script wrapper does.
"""

import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import hofg
import hofg.cli as cli
from hofg import MemoTable, errors, g_values, parse_bfile
from hofg.cli import run
from hofg.errors import DomainError, HofgError
from hofg.portfolio import ROUTES


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    assert invoke(capsys, "eval", "gbar", "7") == (0, "5\n", "")
    assert invoke(capsys, "eval", "g", "0") == (0, "0\n", "")
    assert invoke(capsys, "eval", "flip", "9") == (0, "13\n", "")
    assert invoke(capsys, "eval", "depth", "13") == (0, "5\n", "")
    assert invoke(capsys, "eval", "low", "11") == (0, "4\n", "")


def test_eval_domain_error_exits_one(capsys):
    code, out, err = invoke(capsys, "eval", "low", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_eval_beyond_table_cap_exits_one(capsys):
    code, out, err = invoke(capsys, "eval", "g", "3000000000")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "TABLE_MAX" in err
    assert "Traceback" not in err


def test_usage_errors_exit_two(capsys):
    assert invoke(capsys, "eval", "g", "-1")[0] == 2
    assert invoke(capsys, "nonsense")[0] == 2
    assert invoke(capsys, "seq", "g")[0] == 2
    assert invoke(capsys)[0] == 2


def test_seq_plain(capsys):
    code, out, _ = invoke(capsys, "seq", "g", "--to", "5")
    assert code == 0
    assert out == "0\n1\n1\n2\n3\n3\n"


def test_seq_delta(capsys):
    code, out, _ = invoke(capsys, "seq", "delta-g", "--from", "1", "--to", "5")
    assert code == 0
    assert out == "0\n1\n1\n0\n1\n"


def test_seq_csv(capsys):
    code, out, _ = invoke(capsys, "seq", "gbar", "--to", "3", "--format", "csv")
    assert code == 0
    assert out == "0,0\n1,1\n2,1\n3,2\n"


def test_seq_bfile_reparses(capsys):
    code, out, _ = invoke(capsys, "seq", "g", "--to", "80", "--format", "bfile")
    assert code == 0
    rs = parse_bfile(out)
    assert [r.value for r in rs] == g_values(81)
    assert [r.index for r in rs] == list(range(81))


def test_seq_empty_range(capsys):
    assert invoke(capsys, "seq", "g", "--from", "9", "--to", "3") == (0, "", "")


def test_decomp(capsys):
    code, out, _ = invoke(capsys, "decomp", "11")
    assert code == 0
    assert out == "F_4+F_6\n[4,6]\n"
    code, out, _ = invoke(capsys, "decomp", "0")
    assert out == "0\n[]\n"


def test_decomp_relaxed_demo(capsys):
    code, out, _ = invoke(capsys, "decomp", "11", "--relaxed-demo")
    assert code == 0
    assert out.splitlines() == [
        "F_4+F_6",
        "[4,6]",
        "relaxed: F_2+F_3+F_6",
        "relaxed ranks: [2,3,6]",
        "normalized: F_4+F_6",
    ]


def test_tree_dot(capsys):
    code, out, _ = invoke(capsys, "tree", "g", "--depth", "3", "--format", "dot")
    assert code == 0
    assert out == ("digraph g {\n  1 -> 2;\n  2 -> 3;\n  3 -> 4;\n"
                   "  3 -> 5;\n}\n")
    code, out, _ = invoke(capsys, "tree", "gbar", "--depth", "4")
    assert "  5 -> 7;" in out
    assert "  5 -> 8;" in out


def test_check_small(capsys):
    code, out, _ = invoke(capsys, "check", "--max", "2000")
    assert code == 0
    assert "SUMMARY: 12/12 suites passed" in out
    assert "FAIL" not in out


def test_check_algorithm_subset(capsys):
    code, out, _ = invoke(capsys, "check", "--max", "2000",
                          "--algorithms", "phi,delta")
    assert code == 0
    assert "SUMMARY: 8/8 suites passed" in out
    assert "decomposition" not in out


def test_check_unknown_algorithm(capsys):
    code, _, err = invoke(capsys, "check", "--max", "100",
                          "--algorithms", "phi,astrology")
    assert code == 2
    assert "astrology" in err


def sabotage(monkeypatch, func, key, values):
    """Make check iterate a registry whose (func, key) route yields values."""
    routes = tuple(replace(r, values=values) if (r.func, r.key) == (func, key)
                   else r for r in ROUTES)
    monkeypatch.setattr(cli, "ROUTES", routes)


def test_check_reports_failures(capsys, monkeypatch):
    # sabotage one route to prove a red suite turns into exit 1
    sabotage(monkeypatch, "g", "phi", lambda top: [0] * (top + 1))
    code, out, _ = invoke(capsys, "check", "--max", "200")
    assert code == 1
    assert "FAIL  g: defining = phi floor" in out
    assert "first mismatch at n=1: 0 != 1" in out
    assert "SUMMARY: 11/12 suites passed" in out
    # a table route reports through the same comparison: gbar's table
    # leaves g's at the first three-odd number, gbar(7) = 5 != 4 = g(7)
    sabotage(monkeypatch, "g", "delta",
             lambda top: MemoTable("gbar", rule="delta").prefix(top + 1))
    code, out, _ = invoke(capsys, "check", "--max", "200")
    assert code == 1
    assert "FAIL  g: defining = delta" in out
    assert "first mismatch at n=7: 5 != 4" in out
    assert "PASS  g: defining = phi floor" in out
    assert "SUMMARY: 11/12 suites passed" in out


PARALLEL_MAX = str(cli._PARALLEL_MIN)  # the smallest --max run by workers
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="check runs its workers only where fork exists")


def raises(exc):
    """A route values function that raises exc."""
    def values(top):
        raise exc
    return values


@needs_fork
def test_check_parallel_prints_what_serial_prints(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    parallel = invoke(capsys, "check", "--max", PARALLEL_MAX)
    monkeypatch.setattr(cli, "_cpus", lambda: 1)
    serial = invoke(capsys, "check", "--max", PARALLEL_MAX)
    for code, out, err in (parallel, serial):
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].startswith("SUMMARY: 12/12 suites passed in ")
    assert parallel[1].splitlines()[:-1] == serial[1].splitlines()[:-1]


@needs_fork
def test_check_parallel_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    sabotage(monkeypatch, "g", "phi", lambda top: [0] * (top + 1))
    code, out, _ = invoke(capsys, "check", "--max", PARALLEL_MAX)
    assert code == 1
    assert "FAIL  g: defining = phi floor" in out
    assert "first mismatch at n=1: 0 != 1" in out
    assert "SUMMARY: 11/12 suites passed" in out


@needs_fork
def test_check_worker_domain_error_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    sabotage(monkeypatch, "gbar", "flip", raises(DomainError("sabotaged route")))
    code, out, err = invoke(capsys, "check", "--max", PARALLEL_MAX)
    assert (code, out, err) == (1, "", "error: sabotaged route\n")


@needs_fork
def test_check_worker_death_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    sabotage(monkeypatch, "g", "phi", lambda top: os._exit(3))
    code, out, err = invoke(capsys, "check", "--max", PARALLEL_MAX)
    assert (code, out) == (1, "")
    assert err.startswith("error: a check worker died")
    assert "Traceback" not in err


def test_check_memory_error_exits_one(capsys, monkeypatch):
    sabotage(monkeypatch, "g", "delta", raises(MemoryError()))
    code, out, err = invoke(capsys, "check", "--max", "200")
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_every_error_survives_pickling():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, HofgError)]
    assert len(classes) >= 8
    for cls in classes:
        lined = issubclass(cls, errors._LineError)  # ParseError, GapError
        exc = cls(2, "x") if lined else cls("x")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc) == ("line 2: x" if lined else "x")
        assert getattr(back, "line_no", None) == (2 if lined else None)


def test_check_routes_come_from_the_registry(capsys):
    # (function, --algorithms key, suite name) of every route, in check order
    assert [(r.func, r.key, r.name) for r in ROUTES] == [
        ("g", "decomposition", "g: defining = decomposition"),
        ("g", "delta", "g: defining = delta"),
        ("g", "phi", "g: defining = phi floor"),
        ("gbar", "flip", "gbar: defining = flip conjugation"),
        ("gbar", "delta", "gbar: defining = delta"),
        ("gbar", "correction", "gbar: defining = g + three-odd correction"),
        ("gbar", "complement", "gbar: defining = complement ranks"),
    ]
    keys = list(dict.fromkeys(r.key for r in ROUTES))
    code, out, _ = invoke(capsys, "check", "--help")
    assert code == 0
    assert "'all' or comma list from: " + ",".join(keys) in " ".join(out.split())
    for key in keys:
        code, out, _ = invoke(capsys, "check", "--max", "30", "--algorithms", key)
        assert code == 0
        names = [r.name for r in ROUTES if r.key == key]
        lines = out.splitlines()
        assert lines[:len(names)] == [f"PASS  {n:<45} n=0..30" for n in names]
        total = len(names) + 5  # plus the invariant suites
        assert lines[-1].startswith(f"SUMMARY: {total}/{total} suites passed")


def test_verify_pass_and_json(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("".join(f"{n} {v}\n" for n, v in enumerate(g_values(50))))
    code, out, _ = invoke(capsys, "verify", "--bfile", str(path), "--func", "g")
    assert code == 0
    assert "result: PASS" in out
    blob = json.loads(out.splitlines()[-1])
    assert blob["ok"] is True
    assert blob["compared"] == 50


def test_verify_mismatch_exits_one(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("0 0\n1 1\n2 2\n")
    code, out, _ = invoke(capsys, "verify", "--bfile", str(path), "--func", "g")
    assert code == 1
    assert "first mismatch: index 2 file 2 computed 1" in out


def test_verify_offset_flag(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("0 0\n1 1\n2 1\n3 2\n")
    code, out, _ = invoke(capsys, "verify", "--bfile", str(path),
                          "--func", "g", "--offset", "1")
    assert code == 1  # shifted comparison must not match
    code, out, _ = invoke(capsys, "verify", "--bfile", str(path),
                          "--func", "g", "--offset", "0")
    assert code == 0


def test_verify_malformed_file(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("0 0\nbroken line here\n")
    code, _, err = invoke(capsys, "verify", "--bfile", str(path), "--func", "g")
    assert code == 1
    assert "error:" in err
    assert "line 2" in err


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = invoke(capsys, "verify", "--bfile",
                          str(tmp_path / "nope.txt"), "--func", "g")
    assert code == 1
    assert "cannot read" in err


def test_env_cap_on_seq(capsys, monkeypatch):
    monkeypatch.setenv("HOFG_MAX_N", "10")
    code, out, err = invoke(capsys, "seq", "g", "--to", "100")
    assert code == 0
    assert len(out.splitlines()) == 11
    assert "capped at 10" in err


def test_env_cap_on_check(capsys, monkeypatch):
    monkeypatch.setenv("HOFG_MAX_N", "500")
    code, out, err = invoke(capsys, "check", "--max", "100000")
    assert code == 0
    assert "n=0..500" in out
    assert "capped at 500" in err


def test_env_cap_garbage(capsys, monkeypatch):
    monkeypatch.setenv("HOFG_MAX_N", "lots")
    code, _, err = invoke(capsys, "seq", "g", "--to", "5")
    assert code == 1
    assert "HOFG_MAX_N" in err


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What a console-script wrapper does: resolve "module:attr", name the
# program, exit with the target's return value. The target is argv[1].
CONSOLE_SCRIPT = """\
import sys
from importlib.metadata import EntryPoint
main = EntryPoint("hofg", sys.argv.pop(1), "console_scripts").load()
sys.argv[0] = "hofg"
sys.exit(main())
"""


def run_package(argv):
    """Run argv in a subprocess that imports the hofg under test, from any cwd."""
    src = os.path.dirname(os.path.dirname(hofg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(argv, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_installed_entry_points():
    out = run_package([sys.executable, "-m", "hofg", "eval", "gbar", "7"])
    assert out.returncode == 0, out.stderr
    assert out.stdout == "5\n", out.stderr
    script = shutil.which("hofg")
    if script is not None:
        argv = [script]
    else:
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["hofg"]
        argv = [sys.executable, "-c", CONSOLE_SCRIPT, target]
    out = run_package(argv + ["eval", "g", "10"])
    assert out.returncode == 0, out.stderr
    assert out.stdout == "6\n", out.stderr


def test_import_leaves_the_worker_pool_unloaded():
    code = ("import sys, hofg.cli; print(sorted(m for m in sys.modules if "
            "m.startswith(('multiprocessing', 'concurrent'))))")
    out = run_package([sys.executable, "-c", code])
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr
