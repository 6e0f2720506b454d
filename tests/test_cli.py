"""Command line behavior: output shapes and exit codes.

Everything funnels through run(argv) in-process; one subprocess test at the
end confirms the entry points wire up to the same place. It always runs
`python -m hofg`. It runs the installed `hofg` script when one is on PATH,
and otherwise runs the `[project.scripts]` target from pyproject.toml the
way a console-script wrapper does.
"""

import gc
import json
import multiprocessing
import os
import pickle
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hofg
import hofg.cli as cli
import hofg.portfolio as portfolio
import hofg.zeckendorf as zeckendorf
from hofg import errors, g_values, gbar_values, parse_bfile
from hofg.cli import run
from hofg.errors import DomainError, HofgError
from hofg.portfolio import LAWS, ROUTES


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SECONDS = r" *\d+\.\d\d s  "  # the seconds field of a check line


def suite_line(word, name, detail):
    """A pattern for check's line for one suite, with any seconds."""
    return re.escape(f"{word}  {name:<45} ") + SECONDS + re.escape(detail)


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


def test_eval_answers_up_to_the_rank_edges(capsys):
    # eval g and gbar use rank arithmetic, not a table: they answer up to
    # F(92) - 1 and F(91), and refuse one above without a traceback
    f92 = hofg.fib(90) + hofg.fib(91)
    assert invoke(capsys, "eval", "g", str(f92 - 1)) == (
        0, "4660046610375530308\n", "")
    assert invoke(capsys, "eval", "gbar", str(hofg.fib(91))) == (
        0, "2880067194370816120\n", "")
    for func, n in (("g", f92), ("gbar", hofg.fib(91) + 1)):
        code, out, err = invoke(capsys, "eval", func, str(n))
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert "Traceback" not in err


@pytest.mark.parametrize("argv, name", [
    (("eval", "flip", "2880067194370816121"), "flip"),  # F(90) + 1
    (("eval", "g", "7540113804746346429"), "g_via_decomposition"),  # F(92)
    (("eval", "gbar", "9223372036854775807"), "gbar_via_complement"),
    (("eval", "depth", "9223372036854775807"), "depth"),
    (("eval", "low", "9223372036854775807"), "low"),
    (("decomp", "9223372036854775807"), "decompose"),
])
def test_rank_overflow_names_the_command_and_the_typed_n(capsys, argv, name):
    # the function the command runs, not a helper inside it (fib, fib_inv)
    # at an n it derived
    assert invoke(capsys, *argv) == (
        1, "", f"error: {name}: n = {argv[-1]} needs a Fibonacci rank beyond 91\n")


def test_seq_answers_up_to_the_rank_edges(capsys):
    # seq reads the window forms of eval's g and gbar functions: it answers
    # up to their edges, one lower for a delta, which reads n + 1.  Past
    # them it prints nothing, not even a first chunk, and one error line
    # naming the function and the first n it cannot answer
    f91, f92 = hofg.fib(91), hofg.fib(90) + hofg.fib(91)
    for func, top, fn, edge in (
            ("g", f92 - 1, hofg.g_via_decomposition, f92 - 1),
            ("gbar", f91, hofg.gbar_via_complement, f91),
            ("delta-g", f92 - 2, hofg.g_via_decomposition, f92 - 1),
            ("delta-gbar", f91 - 1, hofg.gbar_via_complement, f91)):
        name = fn.__name__
        want = [fn(n + 1) - fn(n) if func.startswith("delta-") else fn(n)
                for n in range(top - 2, top + 1)]
        assert invoke(capsys, "seq", func, "--from", str(top - 2), "--to", str(top)) == (
            0, "".join(f"{v}\n" for v in want), ""), func
        for start in (top - 2, top + 1 - cli._SEQ_CHUNK - 5):  # one chunk, two chunks
            assert invoke(capsys, "seq", func, "--from", str(start), "--to", str(top + 1)) == (
                1, "", f"error: {name}: n = {edge + 1} needs a Fibonacci rank beyond 91\n")


@pytest.mark.parametrize("func", ["g", "gbar", "delta-g", "delta-gbar"])
def test_seq_equals_eval_around_window_and_block_edges(capsys, func):
    # F(18) is where the windows of the ranks >= 18 start, and each F(k) a
    # depth block's edge
    base, delta = func.removeprefix("delta-"), func.startswith("delta-")
    for k in (18, 19, 20, 30, 60, 88):
        lo, hi = hofg.fib(k) - 5, hofg.fib(k) + 5
        at = {n: int(invoke(capsys, "eval", base, str(n))[1]) for n in range(lo, hi + 2)}
        values = [(n, at[n + 1] - at[n] if delta else at[n]) for n in range(lo, hi + 1)]
        for fmt, line in (("plain", "{v}"), ("bfile", "{n} {v}"), ("csv", "{n},{v}")):
            assert invoke(capsys, "seq", func, "--from", str(lo), "--to", str(hi),
                          "--format", fmt) == (
                0, "".join(line.format(n=n, v=v) + "\n" for n, v in values), ""), (k, fmt)


def test_usage_errors_exit_two(capsys):
    assert invoke(capsys, "eval", "g", "-1")[0] == 2
    assert invoke(capsys, "eval", "g", "abc")[0] == 2
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


def test_seq_crosses_a_write_chunk(capsys):
    # seq writes _SEQ_CHUNK lines at a time; this range spans two chunks
    start, end = 3, 3 + cli._SEQ_CHUNK
    g, gbar = g_values(end + 1), gbar_values(end + 2)
    for argv, want in (
            (["g"], [f"{g[n]}" for n in range(start, end + 1)]),
            (["gbar", "--format", "csv"], [f"{n},{gbar[n]}" for n in range(start, end + 1)]),
            (["delta-gbar", "--format", "bfile"],
             [f"{n} {gbar[n + 1] - gbar[n]}" for n in range(start, end + 1)])):
        code, out, err = invoke(capsys, "seq", *argv, "--from", str(start), "--to", str(end))
        assert (code, err) == (0, "")
        assert out == "\n".join(want) + "\n", argv


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
    code, out, _ = invoke(capsys, "tree", "g", "--depth", "3")
    assert code == 0
    assert out == ("digraph g {\n  1 -> 2;\n  2 -> 3;\n  3 -> 4;\n"
                   "  3 -> 5;\n}\n")
    code, out, _ = invoke(capsys, "tree", "gbar", "--depth", "4")
    assert "  5 -> 7;" in out
    assert "  5 -> 8;" in out


def test_check_small(capsys):
    code, out, _ = invoke(capsys, "check", "--max", "2000")
    assert code == 0
    assert re.fullmatch(r"SUMMARY: 13/13 suites passed in \d+\.\d s "
                        r"\(g and gbar tables filled in \d+\.\d\d s\)",
                        out.splitlines()[-1])
    assert "FAIL" not in out


def test_check_algorithm_subset(capsys):
    code, out, _ = invoke(capsys, "check", "--max", "2000",
                          "--algorithms", "phi,word")
    assert code == 0
    assert "SUMMARY: 9/9 suites passed" in out
    assert "decomposition" not in out


def test_check_unknown_algorithm(capsys):
    code, _, err = invoke(capsys, "check", "--max", "100",
                          "--algorithms", "phi,astrology")
    assert code == 2
    assert "astrology" in err


@pytest.mark.parametrize("selection", ["", ",", " , "])
def test_check_empty_algorithm_list(capsys, selection):
    # a check of nothing is a usage error, not a pass
    code, out, err = invoke(capsys, "check", "--max", "100",
                            "--algorithms", selection)
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert ",".join(dict.fromkeys(r.key for r in ROUTES)) in err


def route(func, key):
    """The registry's route of func with key."""
    return next(r for r in ROUTES if (r.func, r.key) == (func, key))


def sabotage(monkeypatch, func, key, values):
    """Make check iterate a registry whose (func, key) route yields values."""
    routes = tuple(r._replace(values=values) if (r.func, r.key) == (func, key)
                   else r for r in ROUTES)
    monkeypatch.setattr(portfolio, "ROUTES", routes)


def test_check_reports_failures(capsys, monkeypatch):
    # sabotage one route to prove a red suite turns into exit 1
    sabotage(monkeypatch, "g", "phi", lambda lo, hi: [0] * (hi - lo + 1))
    code, out, _ = invoke(capsys, "check", "--max", "200")
    assert code == 1
    assert "FAIL  g: defining = phi floor" in out
    assert "first mismatch at n=1: 0 != 1" in out
    assert "SUMMARY: 12/13 suites passed" in out
    # a word route reports through the same comparison: gbar's word leaves
    # g's at the first three-odd number, gbar(7) = 5 != 4 = g(7)
    sabotage(monkeypatch, "g", "word", route("gbar", "word").values)
    code, out, _ = invoke(capsys, "check", "--max", "200")
    assert code == 1
    assert "FAIL  g: defining = word" in out
    assert "first mismatch at n=7: 5 != 4" in out
    assert "PASS  g: defining = phi floor" in out
    assert "SUMMARY: 12/13 suites passed" in out


PARALLEL_MAX = str(portfolio._PARALLEL_MIN)  # the smallest --max run by workers
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="check runs its workers only where fork exists")


@pytest.mark.parametrize("max_n", ["200", PARALLEL_MAX])
def test_check_fails_a_route_with_the_wrong_count(capsys, monkeypatch, max_n):
    monkeypatch.setattr(portfolio, "_cpus", lambda: 2)  # workers from PARALLEL_MAX
    top = int(max_n)
    # too few: a correct prefix that stops one short, and nothing at all
    for short, got in ((lambda lo, hi: g_values(hi)[lo:], top), (lambda lo, hi: [], 0)):
        sabotage(monkeypatch, "g", "phi", short)
        code, out, _ = invoke(capsys, "check", "--max", max_n)
        assert code == 1
        assert re.search(suite_line("FAIL", "g: defining = phi floor",
                                    f"route yielded {got} values, expected {top + 1}") + "$",
                         out, re.M)
        assert "SUMMARY: 12/13 suites passed" in out
    # too many: a correct sweep with one value past max_n
    word = route("gbar", "word").values
    sabotage(monkeypatch, "gbar", "word", lambda lo, hi: word(lo, hi + 1))
    code, out, _ = invoke(capsys, "check", "--max", max_n)
    assert code == 1
    assert re.search(suite_line("FAIL", "gbar: defining = word",
                                f"route yielded more than {top + 1} values") + "$",
                     out, re.M)
    assert "SUMMARY: 12/13 suites passed" in out


INVARIANTS = (
    "invariant: largest antecedent",
    "invariant: g alternative equation",
    "invariant: gbar alternative equation",
    "invariant: comparison and three-odd spacing",
    "invariant: successor rank transitions",
    "invariant: Zeckendorf round trip",
)


def test_laws_are_the_invariant_suites_in_order():
    assert tuple(law.name for law in LAWS) == INVARIANTS


TWO, THREE_ODD = hofg.RankClass.TWO, hofg.RankClass.THREE_ODD
MARKS = {n for n in range(1, 300) if hofg.classify(n) is THREE_ODD}


def failing_invariants(out):
    """Names of the invariant suites that check's output marks FAIL."""
    verdicts = {line[6:51].rstrip(): line[:4] for line in out.splitlines()
                if line[6:].startswith("invariant:")}
    assert sorted(verdicts) == sorted(INVARIANTS)
    return [name for name in INVARIANTS if verdicts[name] == "FAIL"]


def three_odd_at(marks):
    """classify and gbar_values replacements that agree that exactly marks
    are three-odd: gbar runs one ahead of g there and nowhere else."""
    return {"classify": lambda n: THREE_ODD if n in marks else TWO,
            "gbar_values": lambda top: [v + (n in marks)
                                        for n, v in enumerate(g_values(top))]}


def bump(values, at):
    """A values function that returns values(top) with entry `at` raised by 1."""
    return lambda top: [v + (n == at) for n, v in enumerate(values(top))]


@pytest.mark.parametrize("swaps, max_n, failing", [
    # the table laws
    ({"g_values": bump(g_values, 150)}, "200",
     ["invariant: largest antecedent", "invariant: g alternative equation",
      "invariant: comparison and three-odd spacing"]),
    ({"gbar_values": bump(hofg.gbar_values, 150)}, "200",
     ["invariant: gbar alternative equation",
      "invariant: comparison and three-odd spacing"]),
    # comparison: gbar - g disagrees with classify, a gap is neither 5 nor
    # 8, the first three-odd number is not 7, there is none from 7 on, or
    # there is one below 7
    ({"classify": lambda n: TWO}, "200",
     ["invariant: comparison and three-odd spacing"]),
    (three_odd_at(MARKS | {9}), "200",
     ["invariant: gbar alternative equation",
      "invariant: comparison and three-odd spacing"]),
    (three_odd_at(MARKS - {7}), "200",
     ["invariant: gbar alternative equation",
      "invariant: comparison and three-odd spacing"]),
    (three_odd_at(set()), "7",
     ["invariant: comparison and three-odd spacing"]),
    (three_odd_at(set()), "6", []),
    (three_odd_at({3}), "6",
     ["invariant: gbar alternative equation",
      "invariant: comparison and three-odd spacing"]),
    # successor rule: low 2 is followed by an odd rank, low 3 by an even
    # rank above 2 (neither 3 nor 2), anything higher by 2
    ({"low": lambda n: 2}, "200", ["invariant: successor rank transitions"]),
    ({"low": lambda n: 3}, "200", ["invariant: successor rank transitions"]),
    ({"low": lambda n: 4}, "200", ["invariant: successor rank transitions"]),
    ({"low": lambda n: 2 + n % 2}, "200", ["invariant: successor rank transitions"]),
])
def test_check_reports_failing_invariants(capsys, monkeypatch, swaps, max_n, failing):
    for name, value in swaps.items():
        monkeypatch.setattr(portfolio, name, value)
    code, out, _ = invoke(capsys, "check", "--max", max_n)
    assert code == (1 if "FAIL" in out else 0)
    assert failing_invariants(out) == failing


def test_check_fails_a_walk_that_hands_out_a_relaxed_form(capsys, monkeypatch):
    # F(17) + F(18) + F(20) = F(21), summed right but with a gap of 1: every
    # rank-sum route agrees on its value, and only the round trip's
    # Decomposition rejects it, in this process or in a child of its own
    monkeypatch.setattr(portfolio, "_cpus", lambda: 2)  # workers from PARALLEL_MAX
    walk = zeckendorf._greedy_ranks
    monkeypatch.setattr(zeckendorf, "_greedy_ranks", lambda n, name: (
        (17, 18, 20) if n == 10946 else walk(n, name)))
    for max_n in ("20000", PARALLEL_MAX):
        code, out, err = invoke(capsys, "check", "--max", max_n)
        assert (code, out) == (1, ""), max_n
        assert err == "error: Decomposition: ranks 17,18 violate the minimum gap 2\n"
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("max_n, details", [
    ("0", ["n=0..0", "n=0..0", "no n in 4..0", "no n in 1..0", "no n in 1..0",
           "n=0..0"]),
    ("3", ["n=0..3", "n=0..3", "no n in 4..3", "n=1..3", "n=1..3", "n=0..3"]),
])
def test_check_says_when_a_range_holds_no_n(capsys, max_n, details):
    code, out, _ = invoke(capsys, "check", "--max", max_n)
    assert code == 0
    lines = out.splitlines()
    for line, route in zip(lines, ROUTES):
        assert re.fullmatch(suite_line("PASS", route.name, f"n=0..{max_n}"), line)
    for line, name, detail in zip(lines[len(ROUTES):-1], INVARIANTS, details, strict=True):
        assert re.fullmatch(suite_line("PASS", name, detail), line)


def slow_law(monkeypatch, name):
    """Make the law called name sleep 0.5 s, then test what it tested before."""
    monkeypatch.setattr(portfolio, "LAWS", tuple(
        law._replace(holds=lambda *args, holds=law.holds: time.sleep(0.5) or holds(*args))
        if law.name == name else law for law in LAWS))


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork)])
def test_check_times_each_suite_where_it_runs(capsys, monkeypatch, cpus):
    monkeypatch.setattr(portfolio, "_cpus", lambda: cpus)  # 2: one worker per CPU
    monkeypatch.setattr(portfolio, "_PARALLEL_MIN", 0)  # workers from any --max
    for slow in ("gbar: defining = flip conjugation", "invariant: gbar alternative equation"):
        with monkeypatch.context() as patch:
            if slow in INVARIANTS:
                slow_law(patch, slow)
            else:
                sabotage(patch, "gbar", "flip",
                         lambda lo, hi: time.sleep(0.5) or gbar_values(hi + 1)[lo:])
            code, out, _ = invoke(capsys, "check", "--max", "2000")
        assert code == 0
        seconds = {line[6:51].rstrip(): float(line[51:].split()[0])
                   for line in out.splitlines()[:-1]}
        assert seconds.pop(slow) >= 0.5
        assert len(seconds) == 12
        assert max(seconds.values()) < 0.5, slow


def raises(exc):
    """A route values function that raises exc."""
    def values(lo, hi):
        raise exc
    return values


@needs_fork
def test_check_parallel_prints_what_serial_prints(capsys, monkeypatch):
    monkeypatch.setattr(portfolio, "_cpus", lambda: 2)
    parallel = invoke(capsys, "check", "--max", PARALLEL_MAX)
    monkeypatch.setattr(portfolio, "_cpus", lambda: 1)
    serial = invoke(capsys, "check", "--max", PARALLEL_MAX)
    for code, out, err in (parallel, serial):
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].startswith("SUMMARY: 13/13 suites passed in ")
    # the same lines but for the seconds each run measured
    masked = [[re.sub(SECONDS, " <s>  ", line, count=1) for line in out.splitlines()[:-1]]
              for _, out, _ in (parallel, serial)]
    assert masked[0] == masked[1]


@needs_fork
def test_check_parallel_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr(portfolio, "_cpus", lambda: 2)
    sabotage(monkeypatch, "g", "phi", lambda lo, hi: [0] * (hi - lo + 1))
    code, out, _ = invoke(capsys, "check", "--max", PARALLEL_MAX)
    assert code == 1
    assert "FAIL  g: defining = phi floor" in out
    assert "first mismatch at n=1: 0 != 1" in out
    assert "SUMMARY: 12/13 suites passed" in out


@needs_fork
def test_check_parallel_reports_failing_invariants(capsys, monkeypatch):
    monkeypatch.setattr(portfolio, "_cpus", lambda: 2)
    monkeypatch.setattr(portfolio, "low", lambda n: 2)
    code, out, _ = invoke(capsys, "check", "--max", PARALLEL_MAX)
    assert code == 1
    assert failing_invariants(out) == ["invariant: successor rank transitions"]
    assert "SUMMARY: 12/13 suites passed" in out


@needs_fork
def test_check_worker_domain_error_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(portfolio, "_cpus", lambda: 2)
    sabotage(monkeypatch, "gbar", "flip", raises(DomainError("sabotaged route")))
    code, out, err = invoke(capsys, "check", "--max", PARALLEL_MAX)
    assert (code, out, err) == (1, "", "error: sabotaged route\n")


@needs_fork
def test_check_worker_error_does_not_wait_for_running_suites(capsys, monkeypatch):
    monkeypatch.setattr(portfolio, "_cpus", lambda: 2)
    # the error must not wait for a suite that another worker is running
    swaps = {"decomposition": lambda lo, hi: time.sleep(60) or [],
             "flip": raises(DomainError("sabotaged route"))}
    monkeypatch.setattr(portfolio, "ROUTES", tuple(
        r._replace(values=swaps[r.key]) if r.key in swaps else r for r in ROUTES))
    # ... and must stop only the pool's workers, not the caller's children
    bystander = multiprocessing.get_context("fork").Process(
        target=time.sleep, args=(60,))
    bystander.start()
    try:
        started = time.perf_counter()
        code, out, err = invoke(capsys, "check", "--max", PARALLEL_MAX)
        assert (code, out, err) == (1, "", "error: sabotaged route\n")
        assert time.perf_counter() - started < 20
        assert multiprocessing.active_children() == [bystander]
    finally:
        bystander.terminate()
        bystander.join()


@needs_fork
def test_check_parallel_leaves_no_child_and_no_open_pipe(capsys, monkeypatch):
    monkeypatch.setattr(portfolio, "_cpus", lambda: 2)
    fds = Path("/proc/self/fd")  # Linux: one entry per open descriptor
    gc.collect()  # close what earlier tests left for the collector
    before = len(list(fds.iterdir())) if fds.is_dir() else None
    code, out, err = invoke(capsys, "check", "--max", PARALLEL_MAX)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("SUMMARY: 13/13 suites passed in ")
    assert multiprocessing.active_children() == []
    if before is not None:
        assert len(list(fds.iterdir())) == before


@needs_fork
def test_check_runs_each_route_in_a_child_of_its_own(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(portfolio, "_cpus", lambda: 2)

    def logged(label, run):
        """run itself, after writing the pid that runs it to a file named label."""
        def logging_run(*args):
            (tmp_path / label).write_text(str(os.getpid()))
            return run(*args)
        return logging_run

    monkeypatch.setattr(portfolio, "ROUTES", tuple(
        r._replace(values=logged(f"{r.func}-{r.key}", r.values)) for r in ROUTES))
    monkeypatch.setattr(portfolio, "LAWS", tuple(
        law._replace(holds=logged(law.name, law.holds)) for law in LAWS))
    code, out, _ = invoke(capsys, "check", "--max", PARALLEL_MAX)
    assert code == 0, out
    pids = {int(path.read_text()) for path in tmp_path.iterdir()}
    assert len(list(tmp_path.iterdir())) == len(pids) == len(ROUTES) + len(LAWS) == 13
    assert os.getpid() not in pids


@needs_fork
def test_check_worker_death_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(portfolio, "_cpus", lambda: 2)
    sabotage(monkeypatch, "g", "phi", lambda lo, hi: os._exit(3))
    code, out, err = invoke(capsys, "check", "--max", PARALLEL_MAX)
    assert (code, out) == (1, "")
    assert err.startswith("error: a check worker died")
    assert "Traceback" not in err


def test_check_memory_error_exits_one(capsys, monkeypatch):
    sabotage(monkeypatch, "g", "word", raises(MemoryError()))
    code, out, err = invoke(capsys, "check", "--max", "200")
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert "Traceback" not in err


# The child answers through run, then asks for half of its address-space
# limit: that succeeds only if the failed table fill gave its memory back.
OUT_OF_MEMORY_CHILD = """\
import resource, sys
from hofg.cli import run
code = run(sys.argv[1:])
bytearray(resource.getrlimit(resource.RLIMIT_AS)[0] // 2)
sys.exit(code)
"""
OUT_OF_MEMORY_LIMIT = 200 * 2**20  # bytes; a 3*10^7-entry table needs ~1.2 GB


def run_limited(argv, limit):
    """Run argv in a child Python whose address space is capped at limit bytes."""
    import resource

    def limit_memory():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit,) * 2)

    src = os.path.dirname(os.path.dirname(hofg.__file__))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          preexec_fn=limit_memory, env=dict(os.environ, PYTHONPATH=src))


@pytest.mark.skipif(sys.platform != "linux",
                    reason="address-space limits are enforced on Linux")
@pytest.mark.parametrize("argv", [
    ["check", "--max", "30000000", "--algorithms", "word"],
], ids=["check"])
def test_out_of_memory_exits_one_with_one_line(argv):
    out = run_limited(["-c", OUT_OF_MEMORY_CHILD, *argv], OUT_OF_MEMORY_LIMIT)
    assert (out.returncode, out.stdout, out.stderr) == (
        1, "", "error: out of memory\n")


FAR_LIMIT = 300_000 * 1024  # bytes, as `ulimit -v 300000`: far below a table to 10^8


@pytest.mark.skipif(sys.platform != "linux",
                    reason="address-space limits are enforced on Linux")
def test_seq_far_window_needs_no_table(capsys):
    lo = 99_999_990
    out = run_limited(["-m", "hofg", "seq", "g", "--from", str(lo), "--to", str(lo + 9)],
                      FAR_LIMIT)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "".join(invoke(capsys, "eval", "g", str(n))[1]
                                 for n in range(lo, lo + 10))


@pytest.mark.skipif(sys.platform != "linux",
                    reason="address-space limits are enforced on Linux")
def test_verify_far_record_needs_no_table(tmp_path):
    bfile = tmp_path / "far.b"
    bfile.write_text("60000000 0\n")
    out = run_limited(["-m", "hofg", "verify", "--bfile", str(bfile), "--func", "g"],
                      FAR_LIMIT)
    assert (out.returncode, out.stderr) == (1, "")
    assert "first mismatch: index 60000000 file 0 computed 37082039\nresult: FAIL\n" in out.stdout


TABLE_READERS_CHILD = """\
from hofg import (g_max_antecedent, gbar_leftmost_child, gbar_rightmost_child,
                  gbar_via_flip, gbar_via_g_correction)
from hofg.tree import children
n = 90_000_000
print(gbar_via_flip(n), gbar_via_g_correction(n), g_max_antecedent(n),
      gbar_rightmost_child(n), gbar_leftmost_child(n), *children("g", n),
      *children("gbar", n))
"""


@pytest.mark.skipif(sys.platform != "linux",
                    reason="address-space limits are enforced on Linux")
def test_child_and_conjugation_functions_need_no_table():
    # a g table to 9*10^7 would need about 2.5 GB; rank arithmetic needs none
    out = run_limited(["-c", TABLE_READERS_CHILD], FAR_LIMIT)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.split() == [str(v) for v in (
        55623059, 55623059, 145623059, 145623059, 145623058,
        145623058, 145623059, 145623058, 145623059)]


def test_every_error_survives_pickling():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, HofgError)]
    assert {c.__name__ for c in classes} == {
        "HofgError", "DomainError", "RankOverflow", "_LineError", "ParseError", "GapError"}
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
        ("g", "word", "g: defining = word"),
        ("g", "phi", "g: defining = phi floor"),
        ("gbar", "flip", "gbar: defining = flip conjugation"),
        ("gbar", "word", "gbar: defining = word"),
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
        assert len(lines) > len(names)
        for line, name in zip(lines, names):
            assert re.fullmatch(suite_line("PASS", name, "n=0..30"), line)
        total = len(names) + len(LAWS)
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


def test_verify_non_ascii_file(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_bytes(b"0 0\n1 1\xc3\xa9\n")
    code, out, err = invoke(capsys, "verify", "--bfile", str(path), "--func", "g")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["", "# A005206\n#\n\n"], ids=["empty", "comments"])
def test_verify_refuses_a_file_with_no_records(capsys, tmp_path, text):
    # a truncated download must not pass vacuously
    path = tmp_path / "b.txt"
    path.write_text(text)
    assert invoke(capsys, "verify", "--bfile", str(path), "--func", "g") == (
        1, "", f"error: {path}: no records\n")


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = invoke(capsys, "verify", "--bfile",
                          str(tmp_path / "nope.txt"), "--func", "g")
    assert code == 1
    assert "cannot read" in err


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


def test_import_leaves_dataclasses_inspect_and_json_unloaded():
    # each costs one-shot commands start-up time; only verify's JSON line
    # needs json, and it imports it when it prints
    code = ("import sys, hofg.cli; print([m for m in ('dataclasses', 'inspect', "
            "'json') if m in sys.modules])")
    out = run_package([sys.executable, "-c", code])
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr
