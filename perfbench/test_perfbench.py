"""Tests of the benchmark itself: references, checks and failure counting.

Run from the repository root with `python3 -m pytest -q perfbench`.  Wrong
answers come from stand-ins for the package, never from edits to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hofg  # noqa: E402
import pytest  # noqa: E402

import ref  # noqa: E402
import workloads as wl  # noqa: E402


def _api(**replaced):
    """The package's exported names, with some replaced by stubs."""
    names = {n: getattr(hofg, n) for n in dir(hofg) if not n.startswith("_")}
    return types.SimpleNamespace(**{**names, **replaced})


def test_references_follow_the_definitions():
    g = [0]
    for n in range(1, 20_000):
        g.append(n - g[g[n - 1]])
    gbar = [0, 1, 1, 2]
    for n in range(4, 20_000):
        gbar.append(n + 1 - gbar[1 + gbar[n - 1]])
    assert [ref.g(n) for n in range(20_000)] == g
    assert [ref.gbar(n) for n in range(20_000)] == gbar
    for n in range(1, 5_000):
        r = ref.ranks(n)
        assert sum(ref.FIB[k] for k in r) == n
        assert all(b - a >= 2 for a, b in zip(r, r[1:])) and r[0] >= 2
        assert ref.flip(ref.flip(n)) == n and ref.depth(ref.flip(n)) == ref.depth(n)
        assert g[n] == ref.g(n) and ref.depth(n) == ref.depth(g[n]) + (n > 1)


def test_draws_stay_inside_the_shared_domain():
    rng = wl.rng_for("rank-random", 7)
    points = wl.draw_points(rng, 5_000)
    assert min(points) >= 1 and max(points) <= ref.DRAW_MAX == ref.FIB[90]
    assert hofg.flip(ref.DRAW_MAX) == ref.flip(ref.DRAW_MAX)
    with pytest.raises(hofg.RankOverflow):
        hofg.flip(ref.DRAW_MAX + 1)
    assert points == wl.draw_points(wl.rng_for("rank-random", 7), 5_000)


def test_rank_random_counts_no_failure_on_the_package():
    out = wl.rank_random(hofg, wl.rng_for("rank-random", 1), 0)
    assert out["attempted"] == wl.RANK_BATCH and out["failed"] == 0


@pytest.mark.parametrize("route", ref.RANK_ROUTES)
def test_rank_random_counts_a_wrong_route(route):
    real = getattr(hofg, route)
    if route == "classify":
        stub = lambda n: hofg.RankClass.TWO  # noqa: E731
    elif route == "decompose":
        stub = lambda n: hofg.Decomposition(real(n).ranks[1:])  # noqa: E731
    else:
        stub = lambda n: real(n) + 1  # noqa: E731
    out = wl.rank_random(_api(**{route: stub}), wl.rng_for("rank-random", 1), 0)
    assert out["failed"] > out["attempted"] // 2


def test_rank_random_counts_a_raised_error():
    def boom(n):
        raise hofg.RankOverflow("stub")
    out = wl.rank_random(_api(depth=boom), wl.rng_for("rank-random", 1), 0)
    assert out["failed"] == out["attempted"] == wl.RANK_BATCH


def test_tables_count_wrong_reads():
    good = wl.tables(hofg, wl.rng_for("tables", 1), 0, size=5_000)
    assert good["failed"] == 0 and good["attempted"] == 4 * (1 + wl.TABLE_READS)
    bad = wl.tables(_api(gbar=lambda n, table: hofg.gbar(n, table=table) + 1),
                    wl.rng_for("tables", 1), 0, size=5_000)
    assert bad["failed"] == 2 * (1 + wl.TABLE_READS)


def _stub_cli(tmp_path: Path, body: str) -> list[str]:
    script = tmp_path / "stub_hofg.py"
    script.write_text("import sys\n" + body)
    return [sys.executable, str(script)]


def test_cli_mix_passes_on_the_package():
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    out = wl.run_commands([sys.executable, "-m", "hofg"],
                          iter([wl.cli_commands(wl.rng_for("cli-oneshot", 3), 0)]),
                          0, ROOT, env, wl.rng_for("cli-oneshot", 3))
    assert out["failed"] == 0 and out["attempted"] == 11


@pytest.mark.parametrize("body", [
    "print(-1)\n",                                  # wrong value, exit 0
    "print('SUMMARY: 1/2 suites passed in 0 s')\n",  # failed check
    "sys.exit(1)\n",                                # non-zero exit
])
def test_cli_mix_counts_every_wrong_command(tmp_path, body):
    commands = wl.cli_commands(wl.rng_for("cli-oneshot", 3), 0)
    out = wl.run_commands(_stub_cli(tmp_path, body), iter([commands]), 0, ROOT, None,
                          wl.rng_for("cli-oneshot", 3))
    assert out["failed"] == out["attempted"] == len(commands)


def test_check_summary_needs_all_suites():
    assert ref.check_summary_ok(["PASS  a", "SUMMARY: 12/12 suites passed in 1.0 s"])
    assert not ref.check_summary_ok(["FAIL  a", "SUMMARY: 12/12 suites passed in 1.0 s"])
    assert not ref.check_summary_ok(["SUMMARY: 11/12 suites passed in 1.0 s"])
    assert not ref.check_summary_ok([])


def test_run_reports_the_end_to_end_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "rank-random",
                        "--seed", "5", "--seconds", "0.2", "--trace", "0"],
                       cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [m["name"] for m in spec["end_to_end"]] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "portfolio",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and p.stdout == ""
