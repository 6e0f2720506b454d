"""One in-process benchmark job in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB 'JSON-PARAMS'

Prints one JSON object as its last stdout line.  Every job runs in its own
process because the package keeps module-level memo tables: a warm process
would skip fills and measure a different program, and its peak RSS would mix
with the next job's.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ref  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def job_measure(workload: str, seed: int, seconds: float) -> dict:
    import hofg
    run = wl.rank_random if workload == "rank-random" else wl.tables
    out = run(hofg, wl.rng_for(workload, seed), seconds)
    out["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def job_check_inprocess(max_n: int) -> dict:
    import hofg.cli
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = hofg.cli.run(["check", "--max", str(max_n)])
    seconds = perf_counter() - t0
    return {"seconds": seconds,
            "ok": rc == 0 and ref.check_summary_ok(buf.getvalue().splitlines())}


def _trace_points(workload: str, seed: int, max_n: int) -> list[int]:
    """The points the table-free routes are timed on, per workload."""
    rng = wl.rng_for(workload + "/trace", seed)
    if workload == "portfolio":
        return list(range(1, max_n + 1, 10))
    if workload == "tables":
        return [rng.randrange(1, wl.TABLE_N) for _ in range(20_000)]
    return wl.draw_points(rng, 20_000)


def job_replay_untraced(workload: str, max_n: int) -> dict:
    import hofg
    attempted, failed, wall, _ = tracing.replay_check(
        hofg, tracing.Tracer(workload, False), max_n)
    return {"wall_s": wall, "attempted": attempted, "failed": failed}


def job_replay(workload: str, seed: int, max_n: int) -> dict:
    import hofg
    tr = tracing.Tracer(workload)
    attempted, failed, wall, root = tracing.replay_check(hofg, tr, max_n)
    points = _trace_points(workload, seed, max_n)
    a, f, terms = tracing.time_points(hofg, tr, points)
    attempted, failed = attempted + a, failed + f
    a, f, per = tracing.probe_tree_oeis(hofg, tr, ROOT)
    attempted, failed = attempted + a, failed + f
    for name, _ in tracing.POINT_ROUTES:
        per[name + ".ns_per_call"] = tr.ns_per(name)
    for name in ("g_func.g_via_phi", "flip_gbar.gbar_via_flip",
                 "flip_gbar.gbar_via_g_correction"):
        per[name + ".ns_per_call"] = tr.ns_per(name)
    per["zeckendorf.terms_per_point"] = terms
    return {"attempted": attempted, "failed": failed, "metrics": per,
            "wall_s": wall, "root_children_s": tr.children_seconds(root["id"]),
            "points": len(points), "spans": tr.spans}


def job_flavour(which: str, rule: str, size: int, seed: int) -> dict:
    """Fresh fill of one table flavour, then seeded scalar reads."""
    import hofg
    read = hofg.g if which == "g" else hofg.gbar
    rng = wl.rng_for(f"flavour/{which}-{rule}", seed)
    idx = [rng.randrange(size) for _ in range(wl.TABLE_READS)]
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    table = hofg.MemoTable(which, rule)
    t0 = perf_counter()
    read(size - 1, table=table)
    fill_s = perf_counter() - t0
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    got, per_read = wl.table_reads(read, table, idx)
    expect = ref.g if which == "g" else ref.gbar
    failed = sum(v != expect(i) for i, v in zip(idx, got))
    return {"attempted": len(idx), "failed": failed,
            "fill_ns_per_n": fill_s / size * 1e9,
            "read_ns": sum(per_read) / len(per_read) * 1e9,
            # computed: growth of peak RSS over the fill, per entry
            "bytes_per_entry": (rss1 - rss0) * 1024 / size}


JOBS = {
    "measure": job_measure,
    "check-inprocess": job_check_inprocess,
    "replay-untraced": job_replay_untraced,
    "replay": job_replay,
    "flavour": job_flavour,
}


if __name__ == "__main__":
    params = json.loads(sys.argv[2]) if len(sys.argv) > 2 else {}
    print(json.dumps(JOBS[sys.argv[1]](**params)))
