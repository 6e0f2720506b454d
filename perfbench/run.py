"""Benchmark of the hofg algorithm portfolio, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

NAME is one of portfolio, rank-random, tables, cli-oneshot (see
perfbench/README.md for what each measures and why).  A run prints every
metric by name with its unit, then, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.  The
full record of a run (headline figures, input ranges, spans) is written to
perfbench/out/<workload>-seed<N>-trace<T>.json; `--workload all` runs every
workload in both modes and writes perfbench/out/report-seed<N>.json.

The package is used from ./src as checked out; nothing is installed.  One
caller drives the load, and every process it starts has exited before the
next one starts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 8            # fresh set-ups before and again after the measurement
IMPORT_REPS = 5           # fresh imports behind cli.import_ms
TRACE_CHECK_MAX = 100_000  # range of the traced check replay outside portfolio
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


def _env() -> dict:
    """The caller's environment, with the package on the path and byte-code
    caching on, as an installed package has it, whatever the caller set."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def worker(job: str, **params) -> dict:
    """Run one worker job in a fresh interpreter and return its JSON."""
    p = subprocess.run([sys.executable, str(HERE / "worker.py"), job, json.dumps(params)],
                       cwd=ROOT, env=_env(), text=True, timeout=WORKER_TIMEOUT_S,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if p.returncode != 0 or not p.stdout.strip():
        raise BenchError(f"worker job {job} exited {p.returncode}: {p.stderr[-2000:]}")
    return json.loads(p.stdout.splitlines()[-1])


def setup_times() -> list[float]:
    """Wall times of fresh interpreters that import hofg and hofg.cli."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        p = subprocess.run([sys.executable, "-c", "import hofg, hofg.cli"],
                           cwd=ROOT, env=_env(), timeout=WORKER_TIMEOUT_S,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        times.append(perf_counter() - t0)
        if p.returncode != 0:
            raise BenchError(f"import hofg exited {p.returncode}: {p.stderr[-2000:]}")
    return times


def import_ms() -> float:
    """`import hofg.cli` timed inside a bare fresh interpreter, in ms."""
    code = ("from time import perf_counter as c; t = c(); import hofg.cli; "
            "print((c() - t) * 1e3)")
    p = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(), text=True,
                       timeout=WORKER_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if p.returncode != 0:
        raise BenchError(f"import hofg.cli exited {p.returncode}: {p.stderr[-2000:]}")
    return float(p.stdout)


def untraced(workload: str, seed: int, seconds: float) -> dict:
    # The first start also writes the byte-code caches: drop it.  Half the
    # set-ups run after the measurement, so setup_s spans the run's length.
    setup = setup_times()[1:]
    if workload in ("portfolio", "cli-oneshot"):
        rng = wl.rng_for(workload, seed)
        out = wl.run_commands([sys.executable, "-m", "hofg"],
                              wl.command_passes(workload, rng), seconds, ROOT, _env(), rng)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        out["metrics"]["peak_rss_mb"] = children.ru_maxrss / 1024
    else:
        out = worker("measure", workload=workload, seed=seed, seconds=seconds)
    setup += setup_times()
    out["metrics"]["setup_s"] = statistics.median(setup)
    out["headline"] = headline(workload, out)
    return out


# Units of the headline figures, each the natural name of a generic metric
# (or detail) on the one workload it belongs to.
HEADLINE_UNITS = {
    "error_rate": "ratio", "check_s": "s", "queries_per_s": "1/s",
    "query_p50_us": "us", "query_p99_us": "us", "fill_s": "s",
    "reads_per_s": "1/s", "cmd_p50_ms": "ms", "cmd_p90_ms": "ms",
}


def headline(workload: str, out: dict) -> dict:
    """The workload's own figures under their own names."""
    m, d = out["metrics"], out["details"]
    named = {"error_rate": out["failed"] / out["attempted"]}
    if workload == "portfolio":
        named["check_s"] = m["op_p50_us"] / 1e6
    elif workload == "rank-random":
        named.update(queries_per_s=m["ops_per_s"], query_p50_us=m["op_p50_us"],
                     query_p99_us=d.pop("query_p99_us"))
    elif workload == "tables":
        named.update(fill_s=d.pop("fill_s"), reads_per_s=m["ops_per_s"])
    else:
        named.update(cmd_p50_ms=m["op_p50_us"] / 1e3, cmd_p90_ms=m["op_p90_us"] / 1e3)
    return named


def traced(workload: str, seed: int) -> dict:
    """Per-layer figures: in-process check, traced replay, fills, imports."""
    max_n = wl.CHECK_MAX if workload == "portfolio" else TRACE_CHECK_MAX
    table_n = wl.TABLE_N if workload == "tables" else max_n + 1
    check = worker("check-inprocess", max_n=max_n)
    bare = worker("replay-untraced", workload=workload, max_n=max_n)
    rep = worker("replay", workload=workload, seed=seed, max_n=max_n)
    flavours = {f"{which}-{rule}": worker("flavour", which=which, rule=rule,
                                           size=table_n, seed=seed)
                for which, rule in wl.FLAVOURS}
    imports = [import_ms() for _ in range(IMPORT_REPS)]
    per = rep["metrics"]
    for name, f in flavours.items():
        per[f"g_func.MemoTable.fill_ns_per_n.{name}"] = f["fill_ns_per_n"]
    per["g_func.MemoTable.read_ns"] = statistics.fmean(f["read_ns"] for f in flavours.values())
    per["g_func.MemoTable.bytes_per_entry"] = statistics.fmean(
        f["bytes_per_entry"] for f in flavours.values())
    per["cli.import_ms"] = statistics.median(imports)
    per["cli.check_inprocess_s"] = check["seconds"]
    per["trace.uncovered_s"] = check["seconds"] - rep["root_children_s"]
    per["trace.overhead_s"] = rep["wall_s"] - bare["wall_s"]
    parts = [bare, rep, *flavours.values()]
    return {"attempted": 1 + sum(p["attempted"] for p in parts),
            "failed": (not check["ok"]) + sum(p["failed"] for p in parts),
            "metrics": per,
            "details": {"check_max": max_n, "table_n": table_n, "points": rep["points"],
                        "computed": ["g_func.MemoTable.bytes_per_entry",
                                     "trace.uncovered_s", "trace.overhead_s"]},
            "spans": rep["spans"]}


def emit(spec: dict, workload: str, seed: int, seconds: float, trace: int, out: dict) -> dict:
    """Print every metric with its unit, write the record, return the result."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": out["failed"] == 0 and out["attempted"] > 0,
              "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    named = {k: {"value": v, "unit": HEADLINE_UNITS[k]}
             for k, v in out.get("headline", {}).items()}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "result": result, "headline": named, "details": out["details"],
              "spans": out.get("spans", [])}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    print(f"# {workload} seed={seed} seconds={seconds} trace={trace}")
    for name, m in {**metrics, **named}.items():
        print(f"{name:<48} {m['value']:.6g} {m['unit']}")
    for name, value in out["details"].items():
        print(f"{name:<48} {json.dumps(value)}")
    return result


def report(spec: dict, seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    runs = {}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            p = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                "--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(trace)],
                               cwd=ROOT, text=True, stdout=subprocess.PIPE)
            if p.returncode != 0:
                raise BenchError(f"{workload} trace={trace} exited {p.returncode}")
            lines = p.stdout.splitlines()
            print("\n".join(lines[:-1]))
            runs[f"{workload}/trace{trace}"] = json.loads(
                (OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    results = [r["result"] for r in runs.values()]
    (OUT / f"report-seed{seed}.json").write_text(json.dumps(runs, indent=1))
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": {k: r["result"]["metrics"] for k, r in runs.items()}}))
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hofg" / "__init__.py").is_file():
        print(f"error: no hofg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return report(spec, args.seed, args.seconds)
        if args.trace:
            out = traced(args.workload, args.seed)
        else:
            out = untraced(args.workload, args.seed, args.seconds)
        result = emit(spec, args.workload, args.seed, args.seconds, args.trace, out)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
