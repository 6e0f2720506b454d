"""Seeded inputs and the measurement loops of the four workloads.

The loops take the package (or a stand-in with the same names) as an
argument and touch only names that `hofg/__init__.py` exports, so the
package internals can change without this file changing.  Each loop is a
single closed-loop caller: the next operation starts when the previous one
has returned and been checked against `ref`.
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
from array import array
from itertools import count, repeat
from time import perf_counter

import ref

WORKLOADS = ("portfolio", "rank-random", "tables", "cli-oneshot")

CHECK_MAX = 1_000_000          # `hofg check --max` of the portfolio workload
TABLE_N = 10_000_000           # entries per MemoTable in the tables workload
FLAVOURS = (("g", "defining"), ("g", "delta"), ("gbar", "defining"), ("gbar", "delta"))
RANK_BATCH = 1_000             # points per rank-random pass
READ_BATCH = 64                # scalar reads per timed batch
TABLE_READS = 1600 * READ_BATCH  # seeded scalar reads per table, whole batches
EVAL_TABLE_MAX = 1_000_000     # `eval g/gbar n` fills an O(n) table: keep n small
RESERVOIR = 100_000            # latencies kept per run, whatever the count
STRATA = 8                     # slices of each costly cli-oneshot argument
COMMAND_TIMEOUT_S = 150


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def draw_point(rng) -> int:
    """Log-uniform in bit length over [1, ref.DRAW_MAX]."""
    bits = rng.randint(1, ref.DRAW_MAX.bit_length())
    return rng.randint(1 << (bits - 1), min((1 << bits) - 1, ref.DRAW_MAX))


def draw_points(rng, n_points: int) -> list[int]:
    return [draw_point(rng) for _ in range(n_points)]


def _stratum(rng, lo: int, hi: int, k: int) -> int:
    """A seeded integer from the k-th of STRATA equal slices of [lo, hi]."""
    return lo + int(((k % STRATA) + rng.random()) * (hi - lo + 1) / STRATA)


def cli_commands(rng, k: int) -> list[list[str]]:
    """Pass k of the cli-oneshot mix: every subcommand once, seeded arguments.

    The costly arguments (table size, check range, tree depth, sequence
    length) are stratified: pass k draws each from a different slice of its
    range, so every STRATA passes cover the whole range once, whatever the
    seed, and the latency quantiles of a run do not hang on a few draws.
    """
    start = rng.randrange(100_000)
    stop = start + _stratum(rng, 0, 9_999, k + 1)
    return [
        ["eval", "g", str(_stratum(rng, 0, EVAL_TABLE_MAX, k))],
        ["eval", "gbar", str(_stratum(rng, 0, EVAL_TABLE_MAX, k + 4))],
        ["eval", "low", str(draw_point(rng))],
        ["eval", "flip", str(draw_point(rng))],
        ["eval", "depth", str(draw_point(rng))],
        ["seq", rng.choice(("g", "gbar", "delta-g", "delta-gbar")),
         "--from", str(start), "--to", str(stop),
         "--format", rng.choice(("plain", "bfile", "csv"))],
        ["decomp", str(draw_point(rng)), "--relaxed-demo"],
        ["tree", rng.choice(("g", "gbar")), "--depth", str(_stratum(rng, 1, 20, k + 6))],
        ["verify", "--bfile", "tests/data/b005206.txt", "--func", "g"],
        ["verify", "--bfile", "tests/data/b123070.txt", "--func", "gbar"],
        ["check", "--max", str(_stratum(rng, 1_000, 20_000, k + 2))],
    ]


def command_passes(workload: str, rng):
    """Endless seeded passes of `hofg` argument lists for a subprocess workload."""
    if workload == "portfolio":
        return repeat([["check", "--max", str(CHECK_MAX)]])
    return (cli_commands(rng, k) for k in count())


class Latencies:
    """Exact count and sum of latencies, plus a uniform sample of them.

    The sample (reservoir sampling) has a fixed size, so the benchmark's own
    memory does not grow with the number of operations a faster program
    completes, which would otherwise leak into peak_rss_mb.
    """

    def __init__(self, rng: random.Random):
        self.count = 0
        self.total = 0.0
        self.sample = array("d")
        self._rng = random.Random(rng.random())

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if len(self.sample) < RESERVOIR:
            self.sample.append(seconds)
        else:
            j = self._rng.randrange(self.count)
            if j < RESERVOIR:
                self.sample[j] = seconds

    def percentile(self, q: int) -> float:
        if len(self.sample) == 1:
            return self.sample[0]
        return statistics.quantiles(self.sample, n=100, method="inclusive")[q - 1]

    def metrics(self, pass_s: list[float]) -> dict:
        return {
            "pass_s": statistics.median(pass_s),
            "ops_per_s": self.count / self.total,
            "op_p50_us": self.percentile(50) * 1e6,
            "op_p90_us": self.percentile(90) * 1e6,
        }


def passes_within(seconds: float):
    """Count passes while one more, as long as the last, ends within seconds.

    The first pass always runs, so a run never measures nothing.
    """
    deadline = perf_counter() + seconds
    for k in count():
        start = perf_counter()
        yield k
        now = perf_counter()
        if now + (now - start) > deadline:
            return


def run_commands(prefix: list[str], passes, seconds: float, cwd, env, rng) -> dict:
    """Run `prefix + argv` for each argv of each pass, one process at a time."""
    lat = Latencies(rng)
    pass_s: list[float] = []
    failed = 0
    for _, commands in zip(passes_within(seconds), passes):
        busy = 0.0
        for argv in commands:
            t0 = perf_counter()
            try:
                p = subprocess.run(prefix + argv, cwd=cwd, env=env, text=True,
                                   stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                   timeout=COMMAND_TIMEOUT_S)
                ok = ref.command_ok(argv, p.returncode, p.stdout)
            except subprocess.TimeoutExpired:
                ok = False
            dt = perf_counter() - t0
            lat.add(dt)
            busy += dt
            failed += not ok
        pass_s.append(busy)
    return {"attempted": lat.count, "failed": failed,
            "metrics": lat.metrics(pass_s), "details": {}}


def rank_random(api, rng, seconds: float) -> dict:
    """Seeded points through every table-free rank route, no tables involved."""
    f_g, f_low, f_cls, f_dec, f_dep, f_flip, f_gb = (getattr(api, n) for n in ref.RANK_ROUTES)
    lat = Latencies(rng)
    pass_s: list[float] = []
    failed = 0
    for _ in passes_within(seconds):
        busy = 0.0
        for n in draw_points(rng, RANK_BATCH):
            t0 = perf_counter()
            try:
                out = (f_g(n), f_low(n), f_cls(n), f_dec(n), f_dep(n), f_flip(n), f_gb(n))
                dt = perf_counter() - t0
                ok = ref.rank_point_ok(n, out, f_flip(out[5]))
            except Exception:  # a raised error is a failed query, keep going
                dt = perf_counter() - t0
                ok = False
            lat.add(dt)
            busy += dt
            failed += not ok
        pass_s.append(busy)
    return {"attempted": lat.count, "failed": failed,
            "metrics": lat.metrics(pass_s),
            "details": {"query_p99_us": lat.percentile(99) * 1e6,
                        "draw": {"low": 1, "high": ref.DRAW_MAX,
                                 "law": "log-uniform in bit length"}}}


def table_reads(read, table, idx: list[int]) -> tuple[list, list[float]]:
    """Scalar reads of table at idx, timed in batches; (values, per-read s)."""
    got: list = []
    per_read: list[float] = []
    for lo in range(0, len(idx), READ_BATCH):
        chunk = idx[lo:lo + READ_BATCH]
        t0 = perf_counter()
        vals = [read(i, table=table) for i in chunk]
        per_read.append((perf_counter() - t0) / len(chunk))
        got += vals
    return got, per_read


def tables(api, rng, seconds: float, size: int = TABLE_N) -> dict:
    """Fresh fill of every MemoTable flavour, bulk and scalar reads, then drop."""
    idx = [rng.randrange(size) for _ in range(TABLE_READS)]
    want = {"g": [ref.g(i) for i in idx], "gbar": [ref.gbar(i) for i in idx]}
    last = {"g": ref.g(size - 1), "gbar": ref.gbar(size - 1)}
    read_lat = Latencies(rng)
    pass_s: list[float] = []
    fill_s: list[float] = []
    bulk_s: list[float] = []
    attempted = failed = 0
    for _ in passes_within(seconds):
        p_fill = p_bulk = p_read = 0.0
        for which, rule in FLAVOURS:
            read = api.g if which == "g" else api.gbar
            attempted += 1 + len(idx)
            try:
                table = api.MemoTable(which, rule)
                t0 = perf_counter()
                top = read(size - 1, table=table)
                t1 = perf_counter()
                bulk = table.prefix(size)
                t2 = perf_counter()
                p_fill += t1 - t0
                p_bulk += t2 - t1
                failed += not (top == last[which] and len(bulk) == size
                               and all(bulk[i] == w for i, w in zip(idx, want[which])))
                del bulk
                got, per_read = table_reads(read, table, idx)
            except Exception:  # a raised error fails the fill and its reads
                failed += 1 + len(idx)
                continue
            finally:
                # A MemoTable holds a bound method of itself, so only the
                # cycle collector frees it; collect to keep one table alive.
                table = None
                gc.collect()
            for x in per_read:
                read_lat.add(x)
            p_read += sum(per_read) * READ_BATCH
            failed += sum(a != b for a, b in zip(got, want[which]))
        fill_s.append(p_fill)
        bulk_s.append(p_bulk)
        pass_s.append(p_fill + p_bulk + p_read)
    return {"attempted": attempted, "failed": failed,
            "metrics": {**read_lat.metrics(pass_s), "pass_s": statistics.median(pass_s)},
            "details": {"fill_s": statistics.median(fill_s),
                        "bulk_read_s": statistics.median(bulk_s),
                        "table_n": size, "scalar_reads_per_table": len(idx)}}
