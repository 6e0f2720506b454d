"""Spans and the in-process layer replay behind the traced run.

Spans are recorded by the benchmark around its own calls into each layer
(module) of the package, held in memory and written out when the run ends.
The replay mirrors the suites of `hofg check --max M` with public names only,
one span per route sweep and per table fill, under one root span.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import ref

SPOT_CAP = 200_000   # `hofg check` runs its invariant spot checks up to here
TREE_DEPTH = 20      # deepest tree the cli-oneshot workload draws
BFILES = (("tests/data/b005206.txt", "g"), ("tests/data/b123070.txt", "gbar"))

# (layer metric prefix, exported name) of the table-free routes, timed over
# the workload's points.
POINT_ROUTES = (
    ("fibonacci.fib_inv", "fib_inv"),
    ("g_func.g_via_decomposition", "g_via_decomposition"),
    ("zeckendorf.low", "low"),
    ("zeckendorf.classify", "classify"),
    ("zeckendorf.decompose", "decompose"),
    ("flip_gbar.depth", "depth"),
    ("flip_gbar.flip", "flip"),
    ("flip_gbar.gbar_via_complement", "gbar_via_complement"),
)


class Tracer:
    """In-memory spans: id, name, parent id, workload id, start, end, count.

    A disabled tracer records nothing, so the same code runs untraced.
    """

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, count: int = 1):
        if not self.enabled:
            yield None
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "workload": self.workload, "count": count,
               "start": perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def ns_per(self, name: str) -> float:
        spans = [s for s in self.spans if s["name"] == name]
        return (sum(s["end"] - s["start"] for s in spans)
                / sum(s["count"] for s in spans) * 1e9)

    def children_seconds(self, parent: int) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] == parent)


def _sweep(tr: Tracer, name: str, fn, expect: list[int], lo: int, hi: int) -> bool:
    with tr.span(name, hi - lo + 1):
        return all(fn(n) == expect[n] for n in range(lo, hi + 1))


def replay_check(api, tr: Tracer, max_n: int) -> tuple[int, int, float, dict | None]:
    """The suites of `hofg check --max max_n`.

    Returns (attempted, failed, wall seconds of the suites, root span).
    """
    oks = []
    t0 = perf_counter()
    with tr.span("check", max_n + 1) as root:
        with tr.span("g_func.MemoTable.fill.g-defining", max_n + 1):
            gv = api.g_values(max_n + 1)
        oks.append(_sweep(tr, "g_func.g_via_decomposition.sweep",
                          api.g_via_decomposition, gv, 0, max_n))
        with tr.span("g_func.MemoTable.fill.g-delta", max_n + 1):
            dv = api.MemoTable("g", rule="delta").prefix(max_n + 1)
        oks.append(dv == gv)
        oks.append(_sweep(tr, "g_func.g_via_phi", api.g_via_phi, gv,
                          0, min(max_n, api.PHI_DOMAIN - 1)))
        with tr.span("g_func.MemoTable.fill.gbar-defining", max_n + 1):
            bv = api.gbar_values(max_n + 1)
        oks.append(_sweep(tr, "flip_gbar.gbar_via_flip", api.gbar_via_flip, bv, 0, max_n))
        with tr.span("g_func.MemoTable.fill.gbar-delta", max_n + 1):
            dv = api.MemoTable("gbar", rule="delta").prefix(max_n + 1)
        oks.append(dv == bv)
        oks.append(_sweep(tr, "flip_gbar.gbar_via_g_correction",
                          api.gbar_via_g_correction, bv, 0, max_n))
        oks.append(_sweep(tr, "flip_gbar.gbar_via_complement.sweep",
                          api.gbar_via_complement, bv, 0, max_n))
        cap = min(max_n, SPOT_CAP)
        with tr.span("zeckendorf.classify.sweep", cap):
            classes = [api.classify(n) for n in range(1, cap + 1)]
        with tr.span("zeckendorf.low.sweep", cap + 1):
            lows = [api.low(n) for n in range(1, cap + 2)]
    wall = perf_counter() - t0
    # Outside the root span: table seeds and a prefix of the invariant sweeps.
    oks.append(gv[:4] == [0, 1, 1, 2] and bv[:4] == [0, 1, 1, 2]
               and all(c.value == ref.classify(n) for n, c in enumerate(classes[:1000], 1))
               and all(k == ref.ranks(n)[0] for n, k in enumerate(lows[:1000], 1)))
    return len(oks), oks.count(False), wall, root


def time_points(api, tr: Tracer, points: list[int]) -> tuple[int, int, float]:
    """Each table-free route over every point, one span per route.

    Returns (attempted, failed, Zeckendorf terms per point).
    """
    outs = {}
    for name, attr in POINT_ROUTES:
        fn = getattr(api, attr)
        with tr.span(name, len(points)):
            outs[attr] = [fn(n) for n in points]
    failed = 0
    for i, n in enumerate(points):
        out = tuple(outs[a][i] for a in ref.RANK_ROUTES)
        try:
            ok = (outs["fib_inv"][i] == ref.ranks(n)[-1]
                  and ref.rank_point_ok(n, out, api.flip(out[5])))
        except Exception:  # a raised error is a failed point
            ok = False
        failed += not ok
    terms = sum(len(d.ranks) for d in outs["decompose"]) / len(points)
    return len(points), failed, terms


def probe_tree_oeis(api, tr: Tracer, root: Path) -> tuple[int, int, dict]:
    """Build and export both trees at TREE_DEPTH; parse and verify both b-files."""
    failed = labels = edges = records = 0
    for func in ("g", "gbar"):
        with tr.span("tree.build_tree"):
            slice_ = api.build_tree(func, TREE_DEPTH)
        with tr.span("tree.export_dot"):
            text = api.export_dot(slice_)
        labels += slice_.label_count()
        edges += len(slice_.parent)
        failed += not ref.command_ok(["tree", func, "--depth", str(TREE_DEPTH)], 0, text)
    for path, func in BFILES:
        text = (root / path).read_text(encoding="ascii")
        with tr.span("oeis.parse_bfile"):
            recs = api.parse_bfile(text)
        with tr.span("oeis.verify"):
            report = api.verify(recs, func)
        records += len(recs)
        failed += not report.ok
    per = {
        "tree.build_tree.ns_per_label": tr.seconds("tree.build_tree") / labels * 1e9,
        "tree.export_dot.ns_per_edge": tr.seconds("tree.export_dot") / edges * 1e9,
        "oeis.parse_bfile.ns_per_record": tr.seconds("oeis.parse_bfile") / records * 1e9,
        "oeis.verify.ns_per_record": tr.seconds("oeis.verify") / records * 1e9,
    }
    return 4, failed, per
