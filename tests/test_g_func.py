"""The staircase function: four routes, its equation laws, the memo table."""

import gc
import random
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from hofg import (
    PHI_DOMAIN,
    TABLE_MAX,
    Arity,
    MemoTable,
    RankClass,
    classify,
    fib,
    g,
    g_arity,
    g_max_antecedent,
    g_values,
    g_via_decomposition,
    g_via_phi,
    gbar_via_flip,
    low,
)
from hofg.errors import DomainError
from hofg.g_func import _SEEDS

N = 20_000


def test_initial_values():
    assert [g(n) for n in range(6)] == [0, 1, 1, 2, 3, 3]


def test_shift_example():
    # 12 = F_2+F_4+F_6 maps to F_1+F_3+F_5 = 8 under the rank shift
    assert g(12) == 8
    assert g_via_decomposition(12) == 8


def test_every_route_rejects_negatives():
    for fn in (g, g_via_decomposition, MemoTable("g", rule="delta").value, g_via_phi):
        with pytest.raises(DomainError):
            fn(-1)
    with pytest.raises(DomainError, match=r"^g: n must be >= 0, got -1$"):
        g(-1)


def test_four_way_equivalence():
    expected = g_values(N + 1)
    assert [g_via_decomposition(n) for n in range(N + 1)] == expected
    assert MemoTable("g", rule="delta").prefix(N + 1) == expected
    assert [g_via_phi(n) for n in range(N + 1)] == expected


def test_phi_route_offset_discriminator():
    # the closed form divides n+1, not n: at n=1 the latter floors to 0
    assert g_via_phi(1) == 1


def test_phi_route_domain_cap():
    assert g_via_phi(PHI_DOMAIN - 1) >= 0
    with pytest.raises(DomainError):
        g_via_phi(PHI_DOMAIN)
    # check compares every route against a table, so no check range
    # reaches the phi route's cap
    assert TABLE_MAX < PHI_DOMAIN


def test_steps_are_zero_or_one_and_onto():
    values = g_values(N)
    assert values[0] == 0
    assert all(values[n + 1] - values[n] in (0, 1) for n in range(N - 1))
    assert set(values) == set(range(values[-1] + 1))


def test_stagnation_forces_a_step():
    values = g_values(N)
    for n in range(1, N - 1):
        if values[n] == values[n - 1]:
            assert values[n + 1] == values[n] + 1


def test_largest_antecedent_round_trip():
    for n in range(N):
        m = n + g(n)
        assert g(m) == n
        assert g(m + 1) == n + 1


def test_alternative_equation():
    for n in range(N):
        assert g(n) + g(g(n + 1) - 1) == n


def test_delta_recurrence_identity():
    values = g_values(N + 2)
    for n in range(N):
        d_next = values[n + 2] - values[n + 1]
        d_here = values[n + 1] - values[n]
        d_at_g = values[values[n] + 1] - values[values[n]]
        assert d_next == 1 - d_here * d_at_g


def test_fibonacci_fixed_points_dense():
    for k in range(2, 31):
        assert g(fib(k)) == fib(k - 1)
        if k > 2:  # 1 + F(2) = 2 is F(3), already covered by the first law
            assert g(1 + fib(k)) == 1 + fib(k - 1)


def test_fibonacci_fixed_points_full_rank_range():
    # the dense table stops being practical long before rank 91; the rank
    # arithmetic route has no such limit
    for k in range(2, 92):
        assert g_via_decomposition(fib(k)) == fib(k - 1)
        if k > 2:
            assert g_via_decomposition(1 + fib(k)) == 1 + fib(k - 1)


def test_fibonacci_fixed_points_phi_route():
    k = 2
    while fib(k) + 1 < PHI_DOMAIN:
        assert g_via_phi(fib(k)) == fib(k - 1)
        assert g_via_phi(1 + fib(k)) == (1 + fib(k - 1) if k > 2 else 1)
        k += 1
    assert k == 47  # F(46) is the last Fibonacci number under the cap


def test_plateau_iff_lowest_rank_two():
    for n in range(1, N):
        assert (g(n + 1) == g(n)) == (low(n) == 2)


def test_step_down_by_lowest_rank_parity():
    for n in range(1, N):
        if low(n) % 2 == 1:
            assert g(n - 1) == g(n)
        else:
            assert g(n - 1) == g(n) - 1


def test_lowest_rank_shifts_down_through_g():
    for n in range(1, N):
        if low(n) > 2:
            assert low(g(n)) == low(n) - 1


def test_lowest_rank_of_image_by_class():
    for n in range(1, N):
        lo = low(n)
        if lo == 2:
            assert low(g(n)) % 2 == 0
        elif lo == 3:
            assert low(g(n)) == 2
        else:
            assert low(g(n)) > 2
            assert low(g(n) + 1) % 2 == 0


def test_three_class_transport():
    for n in range(1, N):
        c = classify(n)
        if c is RankClass.THREE_EVEN:
            assert classify(g(n) + 1) is RankClass.THREE_ODD
        elif c is RankClass.THREE_ODD:
            img = classify(g(n) + 1)
            assert img is RankClass.THREE_EVEN or low(g(n) + 1) > 3


def test_antecedents_by_brute_force():
    values = g_values(4 * 1000)
    antecedents = {}
    for m, v in enumerate(values):
        antecedents.setdefault(v, []).append(m)
    for n in range(1, 1000):
        assert max(antecedents[n]) == g_max_antecedent(n)
        if n >= 2:
            expect = 1 if g_arity(n) is Arity.UNARY else 2
            assert len(antecedents[n]) == expect


def test_max_antecedent_domain():
    assert g_max_antecedent(0) == 0
    with pytest.raises(DomainError):
        g_max_antecedent(-1)


def test_arity_examples():
    assert g_arity(5) is Arity.UNARY
    assert g_arity(3) is Arity.BINARY
    assert g_arity(1) is Arity.UNARY  # root: its second antecedent is itself
    with pytest.raises(DomainError):
        g_arity(0)


def test_memo_table_contracts():
    t = MemoTable("g")
    assert t.value(0) == 0
    assert len(t) >= 1
    t.ensure(500)
    assert len(t) >= 501
    vals = t.prefix(501)
    assert len(vals) == 501
    assert all(b - a in (0, 1) for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError, match="^g: n must be >= 0, got -1$"):
        t.value(-1)
    with pytest.raises(DomainError, match="^g: prefix count must be >= 0, got -1$"):
        t.prefix(-1)
    with pytest.raises(DomainError, match="^gbar: prefix count must be >= 0, got -1$"):
        MemoTable("gbar").prefix(-1)
    assert t.prefix(0) == []


def test_value_reads_a_filled_entry_without_ensure(monkeypatch):
    t = MemoTable("g")
    t.ensure(500)
    expected = MemoTable("g").prefix(502)

    def refuse(n):
        raise AssertionError(f"ensure({n}) called for a filled entry")

    monkeypatch.setattr(t, "ensure", refuse)
    assert [t.value(n) for n in range(501)] == expected[:501]
    with pytest.raises(DomainError, match="g: n must be >= 0, got -1"):
        t.value(-1)
    with pytest.raises(AssertionError):
        t.value(501)
    monkeypatch.undo()
    assert t.value(len(t)) == expected[501]  # the first unfilled index grows it
    assert len(t) == 502
    with pytest.raises(DomainError, match="TABLE_MAX"):
        t.value(TABLE_MAX)
    assert len(t) == 502


def test_memo_table_flavors():
    with pytest.raises(DomainError,
                       match=r"^MemoTable: no table flavor \('g', 'magic'\)$"):
        MemoTable("g", rule="magic")
    with pytest.raises(DomainError,
                       match=r"^MemoTable: no table flavor \('h', 'defining'\)$"):
        MemoTable("h")
    fresh = MemoTable("g")
    assert fresh.prefix(100) == g_values(100)


@pytest.mark.parametrize("which, rule", list(_SEEDS))
def test_dropped_memo_table_is_freed_without_the_cycle_collector(which, rule):
    gc.disable()
    try:
        t = MemoTable(which, rule)
        t.ensure(1000)
        ref = weakref.ref(t)
        del t
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("which, rule", list(_SEEDS))
def test_fill_resumes_from_the_tail_of_the_table(which, rule):
    # each fill re-reads its carried state from the last entries written
    expected = MemoTable(which, rule).prefix(10**5)
    seeds = len(_SEEDS[(which, rule)])
    t = MemoTable(which, rule)
    rng = random.Random(f"{which}-{rule}")
    sizes = [seeds - 1, seeds, seeds + 1]
    while sizes[-1] < 10**5:
        step = rng.choice((1, 2, 3, rng.randint(4, 3000)))
        sizes.append(min(10**5, sizes[-1] + step))
    for size in sizes:
        assert t.prefix(size) == expected[:size]
    assert len({id(x) for x in t._values}) == len(set(t._values))


@pytest.mark.parametrize("which, rule", list(_SEEDS))
def test_equal_entries_share_one_int_object(which, rule):
    t = MemoTable(which, rule)
    t.ensure(10**5)
    assert len({id(x) for x in t._values}) == len(set(t._values))


@pytest.mark.parametrize("which, rule", list(_SEEDS))
def test_filled_table_costs_at_most_30_bytes_per_entry(which, rule):
    # an 8 B list slot per entry plus one int object (32 B as allocated)
    # per distinct value, and about 0.618 of the entries are distinct
    count = 2 * 10**5
    t = MemoTable(which, rule)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t.ensure(count - 1)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(t) == count
    assert grown / count <= 30


class _ListOutOfMemoryAt(list):
    """A table store whose append raises MemoryError at a given length."""

    def __init__(self, values, stop):
        super().__init__(values)
        self.stop = stop

    def append(self, value):
        if len(self) == self.stop:
            raise MemoryError
        super().append(value)


@pytest.mark.parametrize("which, rule", list(_SEEDS))
def test_fill_out_of_memory_drops_the_table_to_its_seeds(which, rule):
    t = MemoTable(which, rule)
    t.ensure(200)
    t._values = _ListOutOfMemoryAt(t._values, 5000)
    with pytest.raises(MemoryError):
        t.ensure(10_000)
    assert list(t._values) == list(_SEEDS[(which, rule)])
    t._values.stop = None
    assert t.prefix(10_000) == MemoTable(which, rule).prefix(10_000)


def test_table_size_cap():
    # beyond TABLE_MAX entries a table refuses before allocating anything
    t = MemoTable("gbar")
    with pytest.raises(DomainError, match=rf"^gbar: index {TABLE_MAX} needs a table of "
                                          rf"more than TABLE_MAX = {TABLE_MAX} entries$"):
        t.prefix(TABLE_MAX + 1)
    assert len(t) == len(_SEEDS[("gbar", "defining")])
    with pytest.raises(DomainError, match=f"^g: index {TABLE_MAX} needs a table"):
        g(TABLE_MAX)
    with pytest.raises(DomainError, match="TABLE_MAX"):
        gbar_via_flip(fib(60))


def test_memo_table_concurrent_readers():
    t = MemoTable("g")
    t.ensure(50_000)
    expected = t.prefix(50_001)

    def read_slice(seed):
        return [t.value((seed * 7919 + i) % 50_001) for i in range(2_000)]

    with ThreadPoolExecutor(max_workers=8) as pool:
        for seed, got in enumerate(pool.map(read_slice, range(8))):
            assert got == [expected[(seed * 7919 + i) % 50_001]
                           for i in range(2_000)]


def test_pure_mode_uses_the_given_table():
    mine = MemoTable("g")
    assert g(1000, table=mine) == g(1000)
    assert len(mine) >= 1001
