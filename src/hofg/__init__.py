"""Hofstadter's G, its mirror, and the Fibonacci-sum machinery beneath them.

Every central quantity is computable by several independent algorithms
(four for g, five for gbar); the test suite and the `hofg check` command
cross-validate them over large ranges.
"""

from .errors import (
    DomainError,
    GapError,
    HofgError,
    ParseError,
    RankOverflow,
)
from .fibonacci import RANK_MAX, VALUE_LIMIT, fib, fib_inv
from .flip_gbar import (
    depth,
    flip,
    gbar,
    gbar_arity,
    gbar_leftmost_child,
    gbar_rightmost_child,
    gbar_values,
    gbar_via_complement,
    gbar_via_flip,
    gbar_via_g_correction,
)
from .g_func import (
    PHI_DOMAIN,
    TABLE_MAX,
    Arity,
    MemoTable,
    g,
    g_arity,
    g_max_antecedent,
    g_values,
    g_via_decomposition,
    g_via_phi,
)
from .oeis import (
    BFileRecord,
    Mismatch,
    VerifyReport,
    parse_bfile,
    render_bfile,
    resolve_offset,
    verify,
)
from .tree import TreeSlice, build_tree, children, export_dot
from .zeckendorf import (
    Decomposition,
    RankClass,
    classify,
    decompose,
    fib_sum_text,
    low,
    next_three_odd,
    normalize,
    relax,
    sum_of,
)

__version__ = "0.1.0"
