"""Finite slices of the g and gbar trees.

Both trees have node labels 1, 2, 3, ... with node n attached to its image
under the function (g(n) or gbar(n)); node 1 is the root.  Depth k holds
exactly the labels in [1 + F(k+1), F(k+2)], so a slice down to max_depth
contains labels 1 .. F(max_depth + 2).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError
from .fibonacci import _outside, fib
from .flip_gbar import gbar_arity, gbar_rightmost_child, gbar_values
from .g_func import Arity, g_arity, g_max_antecedent, g_values

DEPTH_MAX = 25

_FUNCS = ("g", "gbar")


class TreeSlice(NamedTuple):
    """All nodes of one tree down to max_depth.

    parent maps every non-root label to its parent; child_lists maps each
    label with in-slice children to them in ascending order (labels on the
    deepest level have their children outside the slice and do not appear);
    arity holds the formula arity of every label, including the deepest
    level.
    """

    func: str
    max_depth: int
    parent: dict[int, int]
    child_lists: dict[int, list[int]]
    arity: dict[int, Arity]

    def __repr__(self) -> str:  # the label maps run to F(27) entries
        return f"TreeSlice(func={self.func!r}, max_depth={self.max_depth})"

    def label_count(self) -> int:
        return fib(self.max_depth + 2)

    def level(self, k: int) -> range:
        """Labels at depth k (as a range; level 0 is just the root)."""
        if k < 0 or k > self.max_depth:
            raise DomainError(f"TreeSlice.level: k = {k} outside [0, {self.max_depth}]")
        if k == 0:
            return range(1, 2)
        return range(fib(k + 1) + 1, fib(k + 2) + 1)


def build_tree(func: str, max_depth: int) -> TreeSlice:
    """Build the complete slice of the func tree down to max_depth."""
    if func not in _FUNCS:
        raise DomainError(f"build_tree: func must be 'g' or 'gbar', got {func!r}")
    if max_depth < 0:
        raise DomainError(f"build_tree: max_depth must be >= 0, got {max_depth}")
    if max_depth > DEPTH_MAX:
        raise DomainError(f"build_tree: max_depth {max_depth} exceeds {DEPTH_MAX}")

    top = fib(max_depth + 2)
    values = g_values(top + 1) if func == "g" else gbar_values(top + 1)
    arity_of = g_arity if func == "g" else gbar_arity

    parent: dict[int, int] = {}
    child_lists: dict[int, list[int]] = {}
    for n in range(2, top + 1):
        p = values[n]
        parent[n] = p
        child_lists.setdefault(p, []).append(n)
    arity = {n: arity_of(n) for n in range(1, top + 1)}
    return TreeSlice(func, max_depth, parent, child_lists, arity)


def children(func: str, n: int) -> list[int]:
    """Children of node n in the func tree, ascending, without a slice.

    The rightmost child is the largest antecedent; when the node is binary
    the other child sits directly below it.  The root's single child is 2 in
    both trees.  No table is read: n answers up to F(91) - 1 for g and F(90),
    flip's edge, for gbar; above them g_max_antecedent's or the arity's error names n.
    """
    if func not in _FUNCS:
        raise DomainError(f"children: func must be 'g' or 'gbar', got {func!r}")
    if n < 1:
        raise _outside("children", n, 1)
    if n == 1:
        return [2]
    if func == "g":
        r = g_max_antecedent(n)
        a = g_arity(n)
    else:
        a = gbar_arity(n)
        r = gbar_rightmost_child(n)
    return [r] if a is Arity.UNARY else [r - 1, r]


def export_dot(slice_: TreeSlice) -> str:
    """Deterministic DOT text for a slice: edges parent -> child.

    Children are emitted left to right in label order; two builds of the
    same slice render byte-identically.
    """
    lines = [f"digraph {slice_.func} {{"]
    if not slice_.parent:
        lines.append("  1;")
    for p in sorted(slice_.child_lists):
        for c in slice_.child_lists[p]:
            lines.append(f"  {p} -> {c};")
    lines.append("}")
    return "\n".join(lines) + "\n"
