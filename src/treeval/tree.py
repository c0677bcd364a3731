"""Finite event trees, stopping times, and cumulative cash-balance processes.

A tree models a filtration on a finite sample space: nodes are events, the
root is time 0, and every leaf sits at the same terminal time T >= 1.  Node
order is the input order everywhere (children lists included), so all
iteration over a tree is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError, check_numbers


@dataclass(frozen=True)
class NodeRecord:
    """One node of the input: unique id, parent id (None for the root), and
    an optional strictly positive probability mass."""

    id: str
    parent: str | None = None
    weight: float | None = None


class Tree:
    """Validated rooted event tree with equal-depth leaves.

    Nodes are indexed 0..n-1 in input order.  The depth-first preorder makes
    every subtree a contiguous slice, which the valuation sweeps rely on.
    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(self, records: Sequence[NodeRecord]):
        records = list(records)
        if not records:
            raise ValidationError("tree needs at least one node")

        ids = [r.id for r in records]
        index: dict[str, int] = {}
        for i, node_id in enumerate(ids):
            if not isinstance(node_id, str) or not node_id:
                raise ValidationError(f"node id must be a nonempty string, got {node_id!r}")
            if node_id in index:
                raise ValidationError(f"duplicate node id {node_id!r}")
            index[node_id] = i

        parent = np.full(len(records), -1, dtype=np.int64)
        roots = []
        for i, rec in enumerate(records):
            if rec.parent is None:
                roots.append(i)
            else:
                j = index.get(rec.parent)
                if j is None:
                    raise ValidationError(f"node {rec.id!r} references missing parent {rec.parent!r}")
                if j == i:
                    raise ValidationError(f"node {rec.id!r} is its own parent")
                parent[i] = j
        if not roots:
            raise ValidationError("tree has no root (every node has a parent)")
        if len(roots) > 1:
            raise ValidationError(
                "tree has multiple roots: " + ", ".join(repr(ids[i]) for i in roots)
            )
        root = roots[0]

        children: list[list[int]] = [[] for _ in records]
        for i in range(len(records)):
            if parent[i] >= 0:
                children[parent[i]].append(i)

        # Times via BFS from the root; anything unreached sits on a parent cycle.
        time = np.full(len(records), -1, dtype=np.int64)
        time[root] = 0
        preorder: list[int] = []
        stack = [root]
        while stack:
            u = stack.pop()
            preorder.append(u)
            for v in reversed(children[u]):
                time[v] = time[u] + 1
                stack.append(v)
        if len(preorder) != len(records):
            missing = [ids[i] for i in range(len(records)) if time[i] < 0]
            raise ValidationError(f"nodes unreachable from root (parent cycle?): {missing}")

        leaf = np.array([not children[i] for i in range(len(records))], dtype=bool)
        leaf_times = time[leaf]
        depth = int(leaf_times.max())
        if int(leaf_times.min()) != depth:
            raise ValidationError("all leaves must sit at the same depth")
        if depth < 1:
            raise ValidationError("tree must have depth >= 1 (a lone root is degenerate)")

        weights = [r.weight for r in records]
        has_weight = [w is not None for w in weights]
        if any(has_weight) and not all(has_weight):
            raise ValidationError(
                "weights must be given on every node or on none (leaf-only weights are rejected)"
            )
        weight_arr = None
        if all(has_weight):
            weight_arr = check_numbers("node weights", weights)
            if np.any(weight_arr <= 0.0):
                bad = ids[int(np.argmin(weight_arr))]
                raise ValidationError(f"node weights must be strictly positive; offending node {bad!r}")

        pre_position = np.empty(len(records), dtype=np.int64)
        pre_position[preorder] = np.arange(len(records))

        self.ids: tuple[str, ...] = tuple(ids)
        self.index: dict[str, int] = index
        self.parent_index = parent
        self.children_index: tuple[tuple[int, ...], ...] = tuple(tuple(c) for c in children)
        self.root_index = root
        self.time = time
        self.depth = depth
        self.is_leaf = leaf
        self.leaf_indices: tuple[int, ...] = tuple(int(i) for i in np.flatnonzero(leaf))
        self.preorder = np.array(preorder, dtype=np.int64)
        self.pre_position = pre_position
        self.subtree_size = self.subtree_sums(np.ones(len(records))).astype(np.int64)
        self.weights = weight_arr
        self.subtree_weight = None if weight_arr is None else self.subtree_sums(weight_arr)
        for arr in (self.parent_index, self.time, self.is_leaf, self.preorder,
                    self.pre_position, self.subtree_size):
            arr.flags.writeable = False
        if weight_arr is not None:
            weight_arr.flags.writeable = False
            self.subtree_weight.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def root(self) -> str:
        return self.ids[self.root_index]

    def node_index(self, node_id: str) -> int:
        try:
            return self.index[node_id]
        except KeyError:
            raise ValidationError(f"unknown node id {node_id!r}") from None

    def subtree_sums(self, values) -> np.ndarray:
        """Sum of values over each node's subtree (the node included),
        accumulated child into parent in reverse preorder."""
        out = np.array(values, dtype=float)
        for u in self.preorder[::-1].tolist():
            p = self.parent_index[u]
            if p >= 0:
                out[p] += out[u]
        return out

    def descendant_indices(self, i: int) -> np.ndarray:
        """Indices of the subtree rooted at node i (i included), preorder."""
        pos = self.pre_position[i]
        return self.preorder[pos : pos + self.subtree_size[i]]

    def internal_indices(self) -> Iterable[int]:
        return (i for i in range(self.n_nodes) if not self.is_leaf[i])

    @cached_property
    def level_groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Internal nodes grouped by level and child count, deepest level
        first, as pairs ``(nodes, kids)``: ``kids[j]`` lists the children of
        ``nodes[j]`` in input order, and is a view of the group's index
        ``[nodes | kids]`` (``level_takes``).  Built without a per-node
        loop; the level sweeps of ``valuation`` run one block per group."""
        # a stable sort by parent lists each node's children contiguously
        # and in input order, after the root (parent -1)
        by_parent = np.argsort(self.parent_index, kind="stable")
        count = np.bincount(self.parent_index[self.parent_index >= 0], minlength=self.n_nodes)
        first = 1 + np.cumsum(count) - count
        internal = np.flatnonzero(count)
        order = internal[np.lexsort((count[internal], -self.time[internal]))]
        key = self.time[order] * self.n_nodes + count[order]
        groups = []
        for nodes in np.split(order, np.flatnonzero(np.diff(key)) + 1):
            take = np.concatenate([nodes[:, None], by_parent[first[nodes, None] + np.arange(count[nodes[0]])]], axis=1)
            nodes.flags.writeable = take.flags.writeable = False
            groups.append((nodes, take[:, 1:]))
        return tuple(groups)

    @cached_property
    def level_takes(self) -> tuple[np.ndarray, ...]:
        """Each level group's read-only index ``[nodes | kids]`` (b, m + 1),
        the array its ``kids`` view, built once per tree: every family's
        level blocks gather their outcomes through it (``Block.take``), while
        the blocks keep ``nodes`` apart and contiguous, as a strided node
        index makes every ``take`` of a sweep slower."""
        return tuple(kids.base for _, kids in self.level_groups)

    def __repr__(self) -> str:
        return f"Tree(n_nodes={self.n_nodes}, depth={self.depth}, root={self.root!r})"


def build_tree(records: Sequence[NodeRecord]) -> Tree:
    """Validate records and build the tree with children lists, times and
    leaf set precomputed."""
    return Tree(records)


def children(tree: Tree, x: str) -> tuple[str, ...]:
    """Immediate descendants of x, in input order."""
    return tuple(tree.ids[c] for c in tree.children_index[tree.node_index(x)])


def descendants(tree: Tree, x: str) -> set[str]:
    """All descendants of x, x itself included."""
    return {tree.ids[i] for i in tree.descendant_indices(tree.node_index(x))}


def subtree_mass(tree: Tree, x: str) -> float:
    """Total node weight of the subtree at x (the whole tree sums to 1)."""
    if tree.subtree_weight is None:
        raise ValidationError("tree has no node weights attached")
    return float(tree.subtree_weight[tree.node_index(x)])


@dataclass(frozen=True)
class StoppingTime:
    """Antichain of nodes meeting every root-to-leaf path exactly once."""

    graph: frozenset[str]


def stop_index(tree: Tree, members) -> np.ndarray:
    """For graph masks of shape (..., n_nodes), the index of the nearest
    graph node at or above each node, and -1 strictly before the stop.
    Vectorised over the nodes and the leading axes: each of ``depth`` steps
    lets every node not yet stopped look one level further up.  Pasting,
    stopping-time validation and the axiom suites all find the stop here."""
    up = np.where(tree.parent_index >= 0, tree.parent_index, tree.root_index)
    at = np.where(np.asarray(members, dtype=bool), np.arange(tree.n_nodes), -1)
    for _ in range(tree.depth):
        at = np.where(at >= 0, at, at[..., up])
    return at


def _graph_mask(tree: Tree, nodes: Iterable[str]) -> np.ndarray:
    members = np.zeros(tree.n_nodes, dtype=bool)
    for node_id in nodes:
        members[tree.node_index(node_id)] = True
    return members


def stopping_time(tree: Tree, nodes: Iterable[str]) -> StoppingTime:
    """Validated stopping time from its graph: every path to a leaf meets
    the graph, and no graph node lies below another."""
    graph = frozenset(nodes)
    members = _graph_mask(tree, graph)
    at = stop_index(tree, members)
    for i in tree.leaf_indices:
        if at[i] < 0:
            raise ValidationError(
                f"not a stopping time: path to leaf {tree.ids[i]!r} meets the graph 0 times")
    for i in map(int, np.flatnonzero(members)):
        p = tree.parent_index[i]
        if p >= 0 and at[p] >= 0:
            raise ValidationError(f"not a stopping time: graph nodes {tree.ids[at[p]]!r} and "
                                  f"{tree.ids[i]!r} lie on one path")
    return StoppingTime(graph)


def hitting_stop(tree: Tree, x: str) -> StoppingTime:
    """First time the path enters x; terminal time on paths that miss x.

    Graph is {x} together with every leaf not descending from x.
    """
    xi = tree.node_index(x)
    under = set(int(i) for i in tree.descendant_indices(xi))
    graph = {x}
    graph.update(tree.ids[i] for i in tree.leaf_indices if i not in under)
    return stopping_time(tree, graph)


class CashBalance:
    """Cumulative cash per node, aligned with the tree's node order.

    Values are a read-only float array of length ``tree.n_nodes``; increments
    are derived, never stored.
    """

    __slots__ = ("tree", "values")

    def __init__(self, tree: Tree, values):
        arr = check_numbers("cash balance", values, (tree.n_nodes,))
        arr.flags.writeable = False
        self.tree = tree
        self.values = arr

    @classmethod
    def from_mapping(cls, tree: Tree, mapping: Mapping[str, float]) -> "CashBalance":
        unknown = set(mapping) - set(tree.ids)
        if unknown:
            raise ValidationError(f"cash balance names unknown nodes: {sorted(unknown)}")
        missing = set(tree.ids) - set(mapping)
        if missing:
            raise ValidationError(f"cash balance must cover every node; missing: {sorted(missing)}")
        return cls(tree, [mapping[node_id] for node_id in tree.ids])

    @classmethod
    def constant(cls, tree: Tree, value: float) -> "CashBalance":
        return cls(tree, np.full(tree.n_nodes, check_numbers("cash", value, ())))

    def as_mapping(self) -> dict[str, float]:
        return {node_id: float(v) for node_id, v in zip(self.tree.ids, self.values)}

    def value_at(self, node_id: str) -> float:
        return float(self.values[self.tree.node_index(node_id)])

    def __repr__(self) -> str:
        return f"CashBalance({self.as_mapping()!r})"


def replace_after(balance: CashBalance, stop: StoppingTime, replacement: Mapping[str, float]) -> CashBalance:
    """Paste a stopped continuation onto a cash balance.

    The result agrees with the original strictly before the stopping time and
    is constant, equal to the replacement value of the stop node z, at every
    node at-or-after z on that path.
    """
    tree = balance.tree
    extra = set(replacement) - set(stop.graph)
    if extra:
        raise ValidationError(f"replacement values given off the stopping graph: {sorted(extra)}")
    missing = set(stop.graph) - set(replacement)
    if missing:
        raise ValidationError(f"replacement value missing for stop nodes: {sorted(missing)}")
    repl = np.zeros(tree.n_nodes, dtype=float)
    repl[[tree.node_index(node_id) for node_id in replacement]] = check_numbers(
        "replacement values", list(replacement.values()), (len(replacement),))
    at = stop_index(tree, _graph_mask(tree, stop.graph))
    return CashBalance(tree, np.where(at >= 0, repl[at], balance.values))
