"""Seeded input generators: tree shapes, weights and tree documents.

Everything a workload feeds the library is drawn here or in the workload
modules from one ``numpy.random.Generator`` seeded by ``--seed``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from harness import cpu_clock
from treeval.tree import NodeRecord, build_tree


class SetupTimers:
    """CPU seconds spent in tree construction and in ``treeval.io`` during
    one set-up."""

    def __init__(self):
        self.tree_build = 0.0
        self.io_load = 0.0

    def build(self, records):
        started = cpu_clock()
        tree = build_tree(records)
        self.tree_build += cpu_clock() - started
        return tree


def full_tree_records(branching: int, depth: int) -> list[tuple[str, str | None]]:
    """(id, parent) pairs of a full tree in depth-first input order; ids
    spell the path ("r", "a", "ab", ...)."""
    tags = "abcdefgh"[:branching]
    out = [("r", None)]

    def grow(name, level):
        if level == depth:
            return
        for tag in tags:
            child = tag if name == "r" else name + tag
            out.append((child, name))
            grow(child, level + 1)

    grow("r", 0)
    return out


def random_shape_records(rng: np.random.Generator, max_depth: int = 4, depth: int | None = None):
    """Random tree with all leaves at one depth and 1 to 3 children per
    internal node, the shape family of the acceptance criteria."""
    if depth is None:
        depth = int(rng.integers(1, max_depth + 1))
    out = [("n0", None)]
    level = ["n0"]
    for _ in range(depth):
        nxt = []
        for name in level:
            for _ in range(int(rng.integers(1, 4))):
                child = f"n{len(out)}"
                out.append((child, name))
                nxt.append(child)
        level = nxt
    return out


def weighted(rng: np.random.Generator, pairs) -> list[NodeRecord]:
    """Attach strictly positive node weights, uniform on [0.1, 1] and
    normalized to sum to 1."""
    raw = rng.uniform(0.1, 1.0, len(pairs))
    raw /= raw.sum()
    return [NodeRecord(i, p, float(w)) for (i, p), w in zip(pairs, raw)]


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def tree_document(records) -> dict:
    return {"nodes": [{"id": r.id, "parent": r.parent, "weight": r.weight} for r in records]}


def child_table(tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(internal node indices, their child indices (m, c), leaf indices) of a
    tree whose internal nodes all have the same number of children."""
    internal = np.array([i for i in range(tree.n_nodes) if not tree.is_leaf[i]], dtype=np.int64)
    kids = np.array([tree.children_index[i] for i in internal], dtype=np.int64)
    leaves = np.array(tree.leaf_indices, dtype=np.int64)
    return internal, kids, leaves
