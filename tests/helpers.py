"""Shared fixtures-in-code: small trees, random tree generation, and
independent brute-force oracles used to pin expected values."""

from __future__ import annotations

import itertools

import numpy as np

from treeval.tree import CashBalance, NodeRecord, Tree, build_tree


def three_node_tree(weights=(0.2, 0.4, 0.4)) -> Tree:
    """Root with two children; the standard weighted example."""
    w0, w1, w2 = weights
    return build_tree([
        NodeRecord("root", None, w0),
        NodeRecord("up", "root", w1),
        NodeRecord("down", "root", w2),
    ])


def binary_tree(depth: int, weights=None) -> Tree:
    """Full binary tree; node ids encode the path (root, u, d, uu, ...)."""
    records = [NodeRecord("r", None)]
    level = ["r"]
    for _ in range(depth):
        nxt = []
        for name in level:
            for tag in ("u", "d"):
                child = name + tag if name != "r" else tag
                records.append(NodeRecord(child, name))
                nxt.append(child)
        level = nxt
    if weights is not None:
        records = [NodeRecord(r.id, r.parent, w) for r, w in zip(records, weights)]
    elif weights is None:
        n = len(records)
        records = [NodeRecord(r.id, r.parent, 1.0 / n) for r in records]
    return build_tree(records)


def trinomial_tree(depth: int = 2, leaf_weight: float | None = None) -> Tree:
    """Full ternary tree.  With leaf_weight=None, weights are uniform over
    all nodes; otherwise leaves carry leaf_weight and internal nodes split
    the remaining mass uniformly."""
    records = [NodeRecord("r", None)]
    level = ["r"]
    for _ in range(depth):
        nxt = []
        for name in level:
            for tag in "abc":
                child = name + tag if name != "r" else tag
                records.append(NodeRecord(child, name))
                nxt.append(child)
        level = nxt
    n = len(records)
    n_leaves = len(level)
    if leaf_weight is None:
        return build_tree([NodeRecord(r.id, r.parent, 1.0 / n) for r in records])
    rest = (1.0 - n_leaves * leaf_weight) / (n - n_leaves)
    leaves = set(level)
    return build_tree([
        NodeRecord(r.id, r.parent, leaf_weight if r.id in leaves else rest)
        for r in records
    ])


def random_tree(rng: np.random.Generator, max_depth: int = 4, max_branching: int = 3,
                weighted: bool = True) -> Tree:
    """Random tree with all leaves at one sampled depth and strictly positive
    normalized node weights bounded away from zero."""
    depth = int(rng.integers(1, max_depth + 1))
    records = [NodeRecord("n0", None)]
    counter = itertools.count(1)
    level = ["n0"]
    for _ in range(depth):
        nxt = []
        for name in level:
            for _ in range(int(rng.integers(1, max_branching + 1))):
                child = f"n{next(counter)}"
                records.append(NodeRecord(child, name))
                nxt.append(child)
        level = nxt
    if not weighted:
        return build_tree(records)
    raw = rng.uniform(0.1, 1.0, len(records))
    raw /= raw.sum()
    return build_tree([NodeRecord(r.id, r.parent, w) for r, w in zip(records, raw)])


def random_cash(rng: np.random.Generator, tree: Tree, low=-5.0, high=5.0) -> CashBalance:
    return CashBalance(tree, rng.uniform(low, high, tree.n_nodes))


def outcomes(k_x, k_children) -> np.ndarray:
    """A kernel's stacked outcomes (..., b, m + 1) from own cash (..., b)
    and child values (..., b, m): a fresh C-ordered array, as the sweeps
    gather, which the kernel may overwrite."""
    return np.ascontiguousarray(np.concatenate([np.asarray(k_x, dtype=float)[..., None], k_children], axis=-1))


def per_node_values(family, values) -> np.ndarray:
    """Reference sweep: one ``family.one_steps[u].evaluate`` call per
    internal node, in reverse preorder, for cash values (..., n_nodes)."""
    values = np.asarray(values, dtype=float)
    tree = family.tree
    out = np.empty_like(values)
    for u in tree.preorder[::-1].tolist():
        kids = list(tree.children_index[u])
        if not kids:
            out[..., u] = values[..., u]
        else:
            out[..., u] = family.one_steps[u].evaluate(values[..., u], out[..., kids])
    return out


def enumerate_stopping_graphs(tree: Tree, start: str | None = None):
    """All stopping-time graphs of the subtree at start (default: root),
    as frozensets of node ids.  Independent of the package's stopping-time
    machinery: plain recursion on children lists."""
    kids = {node_id: [] for node_id in tree.ids}
    for node_id in tree.ids:
        i = tree.node_index(node_id)
        p = tree.parent_index[i]
        if p >= 0:
            kids[tree.ids[p]].append(node_id)

    def rec(node_id):
        options = [frozenset({node_id})]
        if kids[node_id]:
            child_choices = [rec(c) for c in kids[node_id]]
            for combo in itertools.product(*child_choices):
                options.append(frozenset().union(*combo))
        return options

    return rec(start if start is not None else tree.root)


def numeric_dual_closure(family, x: str, opts=None):
    """(dual_fn, gradient) pair for primal_from_dual built on the numeric
    dual solver: the gradient is the envelope (minus the inner maximizer)
    and consecutive solves warm-start from the previous maximizer."""
    from treeval.dual import dual_value_and_argmax

    tree = family.tree
    ids_sub = [tree.ids[i] for i in tree.descendant_indices(tree.node_index(x))]
    state = {"start": None}

    def solve(density):
        value, argmax, res = dual_value_and_argmax(family, x, density, opts, start=state["start"])
        if argmax is not None:
            state["start"] = res.x.copy()
        return value, argmax

    def dual_fn(density):
        return solve(density)[0]

    def gradient(density):
        _, argmax = solve(density)
        return {node_id: -argmax.value_at(node_id) for node_id in ids_sub}

    return dual_fn, gradient


def worst_stopping_bruteforce(tree: Tree, alpha: dict[str, np.ndarray], values: np.ndarray,
                              start: str | None = None) -> float:
    """Oracle for the single-distribution stop-or-continue value: minimum over
    all stopping times of the alpha-weighted stopped value, by enumeration."""
    start = start if start is not None else tree.root
    reach = {start: 1.0}
    order = [tree.ids[i] for i in tree.descendant_indices(tree.node_index(start))]
    for node_id in order:
        i = tree.node_index(node_id)
        for k, c in enumerate(tree.children_index[i]):
            reach[tree.ids[c]] = reach[node_id] * float(alpha[node_id][k])
    best = np.inf
    for graph in enumerate_stopping_graphs(tree, start):
        total = sum(reach[z] * values[tree.node_index(z)] for z in graph)
        best = min(best, total)
    return best


def global_hedge_value(family, mkt, x: str, balance: CashBalance) -> float:
    """Oracle for the best hedged valuation: one scipy search over the
    stacked positions of every decision node of the subtree at x, valued
    through the public gains process (no one-step decomposition)."""
    from scipy.optimize import minimize

    from treeval.market import Strategy, gains

    tree = family.tree
    decisions = [tree.ids[i] for i in tree.descendant_indices(tree.node_index(x))
                 if not tree.is_leaf[i]]
    n_assets = len(mkt.asset_names)

    def negated(theta: np.ndarray) -> float:
        holdings = {node_id: theta[k * n_assets:(k + 1) * n_assets]
                    for k, node_id in enumerate(decisions)}
        hedged = balance.values + gains(mkt, x, Strategy(holdings)).values
        return -family.value(x, CashBalance(tree, hedged))

    res = minimize(negated, np.zeros(len(decisions) * n_assets), method="BFGS",
                   options={"gtol": 1e-10, "maxiter": 10_000})
    return -float(res.fun)


def global_pool_value(families, x: str, balance: CashBalance) -> float:
    """Oracle for the pooled valuation: restarted Nelder-Mead over the full
    allocation on the subtree at x (the last subsidiary takes the
    remainder), summing the subsidiaries' node values directly."""
    from scipy.optimize import minimize

    tree = families[0].tree
    xi = tree.node_index(x)
    sub = tree.descendant_indices(xi)
    j = len(families)

    def negated(flat: np.ndarray) -> float:
        pieces = flat.reshape(j - 1, sub.size)
        total = 0.0
        for fam, piece in zip(families, [*pieces, balance.values[sub] - pieces.sum(axis=0)]):
            full = np.zeros(tree.n_nodes)
            full[sub] = piece
            total += fam.node_values(full)[xi]
        return -float(total)

    theta = np.tile(balance.values[sub] / j, j - 1)
    best = -np.inf
    for _ in range(4):
        res = minimize(negated, theta, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 20_000, "maxfev": 20_000})
        theta = res.x
        best = max(best, -float(res.fun))
    return best
