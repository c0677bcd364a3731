"""Output checks that do not run the code path that produced the output.

Each check returns None when the output is right and a short message
otherwise.  Tolerances are those of the acceptance suite.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

ENTROPIC_TOL = 1e-9       # criterion 01 axiom tolerance, used for node values
WORST_TOL = 1e-12         # criterion 07 enumeration tolerance
CRRA_STEP = 1e-9          # the price must bracket a sign change at b -/+ this
DUAL_TOL = 1e-6           # criterion 02 numeric-vs-closed gap
ROUND_TRIP_TOL = 1e-5     # criterion 03 round-trip gap
RECOMPUTE_TOL = 1e-9      # a value recomputed from the returned strategy or allocation
POOL_TOL = 1e-6           # criterion 04 value gap
FEASIBILITY_TOL = 1e-12   # criterion 04 feasibility
STABILITY_TOL = 1e-8      # criterion 06


def _worst(diff) -> float:
    diff = np.asarray(diff, dtype=float)
    if not np.all(np.isfinite(diff)):
        return math.inf
    return float(np.max(np.abs(diff))) if diff.size else 0.0


def subtree_sums(tree, terms: np.ndarray) -> np.ndarray:
    """Sum of ``terms`` (..., n) over every node's subtree, one tree level
    at a time from the leaves up."""
    sums = np.array(terms, dtype=float)
    flat = sums.reshape(-1, tree.n_nodes).T      # (n, rows) view
    time = np.asarray(tree.time)
    parent = np.asarray(tree.parent_index)
    for t in range(int(time.max()), 0, -1):
        level = np.flatnonzero(time == t)
        np.add.at(flat, parent[level], flat[level])
    return sums


def entropic_rows(tree, gamma: float, reference: np.ndarray, cash: np.ndarray) -> np.ndarray:
    """Closed form -(1/gamma) log sum_{y in subtree} (p_y / pbar_x) exp(-gamma K_y)
    at every node for cash rows of shape (rows, n), from plain subtree sums
    rather than a backward induction of one-step operators."""
    cash = np.atleast_2d(cash)
    shift = cash.min(axis=1, keepdims=True)
    sums = subtree_sums(tree, reference * np.exp(-gamma * (cash - shift)))
    pbar = subtree_sums(tree, reference)
    return shift - np.log(sums / pbar) / gamma


def check_entropic(out, expected: np.ndarray) -> str | None:
    gap = _worst(np.asarray(out, dtype=float) - expected)
    if gap > ENTROPIC_TOL:
        return f"entropic node values off the closed form by {gap:.3e}"
    return None


def worst_case_expected(tree, alphas: np.ndarray, kids: np.ndarray, internal: np.ndarray,
                        cash: np.ndarray, out: np.ndarray) -> np.ndarray:
    """min(stop, min over alphas of the child expectation) at every internal
    node, from the output's own child values."""
    cash = np.atleast_2d(cash)
    out = np.atleast_2d(out)
    child_vals = out[:, kids]                                  # (rows, m, c)
    cand = np.einsum("rmc,mac->rma", child_vals, alphas)       # (rows, m, a)
    return np.minimum(cash[:, internal], cand.min(axis=-1))


def check_worst(out, cash, tree, alphas, kids, internal, leaves) -> str | None:
    out2 = np.atleast_2d(np.asarray(out, dtype=float))
    cash2 = np.atleast_2d(cash)
    if out2.shape != cash2.shape:
        return f"worst-case output shape {out2.shape} != input shape {cash2.shape}"
    expected = worst_case_expected(tree, alphas, kids, internal, cash2, out2)
    gap = max(_worst(out2[:, internal] - expected), _worst(out2[:, leaves] - cash2[:, leaves]))
    if gap > WORST_TOL:
        return f"worst-case values break min(stop, min over alphas) by {gap:.3e}"
    return None


def check_crra(out, cash, R: float, x0: float, probs: np.ndarray, kids: np.ndarray,
               internal: np.ndarray, leaves: np.ndarray) -> str | None:
    """The price b at each internal node must bracket a root of
    sum_y p_y u(x0 + k_y - b) - u(x0), which falls in b, between b - 1e-9
    and b + 1e-9, with u(w) = w^(1-R)/(1-R) and the outcomes (own cash,
    child values)."""
    out2 = np.atleast_2d(np.asarray(out, dtype=float))
    cash2 = np.atleast_2d(cash)
    if out2.shape != cash2.shape:
        return f"CRRA output shape {out2.shape} != input shape {cash2.shape}"
    if _worst(out2[:, leaves] - cash2[:, leaves]) > 0.0:
        return "CRRA output differs from the cash at a leaf"
    outcomes = np.concatenate([cash2[:, internal, None], out2[:, kids]], axis=-1)   # (rows, m, c+1)
    b = out2[:, internal, None]

    def excess(price):
        wealth = x0 + outcomes - price
        if np.any(wealth <= 0):
            return None
        utility = wealth ** (1.0 - R) / (1.0 - R)
        return np.sum(probs * utility, axis=-1) - x0 ** (1.0 - R) / (1.0 - R)

    low, high = excess(b - CRRA_STEP), excess(b + CRRA_STEP)
    if low is None or high is None:
        return "CRRA price leaves the positive-wealth domain"
    bad = ~((low >= 0.0) & (high <= 0.0))
    if np.any(bad):
        r, m = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return (f"no sign change of the indifference equation around b={b[r, m, 0]!r} "
                f"(row {r}, internal node {m}: {low[r, m]:.3e}, {high[r, m]:.3e})")
    return None


def check_axiom_report(report) -> str | None:
    if not report.all_passed:
        failed = [c.name for c in report.checks if not c.passed]
        return f"axiom checks failed: {failed}"
    worst = max(c.worst_residual for c in report.checks)
    if not worst <= report.tolerance:
        return f"axiom residual {worst:.3e} above the report tolerance {report.tolerance:.1e}"
    return None


def check_close(value: float, expected: float, tol: float, what: str) -> str | None:
    gap = abs(float(value) - float(expected))
    if not gap <= tol:
        return f"{what} off by {gap:.3e} (tolerance {tol:.0e})"
    return None


def entropic_subtree_value(tree, gamma: float, reference: np.ndarray, xi: int,
                           cash: np.ndarray) -> float:
    """Closed-form entropic value at one node for one cash vector."""
    return float(entropic_rows(tree, gamma, reference, cash[None, :])[0, xi])


def gains_of(tree, prices: np.ndarray, xi: int, holdings: dict) -> np.ndarray:
    """Cumulative trading gains along every path out of node xi, summed edge
    by edge from the price table; zero off the subtree."""
    out = np.zeros(tree.n_nodes)
    sub = np.asarray(tree.descendant_indices(xi))
    for u in sub:
        u = int(u)
        if u == xi:
            continue
        p = int(tree.parent_index[u])
        theta = np.asarray(holdings[tree.ids[p]], dtype=float)
        out[u] = out[p] + float(theta @ (prices[:, u] - prices[:, p]))
    return out


def pooled_entropic_value(tree, gammas, references, xi: int, cash: np.ndarray) -> float:
    """Sup-convolution of exponential subsidiaries at node xi in closed
    form: -(1/G) log sum_y prod_i (p_iy / pbar_ix)^(G/g_i) exp(-G K_y),
    G = 1 / sum_i 1/g_i."""
    sub = np.asarray(tree.descendant_indices(xi))
    big = 1.0 / sum(1.0 / g for g in gammas)
    logits = np.zeros(sub.size)
    for g, ref in zip(gammas, references):
        logits += (big / g) * np.log(ref[sub] / ref[sub].sum())
    a = logits - big * cash[sub]
    m = a.max()
    return float(-(m + np.log(np.exp(a - m).sum())) / big)


def stopping_densities(tree, alpha: dict, xi: int):
    """Every stopping-time law of the subtree at xi under one child
    distribution per node: (graph nodes, reach probabilities)."""
    def rec(u):
        options = [([u], [1.0])]
        kids = tree.children_index[u]
        if kids:
            combos = [([], [])]
            for k, c in enumerate(kids):
                w = float(alpha[tree.ids[u]][k])
                nxt = []
                for nodes, mass in combos:
                    for cn, cm in rec(c):
                        nxt.append((nodes + cn, mass + [w * m for m in cm]))
                combos = nxt
            options.extend(combos)
        return options

    return rec(xi)


def worst_stop_value(tree, alpha: dict, xi: int, cash: np.ndarray) -> float:
    """min over stopping times of the alpha-weighted stopped cash."""
    return min(float(np.dot(mass, cash[nodes])) for nodes, mass in stopping_densities(tree, alpha, xi))


def shifted(out, delta):
    """An array output moved by delta (the self-test's corruption)."""
    return np.asarray(out) + delta


def shifted_report(report, delta):
    """An axiom report with every residual moved by delta."""
    checks = [dataclasses.replace(c, worst_residual=c.worst_residual + delta) for c in report.checks]
    return dataclasses.replace(report, checks=checks)
