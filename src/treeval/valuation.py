"""One-step valuation operators, their backward-induction assembly into
per-node operators (also from one-step sups and by re-basing at a
commitment), stopping-time valuations, and the executable axiom suite.

The assembled operator at a node reads the cash balance only on that node's
subtree; at a leaf it is the identity on the leaf's cash.  One-step operators
receive child values in the tree's deterministic child order, and their
``evaluate`` must broadcast over a leading batch axis (scalars in, scalar
out; ``(B,)`` and ``(B, m)`` in, ``(B,)`` out) -- every closed form shipped
here does, and the batched sweep is what makes the fuzzing suites cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import DivergenceError, ValidationError
from .optim import AscentResult, maximize, maximize_nelder_mead
from .tree import CashBalance, StoppingTime, Tree, stop_index, stopping_time

DEFAULT_AXIOM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class OneStepValuation:
    """Concave operator on a node's own cash and its children's values.

    ``evaluate(k_x, k_children)`` maps the current cash and the vector of
    child values to one number.  ``dual`` is the optional closed-form convex
    conjugate on probability vectors over (node, children), used to verify
    the dual recursion without an inner optimization.
    """

    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    descriptor: str = ""
    dual: Callable[[float, np.ndarray], float] | None = None
    smooth: bool = True


def is_probability(q, *, positive: bool = False) -> bool:
    """Whether q is a vector of nonnegative (with ``positive``, strictly
    positive) entries summing to 1 within 1e-9.  Both tests are written so
    that NaN fails them and an infinite entry fails the sum."""
    q = np.asarray(q, dtype=float)
    return bool((q > 0 if positive else q >= 0).all() and abs(q.sum() - 1.0) <= 1e-9)


def linear_one_step(child_weights) -> OneStepValuation:
    """Expectation over the children with the given probability weights."""
    w = np.asarray(child_weights, dtype=float)
    if not is_probability(w):
        raise ValidationError("child weights must be a probability vector")

    def evaluate(k_x, k_children):
        return np.asarray(k_children, dtype=float) @ w

    return OneStepValuation(evaluate, descriptor=f"linear({w.tolist()})")


class ValuationFamily:
    """Per-node valuation operators assembled by backward induction."""

    def __init__(self, tree: Tree, one_steps: Mapping[str, OneStepValuation], *,
                 descriptor: str = "", dual_closed=None):
        steps: list[OneStepValuation | None] = [None] * tree.n_nodes
        for node_id, op in one_steps.items():
            i = tree.node_index(node_id)
            if tree.is_leaf[i]:
                raise ValidationError(f"one-step operator given for leaf {node_id!r}")
            steps[i] = op
        for i in tree.internal_indices():
            if steps[i] is None:
                raise ValidationError(f"missing one-step operator for node {tree.ids[i]!r}")
        self.tree = tree
        self.one_steps = tuple(steps)
        self.descriptor = descriptor
        # Optional closed-form dual: callable (node_id, density mapping) -> float.
        self.dual_closed = dual_closed

    def node_values(self, values: np.ndarray) -> np.ndarray:
        """Valuation of every node for cash values of shape (..., n_nodes)."""
        values = np.asarray(values, dtype=float)
        tree = self.tree
        out = np.empty_like(values)
        for u in tree.preorder[::-1]:
            kids = tree.children_index[u]
            if not kids:
                out[..., u] = values[..., u]
            else:
                out[..., u] = self.one_steps[u].evaluate(values[..., u], out[..., kids])
        return out

    def value(self, x: str, balance: CashBalance) -> float:
        if balance.tree is not self.tree:
            raise ValidationError("cash balance built on a different tree")
        return float(self.node_values(balance.values)[self.tree.node_index(x)])

    def __repr__(self) -> str:
        return f"ValuationFamily({self.descriptor or 'custom'}, n_nodes={self.tree.n_nodes})"


def assemble(tree: Tree, one_steps: Mapping[str, OneStepValuation], **kwargs) -> ValuationFamily:
    """Build the family of per-node operators from one-step operators
    (total on internal nodes)."""
    return ValuationFamily(tree, one_steps, **kwargs)


def sup_family(tree: Tree, problems: Mapping[int, tuple], opts, *, descriptor: str):
    """Family whose one-step operator at each internal node u is a sup found
    row by row, with the deterministic ``solve(u, k_x, k_children)`` behind
    it.  ``problems[u] = (lift, smooth)``; ``lift(k_x, k_children)`` gives the
    batch objective over the search variable and its start.  Smooth sups use
    steepest ascent with the tolerances of ``opts`` (``DualSolverOptions``),
    kinked ones restarted Nelder-Mead; a sup that runs away raises a
    divergence error naming the node, with the direction as certificate."""

    def solve(u: int, k_x, k_children):
        lift, smooth = problems[u]
        objective, x0 = lift(k_x, k_children)
        if x0.size == 0:
            return AscentResult(x0, float(objective(x0[None, :])[0]), 0.0, 0, converged=True)
        if smooth:
            res = maximize(objective, x0, gradient_tolerance=opts.gradient_tolerance,
                           max_iterations=min(opts.max_iterations, 50_000),
                           divergence_bound=opts.divergence_bound, fd_step=opts.fd_step,
                           value_tolerance=1e-12)
        else:
            res = maximize_nelder_mead(objective, x0, divergence_bound=opts.divergence_bound)
        if res.diverged:
            raise DivergenceError(f"the one-step sup of {descriptor} at {tree.ids[u]!r} is unbounded",
                                  direction=res.direction)
        return res

    def one_step(u: int) -> OneStepValuation:
        def evaluate(k_x, k_children):
            k_children = np.asarray(k_children, dtype=float)
            k_x = np.broadcast_to(np.asarray(k_x, dtype=float), k_children.shape[:-1])
            rows = zip(k_x.reshape(-1), k_children.reshape(-1, k_children.shape[-1]))
            return np.array([solve(u, a, v).value for a, v in rows]).reshape(k_x.shape)

        return OneStepValuation(evaluate, descriptor=descriptor, smooth=problems[u][1])

    return assemble(tree, {tree.ids[u]: one_step(u) for u in problems}, descriptor=descriptor), solve


def committed_family(family: ValuationFamily, commitment: CashBalance) -> ValuationFamily:
    """Valuations re-based at a prior commitment C: the value of (balance +
    C) minus the value of C, from the one-step operators
    ``step_u(a + C_u, v + pi_children(C)) - pi_u(C)``.  Satisfies the same
    axioms as the underlying family; committing to the zero balance
    normalizes a family to vanish at zero."""
    if commitment.tree is not family.tree:
        raise ValidationError("commitment built on a different tree")
    tree = family.tree
    cash, base = commitment.values, family.node_values(commitment.values)

    def rebased(u: int) -> OneStepValuation:
        step, kids = family.one_steps[u], list(tree.children_index[u])

        def evaluate(k_x, k_children):
            return step.evaluate(np.asarray(k_x) + cash[u], np.asarray(k_children) + base[kids]) - base[u]

        return OneStepValuation(evaluate, descriptor=f"committed({step.descriptor})", smooth=step.smooth)

    return assemble(tree, {tree.ids[u]: rebased(u) for u in tree.internal_indices()},
                    descriptor=f"committed({family.descriptor or 'custom'})")


def value_at(family, stop: StoppingTime, balance: CashBalance) -> dict[str, float]:
    """Valuation along a stopping time: the node operator of each graph node."""
    tree = family.tree
    for node_id in stop.graph:
        tree.node_index(node_id)
    vals = family.node_values(balance.values)
    return {node_id: float(vals[tree.node_index(node_id)]) for node_id in sorted(stop.graph)}


def sample_stopping_time(tree: Tree, rng: np.random.Generator, *, start: str | None = None,
                         stop_probability: float = 0.35) -> StoppingTime:
    """Random stopping time of the subtree at start: each internal node stops
    with the given probability, leaves always stop.  Paths that miss start
    stop at their leaf."""
    start_idx = tree.node_index(start) if start is not None else tree.root_index
    under = set(tree.descendant_indices(start_idx).tolist())
    graph = [tree.ids[i] for i in tree.leaf_indices if i not in under]
    stack = [start_idx]
    while stack:
        u = stack.pop()
        if tree.is_leaf[u] or rng.uniform() < stop_probability:
            graph.append(tree.ids[u])
        else:
            stack.extend(reversed(tree.children_index[u]))
    return stopping_time(tree, graph)


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    worst_residual: float
    witness: dict | None = None

    def as_dict(self) -> dict:
        out = {"passed": self.passed, "worst_residual": self.worst_residual}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class AxiomReport:
    checks: list[AxiomCheck]
    trials: int
    seed: int
    tolerance: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst_residual(self) -> float:
        return max(c.worst_residual for c in self.checks)

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "trials": self.trials,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "axioms": {c.name: c.as_dict() for c in self.checks},
        }


def _cash_witness(tree: Tree, row: np.ndarray) -> dict[str, float]:
    return {node_id: float(v) for node_id, v in zip(tree.ids, row)}


def _max_with_witness(residual: np.ndarray) -> tuple[float, tuple[int, ...]]:
    worst = float(residual.max())
    where = np.unravel_index(int(np.argmax(residual)), residual.shape)
    return worst, where


def check_axioms(family, trials: int, seed: int, *,
                 tolerance: float = DEFAULT_AXIOM_TOLERANCE,
                 cash_range: tuple[float, float] = (-5.0, 5.0)) -> AxiomReport:
    """Fuzz the valuation axioms on seeded random cash balances and stopping
    times.  Failures are reported with witnesses, never raised.

    Checked per node: concavity at midpoints, monotonicity, translation
    invariance, zero at zero, locality (off-subtree edits are invisible), and
    the pasting identity for sampled stopping times.  The stopping-time
    dispatch identity is structural (valuations along a stopping time call
    the node operators) and is asserted as such.  The balances of all trials
    go through one batched sweep per axiom, so the sweep count does not grow
    with ``trials``.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    tree = family.tree
    n = tree.n_nodes
    rng = np.random.default_rng(seed)
    low, high = cash_range

    cash_a = rng.uniform(low, high, (trials, n))
    cash_b = rng.uniform(low, high, (trials, n))
    drop = rng.uniform(0.0, 2.0, (trials, n))
    shift = rng.uniform(-3.0, 3.0, (trials, 1))
    sigmas = [sample_stopping_time(tree, rng) for _ in range(trials)]
    local_nodes = rng.integers(0, n, trials)
    local_noise = rng.uniform(-1.0, 1.0, (trials, n))

    pi_a = family.node_values(cash_a)
    pi_b = family.node_values(cash_b)
    pi_mid = family.node_values(0.5 * (cash_a + cash_b))
    pi_drop = family.node_values(cash_a - drop)
    pi_shift = family.node_values(cash_a + shift)
    pi_zero = family.node_values(np.zeros(n))

    checks: list[AxiomCheck] = []

    def add(name, residual_matrix, witness_fn):
        worst, where = _max_with_witness(residual_matrix)
        passed = worst <= tolerance
        witness = witness_fn(where) if not passed else None
        checks.append(AxiomCheck(name, passed, worst, witness))

    # concavity at midpoints
    conc = np.maximum(0.5 * (pi_a + pi_b) - pi_mid, 0.0)
    add("C", conc, lambda w: {
        "node": tree.ids[w[1]],
        "cash": _cash_witness(tree, cash_a[w[0]]),
        "cash_other": _cash_witness(tree, cash_b[w[0]]),
    })

    # monotonicity: cash_a dominates cash_a - drop nodewise
    mono = np.maximum(pi_drop - pi_a, 0.0)
    add("M", mono, lambda w: {
        "node": tree.ids[w[1]],
        "cash": _cash_witness(tree, cash_a[w[0]]),
        "cash_lower": _cash_witness(tree, (cash_a - drop)[w[0]]),
    })

    # translation invariance for a constant added on the whole subtree
    trans = np.abs(pi_shift - pi_a - shift)
    add("TI", trans, lambda w: {
        "node": tree.ids[w[1]],
        "shift": float(shift[w[0], 0]),
        "cash": _cash_witness(tree, cash_a[w[0]]),
    })

    add("Z", np.abs(pi_zero)[None, :], lambda w: {"node": tree.ids[w[1]]})

    # pasting: exchanging the continuation after sigma for its valuation is
    # invisible at every node with no strict ancestor in sigma
    members = np.zeros((trials, n), dtype=bool)
    for t, sigma in enumerate(sigmas):
        members[t, [tree.node_index(z) for z in sigma.graph]] = True
    at = stop_index(tree, members)
    pasted = np.where(at >= 0, np.take_along_axis(pi_a, np.maximum(at, 0), axis=1), cash_a)
    parent = tree.parent_index
    before = (parent < 0) | (at[:, parent] < 0)
    dc_res = np.where(before, np.abs(family.node_values(pasted) - pi_a), 0.0)
    add("DC", dc_res, lambda w: {
        "node": tree.ids[w[1]],
        "sigma": sorted(sigmas[w[0]].graph),
        "cash": _cash_witness(tree, cash_a[w[0]]),
    })

    # locality: perturbing the balance off a node's subtree leaves the
    # whole subtree's valuations untouched
    inside = stop_index(tree, local_nodes[:, None] == np.arange(n)) >= 0
    perturbed = np.where(inside, cash_a, cash_a + local_noise)
    loc_res = np.where(inside, np.abs(family.node_values(perturbed) - pi_a), 0.0)
    add("L", loc_res, lambda w: {
        "node": tree.ids[w[1]],
        "cash": _cash_witness(tree, cash_a[w[0]]),
    })

    # consistent localisation is the construction identity: valuations along
    # a stopping time dispatch to the node operators
    dispatch = value_at(family, sigmas[0], CashBalance(tree, cash_a[0]))
    cl_worst = max(abs(dispatch[z] - pi_a[0, tree.node_index(z)]) for z in dispatch)
    checks.append(AxiomCheck("CL", cl_worst <= tolerance, cl_worst, None))

    return AxiomReport(checks=checks, trials=trials, seed=seed, tolerance=tolerance)
