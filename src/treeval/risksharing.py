"""Optimal risk pooling across subsidiaries: the sup-convolution of their
valuations, its normalization, closed forms for exponential
certainty-equivalent subsidiaries, allocation recovery, the
gradient-proportionality stability certificate, and the axiom suite for the
pooled family.

Duals add under pooling.  For exponential subsidiaries this makes the
one-step sup-convolution itself an exponential one-step, so their pooled
family is one kernel family swept without a solver (``pooled_family``).
Any other subsidiaries are pooled by one-step sup-convolutions solved
numerically, whose splits also rebuild the allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dual import DEFAULT_OPTIONS, DualDensity, DualSolverOptions
from .errors import ValidationError
from .families import EntropicParams, _entropic_data, _entropic_kernel, entropic_family, entropic_params
from .tree import CashBalance, Tree
from .valuation import AxiomReport, ValuationFamily, check_axioms, committed_family, kernel_family, sup_family


def _common_tree(subs: Sequence, balances: Sequence[CashBalance] = ()) -> Tree:
    if len(subs) < 1:
        raise ValidationError("need at least one subsidiary")
    for sub in subs:
        if not isinstance(sub, (EntropicParams, ValuationFamily)):
            raise ValidationError(f"unsupported subsidiary type {type(sub).__name__}")
    first = subs[0].tree
    if any(sub.tree is not first for sub in subs[1:]):
        raise ValidationError("subsidiaries must share one tree instance")
    if any(getattr(b, "tree", None) is not first for b in balances):
        raise ValidationError("cash balance built on a different tree")
    return first


def _as_family(sub) -> ValuationFamily:
    return entropic_family(sub) if isinstance(sub, EntropicParams) else sub


def share_dual(duals: Sequence, lam) -> float:
    """Pooled dual: the pointwise sum of the subsidiaries' duals."""
    if not duals:
        raise ValidationError("need at least one dual function")
    return float(sum(fn(lam) for fn in duals))


@dataclass(frozen=True)
class EntropicSharePlan:
    """Closed-form aggregate of exponential-family subsidiaries at a node:
    pooled risk aversion, pooled reference density on the subtree, its
    normalizer, and the sure gain from pooling."""

    big_gamma: float
    density: dict[str, float]
    scale: float
    value_of_sharing: float


def entropic_share_params(subs: Sequence[EntropicParams], x: str) -> EntropicSharePlan:
    tree = _common_tree(subs)
    if not all(isinstance(s, EntropicParams) for s in subs):
        raise ValidationError("closed-form aggregation needs exponential-family subsidiaries")
    xi = tree.node_index(x)
    sub_idx = tree.descendant_indices(xi)
    big_gamma = 1.0 / sum(1.0 / s.gamma for s in subs)
    logits = np.zeros(len(sub_idx))
    for s in subs:
        tilde = s.reference[sub_idx] / s.subtree_reference[xi]
        logits += (big_gamma / s.gamma) * np.log(tilde)
    m = logits.max()
    log_total = m + np.log(np.exp(logits - m).sum())
    log_scale = -log_total
    density = np.exp(logits + log_scale)
    return EntropicSharePlan(
        big_gamma=big_gamma,
        density={tree.ids[i]: float(w) for i, w in zip(sub_idx, density)},
        scale=float(np.exp(log_scale)),
        value_of_sharing=float(log_scale / big_gamma),
    )


def entropic_sharing_family(subs: Sequence[EntropicParams]) -> ValuationFamily:
    """The normalized pooled family of exponential subsidiaries, which is
    itself an exponential family with the aggregated risk aversion and
    reference."""
    tree = _common_tree(subs)
    plan = entropic_share_params(subs, tree.root)
    reference = np.array([plan.density[node_id] for node_id in tree.ids])
    return entropic_family(entropic_params(tree, plan.big_gamma, reference))


def entropic_allocation(subs: Sequence[EntropicParams], x: str, balance: CashBalance) -> list[CashBalance]:
    """Closed-form optimal split of the cash balance on the subtree at x:
    a share of the cash proportional to the reciprocal risk aversion, a
    belief-disagreement transfer, and a share of the pooling gain.  Sums to
    the pooled balance exactly; zero off the subtree."""
    tree = _common_tree(subs, [balance])
    xi = tree.node_index(x)
    sub_idx = tree.descendant_indices(xi)
    plan = entropic_share_params(subs, x)
    p_pool = np.array([plan.density[tree.ids[i]] for i in sub_idx])
    k_sub = balance.values[sub_idx]
    out = []
    for s in subs:
        tilde = s.reference[sub_idx] / s.subtree_reference[xi]
        ratio = plan.big_gamma / s.gamma
        piece = ratio * k_sub + np.log(tilde / p_pool) / s.gamma + ratio * plan.value_of_sharing
        full = np.zeros(tree.n_nodes)
        full[sub_idx] = piece
        out.append(CashBalance(tree, full))
    return out


@dataclass
class SharingResult:
    value: float                 # pooled valuation of the balance
    normalized: float            # value minus the value of pooling zero
    value_of_sharing: float      # pooled valuation of the zero balance
    allocation: list[CashBalance]
    argmin_density: DualDensity | None
    achieved_value: float        # sum of subsidiary valuations at the allocation
    feasibility_gap: float       # sup-norm of (sum of allocations - balance) on the subtree
    method: str
    converged: bool


def _split(batch: np.ndarray, total: np.ndarray, j: int) -> np.ndarray:
    """Stacked pieces (B, (j-1) m) of the first j-1 subsidiaries -> all j
    pieces (j, B, m); the last takes the remainder of ``total``."""
    head = batch.reshape(batch.shape[0], j - 1, total.size).transpose(1, 0, 2)
    return np.concatenate([head, (total - head.sum(axis=0))[None]])


def _pooled(families: Sequence[ValuationFamily], opts: DualSolverOptions):
    tree, j = families[0].tree, len(families)

    def problem(u: int):
        steps = [f.one_steps[u] for f in families]

        def lift(k_x, k_children):
            total = np.concatenate([[k_x], k_children])

            def objective(batch: np.ndarray) -> np.ndarray:
                pieces = _split(batch, total, j)
                return sum(step.evaluate(p[:, 0], p[:, 1:]) for step, p in zip(steps, pieces))
            return objective, np.tile(total / j, j - 1)

        return lift, all(step.smooth for step in steps)

    descriptor = "pooled(" + ", ".join(f.descriptor or "custom" for f in families) + ")"
    return sup_family(tree, {u: problem(u) for u in tree.internal_indices()}, opts, descriptor=descriptor)


def pooled_family(subs: Sequence, opts: DualSolverOptions | None = None) -> ValuationFamily:
    """The pooled valuations: at every node, the best total of the
    subsidiaries' valuations over splits of the balance.

    Each subsidiary's share of a child subtree can be shifted by a constant
    that translation invariance passes through its valuation, so the
    sup-convolution over whole allocations is the backward induction of
    one-step sup-convolutions of the subsidiaries' one-step operators.

    Exponential one-steps with risk aversions gamma_j and log-weights
    log w_j pool to the exponential one-step with Gamma = 1 / sum 1/gamma_j
    on the log-weights sum (Gamma/gamma_j) log w_j, with no solver.  These
    are unnormalized: their missing mass is the node's value of pooling.
    The conjugate sum q (log q - log w') / Gamma is sum KL(q | w_j) / gamma_j,
    so the duals add.  Any other mix solves each one-step sup numerically."""
    tree = _common_tree(subs)
    if all(isinstance(s, EntropicParams) for s in subs):
        big_gamma = 1.0 / sum(1.0 / s.gamma for s in subs)
        weighted = [(big_gamma / s.gamma, _entropic_data(s)) for s in subs]

        def data(nodes, kids):
            return (sum(r * log_w(nodes, kids)[0] for r, log_w in weighted),)

        descriptor = "pooled(" + ", ".join(f"entropic(gamma={s.gamma})" for s in subs) + ")"
        return kernel_family(tree, _entropic_kernel(big_gamma), data, descriptor=descriptor)
    return _pooled([_as_family(s) for s in subs], opts or DEFAULT_OPTIONS)[0]


def _share_direct_route(subs, tree: Tree, xi: int, values: np.ndarray, opts):
    """Pooled values at the balance and at zero from one sweep, and the
    allocation rebuilt top-down: a subsidiary's piece of a child subtree is
    the child's own split shifted by a constant to the value the parent's
    split promised it there.  The shifts at a node sum to zero."""
    families = [_as_family(s) for s in subs]
    pooled, solve = _pooled(families, opts)
    rows = np.stack([values, np.zeros(tree.n_nodes)])
    swept = pooled.node_values(rows)
    j = len(families)
    allocations = np.zeros((2, j, tree.n_nodes))
    converged = True
    for row, vals, alloc in zip(rows, swept, allocations):
        promised = {}
        for u in tree.descendant_indices(xi):   # parents before children
            kids = list(tree.children_index[u])
            if not kids:
                alloc[:, u] = promised.get(u, np.full(j, row[u] / j))
                continue
            # deterministic: the split the sweep found at this node
            res = solve(u, row[u], vals[kids])
            converged = converged and res.converged
            total = np.concatenate([[row[u]], vals[kids]])
            pieces = _split(res.x[None, :], total, j)[:, 0]
            own = np.array([float(f.one_steps[u].evaluate(p[0], p[1:]))
                            for f, p in zip(families, pieces)])
            shift = promised.get(u, own) - own
            alloc[:, u] = pieces[:, 0] + shift
            for k, c in enumerate(kids):
                promised[c] = pieces[:, 1 + k] + shift
    sub_idx = tree.descendant_indices(xi)
    return float(swept[0, xi]), float(swept[1, xi]), list(allocations[0][:, sub_idx]), converged


def share_value(subs: Sequence, x: str, balance: CashBalance,
                opts: DualSolverOptions | None = None, *, method: str = "auto") -> SharingResult:
    """Best pooled valuation of the balance at a node over all splits among
    the subsidiaries, with the achieving allocation.

    ``method='dual'`` (exponential subsidiaries only) sweeps their pooled
    kernel family once at the balance and at zero, with no solver: the
    reverse-sweep gradient is the minimizing density of the summed duals,
    and the allocation is the closed form ``entropic_allocation``.
    ``method='direct'`` solves every one-step sup-convolution numerically,
    with the tolerances of ``opts``, and rebuilds the allocation from its
    one-step splits.  ``'auto'`` picks the dual route when every subsidiary
    is exponential.  The allocation always sums to the balance exactly on
    the subtree; the value achieved by it is reported for verification.
    """
    if method not in ("auto", "dual", "direct"):
        raise ValidationError(f"unknown method {method!r}; use 'auto', 'dual' or 'direct'")
    opts = opts or DEFAULT_OPTIONS
    tree = _common_tree(subs, [balance])
    xi = tree.node_index(x)
    sub_idx = tree.descendant_indices(xi)
    k_sub = balance.values[sub_idx]
    all_entropic = all(isinstance(s, EntropicParams) for s in subs)
    if method == "auto":
        method = "dual" if all_entropic else "direct"
    if method == "dual" and not all_entropic:
        raise ValidationError("the dual route needs exponential-family subsidiaries; use method='direct'")

    if method == "dual":
        rows = np.stack([balance.values, np.zeros(tree.n_nodes)])
        swept, grad = pooled_family(subs).values_and_gradient(rows, xi)
        value, value0 = swept[:, xi]
        lam, converged = grad[0, sub_idx], True
        pieces = [piece.values[sub_idx] for piece in entropic_allocation(subs, x, balance)]
    else:
        value, value0, pieces, converged = _share_direct_route(subs, tree, xi, balance.values, opts)
        lam = None

    allocation = []
    achieved = 0.0
    for sub, piece in zip(subs, pieces):
        full = np.zeros(tree.n_nodes)
        full[sub_idx] = piece
        allocation.append(CashBalance(tree, full))
        achieved += float(_as_family(sub).node_values(full)[xi])
    feasibility = float(np.max(np.abs(sum(p for p in pieces) - k_sub)))

    density = None
    if lam is not None:
        density = DualDensity(support=x, values={
            tree.ids[i]: float(w) for i, w in zip(sub_idx, lam)})
    return SharingResult(
        value=float(value),
        normalized=float(value - value0),
        value_of_sharing=float(value0),
        allocation=allocation,
        argmin_density=density,
        achieved_value=achieved,
        feasibility_gap=feasibility,
        method=method,
        converged=converged,
    )


def _sub_gradient(sub, tree: Tree, xi: int, full_values: np.ndarray) -> np.ndarray:
    """Gradient of the subsidiary's node-xi valuation in the subtree
    coordinates; closed form for exponential subsidiaries (about ten times
    cheaper than a sweep), the family's reverse sweep otherwise."""
    sub_idx = tree.descendant_indices(xi)
    if isinstance(sub, EntropicParams):
        expo = np.log(sub.reference[sub_idx]) - sub.gamma * full_values[sub_idx]
        expo -= expo.max()
        w = np.exp(expo)
        return w / w.sum()
    return sub.values_and_gradient(full_values, xi)[1][sub_idx]


def stability_check(subs: Sequence, allocation: Sequence[CashBalance], x: str, *,
                    shadow: np.ndarray | None = None) -> float:
    """Sup-norm defect of gradient proportionality at a node: every
    subsidiary's marginal valuation of its allocated balance must be a
    scalar multiple of the root shadow density, or some pair could still
    trade profitably there.  Small residuals certify that the time-0
    allocation stays optimal at the node."""
    tree = _common_tree(subs, allocation)
    if len(allocation) != len(subs):
        raise ValidationError("one allocated balance per subsidiary")
    xi = tree.node_index(x)
    sub_idx = tree.descendant_indices(xi)
    if shadow is None:
        root_grad = _sub_gradient(subs[0], tree, tree.root_index, allocation[0].values)
        full = np.zeros(tree.n_nodes)
        full[tree.descendant_indices(tree.root_index)] = root_grad
        shadow = full[sub_idx]
    else:
        shadow = np.asarray(shadow, dtype=float)
        if shadow.shape == (tree.n_nodes,):
            shadow = shadow[sub_idx]
        if shadow.shape != sub_idx.shape or not np.isfinite(shadow).all():
            raise ValidationError(f"shadow density must be {tree.n_nodes} finite numbers, or "
                                  f"{sub_idx.size} on the subtree of {x!r}")
    denom = float(shadow @ shadow)
    if denom <= 0:
        raise ValidationError("shadow density vanishes on the subtree")
    worst = 0.0
    for sub, piece in zip(subs, allocation):
        g = _sub_gradient(sub, tree, xi, piece.values)
        b = float(g @ shadow) / denom
        worst = max(worst, float(np.max(np.abs(g - b * shadow))))
    return worst


def check_sharing_axioms(subs: Sequence, trials: int, seed: int, *,
                         tolerance: float | None = None,
                         opts: DualSolverOptions | None = None,
                         cash_range: tuple[float, float] = (-5.0, 5.0)) -> AxiomReport:
    """Axiom suite for the normalized pooled family: the pooled family
    committed to the zero balance.  Its default tolerance is 1e-8 for
    exponential subsidiaries, whose pooled kernel is exact, and 1e-5
    otherwise, reflecting the one-step solves."""
    pooled = pooled_family(subs, opts or DualSolverOptions(gradient_tolerance=1e-7))
    family = committed_family(pooled, CashBalance.constant(pooled.tree, 0.0))
    exact = all(isinstance(s, EntropicParams) for s in subs)
    tol = tolerance if tolerance is not None else (1e-8 if exact else 1e-5)
    return check_axioms(family, trials, seed, tolerance=tol, cash_range=cash_range)
