"""Optimal risk pooling across subsidiaries: the sup-convolution of their
valuations, its normalization, closed forms for exponential
certainty-equivalent subsidiaries, allocation recovery, the
gradient-proportionality stability certificate, and the axiom suite for the
pooled family.

Duals add under pooling, and ``pooled_family`` reads the rule of each level
block off the subsidiaries' one-step kernels there.  Exponential one-steps
(``Kernel.gamma``: entropic families, exponential utility, earlier pools of
them) pool to one exponential one-step, swept without a solver.  One
polyhedral one-step beside them (``Kernel.vertices``: a worst-case family
with stopping) adds the indicator of its polytope, so the block is the same
kernel with its density confined to that polytope, solved exactly in the
vertex weights; the minimizing density rebuilds the allocation.  Any other
block (two polyhedral one-steps, CRRA or custom ones, a polytope that
leaves a coordinate without mass) is pooled by one-step sup-convolutions
solved numerically, whose splits rebuild the allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dual import DEFAULT_OPTIONS, DualDensity, DualSolverOptions
from .errors import ValidationError
from .families import EntropicParams, _entropic_kernel, _entropic_log_argmin, entropic_family, entropic_params
from .tree import CashBalance, Tree
from .valuation import (AxiomReport, Block, ValuationFamily, _one_step_sups, _sup_kernel, _take, check_axioms,
                        committed_family)


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


def _pieces(z, k_x, k_children, j: int) -> np.ndarray:
    """The j pieces (j, ..., m + 1) of the totals that z (..., (j - 1) m)
    describes: the first j - 1 with no own cash, the last the remainder."""
    head = np.moveaxis(z.reshape(z.shape[:-1] + (j - 1, k_children.shape[-1])), -2, 0)
    own = np.zeros((j,) + head.shape[1:-1] + (1,))
    own[-1] = k_x[..., None]
    return np.concatenate([own, np.concatenate([head, (k_children - head.sum(axis=0))[None]])], axis=-1)


def _pool(blocks):
    """The lift, descriptor and smoothness of the one-step pools of the
    subsidiaries' blocks of the same nodes (``valuation._one_step_sups``),
    on their data.  The search variable is the children of the first j - 1
    pieces (``_pieces``), whose own cash is pinned at 0: translation
    invariance makes the objective flat along each piece's constant shift,
    which would leave the Hessian singular."""
    kernels = [b.kernel for b in blocks]
    j = len(kernels)

    def lift(data, k_x, k_children):
        def each(z):
            return zip(kernels, data, _pieces(z, k_x, k_children, j))

        def value(z):
            return sum(kernel.evaluate(d, p[..., 0], p[..., 1:]) for kernel, d, p in each(z))

        def value_and_gradient(z):
            values, partials = zip(*(kernel.evaluate_with_partials(d, p[..., 0], p[..., 1:])
                                     for kernel, d, p in each(z)))
            return sum(values), np.concatenate([p[..., 1:] - partials[-1][..., 1:] for p in partials[:-1]],
                                               axis=-1)

        def partials(z):
            last = _pieces(z, k_x, k_children, j)[-1]
            return kernels[-1].partials(data[-1], last[..., 0], last[..., 1:])

        # the even split, each piece shifted to no own cash
        return value, value_and_gradient, partials, np.tile((k_children - k_x[..., None]) / j, j - 1)

    descriptor = "pooled(" + ", ".join(kernel.descriptor or "custom" for kernel in kernels) + ")"
    return lift, descriptor, all(kernel.smooth for kernel in kernels)


def _layout(families: Sequence[ValuationFamily]) -> list[tuple[Block, ...]]:
    """The subsidiaries' blocks level by level: as they stand where they
    hold the same nodes, else cut to one node each, deepest first."""
    layouts = [f.blocks for f in families]
    if len({tuple(tuple(b.nodes.tolist()) for b in blocks) for blocks in layouts}) > 1:
        time = families[0].tree.time
        layouts = [sorted((Block(b.kernel, *part) for b in blocks for part in b.parts(1)),
                          key=lambda c: (-time[c.nodes[0]], c.nodes[0])) for blocks in layouts]
    return list(zip(*layouts))


def _rule(blocks: tuple[Block, ...]):
    """(Gamma, r, vertices) where a kernel rule pools the blocks of one
    level, else None: the exponential one-steps pool with
    Gamma = 1 / sum 1/gamma_j, and at most one other block may join them, a
    polyhedral one whose polytope (its vertices) gives every coordinate
    mass.  The split's remainder goes to block r: that one, else the last
    (and vertices is None)."""
    rest = [i for i, b in enumerate(blocks) if b.kernel.gamma is None]
    if len(rest) == len(blocks) or len(rest) > 1:
        return None
    big_gamma = 1.0 / sum(1.0 / b.kernel.gamma for b in blocks if b.kernel.gamma is not None)
    if not rest:
        return big_gamma, -1, None
    other = blocks[rest[0]]
    v = None if other.kernel.vertices is None else other.kernel.vertices(other.data)
    # a coordinate no vertex reaches (no stopping): the sup is not attained
    return (big_gamma, rest[0], v) if v is not None and (v.max(axis=-2) > 0).all() else None


def _pooled_block(blocks: tuple[Block, ...], rule, tree: Tree, opts: DualSolverOptions) -> Block:
    """The pool of the blocks of one level under their ``_rule``: the
    exponential kernel on log w' = sum (Gamma/gamma_j) log w_j, its density
    confined to the polytope of the polyhedral block if there is one;
    without a rule, a block of one-step sups."""
    nodes, kids = blocks[0].nodes, blocks[0].kids
    if rule is None:
        return Block(_sup_kernel(*_pool(blocks), tree, opts), (tuple(b.data for b in blocks), nodes), nodes, kids)
    big_gamma, _, v = rule
    kernel = _entropic_kernel(big_gamma)
    log_w = sum(big_gamma / b.kernel.gamma * b.data[0] for b in blocks if b.kernel.gamma is not None)
    if v is None:
        return Block(kernel, (log_w,), nodes, kids)
    return Block(replace(kernel, dual=None, gamma=None), (log_w, v), nodes, kids)


def _pool_levels(families: Sequence[ValuationFamily], opts: DualSolverOptions):
    """The pooled family of ``pooled_family`` and the (blocks, ``_rule``) of
    each of its levels, one per level of the subsidiaries' ``_layout``."""
    tree, levels = families[0].tree, [(blocks, _rule(blocks)) for blocks in _layout(families)]
    pooled = ValuationFamily(tree, lambda: [_pooled_block(*level, tree, opts) for level in levels],
                             descriptor="pooled(" + ", ".join(f.descriptor or "custom" for f in families) + ")")
    return pooled, levels


def pooled_family(subs: Sequence, opts: DualSolverOptions | None = None) -> ValuationFamily:
    """The pooled valuations: at every node, the best total of the
    subsidiaries' valuations over splits of the balance.

    Each subsidiary's share of a child subtree can be shifted by a constant
    that translation invariance passes through its valuation, so the
    sup-convolution over whole allocations is the backward induction of
    one-step sup-convolutions of the subsidiaries' one-step operators, one
    block per level block of their ``_layout``.

    Duals add under pooling, so each block takes its rule from the kernels
    there (``_rule``).  Exponential one-steps with risk aversions
    gamma_j and log-weights log w_j pool to the exponential one-step with
    Gamma = 1 / sum 1/gamma_j on the log-weights sum (Gamma/gamma_j) log w_j,
    with no solver: its conjugate sum q (log q - log w') / Gamma is
    sum KL(q | w_j) / gamma_j.  These log-weights are unnormalized; their
    missing mass is the node's value of pooling.  A polyhedral one-step
    (``Kernel.vertices``, the worst-case families) adds the indicator of its
    polytope P, so pooling one with the exponential ones is
    min over q in P of [q . k + sum q (log q - log w') / Gamma], a smooth
    convex problem solved exactly in the vertex weights, batched over the
    nodes of the block.  Any other block (two polyhedral one-steps, CRRA or
    custom ones, a polytope that leaves a coordinate without mass) is a
    block of one-step sups, solved with the tolerances of ``opts``; where
    all are smooth its partials are the last subsidiary's at its share (the
    envelope theorem)."""
    _common_tree(subs)
    return _pool_levels([_as_family(s) for s in subs], opts or DEFAULT_OPTIONS)[0]


def _allocate(pooled: ValuationFamily, xi: int, values: np.ndarray, j: int, split):
    """Pooled values at the balance and at zero from one sweep, and the
    allocation among j subsidiaries rebuilt top-down from the one-step
    splits: ``split(level, sel, total)`` gives the pieces (j, b, m + 1) of
    the totals (b, m + 1) of the nodes ``pooled.blocks[level].nodes[sel]``
    and each subsidiary's (kernel, data) there.  A subsidiary's piece of a
    child subtree is the child's own split shifted by a constant to the
    value the parent's split promised it there; the shifts at a node sum
    to zero."""
    tree = pooled.tree
    swept = pooled.node_values(np.stack([values, np.zeros(tree.n_nodes)]))
    vals = swept[0]
    inside = np.zeros(tree.n_nodes, dtype=bool)
    inside[tree.descendant_indices(xi)] = True
    alloc = np.zeros((j, tree.n_nodes))
    promised = np.zeros((j, tree.n_nodes))
    for level in reversed(range(len(pooled.blocks))):   # parents before children
        block = pooled.blocks[level]
        sel = inside[block.nodes]
        if not sel.any():
            continue
        nodes, kids = block.nodes[sel], block.kids[sel]
        pieces, steps = split(level, sel, np.concatenate([values[nodes, None], vals[kids]], axis=1))
        own = np.array([kernel.evaluate(data, p[:, 0], p[:, 1:]) for (kernel, data), p in zip(steps, pieces)])
        shift = np.where(nodes == xi, own, promised[:, nodes]) - own
        alloc[:, nodes] = pieces[..., 0] + shift
        promised[:, kids] = pieces[..., 1:] + shift[..., None]
    leaves = inside & tree.is_leaf
    alloc[:, leaves] = promised[:, leaves] if not tree.is_leaf[xi] else values[xi] / j
    return float(swept[0, xi]), float(swept[1, xi]), list(alloc[:, tree.descendant_indices(xi)])


def _share_direct_route(subs, xi: int, values: np.ndarray, opts):
    """``_allocate`` over the splits of ``pooled_family``, and whether every
    solve converged.  A rule block splits by each node's minimizing density
    q*, with no solve beyond the kernel's own: exponential subsidiary j
    takes (log w_j - log q*) / gamma_j, whose one-step value is zero, and
    block r of ``_rule`` the remainder.  A block of one-step sups splits as
    its block solve finds."""
    (pooled, levels), converged = _pool_levels([_as_family(s) for s in subs], opts), []

    def split(level, sel, total):
        (blocks, rule), data = levels[level], _take(pooled.blocks[level].data, sel)
        steps = [(b.kernel, _take(b.data, sel)) for b in blocks]
        if rule is None:
            _, z, ok = _one_step_sups(*_pool(blocks), pooled.tree, opts, data, total[:, 0], total[:, 1:])
            converged.append(ok.all())
            return _pieces(z, total[:, 0], total[:, 1:], len(blocks)), steps
        log_q = _entropic_log_argmin(rule[0], data, total[:, 0], total[:, 1:])
        pieces = np.array([(d[0] - log_q) / kernel.gamma if kernel.gamma is not None else np.zeros(total.shape)
                           for kernel, d in steps])
        pieces[rule[1]] += total - pieces.sum(axis=0)
        return pieces, steps

    return *_allocate(pooled, xi, values, len(subs), split), all(converged)


def share_value(subs: Sequence, x: str, balance: CashBalance,
                opts: DualSolverOptions | None = None, *, method: str = "auto") -> SharingResult:
    """Best pooled valuation of the balance at a node over all splits among
    the subsidiaries, with the achieving allocation.

    ``method='dual'`` (exponential subsidiaries only) sweeps their pooled
    kernel family once at the balance and at zero, with no solver: the
    reverse-sweep gradient is the minimizing density of the summed duals,
    and the allocation is the closed form ``entropic_allocation``.
    ``method='direct'`` rebuilds the allocation from the one-step splits:
    in a level block that ``pooled_family`` pools by a kernel rule, from
    each node's minimizing density, with no solver; in a block of one-step
    sups, from their maximizing splits, one block solve.  ``opts`` tunes
    only those blocks; neither kernel rule reads it.  ``'auto'`` picks the
    dual route when every subsidiary is ``EntropicParams``.  The allocation
    always sums to the balance on the subtree; the value achieved by it is
    reported for verification.
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
        density = DualDensity(support=x, values={tree.ids[i]: float(w) for i, w in zip(sub_idx, grad[0, sub_idx])})
        pieces, converged = [piece.values[sub_idx] for piece in entropic_allocation(subs, x, balance)], True
    else:
        density = None
        value, value0, pieces, converged = _share_direct_route(subs, xi, balance.values, opts)

    allocation = []
    achieved = 0.0
    for sub, piece in zip(subs, pieces):
        full = np.zeros(tree.n_nodes)
        full[sub_idx] = piece
        allocation.append(CashBalance(tree, full))
        achieved += float(_as_family(sub).node_values(full)[xi])
    feasibility = float(np.max(np.abs(sum(p for p in pieces) - k_sub)))

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
    committed to the zero balance.  Its default tolerance is 1e-8 where a
    kernel rule pools every level block, which is exact, and 1e-5 where
    some block is one of one-step sups, reflecting their solves."""
    _common_tree(subs)
    pooled, levels = _pool_levels([_as_family(s) for s in subs], opts or DualSolverOptions(gradient_tolerance=1e-7))
    exact = all(rule is not None for _, rule in levels)
    family = committed_family(pooled, CashBalance.constant(pooled.tree, 0.0))
    tol = tolerance if tolerance is not None else (1e-8 if exact else 1e-5)
    return check_axioms(family, trials, seed, tolerance=tol, cash_range=cash_range)
