"""Optimal risk pooling across subsidiaries: the sup-convolution of their
valuations, its normalization, closed forms for exponential
certainty-equivalent subsidiaries, allocation recovery, the
gradient-proportionality stability certificate, and the axiom suite for the
pooled family.

Duals add under pooling, and ``pooled_family`` reads the rule of each level
block off the subsidiaries' one-step kernels there.  A rule kernel states
its rule (``Kernel.rule``): (gamma, log w, vertices), the conjugate
sum q (log q - log w) / gamma confined to the hull of the vertices (the
whole simplex where they are None, a polyhedral one-step where gamma is
infinite).  Entropic families, exponential utility, worst-case families,
martingale hedges of exponential one-steps and earlier rule pools state
one.  Rules with at least one finite gamma and at most one polytope, which
must give every coordinate mass, pool to one rule: an exponential one-step
swept without a solver, or one with its density confined to the polytope,
in closed form at a node whose vertices have disjoint supports (one
distribution with stopping, a one-step martingale measure), else solved
exactly in the vertex weights.  Any other block (two polytopes, CRRA or
custom one-steps, a polytope that leaves a coordinate without mass) is
pooled by one-step sup-convolutions solved numerically.  Every pooled
block's ``solve`` gives, with its values, the minimizing density or the
split search point that rebuilds the allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dual import DEFAULT_OPTIONS, DualDensity, DualSolverOptions
from .errors import ValidationError, check_numbers
from .families import (EntropicParams, _confined_kernel, _entropic_kernel, _vertex_plan, entropic_family,
                       entropic_params)
from .tree import CashBalance, Tree
from .valuation import (AxiomReport, Block, ValuationFamily, _sup_kernel, _take, check_axioms, committed_family,
                        derived)


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
    """A subsidiary's family: an ``EntropicParams``' is built once and kept
    on it."""
    return derived(sub, "family", (), lambda: entropic_family(sub)) if isinstance(sub, EntropicParams) else sub


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


def _pieces(z, k, j: int) -> np.ndarray:
    """The j pieces (j, ..., m + 1) of the stacked totals k (..., m + 1)
    that z (..., (j - 1) m) describes: the first j - 1 with no own cash,
    the last the remainder."""
    head = np.moveaxis(z.reshape(z.shape[:-1] + (j - 1, k.shape[-1] - 1)), -2, 0)
    own = np.zeros((j,) + head.shape[1:-1] + (1,))
    own[-1] = k[..., :1]
    return np.concatenate([own, np.concatenate([head, (k[..., 1:] - head.sum(axis=0))[None]])], axis=-1)


def _pool(blocks):
    """The lift, descriptor and smoothness of the one-step pools of the
    subsidiaries' blocks of the same nodes (``valuation._sup_kernel``), on
    their data.  The search variable is the children of the first j - 1
    pieces (``_pieces``), whose own cash is pinned at 0: translation
    invariance makes the objective flat along each piece's constant shift,
    which would leave the Hessian singular."""
    kernels = [b.kernel for b in blocks]
    j = len(kernels)

    def lift(data, k):
        def each(z):
            return zip(kernels, data, _pieces(z, k, j))

        def value(z):
            return sum(kernel.evaluate(d, p) for kernel, d, p in each(z))

        def value_and_gradient(z):
            values, partials = zip(*(kernel.evaluate_with_partials(d, p) for kernel, d, p in each(z)))
            return sum(values), np.concatenate([p[..., 1:] - partials[-1][..., 1:] for p in partials[:-1]],
                                               axis=-1)

        def partials(z):
            return kernels[-1].evaluate_with_partials(data[-1], _pieces(z, k, j)[-1])[1]

        # the even split, each piece shifted to no own cash
        return value, value_and_gradient, partials, np.tile((k[..., 1:] - k[..., :1]) / j, j - 1)

    descriptor = "pooled(" + ", ".join(kernel.descriptor or "custom" for kernel in kernels) + ")"
    return lift, descriptor, all(kernel.smooth for kernel in kernels)


def _layout(families: Sequence[ValuationFamily]) -> list[tuple[Block, ...]]:
    """The subsidiaries' blocks level by level: as they stand where they
    hold the same nodes, else cut to one node each, deepest first."""
    layouts = [f.blocks for f in families]
    if len({tuple(tuple(b.nodes.tolist()) for b in blocks) for blocks in layouts}) > 1:
        time = families[0].tree.time
        layouts = [sorted((Block(b.kernel, data, nodes, take[:, 1:], take)
                           for b in blocks for data, nodes, take in b.parts(1)),
                          key=lambda c: (-time[c.nodes[0]], c.nodes[0])) for blocks in layouts]
    return list(zip(*layouts))


def _rule(blocks: tuple[Block, ...]):
    """The rule (Gamma, log w, vertices) that pools the blocks of one
    level, the blocks' own rules (``Kernel.rule``) and the block r that
    takes the split's remainder, or None where no rule pools them.  Duals
    add: 1/Gamma = sum 1/gamma_j and log w = sum (Gamma/gamma_j) log w_j
    over the finite gamma_j, of which there must be one, confined to the
    polytope of at most one block, whose vertices must give every
    coordinate mass; r is that block, else the last."""
    if any(b.kernel.rule is None for b in blocks):
        return None
    rules = [b.kernel.rule(b.data) for b in blocks]
    confined = [i for i, (_, _, v) in enumerate(rules) if v is not None]
    finite = [(gamma, log_w) for gamma, log_w, _ in rules if gamma < np.inf]
    r = confined[0] if confined else -1
    v = rules[r][2]
    # a coordinate no vertex reaches (no stopping): the sup is not attained
    if not finite or len(confined) > 1 or (v is not None and not (v.max(axis=-2) > 0).all()):
        return None
    big_gamma = 1.0 / sum(1.0 / gamma for gamma, _ in finite)
    return (big_gamma, sum(big_gamma / gamma * log_w for gamma, log_w in finite), v), rules, r


def _split(rules, r: int, log_q: np.ndarray, total: np.ndarray) -> np.ndarray:
    """The split (j, ..., m + 1) of a rule level's totals by q*: block j of
    an exponential rule takes (log w_j - log q*) / gamma_j, whose one-step
    value is zero, and block r of ``_rule`` the remainder."""
    pieces = np.array([(log_w - log_q) / gamma if v is None else np.zeros(total.shape) for gamma, log_w, v in rules])
    pieces[r] += total - pieces.sum(axis=0)
    return pieces


def _pooled_block(blocks: tuple[Block, ...], rule, tree: Tree, opts: DualSolverOptions) -> Block:
    """The pool of the blocks of one level under their ``_rule``: the
    exponential kernel on its log-weights, confined to its polytope if it
    has one; without a rule, a block of one-step sups."""
    nodes, kids, take = blocks[0].nodes, blocks[0].kids, blocks[0].take
    if rule is None:
        return Block(_sup_kernel(*_pool(blocks), tree, opts), (tuple(b.data for b in blocks), nodes), nodes, kids,
                     take)
    (big_gamma, log_w, v), _, _ = rule
    if v is None:
        return Block(_entropic_kernel(big_gamma), (log_w,), nodes, kids, take)
    return Block(_confined_kernel(big_gamma), (log_w, _vertex_plan(v)), nodes, kids, take)


def _pool_levels(families: Sequence[ValuationFamily], opts: DualSolverOptions):
    """The pooled family of ``pooled_family`` and the (blocks, ``_rule``) of
    each of its levels, one per level of the subsidiaries' ``_layout``,
    built once per families (in their order) and options and kept on the
    first family."""

    def build():
        tree, levels = families[0].tree, [(blocks, _rule(blocks)) for blocks in _layout(families)]
        pooled = ValuationFamily(tree, lambda: [_pooled_block(*level, tree, opts) for level in levels],
                                 descriptor="pooled(" + ", ".join(f.descriptor or "custom" for f in families) + ")")
        return pooled, levels

    return derived(families[0], "pooled", (tuple(families), opts), build)


def pooled_family(subs: Sequence, opts: DualSolverOptions | None = None) -> ValuationFamily:
    """The pooled valuations: at every node, the best total of the
    subsidiaries' valuations over splits of the balance.

    Each subsidiary's share of a child subtree can be shifted by a constant
    that translation invariance passes through its valuation, so the
    sup-convolution over whole allocations is the backward induction of
    one-step sup-convolutions of the subsidiaries' one-step operators, one
    block per level block of their ``_layout``.

    Duals add under pooling, so each block takes its rule from the kernels
    there (``_rule``, from each kernel's ``Kernel.rule``).  Exponential
    one-steps with risk aversions gamma_j and log-weights log w_j pool to
    the exponential one-step with Gamma = 1 / sum 1/gamma_j on the
    log-weights sum (Gamma/gamma_j) log w_j, with no solver: its conjugate
    sum q (log q - log w') / Gamma is sum KL(q | w_j) / gamma_j.  These
    log-weights are unnormalized; their missing mass is the node's value of
    pooling.  A rule confined to a polytope P (a worst-case family's,
    gamma infinite; a martingale hedge's; an earlier confined pool's) adds
    the indicator of P, so pooling it with exponential ones is
    min over q in P of [q . k + sum q (log q - log w') / Gamma], a smooth
    convex problem batched over the nodes of the block: where a node's
    vertices have disjoint supports (one distribution with stopping, a
    one-step martingale measure) it is the exponential kernel over those
    vertices, in closed form, and the other nodes are solved exactly in the
    vertex weights.  Any other block (two polytopes, CRRA or custom
    one-steps, a polytope that leaves a coordinate without mass) is a block
    of one-step sups, solved with the tolerances of ``opts``; where all are
    smooth its partials are the last subsidiary's at its share (the
    envelope theorem).

    The pooled family is built once per subsidiaries (in their order) and
    options, so a later call with the same subsidiaries and equal options
    returns the same family, its blocks with it."""
    _common_tree(subs)
    return _pool_levels([_as_family(s) for s in subs], opts or DEFAULT_OPTIONS)[0]


def _share_direct_route(families: Sequence[ValuationFamily], xi: int, values: np.ndarray, opts):
    """Pooled values at the balance and at zero, the allocation on the
    subtree at xi, and whether every solve there converged: one sweep of
    the pooled family of ``_pool_levels`` on both rows
    (``ValuationFamily.values_and_maximizers``) solves each level once, and
    row 0's maximizers give each level's split: ``_split`` of a rule
    level's minimizing density, ``_pieces`` of a one-step sup's search
    point.  Then top-down, a subsidiary's piece of a child subtree is the
    child's own split shifted by a constant to the value the parent's split
    promised it there; the shifts at a node sum to zero."""
    (pooled, levels), tree, j = _pool_levels(families, opts), families[0].tree, len(families)
    swept, solved = pooled.values_and_maximizers(np.stack([values, np.zeros(tree.n_nodes)]))
    inside = np.zeros(tree.n_nodes, dtype=bool)
    inside[tree.descendant_indices(xi)] = True
    alloc, promised = np.zeros((2, j, tree.n_nodes))
    converged = True
    for (blocks, rule), (block, found, ok) in reversed(list(zip(levels, solved))):   # parents first
        sel = inside[block.nodes]
        if not sel.any():
            continue
        converged &= bool(ok[:, sel].all())
        k = np.concatenate([values[block.nodes, None], swept[0, block.kids]], axis=1)
        pieces = _pieces(found[0], k, j) if rule is None else _split(*rule[1:], found[0], k)
        nodes, kids, pieces = block.nodes[sel], block.kids[sel], pieces[:, sel]
        # each kernel on a copy of its piece, which it may overwrite
        own = np.array([b.kernel.evaluate(_take(b.data, sel), p.copy()) for b, p in zip(blocks, pieces)])
        shift = np.where(nodes == xi, own, promised[:, nodes]) - own
        alloc[:, nodes] = pieces[..., 0] + shift
        promised[:, kids] = pieces[..., 1:] + shift[..., None]
    leaves = inside & tree.is_leaf
    alloc[:, leaves] = promised[:, leaves] if not tree.is_leaf[xi] else values[xi] / j
    return float(swept[0, xi]), float(swept[1, xi]), list(alloc[:, tree.descendant_indices(xi)]), converged


def share_value(subs: Sequence, x: str, balance: CashBalance,
                opts: DualSolverOptions | None = None, *, method: str = "auto") -> SharingResult:
    """Best pooled valuation of the balance at a node over all splits among
    the subsidiaries, with the achieving allocation.

    ``method='dual'`` (exponential subsidiaries only) sweeps their pooled
    kernel family once at the balance and at zero, with no solver: the
    reverse-sweep gradient is the minimizing density of the summed duals,
    and the allocation is the closed form ``entropic_allocation``.
    ``method='direct'`` is one pass over the levels of ``pooled_family`` at
    the balance and at zero that solves each level once and keeps its
    splits: a kernel-rule level's from each node's minimizing density, with
    no solver, a level of one-step sups' from its block solve; the
    allocation is rebuilt from them top-down.  ``opts`` tunes only the
    one-step sups; neither kernel rule reads it.  ``'auto'`` picks the dual
    route when every subsidiary is ``EntropicParams``.  Both routes sweep
    the pooled family of ``pooled_family``, built once per subsidiaries and
    options and reused by later calls at any balance.  The allocation
    always sums to the balance on the subtree; the value it achieves is
    reported for verification."""
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

    families = [_as_family(s) for s in subs]
    if method == "dual":
        rows = np.stack([balance.values, np.zeros(tree.n_nodes)])
        swept, grad = _pool_levels(families, opts)[0].values_and_gradient(rows, xi)
        value, value0 = swept[:, xi]
        density = DualDensity(support=x, values={tree.ids[i]: float(w) for i, w in zip(sub_idx, grad[0, sub_idx])})
        pieces, converged = [piece.values[sub_idx] for piece in entropic_allocation(subs, x, balance)], True
    else:
        density = None
        value, value0, pieces, converged = _share_direct_route(families, xi, balance.values, opts)

    allocation = []
    achieved = 0.0
    for family, piece in zip(families, pieces):
        full = np.zeros(tree.n_nodes)
        full[sub_idx] = piece
        allocation.append(CashBalance(tree, full))
        achieved += float(family.node_values(full)[xi])
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
        # the root's gradient is in preorder, the whole tree's subtree order
        shadow = _sub_gradient(subs[0], tree, tree.root_index, allocation[0].values)[tree.pre_position[sub_idx]]
    else:
        shadow = check_numbers("shadow density", shadow)
        if shadow.shape == (tree.n_nodes,):
            shadow = shadow[sub_idx]
        if shadow.shape != sub_idx.shape:
            raise ValidationError(f"shadow density must give {tree.n_nodes} numbers, or "
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
    """Axiom suite for the normalized pooled family: the pooled family of
    ``pooled_family`` with the same options, committed to the zero
    balance.  Its default tolerance is 1e-8 where a
    kernel rule pools every level block, which is exact, and 1e-5 where
    some block is one of one-step sups, reflecting their solves."""
    _common_tree(subs)
    pooled, levels = _pool_levels([_as_family(s) for s in subs], opts or DEFAULT_OPTIONS)
    exact = all(rule is not None for _, rule in levels)
    family = committed_family(pooled, CashBalance.constant(pooled.tree, 0.0))
    tol = tolerance if tolerance is not None else (1e-8 if exact else 1e-5)
    return check_axioms(family, trials, seed, tolerance=tol, cash_range=cash_range)
