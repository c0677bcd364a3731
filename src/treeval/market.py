"""Market access: self-financing trading gains on the tree, optimal hedging
of a cash balance against the market, the axiom suite for the hedged
valuations, and state-price-density extraction from one-step linear pricing
weights.

The hedged valuations are a ``ValuationFamily`` of one-step hedges, a sup
over the positions held at each node, built from the family's level blocks
node by node (``_hedged_block``).  The nodes of an exponential block in a
complete one-step market with a strictly positive martingale measure q
are the exponential kernel on (own cash, q . children), with no solve,
which states its rule (``Kernel.rule``), so pools take it in closed form
too.  The block's other nodes are solved together, all rows at once, by
damped Newton in the positions, which leaves the rows it does not finish,
and every row of a kinked kernel, to the per-row ``optim.sup``
(``valuation._sup_kernel``, which also solves the numerically pooled
families of ``risksharing``, and flags a node unconverged where the sup is
not attained).  Their partials are the inner partials at
the optimal positions (the envelope theorem), so reverse sweeps through
hedged nodes of a smooth kernel are exact.  ``market_value`` reads the
optimal strategy off the solves of the sweep that gives the values.

Gains are realized concretely as linear trading gains: a strategy holds a
position vector over the edges leaving each internal node, prices are
adapted, interest is zero, and positions are unconstrained reals.  The
convexity, localization and stop-restart properties of the gains sets are
then exact linear-algebra identities, verified by ``check_gains_axioms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .dual import DEFAULT_OPTIONS, DualSolverOptions
from .errors import ValidationError, check_count, check_numbers, check_tolerance
from .tree import CashBalance, Tree, stop_index
from .valuation import (AxiomReport, Block, Kernel, ValuationFamily, _sup_kernel, _take, check_axioms,
                        committed_family, derived, probability_rows, sample_stop_masks)


@dataclass(frozen=True, eq=False)
class Market:
    """Adapted asset price processes on a tree; markets compare and hash by
    identity."""

    tree: Tree
    asset_names: tuple[str, ...]
    prices: np.ndarray  # (n_assets, n_nodes)


def market(tree: Tree, assets: Mapping[str, Mapping[str, float]]) -> Market:
    """Validated market: every asset priced on every node."""
    if not assets:
        raise ValidationError("need at least one asset")
    names = tuple(assets)
    table = np.empty((len(names), tree.n_nodes))
    for row, name in enumerate(names):
        series = assets[name]
        missing = set(tree.ids) - set(series)
        if missing:
            raise ValidationError(f"asset {name!r} missing prices at: {sorted(missing)}")
        unknown = set(series) - set(tree.ids)
        if unknown:
            raise ValidationError(f"asset {name!r} prices unknown nodes: {sorted(unknown)}")
        table[row] = check_numbers(f"prices of asset {name!r}", [series[node_id] for node_id in tree.ids],
                                   (tree.n_nodes,))
    table.flags.writeable = False
    return Market(tree=tree, asset_names=names, prices=table)


@dataclass(frozen=True)
class Strategy:
    """Position vector per internal node, held over the edges leaving it."""

    holdings: Mapping[str, np.ndarray]


def _decision_nodes(tree: Tree, xi: int) -> list[int]:
    return [int(i) for i in tree.descendant_indices(xi) if not tree.is_leaf[i]]


def _gains_matrix(mkt: Market, xi: int) -> tuple[np.ndarray, list[int]]:
    """Linear map from stacked positions (node-major, asset-minor) to the
    cumulative gains process; zero off the subtree."""
    tree = mkt.tree
    decisions = _decision_nodes(tree, xi)
    col = {u: k for k, u in enumerate(decisions)}
    n_assets = len(mkt.asset_names)
    mat = np.zeros((tree.n_nodes, len(decisions) * n_assets))
    for u in tree.descendant_indices(xi):
        if tree.is_leaf[u]:
            continue
        base = col[int(u)] * n_assets
        for c in tree.children_index[u]:
            mat[c] = mat[u]
            mat[c, base:base + n_assets] += mkt.prices[:, c] - mkt.prices[:, u]
    return mat, decisions


def _strategy_vector(mkt: Market, xi: int, strategy: Strategy) -> np.ndarray:
    """The stacked positions (node-major, asset-minor) of the strategy at
    the decision nodes of the subtree at xi; holdings at other known nodes
    are ignored."""
    tree, n_assets = mkt.tree, len(mkt.asset_names)
    for node_id in strategy.holdings:   # an unknown node is an error
        tree.node_index(node_id)
    ids = [tree.ids[i] for i in _decision_nodes(tree, xi)]
    missing = [node_id for node_id in ids if node_id not in strategy.holdings]
    if missing:
        raise ValidationError(f"strategy missing holdings at: {missing}")
    return np.array([check_numbers(f"holding at {node_id!r}", strategy.holdings[node_id], (n_assets,))
                     for node_id in ids]).reshape(-1)


def gains(mkt: Market, x: str, strategy: Strategy) -> CashBalance:
    """Cumulative gains from trading along each path out of x, starting from
    zero wealth at x; zero off the subtree."""
    tree = mkt.tree
    xi = tree.node_index(x)
    mat, decisions = _gains_matrix(mkt, xi)
    theta = _strategy_vector(mkt, xi, strategy)
    return CashBalance(tree, mat @ theta)


@dataclass
class GainsAxiomReport:
    convexity_residual: float
    localization_residual: float
    decomposition_residual: float
    tolerance: float
    trials: int
    seed: int

    @property
    def all_passed(self) -> bool:
        return max(self.convexity_residual, self.localization_residual,
                   self.decomposition_residual) <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "convexity_residual": self.convexity_residual,
            "localization_residual": self.localization_residual,
            "decomposition_residual": self.decomposition_residual,
            "tolerance": self.tolerance,
            "trials": self.trials,
            "seed": self.seed,
        }


def check_gains_axioms(mkt: Market, x: str, trials: int, seed: int, *,
                       tolerance: float = 1e-12) -> GainsAxiomReport:
    """Verify on sampled strategies that the gains set is closed under convex
    combination, masks to the gains set of each later start node, and splits
    into a stopped part plus an independent restart.  All three are linear
    identities of the realization and must hold to roundoff."""
    check_count("trials", trials, 1)
    check_count("seed", seed, 0)
    check_tolerance("tolerance", tolerance)
    tree = mkt.tree
    xi = tree.node_index(x)
    mat, decisions = _gains_matrix(mkt, xi)
    rng = np.random.default_rng(seed)
    d = mat.shape[1]
    loc_graphs = sample_stop_masks(tree, rng, trials, start=x)
    dec_at = stop_index(tree, sample_stop_masks(tree, rng, trials, start=x))
    conv = loc = dec = 0.0
    for t in range(trials):
        theta_a = rng.normal(size=d)
        theta_b = rng.normal(size=d)
        w = float(rng.uniform())
        mix = mat @ (w * theta_a + (1 - w) * theta_b)
        conv = max(conv, float(np.max(np.abs(mix - (w * (mat @ theta_a) + (1 - w) * (mat @ theta_b))))))

        # localization: a gains process from a stopping time, masked to the
        # subtree of one of its graph nodes, is exactly that node's own
        # gains process (the pieces on the other branches vanish there)
        g_full = mat @ theta_a
        graph = np.flatnonzero(loc_graphs[t])
        pooled = np.zeros(tree.n_nodes)
        piece_of = {}
        for zi in graph.tolist():
            mat_z = _gains_matrix(mkt, zi)[0]
            theta_z = rng.normal(size=mat_z.shape[1])
            piece_of[zi] = mat_z @ theta_z
            pooled += piece_of[zi]
        z = int(graph[rng.integers(graph.size)])
        masked = np.zeros(tree.n_nodes)
        masked[tree.descendant_indices(z)] = pooled[tree.descendant_indices(z)]
        loc = max(loc, float(np.max(np.abs(masked - piece_of[z]))))

        # stop at sigma, then restart below it with the same positions
        at = dec_at[t]
        stopped = np.where(at >= 0, g_full[at], g_full)
        restart = np.where(at >= 0, g_full - g_full[at], 0.0)
        dec = max(dec, float(np.max(np.abs(stopped + restart - g_full))))
    return GainsAxiomReport(conv, loc, dec, tolerance, trials, seed)


@dataclass
class MarketValueResult:
    value: float          # best hedged valuation of the balance
    normalized: float     # value minus the access value
    access_value: float   # best hedged valuation of the zero balance
    strategy: Strategy
    converged: bool


def _moves(mkt: Market, block: Block) -> np.ndarray:
    """Price moves (nodes, children, assets) from each node of a block to
    its children."""
    return np.moveaxis(mkt.prices[:, block.kids] - mkt.prices[:, block.nodes, None], 0, -1)


def _lift(inner: Kernel, data, k):
    """The one-step hedges of a block, data (inner data, moves), as a lift
    in the positions theta (``valuation._sup_kernel``): the gradient is the
    children's partials times the moves, from the inner kernel's one call
    for its values and partials; the start is 0."""
    inner_data, moves = data

    def shifted(theta):
        # own cash, and the children's values plus the trading gains
        gains = (moves * theta[..., None, :]).sum(axis=-1)
        out = np.empty(gains.shape[:-1] + k.shape[-1:])
        out[..., 0] = k[..., 0]
        np.add(k[..., 1:], gains, out=out[..., 1:])
        return out

    def partials(theta):
        return inner.evaluate_with_partials(inner_data, shifted(theta))[1]

    def value(theta):
        return inner.evaluate(inner_data, shifted(theta))

    def value_and_gradient(theta):
        values, p = inner.evaluate_with_partials(inner_data, shifted(theta))
        return values, (p[..., 1:, None] * moves).sum(axis=-2)

    return value, value_and_gradient, partials, np.zeros(k.shape[:-1] + moves.shape[-1:])


def _hedge(inner: Kernel):
    """The lift, descriptor and smoothness of ``inner`` hedged."""
    return partial(_lift, inner), f"hedged({inner.descriptor})", inner.smooth


def _martingale(inner: Kernel, gamma: float) -> Kernel:
    """``inner``, an exponential one-step of risk aversion gamma, hedged
    where the one-step market is complete with martingale measure q: the
    best positions make the children's Gibbs weights q, so the hedge is
    ``inner`` on (own cash, q . children), with partials (p_0, (1 - p_0) q);
    data: the log-weights (b, 2) of those outcomes, (L_0, sum q (L - log q)),
    q (b, m), A, the last rows (b, d, m) of M^-1, c = (L - log q) / gamma
    (b, m), for the positions A (c - children) that its solve gives, and
    inner's log-weights L (b, m + 1).  It states its rule (gamma, L,
    {e_0, (0, q)}): the exponential kernel confined to that polytope, the
    closed form ``families._disjoint_log_argmin`` gives any polytope whose
    vertices have disjoint supports."""

    def outcomes(q, k):
        # (own cash, q . children)
        out = np.empty(k.shape[:-1] + (2,))
        out[..., 0] = k[..., 0]
        out[..., 1] = (q * k[..., 1:]).sum(axis=-1)
        return out

    def evaluate(data, k):
        return inner.evaluate(data[:1], outcomes(data[1], k))

    def grad(data, k):
        values, p = inner.evaluate_with_partials(data[:1], outcomes(data[1], k))
        return values, np.concatenate([p[..., :1], p[..., 1:] * data[1]], axis=-1)

    def solve(data, k):
        a, c = data[2:4]
        return evaluate(data, k), (a @ (c - k[..., 1:])[..., None])[..., 0], np.ones(k.shape[:-1], dtype=bool)

    def rule(data):
        q = data[1]
        vertices = np.zeros(q.shape[:-1] + (2, q.shape[-1] + 1))
        vertices[..., 0, 0], vertices[..., 1, 1:] = 1.0, q
        return gamma, data[4], vertices

    return Kernel(evaluate, f"hedged({inner.descriptor})", grad=grad, rule=rule, solve=solve)


def _part(b: Block, sel: np.ndarray) -> Block:
    """The nodes of block b that ``sel`` marks, as a block of their own."""
    return b if sel.all() else Block(b.kernel, _take(b.data, sel), b.nodes[sel], b.kids[sel])


def _martingale_part(b: Block, inv: np.ndarray, gamma: float, log_w: np.ndarray) -> Block:
    """The hedge of the nodes of b that the martingale rule takes, from
    their inverses of M and the risk aversion and log-weights of b's rule."""
    q = inv[:, 0]
    c = log_w[:, 1:] - np.log(q)
    data = (np.stack([log_w[:, 0], (q * c).sum(axis=-1)], axis=-1), q, inv[:, 1:], c / gamma, log_w)
    return Block(_martingale(b.kernel, gamma), data, b.nodes, b.kids, b.take)


def _hedged_block(b: Block, mkt: Market, opts: DualSolverOptions) -> list[Block]:
    """The hedges of the family's level block b, node by node: one block
    per route that some node of b takes.  The martingale rule takes a node
    of an exponential kernel (a ``Kernel.rule`` with a finite gamma and no
    vertices) that has one child more than there are assets and where q,
    the first row of M^-1 for M = [1 | dS], is a strictly positive
    probability, the unique martingale measure (``_martingale``).  The
    other nodes are one-step sups, whose solve flags a node unconverged
    where q has a nonpositive entry: an arbitrage lifts the exponential
    one-step there towards its own-cash bound unattained."""
    moves = _moves(mkt, b)
    gamma, log_w, vertices = b.kernel.rule(b.data) if b.kernel.rule is not None else (np.inf, None, None)
    martingale, attained = np.zeros(b.nodes.size, dtype=bool), np.ones(b.nodes.size, dtype=bool)
    if vertices is None and gamma < np.inf and moves.shape[-2] == moves.shape[-1] + 1:
        mat, flat = np.concatenate([np.ones(moves.shape[:-1] + (1,)), moves], axis=-1), False
        try:
            inv = np.linalg.inv(mat)
        except np.linalg.LinAlgError:   # moves that span fewer directions than there are assets
            flat = np.linalg.det(mat) == 0
            inv = np.linalg.inv(np.where(flat[:, None, None], np.eye(mat.shape[-1]), mat))   # q = e_0 there
        martingale = probability_rows(inv[:, 0], positive=True)
        if martingale.all():
            return [_martingale_part(b, inv, gamma, log_w)]
        attained = (inv[:, 0] > 0).all(axis=-1) | flat
    parts = ([_martingale_part(_part(b, martingale), inv[martingale], gamma, log_w[martingale])]
             if martingale.any() else [])
    part, sups = _part(b, ~martingale), ~martingale
    return parts + [Block(_sup_kernel(*_hedge(b.kernel), mkt.tree, opts),
                          ((part.data, moves[sups]), part.nodes, attained[sups]), part.nodes, part.kids, part.take)]


def hedged_family(family, mkt: Market, opts: DualSolverOptions | None = None) -> ValuationFamily:
    """Best hedged valuations: at every node, the valuation of the balance
    plus the best trading gains from that node on.

    A position held at a node adds a constant to each child subtree's
    gains, which translation invariance passes through the child's
    valuation, so the sup over whole strategies is the backward induction
    of one-step hedges ``sup_theta step_u(a, v + dS_u theta)``, dS_u the
    children's prices minus u's.  Each level block of the family becomes
    one or two hedged blocks (``_hedged_block``): the exponential kernel
    on (own cash, q . v) at the nodes of an exponential block in a
    complete one-step market with a strictly positive martingale measure
    q, and the other nodes and all their rows solved at once by
    ``optim.sup_rows``: damped Newton in theta on
    the exact gradient, each trial point and its Hessian stencil one
    ``evaluate_with_partials`` call of the inner kernel, with the rows it
    does not finish, and every row of a kinked kernel, left to
    ``optim.sup`` one by one.  The partials are the inner partials at the
    optimal positions, central differences for a kinked kernel.  A one-step
    hedge that runs away raises a divergence error naming its node, with
    the arbitrage direction as certificate: the market admits arbitrage
    relative to the family.

    The hedged family is built once per family, market and options and
    kept on the family (``valuation.derived``), so a later call with the
    same market and equal options returns it, its blocks with it."""
    if family.tree is not mkt.tree:
        raise ValidationError("family and market must share one tree instance")
    opts = opts or DEFAULT_OPTIONS
    return derived(family, "hedged", (mkt, opts), lambda: ValuationFamily(
        mkt.tree, lambda: [hedge for b in family.blocks for hedge in _hedged_block(b, mkt, opts)],
        descriptor=f"hedged({family.descriptor or 'custom'})"))


def market_value(family, mkt: Market, x: str, balance: CashBalance,
                 opts: DualSolverOptions | None = None) -> MarketValueResult:
    """Best valuation of the balance over all trading overlays from x, its
    normalization, the access value (the same optimization at zero cash),
    and the optimal strategy, from one sweep of ``hedged_family`` at the
    balance and at zero; the hedged family is built once per family,
    market and options and reused by later calls.  Unbounded hedging
    raises a divergence error whose direction certifies the arbitrage; an
    unattained sup is unconverged."""
    if balance.tree is not mkt.tree or family.tree is not mkt.tree:
        raise ValidationError("family, market and balance must share one tree instance")
    tree = mkt.tree
    xi = tree.node_index(x)
    swept, solved = hedged_family(family, mkt, opts).values_and_maximizers(
        np.stack([balance.values, np.zeros(tree.n_nodes)]))
    positions = np.zeros((tree.n_nodes, len(mkt.asset_names)))
    converged = np.ones(tree.n_nodes, dtype=bool)
    for block, theta, ok in solved:
        positions[block.nodes], converged[block.nodes] = theta[0], ok.all(axis=0)
    decisions = _decision_nodes(tree, xi)
    return MarketValueResult(
        value=float(swept[0, xi]),
        normalized=float(swept[0, xi] - swept[1, xi]),
        access_value=float(swept[1, xi]),
        strategy=Strategy({tree.ids[u]: positions[u].copy() for u in decisions}),
        converged=bool(converged[decisions].all()),
    )


def check_market_axioms(family, mkt: Market, trials: int, seed: int, *,
                        tolerance: float = 1e-5,
                        opts: DualSolverOptions | None = None,
                        cash_range: tuple[float, float] = (-5.0, 5.0)) -> AxiomReport:
    """Axiom suite for the normalized hedged family, the hedged family
    committed to the zero balance, the hedged family ``market_value``
    sweeps with the same options.  The default tolerance reflects the
    one-step solves; widen it for non-smooth base families."""
    hedged = hedged_family(family, mkt, opts)
    normalized = committed_family(hedged, CashBalance.constant(mkt.tree, 0.0))
    return check_axioms(normalized, trials, seed, tolerance=tolerance, cash_range=cash_range)


@dataclass(frozen=True)
class StatePriceDensity:
    """Strictly positive node process representing consistent linear pricing
    as weighted conditional expectations; normalized to 1 at the root."""

    zeta: Mapping[str, float]


def _conditional_reference(tree: Tree) -> np.ndarray:
    """Transition probabilities q(child | node) from the node weights,
    normalized over each node's children."""
    if tree.subtree_weight is None:
        raise ValidationError("tree carries no weights; a reference distribution is required")
    q = np.zeros(tree.n_nodes)
    for u in range(tree.n_nodes):
        kids = tree.children_index[u]
        if not kids:
            continue
        total = tree.subtree_weight[list(kids)].sum()
        for c in kids:
            q[c] = tree.subtree_weight[c] / total
    return q


def extract_state_price_density(tree: Tree, one_step_prices: Mapping[str, Sequence[float]]) -> StatePriceDensity:
    """Recover the state-price density from one-step pricing weights: the
    root starts at 1 and each child scales its parent by weight over
    reference transition probability.

    Nonpositive weights are rejected: they price some nonnegative claim at
    zero without it being negligible, an arbitrage."""
    q = _conditional_reference(tree)
    zeta = np.zeros(tree.n_nodes)
    zeta[tree.root_index] = 1.0
    for u in tree.preorder:
        kids = tree.children_index[u]
        if not kids:
            continue
        node_id = tree.ids[u]
        if node_id not in one_step_prices:
            raise ValidationError(f"missing one-step prices at internal node {node_id!r}")
        w = check_numbers(f"one-step prices at {node_id!r}", one_step_prices[node_id], (len(kids),))
        if not np.all(w > 0):
            raise ValidationError(
                f"nonpositive pricing weight at {node_id!r} violates no-arbitrage "
                "(a nonnegative claim priced at zero must be negligible)")
        for weight, c in zip(w, kids):
            zeta[c] = zeta[u] * weight / q[c]
    return StatePriceDensity(zeta={node_id: float(z) for node_id, z in zip(tree.ids, zeta)})


def synthesize_one_step_prices(tree: Tree, zeta: Mapping[str, float]) -> dict[str, list[float]]:
    """One-step pricing weights induced by a strictly positive density via
    weighted conditional one-step expectations; the round trip through
    ``extract_state_price_density`` is the identity."""
    q = _conditional_reference(tree)
    missing = set(tree.ids) - set(zeta)
    if missing:
        raise ValidationError(f"state-price density missing nodes: {sorted(missing)}")
    z = check_numbers("state-price density", [zeta[node_id] for node_id in tree.ids])
    if not np.all(z > 0):
        raise ValidationError("state-price density must be strictly positive")
    out: dict[str, list[float]] = {}
    for u in range(tree.n_nodes):
        kids = tree.children_index[u]
        if kids:
            out[tree.ids[u]] = [float(q[c] * z[c] / z[u]) for c in kids]
    return out
