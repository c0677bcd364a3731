"""Market access: self-financing trading gains on the tree, optimal hedging
of a cash balance against the market, the axiom suite for the hedged
valuations, and state-price-density extraction from one-step linear pricing
weights.

The hedged valuations are a ``ValuationFamily`` assembled from one-step
hedges, a sup over the positions held at each node; the optimal strategy
is read off the same one-step solves.

Gains are realized concretely as linear trading gains: a strategy holds a
position vector over the edges leaving each internal node, prices are
adapted, interest is zero, and positions are unconstrained reals.  The
convexity, localization and stop-restart properties of the gains sets are
then exact linear-algebra identities, verified by ``check_gains_axioms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dual import DEFAULT_OPTIONS, DualSolverOptions
from .errors import ValidationError
from .tree import CashBalance, Tree, stop_index
from .valuation import AxiomReport, ValuationFamily, check_axioms, committed_family, sup_family


@dataclass(frozen=True)
class Market:
    """Adapted asset price processes on a tree."""

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
        table[row] = [float(series[node_id]) for node_id in tree.ids]
    if not np.all(np.isfinite(table)):
        raise ValidationError("asset prices must be finite")
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


def _strategy_vector(mkt: Market, xi: int, strategy: Strategy) -> tuple[np.ndarray, list[int]]:
    tree = mkt.tree
    decisions = _decision_nodes(tree, xi)
    n_assets = len(mkt.asset_names)
    theta = np.zeros(len(decisions) * n_assets)
    seen = set()
    for node_id, pos in strategy.holdings.items():
        i = tree.node_index(node_id)
        if i not in decisions:
            continue
        v = np.asarray(pos, dtype=float)
        if v.shape != (n_assets,):
            raise ValidationError(f"holding at {node_id!r} must give one position per asset")
        k = decisions.index(i)
        theta[k * n_assets:(k + 1) * n_assets] = v
        seen.add(i)
    missing = [tree.ids[i] for i in decisions if i not in seen]
    if missing:
        raise ValidationError(f"strategy missing holdings at: {missing}")
    return theta, decisions


def gains(mkt: Market, x: str, strategy: Strategy) -> CashBalance:
    """Cumulative gains from trading along each path out of x, starting from
    zero wealth at x; zero off the subtree."""
    tree = mkt.tree
    xi = tree.node_index(x)
    mat, decisions = _gains_matrix(mkt, xi)
    theta, _ = _strategy_vector(mkt, xi, strategy)
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
    from .valuation import sample_stop_masks

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


def _hedged(family, mkt: Market, opts: DualSolverOptions):
    if family.tree is not mkt.tree:
        raise ValidationError("family and market must share one tree instance")

    def problem(u: int):
        step, kids = family.one_steps[u], list(mkt.tree.children_index[u])
        moves = (mkt.prices[:, kids] - mkt.prices[:, [u]]).T   # (children, assets)

        def lift(k_x, k_children):
            def objective(batch: np.ndarray) -> np.ndarray:
                return step.evaluate(np.full(batch.shape[0], k_x), k_children + batch @ moves.T)
            return objective, np.zeros(moves.shape[1])

        return lift, step.smooth

    return sup_family(mkt.tree, {u: problem(u) for u in mkt.tree.internal_indices()}, opts,
                      descriptor=f"hedged({family.descriptor or 'custom'})")


def hedged_family(family, mkt: Market, opts: DualSolverOptions | None = None) -> ValuationFamily:
    """Best hedged valuations: at every node, the valuation of the balance
    plus the best trading gains from that node on.

    A position held at a node adds a constant to each child subtree's
    gains, which translation invariance passes through the child's
    valuation, so the sup over whole strategies is the backward induction
    of one-step hedges ``sup_theta step_u(a, v + dS_u theta)``, dS_u the
    children's prices minus u's.  A one-step hedge that runs away raises a
    divergence error naming its node, with the arbitrage direction as
    certificate: the market admits arbitrage relative to the family."""
    return _hedged(family, mkt, opts or DEFAULT_OPTIONS)[0]


def market_value(family, mkt: Market, x: str, balance: CashBalance,
                 opts: DualSolverOptions | None = None) -> MarketValueResult:
    """Best valuation of the balance over all trading overlays from x, its
    normalization, the access value (the same optimization at zero cash),
    and the optimal strategy.  Unbounded hedging raises a divergence error
    whose direction certifies the arbitrage."""
    opts = opts or DEFAULT_OPTIONS
    if balance.tree is not mkt.tree or family.tree is not mkt.tree:
        raise ValidationError("family, market and balance must share one tree instance")
    tree = mkt.tree
    xi = tree.node_index(x)
    hedged, solve = _hedged(family, mkt, opts)
    rows = np.stack([balance.values, np.zeros(tree.n_nodes)])
    swept = hedged.node_values(rows)
    # the one-step solves are deterministic: re-solved on the swept child
    # values they return the positions the sweep used
    decisions = _decision_nodes(tree, xi)
    solved = [[solve(u, row[u], vals[list(tree.children_index[u])]) for u in decisions]
              for row, vals in zip(rows, swept)]
    return MarketValueResult(
        value=float(swept[0, xi]),
        normalized=float(swept[0, xi] - swept[1, xi]),
        access_value=float(swept[1, xi]),
        strategy=Strategy({tree.ids[u]: res.x.copy() for u, res in zip(decisions, solved[0])}),
        converged=all(res.converged for row in solved for res in row),
    )


def check_market_axioms(family, mkt: Market, trials: int, seed: int, *,
                        tolerance: float = 1e-5,
                        opts: DualSolverOptions | None = None,
                        cash_range: tuple[float, float] = (-5.0, 5.0)) -> AxiomReport:
    """Axiom suite for the normalized hedged family, the hedged family
    committed to the zero balance.  The default tolerance reflects the
    one-step solves; widen it for non-smooth base families."""
    hedged = hedged_family(family, mkt, opts or DualSolverOptions(gradient_tolerance=1e-7))
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
        w = np.asarray(one_step_prices[node_id], dtype=float)
        if w.shape != (len(kids),):
            raise ValidationError(f"one-step prices at {node_id!r} must give one weight per child")
        if not np.all(np.isfinite(w)):
            raise ValidationError(f"one-step prices at {node_id!r} must be finite")
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
    z = np.array([float(zeta[node_id]) for node_id in tree.ids])
    if not np.all((z > 0) & np.isfinite(z)):
        raise ValidationError("state-price density must be finite and strictly positive")
    out: dict[str, list[float]] = {}
    for u in range(tree.n_nodes):
        kids = tree.children_index[u]
        if kids:
            out[tree.ids[u]] = [float(q[c] * z[c] / z[u]) for c in kids]
    return out
