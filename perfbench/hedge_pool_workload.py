"""`hedge_pool` workload: hedging against a market and pooling risk.

The nested solves of ``treeval.market`` and ``treeval.risksharing`` do the
work here; they call the backward sweep only as their objective.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import oracles
from harness import Op, Workload
from inputs import full_tree_records, random_shape_records, weighted
from treeval.dual import DualSolverOptions
from treeval.families import entropic_family, entropic_params, worst_case_family, worst_case_params
from treeval.market import check_market_axioms, market, market_value
from treeval.risksharing import check_sharing_axioms, share_value, stability_check
from treeval.tree import CashBalance, NodeRecord

SIZES = {
    # lattice depth, passes
    "full": {"lattice_depth": 3, "passes": 10},
    "toy": {"lattice_depth": 2, "passes": 2},
}
# One pass of the closed loop, then one call of each axiom suite.  Lattice
# hedges, the least input-dependent op, make up almost half of a pass.
# The two-asset hedge takes from a fraction of a second to close to a
# minute depending on its random prices, so each traced run makes one,
# after the passes (see Workload.once).
PASS = (
    ("market.hedge.lattice", 4),
    ("risksharing.pool_dual", 1),
    ("risksharing.pool_direct.d1", 1),
    ("risksharing.pool_direct.d2", 1),
)
POOL_OPTS = DualSolverOptions(tolerance=1e-11)   # criterion 04
SHARING_AXIOM_RECORDS = [NodeRecord("root", None, 0.2), NodeRecord("up", "root", 0.4),
                         NodeRecord("down", "root", 0.4)]   # criterion 05's tree


def _lattice_records(depth: int) -> tuple[list[NodeRecord], dict]:
    """Criterion 10's lattice: full binary tree, equal weights, one asset
    that doubles on an up move and halves on a down move.  Hedged with
    criterion 10's gamma = 1 against a random balance."""
    pairs = full_tree_records(2, depth)
    n = len(pairs)
    records = [NodeRecord(i, p, 1.0 / n) for i, p in pairs]
    prices = {i: float(2.0 ** i.count("a") * 0.5 ** i.count("b")) for i, _ in pairs}
    return records, {"s": prices}


def _martingale_prices(rng, tree, n_assets: int) -> np.ndarray:
    """Random positive prices that are martingales under a random strictly
    positive transition law, so the market admits no arbitrage: at each
    node every asset's child prices are independent log-normal moves (log
    standard deviation ln 2, the size of criterion 10's up and down moves)
    rescaled so that their expectation under that law is the parent price."""
    prices = np.zeros((n_assets, tree.n_nodes))
    prices[:, tree.root_index] = rng.uniform(0.5, 2.0, n_assets)
    for u in np.asarray(tree.preorder):
        kids = list(tree.children_index[u])
        if not kids:
            continue
        q = rng.dirichlet(np.full(len(kids), 4.0))
        raw = np.exp(rng.normal(0.0, np.log(2.0), (n_assets, len(kids))))
        prices[:, kids] = prices[:, [u]] * raw / (raw @ q)[:, None]
    return prices


def _shift_field(name):
    return lambda out, d: dataclasses.replace(out, **{name: getattr(out, name) + d})


def setup(seed: int, workdir, timers, size: str = "full") -> Workload:
    cfg = SIZES[size]
    rng = np.random.default_rng(seed)
    wl = Workload("hedge_pool")

    def hedge_op(kind: str, records, tree, prices: np.ndarray, names, gamma: float) -> Op:
        mkt = market(tree, {nm: dict(zip(tree.ids, map(float, row))) for nm, row in zip(names, prices)})
        params = entropic_params(tree, gamma)
        family = entropic_family(params)
        wl.families.append(family)
        cash = rng.uniform(-1.0, 1.0, tree.n_nodes)
        balance = CashBalance(tree, cash)
        ref = params.reference

        def run():
            with wl.tracer.span("market.hedge"):
                return market_value(family, mkt, tree.root, balance)

        def check(res):
            hedged = cash + oracles.gains_of(tree, mkt.prices, tree.root_index, res.strategy.holdings)
            value = oracles.entropic_subtree_value(tree, gamma, ref, tree.root_index, hedged)
            unhedged = oracles.entropic_subtree_value(tree, gamma, ref, tree.root_index, cash)
            if not res.value >= unhedged - oracles.RECOMPUTE_TOL:
                return f"hedged value {res.value!r} below the unhedged value {unhedged!r}"
            return oracles.check_close(res.value, value, oracles.RECOMPUTE_TOL, "hedge value vs its strategy's gains")

        return Op(kind, run, check, _shift_field("value"),
                  lambda: {"seed": seed, "nodes": [[r.id, r.parent, r.weight] for r in records],
                           "prices": prices.tolist(), "gamma": gamma, "cash": cash.tolist()})

    def lattice_op() -> Op:
        records, table = _lattice_records(cfg["lattice_depth"])
        prices = np.array([[table["s"][r.id] for r in records]])
        return hedge_op("market.hedge.lattice", records, timers.build(records), prices, ["s"], 1.0)

    def two_asset_op() -> Op:
        records = weighted(rng, full_tree_records(3, 2))
        tree = timers.build(records)
        prices = _martingale_prices(rng, tree, 2)
        return hedge_op("market.hedge.two_asset", records, tree, prices, ["a", "b"], float(rng.uniform(0.5, 1.5)))

    def pool_dual_op() -> Op:
        records = weighted(rng, random_shape_records(rng, max_depth=3))
        tree = timers.build(records)
        subs = []
        for _ in range(int(rng.integers(2, 4))):
            raw = rng.uniform(0.1, 1.0, tree.n_nodes)
            subs.append(entropic_params(tree, float(rng.uniform(0.5, 2.5)), raw / raw.sum()))
        cash = rng.uniform(-2.0, 2.0, tree.n_nodes)
        balance = CashBalance(tree, cash)

        def run():
            with wl.tracer.span("risksharing.pool_dual"):
                res = share_value(subs, tree.root, balance, POOL_OPTS, method="dual")
            with wl.tracer.span("risksharing.stability"):
                worst = max(stability_check(subs, res.allocation, node_id) for node_id in tree.ids)
            return res, worst

        def check(out):
            res, worst = out
            target = oracles.pooled_entropic_value(tree, [s.gamma for s in subs],
                                                   [s.reference for s in subs], tree.root_index, cash)
            feasibility = float(np.max(np.abs(sum(a.values for a in res.allocation) - cash)))
            if not feasibility <= oracles.FEASIBILITY_TOL:
                return f"pooled allocation misses the balance by {feasibility:.3e}"
            if not worst <= oracles.STABILITY_TOL:
                return f"stability residual {worst:.3e} above {oracles.STABILITY_TOL:.0e}"
            return oracles.check_close(res.value, target, oracles.POOL_TOL, "pooled value vs closed form")

        def corrupt(out, delta):
            res, worst = out
            return dataclasses.replace(res, value=res.value + delta), worst + delta

        return Op("risksharing.pool_dual", run, check, corrupt,
                  lambda: {"seed": seed, "nodes": [[r.id, r.parent, r.weight] for r in records],
                           "subsidiaries": [{"gamma": s.gamma, "reference": s.reference.tolist()} for s in subs],
                           "cash": cash.tolist()})

    def pool_direct_op(depth: int) -> Op:
        records = weighted(rng, full_tree_records(2, depth))
        tree = timers.build(records)
        gamma = float(rng.uniform(0.5, 2.0))
        ent = entropic_params(tree, gamma)
        alpha = {tree.ids[u]: rng.dirichlet([2.0, 2.0]).tolist()
                 for u in range(tree.n_nodes) if not tree.is_leaf[u]}
        worst = worst_case_family(worst_case_params(tree, {k: [v] for k, v in alpha.items()}, stopping=True))
        wl.families.append(worst)
        subs = [ent, worst]
        cash = rng.uniform(-2.0, 2.0, tree.n_nodes)
        balance = CashBalance(tree, cash)
        ref = ent.reference
        root = tree.root_index

        def run():
            with wl.tracer.span("risksharing.pool_direct"):
                return share_value(subs, tree.root, balance, method="direct")

        def check(res):
            pieces = [a.values for a in res.allocation]
            feasibility = float(np.max(np.abs(sum(pieces) - cash)))
            if not feasibility <= oracles.FEASIBILITY_TOL:
                return f"pooled allocation misses the balance by {feasibility:.3e}"
            achieved = (oracles.entropic_subtree_value(tree, gamma, ref, root, pieces[0])
                        + oracles.worst_stop_value(tree, alpha, root, pieces[1]))
            err = oracles.check_close(res.value, achieved, oracles.RECOMPUTE_TOL, "pooled value vs its allocation")
            if err:
                return err
            alone = max(oracles.entropic_subtree_value(tree, gamma, ref, root, cash),
                        oracles.worst_stop_value(tree, alpha, root, cash))
            if not res.value >= alone - oracles.RECOMPUTE_TOL:
                return f"pooled value {res.value!r} below an unpooled split {alone!r}"
            return None

        return Op(f"risksharing.pool_direct.d{depth}", run, check, _shift_field("value"),
                  lambda: {"seed": seed, "nodes": [[r.id, r.parent, r.weight] for r in records],
                           "gamma": gamma, "alpha": alpha, "cash": cash.tolist()})

    def market_axioms_op() -> Op:
        records, table = _lattice_records(2)
        tree = timers.build(records)
        mkt = market(tree, table)
        family = entropic_family(entropic_params(tree, float(rng.uniform(0.5, 1.5))))
        wl.families.append(family)
        trial_seed = int(rng.integers(2**31))

        def run():
            with wl.tracer.span("market.check_axioms"):
                return check_market_axioms(family, mkt, trials=1, seed=trial_seed, cash_range=(-2.0, 2.0))

        return Op("market.check_axioms", run, oracles.check_axiom_report, oracles.shifted_report,
                  lambda: {"seed": seed, "trial_seed": trial_seed})

    def sharing_axioms_op() -> Op:
        # criterion 05's mixed pair, the one the library's numeric pooled
        # path is certified on; the trial's cash comes from the seed.  Drawn
        # at random, the pair fails dynamic consistency on rare draws (see
        # "A known failure" in README.md).
        tree = timers.build(SHARING_AXIOM_RECORDS)
        mixed = [entropic_params(tree, 1.0),
                 worst_case_family(worst_case_params(tree, {tree.root: [[0.5, 0.5]]}, stopping=True))]
        wl.families.append(mixed[1])
        trial_seed = int(rng.integers(2**31))

        def run():
            with wl.tracer.span("risksharing.check_axioms"):
                return check_sharing_axioms(mixed, trials=1, seed=trial_seed, cash_range=(-2.0, 2.0))

        return Op("risksharing.check_axioms", run, oracles.check_axiom_report, oracles.shifted_report,
                  lambda: {"seed": seed, "trial_seed": trial_seed})

    build = {
        "market.hedge.lattice": lattice_op,
        "risksharing.pool_dual": pool_dual_op,
        "risksharing.pool_direct.d1": lambda: pool_direct_op(1),
        "risksharing.pool_direct.d2": lambda: pool_direct_op(2),
    }
    for _ in range(cfg["passes"]):
        ops = [build[kind]() for kind, repeats in PASS for _ in range(repeats)]
        wl.passes.append(ops + [market_axioms_op(), sharing_axioms_op()])
    wl.once = [two_asset_op()]
    return wl
