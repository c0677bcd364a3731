import gc
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeval
from treeval import optim, valuation
from helpers import (
    binary_tree,
    global_hedge_value,
    random_cash,
    random_tree,
    three_node_tree,
    trinomial_tree,
)
from treeval.dual import DualSolverOptions
from treeval.errors import DivergenceError, TreevalError, ValidationError
from treeval.families import (
    CRRAUtility,
    ExponentialUtility,
    entropic_family,
    entropic_params,
    entropic_value,
    ui_family,
    ui_params,
    worst_case_family,
    worst_case_params,
)
from treeval.market import (
    Strategy,
    check_gains_axioms,
    check_market_axioms,
    extract_state_price_density,
    gains,
    hedged_family,
    market,
    market_value,
    synthesize_one_step_prices,
)
from treeval.market import _hedge, _moves
from treeval.tree import CashBalance, NodeRecord, build_tree
from treeval.valuation import Block, ValuationFamily, _sup_kernel, assemble, linear_one_step


def golden_max(f, lo, hi, iters=200):
    """Independent 1-d concave maximizer (golden-section search)."""
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    return 0.5 * (a + b), f(0.5 * (a + b))


def binomial_market():
    t = three_node_tree((0.2, 0.4, 0.4))
    return t, market(t, {"s": {"root": 1.0, "up": 2.0, "down": 0.5}})


def depth2_market():
    t = binary_tree(2, weights=[0.1, 0.2, 0.2, 0.125, 0.125, 0.125, 0.125])
    prices = {"r": 1.0, "u": 2.0, "d": 0.5, "uu": 4.0, "ud": 1.0, "du": 1.0, "dd": 0.25}
    return t, market(t, {"s": prices})


class TestGains:
    def test_zero_strategy(self):
        t, mkt = depth2_market()
        holdings = {n: np.zeros(1) for n in ("r", "u", "d")}
        assert np.all(gains(mkt, "r", Strategy(holdings)).values == 0.0)

    def test_constant_price_gives_zero_gains(self):
        t = three_node_tree()
        mkt = market(t, {"flat": {n: 3.0 for n in t.ids}})
        g = gains(mkt, "root", Strategy({"root": np.array([17.0])}))
        assert np.all(g.values == 0.0)

    def test_one_period_edge_arithmetic(self):
        t, mkt = binomial_market()
        g = gains(mkt, "root", Strategy({"root": np.array([1.0])}))
        assert g.as_mapping() == {"root": 0.0, "up": 1.0, "down": -0.5}

    def test_zero_off_subtree_and_at_start(self):
        t, mkt = depth2_market()
        g = gains(mkt, "u", Strategy({"u": np.array([2.0])}))
        assert g.value_at("u") == 0.0
        for off in ("r", "d", "du", "dd"):
            assert g.value_at(off) == 0.0
        assert g.value_at("uu") == pytest.approx(2.0 * (4.0 - 2.0), abs=1e-15)

    def test_missing_holdings_rejected(self):
        t, mkt = depth2_market()
        with pytest.raises(ValidationError, match="missing holdings"):
            gains(mkt, "r", Strategy({"r": np.array([1.0])}))


class TestGainsAxioms:
    def test_exact_on_fixed_market(self):
        # every internal start node: stopping times sampled below a later
        # start node must still stop the paths that miss it
        t, mkt = depth2_market()
        for i in t.internal_indices():
            report = check_gains_axioms(mkt, t.ids[i], trials=100, seed=3)
            assert report.all_passed, (t.ids[i], report.as_dict())
            assert report.decomposition_residual <= 1e-12

    def test_exact_on_random_markets(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            t = random_tree(np.random.default_rng(seed + 80), max_depth=3)
            prices = {f"a{k}": {n: float(rng.uniform(0.5, 2.0)) for n in t.ids} for k in range(2)}
            mkt = market(t, prices)
            for i in t.internal_indices():
                report = check_gains_axioms(mkt, t.ids[i], trials=30, seed=seed)
                assert report.all_passed, (t.ids[i], report.as_dict())

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_validated(self, trials):
        _, mkt = depth2_market()
        with pytest.raises(ValidationError, match="trials must be >= 1"):
            check_gains_axioms(mkt, "r", trials=trials, seed=0)


class TestMarketValue:
    def test_constant_prices_change_nothing(self):
        t = three_node_tree()
        mkt = market(t, {"flat": {n: 1.0 for n in t.ids}})
        fam = entropic_family(entropic_params(t, 1.0))
        k = CashBalance.from_mapping(t, {"root": 0.0, "up": 1.0, "down": -1.0})
        res = market_value(fam, mkt, "root", k)
        assert res.value == pytest.approx(fam.value("root", k), abs=1e-9)
        assert res.access_value == pytest.approx(0.0, abs=1e-9)

    def test_binomial_access_value_matches_golden_section(self):
        t, mkt = binomial_market()
        fam = entropic_family(entropic_params(t, 1.0))
        res = market_value(fam, mkt, "root", CashBalance.constant(t, 0.0),
                           DualSolverOptions(gradient_tolerance=1e-8))

        def objective(theta):
            return -np.log(0.2 + 0.4 * np.exp(-theta) + 0.4 * np.exp(theta / 2.0))

        theta_star, oracle = golden_max(objective, -5.0, 5.0)
        assert res.access_value == pytest.approx(oracle, abs=1e-9)
        assert res.access_value > 0
        assert res.strategy.holdings["root"][0] == pytest.approx(theta_star, abs=1e-5)

    def test_offsetting_an_attainable_gain_is_free(self):
        t, mkt = depth2_market()
        fam = entropic_family(entropic_params(t, 1.0))
        theta = Strategy({"r": np.array([0.7]), "u": np.array([-0.3]), "d": np.array([1.1])})
        k = CashBalance(t, -gains(mkt, "r", theta).values)
        res = market_value(fam, mkt, "r", k, DualSolverOptions(gradient_tolerance=1e-8))
        assert res.value == pytest.approx(res.access_value, abs=1e-6)
        assert res.normalized == pytest.approx(0.0, abs=1e-6)

    def test_offset_invariance_of_normalized_values(self):
        t, mkt = depth2_market()
        fam = entropic_family(entropic_params(t, 1.0))
        rng = np.random.default_rng(4)
        opts = DualSolverOptions(gradient_tolerance=1e-8)
        k = random_cash(rng, t, -2, 2)
        theta = Strategy({n: rng.normal(size=1) for n in ("r", "u", "d")})
        shifted = CashBalance(t, k.values + gains(mkt, "r", theta).values)
        a = market_value(fam, mkt, "r", k, opts)
        b = market_value(fam, mkt, "r", shifted, opts)
        assert a.normalized == pytest.approx(b.normalized, abs=1e-6)

    def test_access_value_never_negative(self):
        rng = np.random.default_rng(31)
        for seed in range(4):
            t = random_tree(np.random.default_rng(seed + 100), max_depth=3)
            prices = {"s": {n: float(rng.uniform(0.5, 2.0)) for n in t.ids}}
            fam = entropic_family(entropic_params(t, 1.0))
            res = market_value(fam, market(t, prices), t.root, random_cash(rng, t, -1, 1))
            assert res.access_value >= -1e-10

    def test_arbitrage_relative_to_linear_family_diverges(self):
        t, mkt = binomial_market()
        fam = assemble(t, {"root": linear_one_step([0.5, 0.5])})
        with pytest.raises(DivergenceError) as err:
            market_value(fam, mkt, "root", CashBalance.constant(t, 0.0))
        assert err.value.direction is not None


def lattice_market(depth):
    """Criterion 10's lattice: equal weights, one asset that doubles on an
    up move and halves on a down move."""
    t = binary_tree(depth)
    return t, market(t, {"s": {n: 2.0 ** n.count("u") * 0.5 ** n.count("d") for n in t.ids}})


def two_asset_market():
    """Trinomial tree of depth 1 with two assets whose price moves span no
    arbitrage: three children and two independent assets make a complete
    market, with martingale measure q of about (0.38, 0.14, 0.48)."""
    t = trinomial_tree(1)
    return t, market(t, {"x": {"r": 1.0, "a": 1.5, "b": 1.0, "c": 0.6},
                         "y": {"r": 1.0, "a": 0.8, "b": 1.2, "c": 1.1}})


class TestHedgedFamily:
    @pytest.mark.parametrize("build", [lambda: lattice_market(2), lambda: lattice_market(3),
                                       two_asset_market], ids=["lattice2", "lattice3", "two_asset"])
    def test_per_node_hedge_matches_the_global_search(self, build):
        t, mkt = build()
        fam = entropic_family(entropic_params(t, 1.0))
        k = random_cash(np.random.default_rng(t.n_nodes), t, -1.0, 1.0)
        res = market_value(fam, mkt, t.root, k)
        assert res.converged
        assert res.value == pytest.approx(global_hedge_value(fam, mkt, t.root, k), abs=1e-8)

    def test_strategy_reproduces_the_value(self):
        t, mkt = lattice_market(3)
        fam = entropic_family(entropic_params(t, 1.0))
        k = random_cash(np.random.default_rng(2), t, -1.0, 1.0)
        res = market_value(fam, mkt, "u", k)
        hedged = CashBalance(t, k.values + gains(mkt, "u", res.strategy).values)
        assert fam.value("u", hedged) == pytest.approx(res.value, abs=1e-12)
        assert sorted(res.strategy.holdings) == ["u", "ud", "uu"]

    def test_hedged_family_is_swept_like_any_family(self):
        t, mkt = lattice_market(2)
        fam = entropic_family(entropic_params(t, 1.0))
        hedged = hedged_family(fam, mkt)
        assert isinstance(hedged, ValuationFamily)
        k = random_cash(np.random.default_rng(5), t, -1.0, 1.0)
        assert hedged.value("r", k) == pytest.approx(market_value(fam, mkt, "r", k).value, abs=1e-12)

    def test_divergence_names_its_node(self):
        t, mkt = binomial_market()
        fam = assemble(t, {"root": linear_one_step([0.5, 0.5])})
        with pytest.raises(DivergenceError, match="'root'") as err:
            hedged_family(fam, mkt).value("root", CashBalance.constant(t, 0.0))
        assert err.value.direction is not None

    def test_divergence_off_the_root_comes_from_the_per_row_fallback(self, monkeypatch):
        # both of u's children are priced above u, an arbitrage; d's moves
        # are a martingale under its weights.  An entropic family this close
        # to risk neutrality values the arbitrage at about -log(weight)/gamma,
        # so Newton's first step at u leaves the divergence bound, and the
        # per-row ascent it hands the row to runs away
        t = binary_tree(2)
        mkt = market(t, {"s": {"r": 1.0, "u": 2.0, "d": 0.5, "uu": 3.0, "ud": 2.5,
                               "du": 0.75, "dd": 0.25}})
        fam = entropic_family(entropic_params(t, 1e-6))
        fallback = []
        sup = optim.sup

        def recorded(*args, **kwargs):
            fallback.append(sup(*args, **kwargs))
            return fallback[-1]

        monkeypatch.setattr(optim, "sup", recorded)
        with pytest.raises(DivergenceError, match="at 'u'") as err:
            market_value(fam, mkt, "r", CashBalance.constant(t, 0.0))
        assert err.value.direction is not None and err.value.direction[0] > 0
        assert fallback and all(res.diverged for res in fallback)

    @pytest.mark.parametrize("kind", ["lattice3", "two_asset", "custom"])
    def test_blocks_match_the_inner_family(self, kind):
        t, mkt = {"lattice3": lambda: lattice_market(3), "two_asset": two_asset_market,
                  "custom": binomial_market}[kind]()
        fam = (assemble(t, {"root": linear_one_step([0.2, 0.8])}) if kind == "custom"
               else entropic_family(entropic_params(t, 1.0)))
        hedged = hedged_family(fam, mkt)
        assert len(hedged.blocks) == len(fam.blocks)
        for outer, inner in zip(hedged.blocks, fam.blocks):
            assert np.array_equal(outer.nodes, inner.nodes) and np.array_equal(outer.kids, inner.kids)
            assert outer.kernel.descriptor == f"hedged({inner.kernel.descriptor})"


def martingale_market(rng, tree, n_assets):
    """Random positive prices that are martingales under a random strictly
    positive transition law, so the market admits no arbitrage."""
    prices = np.zeros((n_assets, tree.n_nodes))
    prices[:, tree.root_index] = rng.uniform(0.5, 2.0, n_assets)
    for u in tree.preorder.tolist():
        kids = list(tree.children_index[u])
        if kids:
            q = rng.dirichlet(np.full(len(kids), 4.0))
            raw = np.exp(rng.normal(0.0, 0.5, (n_assets, len(kids))))
            prices[:, kids] = prices[:, [u]] * raw / (raw @ q)[:, None]
    return market(tree, {f"a{j}": dict(zip(tree.ids, row)) for j, row in enumerate(prices)})


class TestEnvelopePartials:
    @pytest.mark.parametrize("n_assets", [1, 2])
    def test_hedged_gradient_is_the_inner_gradient_at_the_hedged_balance(self, n_assets):
        # envelope theorem: the optimal positions do not move the value to
        # first order, so the hedged node's gradient is the inner family's
        # at the balance plus the optimal gains
        rng = np.random.default_rng(40 + n_assets)
        for _ in range(6):
            t = random_tree(rng, max_depth=3, max_branching=3)
            mkt = martingale_market(rng, t, n_assets)
            fam = entropic_family(entropic_params(t, float(rng.uniform(0.5, 2.0))))
            k = random_cash(rng, t, -1.0, 1.0)
            xi = int(rng.choice(list(t.internal_indices())))
            res = market_value(fam, mkt, t.ids[xi], k)
            assert res.converged
            hedged = k.values + gains(mkt, t.ids[xi], res.strategy).values
            values, grad = hedged_family(fam, mkt).values_and_gradient(k.values, xi)
            assert values[xi] == pytest.approx(res.value, abs=1e-12)
            assert np.max(np.abs(grad - fam.values_and_gradient(hedged, xi)[1])) <= 1e-9

    @pytest.mark.parametrize("stopping", [False, True])
    def test_a_kinked_hedge_differences_its_partials(self, stopping):
        # a worst-case hedge stops where two distributions tie, and the
        # inner partials there are one of them; the hedged value prices
        # the children by the one martingale measure between them, (.5, .5)
        t = three_node_tree((0.2, 0.4, 0.4))
        wc = worst_case_family(worst_case_params(t, {"root": [[0.3, 0.7], [0.7, 0.3]]}, stopping=stopping))
        hedged = hedged_family(wc, market(t, {"s": {"root": 1.0, "up": 1.2, "down": 0.8}}))
        assert hedged.blocks[0].kernel.grad is None
        grad = hedged.values_and_gradient(np.array([0.1, 0.3, -0.4]), t.root_index)[1]
        assert grad == pytest.approx([0.0, 0.5, 0.5], abs=1e-6)


def ill_conditioned_two_asset_market():
    """Trinomial tree of depth 2 with two martingale assets whose moves out
    of node b are nearly parallel (singular values 2.96 and 2.8e-3), with
    its gamma and a balance: a hedge that stalled finite-difference steepest
    ascent short of its optimum."""
    records = [("r", None, 0.12867992299406716), ("a", "r", 0.12909258381479416),
               ("aa", "a", 0.08799103568582245), ("ab", "a", 0.05575143143713984),
               ("ac", "a", 0.02318223173425935), ("b", "r", 0.06945603370145156),
               ("ba", "b", 0.07298225689842404), ("bb", "b", 0.021966454961716095),
               ("bc", "b", 0.022455618951984058), ("c", "r", 0.1559540290069111),
               ("ca", "c", 0.10724055360619299), ("cb", "c", 0.04854692999079098),
               ("cc", "c", 0.07670091721644627)]
    prices = [[1.9612792898888831, 3.108045304924694, 3.672796250849772, 2.1935842388105584,
               3.4462474266542498, 2.0272768092405435, 2.8009596397205874, 2.8215657478940033,
               0.6898880551480526, 1.4075613501723803, 0.7549475274968014, 2.747210925180077,
               0.7945178614295234],
              [1.8465164121628233, 2.4752094088733667, 1.6675852092531296, 1.3888402234969082,
               4.152197638238803, 3.3121501277437577, 2.250818820948341, 2.2161913082188303,
               5.154644696331144, 0.5966221265002072, 0.7848611647358621, 0.7825199962406582,
               0.28695672922725246]]
    cash = [-0.7858210077254271, 0.38444454928965976, 0.27077359978142157, -0.24697494882461557,
            0.597046691612211, -0.6119490479859109, -0.21908217240455685, 0.595867772194042,
            -0.2390492587133528, 0.42651572824890427, 0.22503560833062375, 0.8820019504852037,
            0.9833534339803927]
    t = build_tree([NodeRecord(*r) for r in records])
    mkt = market(t, {name: dict(zip(t.ids, row)) for name, row in zip(("x", "y"), prices)})
    return t, mkt, 1.140940141481311, CashBalance(t, cash)


class TestIllConditionedHedge:
    def test_converges_to_a_value_its_strategy_reproduces(self):
        t, mkt, gamma, k = ill_conditioned_two_asset_market()
        params = entropic_params(t, gamma)
        res = market_value(entropic_family(params), mkt, t.root, k)
        assert res.converged
        hedged = CashBalance(t, k.values + gains(mkt, t.root, res.strategy).values)
        assert entropic_value(params, t.root, hedged) == pytest.approx(res.value, abs=1e-9)
        assert res.value >= entropic_value(params, t.root, k)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_market_value_is_reproduced_by_its_strategy_or_raises(data):
    # random trees, prices (arbitrage allowed) and cash: every call raises a
    # TreevalError or returns finite numbers whose strategy's gains give
    # back the value, which is no lower than the unhedged value
    t = random_tree(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), max_depth=3,
                    max_branching=3)
    n_assets = data.draw(st.integers(1, 2))
    prices = data.draw(st.lists(st.floats(0.25, 4.0), min_size=n_assets * t.n_nodes,
                                max_size=n_assets * t.n_nodes))
    cash = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=t.n_nodes, max_size=t.n_nodes))
    gamma = data.draw(st.floats(0.2, 3.0))
    x = t.ids[data.draw(st.integers(0, t.n_nodes - 1))]
    mkt = market(t, {f"a{j}": dict(zip(t.ids, prices[j * t.n_nodes:(j + 1) * t.n_nodes]))
                     for j in range(n_assets)})
    fam = entropic_family(entropic_params(t, gamma))
    k = CashBalance(t, np.array(cash))
    try:
        res = market_value(fam, mkt, x, k)
    except TreevalError:
        return
    assert np.isfinite([res.value, res.normalized, res.access_value]).all()
    assert all(np.isfinite(v).all() for v in res.strategy.holdings.values())
    hedged = CashBalance(t, k.values + gains(mkt, x, res.strategy).values)
    assert abs(fam.value(x, hedged) - res.value) <= 1e-9
    assert res.value >= fam.value(x, k)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_market_value_of_other_families_is_finite_or_raises(data):
    # random one-asset binomial lattices of depth 1 or 2, whose price moves
    # by the same factors out of every node, on either side of 1 or not;
    # CRRA and exponential indifference, and worst-case families with and
    # without stopping: every call raises a TreevalError or returns finite
    # numbers
    depth = data.draw(st.integers(1, 2))
    n = 2 ** (depth + 1) - 1
    weights = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    t = binary_tree(depth, weights=weights / weights.sum())
    up, down = data.draw(st.floats(0.5, 2.5)), data.draw(st.floats(0.4, 1.6))
    mkt = market(t, {"s": {x: up ** x.count("u") * down ** x.count("d") for x in t.ids}})
    k = CashBalance(t, np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))))
    x = t.ids[data.draw(st.integers(0, n - 1))]
    gamma = data.draw(st.floats(0.3, 2.0))
    kind = data.draw(st.sampled_from(["crra", "exponential", "worst", "worst_stopping"]))
    if kind == "crra":
        fam = ui_family(ui_params(t, CRRAUtility(data.draw(st.sampled_from([0.5, 2.0, 3.0]))),
                                  data.draw(st.floats(0.5, 10.0))))
    elif kind == "exponential":
        fam = ui_family(ui_params(t, ExponentialUtility(gamma), data.draw(st.floats(-5.0, 5.0))))
    else:
        alphas = {t.ids[i]: [[a, 1.0 - a] for a in data.draw(st.lists(st.floats(0.05, 0.95), min_size=1,
                                                                       max_size=2))]
                  for i in t.internal_indices()}
        fam = worst_case_family(worst_case_params(t, alphas, stopping=kind == "worst_stopping"))
    try:
        res = market_value(fam, mkt, x, k)
    except TreevalError:
        return
    assert np.isfinite([res.value, res.normalized, res.access_value]).all()
    assert all(np.isfinite(v).all() for v in res.strategy.holdings.values())
    if kind == "exponential" and down < 1.0 < up:
        # exponential indifference is the entropic valuation at the same
        # gamma.  With a martingale measure out of every node each hedge's
        # sup is attained, and both take it by the martingale rule; without
        # one it is approached only as the position grows, and where each
        # solve stops on its gradient test sets the last digits.
        ent = market_value(entropic_family(entropic_params(t, gamma)), mkt, x, k)
        assert abs(res.value - ent.value) <= 1e-12
        assert abs(res.access_value - ent.access_value) <= 1e-12


def test_hedging_never_imports_scipy_optimize():
    # importing scipy.optimize alone roughly triples a process's peak RSS,
    # so well-posed smooth hedges must finish by the martingale rule, in the
    # batched Newton stage or in the per-row BFGS, never in Nelder-Mead.
    # The lattice's exponential hedges take the rule, its CRRA hedges the
    # Newton stage
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from treeval.families import CRRAUtility, entropic_family, entropic_params, ui_family, ui_params
        from treeval.market import check_market_axioms, market, market_value
        from treeval.tree import CashBalance, NodeRecord, build_tree

        ids = ["r", "u", "d"] + [a + b for a in ("u", "d") for b in "ud"]
        ids += [a + b for a in ids[3:] for b in "ud"]
        tree = build_tree([NodeRecord(i, None if i == "r" else (i[:-1] or "r"), 1.0 / len(ids))
                           for i in ids])
        mkt = market(tree, {"s": {i: 2.0 ** i.count("u") * 0.5 ** i.count("d") for i in ids}})
        family = entropic_family(entropic_params(tree, 1.0))
        cash = CashBalance(tree, np.random.default_rng(0).uniform(-1.0, 1.0, tree.n_nodes))
        for family in (family, ui_family(ui_params(tree, CRRAUtility(2.0), 5.0))):
            assert market_value(family, mkt, "r", cash).converged
            assert check_market_axioms(family, mkt, trials=1, seed=3, cash_range=(-2.0, 2.0)).all_passed
        print("scipy.optimize" in sys.modules)
    """)
    src = str(Path(treeval.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=False,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def numeric_hedge(family, mkt, opts):
    """The hedge of the family by one-step sups at every level, even where
    the martingale rule covers the level: the oracle of the rule."""
    return ValuationFamily(mkt.tree, lambda: [
        Block(_sup_kernel(*_hedge(b.kernel), mkt.tree, opts), ((b.data, _moves(mkt, b)), b.nodes), b.nodes, b.kids)
        for b in family.blocks])


def counted_sups(monkeypatch):
    """The nodes solved by each call of ``valuation._one_step_sups`` from
    here on, by hedged blocks built after this call: ``market_value``'s
    only for a family and market first hedged after it, as the hedged
    family is built once per family, market and options."""
    calls, inner = [], valuation._one_step_sups

    def counted(lift, descriptor, smooth, tree, opts, data, *args):
        calls.append([tree.ids[u] for u in data[1]])
        return inner(lift, descriptor, smooth, tree, opts, data, *args)

    monkeypatch.setattr(valuation, "_one_step_sups", counted)
    return calls


def rule_case(kind):
    """(tree, market, family, balance) of a complete market with a strictly
    positive martingale measure out of every node, and an exponential
    family."""
    if kind == "ill_conditioned":
        t, mkt, gamma, k = ill_conditioned_two_asset_market()
        return t, mkt, entropic_family(entropic_params(t, gamma)), k
    t, mkt = {"lattice2": lambda: lattice_market(2), "lattice3": lambda: lattice_market(3),
              "two_asset": two_asset_market, "ui_exponential": lambda: lattice_market(3)}[kind]()
    fam = (ui_family(ui_params(t, ExponentialUtility(0.7), 2.0)) if kind == "ui_exponential"
           else entropic_family(entropic_params(t, 1.0)))
    return t, mkt, fam, random_cash(np.random.default_rng(t.n_nodes), t, -1.0, 1.0)


class TestMartingaleRule:
    @pytest.mark.parametrize("kind", ["lattice2", "lattice3", "two_asset", "ill_conditioned", "ui_exponential"])
    def test_matches_the_numeric_hedge_with_no_sup(self, monkeypatch, kind):
        t, mkt, fam, k = rule_case(kind)
        opts = DualSolverOptions(gradient_tolerance=1e-11)
        calls = counted_sups(monkeypatch)
        hedged = hedged_family(fam, mkt, opts)
        rows = np.random.default_rng(3).uniform(-2.0, 2.0, (4, t.n_nodes))
        values = hedged.node_values(rows)
        res = market_value(fam, mkt, t.root, k, opts)
        assert calls == []
        assert np.max(np.abs(values - numeric_hedge(fam, mkt, opts).node_values(rows))) <= 1e-12
        assert len(calls) == len(fam.blocks)
        assert res.converged
        assert res.value == pytest.approx(hedged.value(t.root, k), abs=1e-12)
        assert res.access_value == pytest.approx(hedged.value(t.root, CashBalance.constant(t, 0.0)), abs=1e-12)

    @pytest.mark.parametrize("kind", ["lattice2", "lattice3", "two_asset", "ill_conditioned", "ui_exponential"])
    def test_gradient_and_strategies(self, kind):
        # the partials (p_0, (1 - p_0) q) against central differences of the
        # values, and the positions of every start node against the value
        # their gains give
        t, mkt, fam, k = rule_case(kind)
        hedged = hedged_family(fam, mkt)
        h = 1e-6
        bump = np.eye(t.n_nodes) * h
        for x in t.ids:
            xi = t.node_index(x)
            grad = hedged.values_and_gradient(k.values, xi)[1]
            fd = (hedged.node_values(k.values + bump)[:, xi] - hedged.node_values(k.values - bump)[:, xi]) / (2 * h)
            assert np.max(np.abs(grad - fd)) <= 1e-8
            res = market_value(fam, mkt, x, k)
            assert res.converged
            hedged_balance = CashBalance(t, k.values + gains(mkt, x, res.strategy).values)
            assert fam.value(x, hedged_balance) == pytest.approx(res.value, abs=1e-12)

    @pytest.mark.parametrize("kind", ["trinomial", "arbitrage", "crra", "worst_case"])
    def test_declined_blocks_take_the_one_step_sups(self, monkeypatch, kind):
        # a one-asset trinomial market is incomplete; the arbitrage lattice
        # has no martingale measure out of any node; CRRA and worst-case
        # kernels are not exponential
        if kind == "trinomial":
            t = trinomial_tree(1)
            mkt = market(t, {"s": {"r": 1.0, "a": 1.5, "b": 1.0, "c": 0.6}})
        elif kind == "arbitrage":
            t = binary_tree(2)
            mkt = market(t, {"s": {x: 2.016 ** x.count("u") * 1.015 ** x.count("d") for x in t.ids}})
        else:
            t, mkt = lattice_market(2)
        if kind == "crra":
            fam = ui_family(ui_params(t, CRRAUtility(2.0), 5.0))
        elif kind == "worst_case":
            fam = worst_case_family(worst_case_params(t, {t.ids[i]: [[0.3, 0.7], [0.6, 0.4]]
                                                          for i in t.internal_indices()}))
        else:
            fam = entropic_family(entropic_params(t, 0.5))
        calls = counted_sups(monkeypatch)
        hedged = hedged_family(fam, mkt)
        hedged.node_values(np.zeros(t.n_nodes))
        assert len(calls) == len(fam.blocks)
        assert all(b.kernel.descriptor == f"hedged({b_in.kernel.descriptor})"
                   for b, b_in in zip(hedged.blocks, fam.blocks))

    def test_the_rule_is_chosen_node_by_node(self, monkeypatch):
        # criterion 10's depth-3 lattice with the asset flat out of 'ud':
        # only 'ud' of its level is left to the one-step sups
        t, mkt = lattice_market(3)
        prices = dict(zip(t.ids, mkt.prices[0].tolist()))
        prices.update(udu=prices["ud"], udd=prices["ud"])
        mkt = market(t, {"s": prices})
        fam = entropic_family(entropic_params(t, 1.0))
        opts = DualSolverOptions(gradient_tolerance=1e-11)
        calls = counted_sups(monkeypatch)
        hedged = hedged_family(fam, mkt, opts)
        rows = np.random.default_rng(4).uniform(-2.0, 2.0, (4, t.n_nodes))
        values = hedged.node_values(rows)
        assert calls == [["ud"]]
        assert np.max(np.abs(values - numeric_hedge(fam, mkt, opts).node_values(rows))) <= 1e-12
        del calls[:]
        k = random_cash(np.random.default_rng(5), t, -1.0, 1.0)
        res = market_value(fam, mkt, t.root, k, opts)
        assert calls == [["ud"]]
        assert res.converged
        assert res.value == pytest.approx(hedged.value(t.root, k), abs=1e-12)
        assert res.access_value == pytest.approx(hedged.value(t.root, CashBalance.constant(t, 0.0)), abs=1e-12)
        assert fam.value(t.root, CashBalance(t, k.values + gains(mkt, t.root, res.strategy).values)) == \
            pytest.approx(res.value, abs=1e-12)

    @pytest.mark.parametrize("flat_sibling", [False, True])
    def test_a_sup_the_positions_only_approach_is_not_converged(self, flat_sibling):
        # both children of u are priced above it, an arbitrage that the
        # exponential one-step values ever closer to its own-cash bound
        # log 3 / gamma as the position grows: no position attains the sup,
        # so the numeric hedge stops short of it, unconverged.  So it is
        # where u's level block also holds d with a flat asset, whose M is
        # singular
        t = binary_tree(2)
        prices = {x: 2.016 ** x.count("u") * 1.015 ** x.count("d") for x in t.ids}
        if flat_sibling:
            prices.update(du=prices["d"], dd=prices["d"])
        res = market_value(entropic_family(entropic_params(t, 0.413)), market(t, {"s": prices}), "u",
                           CashBalance.constant(t, 0.0))
        assert not res.converged
        assert res.value < np.log(3.0) / 0.413

    def test_an_unattained_node_beside_a_martingale_one_is_not_converged(self, monkeypatch):
        # as above, with d priced so that its one-step market has a
        # martingale measure: the rule takes d, and u alone is a sup
        t = binary_tree(2)
        prices = {x: 2.016 ** x.count("u") * 1.015 ** x.count("d") for x in t.ids}
        prices.update(du=2.0 * prices["d"], dd=0.5 * prices["d"])
        fam, mkt = entropic_family(entropic_params(t, 0.413)), market(t, {"s": prices})
        calls = counted_sups(monkeypatch)
        res = market_value(fam, mkt, "u", CashBalance.constant(t, 0.0))
        assert not res.converged
        assert res.value < np.log(3.0) / 0.413
        assert ["u"] in calls and not any("d" in nodes for nodes in calls)
        assert market_value(fam, mkt, "d", CashBalance.constant(t, 0.0)).converged


def one_route_case(kind):
    """(tree, market, family, the start nodes whose hedge is attained) of a
    complete lattice (every node by the martingale rule), criterion 10's
    depth-3 lattice with the asset flat out of 'ud' (a level of both
    routes), an arbitrage out of 'u' beside a martingale out of 'd', and a
    CRRA family (every node a numeric sup)."""
    t, mkt = lattice_market(3 if kind == "mixed" else 2)
    prices = dict(zip(t.ids, mkt.prices[0].tolist()))
    if kind == "mixed":
        prices.update(udu=prices["ud"], udd=prices["ud"])
    elif kind == "unattained":
        prices.update(uu=4.0, ud=2.5)
    fam = (ui_family(ui_params(t, CRRAUtility(2.0), 5.0)) if kind == "crra"
           else entropic_family(entropic_params(t, 1.0)))
    attained = {"ud", "d"} if kind == "unattained" else set(t.ids)
    return t, market(t, {"s": prices}), fam, attained


def test_a_one_asset_crra_hedge_is_pinned_to_the_last_bit():
    # each one-step hedge searches one coordinate, where Newton's step is
    # -g / H exactly, however definiteness is decided: the value, the
    # access value and the positions are pinned bit for bit
    t, mkt = lattice_market(3)
    fam = ui_family(ui_params(t, CRRAUtility(2.0), 5.0))
    res = market_value(fam, mkt, t.root, random_cash(np.random.default_rng(12), t, -1.0, 1.0))
    assert res.converged
    assert (res.value, res.access_value) == (0.06489904702019236, 0.32260589170697285)
    assert {n: v.tolist() for n, v in res.strategy.holdings.items()} == {
        "r": [1.0868007760677578], "u": [0.47434078122928547], "uu": [0.5791923898128861],
        "ud": [0.039622140722699845], "d": [2.9794861374252233], "du": [0.6141017416520966],
        "dd": [5.421783714062997]}


@pytest.mark.parametrize("kind", ["martingale", "mixed", "unattained", "crra"])
def test_market_value_is_the_hedged_sweep_at_the_balance_and_at_zero(kind):
    # the value and the strategy come from one route: market_value's
    # values are those of the hedged family's own sweep, bit for bit
    t, mkt, fam, attained = one_route_case(kind)
    opts = DualSolverOptions(gradient_tolerance=1e-11)
    k = random_cash(np.random.default_rng(12), t, -1.0, 1.0)
    swept = hedged_family(fam, mkt, opts).node_values(np.stack([k.values, np.zeros(t.n_nodes)]))
    for xi in t.internal_indices():
        res = market_value(fam, mkt, t.ids[xi], k, opts)
        assert (res.value, res.access_value) == (swept[0, xi], swept[1, xi])
        assert res.converged == (t.ids[xi] in attained)


class TestMarketAxioms:
    def test_entropic_with_binomial_market(self):
        t, mkt = depth2_market()
        fam = entropic_family(entropic_params(t, 1.0))
        report = check_market_axioms(fam, mkt, trials=12, seed=5, cash_range=(-2.0, 2.0))
        assert report.all_passed, report.as_dict()
        assert report.worst_residual <= 1e-5

    def test_worst_case_family_reports_at_coarse_tolerance(self):
        t, mkt = binomial_market()
        fam = worst_case_family(worst_case_params(t, {"root": [[0.5, 0.5], [0.3, 0.7]]}))
        report = check_market_axioms(fam, mkt, trials=10, seed=6,
                                     tolerance=1e-3, cash_range=(-2.0, 2.0))
        assert report.check("Z").passed
        assert report.check("DC").worst_residual <= 1e-3


class TestStatePriceDensity:
    def test_reference_weights_give_unit_density(self):
        t, _ = depth2_market()
        prices = synthesize_one_step_prices(t, {n: 1.0 for n in t.ids})
        rec = extract_state_price_density(t, prices)
        assert max(abs(v - 1.0) for v in rec.zeta.values()) <= 1e-14

    def test_round_trip_recovers_density(self):
        rng = np.random.default_rng(12)
        for seed in range(20):
            t = random_tree(np.random.default_rng(seed), max_depth=4)
            zeta = {n: float(rng.uniform(0.2, 4.0)) for n in t.ids}
            zeta[t.root] = 1.0
            rec = extract_state_price_density(t, synthesize_one_step_prices(t, zeta))
            assert max(abs(rec.zeta[n] - zeta[n]) for n in t.ids) <= 1e-12

    def test_normalization_of_the_input_density(self):
        # synthesized weights only see ratios, so extraction recovers the
        # input scaled to 1 at the root
        t, _ = depth2_market()
        rng = np.random.default_rng(3)
        zeta = {n: float(rng.uniform(0.5, 2.0)) for n in t.ids}
        rec = extract_state_price_density(t, synthesize_one_step_prices(t, zeta))
        scale = zeta[t.root]
        assert max(abs(rec.zeta[n] - zeta[n] / scale) for n in t.ids) <= 1e-12

    def test_zero_weight_rejected_as_arbitrage(self):
        t, _ = binomial_market()
        with pytest.raises(ValidationError, match="no-arbitrage"):
            extract_state_price_density(t, {"root": [0.5, 0.0]})

    def test_infinite_pricing_weight_rejected(self):
        t = three_node_tree()
        with pytest.raises(ValidationError, match="finite"):
            extract_state_price_density(t, {"root": [np.inf, 0.5]})

    def test_infinite_density_rejected(self):
        t = three_node_tree()
        with pytest.raises(ValidationError, match="finite"):
            synthesize_one_step_prices(t, {"root": 1.0, "up": np.inf, "down": 1.0})

    def test_missing_node_rejected(self):
        t, _ = depth2_market()
        with pytest.raises(ValidationError, match="missing one-step"):
            extract_state_price_density(t, {"r": [0.5, 0.5]})


class TestMarketValidation:
    def test_asset_must_cover_all_nodes(self):
        t = three_node_tree()
        with pytest.raises(ValidationError, match="missing prices"):
            market(t, {"s": {"root": 1.0, "up": 2.0}})

    def test_need_at_least_one_asset(self):
        t = three_node_tree()
        with pytest.raises(ValidationError, match="at least one asset"):
            market(t, {})


@pytest.mark.parametrize("kind", ["market", "entropic", "worst", "ui"])
def test_markets_and_parameters_compare_and_hash_by_identity(kind):
    # their fields hold arrays (or dicts of arrays), so field-wise equality
    # raised numpy's ValueError and hashing a TypeError
    t, mkt = binomial_market()
    make = {"market": lambda: market(t, {"s": dict(zip(t.ids, mkt.prices[0].tolist()))}),
            "entropic": lambda: entropic_params(t, 1.0),
            "worst": lambda: worst_case_params(t, {"root": [[0.5, 0.5], [0.3, 0.7]]}),
            "ui": lambda: ui_params(t, CRRAUtility(2.0), 5.0)}[kind]
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b)
    assert len({a, b, a}) == 2


def counted_hedged_blocks(monkeypatch):
    """The number of ``market._hedged_block`` calls from here on."""
    calls, module = [], sys.modules["treeval.market"]   # the package's ``market`` is the function
    inner = module._hedged_block
    monkeypatch.setattr(module, "_hedged_block", lambda *args: calls.append(1) or inner(*args))
    return calls


def same_market_value(a, b) -> bool:
    """Whether two market values agree bit for bit."""
    return ((a.value, a.normalized, a.access_value, a.converged) == (b.value, b.normalized, b.access_value, b.converged)
            and a.strategy.holdings.keys() == b.strategy.holdings.keys()
            and all(np.array_equal(a.strategy.holdings[x], b.strategy.holdings[x]) for x in a.strategy.holdings))


class TestHedgedFamilyReuse:
    """The hedged family is built once per family, market and options."""

    @pytest.mark.parametrize("kind", ["martingale", "mixed", "unattained", "crra"])
    def test_a_later_call_at_another_balance_builds_nothing(self, monkeypatch, kind):
        t, mkt, fam, _ = one_route_case(kind)
        opts = DualSolverOptions(gradient_tolerance=1e-11)
        rng = np.random.default_rng(13)
        market_value(fam, mkt, t.root, random_cash(rng, t, -1.0, 1.0), opts)
        calls = counted_hedged_blocks(monkeypatch)
        k = random_cash(rng, t, -1.0, 1.0)
        for x in (t.root, "u"):
            warm = market_value(fam, mkt, x, k, DualSolverOptions(gradient_tolerance=1e-11))
            assert calls == []
            # a cold call: a fresh family on the same blocks has no hedge kept
            cold = market_value(ValuationFamily(t, lambda: fam.blocks), mkt, x, k, opts)
            assert len(calls) == len(fam.blocks)
            assert same_market_value(warm, cold)
            calls.clear()

    def test_a_new_market_other_options_or_another_family_rebuild(self, monkeypatch):
        t, mkt, fam, _ = one_route_case("mixed")
        k = random_cash(np.random.default_rng(14), t, -1.0, 1.0)
        hedged = hedged_family(fam, mkt)
        assert hedged_family(fam, mkt) is hedged
        assert hedged_family(fam, mkt, DualSolverOptions()) is hedged   # options compare by value
        calls = counted_hedged_blocks(monkeypatch)
        again = market(t, {"s": dict(zip(t.ids, mkt.prices[0].tolist()))})
        other = ValuationFamily(t, lambda: fam.blocks)
        for args in [(fam, again, None), (fam, again, DualSolverOptions(gradient_tolerance=1e-9)),
                     (other, again, DualSolverOptions(gradient_tolerance=1e-9))]:
            calls.clear()
            market_value(args[0], args[1], t.root, k, args[2])
            assert len(calls) == len(fam.blocks)
        # one entry per family: the last market and options replaced the first
        assert hedged_family(fam, mkt) is not hedged

    def test_the_market_axioms_reuse_the_hedged_family(self, monkeypatch):
        t, mkt = depth2_market()
        fam = entropic_family(entropic_params(t, 1.0))
        first = check_market_axioms(fam, mkt, trials=3, seed=5, cash_range=(-2.0, 2.0))
        calls = counted_hedged_blocks(monkeypatch)
        second = check_market_axioms(fam, mkt, trials=3, seed=5, cash_range=(-2.0, 2.0))
        assert calls == []
        assert first.as_dict() == second.as_dict()

    def test_the_valuations_and_the_axioms_share_one_hedged_family(self, monkeypatch):
        # both take the same default options, so alternating them builds
        # the hedged family once
        t, mkt = lattice_market(3)
        fam = entropic_family(entropic_params(t, 1.0))
        k = random_cash(np.random.default_rng(16), t, -1.0, 1.0)
        calls = counted_hedged_blocks(monkeypatch)
        for _ in range(3):
            market_value(fam, mkt, t.root, k)
            check_market_axioms(fam, mkt, trials=1, seed=0, cash_range=(-2.0, 2.0))
        assert len(calls) == len(fam.blocks)

    def test_a_family_keeps_only_its_last_market(self):
        t, mkt = depth2_market()
        fam = entropic_family(entropic_params(t, 1.0))
        k = random_cash(np.random.default_rng(15), t, -1.0, 1.0)
        prices = dict(zip(t.ids, mkt.prices[0].tolist()))
        refs = []
        for _ in range(20):
            m = market(t, {"s": prices})
            market_value(fam, m, t.root, k)
            refs.append(weakref.ref(m))
        del m
        gc.collect()
        assert [r() is None for r in refs] == [True] * 19 + [False]

    def test_a_divergence_is_raised_again(self):
        t, mkt = binomial_market()
        fam = assemble(t, {"root": linear_one_step([0.5, 0.5])})
        errors = []
        for _ in range(2):
            with pytest.raises(DivergenceError) as err:
                market_value(fam, mkt, "root", CashBalance.constant(t, 0.0))
            errors.append(err.value)
        assert str(errors[0]) == str(errors[1]) and "'root'" in str(errors[0])
        assert np.array_equal(errors[0].direction, errors[1].direction)

    def test_a_build_that_raises_raises_again(self):
        t, mkt = binomial_market()
        foreign = entropic_family(entropic_params(three_node_tree(), 1.0))
        for _ in range(2):
            with pytest.raises(ValidationError, match="share one tree"):
                market_value(foreign, mkt, "root", CashBalance.constant(t, 0.0))
        builds = []

        def broken():
            builds.append(1)
            raise ValidationError("no blocks")

        fam = ValuationFamily(t, broken)
        for _ in range(2):
            with pytest.raises(ValidationError, match="no blocks"):
                market_value(fam, mkt, "root", CashBalance.constant(t, 0.0))
        assert len(builds) == 2
