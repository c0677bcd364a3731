"""Acceptance suite: one test per criterion, each printing a pass/fail line
with the measured worst residuals (run with ``pytest -v -s`` to see them).
All tolerances are fixed here, not calibrated."""

import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from helpers import (
    binary_tree,
    numeric_dual_closure,
    random_cash,
    random_tree,
    three_node_tree,
    worst_stopping_bruteforce,
)
import treeval
from treeval.dual import (
    DualSolverOptions,
    dual_recursion_residual,
    dual_value,
    one_step_dual_value,
    primal_from_dual,
    sample_density,
)
from treeval.families import (
    CRRAUtility,
    ExponentialUtility,
    crra_one_period_dual,
    entropic_dual,
    entropic_family,
    entropic_one_step,
    entropic_params,
    exponential_uniqueness_witness,
    ui_dc_counterexample,
    ui_one_step,
    ui_params,
    worst_case_family,
    worst_case_params,
)
from treeval.market import (
    Strategy,
    check_market_axioms,
    extract_state_price_density,
    gains,
    market,
    market_value,
    synthesize_one_step_prices,
)
from treeval.risksharing import (
    check_sharing_axioms,
    entropic_allocation,
    entropic_share_params,
    entropic_sharing_family,
    share_value,
    stability_check,
)
from treeval.tree import CashBalance
from treeval.valuation import check_axioms

AXIOMS = ("C", "M", "TI", "Z", "DC", "L")


def announce(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[criterion {number:2d}] {description}: FAIL ({exc})")
                raise
            print(f"[criterion {number:2d}] {description}: {detail} PASS")
        return inner
    return wrap


@announce(1, "axiom suite on 50 random trees, 1000 trials each")
def test_criterion_01_axiom_suite():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, max_depth=4, max_branching=3)
        fam = entropic_family(entropic_params(tree, float(rng.uniform(0.3, 2.0))))
        rep = check_axioms(fam, trials=1000, seed=seed, tolerance=1e-9)
        for name in AXIOMS:
            worst = max(worst, rep.check(name).worst_residual)
            assert rep.check(name).passed, f"{name} residual {rep.check(name).worst_residual:.3e}"
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    return f"worst residual {worst:.2e}, {elapsed:.1f}s"


@announce(2, "dual recursion: 200 closed-form pairs and numeric agreement")
def test_criterion_02_dual_recursion():
    started = time.perf_counter()
    worst_closed = 0.0
    rng = np.random.default_rng(77)
    for case in range(200):
        tree = random_tree(np.random.default_rng(1000 + case), max_depth=4, max_branching=3)
        fam = entropic_family(entropic_params(tree, float(rng.uniform(0.3, 2.0))))
        internals = [tree.ids[i] for i in tree.internal_indices()]
        x = internals[int(rng.integers(len(internals)))]
        lam = sample_density(tree, x, rng)
        worst_closed = max(worst_closed, dual_recursion_residual(fam, x, lam))
    assert worst_closed <= 1e-8, f"closed-form residual {worst_closed:.3e}"

    worst_numeric = 0.0
    for case in range(12):
        tree = random_tree(np.random.default_rng(2000 + case), max_depth=3, max_branching=3)
        params = entropic_params(tree, float(rng.uniform(0.5, 1.5)))
        fam = entropic_family(params)
        lam = sample_density(tree, tree.root, rng, floor=0.05)
        numeric = dual_value(fam, tree.root, lam, DualSolverOptions(gradient_tolerance=1e-7))
        closed = entropic_dual(params, tree.root, lam)
        worst_numeric = max(worst_numeric, abs(numeric - closed))
    elapsed = time.perf_counter() - started
    assert worst_numeric <= 1e-6, f"numeric-vs-closed gap {worst_numeric:.3e}"
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 120s"
    return f"closed {worst_closed:.2e}, numeric {worst_numeric:.2e}, {elapsed:.1f}s"


@announce(3, "duality round trip on 100 cases")
def test_criterion_03_duality_round_trip():
    rng = np.random.default_rng(123)
    worst = 0.0
    for case in range(100):
        tree = random_tree(np.random.default_rng(3000 + case), max_depth=3, max_branching=3)
        params = entropic_params(tree, float(rng.uniform(0.5, 1.5)))
        fam = entropic_family(params)
        internals = [tree.ids[i] for i in tree.internal_indices()]
        x = internals[int(rng.integers(len(internals)))]
        balance = random_cash(rng, tree, -3.0, 3.0)
        dual_fn, gradient = numeric_dual_closure(fam, x, DualSolverOptions(gradient_tolerance=3e-7))
        value, _ = primal_from_dual(dual_fn, x, balance,
                                    DualSolverOptions(tolerance=5e-6, max_iterations=20_000),
                                    gradient=gradient)
        worst = max(worst, abs(value - fam.value(x, balance)))
    assert worst <= 1e-5, f"round-trip gap {worst:.3e}"
    return f"worst gap {worst:.2e}"


@announce(4, "risk pooling matches the closed-form aggregate")
def test_criterion_04_risk_sharing():
    tight = DualSolverOptions(tolerance=1e-11)
    rng = np.random.default_rng(9)
    worst_value = worst_feas = worst_achieve = 0.0
    min_gain = np.inf

    cases = []
    t0 = three_node_tree((0.2, 0.4, 0.4))
    designated = [entropic_params(t0, 1.0),
                  entropic_params(t0, 1.0, np.array([0.2, 0.6, 0.2]))]
    cases.append((t0, designated))
    for seed in range(8):
        tree = random_tree(np.random.default_rng(4000 + seed), max_depth=3, max_branching=3)
        subs = []
        for _ in range(int(rng.integers(2, 4))):
            raw = rng.uniform(0.1, 1.0, tree.n_nodes)
            subs.append(entropic_params(tree, float(rng.uniform(0.5, 2.5)), raw / raw.sum()))
        cases.append((tree, subs))

    for tree, subs in cases:
        plan = entropic_share_params(subs, tree.root)
        aggregate = entropic_sharing_family(subs)
        balance = random_cash(rng, tree, -2.0, 2.0)
        res = share_value(subs, tree.root, balance, tight)
        target = aggregate.value(tree.root, balance) + plan.value_of_sharing
        worst_value = max(worst_value, abs(res.value - target))
        min_gain = min(min_gain, res.value_of_sharing)

        alloc = entropic_allocation(subs, tree.root, balance)
        total = sum(piece.values for piece in alloc)
        worst_feas = max(worst_feas, float(np.max(np.abs(total - balance.values))))
        achieved = sum(
            float(entropic_family(s).value(tree.root, piece)) for s, piece in zip(subs, alloc))
        worst_achieve = max(worst_achieve, abs(achieved - target))

    designated_gain = entropic_share_params(designated, "root").value_of_sharing
    assert worst_value <= 1e-6, f"numeric-vs-closed value gap {worst_value:.3e}"
    assert worst_feas <= 1e-12, f"allocation feasibility {worst_feas:.3e}"
    assert worst_achieve <= 1e-10, f"allocation achievement {worst_achieve:.3e}"
    assert min_gain >= -1e-12, f"pooling gain {min_gain:.3e} went negative"
    assert designated_gain > 1e-6
    return (f"value {worst_value:.2e}, feas {worst_feas:.2e}, achieve {worst_achieve:.2e}, "
            f"designated gain {designated_gain:.4f}")


@announce(5, "pooled family passes the axiom suite")
def test_criterion_05_sharing_axioms():
    t0 = three_node_tree((0.2, 0.4, 0.4))
    entropic_subs = [entropic_params(t0, 1.0),
                     entropic_params(t0, 1.0, np.array([0.2, 0.6, 0.2]))]
    rep = check_sharing_axioms(entropic_subs, trials=1000, seed=21)
    worst_entropic = max(rep.check(name).worst_residual for name in AXIOMS)
    assert rep.all_passed and worst_entropic <= 1e-8, rep.as_dict()

    mixed = [entropic_params(t0, 1.0),
             worst_case_family(worst_case_params(t0, {"root": [[0.5, 0.5]]}, stopping=True))]
    rep_mixed = check_sharing_axioms(mixed, trials=25, seed=22, cash_range=(-2.0, 2.0))
    worst_mixed = max(rep_mixed.check(name).worst_residual for name in AXIOMS)
    assert worst_mixed <= 1e-5, rep_mixed.as_dict()
    return f"entropic {worst_entropic:.2e}, numeric path {worst_mixed:.2e}"


@announce(6, "time-0 allocation stays optimal at every node")
def test_criterion_06_dynamic_stability():
    rng = np.random.default_rng(31)
    worst = 0.0
    for seed in range(5):
        tree = random_tree(np.random.default_rng(5000 + seed), max_depth=3, max_branching=3)
        raw1 = rng.uniform(0.1, 1.0, tree.n_nodes)
        raw2 = rng.uniform(0.1, 1.0, tree.n_nodes)
        subs = [entropic_params(tree, 1.0, raw1 / raw1.sum()),
                entropic_params(tree, 2.0, raw2 / raw2.sum())]
        balance = random_cash(rng, tree, -2.0, 2.0)
        alloc = entropic_allocation(subs, tree.root, balance)
        for node_id in tree.ids:
            worst = max(worst, stability_check(subs, alloc, node_id))
    assert worst <= 1e-8, f"stability residual {worst:.3e}"
    return f"worst residual {worst:.2e}"


@announce(7, "worst-stopping values equal brute-force enumeration")
def test_criterion_07_worst_stopping_oracle():
    rng = np.random.default_rng(17)
    worst = 0.0
    worst_hom = 0.0
    for seed in range(50):
        tree = random_tree(np.random.default_rng(6000 + seed), max_depth=3, max_branching=3)
        alpha = {}
        for i in tree.internal_indices():
            raw = rng.uniform(0.2, 1.0, len(tree.children_index[i]))
            alpha[tree.ids[i]] = raw / raw.sum()
        fam = worst_case_family(
            worst_case_params(tree, {k: [v] for k, v in alpha.items()}, stopping=True))
        values = rng.uniform(-5.0, 5.0, tree.n_nodes)
        got = fam.node_values(values)
        oracle = worst_stopping_bruteforce(tree, alpha, values)
        worst = max(worst, abs(float(got[tree.root_index]) - oracle))
        base = got
        for c in (0.0, 0.5, 2.0):
            worst_hom = max(worst_hom, float(np.max(np.abs(fam.node_values(c * values) - c * base))))
    assert worst <= 1e-12, f"enumeration gap {worst:.3e}"
    assert worst_hom <= 1e-12, f"homogeneity defect {worst_hom:.3e}"
    return f"enumeration {worst:.2e}, homogeneity {worst_hom:.2e}"


@announce(8, "indifference pricing: exponential match, CRRA dual, pasting gap")
def test_criterion_08_indifference_pricing():
    t0 = three_node_tree((0.2, 0.4, 0.4))
    params = entropic_params(t0, 1.3)
    ent_step = entropic_one_step(params, "root")
    ui_exp = ui_one_step(ui_params(t0, ExponentialUtility(1.3), x0=0.0), "root")
    rng = np.random.default_rng(3)
    worst_exp = 0.0
    for _ in range(100):
        k_x = float(rng.uniform(-3, 3))
        k_c = rng.uniform(-3, 3, 2)
        worst_exp = max(worst_exp, abs(float(ui_exp.evaluate(k_x, k_c))
                                       - float(ent_step.evaluate(k_x, k_c))))
    assert worst_exp <= 1e-10, f"exponential match {worst_exp:.3e}"

    crra_params = ui_params(t0, CRRAUtility(2.0), x0=3.0)
    step = ui_one_step(crra_params, "root")
    worst_dual = 0.0
    for _ in range(6):
        raw = rng.uniform(0.1, 1.0, 3)
        lam = raw / raw.sum()
        closed = crra_one_period_dual(2.0, 3.0, crra_params.probs["root"], lam)
        # the one-step dual's solve reads the step's partials as central
        # differences of the solved price, so its gradient tolerance stays
        # loose
        numeric = one_step_dual_value(step, lam[0], lam[1:],
                                      DualSolverOptions(gradient_tolerance=3e-6))
        worst_dual = max(worst_dual, abs(closed - numeric))
    assert worst_dual <= 1e-5, f"CRRA dual gap {worst_dual:.3e}"

    found = ui_dc_counterexample(2.0, 2.0, budget=10_000, seed=0)
    assert found.found and found.gap > 1e-6, f"pasting gap {found.gap:.3e}"
    control = ui_dc_counterexample(2.0, 2.0, budget=2_000, seed=0, utility=ExponentialUtility(1.0))
    assert control.gap <= 1e-10, f"exponential control gap {control.gap:.3e}"
    return (f"exp match {worst_exp:.2e}, dual {worst_dual:.2e}, "
            f"gap {found.gap:.2e} vs control {control.gap:.2e}")


@announce(9, "certainty-equivalent recipe forces exponential utility")
def test_criterion_09_exponential_uniqueness():
    crra_defect = exponential_uniqueness_witness(CRRAUtility(2.0), trials=300, seed=0)
    exp_defect = exponential_uniqueness_witness(ExponentialUtility(1.0), trials=300, seed=0)
    assert crra_defect > 1e-6, f"CRRA defect {crra_defect:.3e} invisible"
    assert exp_defect <= 1e-12, f"exponential defect {exp_defect:.3e}"
    return f"CRRA defect {crra_defect:.2e}, exponential {exp_defect:.2e}"


@announce(10, "hedged family passes the axiom suite; access is worth having")
def test_criterion_10_market_axioms():
    worst = 0.0
    for depth, trials in ((2, 15), (3, 8)):
        tree = binary_tree(depth, weights=[1.0 / (2 ** (depth + 1) - 1)] * (2 ** (depth + 1) - 1))
        prices = {}
        for node_id in tree.ids:
            i = tree.node_index(node_id)
            up_moves = node_id.count("u")
            down_moves = node_id.count("d")
            prices[node_id] = float(2.0 ** up_moves * 0.5 ** down_moves)
        mkt = market(tree, {"s": prices})
        fam = entropic_family(entropic_params(tree, 1.0))
        rep = check_market_axioms(fam, mkt, trials=trials, seed=depth, cash_range=(-2.0, 2.0))
        worst = max(worst, max(rep.check(name).worst_residual for name in AXIOMS))
        assert rep.all_passed, rep.as_dict()

        res0 = market_value(fam, mkt, tree.root, CashBalance.constant(tree, 0.0))
        assert res0.access_value >= -1e-10

        rng = np.random.default_rng(depth)
        theta = Strategy({tree.ids[i]: rng.normal(size=1) for i in tree.internal_indices()})
        balance = random_cash(rng, tree, -1.0, 1.0)
        shifted = CashBalance(tree, balance.values + gains(mkt, tree.root, theta).values)
        opts = DualSolverOptions(gradient_tolerance=1e-8)
        offset_gap = abs(market_value(fam, mkt, tree.root, balance, opts).normalized
                         - market_value(fam, mkt, tree.root, shifted, opts).normalized)
        assert offset_gap <= 1e-6, f"offset invariance {offset_gap:.3e}"
    assert worst <= 1e-5
    return f"worst axiom residual {worst:.2e}"


@announce(11, "state-price density round trip on 100 random trees")
def test_criterion_11_state_price_round_trip():
    rng = np.random.default_rng(8)
    worst = 0.0
    for seed in range(100):
        tree = random_tree(np.random.default_rng(7000 + seed), max_depth=4, max_branching=3)
        zeta = {node_id: float(rng.uniform(0.2, 4.0)) for node_id in tree.ids}
        zeta[tree.root] = 1.0
        recovered = extract_state_price_density(tree, synthesize_one_step_prices(tree, zeta))
        worst = max(worst, max(abs(recovered.zeta[n] - zeta[n]) for n in tree.ids))
    assert worst <= 1e-12, f"round-trip error {worst:.3e}"
    return f"worst error {worst:.2e}"


@announce(12, "CLI reports are byte-identical across repeated runs")
def test_criterion_12_cli_determinism(tmp_path):
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps({
        "nodes": [
            {"id": "root", "parent": None, "weight": 0.2},
            {"id": "up", "parent": "root", "weight": 0.4},
            {"id": "down", "parent": "root", "weight": 0.4},
        ],
        "assets": [{"name": "s", "prices": {"root": 1.0, "up": 2.0, "down": 0.5}}],
    }))
    cash_file = tmp_path / "cash.json"
    cash_file.write_text(json.dumps({"root": 0.0, "up": 1.0, "down": -1.0}))
    fam_file = tmp_path / "entropic.json"
    fam_file.write_text(json.dumps({"family": "entropic", "gamma": 1.0}))
    fam2_file = tmp_path / "entropic2.json"
    fam2_file.write_text(json.dumps({"family": "entropic", "gamma": 2.0}))
    prices_file = tmp_path / "prices.json"
    prices_file.write_text(json.dumps({"one_step_prices": {"root": [0.3, 0.7]}}))

    commands = {
        "value": ["value", "--tree", str(tree_file), "--cash", str(cash_file),
                  "--family", str(fam_file)],
        "dual": ["dual", "--tree", str(tree_file), "--family", str(fam_file),
                 "--trials", "3", "--seed", "5"],
        "share": ["share", "--tree", str(tree_file), "--cash", str(cash_file),
                  "--family", str(fam_file), str(fam2_file)],
        "hedge": ["hedge", "--tree", str(tree_file), "--cash", str(cash_file),
                  "--family", str(fam_file)],
        "spd": ["spd", "--tree", str(tree_file), "--prices", str(prices_file)],
        "check": ["check", "--tree", str(tree_file), "--family", str(fam_file),
                  "--trials", "100", "--seed", "42"],
        "counterexample": ["counterexample", "--tree", str(tree_file),
                           "--trials", "500", "--seed", "1"],
    }
    # pytest puts src on its own import path only; the child needs it too
    env = {**os.environ, "PYTHONPATH": str(Path(treeval.__file__).parents[1])}
    for verb, argv in commands.items():
        outputs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "treeval.cli", *argv],
                                  capture_output=True, check=False, env=env)
            assert proc.returncode == 0, f"{verb}: rc={proc.returncode} err={proc.stderr!r}"
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], f"{verb} output differs between runs"
    return f"{len(commands)} verbs byte-stable"
