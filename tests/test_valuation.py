import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import treeval.families
import treeval.optim
import treeval.risksharing
import treeval.valuation
from helpers import (
    binary_tree,
    outcomes,
    per_node_values,
    random_cash,
    random_tree,
    three_node_tree,
    trinomial_tree,
)
from treeval.dual import check_dual_properties
from treeval.errors import ValidationError
from treeval.families import (
    CRRAUtility,
    ExponentialUtility,
    entropic_dual,
    entropic_family,
    entropic_params,
    entropic_value,
    exponential_uniqueness_witness,
    ui_dc_counterexample,
    ui_family,
    ui_params,
    worst_case_family,
    worst_case_one_step,
    worst_case_params,
)
from treeval.market import check_gains_axioms, check_market_axioms, hedged_family, market
from treeval.risksharing import check_sharing_axioms, pooled_family
from treeval.tree import CashBalance, hitting_stop, stop_index, stopping_time
from treeval.valuation import (
    Block,
    OneStepValuation,
    ValuationFamily,
    _subtree_masks,
    assemble,
    check_axioms,
    committed_family,
    linear_one_step,
    sample_stop_masks,
    sample_stopping_time,
    value_at,
)


def linear_family(tree, weights=None):
    steps = {}
    for i in tree.internal_indices():
        m = len(tree.children_index[i])
        w = weights if weights is not None else np.full(m, 1.0 / m)
        steps[tree.ids[i]] = linear_one_step(w)
    return assemble(tree, steps, descriptor="linear")


class TestAssemble:
    def test_linear_reduces_to_expectation(self):
        t = three_node_tree()
        fam = linear_family(t, np.array([0.5, 0.5]))
        k = CashBalance.from_mapping(t, {"root": 0.0, "up": 2.0, "down": 4.0})
        assert fam.value("root", k) == pytest.approx(3.0, abs=1e-15)

    def test_constant_balance_values_to_the_constant(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            t = random_tree(rng)
            fam = entropic_family(entropic_params(t, gamma=1.3))
            c = float(rng.uniform(-4, 4))
            vals = fam.node_values(np.full(t.n_nodes, c))
            assert np.allclose(vals, c, atol=1e-12)

    def test_entropic_assembly_matches_closed_form(self):
        t = three_node_tree()
        params = entropic_params(t, gamma=1.0)
        fam = entropic_family(params)
        k = CashBalance.from_mapping(t, {"root": 0.0, "up": 1.0, "down": -1.0})
        assert fam.value("root", k) == pytest.approx(entropic_value(params, "root", k), abs=1e-12)

    def test_missing_one_step_rejected(self):
        t = binary_tree(2)
        with pytest.raises(ValidationError, match="missing one-step"):
            assemble(t, {"r": linear_one_step([0.5, 0.5])})

    def test_leaf_identity(self):
        rng = np.random.default_rng(7)
        t = random_tree(rng)
        fam = entropic_family(entropic_params(t, gamma=0.7))
        k = random_cash(rng, t)
        vals = fam.node_values(k.values)
        for i in t.leaf_indices:
            assert vals[i] == k.values[i]


def _worst(tree, rng, stopping):
    # one to three distributions a node, so a level mixes their counts
    return worst_case_family(worst_case_params(tree, {
        tree.ids[i]: rng.dirichlet(np.ones(len(tree.children_index[i])), int(rng.integers(1, 4)))
        for i in tree.internal_indices()}, stopping=stopping))


def _hedged(tree, rng):
    # one asset whose moves out of a node take both signs (none out of a
    # node with one child), so every one-step hedge is bounded
    prices = np.zeros(tree.n_nodes)
    for u in tree.preorder.tolist():
        kids = list(tree.children_index[u])
        if not kids:
            continue
        moves = rng.normal(size=len(kids))
        prices[kids] = prices[u] + moves - moves.mean()
    mkt = market(tree, {"s": dict(zip(tree.ids, prices))})
    return hedged_family(entropic_family(entropic_params(tree, 0.9)), mkt)


SWEPT_FAMILIES = {
    "entropic": lambda t, rng: entropic_family(entropic_params(t, float(rng.uniform(0.3, 2.0)))),
    "worst_stopping": lambda t, rng: _worst(t, rng, True),
    "worst_case": lambda t, rng: _worst(t, rng, False),
    "ui_crra": lambda t, rng: ui_family(ui_params(t, CRRAUtility(float(rng.uniform(1.5, 4.0))), 20.0)),
    "ui_exponential": lambda t, rng: ui_family(ui_params(t, ExponentialUtility(1.3), 0.0)),
    "committed": lambda t, rng: committed_family(_worst(t, rng, True), random_cash(rng, t)),
    "committed_linear": lambda t, rng: committed_family(linear_family(t), random_cash(rng, t)),
    "linear": lambda t, rng: linear_family(t),
    "hedged": _hedged,
    # an exponential subsidiary pooled with a worst-case one: the polytope rule
    "pooled_worst": lambda t, rng: pooled_family([entropic_params(t, float(rng.uniform(0.3, 2.0))),
                                                  _worst(t, rng, True)]),
    # an exponential subsidiary pooled with a CRRA one: the numeric pool
    "pooled_crra": lambda t, rng: pooled_family([entropic_params(t, float(rng.uniform(0.3, 2.0))),
                                                 ui_family(ui_params(t, CRRAUtility(float(rng.uniform(1.5, 4.0))),
                                                                     20.0))]),
}


class TestLevelSweep:
    @pytest.mark.parametrize("kind", sorted(SWEPT_FAMILIES))
    @pytest.mark.parametrize("batch", [(), (1,), (7,), (3, 5)])
    def test_matches_the_per_node_loop(self, kind, batch):
        rng = np.random.default_rng(len(kind) + len(batch))
        tol = 1e-12 if kind.startswith("ui") else 1e-13
        for _ in range(6):
            t = random_tree(rng, max_depth=4, max_branching=3)
            fam = SWEPT_FAMILIES[kind](t, rng)
            k = rng.uniform(-2.0, 2.0, batch + (t.n_nodes,))
            got = fam.node_values(k)
            assert got.shape == k.shape
            assert np.max(np.abs(got - per_node_values(fam, k))) <= tol

    @pytest.mark.parametrize("shape", [(4,), (2, 2), ()])
    @pytest.mark.parametrize("sweep", ["node_values", "values_and_maximizers", "values_and_gradient"])
    def test_cash_of_another_width_than_the_tree_is_a_validation_error(self, sweep, shape):
        fam = entropic_family(entropic_params(three_node_tree(), 1.0))
        with pytest.raises(ValidationError, match="axis of 3 nodes"):
            getattr(fam, sweep)(np.zeros(shape), *((0,) if sweep == "values_and_gradient" else ()))

    @pytest.mark.parametrize("stopping", [True, False])
    def test_worst_case_levels_mixing_one_two_and_three_distributions(self, stopping):
        # the parameters pad a node with fewer distributions than the most
        # at its level by repeating its first: the sweep, its gradient and
        # the one-step view must see only the node's own minimum
        t = trinomial_tree(3)
        rng = np.random.default_rng(31)
        alphas = {t.ids[u]: rng.dirichlet(np.ones(3), 1 + j % 3)
                  for nodes, _ in t.level_groups for j, u in enumerate(nodes.tolist())}
        params = worst_case_params(t, alphas, stopping=stopping)
        assert [stack.shape[1] for (stack,) in params.levels] == [3, 3, 1]
        fam = worst_case_family(params)
        k = rng.uniform(-2.0, 2.0, (7, t.n_nodes))
        want = k.copy()
        for u in t.preorder[::-1].tolist():
            kids = list(t.children_index[u])
            if kids:
                worst = (want[:, kids] @ params.alphas[t.ids[u]].T).min(axis=-1)
                want[:, u] = np.minimum(k[:, u], worst) if stopping else worst
        got = fam.node_values(k)
        assert np.max(np.abs(got - want)) <= 1e-13
        assert np.array_equal(got, per_node_values(fam, k))
        for u in t.internal_indices():
            kids = list(t.children_index[u])
            step = worst_case_one_step(params, t.ids[u])
            assert np.array_equal(step.evaluate(k[:, u], got[:, kids]), got[:, u])
        # the root's gradient: each node hands its adjoint to the stop
        # branch or through its own minimizing distribution
        adjoint, grad = np.zeros(t.n_nodes), np.zeros(t.n_nodes)
        adjoint[t.root_index] = 1.0
        for u in t.preorder.tolist():
            kids = list(t.children_index[u])
            if not kids:
                grad[u] = adjoint[u]
                continue
            own = params.alphas[t.ids[u]]
            e = own @ got[0, kids]
            if stopping and k[0, u] <= e.min():
                grad[u] = adjoint[u]
            else:
                adjoint[kids] += adjoint[u] * own[np.argmin(e)]
        assert np.max(np.abs(fam.values_and_gradient(k[0], t.root_index)[1] - grad)) <= 1e-15

    @pytest.mark.parametrize("kind", ["entropic", "worst_three_alphas"])
    def test_batch_sweep_stays_within_a_few_mb_beyond_its_output(self, kind):
        t = trinomial_tree(8)
        if kind == "entropic":
            fam = entropic_family(entropic_params(t, 1.0))
        else:
            alphas = [[0.2, 0.3, 0.5], [0.5, 0.3, 0.2], [0.1, 0.8, 0.1]]
            fam = worst_case_family(worst_case_params(t, {t.ids[i]: alphas for i in t.internal_indices()}))
        assert len(fam.blocks) == t.depth
        k = np.random.default_rng(0).uniform(-2.0, 2.0, (256, t.n_nodes))
        fam.node_values(k[:1])   # first-call costs out of the measurement
        tracemalloc.start()
        try:
            out = fam.node_values(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 4 * 2**20
        assert np.allclose(out[:2], per_node_values(fam, k[:2]), atol=1e-13)

    def test_custom_step_errors_propagate(self):
        t = binary_tree(2)

        def refuse(k_x, k_children):
            raise ValidationError("refused")

        steps = {t.ids[i]: linear_one_step([0.5, 0.5]) for i in t.internal_indices()}
        steps["u"] = OneStepValuation(refuse)
        with pytest.raises(ValidationError, match="refused"):
            assemble(t, steps).node_values(np.zeros((4, t.n_nodes)))

    def test_family_needs_a_build_callable(self):
        t = binary_tree(1)
        with pytest.raises(ValidationError, match="assemble"):
            ValuationFamily(t, {"r": linear_one_step([0.5, 0.5])})

    def test_custom_step_keeps_its_dual_in_the_view(self):
        t = binary_tree(1)

        def dual(theta, psi):
            return 10.0 * theta + float(np.sum(psi))

        step = OneStepValuation(linear_one_step([0.5, 0.5]).evaluate, "mine", dual, smooth=False)
        view = assemble(t, {"r": step}).one_steps[t.node_index("r")]
        assert (view.descriptor, view.smooth) == ("mine", False)
        assert view.dual(0.2, np.array([0.3, 0.5])) == pytest.approx(2.8)
        assert view.evaluate(0.0, np.array([1.0, 3.0])) == pytest.approx(2.0)

    def test_one_step_view_is_built_on_first_read(self):
        t = binary_tree(2)
        fam = entropic_family(entropic_params(t, 1.0))
        fam.node_values(np.zeros(t.n_nodes))
        assert "one_steps" not in vars(fam)
        assert fam.one_steps[t.node_index("u")].evaluate(0.0, np.zeros(2)) == pytest.approx(0.0)
        assert all((step is None) == bool(t.is_leaf[u]) for u, step in enumerate(fam.one_steps))


def _central_differences(fam, k, xi, h=1e-5):
    """d node_values[..., xi] / dK by central differences, every node at
    once (h = 1e-5 keeps the noise of the numeric one-step solves well
    under the 1e-6 tolerance)."""
    bump = np.eye(k.shape[-1]) * h
    up = fam.node_values(k[..., None, :] + bump)[..., xi]
    down = fam.node_values(k[..., None, :] - bump)[..., xi]
    return (up - down) / (2.0 * h)


def _two_pass_gradient(fam, k, xi):
    """The reverse sweep as two passes: node values first, then every
    block's partials asked of its kernel again, at those values."""
    out = fam.node_values(k)
    adjoint, grad = np.zeros_like(out), np.zeros_like(out)
    adjoint[..., xi] = 1.0
    rows = max(1, out.size // fam.tree.n_nodes)
    for block in reversed(fam.blocks):
        for data, nodes, take in fam._parts(block, rows):
            kids = take[:, 1:]
            a = adjoint[..., nodes]
            p = block.kernel.evaluate_with_partials(data, outcomes(k[..., nodes], out[..., kids]))[1]
            grad[..., nodes] = a * p[..., 0]
            adjoint[..., kids] += a[..., None] * p[..., 1:]
    grad[..., fam.tree.is_leaf] = adjoint[..., fam.tree.is_leaf]
    return grad


def _lattice(depth):
    """Criterion 10's binary lattice: one asset that doubles or halves."""
    t = binary_tree(depth)
    mkt = market(t, {"s": {x: 2.0 ** x.count("u") * 0.5 ** x.count("d") for x in t.ids}})
    return t, mkt


def _counted(monkeypatch, module, name):
    """Count the calls of ``module.name`` from here on."""
    calls, inner = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestReverseSweep:
    @pytest.mark.parametrize("kind", sorted(SWEPT_FAMILIES))
    def test_one_pass_matches_asking_the_kernels_again(self, kind):
        # the partials kept from the forward sweep are those a second pass
        # of Kernel.partials at the swept values gives
        rng = np.random.default_rng(30 + len(kind))
        t = random_tree(rng, max_depth=3, max_branching=3)
        fam = SWEPT_FAMILIES[kind](t, rng)
        k = rng.uniform(-2.0, 2.0, (3, t.n_nodes))
        for xi in {t.root_index, *rng.integers(t.n_nodes, size=3).tolist()}:
            values, grad = fam.values_and_gradient(k, xi)
            assert np.array_equal(values, fam.node_values(k))
            assert np.max(np.abs(grad - _two_pass_gradient(fam, k, xi))) <= 1e-12

    @pytest.mark.parametrize("kind", ["hedged", "polytope"])
    @pytest.mark.parametrize("x", ["r", "u", "ud"])
    def test_solves_each_block_chunk_once(self, monkeypatch, kind, x):
        # a hedge's Newton solve, or a polytope pool's vertex-weight solve,
        # gives the values and the partials of its chunk together: a
        # reverse sweep solves no more than a forward one.  The hedge is a
        # CRRA one, as the lattice's exponential hedges take no solve
        rng = np.random.default_rng(9)
        t, mkt = _lattice(3)
        if kind == "hedged":
            calls = _counted(monkeypatch, treeval.valuation, "_one_step_sups")
            fam = hedged_family(ui_family(ui_params(t, CRRAUtility(2.0), 5.0)), mkt)
        else:
            calls = _counted(monkeypatch, treeval.families, "_polytope_log_argmin")
            fam = pooled_family([entropic_params(t, 1.0), _worst(t, rng, True)])
        k = rng.uniform(-1.0, 1.0, (8, t.n_nodes))
        fam.node_values(k)
        forward = len(calls)
        assert forward == len(fam.blocks)
        del calls[:]
        fam.values_and_gradient(k, t.node_index(x))
        assert len(calls) == forward

    @pytest.mark.parametrize("kind", ["hedged", "pooled_crra"])
    def test_newton_makes_one_inner_call_per_trial_point(self, monkeypatch, kind):
        # every trial point of the batched Newton stage, with its Hessian
        # stencil, is one evaluate_with_partials of each inner kernel (one
        # for a hedge, one per subsidiary for a pool), and no evaluate.  The
        # hedge is a CRRA one, as the lattice's exponential hedges take no
        # Newton stage
        t, mkt = _lattice(3)
        counts = {"newton": False, "trials": 0, "evaluate": 0, "grad": 0}

        def counted(fn, name):
            def call(*args):
                counts[name] += counts["newton"]
                return fn(*args)
            return call

        def counting(family):
            return ValuationFamily(t, lambda: [
                Block(replace(b.kernel, evaluate=counted(b.kernel.evaluate, "evaluate"),
                              grad=counted(b.kernel.grad, "grad")), b.data, b.nodes, b.kids)
                for b in family.blocks])

        newton = treeval.optim.newton_ascent

        def stage(value_and_gradient, x0, **kwargs):
            def trial(points):
                counts["trials"] += 1
                return value_and_gradient(points)

            counts["newton"] = True
            try:
                return newton(trial, x0, **kwargs)
            finally:
                counts["newton"] = False

        monkeypatch.setattr(treeval.optim, "newton_ascent", stage)
        if kind == "hedged":
            fam, pieces = hedged_family(counting(ui_family(ui_params(t, CRRAUtility(2.0), 5.0))), mkt), 1
        else:
            fam, pieces = pooled_family([counting(entropic_family(entropic_params(t, 1.0))),
                                         counting(ui_family(ui_params(t, CRRAUtility(2.0), 5.0)))]), 2
        fam.node_values(np.random.default_rng(9).uniform(-1.0, 1.0, (8, t.n_nodes)))
        assert counts["trials"] > 0 and counts["evaluate"] == 0
        assert counts["grad"] == pieces * counts["trials"]

    @pytest.mark.parametrize("kind", sorted(SWEPT_FAMILIES))
    @pytest.mark.parametrize("batch", [(), (3,), (2, 4)])
    def test_gradient_matches_central_differences(self, kind, batch):
        # uniform random cash lies off the kinks of the worst-case families
        # almost surely, where their subgradient is the gradient
        rng = np.random.default_rng(10 * len(kind) + len(batch))
        for _ in range(4):
            t = random_tree(rng, max_depth=3, max_branching=3)
            fam = SWEPT_FAMILIES[kind](t, rng)
            k = rng.uniform(-2.0, 2.0, batch + (t.n_nodes,))
            xi = int(rng.integers(t.n_nodes))
            values, grad = fam.values_and_gradient(k, xi)
            assert np.array_equal(values, fam.node_values(k))
            assert grad.shape == k.shape
            assert np.max(np.abs(grad - _central_differences(fam, k, xi))) <= 1e-6

    @pytest.mark.parametrize("kind", ["entropic", "worst_case", "hedged_crra", "pooled_kinked"])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_a_sweep_seeded_with_several_nodes_gives_each_its_own_gradient(self, kind, batch):
        # one adjoint per node, bit for bit the node's own call: a chunk
        # kept for another node hands this one's adjoint only zeros.  The
        # pool of an exponential and a worst-case family without stopping
        # is one of kinked one-step sups
        t, mkt = _lattice(2)
        worst = worst_case_family(worst_case_params(t, {t.ids[i]: [[0.3, 0.7], [0.6, 0.4]]
                                                        for i in t.internal_indices()}))
        fam = {"entropic": lambda: entropic_family(entropic_params(t, 1.2)),
               "worst_case": lambda: worst,
               "hedged_crra": lambda: hedged_family(ui_family(ui_params(t, CRRAUtility(2.0), 5.0)), mkt),
               "pooled_kinked": lambda: pooled_family([entropic_params(t, 1.2), worst])}[kind]()
        k = np.random.default_rng(41 + len(batch)).uniform(-1.0, 1.0, batch + (t.n_nodes,))
        nodes = [1, 0, 3, 1]
        values, grads = fam.values_and_gradient(k, nodes)
        assert grads.shape == (len(nodes),) + k.shape
        for xi, grad in zip(nodes, grads):
            one_values, one_grad = fam.values_and_gradient(k, xi)
            assert np.array_equal(values, one_values)
            assert np.array_equal(grad, one_grad)

    @pytest.mark.parametrize("kind", sorted(SWEPT_FAMILIES))
    def test_gradient_is_a_density_on_the_subtree(self, kind):
        # monotone, translation invariant and local: the gradient of a node
        # value is a probability on that node's subtree
        rng = np.random.default_rng(len(kind))
        t = random_tree(rng, max_depth=3, max_branching=3)
        fam = SWEPT_FAMILIES[kind](t, rng)
        k = rng.uniform(-2.0, 2.0, (5, t.n_nodes))
        for xi in range(t.n_nodes):
            _, grad = fam.values_and_gradient(k, xi)
            off = np.ones(t.n_nodes, dtype=bool)
            off[t.descendant_indices(xi)] = False
            assert np.all(grad[:, off] == 0.0)
            assert np.all(grad >= -1e-9)
            assert np.allclose(grad.sum(axis=1), 1.0, atol=1e-8)

    def test_entropic_gradient_is_the_gibbs_density(self):
        rng = np.random.default_rng(4)
        t = random_tree(rng, max_depth=3)
        params = entropic_params(t, 1.4)
        k = rng.uniform(-2.0, 2.0, t.n_nodes)
        for xi in range(t.n_nodes):
            sub = t.descendant_indices(xi)
            gibbs = params.reference[sub] * np.exp(-params.gamma * k[sub])
            _, grad = entropic_family(params).values_and_gradient(k, xi)
            assert np.max(np.abs(grad[sub] - gibbs / gibbs.sum())) <= 1e-13

    def test_stop_branch_partial_is_own_cash(self):
        t = three_node_tree()
        fam = worst_case_family(worst_case_params(t, {"root": [[0.5, 0.5], [0.3, 0.7]]}))
        _, grad = fam.values_and_gradient(np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, -1.0]]), 0)
        # stopping wins in the first row; the second continues with the
        # distribution that puts more mass on the loss
        assert grad.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.3, 0.7]]


class TestValueAt:
    def test_leaves_give_back_cash(self):
        t = binary_tree(2)
        rng = np.random.default_rng(3)
        fam = linear_family(t)
        k = random_cash(rng, t)
        leaves = stopping_time(t, {t.ids[i] for i in t.leaf_indices})
        out = value_at(fam, leaves, k)
        for node_id, v in out.items():
            assert v == k.value_at(node_id)

    def test_root_singleton(self):
        t = three_node_tree()
        fam = linear_family(t, np.array([0.5, 0.5]))
        k = CashBalance.from_mapping(t, {"root": 0.0, "up": 2.0, "down": 4.0})
        assert value_at(fam, stopping_time(t, {"root"}), k) == {"root": 3.0}

    def test_hitting_stop_mixes_node_value_and_off_branch_cash(self):
        t = binary_tree(2, weights=[0.1, 0.2, 0.2, 0.125, 0.125, 0.125, 0.125])
        params = entropic_params(t, gamma=1.0)
        fam = entropic_family(params)
        rng = np.random.default_rng(9)
        k = random_cash(rng, t)
        out = value_at(fam, hitting_stop(t, "u"), k)
        assert out["u"] == pytest.approx(entropic_value(params, "u", k), abs=1e-12)
        assert out["du"] == k.value_at("du")
        assert out["dd"] == k.value_at("dd")


class TestSampleStoppingTime:
    def test_always_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = random_tree(rng)
            sample_stopping_time(t, rng)  # validated on construction

    def test_paths_missing_the_start_stop_at_their_leaf(self):
        t = binary_tree(2)
        rng = np.random.default_rng(4)
        for _ in range(20):
            sigma = sample_stopping_time(t, rng, start="u")
            assert {"du", "dd"} <= sigma.graph
            assert sigma.graph - {"du", "dd"} <= {"u", "uu", "ud"}


class TestSampleStopMasks:
    def test_each_row_is_a_stopping_time_of_the_subtree(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = random_tree(rng)
            start = t.ids[int(rng.integers(t.n_nodes))]
            inside = {t.ids[i] for i in t.descendant_indices(t.node_index(start))}
            for row in sample_stop_masks(t, rng, 30, start=start):
                graph = {t.ids[i] for i in np.flatnonzero(row)}
                stopping_time(t, graph)
                assert {t.ids[i] for i in t.leaf_indices} - inside <= graph

    def test_stop_frequencies_match_the_per_node_coin(self):
        # root stops with p; a child of the root is the stop when the root
        # did not stop and the child did (or is a leaf)
        t = binary_tree(2)
        masks = sample_stop_masks(t, np.random.default_rng(0), 20_000, stop_probability=0.35)
        freq = masks.mean(axis=0)
        assert freq[t.node_index("r")] == pytest.approx(0.35, abs=0.015)
        assert freq[t.node_index("u")] == pytest.approx(0.65 * 0.35, abs=0.015)
        assert freq[t.node_index("uu")] == pytest.approx(0.65 * 0.65, abs=0.015)


class TestCheckAxioms:
    def test_entropic_family_passes(self):
        t = random_tree(np.random.default_rng(21))
        fam = entropic_family(entropic_params(t, gamma=0.8))
        report = check_axioms(fam, trials=300, seed=42)
        assert report.all_passed, report.as_dict()
        assert report.worst_residual <= 1e-9

    def test_linear_family_passes_exactly(self):
        t = binary_tree(3)
        report = check_axioms(linear_family(t), trials=200, seed=1)
        assert report.all_passed
        assert report.check("DC").worst_residual <= 1e-12

    def test_broken_one_step_fails_concavity_and_translation(self):
        # convex quadratic kink in the node's own cash violates both
        t = three_node_tree()

        def bad(k_x, k_children):
            k_x = np.asarray(k_x, dtype=float)
            k_c = np.asarray(k_children, dtype=float)
            return k_c @ np.array([0.5, 0.5]) + k_x**2

        fam = assemble(t, {"root": OneStepValuation(bad, descriptor="broken")})
        report = check_axioms(fam, trials=200, seed=3)
        assert not report.check("C").passed
        assert not report.check("TI").passed
        assert report.check("C").witness is not None
        assert "cash" in report.check("C").witness

    @pytest.mark.parametrize("kind", ["entropic", "worst"])
    def test_sweeps_do_not_grow_with_trials(self, kind):
        # the pasted (DC) and perturbed (L) balances of all trials go
        # through one batched sweep each, not one sweep per trial
        t = random_tree(np.random.default_rng(5))
        if kind == "entropic":
            fam = entropic_family(entropic_params(t, gamma=0.8))
        else:
            fam = worst_case_family(worst_case_params(t, {
                t.ids[i]: [np.full(len(t.children_index[i]), 1.0 / len(t.children_index[i]))]
                for i in t.internal_indices()}))
        inner = fam.node_values
        calls = []

        def counted(values):
            calls.append(trials)
            return inner(values)

        fam.node_values = counted
        for trials in (5, 200):
            assert check_axioms(fam, trials=trials, seed=8).all_passed
        assert calls.count(5) == calls.count(200)

    @pytest.mark.parametrize("suite", ["market", "sharing"])
    def test_a_repeated_suite_builds_no_vertex_plan(self, monkeypatch, suite):
        # the hedged or pooled family is kept with its blocks and their
        # vertex plans: each call commits it to the zero balance afresh (one
        # sweep of it at zero, then the suite's three of the committed
        # family), a second call builds no vertex plan, and both report
        # what a call on freshly built families reports
        t, mkt = _lattice(2)

        def suite_and_family():
            params = entropic_params(t, 0.9)
            if suite == "market":
                fam = entropic_family(params)
                return lambda: check_market_axioms(fam, mkt, 4, 7), lambda: hedged_family(fam, mkt)
            subs = [params, _worst(t, np.random.default_rng(3), True)]
            return lambda: check_sharing_axioms(subs, 4, 7), lambda: pooled_family(subs)

        run, family = suite_and_family()
        # the package's ``market`` is the function, so the module comes from sys.modules
        module = sys.modules["treeval.market"] if suite == "market" else treeval.risksharing
        committed = _counted(monkeypatch, module, "committed_family")
        plans = _counted(monkeypatch, treeval.risksharing, "_vertex_plan")
        swept, inner = [], ValuationFamily.node_values

        def counted(self, values):
            swept.append(self)
            return inner(self, values)

        monkeypatch.setattr(ValuationFamily, "node_values", counted)
        first = run().as_dict()
        assert len(committed) == 1 and swept.count(family()) == 1 and len(swept) == 4
        assert (len(plans) > 0) == (suite == "sharing")
        del committed[:], plans[:], swept[:]
        assert run().as_dict() == first
        assert len(committed) == 1 and plans == [] and swept.count(family()) == 1 and len(swept) == 4
        assert suite_and_family()[0]().as_dict() == first

    def test_the_locality_masks_are_the_subtrees(self):
        # the preorder intervals against the stop walk from each node
        rng = np.random.default_rng(19)
        for _ in range(30):
            t = random_tree(rng, max_depth=4, max_branching=3)
            nodes = rng.integers(0, t.n_nodes, 25)
            oracle = stop_index(t, nodes[:, None] == np.arange(t.n_nodes)) >= 0
            assert np.array_equal(_subtree_masks(t, nodes), oracle)

    def test_trials_validated(self):
        t = three_node_tree()
        with pytest.raises(ValidationError):
            check_axioms(linear_family(t, np.array([0.5, 0.5])), trials=0, seed=0)

    @pytest.mark.parametrize("suite, argument, value", [
        (suite, argument, value)
        for suite in ("check_axioms", "check_market_axioms", "check_sharing_axioms", "check_gains_axioms",
                      "check_dual_properties", "ui_dc_counterexample", "exponential_uniqueness_witness")
        for argument, value in [("seed", -1), ("seed", 1.5), ("seed", None), ("trials", 0), ("trials", -1),
                                ("tolerance", math.nan), ("tolerance", -1.0), ("tolerance", math.inf)]
        if argument != "tolerance" or suite.startswith("check")])
    def test_seeds_counts_and_tolerances_are_validated(self, suite, argument, value):
        t = three_node_tree()
        params = entropic_params(t, 1.0)
        fam = entropic_family(params)
        mkt = market(t, {"s": {"root": 1.0, "up": 2.0, "down": 0.5}})
        call = {
            "check_axioms": lambda **kw: check_axioms(fam, **kw),
            "check_market_axioms": lambda **kw: check_market_axioms(fam, mkt, **kw),
            "check_sharing_axioms": lambda **kw: check_sharing_axioms([params, params], **kw),
            "check_gains_axioms": lambda **kw: check_gains_axioms(mkt, "root", **kw),
            "check_dual_properties": lambda **kw: check_dual_properties(
                t, "root", lambda dd: entropic_dual(params, "root", dd), **kw),
            # its trial count is its budget
            "ui_dc_counterexample": lambda trials, **kw: ui_dc_counterexample(2.0, 2.0, budget=trials, **kw),
            "exponential_uniqueness_witness": lambda **kw: exponential_uniqueness_witness(CRRAUtility(2.0), **kw),
        }[suite]
        named = "budget" if suite == "ui_dc_counterexample" and argument == "trials" else argument
        with pytest.raises(ValidationError, match=f"^{named} must be"):
            call(**{"trials": 3, "seed": 0, argument: value})

    def test_report_serializes(self):
        t = three_node_tree()
        report = check_axioms(linear_family(t, np.array([0.5, 0.5])), trials=5, seed=0)
        d = report.as_dict()
        assert set(d["axioms"]) == {"C", "M", "TI", "Z", "DC", "L", "CL"}
        assert d["all_passed"] is True
