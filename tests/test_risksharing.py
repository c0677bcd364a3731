import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeval
from treeval import optim
from helpers import binary_tree, global_pool_value, outcomes, random_cash, random_tree, three_node_tree
from treeval.dual import DualSolverOptions, dual_density, dual_value, sample_density
from treeval.errors import DivergenceError, TreevalError, ValidationError
from treeval.families import (
    CRRAUtility,
    EntropicParams,
    ExponentialUtility,
    _vertex_plan,
    entropic_dual,
    entropic_family,
    entropic_one_step,
    entropic_params,
    entropic_value,
    ui_family,
    ui_params,
    worst_case_family,
    worst_case_params,
)
from treeval.market import hedged_family, market
from treeval.risksharing import (
    check_sharing_axioms,
    committed_family,
    entropic_allocation,
    entropic_share_params,
    entropic_sharing_family,
    pooled_family,
    share_dual,
    share_value,
    stability_check,
)
from treeval.risksharing import _layout, _pooled_block, _rule
from treeval.tree import CashBalance
from treeval.valuation import ValuationFamily, assemble, check_axioms, linear_one_step

TIGHT = DualSolverOptions(tolerance=1e-11)


def numeric_pool(families, opts):
    """The pool of the families by one-step sups at every level, even where
    a kernel rule covers the level: the oracle of the kernel rules."""
    tree = families[0].tree
    return ValuationFamily(tree, lambda: [_pooled_block(blocks, None, tree, opts) for blocks in _layout(families)])


def hetero_pair():
    """The designated heterogeneous-beliefs case on the 3-node tree."""
    t = three_node_tree((0.2, 0.4, 0.4))
    p1 = entropic_params(t, 1.0)
    p2 = entropic_params(t, 1.0, reference=np.array([0.2, 0.6, 0.2]))
    return t, p1, p2


class TestShareDual:
    def test_sum_of_identical_duals(self):
        t, p1, _ = hetero_pair()
        lam = dual_density(t, "root", {"root": 0.2, "up": 0.5, "down": 0.3})
        single = entropic_dual(p1, "root", lam)
        fns = [lambda dd: entropic_dual(p1, "root", dd)] * 3
        assert share_dual(fns, lam) == pytest.approx(3 * single, abs=1e-14)

    def test_common_reference_gives_zero(self):
        t, p1, _ = hetero_pair()
        lam = dual_density(t, "root", {"root": 0.2, "up": 0.4, "down": 0.4})
        assert share_dual([lambda dd: entropic_dual(p1, "root", dd)] * 2, lam) == pytest.approx(0.0, abs=1e-14)

    def test_sum_equals_aggregate_dual_plus_pooling_gain(self):
        t, p1, p2 = hetero_pair()
        plan = entropic_share_params([p1, p2], "root")
        agg = entropic_params(t, plan.big_gamma,
                              np.array([plan.density[i] for i in t.ids]))
        rng = np.random.default_rng(4)
        for _ in range(20):
            raw = rng.uniform(0.05, 1.0, 3)
            lam = dict(zip(t.ids, raw / raw.sum()))
            total = entropic_dual(p1, "root", lam) + entropic_dual(p2, "root", lam)
            expected = entropic_dual(agg, "root", lam) + plan.value_of_sharing
            assert total == pytest.approx(expected, abs=1e-12)


class TestEntropicSharePlan:
    def test_equal_beliefs_have_no_pooling_gain(self):
        t = three_node_tree()
        p1 = entropic_params(t, 1.0)
        p2 = entropic_params(t, 3.0)
        plan = entropic_share_params([p1, p2], "root")
        assert plan.value_of_sharing == pytest.approx(0.0, abs=1e-12)
        assert plan.scale == pytest.approx(1.0, abs=1e-12)
        assert plan.density["up"] == pytest.approx(0.4, abs=1e-12)

    def test_reciprocal_aggregation(self):
        t = three_node_tree()
        plan = entropic_share_params([entropic_params(t, 2.0), entropic_params(t, 2.0)], "root")
        assert plan.big_gamma == pytest.approx(1.0, abs=1e-15)

    def test_heterogeneous_gain_closed_form(self):
        t, p1, p2 = hetero_pair()
        plan = entropic_share_params([p1, p2], "root")
        # direct evaluation: -(1/Gamma) log sum_y sqrt(p1_y p2_y)
        expected = -2.0 * np.log(np.sqrt(0.2 * 0.2) + np.sqrt(0.4 * 0.6) + np.sqrt(0.4 * 0.2))
        assert plan.value_of_sharing == pytest.approx(expected, abs=1e-12)
        assert plan.value_of_sharing > 1e-6
        assert sum(plan.density.values()) == pytest.approx(1.0, abs=1e-12)


class TestShareValue:
    def test_identical_subsidiaries_pool_to_reduced_risk_aversion(self):
        # pooling J copies of a gamma-agent is the Gamma = gamma/J aggregate,
        # so the value is J pi(K/J) and the split is K/J each
        t, p1, _ = hetero_pair()
        k = CashBalance.from_mapping(t, {"root": 0.0, "up": 1.0, "down": -1.0})
        res = share_value([p1, p1], "root", k, TIGHT)
        half = CashBalance(t, k.values / 2)
        assert res.value == pytest.approx(2 * entropic_value(p1, "root", half), abs=1e-8)
        assert res.value_of_sharing == pytest.approx(0.0, abs=1e-9)
        for piece in res.allocation:
            assert np.allclose(piece.values, k.values / 2, atol=1e-6)

    def test_equal_beliefs_gamma22_match_unit_aggregate(self):
        t = three_node_tree()
        subs = [entropic_params(t, 2.0), entropic_params(t, 2.0)]
        k = CashBalance.from_mapping(t, {"root": 0.5, "up": 2.0, "down": -1.0})
        res = share_value(subs, "root", k, TIGHT)
        assert res.value == pytest.approx(entropic_value(entropic_params(t, 1.0), "root", k), abs=1e-8)

    def test_heterogeneous_numeric_matches_closed_form(self):
        t, p1, p2 = hetero_pair()
        k = CashBalance.from_mapping(t, {"root": 0.0, "up": 1.0, "down": -1.0})
        plan = entropic_share_params([p1, p2], "root")
        agg = entropic_sharing_family([p1, p2])
        res = share_value([p1, p2], "root", k, TIGHT)
        assert res.value == pytest.approx(agg.value("root", k) + plan.value_of_sharing, abs=1e-6)
        assert res.value_of_sharing == pytest.approx(plan.value_of_sharing, abs=1e-6)
        assert res.value_of_sharing > 1e-6
        assert res.feasibility_gap <= 1e-8
        assert abs(res.achieved_value - res.value) <= 1e-6

    def test_dual_and_direct_routes_agree(self):
        t, p1, p2 = hetero_pair()
        rng = np.random.default_rng(11)
        for _ in range(5):
            k = random_cash(rng, t, -2, 2)
            a = share_value([p1, p2], "root", k, TIGHT, method="dual")
            b = share_value([p1, p2], "root", k,
                            DualSolverOptions(gradient_tolerance=1e-8), method="direct")
            assert a.value == pytest.approx(b.value, abs=1e-6)
            assert b.feasibility_gap <= 1e-12 and abs(b.achieved_value - b.value) <= 1e-12

    def test_value_independence_via_added_duals(self):
        # recovering the primal from the summed subsidiary duals agrees with
        # the direct sup-convolution
        from treeval.dual import primal_from_dual
        from treeval.families import entropic_dual
        from treeval.risksharing import share_dual

        t, p1, p2 = hetero_pair()
        rng = np.random.default_rng(29)
        fns = [lambda dd: entropic_dual(p1, "root", dd),
               lambda dd: entropic_dual(p2, "root", dd)]
        for _ in range(3):
            k = random_cash(rng, t, -2, 2)
            pooled, _ = primal_from_dual(lambda dd: share_dual(fns, dd), "root", k,
                                         DualSolverOptions(tolerance=1e-10))
            direct = share_value([p1, p2], "root", k,
                                 DualSolverOptions(gradient_tolerance=1e-8), method="direct")
            assert pooled == pytest.approx(direct.value, abs=1e-6)

    def test_single_subsidiary_degenerates_to_the_valuation(self):
        t, p1, _ = hetero_pair()
        k = CashBalance.from_mapping(t, {"root": 0.3, "up": 1.5, "down": -0.7})
        res = share_value([p1], "root", k)
        assert res.value == pytest.approx(entropic_value(p1, "root", k), abs=1e-12)
        assert res.value_of_sharing == pytest.approx(0.0, abs=1e-12)

    def test_identical_coherent_subsidiaries_share_at_face_value(self):
        # positive homogeneity makes pooling identical agents a wash
        t = three_node_tree()
        params = worst_case_params(t, {"root": [[0.5, 0.5], [0.2, 0.8]]}, stopping=True)
        fam = worst_case_family(params)
        k = CashBalance.from_mapping(t, {"root": 0.4, "up": 1.0, "down": -1.0})
        res = share_value([fam, fam], "root", k, DualSolverOptions(gradient_tolerance=1e-7))
        assert res.value == pytest.approx(fam.value("root", k), abs=1e-6)

    def test_pooling_gain_never_negative(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            t = random_tree(np.random.default_rng(seed + 60), max_depth=2)
            raw1 = rng.uniform(0.1, 1.0, t.n_nodes)
            raw2 = rng.uniform(0.1, 1.0, t.n_nodes)
            p1 = entropic_params(t, 1.0, raw1 / raw1.sum())
            p2 = entropic_params(t, 2.0, raw2 / raw2.sum())
            res = share_value([p1, p2], t.root, random_cash(rng, t, -2, 2), TIGHT)
            assert res.value_of_sharing >= -1e-12
            if np.max(np.abs(p1.reference - p2.reference)) >= 0.05:
                assert res.value_of_sharing > 1e-6

    def test_dual_route_requires_entropic_subs(self):
        t = three_node_tree()
        fam = entropic_family(entropic_params(t, 1.0))
        with pytest.raises(ValidationError, match="dual route"):
            share_value([fam, fam], "root", CashBalance.constant(t, 0.0), method="dual")

    def test_unknown_method_is_rejected(self):
        t, p1, p2 = hetero_pair()
        with pytest.raises(ValidationError, match="'auto', 'dual' or 'direct'"):
            share_value([p1, p2], "root", CashBalance.constant(t, 0.0), method="duel")

    def test_dual_route_reads_the_pooled_kernel(self):
        # the density is the reverse-sweep gradient of the pooled family and
        # the allocation the closed form, with no solver behind either
        t, p1, p2 = hetero_pair()
        k = CashBalance.from_mapping(t, {"root": 0.3, "up": 1.0, "down": -1.0})
        res = share_value([p1, p2], "root", k, method="dual")
        grad = pooled_family([p1, p2]).values_and_gradient(k.values, 0)[1]
        assert res.converged and res.method == "dual"
        assert [res.argmin_density.values[i] for i in t.ids] == pytest.approx(grad, abs=1e-14)
        for piece, closed in zip(res.allocation, entropic_allocation([p1, p2], "root", k)):
            assert np.max(np.abs(piece.values - closed.values)) <= 1e-14


def mixed_pair(rng, tree):
    """Entropic subsidiary with a random gamma and a worst-case stopping
    subsidiary with one random distribution per node."""
    ent = entropic_params(tree, float(rng.uniform(0.5, 2.0)))
    alpha = {tree.ids[u]: [rng.dirichlet([2.0, 2.0]).tolist()] for u in tree.internal_indices()}
    return ent, worst_case_family(worst_case_params(tree, alpha, stopping=True))


class TestPooledFamily:
    @pytest.mark.parametrize("depth", [1, 2])
    def test_per_node_pooling_no_lower_than_the_global_search(self, depth):
        rng = np.random.default_rng(70 + depth)
        for _ in range(2):
            raw = rng.uniform(0.1, 1.0, 2 ** (depth + 1) - 1)
            t = binary_tree(depth, weights=raw / raw.sum())
            ent, wc = mixed_pair(rng, t)
            k = random_cash(rng, t, -2.0, 2.0)
            res = share_value([ent, wc], t.root, k, method="direct")
            assert res.value >= global_pool_value([entropic_family(ent), wc], t.root, k) - 1e-9
            assert res.feasibility_gap <= 1e-12
            assert abs(res.achieved_value - res.value) <= 1e-12

    def test_allocation_at_an_inner_node(self):
        rng = np.random.default_rng(3)
        t = binary_tree(2, weights=[0.1, 0.2, 0.2, 0.125, 0.125, 0.125, 0.125])
        ent, wc = mixed_pair(rng, t)
        k = random_cash(rng, t, -2.0, 2.0)
        res = share_value([ent, wc], "u", k, method="direct")
        total = res.allocation[0].values + res.allocation[1].values
        sub_idx = t.descendant_indices(t.node_index("u"))
        assert np.max(np.abs(total[sub_idx] - k.values[sub_idx])) <= 1e-12
        off = np.setdiff1d(np.arange(t.n_nodes), sub_idx)
        assert np.all(total[off] == 0.0)
        assert res.value == pytest.approx(pooled_family([ent, wc]).value("u", k), abs=1e-12)

    def test_derived_valuations_are_valuation_families(self):
        t, p1, p2 = hetero_pair()
        pooled = pooled_family([p1, p2])
        assert isinstance(pooled, ValuationFamily)
        assert isinstance(committed_family(pooled, CashBalance.constant(t, 0.0)), ValuationFamily)


def worst_subsidiary(rng, tree, distributions, stopping=True):
    """Worst-case subsidiary with the given number of random distributions
    a node: with stopping, a polytope of distributions + 1 vertices."""
    alpha = {tree.ids[u]: rng.dirichlet(np.full(len(tree.children_index[u]), 2.0), distributions).tolist()
             for u in tree.internal_indices()}
    return worst_case_family(worst_case_params(tree, alpha, stopping=stopping))


def exponential_subsidiary(kind, tree, gamma):
    """An exponential subsidiary on the tree's weights, as its parameters,
    its entropic family, or an exponential-utility indifference family."""
    if kind == "params":
        return entropic_params(tree, gamma)
    if kind == "entropic_family":
        return entropic_family(entropic_params(tree, gamma))
    return ui_family(ui_params(tree, ExponentialUtility(gamma), 2.0))


class TestPolytopePoolingRule:
    """Exponential subsidiaries pooled with one worst-case subsidiary: one
    kernel family minimizing the pooled entropic conjugate over the
    worst-case polytope, with the numeric route and the global search as
    oracles."""

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("distributions", [1, 2])
    def test_matches_the_numeric_route_and_the_global_search(self, depth, distributions):
        rng = np.random.default_rng(10 * depth + distributions)
        raw = rng.uniform(0.1, 1.0, 2 ** (depth + 1) - 1)
        t = binary_tree(depth, weights=raw / raw.sum())
        ent = entropic_params(t, float(rng.uniform(0.5, 2.0)))
        wc = worst_subsidiary(rng, t, distributions)
        pooled = pooled_family([ent, wc])
        numeric = numeric_pool([entropic_family(ent), wc], DualSolverOptions(gradient_tolerance=1e-8))
        rows = rng.uniform(-2.0, 2.0, (3, t.n_nodes))
        assert np.max(np.abs(pooled.node_values(rows) - numeric.node_values(rows))) <= 1e-6
        k = random_cash(rng, t, -2.0, 2.0)
        assert pooled.value(t.root, k) >= global_pool_value([entropic_family(ent), wc], t.root, k) - 1e-9

    @pytest.mark.parametrize("exponential", [2, 3])
    def test_several_exponential_subsidiaries_with_one_worst_case(self, exponential):
        rng = np.random.default_rng(exponential)
        raw = rng.uniform(0.1, 1.0, 7)
        t = binary_tree(2, weights=raw / raw.sum())
        subs = []
        for _ in range(exponential):
            ref = rng.uniform(0.1, 1.0, t.n_nodes)
            subs.append(entropic_params(t, float(rng.uniform(0.5, 2.0)), ref / ref.sum()))
        subs.insert(1, worst_subsidiary(rng, t, 2))
        numeric = numeric_pool([entropic_family(s) if i != 1 else s for i, s in enumerate(subs)],
                               DualSolverOptions(gradient_tolerance=1e-8))
        rows = rng.uniform(-2.0, 2.0, (2, t.n_nodes))
        assert np.max(np.abs(pooled_family(subs).node_values(rows) - numeric.node_values(rows))) <= 1e-6
        k = random_cash(rng, t, -2.0, 2.0)
        res = share_value(subs, t.root, k, method="direct")
        assert res.value == pytest.approx(pooled_family(subs).value(t.root, k), abs=1e-12)
        assert res.feasibility_gap <= 1e-12
        assert abs(res.achieved_value - res.value) <= 1e-12

    def test_pools_without_a_numeric_sup(self, monkeypatch):
        # the rule is read off the kernels, whatever type the exponential
        # subsidiary comes as, with a worst-case subsidiary or another
        # exponential one
        def refuse(*args, **kwargs):
            raise AssertionError("a numeric sup ran on a kernel-rule path")

        monkeypatch.setattr(optim, "sup", refuse)
        monkeypatch.setattr(optim, "newton_ascent", refuse)
        monkeypatch.setattr(optim, "maximize_nelder_mead", refuse)
        t = binary_tree(2, weights=[0.1, 0.2, 0.2, 0.125, 0.125, 0.125, 0.125])
        for kind in ("params", "entropic_family", "ui_exponential"):
            for with_worst in (True, False):
                rng = np.random.default_rng(4)
                subs = [exponential_subsidiary(kind, t, 1.3),
                        worst_subsidiary(rng, t, 2) if with_worst else exponential_subsidiary(kind, t, 0.6)]
                k = random_cash(rng, t, -2.0, 2.0)
                res = share_value(subs, "u", k, method="direct")
                assert res.converged and res.feasibility_gap <= 1e-12
                assert abs(res.achieved_value - res.value) <= 1e-12
                assert check_sharing_axioms(subs, trials=5, seed=3).all_passed

    @pytest.mark.parametrize("with_worst", [True, False])
    def test_entropic_families_pool_as_their_parameters_bit_for_bit(self, with_worst):
        rng = np.random.default_rng(6)
        t = random_tree(np.random.default_rng(61), max_depth=3, max_branching=3)
        subs = []
        for gamma in (0.7, 1.9, 1.2):
            raw = rng.uniform(0.1, 1.0, t.n_nodes)
            subs.append(entropic_params(t, gamma, raw / raw.sum()))
        extra = [worst_subsidiary(rng, t, 2)] if with_worst else []
        params, families = subs + extra, [entropic_family(s) for s in subs] + extra
        rows = rng.uniform(-2.0, 2.0, (4, t.n_nodes))
        assert np.array_equal(pooled_family(families).node_values(rows), pooled_family(params).node_values(rows))
        k = random_cash(rng, t, -2.0, 2.0)
        a = share_value(params, t.root, k, method="direct")
        b = share_value(families, t.root, k, method="direct")
        assert [a.value, a.value_of_sharing, a.achieved_value] == [b.value, b.value_of_sharing, b.achieved_value]
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a.allocation, b.allocation))

    def test_exponential_utility_pools_as_the_entropic_family(self):
        rng = np.random.default_rng(8)
        t = random_tree(np.random.default_rng(62), max_depth=3, max_branching=3)
        worst = worst_subsidiary(rng, t, 2)
        rows = rng.uniform(-2.0, 2.0, (4, t.n_nodes))
        ui = pooled_family([exponential_subsidiary("ui_exponential", t, 1.3), worst]).node_values(rows)
        ent = pooled_family([entropic_params(t, 1.3), worst]).node_values(rows)
        assert np.array_equal(ui, ent)

    def test_a_family_built_level_by_level_pools_each_level_by_its_own_rule(self):
        # a worst-case family with stopping below the root and without it at
        # the root: the polytope rule pools the lower level, and one-step
        # sups the root, where the polytope leaves own cash without mass
        rng = np.random.default_rng(31)
        raw = rng.uniform(0.1, 1.0, 7)
        t = binary_tree(2, weights=raw / raw.sum())
        alpha = {t.ids[u]: rng.dirichlet([2.0, 2.0], 2).tolist() for u in t.internal_indices()}
        below = worst_case_family(worst_case_params(t, alpha, stopping=True)).blocks[0]
        top = worst_case_family(worst_case_params(t, alpha, stopping=False)).blocks[1]
        mixed = ValuationFamily(t, lambda: [below, top])
        ent = entropic_family(entropic_params(t, float(rng.uniform(0.5, 2.0))))
        assert [_rule(blocks) is not None for blocks in _layout([ent, mixed])] == [True, False]
        pooled = pooled_family([ent, mixed])
        numeric = numeric_pool([ent, mixed], DualSolverOptions(gradient_tolerance=1e-8))
        rows = rng.uniform(-2.0, 2.0, (3, t.n_nodes))
        assert np.max(np.abs(pooled.node_values(rows) - numeric.node_values(rows))) <= 1e-6
        k = random_cash(rng, t, -2.0, 2.0)
        res = share_value([ent, mixed], t.root, k, method="direct")
        assert res.value == pytest.approx(pooled.value(t.root, k), abs=1e-12)
        assert res.value >= global_pool_value([ent, mixed], t.root, k) - 1e-9
        assert res.converged and res.feasibility_gap <= 1e-12
        assert abs(res.achieved_value - res.value) <= 1e-12

    def test_other_mixes_keep_the_numeric_route(self):
        t = three_node_tree()
        ent = entropic_params(t, 1.0)
        stop = worst_case_family(worst_case_params(t, {"root": [[0.5, 0.5]]}, stopping=True))
        no_stop = worst_case_family(worst_case_params(t, {"root": [[0.5, 0.5]]}, stopping=False))
        crra = ui_family(ui_params(t, CRRAUtility(2.0), 5.0))

        def rules(subs):
            return [_rule(blocks) for blocks in _layout([entropic_family(ent) if s is ent else s for s in subs])]

        for subs in ([ent, no_stop], [ent, stop, stop], [ent, crra], [stop]):
            assert rules(subs) == [None]
        assert None not in rules([ent, stop])


def central_differences(fam, k, xi, h=1e-5):
    """d node_values[xi] / dK by central differences, every node at once."""
    bump = np.eye(k.shape[-1]) * h
    return (fam.node_values(k + bump)[:, xi] - fam.node_values(k - bump)[:, xi]) / (2.0 * h)


def crra_pair(rng, tree):
    """An exponential subsidiary with a random gamma and a CRRA indifference
    subsidiary: a mix no kernel rule covers."""
    return [entropic_params(tree, float(rng.uniform(0.5, 2.0))), ui_family(ui_params(tree, CRRAUtility(2.0), 5.0))]


class TestNumericPool:
    """Mixes no kernel rule covers: one block of one-step sups per level
    block of the subsidiaries, batched by damped Newton."""

    @pytest.mark.parametrize("depth", [1, 2])
    def test_matches_the_global_search_and_passes_the_axioms(self, depth):
        rng = np.random.default_rng(80 + depth)
        raw = rng.uniform(0.1, 1.0, 2 ** (depth + 1) - 1)
        t = binary_tree(depth, weights=raw / raw.sum())
        subs = crra_pair(rng, t)
        k = random_cash(rng, t, -2.0, 2.0)
        res = share_value(subs, t.root, k, DualSolverOptions(gradient_tolerance=1e-8), method="direct")
        assert res.converged and res.feasibility_gap <= 1e-12
        assert abs(res.achieved_value - res.value) <= 1e-12
        assert res.value == pytest.approx(global_pool_value([entropic_family(subs[0]), subs[1]], t.root, k),
                                          abs=1e-8)
        report = check_sharing_axioms(subs, trials=2, seed=depth)
        assert report.all_passed, report.as_dict()

    def test_blocks_match_the_subsidiaries_and_carry_the_envelope(self):
        t = binary_tree(2)
        subs = crra_pair(np.random.default_rng(1), t)
        pooled = pooled_family(subs)
        assert len(pooled.blocks) == len(subs[1].blocks)
        for outer, inner in zip(pooled.blocks, subs[1].blocks):
            assert np.array_equal(outer.nodes, inner.nodes) and np.array_equal(outer.kids, inner.kids)
            assert outer.kernel.grad is not None
            assert outer.kernel.descriptor == f"pooled(entropic(gamma={subs[0].gamma}), {inner.kernel.descriptor})"

    def test_pooled_gradient_is_each_subsidiary_gradient_at_its_share(self):
        # first-order optimality of the split: every subsidiary's marginal
        # valuation of its share is the pooled one
        rng = np.random.default_rng(7)
        raw = rng.uniform(0.1, 1.0, 7)
        t = binary_tree(2, weights=raw / raw.sum())
        subs = crra_pair(rng, t)
        k = random_cash(rng, t, -2.0, 2.0)
        res = share_value(subs, t.root, k, method="direct")
        grad = pooled_family(subs).values_and_gradient(k.values, t.root_index)[1]
        for fam, piece in zip([entropic_family(subs[0]), subs[1]], res.allocation):
            assert np.max(np.abs(fam.values_and_gradient(piece.values, t.root_index)[1] - grad)) <= 1e-6

    def test_a_custom_subsidiary_pools_over_one_node_blocks(self):
        # an assemble-built family has a block per node, the exponential one
        # a block per level: the pool cuts both to one node a block
        rng = np.random.default_rng(5)
        raw = rng.uniform(0.1, 1.0, (2, 7))
        t = binary_tree(2, weights=raw[0] / raw[0].sum())
        p1, p2 = entropic_params(t, 0.8), entropic_params(t, 1.7, raw[1] / raw[1].sum())
        custom = assemble(t, {t.ids[u]: entropic_one_step(p2, t.ids[u]) for u in t.internal_indices()})
        pooled = pooled_family([p1, custom])
        assert [b.nodes.tolist() for b in pooled.blocks] == [[t.node_index(x)] for x in ("u", "d", "r")]
        k = random_cash(rng, t, -2.0, 2.0)
        value = pooled.value(t.root, k)
        assert value == pytest.approx(global_pool_value([entropic_family(p1), custom], t.root, k), abs=1e-8)
        assert value == pytest.approx(pooled_family([p1, p2]).value(t.root, k), abs=1e-8)

    @pytest.mark.parametrize("order", [1, -1])
    def test_a_kinked_mix_differences_its_partials(self, order):
        # a worst-case subsidiary without stopping ends its share at a kink,
        # where its partials are one vertex, not the gradient of the pooled
        # value, which is smooth: the pool's partials are central
        # differences, in either order
        rng = np.random.default_rng(12)
        raw = rng.uniform(0.1, 1.0, 7)
        t = binary_tree(2, weights=raw / raw.sum())
        subs = [entropic_params(t, float(rng.uniform(0.5, 2.0))), worst_subsidiary(rng, t, 2, stopping=False)]
        pooled = pooled_family(subs[::order])
        assert all(b.kernel.grad is None for b in pooled.blocks)
        k = random_cash(rng, t, -2.0, 2.0).values
        grad = pooled.values_and_gradient(k, t.root_index)[1]
        assert np.max(np.abs(grad - central_differences(pooled, k, t.root_index))) <= 1e-6

    def test_one_subsidiary_pools_to_itself(self):
        t = binary_tree(2)
        crra = crra_pair(np.random.default_rng(2), t)[1]
        k = random_cash(np.random.default_rng(3), t, -2.0, 2.0)
        assert np.array_equal(pooled_family([crra]).node_values(k.values), crra.node_values(k.values))
        res = share_value([crra], "u", k)
        assert res.value == crra.value("u", k) and res.feasibility_gap == 0.0

    @pytest.mark.parametrize("kind", ["kinked", "smooth"])
    def test_direct_route_allocates_exactly_on_numeric_levels(self, kind):
        # the splits come from the two-row solve that gives the values, the
        # kinked ones from its Nelder-Mead fallback
        rng = np.random.default_rng(21)
        t = binary_tree(2)
        other = (worst_subsidiary(rng, t, 2, stopping=False) if kind == "kinked"
                 else ui_family(ui_params(t, CRRAUtility(2.0), 5.0)))
        subs = [entropic_params(t, float(rng.uniform(0.5, 2.0))), other]
        assert [_rule(blocks) for blocks in _layout([entropic_family(subs[0]), other])] == [None, None]
        k = random_cash(rng, t, -2.0, 2.0)
        for x in (t.root, "u"):
            res = share_value(subs, x, k, method="direct")
            assert res.converged and res.feasibility_gap <= 1e-12
            assert abs(res.achieved_value - res.value) <= 1e-12
            assert res.value == pytest.approx(pooled_family(subs).value(x, k), abs=1e-12)

    def test_divergence_names_its_node(self):
        # linear subsidiaries that disagree at 'u' trade without bound there
        t = binary_tree(2)
        steps = {t.ids[u]: linear_one_step([0.5, 0.5]) for u in t.internal_indices()}
        a = assemble(t, steps)
        b = assemble(t, {**steps, "u": linear_one_step([0.2, 0.8])})
        with pytest.raises(DivergenceError, match="at 'u'") as err:
            pooled_family([a, b]).value("r", CashBalance.constant(t, 0.0))
        assert err.value.direction is not None


class TestDirectRouteSolves:
    """``share_value(method='direct')`` solves each pooled level once, for
    its values and its split together."""

    @staticmethod
    def count(monkeypatch):
        calls = {"sups": 0, "polytope": 0}

        def counted(module, name, key):
            original = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        counted(treeval.valuation, "_one_step_sups", "sups")
        counted(treeval.families, "_polytope_log_argmin", "polytope")
        return calls

    @pytest.mark.parametrize("kind", ["polytope", "sups", "both"])
    def test_each_pooled_level_is_solved_once(self, monkeypatch, kind):
        rng = np.random.default_rng(33)
        t = binary_tree(2)
        alpha = {t.ids[u]: rng.dirichlet([2.0, 2.0], 2).tolist() for u in t.internal_indices()}
        stop = worst_case_family(worst_case_params(t, alpha, stopping=True))
        other = {"polytope": stop, "sups": ui_family(ui_params(t, CRRAUtility(2.0), 5.0)),
                 # the polytope rule below the root, one-step sups at the root
                 "both": ValuationFamily(t, lambda: [stop.blocks[0], worst_case_family(
                     worst_case_params(t, alpha, stopping=False)).blocks[1]])}[kind]
        subs = [entropic_params(t, 0.8), other]
        k = random_cash(rng, t, -2.0, 2.0)
        calls = self.count(monkeypatch)
        for x in (t.root, "u"):
            before = dict(calls)
            share_value(subs, x, k, method="direct")
            solved = {key: calls[key] - before[key] for key in calls}
            assert solved == {"polytope": {"polytope": 2, "sups": 0, "both": 1}[kind],
                              "sups": {"polytope": 0, "sups": 2, "both": 1}[kind]}


@pytest.mark.parametrize("kind", ["rule", "disjoint", "overlapping", "sups"])
def test_direct_values_are_the_pooled_sweep_at_the_balance_and_at_zero(kind):
    # the values and the split come from one route: share_value's values
    # are those of the pooled family's own sweep, bit for bit, on levels of
    # the exponential rule, of the polytope rule with one distribution
    # (disjoint vertices) or two (overlapping ones), and of one-step sups
    rng = np.random.default_rng(34)
    t = binary_tree(2)
    alpha = {t.ids[u]: rng.dirichlet([2.0, 2.0], 1 if kind == "disjoint" else 2).tolist()
             for u in t.internal_indices()}
    other = {"rule": lambda: entropic_family(entropic_params(t, 1.7)),
             "disjoint": lambda: worst_case_family(worst_case_params(t, alpha, stopping=True)),
             "overlapping": lambda: worst_case_family(worst_case_params(t, alpha, stopping=True)),
             "sups": lambda: ui_family(ui_params(t, CRRAUtility(2.0), 5.0))}[kind]()
    subs = [entropic_params(t, 0.8), other]
    k = random_cash(rng, t, -2.0, 2.0)
    swept = pooled_family(subs).node_values(np.stack([k.values, np.zeros(t.n_nodes)]))
    for xi, x in enumerate(t.ids):
        res = share_value(subs, x, k, method="direct")
        assert (res.value, res.value_of_sharing) == (swept[0, xi], swept[1, xi])


def polytope_calls(monkeypatch):
    """The node-axis length of the cost each ``_pair_move`` and
    ``_newton_move`` call receives from here on, by name."""
    calls = {"_pair_move": [], "_newton_move": []}
    for name, seen in calls.items():
        def counted(cost, *args, _inner=getattr(treeval.families, name), _seen=seen):
            _seen.append(cost.shape[-2])
            return _inner(cost, *args)

        monkeypatch.setattr(treeval.families, name, counted)
    return calls


class TestDisjointPolytope:
    """A node whose polytope vertices have disjoint supports, one
    distribution with stopping among them, is solved in closed form; the
    rounds of moves solve the rest of its block."""

    @staticmethod
    def batch(rng):
        """A pooled kernel's data and arguments: (rows, nodes) of random
        one-distribution polytopes {e_0, (0, alpha)}, |cost| up to 2000."""
        rows, nodes, m = int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(2, 5))
        gamma = float(np.exp(rng.uniform(np.log(1e-3), np.log(50.0))))
        v = np.zeros((nodes, 2, m))
        v[:, 0, 0], v[:, 1, 1:] = 1.0, rng.dirichlet(np.ones(m - 1), nodes)
        log_w = np.log(rng.dirichlet(np.ones(m), nodes))
        k = rng.uniform(-1.0, 1.0, (rows, nodes, m)) * 10.0 ** rng.uniform(-1.0, np.log10(2000.0)) / gamma
        return gamma, log_w, v, k

    def test_matches_the_rounds_on_the_same_polytope(self, monkeypatch):
        # the oracle adds the midpoint of the two vertices, a point of the
        # same polytope that breaks disjointness, so it takes the rounds (a
        # repeated vertex would not: it is recognized as the same vertex)
        calls = polytope_calls(monkeypatch)
        rng = np.random.default_rng(2005)
        for _ in range(300):
            gamma, log_w, v, k = self.batch(rng)
            kernel = treeval.families._confined_kernel(gamma)
            del calls["_pair_move"][:]
            value, q = kernel.grad((log_w, _vertex_plan(v)), k.copy())
            assert calls["_pair_move"] == []
            mid = np.concatenate([v, v.mean(axis=-2, keepdims=True)], axis=-2)
            oracle = kernel.grad((log_w, _vertex_plan(mid)), k.copy())[0]
            assert calls["_pair_move"]
            assert np.all(np.abs(value - oracle) <= 1e-12 * (1.0 + np.abs(oracle)))
            # the problem the solver solves, in its own units: both sums
            # are rounded, so "never above" holds to their rounding
            cost = gamma * k - log_w
            log_q = treeval.families._polytope_log_argmin(cost, _vertex_plan(v))
            log_q_oracle = treeval.families._polytope_log_argmin(cost, _vertex_plan(mid))
            objective, objective_oracle = ((np.exp(lq) * (cost + lq)).sum(axis=-1) for lq in (log_q, log_q_oracle))
            assert np.all(objective <= objective_oracle + 1e-14 * (1.0 + np.abs(objective_oracle)))
            assert np.isfinite(log_q).all()
            assert np.array_equal(q, np.exp(log_q))

    def test_partials_match_central_differences(self):
        rng = np.random.default_rng(2006)
        for _ in range(100):
            gamma, log_w, v, k = self.batch(rng)
            kernel = treeval.families._confined_kernel(gamma)
            q = kernel.grad((log_w, _vertex_plan(v)), k.copy())[1]
            h = 1e-5 / gamma
            bump = (np.eye(k.shape[-1]) * h)[:, None, None, :]
            up, down = (kernel.evaluate((log_w, _vertex_plan(v)), z) for z in (k + bump, k - bump))
            assert np.max(np.abs(q - np.moveaxis((up - down) / (2.0 * h), 0, -1))) <= 1e-6

    def test_a_repeated_vertex_is_the_same_vertex(self, monkeypatch):
        calls = polytope_calls(monkeypatch)
        gamma, log_w, v, k = self.batch(np.random.default_rng(7))
        kernel = treeval.families._confined_kernel(gamma)
        value = kernel.evaluate((log_w, _vertex_plan(v)), k.copy())
        repeated = kernel.evaluate((log_w, _vertex_plan(v[:, [0, 1, 1, 0]])), k.copy())
        assert calls == {"_pair_move": [], "_newton_move": []}
        assert np.max(np.abs(value - repeated)) <= 1e-12 * (1.0 + np.max(np.abs(value)))

    @pytest.mark.parametrize("depth", [1, 2, 3, "criterion_05"])
    def test_one_distribution_with_stopping_takes_no_rounds(self, monkeypatch, depth):
        rng = np.random.default_rng(17)
        if depth == "criterion_05":
            t, alpha = three_node_tree(), {"root": [[0.5, 0.5]]}
        else:
            t = binary_tree(depth)
            alpha = {t.ids[u]: rng.dirichlet([2.0, 2.0], 1).tolist() for u in t.internal_indices()}
        subs = [entropic_params(t, 1.0), worst_case_family(worst_case_params(t, alpha, stopping=True))]
        calls = polytope_calls(monkeypatch)
        k = random_cash(rng, t, -2.0, 2.0)
        res = share_value(subs, t.root, k, method="direct")
        assert res.converged and res.feasibility_gap <= 1e-12
        assert abs(res.achieved_value - res.value) <= 1e-12
        pooled_family(subs).values_and_gradient(rng.uniform(-2.0, 2.0, (3, t.n_nodes)), t.root_index)
        assert check_sharing_axioms(subs, trials=5, seed=3, cash_range=(-2.0, 2.0)).all_passed
        assert calls == {"_pair_move": [], "_newton_move": []}

    @pytest.mark.parametrize("kind", ["disjoint", "overlapping", "mixed"])
    def test_a_plan_built_with_the_block_is_a_plan_built_per_call(self, kind):
        # the vertex plan a pooled block keeps in its data, whole and as
        # Block.parts slices it, gives bit for bit the values and partials
        # of a plan built afresh from the block's vertices at each call
        rng = np.random.default_rng(29)
        t = binary_tree(3)
        counts = {"disjoint": dict.fromkeys(t.ids, 1), "overlapping": dict.fromkeys(t.ids, 2),
                  "mixed": {"r": 1, "u": 1, "d": 2, "uu": 1, "ud": 2, "du": 2, "dd": 1}}[kind]
        alpha = {x: rng.dirichlet([2.0, 2.0], counts[x]).tolist() for x in t.ids if not t.is_leaf[t.node_index(x)]}
        pooled = pooled_family([entropic_params(t, 0.8), worst_case_family(worst_case_params(t, alpha))])
        for block in pooled.blocks:
            k = outcomes(rng.uniform(-2.0, 2.0, (3, block.nodes.size)), rng.uniform(-2.0, 2.0, (3,) + block.kids.shape))
            for step in (block.nodes.size, 1):
                for data, nodes, _ in block.parts(step):
                    part = k[:, np.isin(block.nodes, nodes)]
                    kept = block.kernel.grad(data, part.copy())
                    fresh = block.kernel.grad((data[0], _vertex_plan(block.kernel.rule(data)[2])), part.copy())
                    assert all(np.array_equal(a, b) for a, b in zip(kept, fresh))

    def test_a_mixed_level_sends_only_its_overlapping_nodes_to_the_rounds(self, monkeypatch):
        # the level below the root holds 'u' with one distribution (padded
        # by its repeat) and 'd' with two; the leaves' parents hold two
        # nodes of each kind
        rng = np.random.default_rng(23)
        t = binary_tree(3)
        counts = {"r": 1, "u": 1, "d": 2, "uu": 1, "ud": 2, "du": 2, "dd": 1}
        alpha = {x: rng.dirichlet([2.0, 2.0], n).tolist() for x, n in counts.items()}
        subs = [entropic_params(t, 0.8), worst_case_family(worst_case_params(t, alpha, stopping=True))]
        calls = polytope_calls(monkeypatch)
        pooled = pooled_family(subs)
        pooled.node_values(rng.uniform(-2.0, 2.0, (4, t.n_nodes)))
        assert set(calls["_pair_move"]) == {1, 2}
        assert calls["_newton_move"] and set(calls["_newton_move"]) <= {1, 2}
        # each block against the rounds on every node, forced by adding
        # the midpoint of each node's first two vertices
        for block in pooled.blocks:
            log_w, (v, *_) = block.data
            mid = np.concatenate([v, v[:, :2].mean(axis=-2, keepdims=True)], axis=-2)
            k = rng.uniform(-2.0, 2.0, (3,) + block.kids.shape)
            k_x = rng.uniform(-2.0, 2.0, (3, block.nodes.size))
            value = block.kernel.evaluate(block.data, outcomes(k_x, k))
            assert np.max(np.abs(value - block.kernel.evaluate((log_w, _vertex_plan(mid)),
                                                               outcomes(k_x, k)))) <= 1e-12


class TestEntropicPoolingRule:
    """Exponential subsidiaries pool node by node to one exponential kernel
    with Gamma = 1 / sum 1/gamma_j and unnormalized log-weights."""

    def test_node_values_match_the_closed_form_at_every_node(self):
        # criterion 04's random cases
        rng = np.random.default_rng(9)
        for seed in range(8):
            tree = random_tree(np.random.default_rng(4000 + seed), max_depth=3, max_branching=3)
            subs = []
            for _ in range(int(rng.integers(2, 4))):
                raw = rng.uniform(0.1, 1.0, tree.n_nodes)
                subs.append(entropic_params(tree, float(rng.uniform(0.5, 2.5)), raw / raw.sum()))
            k = random_cash(rng, tree, -2.0, 2.0)
            values = pooled_family(subs).node_values(k.values)
            aggregate = entropic_sharing_family(subs)
            for x in tree.ids:
                expected = aggregate.value(x, k) + entropic_share_params(subs, x).value_of_sharing
                assert values[tree.node_index(x)] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_matches_the_one_step_sup_route(self, depth):
        if depth == 1:
            t, p1, p2 = hetero_pair()
        else:
            raw = np.random.default_rng(42).uniform(0.1, 1.0, (2, 7))
            t = binary_tree(2, weights=raw[0] / raw[0].sum())
            p1 = entropic_params(t, 0.8)
            p2 = entropic_params(t, 1.7, raw[1] / raw[1].sum())
        numeric = numeric_pool([entropic_family(p1), entropic_family(p2)],
                               DualSolverOptions(gradient_tolerance=1e-8))
        rows = np.random.default_rng(depth).uniform(-2.0, 2.0, (3, t.n_nodes))
        assert np.max(np.abs(pooled_family([p1, p2]).node_values(rows) - numeric.node_values(rows))) <= 1e-6

    def test_duals_add(self):
        t, p1, p2 = hetero_pair()
        pooled = pooled_family([p1, p2])
        rng = np.random.default_rng(12)
        for _ in range(3):
            lam = sample_density(t, "root", rng)
            summed = share_dual([lambda d: entropic_dual(p1, "root", d),
                                 lambda d: entropic_dual(p2, "root", d)], lam)
            assert dual_value(pooled, "root", lam) == pytest.approx(summed, abs=1e-6)


def lattice(t):
    """Criterion 10's market on t: one asset that doubles on an up move and
    halves on a down move, complete with martingale measure (1/3, 2/3)."""
    return market(t, {"s": {n: 2.0 ** n.count("u") * 0.5 ** n.count("d") for n in t.ids}})


def rule_value(rule, k_x, k_children):
    """The one-step value of a rule (gamma, log w, vertices), computed apart
    from the kernel that states it: the confined exponential kernel over
    the vertices, the identity where they are None; the least v . k over
    them where gamma is infinite."""
    gamma, log_w, v = rule
    k = np.concatenate([k_x[..., None], k_children], axis=-1)
    if gamma == np.inf:
        return (v * k[..., None, :]).sum(axis=-1).min(axis=-1)
    if v is None:
        v = np.broadcast_to(np.eye(k.shape[-1]), log_w.shape[:1] + (k.shape[-1],) * 2)
    return treeval.families._confined_kernel(gamma).evaluate((log_w, _vertex_plan(v)), k)


@pytest.mark.parametrize("kind", ["entropic", "exponential_utility", "confined_pool", "worst_stopping",
                                  "worst_case", "martingale_hedge"])
def test_each_rule_kernel_evaluates_to_its_rule(kind):
    rng = np.random.default_rng(41)
    t = binary_tree(2)
    ent = entropic_params(t, 1.3, rng.dirichlet(np.ones(t.n_nodes)))
    alpha = {t.ids[u]: rng.dirichlet([2.0, 2.0], 2) for u in t.internal_indices()}
    family = {"entropic": lambda: entropic_family(ent),
              "exponential_utility": lambda: ui_family(ui_params(t, ExponentialUtility(0.7), 2.0)),
              "confined_pool": lambda: pooled_family([ent, worst_case_family(worst_case_params(t, alpha))]),
              "worst_stopping": lambda: worst_case_family(worst_case_params(t, alpha)),
              "worst_case": lambda: worst_case_family(worst_case_params(t, alpha, stopping=False)),
              "martingale_hedge": lambda: hedged_family(entropic_family(ent), lattice(t))}[kind]()
    for block in family.blocks:
        k_x = rng.uniform(-2.0, 2.0, (5, block.nodes.size))
        k_children = rng.uniform(-2.0, 2.0, (5,) + block.kids.shape)
        expected = rule_value(block.kernel.rule(block.data), k_x, k_children)
        value = block.kernel.evaluate(block.data, outcomes(k_x, k_children))
        assert np.max(np.abs(value - expected)) <= 1e-12 * (1.0 + np.max(np.abs(expected)))


class TestPoolsOfRuleKernels:
    """A confined pool and a martingale hedge state their rules, so a pool
    with either takes the polytope rule, in closed form."""

    @pytest.mark.parametrize("kind", ["pool", "hedge"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("order", [1, -1])
    def test_matches_the_numeric_pool_and_the_global_search(self, monkeypatch, kind, depth, order):
        rng = np.random.default_rng(50 + depth)
        t = binary_tree(depth)
        ent = entropic_family(entropic_params(t, 0.8))
        if kind == "pool":
            alpha = {t.ids[u]: rng.dirichlet([2.0, 2.0], 1) for u in t.internal_indices()}
            first = pooled_family([ent, worst_case_family(worst_case_params(t, alpha))])
        else:
            first = hedged_family(ent, lattice(t))
        subs = [first, entropic_family(entropic_params(t, 1.7, rng.dirichlet(np.ones(t.n_nodes))))][::order]
        assert all(_rule(blocks) is not None for blocks in _layout(subs))
        calls = polytope_calls(monkeypatch)
        rows = rng.uniform(-2.0, 2.0, (4, t.n_nodes))
        values = pooled_family(subs).node_values(rows)
        assert calls == {"_pair_move": [], "_newton_move": []}
        numeric = numeric_pool(subs, DualSolverOptions(gradient_tolerance=1e-10))
        assert np.max(np.abs(values - numeric.node_values(rows))) <= 1e-12
        # below the root of depth 3, the global search has 7 nodes, not 15
        x = "u" if depth == 3 else t.root
        k = random_cash(rng, t, -2.0, 2.0)
        res = share_value(subs, x, k, method="direct")
        assert res.converged and res.feasibility_gap <= 1e-12
        assert abs(res.achieved_value - res.value) <= 1e-12
        assert res.value == pytest.approx(global_pool_value(subs, x, k), abs=1e-9)
        report = check_sharing_axioms(subs, trials=5, seed=depth)
        assert report.tolerance == 1e-8 and report.all_passed, report.as_dict()


SMOOTH_PAIRS = {
    "entropic_1-entropic_0.5": (lambda t: entropic_family(entropic_params(t, 1.0)),
                                lambda t: entropic_family(entropic_params(t, 0.5))),
    "entropic-crra": (lambda t: entropic_family(entropic_params(t, 1.0)),
                      lambda t: ui_family(ui_params(t, CRRAUtility(2.0), 5.0))),
    "exponential_utility-entropic": (lambda t: ui_family(ui_params(t, ExponentialUtility(2.0), 5.0)),
                                     lambda t: entropic_family(entropic_params(t, 0.5))),
    "crra-crra": (lambda t: ui_family(ui_params(t, CRRAUtility(2.0), 5.0)),
                  lambda t: ui_family(ui_params(t, CRRAUtility(2.0), 5.0))),
    "entropic_1-entropic_1": (lambda t: entropic_family(entropic_params(t, 1.0)),
                              lambda t: entropic_family(entropic_params(t, 1.0))),
}


@pytest.mark.parametrize("pair", list(SMOOTH_PAIRS))
def test_hedging_and_pooling_commute(pair):
    # a sum of gains is a gain, so the market is one more agent of the
    # pool: hedge(pool(F, G)) = pool(hedge(F), hedge(G)).  Two hedged
    # exponential one-steps of unequal gamma pool along a flat direction,
    # where Newton meets a singular -S; those rows go on to the fallback
    first, second = SMOOTH_PAIRS[pair]
    for depth in (1, 2, 3):
        t = binary_tree(depth)
        mkt = lattice(t)
        f, g = first(t), second(t)
        for rows in (1, 8):
            cash = np.random.default_rng(10 * depth + rows).uniform(-1.0, 1.0, (rows, t.n_nodes))
            hedge_of_pool = hedged_family(pooled_family([f, g]), mkt).node_values(cash)
            pool_of_hedges = pooled_family([hedged_family(f, mkt), hedged_family(g, mkt)]).node_values(cash)
            assert np.max(np.abs(hedge_of_pool - pool_of_hedges)) <= 1e-9


class TestEntropicAllocation:
    def test_identical_subsidiaries_split_evenly(self):
        t, p1, _ = hetero_pair()
        k = CashBalance.from_mapping(t, {"root": 0.0, "up": 1.0, "down": -1.0})
        alloc = entropic_allocation([p1, p1, p1], "root", k)
        for piece in alloc:
            assert np.allclose(piece.values, k.values / 3, atol=1e-14)

    def test_zero_balance_transfers_cancel(self):
        t, p1, p2 = hetero_pair()
        alloc = entropic_allocation([p1, p2], "root", CashBalance.constant(t, 0.0))
        total = alloc[0].values + alloc[1].values
        assert np.max(np.abs(total)) <= 1e-12
        assert np.max(np.abs(alloc[0].values)) > 1e-3  # real transfers happen

    def test_allocation_sums_exactly_and_achieves_the_aggregate(self):
        t, p1, p2 = hetero_pair()
        k = CashBalance.from_mapping(t, {"root": 0.0, "up": 1.0, "down": -1.0})
        alloc = entropic_allocation([p1, p2], "root", k)
        total = alloc[0].values + alloc[1].values
        assert np.max(np.abs(total - k.values)) <= 1e-12
        plan = entropic_share_params([p1, p2], "root")
        agg = entropic_sharing_family([p1, p2])
        achieved = sum(entropic_value(p, "root", a) for p, a in zip([p1, p2], alloc))
        assert achieved == pytest.approx(agg.value("root", k) + plan.value_of_sharing, abs=1e-10)

    def test_subtree_allocation(self):
        rng = np.random.default_rng(3)
        t = binary_tree(2, weights=[0.1, 0.2, 0.2, 0.125, 0.125, 0.125, 0.125])
        raw = rng.uniform(0.1, 1.0, t.n_nodes)
        subs = [entropic_params(t, 1.5), entropic_params(t, 0.7, raw / raw.sum())]
        k = random_cash(rng, t)
        alloc = entropic_allocation(subs, "u", k)
        sub_idx = t.descendant_indices(t.node_index("u"))
        total = alloc[0].values + alloc[1].values
        assert np.max(np.abs(total[sub_idx] - k.values[sub_idx])) <= 1e-12
        off = np.setdiff1d(np.arange(t.n_nodes), sub_idx)
        assert np.max(np.abs(total[off])) == 0.0


class TestStability:
    def test_identical_subsidiaries(self):
        t, p1, _ = hetero_pair()
        k = CashBalance.from_mapping(t, {"root": 0.0, "up": 1.0, "down": -1.0})
        alloc = entropic_allocation([p1, p1], "root", k)
        for node in t.ids:
            assert stability_check([p1, p1], alloc, node) <= 1e-10

    def test_heterogeneous_case_every_node(self):
        rng = np.random.default_rng(8)
        t = binary_tree(2, weights=[0.1, 0.2, 0.2, 0.125, 0.125, 0.125, 0.125])
        raw = rng.uniform(0.1, 1.0, t.n_nodes)
        subs = [entropic_params(t, 1.0), entropic_params(t, 2.0, raw / raw.sum())]
        k = random_cash(rng, t)
        alloc = entropic_allocation(subs, "r", k)
        for node in t.ids:
            assert stability_check(subs, alloc, node) <= 1e-8

    def test_reverse_sweep_agrees_with_the_closed_form(self):
        # a family is differentiated by its reverse sweep, exponential
        # parameters in closed form; both see the same allocation
        rng = np.random.default_rng(9)
        t = random_tree(rng, max_depth=3)
        raw = rng.uniform(0.1, 1.0, t.n_nodes)
        subs = [entropic_params(t, 1.0), entropic_params(t, 2.0, raw / raw.sum())]
        skewed = [CashBalance(t, rng.uniform(-1.0, 1.0, t.n_nodes)) for _ in subs]
        families = [entropic_family(s) for s in subs]
        for node in t.ids:
            closed = stability_check(subs, skewed, node)
            swept = stability_check(families, skewed, node)
            assert swept == pytest.approx(closed, abs=1e-12)

    def test_shadow_is_validated(self):
        t, p1, p2 = hetero_pair()
        k = CashBalance.from_mapping(t, {"root": 0.0, "up": 1.0, "down": -1.0})
        alloc = entropic_allocation([p1, p2], "root", k)
        shadow = [0.2, 0.5, 0.3]
        as_list = stability_check([p1, p2], alloc, "root", shadow=shadow)
        assert as_list == stability_check([p1, p2], alloc, "root", shadow=np.array(shadow))
        for bad in ([np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [0.5, 0.5], [[0.2, 0.5, 0.3]]):
            with pytest.raises(ValidationError, match="shadow density"):
                stability_check([p1, p2], alloc, "root", shadow=bad)

    def test_non_optimal_allocation_reports_large_residual(self):
        t, p1, p2 = hetero_pair()
        k = CashBalance.from_mapping(t, {"root": 0.0, "up": 1.0, "down": -1.0})
        skewed = [CashBalance(t, k.values * 0.9 + 1.0), CashBalance(t, k.values * 0.1 - 1.0)]
        assert stability_check([p1, p2], skewed, "root") > 1e-3


class TestSharingAxioms:
    def test_entropic_subsidiaries_pass_tightly(self):
        t, p1, p2 = hetero_pair()
        report = check_sharing_axioms([p1, p2], trials=300, seed=13)
        assert report.all_passed, report.as_dict()
        assert report.worst_residual <= 1e-8

    def test_single_subsidiary_degenerate(self):
        t, p1, _ = hetero_pair()
        report = check_sharing_axioms([p1], trials=100, seed=4)
        assert report.all_passed

    def test_mixed_subsidiaries_numeric_path(self):
        t = three_node_tree()
        p1 = entropic_params(t, 1.0)
        wc = worst_case_family(worst_case_params(t, {"root": [[0.5, 0.5]]}, stopping=True))
        report = check_sharing_axioms([p1, wc], trials=25, seed=6, cash_range=(-2.0, 2.0))
        assert report.check("DC").worst_residual <= 1e-5
        assert report.check("Z").passed
        assert report.check("L").passed


# Mixed pairs on which an earlier numeric pooled path failed dynamic
# consistency (DC residuals 1.1e-4 and 1.7e-4): tree weights (root, up,
# down), gamma, the worst-case distribution at the root, the trial seed.
RECORDED_MIXED_PAIRS = [
    ((0.2682538589907249, 0.44081680434559617, 0.290929336663679), 1.7132263454674836,
     (0.613264569879235, 0.386735430120765), 172626503),
    ((0.2516049143635788, 0.5440254331889595, 0.20436965244746183), 1.1711962524005215,
     (0.7165819353616516, 0.2834180646383482), 1567389449),
]


@pytest.mark.parametrize("weights, gamma, alpha, trial_seed", RECORDED_MIXED_PAIRS)
def test_recorded_mixed_pairs_pass_the_sharing_axioms(weights, gamma, alpha, trial_seed):
    t = three_node_tree(weights)
    mixed = [entropic_params(t, gamma),
             worst_case_family(worst_case_params(t, {"root": [list(alpha)]}, stopping=True))]
    report = check_sharing_axioms(mixed, trials=1, seed=trial_seed, cash_range=(-2.0, 2.0))
    assert report.all_passed, report.as_dict()


class TestCommittedFamily:
    def test_wrapper_satisfies_the_axioms(self):
        rng = np.random.default_rng(19)
        t = random_tree(rng, max_depth=3)
        fam = entropic_family(entropic_params(t, 1.2))
        wrapped = committed_family(fam, random_cash(rng, t))
        report = check_axioms(wrapped, trials=200, seed=2)
        assert report.all_passed, report.as_dict()

    def test_zero_commitment_is_identity(self):
        t, p1, _ = hetero_pair()
        fam = entropic_family(p1)
        wrapped = committed_family(fam, CashBalance.constant(t, 0.0))
        k = np.array([0.3, -1.0, 2.0])
        assert np.allclose(wrapped.node_values(k), fam.node_values(k), atol=1e-15)


class TestForeignTree:
    """A balance built on an equal but distinct tree instance is refused."""

    def setup_method(self):
        self.t, self.p1, self.p2 = hetero_pair()
        self.foreign = CashBalance.constant(three_node_tree((0.2, 0.4, 0.4)), 1.0)

    def test_share_value(self):
        with pytest.raises(ValidationError, match="different tree"):
            share_value([self.p1, self.p2], "root", self.foreign)

    def test_entropic_allocation(self):
        with pytest.raises(ValidationError, match="different tree"):
            entropic_allocation([self.p1, self.p2], "root", self.foreign)

    def test_stability_check(self):
        own = CashBalance.constant(self.t, 1.0)
        with pytest.raises(ValidationError, match="different tree"):
            stability_check([self.p1, self.p2], [own, self.foreign], "root")


def _sharing_numbers(res) -> list:
    return [res.value, res.normalized, res.value_of_sharing, res.achieved_value, res.feasibility_gap,
            *(a.values for a in res.allocation), list(res.argmin_density.values.values())]


@given(tree_seed=st.integers(0, 10_000), cash_seed=st.integers(0, 10_000),
       log_gammas=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=3),
       log_scale=st.floats(-3.0, 6.0))
@settings(max_examples=50, deadline=None)
def test_entropic_pooling_returns_finite_values_or_raises(tree_seed, cash_seed, log_gammas, log_scale):
    # depth 1-3, gamma in [1e-2, 1e2], cash up to 1e6 in magnitude
    tree = random_tree(np.random.default_rng(tree_seed), max_depth=3)
    rng = np.random.default_rng(cash_seed)
    subs = []
    for log_gamma in log_gammas:
        raw = rng.uniform(0.1, 1.0, tree.n_nodes)
        subs.append(entropic_params(tree, 10.0 ** log_gamma, raw / raw.sum()))
    balance = CashBalance(tree, 10.0 ** log_scale * rng.uniform(-1.0, 1.0, tree.n_nodes))

    def stability():
        alloc = entropic_allocation(subs, tree.root, balance)
        return [stability_check(subs, alloc, node_id) for node_id in tree.ids]

    calls = {
        "share_value": lambda: _sharing_numbers(share_value(subs, tree.root, balance)),
        "pooled_family": lambda: [pooled_family(subs).node_values(balance.values)],
        "entropic_allocation": lambda: [a.values for a in entropic_allocation(subs, tree.root, balance)],
        "stability_check": stability,
        "check_sharing_axioms": lambda: [c.worst_residual for c in
                                         check_sharing_axioms(subs, trials=3, seed=cash_seed).checks],
    }
    for name, call in calls.items():
        try:
            numbers = call()
        except TreevalError:
            continue
        assert all(np.isfinite(np.asarray(v, dtype=float)).all() for v in numbers), (name, numbers)


@given(tree_seed=st.integers(0, 10_000), cash_seed=st.integers(0, 10_000),
       log_gammas=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
       distributions=st.integers(1, 3), stopping=st.sampled_from([True, True, True, False]),
       log_scale=st.floats(-3.0, 6.0))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_mixed_pooling_returns_finite_values_or_raises(tree_seed, cash_seed, log_gammas, distributions,
                                                       stopping, log_scale):
    # exponential subsidiaries with one worst-case subsidiary: depth 1-3,
    # gamma in [1e-2, 1e2], cash up to 1e6 in magnitude.  With stopping the
    # polytope rule pools them; without it each one-step is a Nelder-Mead
    # search, seconds a tree, so that quarter of the draws keeps one
    # exponential subsidiary, binary trees and one axiom trial
    tree = random_tree(np.random.default_rng(tree_seed), max_depth=3, max_branching=3 if stopping else 2)
    rng = np.random.default_rng(cash_seed)
    subs = []
    for log_gamma in log_gammas if stopping else log_gammas[:1]:
        raw = rng.uniform(0.1, 1.0, tree.n_nodes)
        subs.append(entropic_params(tree, 10.0 ** log_gamma, raw / raw.sum()))
    alphas = {tree.ids[u]: rng.dirichlet(np.ones(len(tree.children_index[u])), distributions)
              for u in tree.internal_indices()}
    subs.append(worst_case_family(worst_case_params(tree, alphas, stopping=stopping)))
    balance = CashBalance(tree, 10.0 ** log_scale * rng.uniform(-1.0, 1.0, tree.n_nodes))

    def sharing():
        res = share_value(subs, tree.root, balance, method="direct")
        return [res.value, res.normalized, res.value_of_sharing, res.achieved_value, res.feasibility_gap,
                *(a.values for a in res.allocation)]

    calls = {
        "share_value": sharing,
        "pooled_family": lambda: [pooled_family(subs).node_values(balance.values)],
        "check_sharing_axioms": lambda: [c.worst_residual for c in check_sharing_axioms(
            subs, trials=2 if stopping else 1, seed=cash_seed).checks],
    }
    for name, call in calls.items():
        try:
            numbers = call()
        except TreevalError:
            continue
        assert all(np.isfinite(np.asarray(v, dtype=float)).all() for v in numbers), (name, numbers)


@given(tree_seed=st.integers(0, 10_000), cash_seed=st.integers(0, 10_000), stopping=st.booleans(),
       R=st.sampled_from([0.5, 2.0, 4.0]), log_x0=st.floats(-1.0, 2.0), log_scale=st.floats(-3.0, 6.0),
       worst_first=st.booleans())
@settings(max_examples=40, deadline=None)
def test_stability_check_on_non_entropic_subsidiaries_is_finite_or_raises(tree_seed, cash_seed, stopping, R,
                                                                          log_x0, log_scale, worst_first):
    # a worst-case and a CRRA subsidiary, either one giving the shadow
    # density, on random small trees with allocations up to 1e6 in magnitude
    tree = random_tree(np.random.default_rng(tree_seed), max_depth=2)
    rng = np.random.default_rng(cash_seed)
    alphas = {tree.ids[u]: rng.dirichlet(np.ones(len(tree.children_index[u])), 2) for u in tree.internal_indices()}
    subs = [worst_case_family(worst_case_params(tree, alphas, stopping=stopping)),
            ui_family(ui_params(tree, CRRAUtility(R), 10.0 ** log_x0))]
    if not worst_first:
        subs.reverse()
    allocation = [CashBalance(tree, 10.0 ** log_scale * rng.uniform(-1.0, 1.0, tree.n_nodes)) for _ in subs]
    for node_id in tree.ids:
        try:
            residual = stability_check(subs, allocation, node_id)
        except TreevalError:
            continue
        assert np.isfinite(residual), (node_id, residual)


def test_entropic_paths_never_import_scipy_optimize():
    # importing scipy.optimize alone roughly triples a process's peak RSS,
    # so smooth sups, CRRA pools among them, must finish without
    # Nelder-Mead, and pooling by a kernel rule must run none
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from treeval.dual import DualSolverOptions, dual_density, dual_value, one_step_dual_value, sample_density
        from treeval.families import (CRRAUtility, ExponentialUtility, entropic_family, entropic_one_step,
                                      entropic_params, ui_family, ui_one_step, ui_params, worst_case_family,
                                      worst_case_params)
        from treeval.market import hedged_family, market, market_value
        from treeval.risksharing import check_sharing_axioms, pooled_family, share_value
        from treeval.tree import CashBalance, NodeRecord, build_tree

        tree = build_tree([NodeRecord("root", None, 0.2), NodeRecord("up", "root", 0.4),
                           NodeRecord("down", "root", 0.4)])
        p1 = entropic_params(tree, 1.0)
        p2 = entropic_params(tree, 1.0, np.array([0.2, 0.6, 0.2]))
        lam = dual_density(tree, "root", {"root": 0.2, "up": 0.5, "down": 0.3})
        dual_value(entropic_family(p1), "root", lam)
        share_value([p1, p2], "root", CashBalance(tree, np.array([0.0, 1.0, -1.0])), method="dual")
        check_sharing_axioms([p1, p2], trials=5, seed=1)
        # criterion 05's mixed pair, pooled by the polytope rule
        wc = worst_case_family(worst_case_params(tree, {"root": [[0.5, 0.5]]}, stopping=True))
        share_value([p1, wc], "root", CashBalance(tree, np.array([0.0, 1.0, -1.0])), method="direct")
        check_sharing_axioms([p1, wc], trials=25, seed=22, cash_range=(-2.0, 2.0))
        # exponential subsidiaries given as families, or as exponential
        # utility, pool by the same rules, with a worst-case family or not
        ui_exp = ui_family(ui_params(tree, ExponentialUtility(1.0), 2.0))
        for subs in ([entropic_family(p1), entropic_family(p2)], [entropic_family(p1), wc],
                     [ui_exp, entropic_family(p2)], [ui_exp, wc]):
            share_value(subs, "root", CashBalance(tree, np.array([0.0, 1.0, -1.0])), method="direct")
            check_sharing_axioms(subs, trials=5, seed=2)
        one_step_dual_value(entropic_one_step(p1, "root"), 0.2, np.array([0.5, 0.3]))
        # criterion 08's six CRRA one-step duals, drawn as there
        crra = ui_one_step(ui_params(tree, CRRAUtility(2.0), x0=3.0), "root")
        rng = np.random.default_rng(3)
        rng.uniform(-3, 3, (100, 3))
        for _ in range(6):
            raw = rng.uniform(0.1, 1.0, 3)
            lam = raw / raw.sum()
            one_step_dual_value(crra, lam[0], lam[1:], DualSolverOptions(gradient_tolerance=3e-6))
        mkt = market(tree, {"s": {"root": 1.0, "up": 2.0, "down": 0.5}})
        market_value(entropic_family(p1), mkt, "root", CashBalance(tree, np.array([0.0, 1.0, -1.0])))
        # a polytope pool and a martingale hedge state their rules, so pools
        # of either with an exponential subsidiary take the polytope rule
        for subs in ([pooled_family([p1, wc]), entropic_family(p2)],
                     [entropic_family(p2), hedged_family(entropic_family(p1), mkt)]):
            share_value(subs, "root", CashBalance(tree, np.array([0.0, 1.0, -1.0])), method="direct")
            check_sharing_axioms(subs, trials=5, seed=2)
        # a CRRA subsidiary's Newton prices carry no noise that would leave
        # a row of the numeric pool to BFGS and Nelder-Mead
        ids = ["r", "u", "d", "uu", "ud", "du", "dd"]
        binary = build_tree([NodeRecord(i, None if i == "r" else (i[:-1] or "r"), 1.0 / 7) for i in ids])
        crra_pool = [entropic_params(binary, 1.0), ui_family(ui_params(binary, CRRAUtility(2.0), 5.0))]
        assert check_sharing_axioms(crra_pool, trials=2, seed=1).all_passed
        # entropic dual solves finish in the Newton stage
        for x in ("r", "u", "d"):
            dual_value(entropic_family(entropic_params(binary, 1.3)), x, sample_density(binary, x, rng))
        print("scipy.optimize" in sys.modules)
    """)
    src = str(Path(treeval.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=False,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def counted_pool_builds(monkeypatch):
    """The calls of the pooled family's build steps (the subsidiaries'
    ``_layout``, each level's ``_pooled_block``) and of ``entropic_family``
    from ``risksharing`` from here on, by name."""
    calls = {"_layout": 0, "_pooled_block": 0, "entropic_family": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(treeval.risksharing, name)):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(treeval.risksharing, name, counted)
    return calls


def reuse_case(kind, t):
    """Two subsidiaries on t, pooled by the dual route (two exponential
    parameter sets), by the polytope rule (with a worst-case family with
    stopping) or by one-step sups (with a CRRA family), and a function that
    gives fresh subsidiaries of the same valuations: new parameters, or a
    new family on the same blocks."""
    rng = np.random.default_rng(35)
    ent = entropic_params(t, 0.8)
    other = {"dual": lambda: entropic_params(t, 1.7, rng.dirichlet(np.ones(t.n_nodes))),
             "rule": lambda: worst_case_family(worst_case_params(
                 t, {t.ids[u]: [rng.dirichlet([2.0, 2.0]).tolist()] for u in t.internal_indices()}, stopping=True)),
             "sups": lambda: ui_family(ui_params(t, CRRAUtility(2.0), 5.0))}[kind]()

    def fresh(sub):
        if isinstance(sub, EntropicParams):
            return entropic_params(t, sub.gamma, sub.reference)
        return ValuationFamily(t, lambda: sub.blocks)

    return [ent, other], fresh


def same_sharing(a, b) -> bool:
    """Whether two sharing results agree bit for bit."""
    density = (a.argmin_density is None and b.argmin_density is None) or (
        a.argmin_density.support == b.argmin_density.support and a.argmin_density.values == b.argmin_density.values)
    return (density and len(a.allocation) == len(b.allocation)
            and all(np.array_equal(p.values, q.values) for p, q in zip(a.allocation, b.allocation))
            and (a.value, a.normalized, a.value_of_sharing, a.achieved_value, a.feasibility_gap, a.method,
                 a.converged) == (b.value, b.normalized, b.value_of_sharing, b.achieved_value, b.feasibility_gap,
                                  b.method, b.converged))


class TestPooledFamilyReuse:
    """The pooled family is built once per subsidiaries, in their order,
    and options; an ``EntropicParams``' family once per parameters."""

    @pytest.mark.parametrize("kind", ["dual", "rule", "sups"])
    @pytest.mark.parametrize("order", [1, -1])
    def test_a_later_call_at_another_balance_builds_nothing(self, monkeypatch, kind, order):
        t = binary_tree(2)
        subs, fresh = reuse_case(kind, t)
        subs = subs[::order]
        rng = np.random.default_rng(36)
        share_value(subs, t.root, random_cash(rng, t, -2.0, 2.0))
        calls = counted_pool_builds(monkeypatch)
        k = random_cash(rng, t, -2.0, 2.0)
        for x in (t.root, "u"):
            warm = share_value(subs, x, k)
            assert calls == {"_layout": 0, "_pooled_block": 0, "entropic_family": 0}
            cold = share_value([fresh(s) for s in subs], x, k)
            assert calls["_layout"] == 1 and calls["_pooled_block"] == 2
            assert same_sharing(warm, cold)
            calls.update(dict.fromkeys(calls, 0))
        if kind == "dual":
            direct = share_value(subs, t.root, k, method="direct")
            assert calls == {"_layout": 0, "_pooled_block": 0, "entropic_family": 0}
            assert direct.value == share_value([fresh(s) for s in subs], t.root, k, method="direct").value

    def test_pooled_family_is_kept_per_subsidiaries_and_options(self, monkeypatch):
        t = binary_tree(2)
        subs, fresh = reuse_case("rule", t)
        pooled = pooled_family(subs, DualSolverOptions(tolerance=1e-11))
        assert pooled_family(subs, DualSolverOptions(tolerance=1e-11)) is pooled   # options compare by value
        calls = counted_pool_builds(monkeypatch)
        share_value(subs, t.root, random_cash(np.random.default_rng(37), t, -2.0, 2.0), TIGHT)
        assert calls["_layout"] == 0
        for other in ([subs[0], fresh(subs[1])], [fresh(subs[0]), subs[1]], subs[::-1]):
            assert pooled_family(other, TIGHT) is not pooled
        assert pooled_family(subs, DualSolverOptions(tolerance=1e-10)) is not pooled
        assert calls["_layout"] == 4

    def test_the_sharing_axioms_reuse_the_pooled_family(self, monkeypatch):
        t = three_node_tree()
        mixed = [entropic_params(t, 1.0),
                 worst_case_family(worst_case_params(t, {"root": [[0.5, 0.5]]}, stopping=True))]
        first = check_sharing_axioms(mixed, trials=3, seed=6, cash_range=(-2.0, 2.0))
        calls = counted_pool_builds(monkeypatch)
        second = check_sharing_axioms(mixed, trials=3, seed=6, cash_range=(-2.0, 2.0))
        assert calls == {"_layout": 0, "_pooled_block": 0, "entropic_family": 0}
        assert first.as_dict() == second.as_dict()

    def test_the_valuations_and_the_axioms_share_one_pooled_family(self, monkeypatch):
        # both take the same default options, so alternating them builds
        # the pooled family once
        t = binary_tree(2)
        subs, _ = reuse_case("rule", t)
        k = random_cash(np.random.default_rng(38), t, -2.0, 2.0)
        calls = counted_pool_builds(monkeypatch)
        for _ in range(3):
            share_value(subs, t.root, k)
            check_sharing_axioms(subs, trials=1, seed=0, cash_range=(-2.0, 2.0))
        assert calls["_layout"] == 1 and calls["_pooled_block"] == 2

    def test_a_build_that_raises_raises_again(self):
        t = binary_tree(1)
        builds = []

        def broken():
            builds.append(1)
            raise ValidationError("no blocks")

        subs = [entropic_params(t, 1.0), ValuationFamily(t, broken)]
        for _ in range(2):
            with pytest.raises(ValidationError, match="no blocks"):
                share_value(subs, t.root, CashBalance.constant(t, 0.0))
        assert len(builds) == 2
