import numpy as np
import pytest

from helpers import binary_tree, random_cash, random_tree, three_node_tree
from treeval.errors import ValidationError
from treeval.families import (
    entropic_family,
    entropic_params,
    entropic_value,
    worst_case_family,
    worst_case_params,
)
from treeval.tree import CashBalance, hitting_stop, stopping_time
from treeval.valuation import (
    OneStepValuation,
    assemble,
    check_axioms,
    linear_one_step,
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

    def test_trials_validated(self):
        t = three_node_tree()
        with pytest.raises(ValidationError):
            check_axioms(linear_family(t, np.array([0.5, 0.5])), trials=0, seed=0)

    def test_report_serializes(self):
        t = three_node_tree()
        report = check_axioms(linear_family(t, np.array([0.5, 0.5])), trials=5, seed=0)
        d = report.as_dict()
        assert set(d["axioms"]) == {"C", "M", "TI", "Z", "DC", "L", "CL"}
        assert d["all_passed"] is True
