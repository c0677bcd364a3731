import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeval.dual
from helpers import (
    binary_tree,
    numeric_dual_closure,
    random_cash,
    random_tree,
    three_node_tree,
    trinomial_tree,
)
from treeval.dual import (
    DualDensity,
    DualSolverOptions,
    check_dual_properties,
    dual_density,
    dual_recursion_residual,
    dual_value,
    dual_value_and_argmax,
    one_step_dual_value,
    primal_from_dual,
    sample_density,
)
from treeval.errors import ConvergenceError, DomainError, TreevalError, ValidationError
from treeval.families import (
    CRRAUtility,
    ExponentialUtility,
    crra_ui_dual,
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
from treeval.optim import AscentResult
from treeval.tree import CashBalance
from treeval.valuation import OneStepValuation, assemble, linear_one_step

THREE_NODE_DUAL = 0.02526715392157057  # 0.5 log(5/4) + 0.3 log(3/4)


def entropic_setup(gamma=1.0):
    t = three_node_tree()
    params = entropic_params(t, gamma=gamma)
    return t, params, entropic_family(params)


def entropic_gradient(params, x):
    """Closed-form partials of the relative-entropy dual, for the simplex descent."""
    tree = params.tree
    xi = tree.node_index(x)
    sub = tree.descendant_indices(xi)
    ids_sub = [tree.ids[i] for i in sub]
    ref = params.reference[sub] / params.subtree_reference[xi]

    def gradient(dd):
        lam = np.array([dd.values[i] for i in ids_sub])
        g = (np.log(lam / ref) + 1.0) / params.gamma
        return dict(zip(ids_sub, g))

    return gradient


class TestDualDensity:
    def test_validated_factory(self):
        t = three_node_tree()
        dd = dual_density(t, "root", {"root": 0.2, "up": 0.5, "down": 0.3})
        assert dd.support == "root"

    def test_rejects_negative_and_unnormalized(self):
        t = three_node_tree()
        with pytest.raises(DomainError, match="negative"):
            dual_density(t, "root", {"root": -0.1, "up": 0.6, "down": 0.5})
        with pytest.raises(DomainError, match="sum to 1"):
            dual_density(t, "root", {"root": 0.2, "up": 0.2, "down": 0.2})

    def test_rejects_mass_off_subtree(self):
        t = binary_tree(2)
        with pytest.raises(DomainError, match="outside the subtree"):
            dual_density(t, "u", {"uu": 0.5, "dd": 0.5})


class TestDualValue:
    def test_reference_density_gives_zero(self):
        t, params, fam = entropic_setup()
        v = dual_value(fam, "root", {"root": 0.2, "up": 0.4, "down": 0.4})
        assert abs(v) <= 1e-8

    def test_numeric_sup_matches_closed_form(self):
        t, params, fam = entropic_setup()
        lam = {"root": 0.2, "up": 0.5, "down": 0.3}
        v = dual_value(fam, "root", lam)
        assert v == pytest.approx(THREE_NODE_DUAL, abs=1e-6)

    def test_linear_family_has_singleton_domain(self):
        t = three_node_tree()
        fam = assemble(t, {"root": linear_one_step([0.5, 0.5])})
        assert dual_value(fam, "root", {"up": 0.3, "down": 0.7}) == math.inf
        assert dual_value(fam, "root", {"up": 0.5, "down": 0.5}) == pytest.approx(0.0, abs=1e-9)

    def test_non_probability_rejected_early(self):
        t, params, fam = entropic_setup()
        with pytest.raises(DomainError, match="probability"):
            dual_value(fam, "root", {"root": 0.5, "up": 0.5, "down": 0.5})
        with pytest.raises(DomainError, match="negative"):
            dual_value(fam, "root", {"root": -0.2, "up": 0.7, "down": 0.5})

    def test_nan_mass_raises_a_treeval_error(self):
        t, params, fam = entropic_setup()
        with pytest.raises(TreevalError):
            dual_value(fam, "root", {"root": math.nan, "up": 0.5, "down": 0.5})

    @pytest.mark.parametrize("mass", ["a", None, True, np.True_, "1", math.inf, np.array(True), np.array("1")])
    def test_a_mass_that_is_not_a_number_is_a_validation_error(self, mass):
        t, params, fam = entropic_setup()
        with pytest.raises(ValidationError, match="mass at 'root' must be a number"):
            dual_value_and_argmax(fam, "root", {"root": mass, "up": 0.4, "down": 0.4})

    def test_a_fallback_keeps_newtons_stop_reason(self, monkeypatch):
        # with no mass on the root the sup is approached only as the root's
        # cash grows: Newton's Hessian turns indefinite on the way, and
        # BFGS finishes the solve on the gradient test
        t = three_node_tree((0.2, 0.4, 0.4))
        fam = ui_family(ui_params(t, CRRAUtility(2.0), 3.0, {"root": [0.2, 0.4, 0.4]}))
        lam = {"up": 0.4, "down": 0.6}
        _, _, res = dual_value_and_argmax(fam, "root", lam)
        assert (res.method, res.stop_reason, res.converged) == ("newton+bfgs", "indefinite+gradient", True)
        # a fallback that does not finish: the error names both reasons
        monkeypatch.setattr(treeval.dual, "sup", lambda *args, **kwargs: AscentResult(
            np.zeros(3), 0.0, 1.0, 1, converged=False, stop_reason="max_iterations", method="bfgs"))
        with pytest.raises(ConvergenceError, match=r"\(newton\+bfgs\) stopped on indefinite\+max_iterations"):
            dual_value_and_argmax(fam, "root", lam)

    def test_probability_mass_off_subtree_diverges(self):
        t = binary_tree(2, weights=[0.1, 0.2, 0.2, 0.125, 0.125, 0.125, 0.125])
        fam = entropic_family(entropic_params(t, gamma=1.0))
        assert dual_value(fam, "u", {"uu": 0.4, "ud": 0.3, "dd": 0.3}) == math.inf

    def test_crra_dual_with_zero_own_mass_reaches_its_limit(self):
        # with no mass on the root the sup is approached only as the root's
        # cash grows without bound: the closed form's limit, sum over the
        # children alone.  The deficit falls like the root partial's square
        # root, so the default gradient tolerance leaves about 8e-5 (1e-6
        # would need cash near 1e7, past the divergence bound).
        t = three_node_tree()
        fam = ui_family(ui_params(t, CRRAUtility(2.0), 10.0))
        value, _, res = dual_value_and_argmax(fam, "root", {"up": 0.4, "down": 0.6},
                                              DualSolverOptions(max_iterations=2000))
        s = np.sqrt(0.4 * 0.4) + np.sqrt(0.4 * 0.6)
        limit = 10.0 * (1.0 - s ** 2)
        assert res.converged and res.stop_reason == "indefinite+gradient"
        assert limit - 1e-4 <= value <= limit

    def test_walled_crra_ascent_backs_away_from_the_wealth_wall(self):
        # with R < 1 the ascent probes cash past the wall, where the family
        # has no indifference price: those balances count as -inf
        t = three_node_tree((0.2, 0.4, 0.4))
        params = ui_params(t, CRRAUtility(0.5), 5.0)
        lam = {"root": 0.3, "up": 0.05, "down": 0.65}
        closed = crra_ui_dual(params, "root", [0.3, 0.05, 0.65])
        assert dual_value(ui_family(params), "root", lam) == pytest.approx(closed, abs=1e-9)
        assert dual_recursion_residual(ui_family(params), "root", lam, use_closed_forms=False) <= 1e-9

    def test_solve_records_its_work(self):
        t, params, fam = entropic_setup()
        _, _, res = dual_value_and_argmax(fam, "root", {"root": 0.2, "up": 0.5, "down": 0.3})
        assert res.stop_reason == "gradient"
        assert 0 < res.iterations <= res.gradient_evaluations

    @pytest.mark.parametrize("start", [np.zeros(2), np.zeros((1, 3)), np.array([0.0, math.nan, 0.0])])
    def test_start_must_be_one_finite_number_per_free_coordinate(self, start):
        t, params, fam = entropic_setup()
        with pytest.raises(ValidationError, match="start"):
            dual_value_and_argmax(fam, "root", {"root": 0.2, "up": 0.5, "down": 0.3}, start=start)

    @pytest.mark.parametrize("lam", [(0.2, 0.5, 0.3), (0.6, 0.2, 0.2)])
    def test_newton_point_must_meet_the_whole_gradient(self, lam):
        # half an entropic one-step is smooth and concave but not translation
        # invariant: a constant c added to the cash moves the value by c / 2,
        # so the dual runs off to +inf along -(1, 1, 1).  With the root's
        # cash pinned, Newton can still find a stationary point in the
        # children (at (0.6, 0.2, 0.2), where half the softmax matches the
        # children's masses); the root's partial, 0.1 - 0.6, rejects it.
        t, params, _ = entropic_setup()
        step = entropic_one_step(params, "root")
        fam = assemble(t, {"root": OneStepValuation(lambda k_x, k_c: 0.5 * step.evaluate(k_x, k_c), "half")})
        value, argmax, res = dual_value_and_argmax(fam, "root", masses(lam))
        assert value == math.inf and argmax is None
        assert res.method == "newton+bfgs" and res.diverged

    def test_newton_route_sweeps_once_per_trial_point(self, monkeypatch):
        # each trial point and its Hessian stencil (one point per free
        # coordinate but the pinned own cash) is one reverse sweep; no
        # forward-only sweep runs
        rng = np.random.default_rng(5)
        t = binary_tree(2, weights=[0.1, 0.2, 0.2, 0.125, 0.125, 0.125, 0.125])
        params = entropic_params(t, 1.3)
        fam = entropic_family(params)
        lam = sample_density(t, "r", rng)
        sweeps, trials = [], []
        sweep, newton = fam.values_and_gradient, treeval.dual.newton_ascent

        def refuse(*args):
            raise AssertionError("a forward-only sweep ran")

        def counted(value_and_gradient, x0, **kwargs):
            return newton(lambda points: trials.append(points.shape) or value_and_gradient(points), x0, **kwargs)

        monkeypatch.setattr(fam, "values_and_gradient", lambda values, xi: sweeps.append(values.shape)
                            or sweep(values, xi))
        monkeypatch.setattr(fam, "node_values", refuse)
        monkeypatch.setattr(treeval.dual, "newton_ascent", counted)
        value, _, res = dual_value_and_argmax(fam, "r", lam)
        assert res.method == "newton" and res.converged
        assert len(sweeps) == len(trials) == res.gradient_evaluations > res.iterations > 0
        assert set(sweeps) == {(t.n_nodes, t.n_nodes)}
        assert value == pytest.approx(entropic_dual(params, "r", lam.values), abs=1e-9)

    def test_newton_solves_are_pinned_to_the_last_bit(self):
        # values recorded at an earlier revision of the sweeps and of
        # Newton: reorganizing either must leave the value, the maximizer
        # and the counts as they are, bit for bit
        rng = np.random.default_rng(23)

        def floored(tree, x):
            sub = tree.descendant_indices(tree.node_index(x))
            raw = rng.uniform(0.05, 1.0, sub.size)
            return dict(zip((tree.ids[i] for i in sub), (raw / raw.sum()).tolist()))

        binary, ternary, small = binary_tree(3), trinomial_tree(3), binary_tree(2)
        cases = [(entropic_family(entropic_params(binary, 1.3)), "r", floored(binary, "r")),
                 (entropic_family(entropic_params(ternary, 0.8)), "b", floored(ternary, "b")),
                 (ui_family(ui_params(small, CRRAUtility(2.0), 5.0)), "r", floored(small, "r"))]
        pinned = [
            (0.10643442798455263, [
                0.0, 0.0560622181152928, 1.08881737215673, 1.1549619797751285, 0.042999560877975754,
                -0.1489653517092649, 0.8281017594574722, 0.7805038144643267, -0.022992202631220218,
                0.2732827709271029, 0.3594823054071926, 0.47659929932742773, 1.4290129768307502,
                0.2972185623570463, 0.5738043326388328], 5, 6),
            (0.18770063718398122, [
                0.0, -0.36803193864481804, -0.6386011638408323, -0.5344855914582014, -0.7351436571453668,
                2.2876248150335026, -0.5877793573592118, -0.37174677479098356, -0.8951865736753457,
                -1.0109141949183913, 2.3866144018513724, -0.8629528747715125, 0.45901276895908766], 6, 7),
            (0.043648327220722594, [
                0.0, -0.46985252779703646, -0.7167499291871418, -0.9584908288945508, -0.07179444840628342,
                -0.7409717518065841, 0.5251632974346861], 3, 4),
        ]
        for (fam, x, lam), (value, argmax, iterations, calls) in zip(cases, pinned):
            got, _, res = dual_value_and_argmax(fam, x, lam, DualSolverOptions(gradient_tolerance=1e-7))
            assert res.method == "newton"
            assert (got, res.x.tolist(), res.iterations, res.gradient_evaluations) == (value, argmax, iterations, calls)

    def test_weak_duality_numeric(self):
        rng = np.random.default_rng(3)
        t = random_tree(rng, max_depth=2)
        params = entropic_params(t, gamma=1.2)
        fam = entropic_family(params)
        for _ in range(5):
            k = random_cash(rng, t, -2, 2)
            dd = sample_density(t, t.root, rng)
            lhs = fam.value(t.root, k)
            pairing = sum(dd.values[i] * k.value_at(i) for i in dd.values)
            assert lhs <= pairing + dual_value(fam, t.root, dd) + 1e-6


class TestPrimalFromDual:
    def test_entropic_closed_dual_recovers_primal(self):
        t, params, fam = entropic_setup()
        k = CashBalance.from_mapping(t, {"root": 0.0, "up": 1.0, "down": -1.0})
        value, density = primal_from_dual(
            lambda dd: entropic_dual(params, "root", dd), "root", k,
            DualSolverOptions(tolerance=1e-11),
            gradient=entropic_gradient(params, "root"))
        assert value == pytest.approx(entropic_value(params, "root", k), abs=1e-6)
        assert sum(density.values.values()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_dual_gives_worst_outcome(self):
        t, params, fam = entropic_setup()
        k = CashBalance.from_mapping(t, {"root": 0.0, "up": 1.0, "down": -1.0})
        value, density = primal_from_dual(lambda dd: 0.0, "root", k,
                                          DualSolverOptions(tolerance=1e-7))
        assert value == pytest.approx(-1.0, abs=1e-6)
        assert density.values["down"] == pytest.approx(1.0, abs=1e-5)

    def test_constant_balance_returns_the_constant(self):
        t, params, fam = entropic_setup()
        k = CashBalance.constant(t, 2.5)
        value, _ = primal_from_dual(
            lambda dd: entropic_dual(params, "root", dd), "root", k,
            DualSolverOptions(tolerance=1e-11),
            gradient=entropic_gradient(params, "root"))
        assert value == pytest.approx(2.5, abs=1e-8)

    def test_budget_exhaustion_raises_with_best_iterate(self):
        t, params, fam = entropic_setup()
        k = CashBalance.from_mapping(t, {"root": 0.0, "up": 3.0, "down": -3.0})
        with pytest.raises(ConvergenceError) as err:
            primal_from_dual(lambda dd: entropic_dual(params, "root", dd), "root", k,
                             DualSolverOptions(tolerance=1e-13, max_iterations=1),
                             gradient=entropic_gradient(params, "root"))
        best_value, best_density = err.value.best
        assert np.isfinite(best_value)
        assert isinstance(best_density, DualDensity)

    @pytest.mark.parametrize("case, message", [
        ("missing partial", "^gradient gives no partial at 'down'$"),
        ("string partial", "^the partial of gradient at 'up' must be a number$"),
        ("nan partial", "^the partial of gradient at 'up' must be a number$"),
        ("string dual", "^the value of dual_fn must be a number$"),
        ("nan dual", "^the value of dual_fn must be a number$"),
    ])
    def test_a_bad_partial_or_dual_value_is_named_at_once(self, case, message):
        # each raises at the first call that meets the bad value (the dual
        # cases through the finite differences), not as a bare KeyError or
        # ValueError, nor after the whole iteration budget
        t, params, _ = entropic_setup()
        k = CashBalance.from_mapping(t, {"root": 0.0, "up": 1.0, "down": -1.0})
        exact, calls = entropic_gradient(params, "root"), []

        def gradient(density):
            calls.append(density)
            partials = exact(density)
            if case == "missing partial":
                del partials["down"]
            else:
                partials["up"] = "a" if case == "string partial" else math.nan
            return partials

        def dual_fn(density):
            calls.append(density)
            return "a" if case == "string dual" else math.nan

        with pytest.raises(ValidationError, match=message):
            primal_from_dual(dual_fn, "root", k, DualSolverOptions(max_iterations=1000),
                             gradient=gradient if case.endswith("partial") else None)
        assert len(calls) == 1

    def test_an_infinite_partial_is_clipped(self):
        t, params, _ = entropic_setup()
        k = CashBalance.from_mapping(t, {"root": 0.0, "up": 1.0, "down": -1.0})
        exact = entropic_gradient(params, "root")

        def gradient(density):
            return {**exact(density), "down": math.inf}

        _, density = primal_from_dual(lambda dd: entropic_dual(params, "root", dd), "root", k,
                                      DualSolverOptions(tolerance=1e-7, max_iterations=1000), gradient=gradient)
        assert density.values["down"] < 1e-12

    def test_round_trip_through_numeric_dual(self):
        # strong duality at desk scale: recover the primal from the numeric
        # dual via the envelope gradient
        rng = np.random.default_rng(9)
        for seed in range(3):
            t = random_tree(np.random.default_rng(seed + 40), max_depth=2)
            params = entropic_params(t, gamma=1.0)
            fam = entropic_family(params)
            k = random_cash(rng, t, -2, 2)
            inner = DualSolverOptions(gradient_tolerance=1e-7)
            dual_fn, gradient = numeric_dual_closure(fam, t.root, inner)
            # the envelope gradient carries the inner solver's noise, so the
            # certifiable gap sits above it; 5e-6 still covers the 1e-5 target
            value, _ = primal_from_dual(dual_fn, t.root, k,
                                        DualSolverOptions(tolerance=5e-6, max_iterations=20_000),
                                        gradient=gradient)
            assert value == pytest.approx(fam.value(t.root, k), abs=1e-5)


class TestDualRecursion:
    def test_closed_form_residual_vanishes(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            t = random_tree(np.random.default_rng(seed), max_depth=4)
            params = entropic_params(t, gamma=float(rng.uniform(0.4, 2.0)))
            fam = entropic_family(params)
            dd = sample_density(t, t.root, rng)
            assert dual_recursion_residual(fam, t.root, dd) <= 1e-8

    def test_depth_one_tree_reduces_to_one_step(self):
        t, params, fam = entropic_setup()
        lam = {"root": 0.2, "up": 0.5, "down": 0.3}
        # children are leaves, so the child duals vanish and the residual is
        # |node dual - one-step dual| = 0
        assert dual_recursion_residual(fam, "root", lam) <= 1e-12

    def test_reference_density_makes_both_sides_zero(self):
        t, params, fam = entropic_setup()
        lam = {"root": 0.2, "up": 0.4, "down": 0.4}
        assert dual_recursion_residual(fam, "root", lam) <= 1e-12
        step = entropic_one_step(params, "root")
        assert step.dual(0.2, np.array([0.4, 0.4])) == pytest.approx(0.0, abs=1e-15)

    def test_numeric_mode_residual_small(self):
        t = binary_tree(2, weights=[0.1, 0.2, 0.2, 0.125, 0.125, 0.125, 0.125])
        fam = entropic_family(entropic_params(t, gamma=1.0))
        dd = sample_density(t, "r", np.random.default_rng(2), floor=0.05)
        res = dual_recursion_residual(fam, "r", dd, DualSolverOptions(gradient_tolerance=1e-7),
                                      use_closed_forms=False)
        assert res <= 1e-5

    def test_requires_strictly_positive_mass(self):
        t, params, fam = entropic_setup()
        with pytest.raises(DomainError, match="strictly positive"):
            dual_recursion_residual(fam, "root", {"up": 0.5, "down": 0.5})


class TestOneStepDual:
    def test_matches_entropic_closed_form(self):
        t, params, fam = entropic_setup(gamma=0.8)
        step = entropic_one_step(params, "root")
        theta, psi = 0.3, np.array([0.3, 0.4])
        numeric = one_step_dual_value(step, theta, psi)
        assert numeric == pytest.approx(step.dual(theta, psi), abs=1e-6)

    def test_a_theta_that_is_not_a_number_is_a_validation_error(self):
        t, params, fam = entropic_setup()
        with pytest.raises(ValidationError, match="mass at 'node' must be a number"):
            one_step_dual_value(entropic_one_step(params, "root"), "x", [0.4, 0.4])

    def test_rejects_non_probability(self):
        t, params, fam = entropic_setup()
        with pytest.raises(DomainError):
            one_step_dual_value(entropic_one_step(params, "root"), 0.5, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("psi", [[0.8], [0.2, 0.3, 0.3]])
    @pytest.mark.parametrize("kind", ["entropic", "linear"])
    def test_a_psi_of_another_length_than_the_children_is_a_validation_error(self, kind, psi):
        # both steps have two children
        t, params, fam = entropic_setup()
        step = entropic_one_step(params, "root") if kind == "entropic" else linear_one_step([0.5, 0.5])
        with pytest.raises(ValidationError, match=f"psi gives {len(psi)} child masses"):
            one_step_dual_value(step, 0.2, psi)

    @pytest.mark.parametrize("kind", ["entropic", "crra", "worst"])
    def test_is_the_dual_of_the_assembled_depth_one_family(self, kind, monkeypatch):
        # one dual solve, on the step's own depth-one valuation: the same
        # value as the dual of the family assembled from the step alone
        t = three_node_tree()
        step = {"entropic": lambda: entropic_one_step(entropic_params(t, 0.8), "root"),
                "crra": lambda: ui_family(ui_params(t, CRRAUtility(2.0), x0=3.0)).one_steps[0],
                "worst": lambda: worst_case_setup([[0.5, 0.5]], stopping=True).one_steps[0]}[kind]()
        solve, solves = treeval.dual.dual_value_and_argmax, []

        def counted(*args, **kwargs):
            solves.append(args[1])
            return solve(*args, **kwargs)

        monkeypatch.setattr(treeval.dual, "dual_value_and_argmax", counted)
        lam = (0.2, 0.4, 0.4)
        numeric = one_step_dual_value(step, lam[0], np.array(lam[1:]))
        assert len(solves) == 1
        assert numeric == dual_value(assemble(t, {"root": step}), "root", masses(lam))
        assert math.isfinite(numeric)


def worst_case_setup(alphas, stopping):
    t = three_node_tree((0.2, 0.4, 0.4))
    return worst_case_family(worst_case_params(t, {"root": alphas}, stopping=stopping))


def masses(lam):
    return dict(zip(("root", "up", "down"), lam))


class TestKinkedDuals:
    """The dual of a worst-case family is the indicator of its polytope of
    densities: 0 inside, +inf outside."""

    @pytest.mark.parametrize("lam, expected", [((0.2, 0.4, 0.4), 0.0), ((0.0, 0.5, 0.5), 0.0),
                                               ((0.2, 0.5, 0.3), math.inf)])
    def test_stopping_family(self, lam, expected):
        # criterion 05's worst-case subsidiary
        fam = worst_case_setup([[0.5, 0.5]], stopping=True)
        assert dual_value(fam, "root", masses(lam)) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("lam, expected", [((0.0, 0.35, 0.65), 0.0), ((0.1, 0.35, 0.55), math.inf)])
    def test_family_without_stopping(self, lam, expected):
        fam = worst_case_setup([[0.5, 0.5], [0.2, 0.8]], stopping=False)
        assert dual_value(fam, "root", masses(lam)) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("lam, expected", [((0.2, 0.4, 0.4), 0.0), ((0.2, 0.5, 0.3), math.inf)])
    def test_one_step_dual_agrees(self, lam, expected):
        step = worst_case_setup([[0.5, 0.5]], stopping=True).one_steps[0]
        assert one_step_dual_value(step, lam[0], np.array(lam[1:])) == pytest.approx(expected, abs=1e-9)

    def test_solves_record_their_method(self):
        _, _, res = dual_value_and_argmax(entropic_setup()[2], "root", masses((0.2, 0.5, 0.3)))
        assert res.method == "newton" and res.stop_reason == "gradient"
        # mass off the subtree: Newton stops at once, and BFGS finds the ray
        t = binary_tree(2, weights=[0.1, 0.2, 0.2, 0.125, 0.125, 0.125, 0.125])
        _, _, res = dual_value_and_argmax(entropic_family(entropic_params(t, 1.0)), "u",
                                          {"uu": 0.4, "ud": 0.3, "dd": 0.3})
        assert res.method == "newton+bfgs" and res.diverged
        assert res.gradient_evaluations > res.iterations > 0
        _, _, res = dual_value_and_argmax(worst_case_setup([[0.5, 0.5]], stopping=True), "root",
                                          masses((0.2, 0.4, 0.4)))
        assert res.method == "nelder-mead"


def contract_family(kind, tree, rng):
    if kind == "entropic":
        return entropic_family(entropic_params(tree, float(rng.uniform(0.5, 2.0))))
    if kind == "exponential":
        return ui_family(ui_params(tree, ExponentialUtility(float(rng.uniform(0.5, 2.0))), x0=0.0))
    if kind == "crra":
        return ui_family(ui_params(tree, CRRAUtility(float(rng.choice([0.5, 2.0, 3.0]))),
                                   x0=float(rng.uniform(1.0, 10.0))))
    alphas = {}
    for i in tree.internal_indices():
        raw = rng.uniform(0.1, 1.0, (int(rng.integers(1, 3)), len(tree.children_index[i])))
        alphas[tree.ids[i]] = raw / raw.sum(axis=1, keepdims=True)
    return worst_case_family(worst_case_params(tree, alphas, stopping=kind == "worst_stopping"))


@given(seed=st.integers(0, 10_000),
       kind=st.sampled_from(["entropic", "worst", "worst_stopping", "exponential", "crra"]))
@settings(max_examples=25, deadline=None)
def test_numeric_duals_are_finite_or_inf_or_raise(seed, kind):
    # depth 1-2, density floor 0.05
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_depth=2)
    fam = contract_family(kind, tree, rng)
    dd = sample_density(tree, tree.root, rng, floor=0.05)
    r = tree.root_index
    mass = np.array([dd.values[node_id] for node_id in tree.ids])
    bar = np.array([mass[tree.descendant_indices(z)].sum() for z in tree.children_index[r]])
    for call in (lambda: dual_value(fam, tree.root, dd),
                 lambda: one_step_dual_value(fam.one_steps[r], mass[r], bar),
                 lambda: dual_recursion_residual(fam, tree.root, dd)):
        try:
            value = call()
        except TreevalError:
            continue
        assert isinstance(value, float)
        assert math.isfinite(value) or value == math.inf


class TestDualProperties:
    def test_entropic_dual_passes(self):
        t, params, fam = entropic_setup()
        report = check_dual_properties(
            t, "root", lambda dd: entropic_dual(params, "root", dd), trials=40, seed=0)
        assert report.all_passed
        assert report.infimum_attains_zero

    def test_sum_of_two_duals_reports_positive_infimum(self):
        t = three_node_tree()
        p1 = entropic_params(t, 1.0)
        p2 = entropic_params(t, 1.0, reference=np.array([0.2, 0.6, 0.2]))
        report = check_dual_properties(
            t, "root",
            lambda dd: entropic_dual(p1, "root", dd) + entropic_dual(p2, "root", dd),
            trials=40, seed=1)
        assert report.convexity_passed
        assert report.rejects_off_simplex
        assert report.infimum_nonnegative
        assert not report.infimum_attains_zero
        assert report.infimum > 1e-3  # the value of pooling heterogeneous views

    def test_concave_perturbation_fails_convexity(self):
        t, params, fam = entropic_setup()

        def bent(dd):
            lam = np.array([dd.values.get(i, 0.0) for i in t.ids])
            return entropic_dual(params, "root", dd) - 5.0 * float(lam[1] ** 2)

        report = check_dual_properties(t, "root", bent, trials=40, seed=2)
        assert not report.convexity_passed
        assert report.worst_convexity_residual > 1e-3

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_validated(self, trials):
        t, params, _ = entropic_setup()
        with pytest.raises(ValidationError, match="trials must be >= 1"):
            check_dual_properties(t, "root", lambda dd: entropic_dual(params, "root", dd), trials=trials)


class TestSolverOptions:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DualSolverOptions(tolerance=0.0)
        with pytest.raises(ValidationError):
            DualSolverOptions(max_iterations=0)

    @pytest.mark.parametrize("field, value", [
        ("tolerance", math.inf), ("tolerance", math.nan), ("tolerance", -1e-9),
        ("gradient_tolerance", math.inf), ("gradient_tolerance", math.nan),
        ("gradient_tolerance", -1.0), ("gradient_tolerance", 0.0),
        ("max_iterations", 2.5), ("max_iterations", 0), ("max_iterations", True),
        ("max_iterations", "10"),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValidationError, match=field):
            DualSolverOptions(**{field: value})

    def test_accepts_numpy_scalars(self):
        opts = DualSolverOptions(tolerance=np.float64(1e-9), max_iterations=np.int64(10))
        assert opts.max_iterations == 10
