import numpy as np
import pytest

from helpers import (
    binary_tree,
    outcomes,
    random_cash,
    random_tree,
    three_node_tree,
    trinomial_tree,
    worst_stopping_bruteforce,
)
from treeval.errors import DomainError, TreevalError, ValidationError
from treeval.families import (
    CRRAUtility,
    ExponentialUtility,
    UIParams,
    WorstCaseParams,
    crra_one_period_dual,
    crra_ui_dual,
    entropic_dual,
    entropic_family,
    entropic_one_step,
    entropic_params,
    entropic_value,
    exponential_uniqueness_witness,
    indifference_price,
    ui_dc_counterexample,
    ui_family,
    ui_one_step,
    ui_params,
    worst_case_family,
    worst_case_one_step,
    worst_case_params,
)
from treeval.families import _entropic_kernel, _softmax, _ui_kernel
from treeval.tree import CashBalance, NodeRecord, build_tree
from treeval.valuation import check_axioms

# direct evaluation of the closed forms on the 3-node reference case,
# frozen from independent arithmetic
THREE_NODE_VALUE = -0.3607916143083083    # -log(0.2 + 0.4 e^-1 + 0.4 e)
THREE_NODE_DUAL = 0.02526715392157057     # 0.5 log(5/4) + 0.3 log(3/4)
CRRA_TWO_POINT_DUAL = 0.06698729810778081  # 1 - (2 + sqrt 3)/4


def k3(tree, root=0.0, up=1.0, down=-1.0):
    return CashBalance.from_mapping(tree, {"root": root, "up": up, "down": down})


class TestEntropicValue:
    def test_constant_is_identity(self):
        t = three_node_tree()
        params = entropic_params(t, gamma=2.0)
        assert entropic_value(params, "root", CashBalance.constant(t, 1.7)) == pytest.approx(1.7, abs=1e-12)

    def test_three_node_reference_case(self):
        t = three_node_tree()
        params = entropic_params(t, gamma=1.0)
        assert entropic_value(params, "root", k3(t)) == pytest.approx(THREE_NODE_VALUE, abs=1e-12)

    def test_small_gamma_approaches_the_mean(self):
        t = three_node_tree()
        params = entropic_params(t, gamma=1e-4)
        # reference-weighted mean of (0, 1, -1) is 0
        assert abs(entropic_value(params, "root", k3(t))) <= 1e-3

    def test_logsumexp_stays_finite_for_large_stakes(self):
        t = three_node_tree()
        params = entropic_params(t, gamma=10.0)
        k = k3(t, 0.0, -80.0, 70.0)
        v = entropic_value(params, "root", k)
        assert np.isfinite(v)
        # dominant-term expansion: the worst leaf plus its log-weight
        assert v == pytest.approx(-80.0 - np.log(0.4) / 10.0, abs=1e-9)


class TestEntropicDual:
    def test_reference_density_has_zero_penalty(self):
        t = three_node_tree()
        params = entropic_params(t, gamma=1.0)
        lam = {"root": 0.2, "up": 0.4, "down": 0.4}
        assert entropic_dual(params, "root", lam) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass(self):
        t = three_node_tree()
        params = entropic_params(t, gamma=1.0)
        assert entropic_dual(params, "root", {"up": 1.0}) == pytest.approx(-np.log(0.4), abs=1e-12)

    def test_reference_case(self):
        t = three_node_tree()
        params = entropic_params(t, gamma=1.0)
        lam = {"root": 0.2, "up": 0.5, "down": 0.3}
        assert entropic_dual(params, "root", lam) == pytest.approx(THREE_NODE_DUAL, abs=1e-12)

    def test_mass_off_subtree_rejected(self):
        t = binary_tree(2)
        params = entropic_params(t, gamma=1.0, reference=np.full(t.n_nodes, 1.0 / t.n_nodes))
        with pytest.raises(DomainError, match="outside the subtree"):
            entropic_dual(params, "u", {"uu": 0.5, "dd": 0.5})

    def test_legendre_pairing(self):
        # weak duality with equality at the exponentially tilted density
        rng = np.random.default_rng(8)
        t = random_tree(rng, max_depth=3)
        params = entropic_params(t, gamma=1.4)
        for _ in range(20):
            k = random_cash(rng, t)
            raw = rng.uniform(0.05, 1.0, t.n_nodes)
            lam = dict(zip(t.ids, raw / raw.sum()))
            lhs = entropic_value(params, t.root, k)
            rhs = sum(lam[i] * k.value_at(i) for i in t.ids) + entropic_dual(params, t.root, lam)
            assert lhs <= rhs + 1e-10
        k = random_cash(rng, t)
        tilt = params.reference * np.exp(-params.gamma * k.values)
        tilt /= tilt.sum()
        lam_star = dict(zip(t.ids, tilt))
        gap = (sum(lam_star[i] * k.value_at(i) for i in t.ids)
               + entropic_dual(params, t.root, lam_star)
               - entropic_value(params, t.root, k))
        assert abs(gap) <= 1e-10


class TestEntropicOneStep:
    def test_zero_at_zero(self):
        t = three_node_tree()
        step = entropic_one_step(entropic_params(t, gamma=1.0), "root")
        assert step.evaluate(0.0, np.zeros(2)) == pytest.approx(0.0, abs=1e-15)

    def test_constant(self):
        t = three_node_tree()
        step = entropic_one_step(entropic_params(t, gamma=2.5), "root")
        assert step.evaluate(3.0, np.full(2, 3.0)) == pytest.approx(3.0, abs=1e-12)

    def test_assembled_family_matches_closed_form_on_random_trees(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            t = random_tree(rng, max_depth=3)
            params = entropic_params(t, gamma=float(rng.uniform(0.3, 2.0)))
            fam = entropic_family(params)
            k = random_cash(rng, t)
            vals = fam.node_values(k.values)
            for node_id in t.ids:
                assert vals[t.node_index(node_id)] == pytest.approx(
                    entropic_value(params, node_id, k), abs=1e-12)

    def test_pasting_factorization_identity(self):
        # sum_y p_y exp(-g pi_z(K)) over each subtree equals the subtree's
        # own exponential moment, exactly
        rng = np.random.default_rng(14)
        t = random_tree(rng, max_depth=4)
        params = entropic_params(t, gamma=1.1)
        fam = entropic_family(params)
        k = random_cash(rng, t)
        vals = fam.node_values(k.values)
        for node_id in t.ids:
            i = t.node_index(node_id)
            sub = t.descendant_indices(i)
            lhs = params.subtree_reference[i] * np.exp(-params.gamma * vals[i])
            rhs = np.sum(params.reference[sub] * np.exp(-params.gamma * k.values[sub]))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestWorstCase:
    def test_single_alpha_no_stopping_is_linear(self):
        t = three_node_tree()
        params = worst_case_params(t, {"root": [[0.3, 0.7]]}, stopping=False)
        step = worst_case_one_step(params, "root")
        assert step.evaluate(99.0, np.array([1.0, 2.0])) == pytest.approx(1.7, abs=1e-15)

    def test_stopping_takes_the_minimum(self):
        t = three_node_tree()
        params = worst_case_params(t, {"root": [[0.5, 0.5]]}, stopping=True)
        step = worst_case_one_step(params, "root")
        assert step.evaluate(-1.0, np.array([5.0, 5.0])) == -1.0

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(7)
        t = binary_tree(2)
        alpha = {node_id: np.array([0.5, 0.5]) for node_id in ("r", "u", "d")}
        params = worst_case_params(t, {k: [v] for k, v in alpha.items()}, stopping=True)
        fam = worst_case_family(params)
        k = rng.uniform(-5, 5, t.n_nodes)
        got = float(fam.node_values(k)[t.root_index])
        assert got == pytest.approx(worst_stopping_bruteforce(t, alpha, k), abs=1e-12)

    def test_bruteforce_on_random_trees(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            t = random_tree(rng, max_depth=3)
            alpha = {}
            for i in t.internal_indices():
                m = len(t.children_index[i])
                raw = rng.uniform(0.2, 1.0, m)
                alpha[t.ids[i]] = raw / raw.sum()
            params = worst_case_params(t, {k: [v] for k, v in alpha.items()}, stopping=True)
            fam = worst_case_family(params)
            k = rng.uniform(-5, 5, t.n_nodes)
            got = float(fam.node_values(k)[t.root_index])
            assert got == pytest.approx(worst_stopping_bruteforce(t, alpha, k), abs=1e-12)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(23)
        t = random_tree(rng, max_depth=3)
        alphas = {}
        for i in t.internal_indices():
            m = len(t.children_index[i])
            raw = rng.uniform(0.2, 1.0, (2, m))
            alphas[t.ids[i]] = [row / row.sum() for row in raw]
        fam = worst_case_family(worst_case_params(t, alphas, stopping=True))
        k = rng.uniform(-5, 5, t.n_nodes)
        base = fam.node_values(k)
        for c in (0.0, 0.5, 2.0):
            assert np.allclose(fam.node_values(c * k), c * base, atol=1e-12)

    @pytest.mark.parametrize("alphas, message", [
        ({"r": [[0.5, 0.5]], "u": [[0.5, 0.5]]}, "missing child distributions for node 'd'"),
        ({"r": [[0.5, 0.5]], "u": [[0.5, 0.5]], "d": [[0.2, 0.3, 0.5]]}, "at 'd' has wrong length"),
        ({"r": [[0.5, 0.5]], "u": [[0.5, 0.5], [0.5]], "d": [[0.5, 0.5]]}, "at 'u' has wrong length"),
        ({"r": [[0.5, 0.5]], "u": [[0.5, 0.5]], "d": [[0.5, 0.5], [0.6, 0.6]]}, "at 'd' is not a probability"),
        ({"r": [[0.5, 0.5]], "u": [[np.nan, 1.0]], "d": [[0.5, 0.5]]}, "at 'u' is not a probability"),
        ({"r": [[0.5, 0.5]], "u": [[0.5, 0.5]], "d": []}, "need at least one distribution at 'd'"),
    ])
    def test_each_node_is_checked_with_its_level(self, alphas, message):
        with pytest.raises(ValidationError, match=message):
            worst_case_params(binary_tree(2), alphas)
        # constructed directly, the parameters are checked alike
        with pytest.raises(ValidationError, match=message):
            WorstCaseParams(binary_tree(2), alphas)

    def test_distributions_are_stored_read_only_per_node(self):
        t = binary_tree(2)
        params = worst_case_params(t, {"r": [[0.5, 0.5]], "u": [[0.2, 0.8], [0.7, 0.3]], "d": [[1.0, 0.0]]})
        assert params.alphas["u"].tolist() == [[0.2, 0.8], [0.7, 0.3]]
        assert params.alphas["d"].shape == (1, 2)
        assert not params.alphas["u"].flags.writeable

    def test_levels_pad_a_node_with_its_first_distribution(self):
        t = binary_tree(2)
        params = WorstCaseParams(t, {"r": [[0.5, 0.5]], "u": [[0.2, 0.8], [0.7, 0.3]], "d": [[1.0, 0.0]]})
        assert len(params.levels) == len(t.level_groups)
        for (stack,), (nodes, _) in zip(params.levels, t.level_groups):
            assert not stack.flags.writeable
            rows = {t.ids[u]: row.tolist() for u, row in zip(nodes.tolist(), stack)}
            assert rows == ({"r": [[0.5, 0.5]]} if "r" in rows else
                            {"u": [[0.2, 0.8], [0.7, 0.3]], "d": [[1.0, 0.0], [1.0, 0.0]]})

    def test_axiom_suite_passes(self):
        t = trinomial_tree(2)
        alphas = {}
        for i in t.internal_indices():
            alphas[t.ids[i]] = [[0.2, 0.3, 0.5], [1.0 / 3] * 3]
        fam = worst_case_family(worst_case_params(t, alphas, stopping=True))
        report = check_axioms(fam, trials=300, seed=11)
        assert report.all_passed, report.as_dict()


class TestIndifferencePrice:
    def test_constant_outcomes(self):
        b = indifference_price(ExponentialUtility(1.0), 0.0, [0.5, 0.5], [2.0, 2.0])
        assert float(b) == pytest.approx(2.0, abs=1e-12)

    def test_exponential_matches_entropic_one_step(self):
        t = three_node_tree()
        params = entropic_params(t, gamma=1.3)
        ent_step = entropic_one_step(params, "root")
        ui = ui_params(t, ExponentialUtility(1.3), x0=0.0)
        ui_step = ui_one_step(ui, "root")
        rng = np.random.default_rng(5)
        for _ in range(50):
            k_x = float(rng.uniform(-3, 3))
            k_c = rng.uniform(-3, 3, 2)
            assert float(ui_step.evaluate(k_x, k_c)) == pytest.approx(
                float(ent_step.evaluate(k_x, k_c)), abs=1e-10)

    def test_translation_invariance_exact(self):
        ui = CRRAUtility(2.0)
        rng = np.random.default_rng(6)
        for _ in range(25):
            k = rng.uniform(-0.4, 0.4, 3)
            a = float(rng.uniform(-0.3, 0.3))
            b0 = float(indifference_price(ui, 2.0, [1 / 3] * 3, k))
            b1 = float(indifference_price(ui, 2.0, [1 / 3] * 3, k + a))
            assert b1 == pytest.approx(b0 + a, abs=1e-11)

    def test_wide_outcomes_still_price_above_the_wealth_wall(self):
        # the root lies below x0 + min k; the naive [min, max] bracket pokes
        # past the wall but the price itself exists for R > 1
        b = float(indifference_price(CRRAUtility(2.0), 1.0, [0.5, 0.5], [-3.0, 3.0]))
        assert -3.0 <= b < 1.0 + (-3.0)
        wealth = 1.0 + np.array([-3.0, 3.0]) - b
        assert np.all(wealth > 0)
        residual = 0.5 * np.sum((wealth) ** -1.0 * -1.0) - (-1.0)
        assert abs(residual) <= 1e-9

    def test_crra_nonexistence_reports_offender(self):
        # with R < 1 the utility side stays bounded at the wealth wall, so
        # indifference can be unachievable
        with pytest.raises(DomainError, match="no indifference price"):
            indifference_price(CRRAUtility(0.5), 1.0, [0.5, 0.5], [-5.0, 5.0])
        with pytest.raises(DomainError, match=r"\[-5.0, 5.0\]"):
            indifference_price(CRRAUtility(0.5), 1.0, [0.5, 0.5], [[0.1, 0.2], [-5.0, 5.0]])

    @pytest.mark.parametrize("utility, x0", [(CRRAUtility(2.0), 5.0), (CRRAUtility(0.5), 3.0),
                                             (ExponentialUtility(0.7), 1.0)])
    def test_equal_outcomes_price_to_themselves_exactly(self, utility, x0):
        # the start, the mean, is the root: it is taken, not bisected away
        for p in ([0.5, 0.5], [1 / 3] * 3, [0.1, 0.2, 0.3, 0.4]):
            for c in (-1.7, 0.0, 0.3, 2.5):
                assert float(indifference_price(utility, x0, p, [c] * len(p))) == c

    def test_exponential_price_of_widely_spread_outcomes(self):
        # Newton from the mean, 640 here, gains only about 1/gamma a step on
        # the exponential: 100 steps stopped near 307
        p, k = np.array([0.3, 0.4, 0.3]), np.array([0.0, 1812.0, 27.0])
        expected = -np.log(np.sum(p * np.exp(-1.662 * k))) / 1.662
        price = float(indifference_price(ExponentialUtility(1.662), 0.0, p, k))
        assert price == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("utility, x0", [(CRRAUtility(2.0), 5.0), (CRRAUtility(4.0), 2.0),
                                             (CRRAUtility(0.5), 3.0), (ExponentialUtility(1.3), 0.0)])
    def test_prices_solve_the_indifference_equation_to_rounding(self, utility, x0):
        rng = np.random.default_rng(17)
        p = np.array([0.2, 0.3, 0.1, 0.4])
        k = rng.uniform(-1.5, 1.5, (300, 4))
        b = indifference_price(utility, x0, p, k)
        assert np.all((k.min(axis=1) <= b) & (b <= k.max(axis=1)))
        residual = (p * utility.value(x0 + k - b[:, None])).sum(axis=1) - utility.value(x0)
        assert np.max(np.abs(residual)) <= 1e-14 * abs(float(utility.value(x0)))

    def test_exponential_prices_do_not_depend_on_the_reference_wealth(self):
        # u(800) underflows to 0; the price is x0-free, -log E exp(-k)
        for x0 in (0.0, 800.0, -800.0):
            b = float(indifference_price(ExponentialUtility(1.0), x0, [0.5, 0.5], [0.0, 1.0]))
            assert b == pytest.approx(-np.log(0.5 + 0.5 * np.exp(-1.0)), abs=1e-15)

    def test_a_batch_entry_prices_as_it_does_alone(self):
        # each entry stops on its own step, so its price does not depend
        # on the batch around it
        rng = np.random.default_rng(21)
        u, p = CRRAUtility(2.5), np.array([0.2, 0.3, 0.5])
        k = rng.uniform(-3.0, 3.0, (200, 3))
        k[::7] = k[::7, :1]
        batch = indifference_price(u, 4.0, p, k)
        assert [float(indifference_price(u, 4.0, p, row)) for row in k] == batch.tolist()

    def test_a_mean_past_the_wealth_wall(self):
        # the mean, 19.55, lies far past the wall x0 + min k = 0.1: Newton
        # starts at the wall, where the utility side is -inf, and bisects
        u, x0, p, k = CRRAUtility(2.0), 1.0, np.array([0.5, 0.5]), np.array([-0.9, 40.0])
        b = float(indifference_price(u, x0, p, k))
        assert -0.9 <= b < x0 - 0.9
        assert abs(p @ u.value(x0 + k - b) - u.value(x0)) <= 1e-15

    def test_a_root_closer_to_the_wall_than_any_float_prices_within_the_tolerance(self):
        # the root's wealth at the low outcome is about 1e-127, far below the
        # spacing of prices next to the wall x0 + min k = 1e-6: the price
        # stops within its tolerance, which is measured in price, below the
        # wall, where u is steep enough to leave a utility residual of 1.74
        u, x0, p, k = CRRAUtility(1.01), 1.0, np.array([1e-3, 0.999]), np.array([-0.999999, 5.0])
        b = float(indifference_price(u, x0, p, k))
        wall = x0 + k.min()
        root_wealth_log10 = np.log10((1.0 - p[1] * (x0 + k[1] - wall) ** (1.0 - u.R)) / p[0]) / (1.0 - u.R)
        assert root_wealth_log10 < -120 and 10.0 ** root_wealth_log10 < np.spacing(wall)
        assert b <= wall
        assert wall - b <= 1e-12 * (1.0 + abs(x0) + abs(b))

    def test_the_kernel_gives_the_price_and_its_partials_from_one_solve(self):
        # implicit function theorem: p_y u'(w_y) / sum p u'(w) at the price
        rng = np.random.default_rng(8)
        u, x0 = CRRAUtility(3.0), 4.0
        kernel = _ui_kernel(u, x0)
        data = (rng.dirichlet(np.ones(3), 5),)
        k_x, k_children = rng.uniform(-1.0, 1.0, (7, 5)), rng.uniform(-1.0, 1.0, (7, 5, 2))
        values, partials = kernel.evaluate_with_partials(data, outcomes(k_x, k_children))
        assert np.array_equal(values, kernel.evaluate(data, outcomes(k_x, k_children)))
        k = np.concatenate([k_x[..., None], k_children], axis=-1)
        marginal = data[0] * (x0 + k - values[..., None]) ** -u.R
        assert np.max(np.abs(partials - marginal / marginal.sum(axis=-1, keepdims=True))) <= 1e-15

    @pytest.mark.parametrize("big", [1e15, 1e16])
    def test_partials_at_the_wealth_wall_are_the_one_hot_limit(self, big):
        # at 1e16 the price lands on the wall (zero wealth at the own cash,
        # where u' is infinite); the partials are the limit 1e15 approaches
        kernel = _ui_kernel(CRRAUtility(2.0), 1.0)
        with np.errstate(invalid="raise"):
            values, partials = kernel.evaluate_with_partials((np.array([[0.3, 0.3, 0.4]]),),
                                                             outcomes(np.array([-big]), np.array([[big, big / 2]])))
        assert abs(values[0] + big) <= 1.0
        assert np.max(np.abs(partials - [[1.0, 0.0, 0.0]])) <= 1e-30

    def test_ui_family_axioms_small_stakes(self):
        t = trinomial_tree(2)
        fam = ui_family(ui_params(t, CRRAUtility(2.0), x0=6.0))
        report = check_axioms(fam, trials=60, seed=2, tolerance=1e-9, cash_range=(-0.5, 0.5))
        # pasting is the axiom utility indifference breaks; everything else holds
        for name in ("C", "M", "TI", "Z", "L"):
            assert report.check(name).passed, (name, report.check(name).worst_residual)


class TestEntropicKernel:
    @pytest.mark.parametrize("rows", [7, 256])
    def test_fused_partials_are_the_softmax(self, rows):
        # one set of exponentials gives both: the values are evaluate's and
        # the partials _softmax's, bit for bit (256 rows take the looped
        # reductions of level-sized arrays)
        rng = np.random.default_rng(rows)
        gamma = 1.3
        kernel = _entropic_kernel(gamma)
        data = (np.log(rng.dirichlet(np.ones(4), 5)),)
        k_x, k_children = rng.uniform(-3.0, 3.0, (rows, 5)), rng.uniform(-3.0, 3.0, (rows, 5, 3))
        values, partials = kernel.evaluate_with_partials(data, outcomes(k_x, k_children))
        assert np.array_equal(values, kernel.evaluate(data, outcomes(k_x, k_children)))
        assert np.array_equal(partials, _softmax(data[0] - gamma * np.concatenate([k_x[..., None], k_children],
                                                                                  axis=-1)))

    def test_a_wide_node_values_a_row_as_it_does_alone(self):
        # nine children and the own cash make ten outcomes, an axis whose
        # sums numpy rounds by memory layout; the reductions loop over it,
        # so a batch of rows gives each row's own values bit for bit
        t = build_tree([NodeRecord("r", None, 0.1)] + [NodeRecord(f"c{i}", "r", 0.1) for i in range(9)])
        fam = entropic_family(entropic_params(t, 1.3))
        k = np.random.default_rng(0).uniform(-3.0, 3.0, (300, t.n_nodes))
        assert np.array_equal(fam.node_values(k), np.array([fam.node_values(row) for row in k]))


class TestCRRADual:
    def test_reference_density_gives_zero(self):
        p = np.array([0.25, 0.25, 0.5])
        assert crra_one_period_dual(2.0, 3.0, p, p) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_closed_form(self):
        got = crra_one_period_dual(2.0, 1.0, [0.5, 0.5], [0.25, 0.75])
        assert got == pytest.approx(CRRA_TWO_POINT_DUAL, abs=1e-13)
        assert got == pytest.approx(1.0 - (2.0 + np.sqrt(3.0)) / 4.0, abs=1e-13)

    def test_weak_duality_against_the_price(self):
        # pi(k) <= lam . k + dual(lam) on sampled outcomes
        rng = np.random.default_rng(12)
        p = np.array([0.5, 0.5])
        for _ in range(40):
            lam_raw = rng.uniform(0.1, 1.0, 2)
            lam = lam_raw / lam_raw.sum()
            dual = crra_one_period_dual(2.0, 1.0, p, lam)
            k = rng.uniform(-0.2, 0.2, 2)
            price = float(indifference_price(CRRAUtility(2.0), 1.0, p, k))
            assert price <= float(lam @ k) + dual + 1e-10

    def test_log_utility_unsupported(self):
        with pytest.raises(ValidationError, match="R = 1"):
            crra_one_period_dual(1.0, 1.0, [0.5, 0.5], [0.5, 0.5])

    def test_node_level_wrapper(self):
        t = three_node_tree()
        params = ui_params(t, CRRAUtility(2.0), x0=2.0)
        p = params.probs["root"]
        assert crra_ui_dual(params, "root", p) == pytest.approx(0.0, abs=1e-12)


class TestPastingCounterexample:
    def test_crra_gap_exists(self):
        res = ui_dc_counterexample(2.0, 2.0, budget=10_000, seed=0)
        assert res.found
        assert res.gap > 1e-6
        # witness really has matching time-1 prices
        y = np.array([res.claim[k] for k in sorted(res.claim)])
        other = np.array([res.matched_claim[k] for k in sorted(res.matched_claim)])
        u = CRRAUtility(2.0)
        for i in range(3):
            b_y = float(indifference_price(u, 2.0, [1 / 3] * 3, y[3 * i:3 * i + 3]))
            b_o = float(indifference_price(u, 2.0, [1 / 3] * 3, other[3 * i:3 * i + 3]))
            assert b_y == pytest.approx(b_o, abs=1e-9)

    def test_exponential_control_has_no_gap(self):
        res = ui_dc_counterexample(2.0, 2.0, budget=2_000, seed=0, utility=ExponentialUtility(1.0))
        assert res.gap <= 1e-10

    def test_identical_claims_trivially_gap_free(self):
        u = CRRAUtility(2.0)
        y = np.array([0.1, -0.2, 0.3, 0.0, 0.2, -0.1, 0.25, -0.3, 0.05])
        p9 = [1 / 9] * 9
        assert float(indifference_price(u, 2.0, p9, y)) == float(indifference_price(u, 2.0, p9, y))


class TestUniquenessWitness:
    def test_exponential_has_no_defect(self):
        assert exponential_uniqueness_witness(ExponentialUtility(1.0), trials=200, seed=0) <= 1e-12

    def test_crra_defect_is_visible(self):
        assert exponential_uniqueness_witness(CRRAUtility(2.0), trials=200, seed=0) > 1e-6

    def test_constant_cash_has_zero_defect_for_any_utility(self):
        p = np.array([0.2, 0.4, 0.4])
        for u in (CRRAUtility(2.0), CRRAUtility(0.5), ExponentialUtility(0.7)):
            k = np.full(3, 2.0)
            pi_k = float(u.inverse(np.sum(p * u.value(k))))
            pi_shift = float(u.inverse(np.sum(p * u.value(k + 1.0))))
            assert abs(pi_shift - pi_k - 1.0) <= 1e-12


class TestParamValidation:
    def test_gamma_positive(self):
        t = three_node_tree()
        with pytest.raises(ValidationError):
            entropic_params(t, gamma=0.0)

    def test_reference_must_sum_to_one(self):
        t = three_node_tree()
        with pytest.raises(ValidationError, match="sum to 1"):
            entropic_params(t, gamma=1.0, reference=np.array([0.5, 0.5, 0.5]))

    def test_reference_strictly_positive(self):
        t = three_node_tree()
        with pytest.raises(ValidationError, match="strictly positive"):
            entropic_params(t, gamma=1.0, reference=np.array([0.0, 0.5, 0.5]))

    def test_crra_x0_in_domain(self):
        t = three_node_tree()
        with pytest.raises(ValidationError, match="x0"):
            ui_params(t, CRRAUtility(2.0), x0=-1.0)

    @pytest.mark.parametrize("utility", ["log", None, 2.0])
    def test_ui_params_need_a_supported_utility(self, utility):
        with pytest.raises(ValidationError, match="utility must be"):
            ui_params(three_node_tree(), utility, 1.0)

    def test_indifference_price_needs_a_supported_utility(self):
        with pytest.raises(ValidationError, match="utility must be"):
            indifference_price(None, 1.0, [0.5, 0.5], [0.0, 1.0])

    @pytest.mark.parametrize("probs", [
        {"root": np.array([0.5, 0.7, 0.1])},
        {"root": np.array([np.nan, 0.5, 0.5])},
        {"root": np.array([0.5, 0.5])},
        {},
    ])
    def test_ui_params_built_directly_are_checked(self, probs):
        with pytest.raises(ValidationError, match="outcome probabilities"):
            UIParams(three_node_tree(), ExponentialUtility(1.0), 0.0, probs)

    def test_worst_case_needs_probability_vectors(self):
        t = three_node_tree()
        with pytest.raises(ValidationError, match="not a probability"):
            worst_case_params(t, {"root": [[0.5, 0.6]]})

    @pytest.mark.parametrize("alphas, message", [
        ([[0.5, [0.1, 0.2]]], "must be numbers"),
        ([[{}, 0.5]], "must be numbers"),
        ([[0.5, 0.5], [0.5]], "wrong length"),
        ([[[0.5, 0.5], [0.5, 0.5]]], "wrong length"),
    ])
    def test_worst_case_rejects_ragged_and_non_numeric_distributions(self, alphas, message):
        # a ragged entry or an object among the numbers had raised numpy's
        # ValueError or TypeError, which no caller expects
        with pytest.raises(ValidationError, match=message):
            worst_case_params(three_node_tree(), {"root": alphas})


class TestNaNRejected:
    # a NaN compares False with everything, so sum and sign tests alone
    # let it through; every probability check must also require finite
    # entries

    def test_entropic_dual_nan_mass(self):
        params = entropic_params(three_node_tree(), gamma=1.0)
        with pytest.raises(TreevalError):
            entropic_dual(params, "root", {"root": np.nan, "up": 0.5, "down": 0.5})

    def test_entropic_params_nan_reference(self):
        with pytest.raises(TreevalError):
            entropic_params(three_node_tree(), gamma=1.0, reference=np.array([np.nan, 0.5, 0.5]))

    def test_indifference_price_nan_probability(self):
        with pytest.raises(TreevalError):
            indifference_price(ExponentialUtility(1.0), 0.0, [np.nan, 0.5, 0.5], [0.0, 1.0, -1.0])

    def test_worst_case_params_nan_alphas(self):
        with pytest.raises(TreevalError):
            worst_case_params(three_node_tree(), {"root": [[np.nan, np.nan]]})
