"""The numeric-input check every entry point shares: ``errors.check_numbers``
on its own, and a table of the library's entry points, each fed a string,
a ragged or misshapen value, None, NaN and infinities where it takes a
number or an array, each of which must raise ``ValidationError``."""

import math

import numpy as np
import pytest

from helpers import three_node_tree
from treeval.dual import DualSolverOptions, dual_value_and_argmax, sample_density
from treeval.errors import ValidationError, check_numbers
from treeval.families import (CRRAUtility, ExponentialUtility, crra_one_period_dual, entropic_family,
                              entropic_one_step, entropic_params, entropic_value, exponential_uniqueness_witness,
                              indifference_price, ui_dc_counterexample, ui_one_step, ui_params)
from treeval.market import Strategy, extract_state_price_density, gains, market, synthesize_one_step_prices
from treeval.risksharing import entropic_allocation, stability_check
from treeval.tree import CashBalance, NodeRecord, build_tree, replace_after, stopping_time
from treeval.valuation import check_axioms, linear_one_step, value_at

# one bad entry of each kind; in an array it stands for the first entry, so
# that the pair makes the array ragged
BAD = {"string": "a", "pair": [0.5, 0.5], "none": None, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _tree():
    return three_node_tree()


def _family():
    return entropic_family(entropic_params(_tree(), 1.0))


def _market():
    return market(_tree(), {"s": {"root": 1.0, "up": 2.0, "down": 0.5}})


def _stability(shadow):
    t = _tree()
    subs = [entropic_params(t, 1.0), entropic_params(t, 2.0)]
    alloc = entropic_allocation(subs, "root", CashBalance(t, [0.0, 1.0, -1.0]))
    return stability_check(subs, alloc, "root", shadow=shadow)


ENTRY_POINTS = {
    # tree
    "node weight": lambda v: build_tree([NodeRecord("r", None, v), NodeRecord("a", "r", 0.5),
                                         NodeRecord("b", "r", 0.5)]),
    "CashBalance": lambda v: CashBalance(_tree(), [v, 1.0, 2.0]),
    "CashBalance.from_mapping": lambda v: CashBalance.from_mapping(_tree(), {"root": v, "up": 1.0, "down": 2.0}),
    "CashBalance.constant": lambda v: CashBalance.constant(_tree(), v),
    "replace_after": lambda v: replace_after(CashBalance.constant(_tree(), 0.0),
                                             stopping_time(_tree(), ["up", "down"]), {"up": v, "down": 0.0}),
    # market
    "market": lambda v: market(_tree(), {"s": {"root": v, "up": 2.0, "down": 0.5}}),
    "gains": lambda v: gains(_market(), "root", Strategy({"root": [v]})),
    "extract_state_price_density": lambda v: extract_state_price_density(_tree(), {"root": [v, 0.5]}),
    "synthesize_one_step_prices": lambda v: synthesize_one_step_prices(_tree(), {"root": v, "up": 1.0,
                                                                                 "down": 1.0}),
    # families
    "entropic_params gamma": lambda v: entropic_params(_tree(), v),
    "entropic_params reference": lambda v: entropic_params(_tree(), 1.0, [v, 0.4, 0.4]),
    "entropic_params reference mapping": lambda v: entropic_params(_tree(), 1.0, {"root": v, "up": 0.4,
                                                                                "down": 0.4}),
    "ExponentialUtility": lambda v: ExponentialUtility(v),
    "CRRAUtility": lambda v: CRRAUtility(v),
    "ui_params x0": lambda v: ui_params(_tree(), CRRAUtility(2.0), v),
    "indifference_price x0": lambda v: indifference_price(CRRAUtility(2.0), v, [0.5, 0.5], [0.1, 0.2]),
    "indifference_price probs": lambda v: indifference_price(CRRAUtility(2.0), 1.0, [v, 0.5], [0.1, 0.2]),
    "indifference_price outcomes": lambda v: indifference_price(CRRAUtility(2.0), 1.0, [0.5, 0.5], [v, 0.1]),
    "crra_one_period_dual R": lambda v: crra_one_period_dual(v, 1.0, [0.5, 0.5], [0.5, 0.5]),
    "crra_one_period_dual x0": lambda v: crra_one_period_dual(2.0, v, [0.5, 0.5], [0.5, 0.5]),
    "crra_one_period_dual probs": lambda v: crra_one_period_dual(2.0, 1.0, [v, 0.5], [0.5, 0.5]),
    "crra_one_period_dual density": lambda v: crra_one_period_dual(2.0, 1.0, [0.5, 0.5], [v, 0.5]),
    "ui_dc_counterexample x0": lambda v: ui_dc_counterexample(2.0, v, budget=1),
    "entropic one-step dual theta": lambda v: entropic_one_step(entropic_params(_tree(), 1.0), "root").dual(
        v, [0.4, 0.4]),
    "entropic one-step dual psi": lambda v: entropic_one_step(entropic_params(_tree(), 1.0), "root").dual(
        0.2, [v, 0.4]),
    "CRRA one-step dual theta": lambda v: ui_one_step(ui_params(_tree(), CRRAUtility(2.0), 1.0), "root").dual(
        v, [0.4, 0.4]),
    "CRRA one-step dual psi": lambda v: ui_one_step(ui_params(_tree(), CRRAUtility(2.0), 1.0), "root").dual(
        0.2, [v, 0.4]),
    # valuation
    "linear_one_step": lambda v: linear_one_step([v, 0.5]),
    "check_axioms cash_range": lambda v: check_axioms(_family(), 1, 0, cash_range=(v, 1.0)),
    # dual
    "dual_value_and_argmax start": lambda v: dual_value_and_argmax(
        _family(), "root", {"root": 0.2, "up": 0.4, "down": 0.4}, start=[v, 0.0, 0.0]),
    "sample_density floor": lambda v: sample_density(_tree(), "root", np.random.default_rng(0), floor=v),
    "DualSolverOptions tolerance": lambda v: DualSolverOptions(tolerance=v),
    "DualSolverOptions gradient_tolerance": lambda v: DualSolverOptions(gradient_tolerance=v),
    # risksharing
    "stability_check shadow": lambda v: _stability([v, 0.5, 0.3]),
}


@pytest.mark.parametrize("kind", BAD)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_rejects_what_is_not_a_finite_number(entry, kind):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[entry](BAD[kind])


class TestCheckNumbers:
    def test_gives_a_new_float_array(self):
        given = np.array([1, 2, 3])
        out = check_numbers("x", given, (3,))
        assert out.dtype == float and out.tolist() == [1.0, 2.0, 3.0]
        floats = np.array([1.0, 2.0])
        assert check_numbers("x", floats) is not floats
        assert check_numbers("x", 2, ()).shape == ()

    @pytest.mark.parametrize("value, message", [
        ("1.5", "^gamma must be a finite number$"),
        (True, "^gamma must be a finite number$"),
        (None, "^gamma must be a finite number$"),
        (10 ** 400, "^gamma must be a finite number$"),
        (math.nan, "^gamma must be a finite number$"),
        ([1.0], r"^gamma must have shape \(\) \(got \(1,\)\)$"),
    ])
    def test_names_the_input_in_its_messages(self, value, message):
        with pytest.raises(ValidationError, match=message):
            check_numbers("gamma", value, ())

    def test_a_long_array_is_not_echoed(self):
        with pytest.raises(ValidationError) as err:
            check_numbers("cash balance", [math.nan] + [0.125] * 1000)
        assert "0.125" not in str(err.value)

    @pytest.mark.parametrize("value", [[[1.0, 2.0], [3.0]], ["a", 1.0], [None, 1.0], [{}, 1.0]])
    def test_rejects_ragged_and_non_numeric_arrays(self, value):
        with pytest.raises(ValidationError, match="^x must be finite numbers$"):
            check_numbers("x", value)


@pytest.mark.parametrize("floor", [-0.1, 1.5])
def test_sample_density_floor_lies_in_the_unit_interval(floor):
    with pytest.raises(ValidationError, match=r"floor must lie in \[0, 1\]"):
        sample_density(_tree(), "root", np.random.default_rng(0), floor=floor)


def test_a_balance_on_another_tree_is_rejected():
    # a copy of the tree is another instance, as for ValuationFamily.value
    t, other = _tree(), _tree()
    params = entropic_params(t, 1.0)
    balance = CashBalance.constant(other, 0.0)
    with pytest.raises(ValidationError, match="different tree"):
        value_at(entropic_family(params), stopping_time(t, ["root"]), balance)
    with pytest.raises(ValidationError, match="different tree"):
        entropic_value(params, "root", balance)


def test_a_state_price_density_must_cover_every_node():
    # a missing node had ended in a bare KeyError
    with pytest.raises(ValidationError, match=r"missing nodes: \['down'\]"):
        synthesize_one_step_prices(_tree(), {"root": 1.0, "up": 1.0})


def test_uniqueness_witness_checks_its_utility():
    with pytest.raises(ValidationError, match="utility must be"):
        exponential_uniqueness_witness("x")
