"""`dual` workload: numeric dual solves and primal-from-dual round trips.

Every op drives ``treeval.dual`` and ``treeval.optim`` (finite-difference
ascent, exponentiated-gradient descent on the simplex) through thousands of
tiny sweeps of 2d rows each; no ``market`` or ``risksharing`` code runs.
"""

from __future__ import annotations

import numpy as np

import oracles
from harness import Op, Workload
from inputs import full_tree_records, random_shape_records, weighted
from treeval.dual import DualSolverOptions, dual_value_and_argmax, primal_from_dual
from treeval.families import entropic_dual, entropic_family, entropic_params
from treeval.tree import CashBalance
from treeval.valuation import ValuationFamily

# (branching, depth, time of the node x): subtrees of 3 to 15 nodes
SOLVE_SHAPES = ((2, 1, 0), (2, 2, 0), (2, 3, 0), (3, 1, 0), (3, 2, 0), (3, 3, 1))
ROUND_TRIP_MAX_NODES = 7   # round trips from internal nodes with subtrees this small
# A round trip costs about as much as 30 solves; one a pass leaves most of
# the time budget to round trips and still times a few hundred solves.
SIZES = {
    # solves of each shape and round trips per pass, passes
    "full": {"solves": 3, "round_trips": 1, "passes": 60},
    "toy": {"solves": 1, "round_trips": 1, "passes": 2},
}
DENSITY_FLOOR = 0.05
SOLVE_OPTS = DualSolverOptions(gradient_tolerance=1e-7)        # criterion 02
ENVELOPE_OPTS = DualSolverOptions(gradient_tolerance=3e-7)     # criterion 03, inner solves
ROUND_TRIP_OPTS = DualSolverOptions(tolerance=5e-6, max_iterations=20_000)  # criterion 03


def _case_tree(rng, timers, shape):
    branching, depth, level = shape
    records = weighted(rng, full_tree_records(branching, depth))
    tree = timers.build(records)
    at_level = [i for i in range(tree.n_nodes) if tree.time[i] == level]
    xi = at_level[int(rng.integers(len(at_level)))]
    gamma = float(rng.uniform(0.5, 1.5))
    params = entropic_params(tree, gamma)
    return records, tree, xi, params


def _floored_density(rng, size: int) -> np.ndarray:
    raw = rng.uniform(DENSITY_FLOOR, 1.0, size)
    return raw / raw.sum()


def setup(seed: int, workdir, timers, size: str = "full") -> Workload:
    cfg = SIZES[size]
    rng = np.random.default_rng(seed)
    wl = Workload("dual")
    wl.counters = {"ascent_iterations": 0, "eg_iterations": 0}

    def solve_op(shape) -> Op:
        records, tree, xi, params = _case_tree(rng, timers, shape)
        family = entropic_family(params)
        wl.families.append(family)
        x = tree.ids[xi]
        sub = tree.descendant_indices(xi)
        lam = dict(zip((tree.ids[i] for i in sub), map(float, _floored_density(rng, sub.size))))

        def run():
            with wl.tracer.span("dual.solve"):
                value, _, res = dual_value_and_argmax(family, x, lam, SOLVE_OPTS)
            wl.counters["ascent_iterations"] += res.iterations
            return value

        return Op("dual.solve.b{}d{}".format(*shape), run,
                  lambda v: oracles.check_close(v, entropic_dual(params, x, lam), oracles.DUAL_TOL,
                                                "numeric dual vs entropic_dual"),
                  lambda v, d: v + d,
                  lambda: {"seed": seed, "nodes": [[r.id, r.parent, r.weight] for r in records],
                           "x": x, "gamma": params.gamma, "density": lam})

    def round_trip_op() -> Op:
        # criterion 03's draw: a random tree of depth 1 to 3, gamma in
        # [0.5, 1.5], cash uniform on [-3, 3]; x is a random internal node
        # among those whose subtree has at most ROUND_TRIP_MAX_NODES nodes
        records = weighted(rng, random_shape_records(rng, max_depth=3))
        tree = timers.build(records)
        small = [i for i in range(tree.n_nodes)
                 if not tree.is_leaf[i] and tree.descendant_indices(i).size <= ROUND_TRIP_MAX_NODES]
        xi = small[int(rng.integers(len(small)))]
        params = entropic_params(tree, float(rng.uniform(0.5, 1.5)))
        family = entropic_family(params)
        wl.families.append(family)
        x = tree.ids[xi]
        ids_sub = [tree.ids[i] for i in tree.descendant_indices(xi)]
        cash = rng.uniform(-3.0, 3.0, tree.n_nodes)
        balance = CashBalance(tree, cash)

        def run():
            state = {"start": None}

            def solve(density):
                with wl.tracer.span("dual.envelope_solve"):
                    value, argmax, res = dual_value_and_argmax(family, x, density, ENVELOPE_OPTS,
                                                               start=state["start"])
                wl.counters["ascent_iterations"] += res.iterations
                if argmax is not None:
                    state["start"] = res.x.copy()
                return value, argmax

            def dual_fn(density):
                return solve(density)[0]

            def gradient(density):
                wl.counters["eg_iterations"] += 1
                _, argmax = solve(density)
                return {node_id: -argmax.value_at(node_id) for node_id in ids_sub}

            with wl.tracer.span("dual.round_trip"):
                value, _ = primal_from_dual(dual_fn, x, balance, ROUND_TRIP_OPTS, gradient=gradient)
            return value

        def check(value):
            # the class method bypasses the traced wrapper on the instance
            primal = float(ValuationFamily.node_values(family, balance.values)[xi])
            return oracles.check_close(value, primal, oracles.ROUND_TRIP_TOL, "round trip vs family value")

        return Op("dual.round_trip", run, check, lambda v, d: v + d,
                  lambda: {"seed": seed, "nodes": [[r.id, r.parent, r.weight] for r in records],
                           "x": x, "gamma": params.gamma, "cash": cash.tolist()})

    for _ in range(cfg["passes"]):
        ops = [solve_op(shape) for _ in range(cfg["solves"]) for shape in SOLVE_SHAPES]
        ops.extend(round_trip_op() for _ in range(cfg["round_trips"]))
        wl.passes.append(ops)
    return wl
