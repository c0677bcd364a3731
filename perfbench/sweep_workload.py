"""`sweep` workload: direct backward sweeps and the axiom suite.

Direct calls into ``treeval.valuation``: ``ValuationFamily.node_values`` on
batches of 1 and 256 cash rows for the entropic and worst-case families on
a trinomial tree of depth 8 (loaded through ``treeval.io``) and for the
entropic and CRRA indifference families on a trinomial tree of depth 4,
interleaved with ``check_axioms`` (200 trials) on small random trees.  No
optimizer runs.
"""

from __future__ import annotations

import numpy as np

import oracles
from harness import Op, Workload, cpu_clock, median_time
from inputs import (
    child_table,
    full_tree_records,
    random_shape_records,
    tree_document,
    weighted,
    write_json,
)
from treeval.families import entropic_family, entropic_params, entropic_value, worst_case_family, worst_case_params
from treeval.io import load_family, load_tree_document
from treeval.tree import CashBalance
from treeval.valuation import check_axioms

SIZES = {
    # depth of the large and small trinomial trees, axiom trials, passes
    # and cycles per pass
    "full": {"deep": 8, "shallow": 4, "trials": 200, "passes": 5, "cycles": 4},
    "toy": {"deep": 3, "shallow": 2, "trials": 10, "passes": 2, "cycles": 1},
}
CASH = (-2.0, 2.0)
BATCH = 256
POOL_B1 = 4
POOL_B256 = 2

# One cycle of the closed loop: (op kind, repeats).  Roughly half the time
# goes to direct sweeps, split about evenly among the three families, and
# half to check_axioms.
CYCLE = (
    ("entropic.d8.b1", 1),
    ("entropic.d8.b256", 1),
    ("worst.d8.b1", 2),
    ("worst.d8.b256", 1),
    ("entropic.d4.b1", 4),
    ("entropic.d4.b256", 4),
    ("ui_crra.d4.b1", 1),
    ("ui_crra.d4.b256", 1),
    ("check_axioms.entropic", 5),
    ("check_axioms.worst", 5),
)
SWEEP_KINDS = [k for k, _ in CYCLE if not k.startswith("check_axioms")]


def setup(seed: int, workdir, timers, size: str = "full") -> Workload:
    cfg = SIZES[size]
    rng = np.random.default_rng(seed)
    wl = Workload("sweep")

    # -- large trinomial tree: entropic and worst-case (two alphas a node)
    deep_records = weighted(rng, full_tree_records(3, cfg["deep"]))
    deep_built = timers.build(deep_records)
    d_internal, d_kids, d_leaves = child_table(deep_built)
    gamma_deep = float(rng.uniform(0.5, 2.0))
    alphas = rng.dirichlet(np.ones(3), size=(d_internal.size, 2))
    alpha_doc = {deep_built.ids[u]: a.tolist() for u, a in zip(d_internal, alphas)}

    # -- small trinomial tree: entropic and CRRA indifference
    shallow_records = weighted(rng, full_tree_records(3, cfg["shallow"]))
    shallow_built = timers.build(shallow_records)
    s_internal, s_kids, s_leaves = child_table(shallow_built)
    gamma_shallow = float(rng.uniform(0.5, 2.0))
    R = float(rng.uniform(1.5, 4.0))
    x0 = 10.0

    paths = {
        "deep": write_json(workdir / "deep_tree.json", tree_document(deep_records)),
        "deep_entropic": write_json(workdir / "deep_entropic.json", {"family": "entropic", "gamma": gamma_deep}),
        "deep_worst": write_json(workdir / "deep_worst.json",
                                 {"family": "worst", "alphas": alpha_doc, "stopping": True}),
        "shallow": write_json(workdir / "shallow_tree.json", tree_document(shallow_records)),
        "shallow_entropic": write_json(workdir / "shallow_entropic.json",
                                       {"family": "entropic", "gamma": gamma_shallow}),
        "shallow_crra": write_json(workdir / "shallow_crra.json",
                                   {"family": "ui", "utility": "crra", "R": R, "x0": x0}),
    }
    started = cpu_clock()
    deep_tree = load_tree_document(paths["deep"]).tree
    deep_ent = load_family(paths["deep_entropic"], deep_tree)
    deep_worst = load_family(paths["deep_worst"], deep_tree)
    shallow_tree = load_tree_document(paths["shallow"]).tree
    shallow_ent = load_family(paths["shallow_entropic"], shallow_tree)
    shallow_crra = load_family(paths["shallow_crra"], shallow_tree)
    timers.io_load += cpu_clock() - started

    # outcome probabilities of the CRRA one-step at each internal node:
    # (own weight, child subtree weights) over the subtree weight
    w = np.array([r.weight for r in shallow_records])
    wbar = oracles.subtree_sums(shallow_built, w)
    crra_probs = np.concatenate([w[s_internal, None], wbar[s_kids]], axis=1) / wbar[s_internal, None]

    def pool(tree, count, rows):
        shape = (tree.n_nodes,) if rows == 1 else (rows, tree.n_nodes)
        return [rng.uniform(*CASH, shape) for _ in range(count)]

    cash = {
        ("d8", 1): pool(deep_tree, POOL_B1, 1),
        ("d8", BATCH): pool(deep_tree, POOL_B256, BATCH),
        ("d4", 1): pool(shallow_tree, POOL_B1, 1),
        ("d4", BATCH): pool(shallow_tree, POOL_B256, BATCH),
    }
    families = {
        "entropic.d8": deep_ent, "worst.d8": deep_worst,
        "entropic.d4": shallow_ent, "ui_crra.d4": shallow_crra,
    }
    trees = {"d8": (deep_tree, d_internal, d_kids, d_leaves),
             "d4": (shallow_tree, s_internal, s_kids, s_leaves)}
    expected_cache: dict = {}

    def entropic_expected(fam_key, depth_key, rows, j):
        key = (fam_key, rows, j)
        if key not in expected_cache:
            loaded = families[fam_key]
            params = loaded.entropic
            tree = trees[depth_key][0]
            k = cash[(depth_key, rows)][j]
            if rows == 1:
                balance = CashBalance(tree, k)
                expected_cache[key] = np.array([entropic_value(params, node_id, balance)
                                                for node_id in tree.ids])
            else:
                expected_cache[key] = oracles.entropic_rows(tree, params.gamma, params.reference, k)
        return expected_cache[key]

    def sweep_op(kind: str, j: int) -> Op:
        fam_name, depth_key, batch = kind.split(".")
        rows = 1 if batch == "b1" else BATCH
        fam_key = f"{fam_name}.{depth_key}"
        family = families[fam_key].family
        pool_ = cash[(depth_key, rows)]
        k = pool_[j % len(pool_)]
        tree, internal, kids, leaves = trees[depth_key]

        if fam_name == "entropic":
            def check(out):
                return oracles.check_entropic(out, entropic_expected(fam_key, depth_key, rows, j % len(pool_)))
        elif fam_name == "worst":
            def check(out):
                return oracles.check_worst(out, k, tree, alphas, kids, internal, leaves)
        else:
            def check(out):
                return oracles.check_crra(out, k, R, x0, crra_probs, kids, internal, leaves)

        return Op(kind, lambda: family.node_values(k), check, oracles.shifted,
                  lambda: {"seed": seed, "family": fam_key, "rows": rows, "pool_index": j % len(pool_),
                           "gamma": gamma_deep if depth_key == "d8" else gamma_shallow, "R": R, "x0": x0})

    axiom_families = []

    def axiom_op(kind: str, index: int) -> Op:
        # depths cycle 1..4 so every pass holds the same mix of tree sizes;
        # branching and weights are random as in the axiom criterion
        depth = 1 + index % 4
        pairs = random_shape_records(rng, depth=depth)
        records = weighted(rng, pairs)
        tree = timers.build(records)
        trial_seed = int(rng.integers(2**31))
        if kind.endswith("entropic"):
            gamma = float(rng.uniform(0.3, 2.0))
            family = entropic_family(entropic_params(tree, gamma))
            desc = {"gamma": gamma}
        else:
            table = {}
            for u in range(tree.n_nodes):
                if not tree.is_leaf[u]:
                    c = len(tree.children_index[u])
                    table[tree.ids[u]] = rng.dirichlet(np.ones(c), size=2).tolist()
            family = worst_case_family(worst_case_params(tree, table, stopping=True))
            desc = {"alphas": table}
        axiom_families.append(family)
        trials = cfg["trials"]

        def run():
            with wl.tracer.span("valuation.check_axioms"):
                return check_axioms(family, trials=trials, seed=trial_seed)

        return Op(kind, run, oracles.check_axiom_report, oracles.shifted_report,
                  lambda: {"seed": seed, "nodes": [[r.id, r.parent, r.weight] for r in records],
                           "trials": trials, "trial_seed": trial_seed, **desc})

    counts: dict[str, int] = {}
    for _ in range(cfg["passes"]):
        ops = []
        for _ in range(cfg["cycles"]):
            for kind, repeats in CYCLE:
                for _ in range(repeats):
                    j = counts.get(kind, 0)
                    counts[kind] = j + 1
                    ops.append(axiom_op(kind, j) if kind.startswith("check_axioms") else sweep_op(kind, j))
        wl.passes.append(ops)

    wl.families = [f.family for f in families.values()] + axiom_families
    wl.extras = {
        "node_rows": {kind: trees[kind.split(".")[1]][0].n_nodes * (1 if kind.endswith("b1") else BATCH)
                      for kind in SWEEP_KINDS},
        "axiom_trials": cfg["trials"],
        "probe_steps": {
            "entropic": (shallow_ent.family, shallow_tree.root_index),
            "worst": (deep_worst.family, deep_tree.root_index),
            "ui_crra": (shallow_crra.family, shallow_tree.root_index),
        },
    }
    return wl


def probe_families(wl: Workload, seed: int, min_seconds: float) -> dict[str, float]:
    """ns per row of direct one-step ``evaluate`` calls at a node with three
    children, at batch 1 and batch 256."""
    rng = np.random.default_rng(seed + 1)
    out = {}
    for name, (family, root) in wl.extras["probe_steps"].items():
        step = family.one_steps[root]
        k1, c1 = float(rng.uniform(*CASH)), rng.uniform(*CASH, 3)
        kb, cb = rng.uniform(*CASH, BATCH), rng.uniform(*CASH, (BATCH, 3))
        out[f"families.{name}.evaluate_ns_per_row.b1"] = 1e9 * median_time(
            lambda: step.evaluate(k1, c1), min_seconds=min_seconds, per_call_rows=1)
        out[f"families.{name}.evaluate_ns_per_row.b256"] = 1e9 * median_time(
            lambda: step.evaluate(kb, cb), min_seconds=min_seconds, per_call_rows=BATCH)
    return out
