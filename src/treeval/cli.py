"""Command-line front end.

Verbs: value, dual, share, hedge, spd, check, counterexample.  Each run
prints one JSON object on stdout whose serialization is byte-stable for
fixed inputs and seed (sorted keys, floats at 17 significant digits,
infinities as the strings "inf"/"-inf"); human-readable tables and timing
go to stderr under --pretty.  Exit codes: 0 success, 2 validation error,
3 solver non-convergence or divergence, 4 axiom-suite failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Mapping

import numpy as np

from .dual import (
    DualSolverOptions,
    check_dual_properties,
    dual_recursion_residual,
    dual_value,
    primal_from_dual,
    sample_density,
)
from .errors import (ConvergenceError, DivergenceError, TreevalError, ValidationError, check_count,
                     check_tolerance)
from .families import (
    CRRAUtility,
    ExponentialUtility,
    exponential_uniqueness_witness,
    ui_dc_counterexample,
)
from .io import digest, load_cash, load_family, load_prices, load_tree_document
from .market import extract_state_price_density, market_value, synthesize_one_step_prices
from .risksharing import pooled_family, share_value, stability_check
from .valuation import check_axioms


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def render_report(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    import json as _json

    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return _json.dumps(obj)
    if isinstance(obj, Mapping):
        items = ", ".join(f"{_json.dumps(str(k))}: {render_report(v)}" for k, v in sorted(obj.items()))
        return "{" + items + "}"
    if isinstance(obj, np.ndarray):
        return render_report(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_report(v) for v in obj) + "]"
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def _pretty_lines(results: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(results):
        value = results[key]
        if isinstance(value, Mapping):
            lines.append(f"{prefix}{key}:")
            lines.extend(_pretty_lines(value, prefix + "  "))
        elif isinstance(value, float):
            lines.append(f"{prefix}{key:24s} {value:.10g}")
        else:
            lines.append(f"{prefix}{key:24s} {value}")
    return lines


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treeval",
                                     description="Dynamic concave risk valuation on scenario trees")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, cash=False, family=False, node=False, prices=False, positional_families=False):
        p.add_argument("--tree", required=True, help="tree file (JSON)")
        if cash:
            p.add_argument("--cash", help="cash-balance file (JSON)")
        if family:
            p.add_argument("--family", action="append", default=[], help="family descriptor file")
        if positional_families:
            p.add_argument("families", nargs="*", help="additional family descriptor files")
        if node:
            p.add_argument("--node", default=None, help="node id (default: root)")
        if prices:
            p.add_argument("--prices", required=True, help="one-step pricing weights file")
        p.add_argument("--tol", type=float, default=1e-9, help="solver tolerance")
        p.add_argument("--max-iter", type=int, default=100_000, help="solver iteration budget")
        p.add_argument("--trials", type=int, default=None, help="sample count")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--pretty", action="store_true", help="human table on stderr")

    common(sub.add_parser("value", help="valuation of a cash balance at a node"),
           cash=True, family=True, node=True)
    common(sub.add_parser("dual", help="dual values, dual properties and the dual recursion"),
           cash=True, family=True, node=True)
    common(sub.add_parser("share", help="optimal risk pooling across subsidiaries"),
           cash=True, family=True, node=True, positional_families=True)
    common(sub.add_parser("hedge", help="optimal hedging against the tree's market"),
           cash=True, family=True, node=True)
    common(sub.add_parser("spd", help="state-price density from one-step prices"),
           prices=True)
    common(sub.add_parser("check", help="run the axiom suite on a family"),
           family=True)
    common(sub.add_parser("counterexample", help="pasting counterexample and uniqueness witness"),
           family=True)
    return parser


def _check_flags(args):
    """The numeric flags of every verb, checked before any work
    (``DualSolverOptions`` asks more of --tol: above 0)."""
    check_tolerance("tolerance", args.tol)
    check_count("max_iterations", args.max_iter, 1)
    if args.trials is not None:
        check_count("trials", args.trials, 1)
    if args.seed is not None:
        check_count("seed", args.seed, 0)


def _options(args) -> DualSolverOptions:
    return DualSolverOptions(tolerance=args.tol, max_iterations=args.max_iter)


def _node_or_root(args, tree) -> str:
    return args.node if getattr(args, "node", None) else tree.root


def _require_seed(args):
    if args.seed is None:
        raise ValidationError(f"--seed is required for '{args.verb}' so runs are reproducible")


def _family_paths(args) -> list[str]:
    paths = list(args.family)
    paths.extend(getattr(args, "families", []))
    return paths


def _single_family(args, tree):
    paths = _family_paths(args)
    if len(paths) != 1:
        raise ValidationError(f"'{args.verb}' needs exactly one --family file")
    return paths[0], load_family(paths[0], tree)


def _density_payload(dd) -> dict:
    return {k: v for k, v in dd.values.items()}


def run(args) -> tuple[dict, int]:
    _check_flags(args)
    inputs: dict = {}
    results: dict = {}
    residuals: dict = {}
    status = 0

    doc = None
    if getattr(args, "tree", None):
        doc = load_tree_document(args.tree)
        inputs["tree"] = digest(args.tree)
    tree = doc.tree if doc else None

    balance = None
    if getattr(args, "cash", None):
        balance = load_cash(args.cash, tree)
        inputs["cash"] = digest(args.cash)

    if args.verb == "value":
        path, loaded = _single_family(args, tree)
        inputs["family"] = digest(path)
        if balance is None:
            raise ValidationError("'value' needs --cash")
        node = _node_or_root(args, tree)
        results["node"] = node
        results["value"] = loaded.family.value(node, balance)

    elif args.verb == "dual":
        path, loaded = _single_family(args, tree)
        inputs["family"] = digest(path)
        node = _node_or_root(args, tree)
        opts = _options(args)
        seed = 0 if args.seed is None else args.seed
        trials = 5 if args.trials is None else args.trials
        rng = np.random.default_rng(seed)
        samples = []
        for _ in range(trials):
            dd = sample_density(tree, node, rng)
            entry = {"density": _density_payload(dd)}
            entry["numeric"] = dual_value(loaded.family, node, dd, opts)
            if loaded.family.dual_closed is not None:
                entry["closed_form"] = loaded.family.dual_closed(node, dd.values)
            if not tree.is_leaf[tree.node_index(node)]:
                entry["recursion_residual"] = dual_recursion_residual(loaded.family, node, dd, opts)
            samples.append(entry)
        results["node"] = node
        results["samples"] = samples
        if loaded.family.dual_closed is not None:
            closed = loaded.family.dual_closed
            props = check_dual_properties(
                tree, node, lambda dd: closed(node, dd.values),
                trials=max(trials, 20), seed=seed, opts=opts)
            results["properties"] = props.as_dict()
        if balance is not None and loaded.family.dual_closed is not None:
            value, argmin = primal_from_dual(
                lambda dd: loaded.family.dual_closed(node, dd.values), node, balance, opts)
            direct = loaded.family.value(node, balance)
            results["round_trip"] = {
                "direct": direct,
                "recovered": value,
                "argmin_density": _density_payload(argmin),
            }
            residuals["round_trip_gap"] = abs(value - direct)

    elif args.verb == "share":
        paths = _family_paths(args)
        if len(paths) < 2:
            raise ValidationError("'share' needs at least two family descriptor files")
        if balance is None:
            raise ValidationError("'share' needs --cash")
        loaded = [load_family(p, tree) for p in paths]
        inputs["families"] = [digest(p) for p in paths]
        node = _node_or_root(args, tree)
        subs = [lf.family if lf.entropic is None else lf.entropic for lf in loaded]
        opts = _options(args)
        res = share_value(subs, node, balance, opts)
        results["node"] = node
        results["value"] = res.value
        results["normalized"] = res.normalized
        results["value_of_sharing"] = res.value_of_sharing
        results["method"] = res.method
        results["allocation"] = [piece.as_mapping() for piece in res.allocation]
        if res.argmin_density is not None:
            results["argmin_density"] = _density_payload(res.argmin_density)
        residuals["feasibility_gap"] = res.feasibility_gap
        residuals["achieved_value_gap"] = abs(res.achieved_value - res.value)
        # the pooled gradients, the shadows, do not depend on the families' order
        inside = tree.descendant_indices(tree.node_index(node)).tolist()
        shadows = pooled_family(subs, opts).values_and_gradient(balance.values, inside)[1]
        residuals["stability"] = {tree.ids[i]: stability_check(subs, res.allocation, tree.ids[i], shadow=shadow)
                                  for i, shadow in zip(inside, shadows)}
        if not res.converged:
            status = 3

    elif args.verb == "hedge":
        path, loaded = _single_family(args, tree)
        inputs["family"] = digest(path)
        if doc.market is None:
            raise ValidationError("'hedge' needs asset prices in the tree file")
        if balance is None:
            raise ValidationError("'hedge' needs --cash")
        node = _node_or_root(args, tree)
        res = market_value(loaded.family, doc.market, node, balance, _options(args))
        results["node"] = node
        results["value"] = res.value
        results["normalized"] = res.normalized
        results["access_value"] = res.access_value
        results["strategy"] = {n: list(map(float, v)) for n, v in res.strategy.holdings.items()}
        if not res.converged:
            status = 3

    elif args.verb == "spd":
        prices = load_prices(args.prices, tree)
        inputs["prices"] = digest(args.prices)
        spd = extract_state_price_density(tree, prices)
        results["zeta"] = dict(spd.zeta)
        back = synthesize_one_step_prices(tree, spd.zeta)
        residuals["reproduction"] = max(
            abs(a - b) for node in prices for a, b in zip(prices[node], back[node]))

    elif args.verb == "check":
        _require_seed(args)
        path, loaded = _single_family(args, tree)
        inputs["family"] = digest(path)
        trials = 1000 if args.trials is None else args.trials
        report = check_axioms(loaded.family, trials, args.seed, tolerance=args.tol)
        results["report"] = report.as_dict()
        residuals["worst"] = report.worst_residual
        if not report.all_passed:
            status = 4

    elif args.verb == "counterexample":
        _require_seed(args)
        r_exp, x0 = 2.0, 2.0
        paths = _family_paths(args)
        if paths:
            loaded = load_family(paths[0], tree)
            inputs["family"] = digest(paths[0])
            if loaded.kind != "ui" or loaded.descriptor.get("utility") != "crra":
                raise ValidationError("'counterexample' expects a CRRA ui family descriptor")
            r_exp = float(loaded.descriptor["R"])
            x0 = float(loaded.descriptor["x0"])
        budget = 10_000 if args.trials is None else args.trials
        found = ui_dc_counterexample(r_exp, x0, budget=budget, seed=args.seed)
        control = ui_dc_counterexample(r_exp, x0, budget=max(budget // 5, 1), seed=args.seed,
                                       utility=ExponentialUtility(1.0))
        results["pasting_gap"] = found.gap
        results["found"] = found.found
        if found.found:
            results["claim"] = found.claim
            results["matched_claim"] = found.matched_claim
            results["time0_prices"] = list(found.time0_prices)
            results["time1_prices"] = list(found.time1_prices)
        results["exponential_control_gap"] = control.gap
        results["translation_defect_crra"] = exponential_uniqueness_witness(
            CRRAUtility(r_exp), seed=args.seed)
        results["translation_defect_exponential"] = exponential_uniqueness_witness(
            ExponentialUtility(1.0), seed=args.seed)

    command = {"verb": args.verb}
    for key in ("node", "tol", "max_iter", "trials", "seed"):
        if getattr(args, key, None) is not None:
            command[key] = getattr(args, key)
    report = {"command": command, "inputs": inputs, "results": results, "residuals": residuals}
    return report, status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report, status = run(args)
    except (ValidationError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, DivergenceError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except TreevalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render_report(report) + "\n")
    if args.pretty:
        elapsed = time.perf_counter() - started
        for line in _pretty_lines(report["results"]):
            print(line, file=sys.stderr)
        for line in _pretty_lines(report["residuals"], prefix="residual "):
            print(line, file=sys.stderr)
        print(f"elapsed {elapsed:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
