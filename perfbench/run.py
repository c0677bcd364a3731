#!/usr/bin/env python3
"""Benchmark of the treeval valuation engine, end to end and per module.

    python3 perfbench/run.py --workload {sweep,dual,hedge_pool} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The library is imported from ``src/``.
One process, one thread, one closed-loop client.  A workload builds its
passes of ops from the seed and runs them in order while the time budget
lasts; every op's output is checked against an independent oracle.  Op
times are thread CPU time, reported in units of a reference computation
timed between ops (see README.md).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
passes untraced for half the time, then the same passes traced, then the
once-per-run ops (too slow to repeat, they feed only per-module metrics)
traced, with spans around every call into a module and every backward
sweep, and prints the per-module metrics; the spans are written to
``perfbench/out/`` at the end.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:   # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sweep", "dual", "hedge_pool")
SETUP_REPS = 5
IMPORT_REPS = 5
# setup_s is set-up CPU time in reference units times the reference time
# on this machine in a calm phase, so slow phases of a shared machine do not
# move it (see README.md)
CALM_REF_S = 0.0075

END_TO_END = {
    "setup_s": "s",
    "op_geomean_ref": "ref",
    "peak_rss_mb": "MB",
}
SWEEP_SERIES = ("entropic.d8", "worst.d8", "entropic.d4", "ui_crra.d4")
PER_LAYER = {
    "tree.build_ms": "ms",
    "io.load_ms": "ms",
    **{f"families.{f}.evaluate_ns_per_row.{b}": "ns"
       for f in ("entropic", "worst", "ui_crra") for b in ("b1", "b256")},
    **{f"valuation.sweep_ns_per_node_row.{s}.{b}": "ns" for s in SWEEP_SERIES for b in ("b1", "b256")},
    "valuation.sweep_calls": "count",
    "valuation.sweep_rows": "count",
    "valuation.sweep_s": "s",
    "valuation.sweep_share": "ratio",
    "valuation.check_axioms_s": "s",
    "valuation.check_axioms_self_s": "s",
    "valuation.check_axioms_sweeps_per_trial": "count",
    "dual.solve_ms.p50": "ms",
    "dual.round_trip_ms.p50": "ms",
    "dual.self_s": "s",
    "optim.ascent_iterations": "count",
    "optim.sweep_rows_per_ascent_iteration": "count",
    "optim.eg_iterations": "count",
    "market.hedge_ms.p50": "ms",
    "market.hedge_self_s": "s",
    "market.hedge_two_asset_ms": "ms",
    "market.sweep_rows_per_hedge": "count",
    "market.check_axioms_s": "s",
    "risksharing.pool_dual_ms.p50": "ms",
    "risksharing.pool_direct_ms.p50": "ms",
    "risksharing.stability_ms.p50": "ms",
    "risksharing.sweep_rows_per_pool": "count",
    "risksharing.check_axioms_s": "s",
    "bench.trace_overhead": "ratio",
}


def _import_library():
    """Import treeval from this checkout's src/, never from elsewhere."""
    if not (SRC / "treeval" / "__init__.py").is_file():
        raise SystemExit(f"error: no treeval package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import treeval

    if Path(treeval.__file__).resolve().parent != (SRC / "treeval").resolve():
        raise SystemExit(f"error: imported treeval from {treeval.__file__}, not from {SRC}")


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def fresh_import(reps: int) -> tuple[float, float]:
    """CPU time of a fresh interpreter that imports treeval and exits (what
    every CLI invocation pays): median seconds, and median in reference
    units (divided by the reference time measured just before)."""
    from harness import reference_seconds

    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import treeval"
    seconds, relative = [], []
    for _ in range(reps):
        ref = reference_seconds()
        started = _children_cpu()
        subprocess.run([sys.executable, "-c", code], check=True, env=os.environ.copy(), timeout=120)
        seconds.append(_children_cpu() - started)
        relative.append(seconds[-1] / ref)
    return statistics.median(seconds), statistics.median(relative)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _loop(wl, budget: float, corrupt: float, order=None):
    """Run the passes in ``order``, or else cycle through the passes from
    the first until the next pass, taking the median pass time so far,
    would overrun the wall-clock budget (at least one pass; the median
    keeps one slow pass from ending the run early).  Returns one (pass
    index, op CPU times, pass wall time, reference time paired with each
    op) per executed pass, and the failure records."""
    from harness import run_pass

    first_ids = np.cumsum([0] + [len(ops) for ops in wl.passes])
    runs, failures = [], []
    started = time.perf_counter()
    while True:
        done = len(runs)
        if order is not None:
            if done == len(order):
                return runs, failures
            p = order[done]
        else:
            elapsed = time.perf_counter() - started
            if done and elapsed + statistics.median(run[2] for run in runs) > budget:
                return runs, failures
            p = done % len(wl.passes)
        pass_started = time.perf_counter()
        lat, ref, fails = run_pass(wl, wl.passes[p], corrupt=corrupt, first_id=int(first_ids[p]))
        runs.append((p, lat, time.perf_counter() - pass_started, ref))
        failures.extend(fails)


def layer_metrics(wl, table, traced, once_cpu, untraced, setup_parts, probe) -> dict:
    from harness import SWEEP

    m = {name: 0.0 for name in PER_LAYER}
    m["tree.build_ms"] = 1e3 * setup_parts["tree_build"]
    m["io.load_ms"] = 1e3 * setup_parts["io_load"]
    m.update(probe)

    # per-op sweep timings of the untraced passes, per node-row
    for kind, rows in wl.extras.get("node_rows", {}).items():
        samples = [t for p, lat, *_ in untraced for op, t in zip(wl.passes[p], lat) if op.kind == kind]
        m[f"valuation.sweep_ns_per_node_row.{kind}"] = 1e9 * float(np.median(samples)) / rows

    def p50_ms(name):
        ids = table.ids(name)
        return 1e3 * float(np.median(table.duration[ids])) if ids.size else 0.0

    def rows_under(top_names):
        return float(sum(table.rows[table.under(sweeps, t)].sum() for t in top_names))

    sweeps = table.ids(SWEEP)
    traced_cpu = sum(float(lat.sum()) for _, lat, *_ in traced) + float(once_cpu.sum())
    traced_rel = sum(float((lat / ref).sum()) for _, lat, _, ref in traced)
    m["valuation.sweep_calls"] = int(sweeps.size)
    m["valuation.sweep_rows"] = int(table.rows[sweeps].sum())
    m["valuation.sweep_s"] = float(table.duration[sweeps].sum())
    m["valuation.sweep_share"] = m["valuation.sweep_s"] / traced_cpu

    axioms = table.ids("valuation.check_axioms")
    if axioms.size:
        m["valuation.check_axioms_s"] = float(table.duration[axioms].sum())
        m["valuation.check_axioms_self_s"] = float(table.self_time[axioms].sum())
        m["valuation.check_axioms_sweeps_per_trial"] = (
            table.under(sweeps, "valuation.check_axioms").size / (axioms.size * wl.extras["axiom_trials"]))

    m["dual.solve_ms.p50"] = p50_ms("dual.solve")
    m["dual.round_trip_ms.p50"] = p50_ms("dual.round_trip")
    m["dual.self_s"] = float(table.self_time[table.ids_prefix("dual.")].sum())
    ascent = wl.counters.get("ascent_iterations", 0)
    m["optim.ascent_iterations"] = int(ascent)
    if ascent:
        m["optim.sweep_rows_per_ascent_iteration"] = rows_under(("dual.solve", "dual.round_trip")) / ascent
    m["optim.eg_iterations"] = int(wl.counters.get("eg_iterations", 0))

    hedges = table.ids("market.hedge")
    m["market.hedge_ms.p50"] = p50_ms("market.hedge")
    m["market.hedge_self_s"] = float(table.self_time[hedges].sum())
    m["market.hedge_two_asset_ms"] = 1e3 * float(table.duration[table.ids("op.market.hedge.two_asset")].sum())
    if hedges.size:
        m["market.sweep_rows_per_hedge"] = rows_under(("market.hedge",)) / hedges.size
    m["market.check_axioms_s"] = float(table.duration[table.ids("market.check_axioms")].sum())

    pools = table.ids("risksharing.pool_dual").size + table.ids("risksharing.pool_direct").size
    m["risksharing.pool_dual_ms.p50"] = p50_ms("risksharing.pool_dual")
    m["risksharing.pool_direct_ms.p50"] = p50_ms("risksharing.pool_direct")
    m["risksharing.stability_ms.p50"] = p50_ms("risksharing.stability")
    if pools:
        m["risksharing.sweep_rows_per_pool"] = rows_under(("risksharing.pool_dual", "risksharing.pool_direct")) / pools
    m["risksharing.check_axioms_s"] = float(table.duration[table.ids("risksharing.check_axioms")].sum())

    untraced_rel = sum(float((lat / ref).sum()) for _, lat, _, ref in untraced)
    m["bench.trace_overhead"] = traced_rel / untraced_rel - 1.0
    return m


def execute(workload: str, seed: int, seconds: float, trace: bool, *, size: str = "full",
            corrupt: float = 0.0) -> dict:
    """Set up, run and measure one workload; returns the result object plus
    the environment, the failure records and the trace columns."""
    import importlib

    from harness import SpanTable, Tracer, cpu_clock, reference_seconds
    from inputs import SetupTimers

    module = importlib.import_module(f"{workload}_workload")
    import_s, import_rel = fresh_import(IMPORT_REPS)

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, setup_rel, parts = [], [], []
        for _ in range(SETUP_REPS):
            wl = None   # free the previous set-up's inputs first
            timers = SetupTimers()
            ref = reference_seconds()
            started = cpu_clock()
            wl = module.setup(seed, workdir, timers, size)
            setup_times.append(cpu_clock() - started)
            setup_rel.append(setup_times[-1] / (0.5 * (ref + reference_seconds())))
            parts.append(timers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_parts = {
        "tree_build": statistics.median(t.tree_build for t in parts),
        "io_load": statistics.median(t.io_load for t in parts),
    }

    # one untimed op of each kind first, so lazy imports and first-call
    # costs stay out of the timed passes; its outputs are checked too
    from harness import run_pass

    kinds_seen: set[str] = set()
    firsts = [op for op in wl.ops if not (op.kind in kinds_seen or kinds_seen.add(op.kind))]
    _, _, failures = run_pass(wl, firsts, corrupt=corrupt)
    attempted = len(firsts)

    # a traced run replays the untraced passes, so each loop gets half the time
    untraced, pass_failures = _loop(wl, seconds / 2 if trace else seconds, corrupt)
    failures.extend(pass_failures)
    attempted += sum(lat.size for _, lat, *_ in untraced)
    result = {"env": environment(), "failures": failures, "columns": None}

    if not trace:
        lat = np.concatenate([lat for _, lat, *_ in untraced])
        rel = np.concatenate([lat / ref for _, lat, _, ref in untraced])
        kinds = np.array([op.kind for p, *_ in untraced for op in wl.passes[p]])
        metrics = {
            "setup_s": CALM_REF_S * (import_rel + statistics.median(setup_rel)),
            "op_geomean_ref": float(np.exp(np.mean(np.log(rel)))),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        trace_ok = True
        # printed only: loop totals and the median op (see README.md), the
        # same in CPU and wall seconds, the reference time, the set-up in
        # CPU seconds, and the 90th percentile, which only the sweep
        # workload times often enough to leave ten samples above it
        result["summary"] = {
            "passes_run": len(untraced), "passes": len(wl.passes), "ops_timed": int(lat.size),
            "pass_cpu_s": statistics.median(float(lat.sum()) for _, lat, *_ in untraced),
            "pass_wall_s": statistics.median(run[2] for run in untraced),
            "op_cpu_p50_ms": 1e3 * float(np.percentile(lat, 50)),
            "op_p50_ref": float(np.percentile(rel, 50)),
            "op_cpu_p90_ms": 1e3 * float(np.percentile(lat, 90)),
            "op_p90_ref": float(np.percentile(rel, 90)),
            "op_p50_ref_by_kind": {kind: float(np.median(rel[kinds == kind])) for kind in np.unique(kinds)},
            "pass_ref": statistics.median(float((lat / ref).sum()) for _, lat, _, ref in untraced),
            "ref_ms": 1e3 * float(np.median(np.concatenate([run[3] for run in untraced]))),
            "setup_cpu_s": import_s + statistics.median(setup_times),
            "import_cpu_s": import_s, "setup_build_cpu_s": statistics.median(setup_times),
        }
    else:
        tracer = Tracer()
        wl.tracer = tracer
        for family in wl.families:
            tracer.wrap_sweeps(family)
        for key in wl.counters:
            wl.counters[key] = 0
        traced, traced_failures = _loop(wl, seconds, corrupt, order=[run[0] for run in untraced])
        failures.extend(traced_failures)
        attempted += sum(lat.size for _, lat, *_ in traced) + len(wl.once)
        once_cpu, _, once_failures = run_pass(wl, wl.once, corrupt=corrupt, first_id=len(wl.ops))
        failures.extend(once_failures)
        probe = {}
        if hasattr(module, "probe_families"):
            probe = module.probe_families(wl, seed, min_seconds=0.25 if size == "full" else 0.02)
        table = SpanTable(tracer)
        trace_ok = table.children_within_parent()
        metrics = layer_metrics(wl, table, traced, once_cpu, untraced, setup_parts, probe)
        units = PER_LAYER
        result["columns"] = (tracer.names, tracer.columns())
        result["summary"] = {"spans": int(table.name.size), "children_within_parent": trace_ok,
                             "passes_traced": len(traced),
                             "ops_traced": sum(lat.size for _, lat, *_ in traced) + len(wl.once)}

    result["result"] = {
        "correct": not failures and trace_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy inputs for the self-test")
    args = parser.parse_args(argv)
    _import_library()

    out = execute(args.workload, args.seed, args.seconds, bool(args.trace), size=args.size)
    res = out["result"]
    tag = f"{args.workload}-{args.seed}-{'trace' if args.trace else 'plain'}"
    OUT.mkdir(parents=True, exist_ok=True)
    if out["failures"]:
        path = OUT / f"failures-{tag}.json"
        path.write_text(json.dumps(out["failures"], indent=1, default=str))
        print(f"{len(out['failures'])} failed ops; inputs recorded in {path}", file=sys.stderr)
    if out["columns"] is not None:
        names, cols = out["columns"]
        np.savez(OUT / f"trace-{tag}.npz", names=np.array(names), **cols)
    print("# env " + json.dumps(out["env"], sort_keys=True))
    print("# run " + json.dumps(out["summary"], sort_keys=True))
    failed_frac = res["failed"] / res["attempted"]
    print(f"# failed_frac = {failed_frac!r} ({res['failed']}/{res['attempted']} ops)")
    for name, entry in res["metrics"].items():
        print(f"# {name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
