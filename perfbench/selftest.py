#!/usr/bin/env python3
"""Self-test of the benchmark, at toy size.

    python3 perfbench/selftest.py

For every workload it checks that

* the command prints, as its last line, one JSON object with exactly the
  keys correct, attempted, failed and metrics, and every op passes;
* ``--trace 0`` emits exactly the end-to-end metrics of BENCHMARK.json and
  ``--trace 1`` exactly its per-module metrics, each with its unit;
* every op output shifted by 1e-3 is counted as failed;

and that in a directory holding only BENCHMARK.json and the benchmark's
files the command exits non-zero without printing a result.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
CORRUPTION = 1e-3


def run_cli(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.2", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_cli(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run_cli(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        errors.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')} "
                      f"attempted={result.get('attempted')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: entry.get("unit") for name, entry in result.get("metrics", {}).items()}
    if got != wanted:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}, "
                      f"units {[(n, got[n], wanted[n]) for n in got if n in wanted and got[n] != wanted[n]]}")
    for name, entry in result.get("metrics", {}).items():
        if not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{where}: {name} has no numeric value")
    return errors


def check_corruption(workload: str) -> list[str]:
    import run

    res = run.execute(workload, SEED, 0.05, False, size="toy", corrupt=CORRUPTION)["result"]
    if res["failed"] != res["attempted"] or res["correct"]:
        return [f"{workload}: only {res['failed']} of {res['attempted']} ops shifted by "
                f"{CORRUPTION} were counted as failed"]
    return []


def check_bare_directory() -> list[str]:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in HERE.iterdir():
            if path.is_file():
                shutil.copy2(path, bare / "perfbench" / path.name)
        proc = run_cli(bare, "sweep", 0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
            return [f"bare directory: exit code {proc.returncode}, stdout tail {lines[-1:]}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    import run

    run._import_library()
    errors = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            errors += check_cli(spec, workload, trace)
        errors += check_corruption(workload)
        print(f"{workload}: {'ok' if not errors else 'FAILED'}", flush=True)
    errors += check_bare_directory()
    for line in errors:
        print("FAIL " + line)
    print("selftest " + ("passed" if not errors else f"failed ({len(errors)} problems)"))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
