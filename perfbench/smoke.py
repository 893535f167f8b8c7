#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about 20 s).

Usage: python3 perfbench/smoke.py

Checks that
  * every metric BENCHMARK.json names is emitted, with its unit, by an
    untraced and a traced run of every workload, and no operation fails;
  * the tracer puts every wrapped function back after the traced run;
  * the generated configs are byte-identical for a fixed seed.
Exits 1 on the first failed check.
"""

import contextlib
import dataclasses
import io
import json
import sys

import run  # first: pins the BLAS threads before numpy loads
import tracer
import workloads

TINY = {"knn": dict(n=12, members=3, n_reps=60),
        "krr": dict(n=12, members=3, n_reps=60)}
SEED = 7


def check(ok, what):
    print(f"{'ok' if ok else 'FAIL'}: {what}")
    if not ok:
        sys.exit(1)


def main():
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json lists exactly the benchmark's workloads")

    for name, workload in workloads.WORKLOADS.items():
        first, second = (workloads.dumps(workloads.experiment_doc(workload, SEED))
                         for _ in range(2))
        other = workloads.dumps(workloads.experiment_doc(workload, SEED + 1))
        check(first == second and first != other,
              f"{name}: config bytes fixed by the seed ({len(first)} bytes)")

    full = dict(workloads.WORKLOADS)
    try:
        for name, workload in full.items():
            workloads.WORKLOADS[name] = dataclasses.replace(workload, **TINY[workload.kind])
        import sure_lab.cli  # noqa: F401  (loads every layer module)

        originals = tracer.traced_functions()
        for name in full:
            for trace in (0, 1):
                out = io.StringIO()
                argv = ["--workload", name, "--seed", str(SEED), "--seconds", "0.2",
                        "--trace", str(trace)]
                with contextlib.redirect_stdout(out):
                    code = run.main(argv)
                result = json.loads(out.getvalue().strip().splitlines()[-1])
                check(code == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
                      f"{name} trace={trace}: exit 0 and result keys")
                units = {k: v["unit"] for k, v in result["metrics"].items()
                         if isinstance(v["value"], (int, float))}
                check(units == expected[trace],
                      f"{name} trace={trace}: every named metric emitted with its unit")
                check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                      f"{name} trace={trace}: {result['attempted']} operations, none failed")
                if trace:
                    check(not tracer.leftover_wrappers()
                          and all(getattr(sys.modules[f"sure_lab.{layer}"], fn) is func
                                  for layer, fn, func in originals),
                          f"{name}: tracer restored all {len(originals)} wrapped functions")
    finally:
        workloads.WORKLOADS.update(full)
    print("smoke test passed")


if __name__ == "__main__":
    main()
