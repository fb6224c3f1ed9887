#!/usr/bin/env python3
"""Smoke test for the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at --tiny size, once per --trace value,
and checks that:
  - every metric BENCHMARK.json names is printed, with its unit;
  - clean runs are correct, with no failed operation;
  - a --corrupt-one run counts exactly one failed operation;
  - model_* values and the pipeline.*/scene.* counts repeat exactly across
    two runs of one seed.
Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = (
    "pipeline.instances_per_splat",
    "pipeline.pairs_per_pixel",
    "pipeline.blend_ratio",
    "scene.miss_ratio",
    "scene.evictions",
    "scene.peak_resident_mb",
)


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1"]
    cmd += ["--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"FAIL {what}")
    print(f"ok   {what}")


def main() -> None:
    for w in SPEC["workloads"]:
        name = w["name"]
        results = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(name, trace)
            results[trace] = res
            for m in SPEC[key]:
                got = res["metrics"].get(m["name"])
                check(
                    got is not None and got["unit"] == m["unit"],
                    f"{name} trace={trace} prints {m['name']} [{m['unit']}]",
                )
            check(set(res["metrics"]) == {m["name"] for m in SPEC[key]},
                  f"{name} trace={trace} prints no other metric")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{name} trace={trace} clean run verifies every operation")
        bad = run(name, 0, "--corrupt-one")
        check(bad["failed"] == 1 and not bad["correct"],
              f"{name} corrupted frame counted as one failure")
        again0, again1 = run(name, 0), run(name, 1)
        for m in ("model_raster_us", "model_fps", "model_energy_mj"):
            check(again0["metrics"][m]["value"] == results[0]["metrics"][m]["value"],
                  f"{name} {m} repeats exactly")
        for m in COUNTS:
            check(again1["metrics"][m]["value"] == results[1]["metrics"][m]["value"],
                  f"{name} {m} repeats exactly")
    print("smoke test passed")


if __name__ == "__main__":
    main()
