#!/usr/bin/env python3
"""Bench-regression gate: diff a fresh bench report against the committed one.

Usage: bench_compare.py BASELINE.json CURRENT.json [--summary FILE]

BASELINE is the committed canonical trajectory (BENCH_pipeline.json at the
repo root); CURRENT is a fresh run, typically CI's quick-mode
BENCH_pipeline.quick.json. The two run different configurations (canonical
vs quick), so absolute timings are not comparable — what the gate enforces
is the report's *shape*:

  * every schema tag (top-level and per-section) is one this gate knows;
    unknown schemas are rejected uniformly, in both reports, so a tag typo
    or an unregistered new section fails loudly instead of gating nothing,
  * identical top-level schema tag (schema drift must bump the committed
    baseline in the same PR),
  * every aggregated section the baseline has (micro / service / wire /
    fleet / faults / scene_store) present with its expected per-section
    schema tag,
  * every micro benchmark name in the baseline still reported (a silently
    dropped benchmark is how perf trajectories rot),
  * the derived headline metrics still computed (raster_fast_speedup,
    raster_hw_model_overhead, wire_relative_throughput, routed_relative_throughput,
    faulted_relative_throughput,
    faulted_deadline_hit_rate, faulted_p99_ms,
    budgeted_relative_throughput, budgeted_hit_rate,
    budgeted_resident_under_budget),
  * two same-run value gates:
    - micro.raster_hw_model_overhead (the GauRast functional model's median
      over the reference kernel's, both timed in the same run) is at most
      1.0 — the model renders bit-identical images, so it must not be slower
      than the kernel it matches;
    - micro.raster_fast_speedup (the reference kernel's median over the fast
      kernel's, same run) is at least MIN_RASTER_FAST_SPEEDUP, in canonical
      and quick reports alike, so a fast kernel that falls back to scalar
      lanes fails (see the constant).

It also writes an informational current/baseline ratio table (markdown) to
--summary, or to $GITHUB_STEP_SUMMARY when set, or stdout — so every CI run
shows the timing trajectory next to the gate verdict. Exits non-zero on any
shape violation.
"""

import argparse
import json
import os
import sys


# Every schema tag this gate understands. A report (baseline or current)
# carrying any other tag is rejected outright — one rule for the top level
# and every section, so new reports must be registered here to pass.
SECTIONS = (
    "micro",
    "service",
    "wire",
    "fleet",
    "faults",
    "scene_store",
)

KNOWN_SCHEMAS = {
    "": {
        "gaurast-bench-pipeline/v2",
        "gaurast-bench-pipeline/v3",
        "gaurast-bench-pipeline/v4",
        "gaurast-bench-pipeline/v5",
        "gaurast-bench-pipeline/v6",
        "gaurast-bench-pipeline/v7",
    },
    "micro": {"gaurast-bench-micro/v1"},
    "service": {"gaurast-bench-service/v1"},
    "wire": {"gaurast-bench-service-wire/v1"},
    "fleet": {"gaurast-bench-service-fleet/v1"},
    "faults": {"gaurast-bench-service-faults/v1"},
    "scene_store": {"gaurast-bench-service-scenes/v1"},
}


# raster_hw_model / raster_reference medians from one run. Above 1.0 the
# functional model costs more than the software kernel it matches bit for bit.
MAX_HW_MODEL_OVERHEAD = 1.0

# raster_reference / raster_fast medians from one bench_micro run, on a noisy
# 4-vCPU x86-64 host. Canonical (20000 Gaussians at 320x240, repeat 5): the
# scalar lane loop the SIMD kernel replaced read 4.7-6.5x over 12 runs; the
# SIMD kernel read 8.3-13.1x on the AVX path (12 runs) and 8.8-12.5x on the
# SSE2 path (6 runs). Quick (4000 Gaussians at 160x120, repeat 5): the scalar
# lane loop read 5.0-7.3x in 9 of 10 runs (22.4x once); the SIMD kernel read
# 12.5-18.2x on AVX and 10.2-17.3x on SSE2 (12 runs each). The floor sits
# between the spreads and gates both kinds of report.
MIN_RASTER_FAST_SPEEDUP = 7.5


def unknown_schema_errors(label, report):
    """Uniform unknown-schema rejection for one report."""
    errors = []

    def check(where, tag):
        known = KNOWN_SCHEMAS[where]
        if tag not in known:
            errors.append(
                f"{label}: unknown {'top-level' if not where else where} "
                f"schema '{tag}' (known: {', '.join(sorted(known))})"
            )

    check("", report.get("schema"))
    for section in SECTIONS:
        if section in report:
            check(section, report[section].get("schema"))
    return errors


def fail(errors):
    for err in errors:
        print(f"bench_compare: FAIL: {err}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail([f"cannot load {path}: {err}"])


def micro_medians(report):
    """name -> median_ms for a gaurast-bench-micro report."""
    return {
        r["name"]: r.get("median_ms")
        for r in report.get("results", [])
        if "name" in r
    }


def check_shape(baseline, current):
    errors = []
    errors += unknown_schema_errors("baseline", baseline)
    errors += unknown_schema_errors("current", current)
    base_schema = baseline.get("schema")
    cur_schema = current.get("schema")
    if base_schema != cur_schema:
        errors.append(
            f"top-level schema drift: baseline '{base_schema}' vs current "
            f"'{cur_schema}' (bump the committed baseline in the same PR)"
        )
    for section in SECTIONS:
        if section not in baseline:
            continue  # an older baseline never gates sections it lacks
        if section not in current:
            errors.append(f"section '{section}' missing from current report")
            continue
        base_tag = baseline[section].get("schema")
        cur_tag = current[section].get("schema")
        if base_tag != cur_tag:
            errors.append(
                f"section '{section}' schema drift: baseline '{base_tag}' "
                f"vs current '{cur_tag}'"
            )

    base_micro = micro_medians(baseline.get("micro", {}))
    cur_micro = micro_medians(current.get("micro", {}))
    missing = sorted(set(base_micro) - set(cur_micro))
    if missing:
        errors.append(
            "micro benchmarks missing from current report: " + ", ".join(missing)
        )

    derived_expectations = (
        ("micro", "raster_fast_speedup"),
        ("micro", "raster_hw_model_overhead"),
        ("wire", "wire_relative_throughput"),
        ("fleet", "routed_relative_throughput"),
        ("faults", "faulted_relative_throughput"),
        ("faults", "faulted_deadline_hit_rate"),
        ("faults", "faulted_p99_ms"),
        ("scene_store", "budgeted_relative_throughput"),
        ("scene_store", "budgeted_hit_rate"),
        ("scene_store", "budgeted_resident_under_budget"),
    )
    for section, key in derived_expectations:
        if section not in baseline:
            continue
        if key in baseline[section].get("derived", {}) and key not in current.get(
            section, {}
        ).get("derived", {}):
            errors.append(f"derived metric '{section}.{key}' no longer reported")

    micro = current.get("micro", {})
    overhead = micro.get("derived", {}).get("raster_hw_model_overhead")
    if overhead is not None and overhead > MAX_HW_MODEL_OVERHEAD:
        errors.append(
            f"micro.raster_hw_model_overhead {overhead:.3f} > "
            f"{MAX_HW_MODEL_OVERHEAD}: the hardware model is slower than the "
            "reference kernel it is bit-identical to"
        )
    speedup = micro.get("derived", {}).get("raster_fast_speedup")
    if speedup is not None and speedup < MIN_RASTER_FAST_SPEEDUP:
        path = micro.get("raster_fast_path", "unknown")
        errors.append(
            f"micro.raster_fast_speedup {speedup:.3f} < "
            f"{MIN_RASTER_FAST_SPEEDUP} on the {path} path: the fast kernel "
            "is no faster than its scalar lane loop was"
        )
    return errors


def ratio_table(baseline, current):
    """Markdown: per-benchmark current/baseline timing ratios + headlines."""
    lines = [
        "### Bench trajectory (current / committed baseline)",
        "",
        "Configs differ (quick vs canonical), so ratios are informational, "
        "not thresholds.",
        "",
        "| benchmark | baseline median | current median | ratio |",
        "|---|---|---|---|",
    ]
    base_micro = micro_medians(baseline.get("micro", {}))
    cur_micro = micro_medians(current.get("micro", {}))
    for name in sorted(base_micro):
        base_ms = base_micro[name]
        cur_ms = cur_micro.get(name)
        if not base_ms or cur_ms is None:
            ratio = "n/a"
        else:
            ratio = f"{cur_ms / base_ms:.3f}x"
        cur_text = "missing" if cur_ms is None else f"{cur_ms:.3f} ms"
        lines.append(f"| {name} | {base_ms:.3f} ms | {cur_text} | {ratio} |")

    lines += ["", "| derived metric | baseline | current |", "|---|---|---|"]

    def fmt(value):
        return "n/a" if value is None else f"{value:.3f}x"

    for section, key in (
        ("micro", "raster_fast_speedup"),
        ("micro", "sort_parallel_speedup"),
        ("micro", "raster_hw_model_overhead"),
        ("wire", "wire_relative_throughput"),
        ("fleet", "routed_relative_throughput"),
        ("faults", "faulted_relative_throughput"),
        ("scene_store", "budgeted_relative_throughput"),
        ("scene_store", "budgeted_hit_rate"),
    ):
        base_val = baseline.get(section, {}).get("derived", {}).get(key)
        cur_val = current.get(section, {}).get("derived", {}).get(key)
        if base_val is None and cur_val is None:
            continue
        lines.append(f"| {section}.{key} | {fmt(base_val)} | {fmt(cur_val)} |")
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline", help="committed canonical BENCH_pipeline.json")
    parser.add_argument("current", help="freshly produced report to gate")
    parser.add_argument(
        "--summary",
        default=os.environ.get("GITHUB_STEP_SUMMARY"),
        help="write the markdown ratio table here "
        "(default: $GITHUB_STEP_SUMMARY, else stdout)",
    )
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)

    table = ratio_table(baseline, current)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as f:
            f.write(table)
    else:
        print(table)

    errors = check_shape(baseline, current)
    if errors:
        fail(errors)
    print(f"bench_compare: OK — {args.current} matches the shape of {args.baseline}")


if __name__ == "__main__":
    main()
